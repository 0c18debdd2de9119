//! # regq-linalg
//!
//! Dense linear-algebra substrate for the `regq` workspace.
//!
//! The ICDE'17 paper reproduced by `regq` leans on three numerical kernels:
//!
//! * Euclidean vector arithmetic (query/prototype distances, Definition 2
//!   of the paper at `p = 2`),
//! * ordinary least squares via the normal equations (the exact `REG`
//!   baseline and the MARS/PLR forward pass), and
//! * online first/second-moment accumulation (the exact `VAR` aggregate).
//!
//! Everything here is hand-rolled on `f64` slices: the matrices involved are
//! small (`(d+1) × (d+1)` for OLS with `d ≤ ~10`, a few dozen columns for
//! MARS), so cache-friendly row-major storage plus Cholesky/Householder
//! factorizations are both simpler and faster than pulling in a general
//! BLAS-backed crate.
//!
//! ## Modules
//!
//! * [`vector`] — slice-level arithmetic, Euclidean distances and their
//!   early-exit bounded variant (the radius-selection hot loop).
//! * [`simd`] — runtime-dispatched (AVX2-or-scalar) distance kernels
//!   over the AoSoA quad-interleaved layout.
//! * [`tune`] — the serving-path tile-shape constants and their
//!   divisibility invariants.
//! * [`matrix`] — row-major dense [`Matrix`].
//! * [`cholesky`] — SPD factorization and solves.
//! * [`qr`] — Householder QR and least-squares solves for `m ≥ n`.
//! * [`solve`] — high-level least-squares front door with ridge fallback,
//!   plus the normal-equation entry point for pushed-down aggregates.
//! * [`gram`] — streaming `XᵀX`/`Xᵀy` accumulation (aggregation pushdown).
//! * [`stats`] — the Welford accumulator and a sorted-sample quantile.

#![deny(missing_docs)]

pub mod cholesky;
pub mod error;
pub mod gram;
pub mod matrix;
pub mod qr;
pub mod simd;
pub mod solve;
pub mod stats;
pub mod tune;
pub mod vector;

pub use cholesky::Cholesky;
pub use error::LinalgError;
pub use gram::GramAccumulator;
pub use matrix::Matrix;
pub use qr::QrFactorization;
pub use solve::{lstsq, solve_normal_equations, LstsqSolution};
pub use stats::OnlineStats;
