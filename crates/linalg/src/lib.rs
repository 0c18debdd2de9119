//! # regq-linalg
//!
//! Linear-algebra substrate for the `regq` workspace.
//!
//! The ICDE'17 paper reproduced by `regq` leans on three numerical kernels:
//!
//! * Euclidean vector arithmetic (query/prototype distances, Definition 2
//!   of the paper at `p = 2`),
//! * ordinary least squares via the normal equations (the exact `REG`
//!   baseline and every MARS/PLR fit), and
//! * online first/second-moment accumulation (the exact `VAR` aggregate).
//!
//! Everything here is hand-rolled on `f64` slices. The one matrix
//! computation is the least-squares solve, and both exact baselines reach
//! it through the normal equations of a Gram matrix they already hold as
//! a packed lower triangle — `(d+1) × (d+1)` for OLS with `d ≤ ~10`, a
//! few dozen columns for MARS — so one Cholesky over that triangle, with
//! one ridged retry, is the whole solver: no dense-matrix type, no design
//! matrix, no second factorization.
//!
//! ## Modules
//!
//! * [`vector`] — slice-level arithmetic, Euclidean distances and their
//!   early-exit bounded variant (the radius-selection hot loop).
//! * [`simd`] — runtime-dispatched (AVX2-or-scalar) distance kernels
//!   over the AoSoA quad-interleaved layout.
//! * [`tune`] — the serving-path tile-shape constants and their
//!   divisibility invariants.
//! * [`runs`] — contiguous runs of an independent batch on every core,
//!   the calling thread first (the served batch and the training
//!   stream's exact chunks).
//! * [`solve`] — [`solve_normal_equations`]: Cholesky over a packed Gram
//!   triangle, one ridged retry.
//! * [`gram`] — streaming `XᵀX`/`Xᵀy` accumulation (aggregation pushdown).
//! * [`stats`] — the Welford accumulator and a sorted-sample quantile.

#![deny(missing_docs)]

pub mod error;
pub mod gram;
pub mod runs;
pub mod simd;
pub mod solve;
pub mod stats;
pub mod tune;
pub mod vector;

pub use error::LinalgError;
pub use gram::GramAccumulator;
pub use solve::solve_normal_equations;
pub use stats::OnlineStats;
