//! # regq-data
//!
//! Datasets and data-function substrate for the `regq` workspace.
//!
//! The ICDE'17 paper evaluates on two datasets:
//!
//! * **R1** — a real 6-dimensional gas-sensor-array dataset
//!   (Rodriguez-Lujan et al. 2014) padded with Gaussian-noise rows to
//!   15·10⁶ vectors, features scaled to `[0, 1]`, chosen for its strongly
//!   *non-linear* inter-feature dependencies;
//! * **R2** — 10¹⁰ synthetic tuples of the Rosenbrock benchmark function
//!   with `N(0,1)` feature noise, attribute domain `|x_i| ≤ 10`.
//!
//! The real R1 is not redistributable, so this crate ships a seeded
//! *surrogate* ([`generators::gas_sensor`]) engineered to reproduce the
//! property the paper actually exploits: strong non-linearity (a global
//! linear fit explains little of the output variance in small subspaces).
//! R2 is generated exactly from the paper's formula
//! ([`generators::rosenbrock`]).
//!
//! Everything is deterministic given a seed: experiments are reproducible
//! bit-for-bit.

#![deny(missing_docs)]

pub mod dataset;
pub mod error;
pub mod function;
pub mod generators;
pub mod rng;

pub use dataset::{Dataset, SampleOptions};
pub use error::DataError;
pub use function::DataFunction;
pub use rng::{sample_gaussian, sample_truncated_gaussian, seeded, SeededRng};
