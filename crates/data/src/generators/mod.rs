//! Data-function generators.
//!
//! * [`rosenbrock`] — the paper's R2 benchmark function;
//! * [`gas_sensor`] — seeded surrogate for the paper's R1 dataset;
//! * [`analytic`] — small closed-form functions used in the paper's
//!   illustrations (Fig. 4 saddle, Fig. 5 one-dimensional non-linearity)
//!   and in tests.

pub mod analytic;
pub mod gas_sensor;
pub mod rosenbrock;

pub use analytic::{PiecewiseLinear1d, Saddle2d, SineRidge1d};
pub use gas_sensor::GasSensorSurrogate;
pub use rosenbrock::Rosenbrock;
