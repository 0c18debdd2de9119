//! # regq-exact
//!
//! Exact in-DBMS query engines — the ground truth the paper's model is
//! trained from and evaluated against.
//!
//! * [`q1`] — the exact mean-value query (paper Definition 4): execute the
//!   radius selection, average the output attribute. Extended with second
//!   moments (used by the `regq-core::moments` extension).
//! * [`ols`] — `REG`: multivariate ordinary least squares over a data
//!   subspace (what the paper runs in PostgreSQL/XLeratorDB or Matlab
//!   `regress`), both per-query and global-fit variants.
//! * [`mars`] — `PLR`: piecewise linear regression via Multivariate
//!   Adaptive Regression Splines (Friedman 1991), the ARESLab baseline,
//!   with the paper's settings (forward cap = K models, GCV penalty 3).
//! * [`fit`] — shared goodness-of-fit accounting (SSR/TSS/FVU/CoD, §VI).
//! * [`engine`] — a façade bundling a relation with the three engines and
//!   wall-clock instrumentation (feeds the Fig. 12 efficiency experiment).

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod engine;
pub mod fit;
pub mod mars;
pub mod ols;
pub mod q1;

pub use engine::ExactEngine;
pub use fit::GoodnessOfFit;
pub use mars::{Mars, MarsModel, MarsParams};
pub use ols::{fit_ols, fit_ols_ball, fit_ols_global, BallFit, LinearModel};
pub use q1::{q1_mean, q1_moments, Moments};
