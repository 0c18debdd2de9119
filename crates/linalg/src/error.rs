//! Error type shared by the numerical routines in this crate.

use std::fmt;

/// Errors produced by the normal-equations solve.
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// A Cholesky pivot fell to the noise level, the ridged retry's too:
    /// the matrix is not positive definite (within tolerance).
    NotPositiveDefinite {
        /// Index of the failing pivot.
        pivot: usize,
        /// Value of the failing pivot.
        value: f64,
    },
    /// An input contained NaN or infinity.
    NonFinite {
        /// Human-readable description of where the value was found.
        location: &'static str,
    },
    /// An operation that requires at least one observation got none.
    Empty,
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::NotPositiveDefinite { pivot, value } => write!(
                f,
                "matrix is not positive definite (pivot {pivot} = {value:e})"
            ),
            LinalgError::NonFinite { location } => {
                write!(f, "non-finite value encountered in {location}")
            }
            LinalgError::Empty => write!(f, "operation requires at least one observation"),
        }
    }
}

impl std::error::Error for LinalgError {}
