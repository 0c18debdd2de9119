//! Error type for dataset construction.

use std::fmt;

/// Errors from dataset construction and summary statistics.
#[derive(Debug)]
pub enum DataError {
    /// Row/feature dimension disagreement.
    DimensionMismatch {
        /// Expected dimension.
        expected: usize,
        /// Supplied dimension.
        actual: usize,
    },
    /// Operation requires a non-empty dataset.
    Empty,
}

impl fmt::Display for DataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataError::DimensionMismatch { expected, actual } => {
                write!(f, "dimension mismatch: expected {expected}, got {actual}")
            }
            DataError::Empty => write!(f, "dataset is empty"),
        }
    }
}

impl std::error::Error for DataError {}
