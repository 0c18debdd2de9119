//! High-level least-squares front door.
//!
//! Both entry points solve the normal equations with Cholesky, falling
//! back to (a) a small ridge perturbation and then (b) Householder QR when
//! the system is rank deficient. This mirrors what production in-DBMS
//! analytics extensions (MADlib, Oracle UTL_NLA) do for robustness, while
//! keeping the fast path allocation-light.
//!
//! * [`solve_normal_equations`] is what the exact `REG` engine runs: the
//!   Gram state is folded during the data scan
//!   ([`crate::gram::GramAccumulator::solve`]) and no design matrix ever
//!   exists.
//! * [`lstsq`] takes a materialized design matrix. Nothing on a served
//!   path calls it; it is the straight-line reference the pushdown fit is
//!   tested against (`gram::tests`, `regq_exact`'s proptests) and what the
//!   gas-sensor surrogate's self-check fits with.
//!
//! The MARS fitter calls neither: it factors its own basis Gram matrices
//! with [`Cholesky`] directly.

use crate::cholesky::Cholesky;
use crate::error::LinalgError;
use crate::matrix::Matrix;
use crate::qr::QrFactorization;

/// Ridge strength of the one Cholesky retry, relative to the mean diagonal
/// of the Gram matrix: small enough that a well-posed fit never sees it
/// (plain Cholesky succeeds first), large enough to make an exactly
/// collinear Gram matrix positive definite in `f64`.
const RIDGE_REL: f64 = 1e-8;

/// How a least-squares solution was obtained (diagnostic).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolvePath {
    /// Plain Cholesky on the normal equations.
    Cholesky,
    /// Cholesky after adding a small ridge to the Gram diagonal.
    Ridged,
    /// Householder QR on the design matrix.
    Qr,
}

/// Result of [`lstsq`].
#[derive(Debug, Clone)]
pub struct LstsqSolution {
    /// Coefficient vector (length = number of design columns).
    pub coeffs: Vec<f64>,
    /// Which numerical path produced the coefficients.
    pub path: SolvePath,
}

/// Solve `min_b ‖X b − y‖₂` for a tall design `X` (`m ≥ n`).
///
/// Strategy: normal equations + Cholesky → ridge retry → QR. Returns the
/// first path that succeeds.
///
/// # Errors
/// * [`LinalgError::DimensionMismatch`] if `y.len() != X.rows()`.
/// * [`LinalgError::Empty`] for an empty design.
/// * [`LinalgError::RankDeficient`] if even QR cannot produce a solution.
pub fn lstsq(x: &Matrix, y: &[f64]) -> Result<LstsqSolution, LinalgError> {
    if x.rows() == 0 || x.cols() == 0 {
        return Err(LinalgError::Empty);
    }
    if y.len() != x.rows() {
        return Err(LinalgError::DimensionMismatch {
            op: "lstsq",
            expected: x.rows(),
            actual: y.len(),
        });
    }
    let gram = x.gram();
    let xty = x.t_matvec(y)?;

    if let Some(sol) = cholesky_then_ridge(&gram, &xty)? {
        return Ok(sol);
    }

    // Last resort: QR directly on the design (only valid for m >= n).
    if x.rows() >= x.cols() {
        let qr = QrFactorization::factor(x)?;
        let coeffs = qr.solve(y)?;
        return Ok(LstsqSolution {
            coeffs,
            path: SolvePath::Qr,
        });
    }
    Err(LinalgError::RankDeficient { column: 0 })
}

/// Solve least squares directly from pre-accumulated normal-equation state
/// `XᵀX b = Xᵀy` — the entry point for aggregation-pushdown fits where the
/// Gram matrix was folded during the data scan and no design matrix exists
/// (see [`crate::gram::GramAccumulator`]).
///
/// The fallback chain mirrors [`lstsq`]: Cholesky on the Gram matrix, then
/// a ridge-perturbed retry, then Householder QR — applied to the (square)
/// Gram system itself, since the design is not available.
///
/// # Errors
/// * [`LinalgError::Empty`] for a `0 × 0` Gram matrix.
/// * [`LinalgError::DimensionMismatch`] if `gram` is not square or
///   `xty.len() != gram.rows()`.
/// * [`LinalgError::RankDeficient`] when every path fails.
pub fn solve_normal_equations(gram: &Matrix, xty: &[f64]) -> Result<LstsqSolution, LinalgError> {
    if gram.rows() == 0 || gram.cols() == 0 {
        return Err(LinalgError::Empty);
    }
    if gram.rows() != gram.cols() {
        return Err(LinalgError::DimensionMismatch {
            op: "solve_normal_equations",
            expected: gram.rows(),
            actual: gram.cols(),
        });
    }
    if xty.len() != gram.rows() {
        return Err(LinalgError::DimensionMismatch {
            op: "solve_normal_equations",
            expected: gram.rows(),
            actual: xty.len(),
        });
    }

    if let Some(sol) = cholesky_then_ridge(gram, xty)? {
        return Ok(sol);
    }

    // Last resort: QR on the (square) Gram system.
    let qr = QrFactorization::factor(gram)?;
    let coeffs = qr.solve(xty)?;
    Ok(LstsqSolution {
        coeffs,
        path: SolvePath::Qr,
    })
}

/// The shared front of both solve chains: plain Cholesky on the normal
/// equations, then one ridge-perturbed retry. `Ok(None)` means "fall
/// through to the caller's QR last resort".
fn cholesky_then_ridge(gram: &Matrix, xty: &[f64]) -> Result<Option<LstsqSolution>, LinalgError> {
    match Cholesky::factor(gram) {
        Ok(ch) => {
            let coeffs = ch.solve(xty)?;
            return Ok(Some(LstsqSolution {
                coeffs,
                path: SolvePath::Cholesky,
            }));
        }
        Err(LinalgError::NotPositiveDefinite { .. }) => {}
        Err(e) => return Err(e),
    }

    let n = gram.rows();
    let mean_diag = (0..n).map(|i| gram[(i, i)]).sum::<f64>() / n as f64;
    let lambda = (mean_diag * RIDGE_REL).max(f64::MIN_POSITIVE);
    let mut ridged = gram.clone();
    ridged.add_diagonal(lambda);
    if let Ok(ch) = Cholesky::factor(&ridged) {
        let coeffs = ch.solve(xty)?;
        return Ok(Some(LstsqSolution {
            coeffs,
            path: SolvePath::Ridged,
        }));
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn design_and_target() -> (Matrix, Vec<f64>) {
        // y = 1 + 2 x1 - 0.5 x2, exact.
        let rows: Vec<Vec<f64>> = (0..30)
            .map(|i| {
                let x1 = i as f64 * 0.1;
                let x2 = (i as f64 * 0.37).sin();
                vec![1.0, x1, x2]
            })
            .collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let y: Vec<f64> = rows.iter().map(|r| 1.0 + 2.0 * r[1] - 0.5 * r[2]).collect();
        (x, y)
    }

    #[test]
    fn recovers_exact_coefficients_via_cholesky() {
        let (x, y) = design_and_target();
        let sol = lstsq(&x, &y).unwrap();
        assert_eq!(sol.path, SolvePath::Cholesky);
        assert!((sol.coeffs[0] - 1.0).abs() < 1e-9);
        assert!((sol.coeffs[1] - 2.0).abs() < 1e-9);
        assert!((sol.coeffs[2] + 0.5).abs() < 1e-9);
    }

    #[test]
    fn collinear_design_falls_back_and_still_predicts() {
        // Third column duplicates the second: rank deficient.
        let rows: Vec<Vec<f64>> = (0..10)
            .map(|i| {
                let x1 = i as f64;
                vec![1.0, x1, x1]
            })
            .collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let y: Vec<f64> = rows.iter().map(|r| 2.0 + 3.0 * r[1]).collect();
        let sol = lstsq(&x, &y).unwrap();
        assert_eq!(sol.path, SolvePath::Ridged);
        // Prediction must still be exact even though individual coefficients
        // are not identifiable: b1 + b2 == 3.
        assert!((sol.coeffs[1] + sol.coeffs[2] - 3.0).abs() < 1e-4);
    }

    #[test]
    fn empty_design_is_an_error() {
        let x = Matrix::zeros(0, 0);
        assert!(matches!(lstsq(&x, &[]), Err(LinalgError::Empty)));
    }

    #[test]
    fn mismatched_target_length_is_an_error() {
        let (x, _) = design_and_target();
        assert!(matches!(
            lstsq(&x, &[1.0, 2.0]),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn normal_equations_match_design_matrix_path() {
        let (x, y) = design_and_target();
        let gram = x.gram();
        let xty = x.t_matvec(&y).unwrap();
        let via_gram = solve_normal_equations(&gram, &xty).unwrap();
        let via_design = lstsq(&x, &y).unwrap();
        assert_eq!(via_gram.path, SolvePath::Cholesky);
        for (a, b) in via_gram.coeffs.iter().zip(via_design.coeffs.iter()) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }

    #[test]
    fn normal_equations_singular_gram_falls_back_to_ridge() {
        // Rank-1 Gram (duplicated column): Cholesky fails, ridge succeeds.
        let gram = Matrix::from_rows(&[vec![2.0, 2.0], vec![2.0, 2.0]]).unwrap();
        let sol = solve_normal_equations(&gram, &[1.0, 1.0]).unwrap();
        assert_eq!(sol.path, SolvePath::Ridged);
        // The ridged solution splits the weight across the twin columns.
        assert!((sol.coeffs[0] + sol.coeffs[1] - 0.5).abs() < 1e-4);
    }

    #[test]
    fn normal_equations_rejects_bad_shapes() {
        let gram = Matrix::zeros(0, 0);
        assert!(matches!(
            solve_normal_equations(&gram, &[]),
            Err(LinalgError::Empty)
        ));
        let rect = Matrix::zeros(2, 3);
        assert!(matches!(
            solve_normal_equations(&rect, &[0.0, 0.0]),
            Err(LinalgError::DimensionMismatch { .. })
        ));
        let sq = Matrix::identity(2);
        assert!(matches!(
            solve_normal_equations(&sq, &[0.0]),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }
}
