//! Cholesky factorization of symmetric positive-definite matrices.
//!
//! Used to solve the OLS normal equations `XᵀX b = Xᵀu` that back the exact
//! `REG` query engine and the MARS forward pass. For the small systems in
//! this workspace (≤ a few dozen columns) Cholesky is the fastest stable
//! choice; rank-deficient designs are handled one level up by
//! [`crate::solve::lstsq`] via ridge or QR fallback.

use crate::error::LinalgError;
use crate::matrix::Matrix;

/// Lower-triangular Cholesky factor `L` with `A = L·Lᵀ`.
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: Matrix,
}

impl Cholesky {
    /// Factor a symmetric positive-definite matrix.
    ///
    /// Only the lower triangle of `a` is read; symmetry of the upper
    /// triangle is the caller's responsibility (Gram matrices built by
    /// [`Matrix::gram`] are symmetric by construction).
    ///
    /// # Errors
    /// * [`LinalgError::NotSquare`] for rectangular input.
    /// * [`LinalgError::NotPositiveDefinite`] when a pivot is `≤ tol`
    ///   relative to the largest diagonal entry.
    /// * [`LinalgError::NonFinite`] if the input contains NaN/inf.
    pub fn factor(a: &Matrix) -> Result<Self, LinalgError> {
        if a.rows() != a.cols() {
            return Err(LinalgError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        if !a.all_finite() {
            return Err(LinalgError::NonFinite {
                location: "Cholesky::factor input",
            });
        }
        let n = a.rows();
        let max_diag = (0..n).map(|i| a[(i, i)].abs()).fold(0.0, f64::max);
        // Relative tolerance on pivots: treat anything at numerical noise
        // level as a failure so callers can fall back to ridge/QR.
        let tol = max_diag * 1e-13;

        let mut l = Matrix::zeros(n, n);
        for j in 0..n {
            let mut diag = a[(j, j)];
            for k in 0..j {
                diag -= l[(j, k)] * l[(j, k)];
            }
            if diag <= tol || !diag.is_finite() {
                return Err(LinalgError::NotPositiveDefinite {
                    pivot: j,
                    value: diag,
                });
            }
            let ljj = diag.sqrt();
            l[(j, j)] = ljj;
            for i in (j + 1)..n {
                let mut v = a[(i, j)];
                for k in 0..j {
                    v -= l[(i, k)] * l[(j, k)];
                }
                l[(i, j)] = v / ljj;
            }
        }
        Ok(Cholesky { l })
    }

    /// Dimension `n` of the factored matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// The lower-triangular factor `L`.
    pub fn l(&self) -> &Matrix {
        &self.l
    }

    /// Solve `A·x = b` via forward then backward substitution.
    ///
    /// # Errors
    /// [`LinalgError::DimensionMismatch`] if `b.len() != n`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "Cholesky::solve",
                expected: n,
                actual: b.len(),
            });
        }
        // Forward: L y = b.
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut v = b[i];
            for (k, &yk) in y.iter().enumerate().take(i) {
                v -= self.l[(i, k)] * yk;
            }
            y[i] = v / self.l[(i, i)];
        }
        // Backward: Lᵀ x = y.
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut v = y[i];
            for (k, &xk) in x.iter().enumerate().skip(i + 1) {
                v -= self.l[(k, i)] * xk;
            }
            x[i] = v / self.l[(i, i)];
        }
        Ok(x)
    }

    /// Inverse of the factored matrix (solves against each unit vector).
    pub fn inverse(&self) -> Result<Matrix, LinalgError> {
        let n = self.dim();
        let mut inv = Matrix::zeros(n, n);
        let mut e = vec![0.0; n];
        for c in 0..n {
            e[c] = 1.0;
            let col = self.solve(&e)?;
            for r in 0..n {
                inv[(r, c)] = col[r];
            }
            e[c] = 0.0;
        }
        Ok(inv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> Matrix {
        // A = Bᵀ B + I for B = [[1,2,0],[0,1,1],[1,0,1]] is SPD.
        Matrix::from_rows(&[
            vec![3.0, 2.0, 1.0],
            vec![2.0, 6.0, 1.0],
            vec![1.0, 1.0, 3.0],
        ])
        .unwrap()
    }

    #[test]
    fn factor_reconstructs_input() {
        let a = spd3();
        let ch = Cholesky::factor(&a).unwrap();
        let recon = ch.l().matmul(&ch.l().transpose()).unwrap();
        assert!(a.max_abs_diff(&recon).unwrap() < 1e-12);
    }

    #[test]
    fn solve_matches_direct_check() {
        let a = spd3();
        let ch = Cholesky::factor(&a).unwrap();
        let b = vec![1.0, -2.0, 0.5];
        let x = ch.solve(&b).unwrap();
        let ax = a.matvec(&x).unwrap();
        for (l, r) in ax.iter().zip(b.iter()) {
            assert!((l - r).abs() < 1e-10, "Ax != b: {l} vs {r}");
        }
    }

    #[test]
    fn identity_factor_is_identity() {
        let ch = Cholesky::factor(&Matrix::identity(4)).unwrap();
        assert!(ch.l().max_abs_diff(&Matrix::identity(4)).unwrap() < 1e-15);
    }

    #[test]
    fn rejects_indefinite_matrix() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0]]).unwrap(); // eigenvalues 3, -1
        assert!(matches!(
            Cholesky::factor(&a),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn rejects_rectangular_matrix() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            Cholesky::factor(&a),
            Err(LinalgError::NotSquare { .. })
        ));
    }

    #[test]
    fn rejects_nan_input() {
        let mut a = Matrix::identity(2);
        a[(0, 1)] = f64::NAN;
        assert!(matches!(
            Cholesky::factor(&a),
            Err(LinalgError::NonFinite { .. })
        ));
    }

    #[test]
    fn rejects_singular_gram() {
        // Rank-1 Gram matrix.
        let x = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]).unwrap();
        assert!(Cholesky::factor(&x.gram()).is_err());
    }

    #[test]
    fn inverse_times_original_is_identity() {
        let a = spd3();
        let inv = Cholesky::factor(&a).unwrap().inverse().unwrap();
        let prod = a.matmul(&inv).unwrap();
        assert!(prod.max_abs_diff(&Matrix::identity(3)).unwrap() < 1e-10);
    }

    #[test]
    fn solve_rejects_wrong_rhs_length() {
        let ch = Cholesky::factor(&spd3()).unwrap();
        assert!(ch.solve(&[1.0, 2.0]).is_err());
    }
}
