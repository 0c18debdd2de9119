//! Row-major dense matrix.
//!
//! Sized for the workloads in this workspace: OLS designs with a handful of
//! columns and MARS bases with a few dozen. Storage is a single contiguous
//! `Vec<f64>` indexed `data[r * cols + c]` so row views are free slices.

use crate::error::LinalgError;
use crate::vector;

/// A dense row-major `rows × cols` matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// A `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// The `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build from a row-major flat buffer.
    ///
    /// # Errors
    /// [`LinalgError::DimensionMismatch`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self, LinalgError> {
        if data.len() != rows * cols {
            return Err(LinalgError::DimensionMismatch {
                op: "Matrix::from_vec",
                expected: rows * cols,
                actual: data.len(),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Build from a slice of equally-long rows.
    ///
    /// # Errors
    /// [`LinalgError::DimensionMismatch`] if rows have differing lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self, LinalgError> {
        let r = rows.len();
        let c = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            if row.len() != c {
                return Err(LinalgError::DimensionMismatch {
                    op: "Matrix::from_rows",
                    expected: c,
                    actual: row.len(),
                });
            }
            data.extend_from_slice(row);
        }
        Ok(Matrix {
            rows: r,
            cols: c,
            data,
        })
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copy of column `c`.
    pub fn col(&self, c: usize) -> Vec<f64> {
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// The underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Transpose into a fresh matrix.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t[(c, r)] = self[(r, c)];
            }
        }
        t
    }

    /// Matrix-vector product `A·x`.
    ///
    /// # Errors
    /// [`LinalgError::DimensionMismatch`] if `x.len() != cols`.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if x.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                op: "Matrix::matvec",
                expected: self.cols,
                actual: x.len(),
            });
        }
        Ok((0..self.rows)
            .map(|r| vector::dot(self.row(r), x))
            .collect())
    }

    /// Matrix product `A·B`.
    ///
    /// # Errors
    /// [`LinalgError::DimensionMismatch`] if inner dimensions disagree.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix, LinalgError> {
        if self.cols != other.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "Matrix::matmul",
                expected: self.cols,
                actual: other.rows,
            });
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        // ikj loop order: stream over `other`'s rows for cache friendliness.
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self[(i, k)];
                if aik == 0.0 {
                    continue;
                }
                let brow = other.row(k);
                let orow = out.row_mut(i);
                for (o, b) in orow.iter_mut().zip(brow.iter()) {
                    *o += aik * b;
                }
            }
        }
        Ok(out)
    }

    /// Gram matrix `AᵀA` (symmetric positive semi-definite), computed
    /// without materializing the transpose.
    pub fn gram(&self) -> Matrix {
        let n = self.cols;
        let mut g = Matrix::zeros(n, n);
        for r in 0..self.rows {
            let row = self.row(r);
            for i in 0..n {
                let ri = row[i];
                if ri == 0.0 {
                    continue;
                }
                for j in i..n {
                    g[(i, j)] += ri * row[j];
                }
            }
        }
        // Mirror the upper triangle.
        for i in 0..n {
            for j in (i + 1)..n {
                g[(j, i)] = g[(i, j)];
            }
        }
        g
    }

    /// `Aᵀy` without materializing the transpose.
    ///
    /// # Errors
    /// [`LinalgError::DimensionMismatch`] if `y.len() != rows`.
    pub fn t_matvec(&self, y: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if y.len() != self.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "Matrix::t_matvec",
                expected: self.rows,
                actual: y.len(),
            });
        }
        let mut out = vec![0.0; self.cols];
        for (r, &yr) in y.iter().enumerate() {
            vector::axpy(yr, self.row(r), &mut out);
        }
        Ok(out)
    }

    /// Maximum absolute difference to another matrix (`∞`-norm of `A − B`);
    /// `None` when shapes differ.
    pub fn max_abs_diff(&self, other: &Matrix) -> Option<f64> {
        if self.rows != other.rows || self.cols != other.cols {
            return None;
        }
        Some(
            self.data
                .iter()
                .zip(other.data.iter())
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max),
        )
    }

    /// `true` if all entries are finite.
    pub fn all_finite(&self) -> bool {
        vector::all_finite(&self.data)
    }

    /// Add `lambda` to every diagonal entry (ridge regularization), in place.
    pub fn add_diagonal(&mut self, lambda: f64) {
        let n = self.rows.min(self.cols);
        for i in 0..n {
            self[(i, i)] += lambda;
        }
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols, "matrix index out of range");
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols, "matrix index out of range");
        &mut self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]).unwrap()
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
    }

    #[test]
    fn from_rows_rejects_ragged_input() {
        let err = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0]]).unwrap_err();
        assert!(matches!(err, LinalgError::DimensionMismatch { .. }));
    }

    #[test]
    fn indexing_round_trips() {
        let mut m = sample();
        assert_eq!(m[(2, 1)], 6.0);
        m[(0, 0)] = -1.0;
        assert_eq!(m.row(0), &[-1.0, 2.0]);
    }

    #[test]
    fn transpose_swaps_dimensions() {
        let t = sample().transpose();
        assert_eq!((t.rows(), t.cols()), (2, 3));
        assert_eq!(t.row(0), &[1.0, 3.0, 5.0]);
    }

    #[test]
    fn matvec_matches_hand_computation() {
        let y = sample().matvec(&[1.0, -1.0]).unwrap();
        assert_eq!(y, vec![-1.0, -1.0, -1.0]);
    }

    #[test]
    fn matvec_rejects_wrong_length() {
        assert!(sample().matvec(&[1.0]).is_err());
    }

    #[test]
    fn matmul_identity_is_noop() {
        let m = sample();
        let i = Matrix::identity(2);
        assert_eq!(m.matmul(&i).unwrap(), m);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(
            c,
            Matrix::from_rows(&[vec![2.0, 1.0], vec![4.0, 3.0]]).unwrap()
        );
    }

    #[test]
    fn gram_equals_explicit_transpose_product() {
        let m = sample();
        let explicit = m.transpose().matmul(&m).unwrap();
        assert!(m.gram().max_abs_diff(&explicit).unwrap() < 1e-12);
    }

    #[test]
    fn t_matvec_equals_explicit_transpose() {
        let m = sample();
        let y = vec![1.0, 0.5, -2.0];
        let explicit = m.transpose().matvec(&y).unwrap();
        assert_eq!(m.t_matvec(&y).unwrap(), explicit);
    }

    #[test]
    fn gram_is_symmetric() {
        let g = sample().gram();
        assert_eq!(g, g.transpose());
    }

    #[test]
    fn add_diagonal_is_ridge() {
        let mut g = sample().gram();
        let before = g[(0, 0)];
        g.add_diagonal(0.5);
        assert_eq!(g[(0, 0)], before + 0.5);
        assert_eq!(g, g.transpose());
    }
}
