//! Streaming normal-equation state for least squares.
//!
//! [`GramAccumulator`] folds design rows into `XᵀX` / `Xᵀy` (plus the
//! output moments `Σy`, `yᵀy`) one row at a time, so a least-squares fit
//! can ride along a single scan of the data — the shape of MADlib-style
//! shared aggregation, where the aggregate state travels through the
//! access path instead of materializing a design matrix per query. The
//! state is `O(d²)` regardless of row count, merges across partial scans
//! (parallel reduction), and solves via [`crate::solve::solve_normal_equations`].

use crate::error::LinalgError;
use crate::matrix::Matrix;
use crate::solve::{solve_normal_equations, LstsqSolution};

/// Single-pass accumulator of the normal equations `XᵀX b = Xᵀy`.
///
/// Only the lower triangle of the (symmetric) Gram matrix is stored and
/// updated, packed row-major: entry `(r, c)` with `c ≤ r` lives at
/// `r(r+1)/2 + c`.
#[derive(Debug, Clone, PartialEq)]
pub struct GramAccumulator {
    cols: usize,
    n: usize,
    /// Packed lower triangle of `XᵀX`.
    xtx: Vec<f64>,
    /// `Xᵀy`.
    xty: Vec<f64>,
    /// `Σ y` (for the total sum of squares around the mean).
    sum_y: f64,
    /// `yᵀy` (for residual accounting without a second data pass).
    yty: f64,
}

impl GramAccumulator {
    /// Empty state for a design with `cols` columns.
    ///
    /// # Panics
    /// Panics if `cols == 0`.
    pub fn new(cols: usize) -> Self {
        assert!(cols >= 1, "need at least one design column");
        GramAccumulator {
            cols,
            n: 0,
            xtx: vec![0.0; cols * (cols + 1) / 2],
            xty: vec![0.0; cols],
            sum_y: 0.0,
            yty: 0.0,
        }
    }

    /// Number of design columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Rows folded so far.
    #[inline]
    pub fn count(&self) -> usize {
        self.n
    }

    /// `true` before any row has been folded.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Accumulated `Σ y`.
    #[inline]
    pub fn sum_y(&self) -> f64 {
        self.sum_y
    }

    /// Accumulated `yᵀy`.
    #[inline]
    pub fn yty(&self) -> f64 {
        self.yty
    }

    /// Accumulated `Xᵀy`.
    #[inline]
    pub fn xty(&self) -> &[f64] {
        &self.xty
    }

    /// Fold one explicit design row.
    ///
    /// # Panics
    /// Panics in debug builds if `row.len() != cols`.
    #[inline]
    pub fn push_row(&mut self, row: &[f64], y: f64) {
        debug_assert_eq!(row.len(), self.cols, "push_row: width mismatch");
        let mut idx = 0;
        for (r, &xr) in row.iter().enumerate() {
            for &xc in &row[..=r] {
                self.xtx[idx] += xr * xc;
                idx += 1;
            }
            self.xty[r] += xr * y;
        }
        self.account_output(y);
    }

    /// Fold the affine row `[1, x…]` without materializing it — the OLS
    /// hot path (intercept column implicit).
    ///
    /// # Panics
    /// Panics in debug builds if `x.len() + 1 != cols`.
    #[inline]
    pub fn push_affine(&mut self, x: &[f64], y: f64) {
        debug_assert_eq!(x.len() + 1, self.cols, "push_affine: width mismatch");
        // Row 0 of the triangle: the intercept column against itself.
        self.xtx[0] += 1.0;
        self.xty[0] += y;
        let mut idx = 1;
        for (r, &xr) in x.iter().enumerate() {
            // Column 0 (intercept), then columns 1..=r+1 (features).
            self.xtx[idx] += xr;
            idx += 1;
            for &xc in &x[..=r] {
                self.xtx[idx] += xr * xc;
                idx += 1;
            }
            self.xty[r + 1] += xr * y;
        }
        self.account_output(y);
    }

    #[inline]
    fn account_output(&mut self, y: f64) {
        self.sum_y += y;
        self.yty += y * y;
        self.n += 1;
    }

    /// Merge another accumulator over the same design width (parallel
    /// partial-scan reduction).
    ///
    /// # Panics
    /// Panics if the column counts differ.
    pub fn merge(&mut self, other: &GramAccumulator) {
        assert_eq!(self.cols, other.cols, "merge: width mismatch");
        for (a, b) in self.xtx.iter_mut().zip(other.xtx.iter()) {
            *a += b;
        }
        for (a, b) in self.xty.iter_mut().zip(other.xty.iter()) {
            *a += b;
        }
        self.sum_y += other.sum_y;
        self.yty += other.yty;
        self.n += other.n;
    }

    /// Expand the packed triangle into a full symmetric [`Matrix`].
    pub fn gram_matrix(&self) -> Matrix {
        let mut g = Matrix::zeros(self.cols, self.cols);
        let mut idx = 0;
        for r in 0..self.cols {
            for c in 0..=r {
                g[(r, c)] = self.xtx[idx];
                g[(c, r)] = self.xtx[idx];
                idx += 1;
            }
        }
        g
    }

    /// Solve the accumulated normal equations (Cholesky → ridge → QR; see
    /// [`solve_normal_equations`]).
    ///
    /// # Errors
    /// [`LinalgError::Empty`] before any row was folded; solver errors
    /// otherwise.
    pub fn solve(&self) -> Result<LstsqSolution, LinalgError> {
        if self.n == 0 {
            return Err(LinalgError::Empty);
        }
        solve_normal_equations(&self.gram_matrix(), &self.xty)
    }

    /// Sum of squared residuals of a coefficient vector against the
    /// accumulated state: `SSR = yᵀy − 2bᵀXᵀy + bᵀXᵀXb`, clamped at zero
    /// (the closed form can go slightly negative in floating point when
    /// the fit is near-exact).
    ///
    /// # Panics
    /// Panics in debug builds if `coeffs.len() != cols`.
    pub fn ssr(&self, coeffs: &[f64]) -> f64 {
        debug_assert_eq!(coeffs.len(), self.cols, "ssr: width mismatch");
        let mut bxty = 0.0;
        for (b, c) in coeffs.iter().zip(self.xty.iter()) {
            bxty += b * c;
        }
        let mut quad = 0.0;
        let mut idx = 0;
        for (r, &br) in coeffs.iter().enumerate() {
            for (c, &bc) in coeffs[..=r].iter().enumerate() {
                let g = self.xtx[idx];
                idx += 1;
                // Off-diagonal entries appear twice in bᵀGb.
                quad += if c == r {
                    br * bc * g
                } else {
                    2.0 * br * bc * g
                };
            }
        }
        (self.yty - 2.0 * bxty + quad).max(0.0)
    }

    /// Total sum of squares around the output mean,
    /// `TSS = yᵀy − n·ȳ²`, clamped at zero. Zero when empty.
    pub fn tss(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        (self.yty - self.sum_y * self.sum_y / self.n as f64).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solve::{lstsq, SolvePath};

    fn rows_2d() -> Vec<(Vec<f64>, f64)> {
        // y = 1 + 2 x1 - 0.5 x2, exact.
        (0..30)
            .map(|i| {
                let x1 = i as f64 * 0.1;
                let x2 = (i as f64 * 0.37).sin();
                (vec![x1, x2], 1.0 + 2.0 * x1 - 0.5 * x2)
            })
            .collect()
    }

    #[test]
    fn affine_accumulation_matches_design_matrix_lstsq() {
        let rows = rows_2d();
        let mut acc = GramAccumulator::new(3);
        let design: Vec<Vec<f64>> = rows.iter().map(|(x, _)| vec![1.0, x[0], x[1]]).collect();
        let y: Vec<f64> = rows.iter().map(|(_, y)| *y).collect();
        for (x, u) in &rows {
            acc.push_affine(x, *u);
        }
        let x = Matrix::from_rows(&design).unwrap();
        let via_design = lstsq(&x, &y).unwrap();
        let via_gram = acc.solve().unwrap();
        assert_eq!(via_gram.path, SolvePath::Cholesky);
        for (a, b) in via_gram.coeffs.iter().zip(via_design.coeffs.iter()) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn push_row_and_push_affine_agree() {
        let rows = rows_2d();
        let mut affine = GramAccumulator::new(3);
        let mut explicit = GramAccumulator::new(3);
        for (x, u) in &rows {
            affine.push_affine(x, *u);
            explicit.push_row(&[1.0, x[0], x[1]], *u);
        }
        assert_eq!(affine, explicit);
    }

    #[test]
    fn merge_equals_sequential_accumulation() {
        let rows = rows_2d();
        let mut all = GramAccumulator::new(3);
        let mut left = GramAccumulator::new(3);
        let mut right = GramAccumulator::new(3);
        for (i, (x, u)) in rows.iter().enumerate() {
            all.push_affine(x, *u);
            if i < 13 {
                left.push_affine(x, *u);
            } else {
                right.push_affine(x, *u);
            }
        }
        left.merge(&right);
        assert_eq!(left.count(), all.count());
        for (a, b) in left.xty().iter().zip(all.xty().iter()) {
            assert!((a - b).abs() < 1e-12);
        }
        let ga = left.gram_matrix();
        let gb = all.gram_matrix();
        assert!(ga
            .as_slice()
            .iter()
            .zip(gb.as_slice())
            .all(|(a, b)| (a - b).abs() < 1e-9));
    }

    #[test]
    fn ssr_and_tss_match_residual_passes() {
        let rows = rows_2d();
        let mut acc = GramAccumulator::new(3);
        for (x, u) in &rows {
            acc.push_affine(x, *u);
        }
        let sol = acc.solve().unwrap();
        let b = &sol.coeffs;
        let mean = acc.sum_y() / acc.count() as f64;
        let mut ssr = 0.0;
        let mut tss = 0.0;
        for (x, u) in &rows {
            let p = b[0] + b[1] * x[0] + b[2] * x[1];
            ssr += (u - p) * (u - p);
            tss += (u - mean) * (u - mean);
        }
        assert!((acc.ssr(b) - ssr).abs() < 1e-8, "{} vs {ssr}", acc.ssr(b));
        assert!((acc.tss() - tss).abs() < 1e-8, "{} vs {tss}", acc.tss());
    }

    #[test]
    fn exact_fit_has_zero_ssr_not_negative() {
        let rows = rows_2d();
        let mut acc = GramAccumulator::new(3);
        for (x, u) in &rows {
            acc.push_affine(x, *u);
        }
        let sol = acc.solve().unwrap();
        let ssr = acc.ssr(&sol.coeffs);
        assert!(ssr >= 0.0);
        assert!(ssr < 1e-8, "exact plane must have ~zero SSR, got {ssr}");
    }

    #[test]
    fn empty_accumulator_errors_on_solve() {
        let acc = GramAccumulator::new(2);
        assert!(matches!(acc.solve(), Err(LinalgError::Empty)));
        assert_eq!(acc.tss(), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one design column")]
    fn zero_columns_panic() {
        let _ = GramAccumulator::new(0);
    }
}
