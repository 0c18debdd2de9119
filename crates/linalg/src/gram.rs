//! Streaming normal-equation state for least squares.
//!
//! [`GramAccumulator`] folds design rows into `XᵀX` / `Xᵀy` (plus the
//! output moments `Σy`, `yᵀy`) one row at a time, so a least-squares fit
//! can ride along a single scan of the data — the shape of MADlib-style
//! shared aggregation, where the aggregate state travels through the
//! access path instead of materializing a design matrix per query. The
//! state is `O(d²)` regardless of row count and solves via
//! [`crate::solve::solve_normal_equations`].

use crate::error::LinalgError;
use crate::solve::solve_normal_equations;

/// Ridge strength of the solve's one retry, relative to the mean diagonal
/// of the Gram matrix: small enough that a well-posed fit never sees it
/// (plain Cholesky succeeds first), large enough to make an exactly
/// collinear Gram matrix positive definite in `f64`.
const RIDGE: f64 = 1e-8;

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

    /// The packed lower triangle of the accumulated `XᵀX`.
    #[inline]
    pub fn xtx(&self) -> &[f64] {
        &self.xtx
    }

    /// Fold the affine design row `[1, x…]` without materializing it —
    /// the OLS hot path (intercept column implicit).
    ///
    /// # Panics
    /// Panics in debug builds if `x.len() + 1 != cols`.
    #[inline]
    pub fn push_affine(&mut self, x: &[f64], y: f64) {
        self.push_affine_width::<0>(x, y);
    }

    /// [`GramAccumulator::push_affine`] with the row's width known at
    /// compile time: `D` is `x.len()`, or `0` to read it at run time —
    /// one body either way. With `D` known the entry loops unroll and
    /// their indices are constants; every entry still takes its terms in
    /// row order, so the state is [`GramAccumulator::push_affine`]'s bit
    /// for bit.
    ///
    /// # Panics
    /// Panics if `D` is neither `0` nor `x.len()`, or if `x.len() + 1`
    /// exceeds `cols` (in debug builds if it differs from it).
    #[inline]
    pub fn push_affine_width<const D: usize>(&mut self, x: &[f64], y: f64) {
        let x = if D == 0 { x } else { &x[..D] };
        let cols = x.len() + 1;
        debug_assert_eq!(cols, self.cols, "push_affine: width mismatch");
        let xtx = &mut self.xtx[..cols * (cols + 1) / 2];
        let xty = &mut self.xty[..cols];
        // Row 0 of the triangle: the intercept column against itself.
        xtx[0] += 1.0;
        xty[0] += y;
        let mut idx = 1;
        for (r, &xr) in x.iter().enumerate() {
            // Column 0 (intercept), then columns 1..=r+1 (features).
            xtx[idx] += xr;
            idx += 1;
            for &xc in &x[..=r] {
                xtx[idx] += xr * xc;
                idx += 1;
            }
            xty[r + 1] += xr * y;
        }
        self.sum_y += y;
        self.yty += y * y;
        self.n += 1;
    }

    /// Solve the accumulated normal equations ([`solve_normal_equations`]
    /// over this triangle, ridge `1e-8`) for the coefficients.
    ///
    /// # Errors
    /// [`LinalgError::Empty`] before any row was folded; solver errors
    /// otherwise.
    pub fn solve(&self) -> Result<Vec<f64>, LinalgError> {
        if self.n == 0 {
            return Err(LinalgError::Empty);
        }
        solve_normal_equations(&self.xtx, &self.xty, RIDGE)
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
    fn affine_accumulation_recovers_the_plane() {
        let mut acc = GramAccumulator::new(3);
        for (x, u) in &rows_2d() {
            acc.push_affine(x, *u);
        }
        let b = acc.solve().unwrap();
        assert!((b[0] - 1.0).abs() < 1e-9, "{b:?}");
        assert!((b[1] - 2.0).abs() < 1e-9, "{b:?}");
        assert!((b[2] + 0.5).abs() < 1e-9, "{b:?}");
    }

    #[test]
    fn ssr_and_tss_match_residual_passes() {
        let rows = rows_2d();
        let mut acc = GramAccumulator::new(3);
        for (x, u) in &rows {
            acc.push_affine(x, *u);
        }
        let b = acc.solve().unwrap();
        let mean = acc.sum_y() / acc.count() as f64;
        let mut ssr = 0.0;
        let mut tss = 0.0;
        for (x, u) in &rows {
            let p = b[0] + b[1] * x[0] + b[2] * x[1];
            ssr += (u - p) * (u - p);
            tss += (u - mean) * (u - mean);
        }
        assert!((acc.ssr(&b) - ssr).abs() < 1e-8, "{} vs {ssr}", acc.ssr(&b));
        assert!((acc.tss() - tss).abs() < 1e-8, "{} vs {tss}", acc.tss());
    }

    #[test]
    fn exact_fit_has_zero_ssr_not_negative() {
        let rows = rows_2d();
        let mut acc = GramAccumulator::new(3);
        for (x, u) in &rows {
            acc.push_affine(x, *u);
        }
        let ssr = acc.ssr(&acc.solve().unwrap());
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
