//! `REG` — exact multivariate linear regression (paper Definition 1).
//!
//! `u = b₀ + b·xᵀ + ε`, fitted by least squares. Two scopes:
//!
//! * [`fit_ols`] over a *selection* (the per-query REG whose execution cost
//!   Fig. 12 measures — what PostgreSQL+XLeratorDB or Matlab `regress` does
//!   after the selection);
//! * [`fit_ols_global`] over the *whole relation* (the single "global"
//!   linear approximation whose poor subspace-level FVU/CoD Figures 9–11
//!   report — see `fit.rs` for why its FVU may exceed 1 locally).

use crate::fit::GoodnessOfFit;
use crate::q1::{moments_of, Moments};
use regq_data::Dataset;
use regq_linalg::{GramAccumulator, LinalgError};
use regq_store::Relation;

/// A fitted linear model `u ≈ intercept + slope · x`.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearModel {
    /// Intercept `b₀`.
    pub intercept: f64,
    /// Slope vector `b` (length `d`).
    pub slope: Vec<f64>,
    /// In-sample goodness of fit at fit time.
    pub fit: GoodnessOfFit,
}

impl LinearModel {
    /// Predict `û = b₀ + b·xᵀ`.
    #[inline]
    pub fn predict(&self, x: &[f64]) -> f64 {
        debug_assert_eq!(x.len(), self.slope.len());
        let mut v = self.intercept;
        for (b, xi) in self.slope.iter().zip(x.iter()) {
            v += b * xi;
        }
        v
    }

    /// Input dimensionality.
    pub fn dim(&self) -> usize {
        self.slope.len()
    }

    /// Goodness of fit of this model on an arbitrary row set (e.g. a global
    /// model evaluated inside a subspace — FVU may exceed 1 there).
    pub fn evaluate(&self, ds: &Dataset, ids: &[usize]) -> Option<GoodnessOfFit> {
        if ids.is_empty() {
            return None;
        }
        let actual: Vec<f64> = ids.iter().map(|&i| ds.y(i)).collect();
        let predicted: Vec<f64> = ids.iter().map(|&i| self.predict(ds.x(i))).collect();
        GoodnessOfFit::evaluate(&actual, &predicted)
    }
}

/// Fit OLS over the rows `ids` of `ds`.
///
/// The normal equations are accumulated row-by-row into a
/// [`GramAccumulator`] (`O(d²)` state) and solved directly — no
/// `n × (d+1)` design matrix is ever allocated. Goodness of fit is scored
/// with an exact residual pass over the same rows.
///
/// Needs at least `d + 1` rows for an identifiable fit; fewer rows (or a
/// degenerate design, e.g. all points identical) surface as an error from
/// the solver.
pub fn fit_ols(ds: &Dataset, ids: &[usize]) -> Result<LinearModel, LinalgError> {
    if ids.is_empty() {
        return Err(LinalgError::Empty);
    }
    let d = ds.dim();
    let mut acc = GramAccumulator::new(d + 1);
    for &i in ids {
        acc.push_affine(ds.x(i), ds.y(i));
    }
    let coeffs = acc.solve()?;
    let intercept = coeffs[0];
    let slope = coeffs[1..].to_vec();
    // Exact residual accounting (cheap O(n·d) pass, numerically preferable
    // to the closed form when ids are at hand).
    let mean = acc.sum_y() / acc.count() as f64;
    let mut ssr = 0.0;
    let mut tss = 0.0;
    for &i in ids {
        let x = ds.x(i);
        let u = ds.y(i);
        let mut v = intercept;
        for (b, xi) in slope.iter().zip(x.iter()) {
            v += b * xi;
        }
        ssr += (u - v) * (u - v);
        tss += (u - mean) * (u - mean);
    }
    Ok(LinearModel {
        intercept,
        slope,
        fit: GoodnessOfFit::from_sums(ids.len(), ssr, tss),
    })
}

/// Result of a fused in-scan Q1 + REG execution: the OLS model over the
/// ball *and* the output moments, from one index traversal.
#[derive(Debug, Clone, PartialEq)]
pub struct BallFit {
    /// The per-query `REG` model (paper Definition 1 over the selection).
    pub model: LinearModel,
    /// Q1 answer and variance of `u` over the same selection.
    pub moments: Moments,
}

/// Fused exact Q1 + OLS over `D(center, radius)` in a **single** index
/// traversal ([`Relation::visit_ball`]): the Gram state `XᵀX`, `Xᵀy`,
/// `yᵀy` folds per visited row, then the normal equations are solved
/// directly and SSR/TSS come from the closed forms over the accumulated
/// state. No id buffer, no design matrix, no second pass over the rows —
/// the full aggregation-pushdown execution of the paper's ground-truth
/// query pair. The moments are `q1_moments`', bit for bit.
///
/// # Errors
/// [`LinalgError::Empty`] for an empty subspace; solver errors for
/// degenerate selections (fewer than `d + 1` distinct points).
pub fn fit_ols_ball(rel: &Relation, center: &[f64], radius: f64) -> Result<BallFit, LinalgError> {
    let d = rel.dim();
    // The Gram transition at the rows' width, chosen once per call. One
    // fold closure for every width keeps the traversal, itself
    // specialised on the width, from being compiled once per width per
    // width.
    let push: fn(&mut GramAccumulator, &[f64], f64) = match d {
        1 => GramAccumulator::push_affine_width::<1>,
        2 => GramAccumulator::push_affine_width::<2>,
        3 => GramAccumulator::push_affine_width::<3>,
        4 => GramAccumulator::push_affine_width::<4>,
        5 => GramAccumulator::push_affine_width::<5>,
        6 => GramAccumulator::push_affine_width::<6>,
        7 => GramAccumulator::push_affine_width::<7>,
        8 => GramAccumulator::push_affine_width::<8>,
        _ => GramAccumulator::push_affine_width::<0>,
    };
    let mut acc = GramAccumulator::new(d + 1);
    let moments = moments_of(|targets| {
        rel.visit_ball(center, radius, |_, x, u| {
            push(&mut acc, x, u);
            targets.push(u);
        })
    })
    .ok_or(LinalgError::Empty)?;
    let coeffs = acc.solve()?;
    let intercept = coeffs[0];
    let slope = coeffs[1..].to_vec();
    let fit = GoodnessOfFit::from_sums(moments.n, acc.ssr(&coeffs), acc.tss());
    Ok(BallFit {
        model: LinearModel {
            intercept,
            slope,
            fit,
        },
        moments,
    })
}

/// Fit OLS over the entire dataset — the paper's "global REG".
pub fn fit_ols_global(ds: &Dataset) -> Result<LinearModel, LinalgError> {
    let ids: Vec<usize> = (0..ds.len()).collect();
    fit_ols(ds, &ids)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngExt;
    use regq_data::rng::seeded;

    fn linear_dataset(d: usize, n: usize, b0: f64, b: &[f64], seed: u64) -> Dataset {
        let mut rng = seeded(seed);
        let mut ds = Dataset::new(d);
        for _ in 0..n {
            let x: Vec<f64> = (0..d).map(|_| rng.random_range(-2.0..2.0)).collect();
            let mut u = b0;
            for (bi, xi) in b.iter().zip(x.iter()) {
                u += bi * xi;
            }
            ds.push(&x, u).unwrap();
        }
        ds
    }

    #[test]
    fn recovers_exact_plane() {
        let ds = linear_dataset(3, 100, 1.5, &[2.0, -1.0, 0.25], 1);
        let m = fit_ols_global(&ds).unwrap();
        assert!((m.intercept - 1.5).abs() < 1e-9);
        assert!((m.slope[0] - 2.0).abs() < 1e-9);
        assert!((m.slope[1] + 1.0).abs() < 1e-9);
        assert!((m.slope[2] - 0.25).abs() < 1e-9);
        assert!(m.fit.fvu < 1e-12);
        assert!((m.fit.cod - 1.0).abs() < 1e-12);
    }

    #[test]
    fn predict_matches_formula() {
        let m = LinearModel {
            intercept: 1.0,
            slope: vec![2.0, 3.0],
            fit: GoodnessOfFit::evaluate(&[0.0], &[0.0]).unwrap(),
        };
        assert_eq!(m.predict(&[1.0, 1.0]), 6.0);
        assert_eq!(m.dim(), 2);
    }

    #[test]
    fn subset_fit_uses_only_selected_rows() {
        // Piecewise data: slope 1 for x < 0, slope -1 for x >= 0.
        let mut ds = Dataset::new(1);
        for i in -10..10 {
            let x = i as f64 / 10.0;
            let u = if x < 0.0 { x } else { -x };
            ds.push(&[x], u).unwrap();
        }
        let left: Vec<usize> = (0..10).collect();
        let m = fit_ols(&ds, &left).unwrap();
        assert!((m.slope[0] - 1.0).abs() < 1e-9, "left slope {}", m.slope[0]);
        let right: Vec<usize> = (10..20).collect();
        let m = fit_ols(&ds, &right).unwrap();
        assert!(
            (m.slope[0] + 1.0).abs() < 1e-9,
            "right slope {}",
            m.slope[0]
        );
    }

    #[test]
    fn fused_ball_fit_matches_select_then_fit() {
        use regq_store::AccessPathKind;
        use std::sync::Arc;
        let ds = linear_dataset(2, 500, 1.0, &[0.5, -1.5], 11);
        let rel = Relation::new(Arc::new(ds), AccessPathKind::KdTree);
        let (c, r) = ([0.2, -0.3], 1.4);
        let fused = fit_ols_ball(&rel, &c, r).unwrap();
        let ids = rel.select(&c, r);
        let reference = fit_ols(rel.dataset(), &ids).unwrap();
        assert_eq!(fused.moments.n, ids.len());
        assert!((fused.model.intercept - reference.intercept).abs() < 1e-8);
        for (a, b) in fused.model.slope.iter().zip(reference.slope.iter()) {
            assert!((a - b).abs() < 1e-8, "{a} vs {b}");
        }
        // Moments agree with the dedicated Q1 executor.
        let m = crate::q1::q1_moments(&rel, &c, r).unwrap();
        assert_eq!(fused.moments, m);
    }

    #[test]
    fn fused_ball_fit_empty_subspace_errors() {
        use regq_store::AccessPathKind;
        use std::sync::Arc;
        let ds = linear_dataset(2, 50, 0.0, &[1.0, 1.0], 3);
        let rel = Relation::new(Arc::new(ds), AccessPathKind::KdTree);
        assert!(matches!(
            fit_ols_ball(&rel, &[100.0, 100.0], 0.1),
            Err(LinalgError::Empty)
        ));
    }

    #[test]
    fn empty_selection_is_an_error() {
        let ds = linear_dataset(2, 10, 0.0, &[1.0, 1.0], 2);
        assert!(matches!(fit_ols(&ds, &[]), Err(LinalgError::Empty)));
    }

    #[test]
    fn underdetermined_fit_still_predicts_through_ridge() {
        // Two points in 3-D: rank-deficient; ridge path should produce a
        // model that is at least finite and reasonably interpolating.
        let mut ds = Dataset::new(3);
        ds.push(&[0.0, 0.0, 0.0], 1.0).unwrap();
        ds.push(&[1.0, 1.0, 1.0], 2.0).unwrap();
        let m = fit_ols(&ds, &[0, 1]).unwrap();
        assert!(m.predict(&[0.0, 0.0, 0.0]).is_finite());
        assert!((m.predict(&[0.0, 0.0, 0.0]) - 1.0).abs() < 0.1);
        assert!((m.predict(&[1.0, 1.0, 1.0]) - 2.0).abs() < 0.1);
    }

    #[test]
    fn global_model_evaluated_locally_can_have_fvu_above_one() {
        // This is the mechanism behind the paper's Fig. 9/10 REG curves: a
        // global line evaluated inside a small subspace is scored against
        // the subspace's *local* mean, so its FVU is unbounded above.
        // Cluster A near x = 0 has tiny output variance; cluster B near
        // x = 1 drags the global line away from cluster A's level.
        let mut ds = Dataset::new(1);
        for i in 0..50 {
            ds.push(&[i as f64 * 1e-4], (i % 2) as f64 * 1e-6).unwrap();
        }
        for i in 0..50 {
            ds.push(&[1.0 + i as f64 * 1e-4], 1.0 + (i % 2) as f64)
                .unwrap();
        }
        let global = fit_ols_global(&ds).unwrap();
        let left_ids: Vec<usize> = (0..50).collect();
        let g = global.evaluate(&ds, &left_ids).unwrap();
        assert!(g.fvu > 1.0, "expected local FVU > 1, got {}", g.fvu);
    }
}
