//! Exact Q1 — the mean-value query (paper Definition 4).
//!
//! `y = (1/n_θ(x)) Σ u_i` over all rows with `‖x_i − x‖_p ≤ θ`. This is the
//! query whose `(q, y)` answers train the model, and whose execution cost
//! the model's `O(dK)` prediction replaces.
//!
//! The two executors fold differently. [`q1_mean`] takes the access
//! path's `(n, Σu)`: serial over the scan, tree-shaped over the kd-tree,
//! whose nodes carry their `Σu` so a subtree inside the ball costs one
//! load — equal to the serial mean up to rounding, not bit for bit.
//! [`q1_moments`] folds its Welford state row by row in visiting order,
//! the order the OLS Gram state folds in too.

use regq_linalg::OnlineStats;
use regq_store::Relation;

/// First and second moments of the output attribute over a selection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Moments {
    /// Selection cardinality `n_θ(x)`.
    pub n: usize,
    /// Mean of `u` over the selection — the Q1 answer.
    pub mean: f64,
    /// Population variance of `u` over the selection.
    pub variance: f64,
    /// Raw second moment `E[u²]` over the selection.
    pub second_moment: f64,
}

/// Execute Q1 exactly: average of `u` over `D(center, radius)`.
///
/// The `SUM`/`COUNT` state is computed *inside* the index traversal
/// ([`Relation::sum_targets`]) — no id buffer is materialized, no
/// feature row is handed over and the rows are never read a second time,
/// exactly how a DBMS executor pushes an `AVG` aggregate into the scan.
/// Over the kd-tree the sum is tree-shaped — per-mask partial sums
/// joined up the build's halving, a subtree inside the ball contributing
/// its sum cached at build — so it differs from the serial sum in the
/// last bits only (`docs/INVARIANTS.md`, "kd-tree leaf kernel").
///
/// Returns `None` when the subspace is empty (the DBMS would return SQL
/// `NULL` for `AVG` over zero rows).
pub fn q1_mean(rel: &Relation, center: &[f64], radius: f64) -> Option<f64> {
    avg(rel.sum_targets(center, radius))
}

/// The `AVG` of an `(n, Σu)` state: SQL `NULL` (`None`) over no rows.
pub(crate) fn avg((n, sum): (usize, f64)) -> Option<f64> {
    if n == 0 {
        None
    } else {
        Some(sum / n as f64)
    }
}

/// Execute Q1 with second-moment extension (feeds the paper's "high-order
/// moments" future-work item, implemented in `regq-core::moments`). The
/// Welford state folds during the traversal, like [`q1_mean`].
pub fn q1_moments(rel: &Relation, center: &[f64], radius: f64) -> Option<Moments> {
    let (acc, sum_sq) = rel.fold_targets(center, radius, (OnlineStats::new(), 0.0f64), |s, u| {
        s.0.push(u);
        s.1 += u * u;
    });
    if acc.count() == 0 {
        return None;
    }
    Some(Moments {
        n: acc.count() as usize,
        mean: acc.mean(),
        variance: acc.variance(),
        second_moment: sum_sq / acc.count() as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use regq_data::Dataset;
    use regq_store::AccessPathKind;
    use std::sync::Arc;

    fn line_relation() -> Relation {
        // Points at x = 0, 1, ..., 9 with u = 10x.
        let mut ds = Dataset::new(1);
        for i in 0..10 {
            ds.push(&[i as f64], 10.0 * i as f64).unwrap();
        }
        Relation::new(Arc::new(ds), AccessPathKind::Scan)
    }

    #[test]
    fn mean_over_known_window() {
        let rel = line_relation();
        // Ball of radius 1.5 around x = 5 selects {4, 5, 6}: mean u = 50.
        assert_eq!(q1_mean(&rel, &[5.0], 1.5), Some(50.0));
    }

    #[test]
    fn empty_subspace_returns_none() {
        let rel = line_relation();
        assert_eq!(q1_mean(&rel, &[100.0], 0.5), None);
        assert!(q1_moments(&rel, &[100.0], 0.5).is_none());
    }

    #[test]
    fn single_point_subspace() {
        let rel = line_relation();
        let m = q1_moments(&rel, &[3.0], 0.0).unwrap();
        assert_eq!(m.n, 1);
        assert_eq!(m.mean, 30.0);
        assert_eq!(m.variance, 0.0);
        assert_eq!(m.second_moment, 900.0);
    }

    #[test]
    fn moments_match_hand_computation() {
        let rel = line_relation();
        // {4,5,6} -> u in {40,50,60}: mean 50, var 200/3, E[u^2] = 7700/3.
        let m = q1_moments(&rel, &[5.0], 1.5).unwrap();
        assert_eq!(m.n, 3);
        assert_eq!(m.mean, 50.0);
        assert!((m.variance - 200.0 / 3.0).abs() < 1e-9);
        assert!((m.second_moment - 7700.0 / 3.0).abs() < 1e-9);
        // Identity: E[u^2] = var + mean^2.
        assert!((m.second_moment - (m.variance + m.mean * m.mean)).abs() < 1e-9);
    }

    #[test]
    fn whole_relation_mean() {
        let rel = line_relation();
        // u = 0..90 step 10: mean 45.
        assert_eq!(q1_mean(&rel, &[4.5], 100.0), Some(45.0));
    }
}
