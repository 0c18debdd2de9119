//! Exact Q1 — the mean-value query (paper Definition 4).
//!
//! `y = (1/n_θ(x)) Σ u_i` over all rows with `‖x_i − x‖_p ≤ θ`. This is the
//! query whose `(q, y)` answers train the model, and whose execution cost
//! the model's `O(dK)` prediction replaces.
//!
//! Every exact mean of a ball — [`q1_mean`]'s, [`q1_moments`]' and the
//! fused fit's — is the access path's `(n, Σu)` over `n`: serial over the
//! scan, tree-shaped over the kd-tree, whose nodes carry their `Σu` so a
//! subtree inside the ball costs one load. The moments' spread is a
//! second pass, about that mean, over the targets the traversal handed on.

use regq_store::Relation;
use std::cell::RefCell;

/// Cardinality, mean and variance of the output attribute over a
/// selection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Moments {
    /// Selection cardinality `n_θ(x)`.
    pub n: usize,
    /// Mean of `u` over the selection — the Q1 answer.
    pub mean: f64,
    /// Population variance of `u` over the selection.
    pub variance: f64,
}

/// Execute Q1 exactly: average of `u` over `D(center, radius)`.
///
/// The `SUM`/`COUNT` state is computed *inside* the index traversal
/// ([`Relation::visit_targets`]) — no id buffer is materialized, no
/// feature row is handed over and the rows are never read a second time,
/// exactly how a DBMS executor pushes an `AVG` aggregate into the scan.
/// Over the kd-tree the sum differs from the serial one in the last bits
/// only (`docs/INVARIANTS.md`, "kd-tree leaf kernel").
///
/// Returns `None` when the subspace is empty (the DBMS would return SQL
/// `NULL` for `AVG` over zero rows).
pub fn q1_mean(rel: &Relation, center: &[f64], radius: f64) -> Option<f64> {
    avg(rel.visit_targets(center, radius, |_| {}))
}

/// The `AVG` of an `(n, Σu)` state: SQL `NULL` (`None`) over no rows.
pub(crate) fn avg((n, sum): (usize, f64)) -> Option<f64> {
    (n > 0).then(|| sum / n as f64)
}

/// Execute Q1 with second-moment extension (feeds the paper's "high-order
/// moments" future-work item, implemented in `regq-core::moments`); its
/// mean is [`q1_mean`]'s, bit for bit.
pub fn q1_moments(rel: &Relation, center: &[f64], radius: f64) -> Option<Moments> {
    moments_of(|targets| rel.visit_targets(center, radius, |u| targets.push(u)))
}

thread_local! {
    /// A ball's targets, kept between calls: warm, no allocator call.
    static TARGETS: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// The [`Moments`] of the ball `traverse` walks: it pushes the targets in
/// visiting order and returns `(n, Σu)`. `variance` is `Σ(u − mean)²/n`,
/// not `Σu²/n − mean²`, which cancels when the mean dwarfs the spread.
pub(crate) fn moments_of(traverse: impl FnOnce(&mut Vec<f64>) -> (usize, f64)) -> Option<Moments> {
    TARGETS.with_borrow_mut(|targets| {
        targets.clear();
        let (n, sum) = traverse(targets);
        let mean = avg((n, sum))?;
        let deviations = targets
            .iter()
            .fold(0.0, |dev, &u| dev + (u - mean) * (u - mean));
        Some(Moments {
            n,
            mean,
            variance: deviations / n as f64,
        })
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
    }

    #[test]
    fn moments_match_hand_computation() {
        let rel = line_relation();
        // {4,5,6} -> u in {40,50,60}: mean 50, var 200/3.
        let m = q1_moments(&rel, &[5.0], 1.5).unwrap();
        assert_eq!(m.n, 3);
        assert_eq!(m.mean, 50.0);
        assert!((m.variance - 200.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn whole_relation_mean() {
        let rel = line_relation();
        // u = 0..90 step 10: mean 45.
        assert_eq!(q1_mean(&rel, &[4.5], 100.0), Some(45.0));
    }
}
