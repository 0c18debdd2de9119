//! The access-path abstraction for radius (dNN) selections.

use regq_data::Dataset;
use std::sync::Arc;

/// A spatial access path answering radius selections over a fixed dataset.
///
/// Implementations hold an `Arc<Dataset>` snapshot; the relation is
/// immutable once indexed (appending rows means building a new index,
/// matching the paper's static-table evaluation).
///
/// The required primitive is [`SpatialIndex::visit_ball`]: a push-based
/// traversal that hands every qualifying row to a visitor *during* the
/// scan. Aggregates (Q1 means, moments, OLS Gram state) fold over the
/// visitor and never materialize an id list — the aggregation-pushdown
/// shape of MADlib-style in-DBMS analytics. The visitor is a generic
/// parameter: the aggregate's transition function is compiled into the
/// scan loop, not called through a pointer per row. Materializing
/// selections ([`SpatialIndex::query_ball`]) is a derived convenience.
pub trait SpatialIndex: Send + Sync {
    /// Invoke `visit(id, x_i, u_i)` for every row `i` with
    /// `‖x_i − center‖₂ ≤ radius`, during a single index traversal.
    ///
    /// Rows arrive in ascending id order for
    /// [`LinearScan`](crate::LinearScan) and in the depth-first order of
    /// the permuted id array for [`KdTree`](crate::KdTree) (a contract:
    /// exact answers fold in that order, see the
    /// [`kd_tree`](crate::kd_tree) module docs).
    fn visit_ball(&self, center: &[f64], radius: f64, visit: impl FnMut(usize, &[f64], f64));

    /// [`SpatialIndex::visit_ball`] for an aggregate over the output
    /// attribute alone: `visit(u_i)` for the same rows in the same order.
    /// An access path that stores `u` beside its rows answers without
    /// reading a feature row or an id.
    fn visit_targets(&self, center: &[f64], radius: f64, mut visit: impl FnMut(f64)) {
        self.visit_ball(center, radius, |_, _, u| visit(u));
    }

    /// `(n, Σu)` over the same rows: the state of the `AVG` aggregate.
    /// `Σu` of no rows is `−0.0`, the identity of IEEE addition. The
    /// default is the serial fold from that identity in visiting order;
    /// [`KdTree`](crate::KdTree) overrides it with a tree-shaped fold
    /// (its module docs, **`Σu`**) — equal up to rounding, not bit for
    /// bit.
    fn sum_targets(&self, center: &[f64], radius: f64) -> (usize, f64) {
        let (mut n, mut sum) = (0, -0.0);
        self.visit_targets(center, radius, |u| {
            n += 1;
            sum += u;
        });
        (n, sum)
    }

    /// Append to `out` the ids of all rows within `radius` of `center`.
    /// `out` is cleared first; ids arrive in the
    /// [`SpatialIndex::visit_ball`] traversal order.
    fn query_ball(&self, center: &[f64], radius: f64, out: &mut Vec<usize>) {
        out.clear();
        self.visit_ball(center, radius, |id, _, _| out.push(id));
    }

    /// Number of rows within `radius` of `center` (no materialization).
    fn count_ball(&self, center: &[f64], radius: f64) -> usize {
        let mut n = 0;
        self.visit_ball(center, radius, |_, _, _| n += 1);
        n
    }

    /// Fold `state` over the selection: `f(&mut state, id, x_i, u_i)` per
    /// qualifying row, returning the final state — the typed front door
    /// over [`SpatialIndex::visit_ball`];
    /// [`Relation::fold_ball`](crate::relation::Relation::fold_ball) is
    /// the same fold over whichever access path a relation holds.
    fn fold_ball<S>(
        &self,
        center: &[f64],
        radius: f64,
        mut state: S,
        mut f: impl FnMut(&mut S, usize, &[f64], f64),
    ) -> S {
        self.visit_ball(center, radius, |id, x, y| f(&mut state, id, x, y));
        state
    }

    /// The dataset snapshot this index was built over.
    fn dataset(&self) -> &Arc<Dataset>;

    /// Access-path name for logs and plans.
    fn kind(&self) -> AccessPathKind;
}

/// Which access path a relation uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessPathKind {
    /// Full sequential scan — the reference every test compares against.
    Scan,
    /// Balanced k-d tree — the production path.
    KdTree,
}

impl std::fmt::Display for AccessPathKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AccessPathKind::Scan => write!(f, "scan"),
            AccessPathKind::KdTree => write!(f, "kd-tree"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_display_names() {
        assert_eq!(AccessPathKind::Scan.to_string(), "scan");
        assert_eq!(AccessPathKind::KdTree.to_string(), "kd-tree");
    }
}
