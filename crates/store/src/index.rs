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
/// scan and returns their `AVG` state `(n, Σu)`. Aggregates (Q1 means,
/// moments, OLS Gram state) fold over the visitor and never materialize
/// an id list — the aggregation-pushdown shape of MADlib-style in-DBMS
/// analytics. The visitor is a generic
/// parameter: the aggregate's transition function is compiled into the
/// scan loop, not called through a pointer per row. Materializing
/// selections ([`SpatialIndex::query_ball`]) is a derived convenience.
pub trait SpatialIndex: Send + Sync {
    /// Invoke `visit(id, x_i, u_i)` for every row `i` with
    /// `‖x_i − center‖₂ ≤ radius`, during a single index traversal, and
    /// return their `(n, Σu)` ([`SpatialIndex::visit_targets`]).
    ///
    /// Rows arrive in ascending id order for
    /// [`LinearScan`](crate::LinearScan) and in the depth-first order of
    /// the permuted id array for [`KdTree`](crate::KdTree) (a contract:
    /// exact answers fold in that order, see the
    /// [`kd_tree`](crate::kd_tree) module docs).
    fn visit_ball(
        &self,
        center: &[f64],
        radius: f64,
        visit: impl FnMut(usize, &[f64], f64),
    ) -> (usize, f64);

    /// `visit(u_i)` for the rows of [`SpatialIndex::visit_ball`], in its
    /// order and with its `(n, Σu)`: serial from `−0.0` (the identity of
    /// addition) over the scan, tree-shaped over the [`KdTree`](crate::KdTree)
    /// (its module docs, **`Σu`**), which reads no feature row and no id.
    fn visit_targets(
        &self,
        center: &[f64],
        radius: f64,
        mut visit: impl FnMut(f64),
    ) -> (usize, f64) {
        self.visit_ball(center, radius, |_, _, u| visit(u))
    }

    /// `(n, Σu)` alone: [`SpatialIndex::visit_targets`] with nothing to
    /// hand on.
    fn sum_targets(&self, center: &[f64], radius: f64) -> (usize, f64) {
        self.visit_targets(center, radius, |_| {})
    }

    /// [`SpatialIndex::sum_targets`] for a batch of balls: `answer(i,
    /// sum_targets(centre i, radii[i]))` once per ball, where `centres`
    /// holds the centres one after another (`radii.len() × dim` values).
    /// Each ball is answered by `sum_targets` itself, so every state is
    /// bit-identical to a call of its own; only the order the balls are
    /// answered in is the access path's. The default keeps input order;
    /// [`KdTree`](crate::KdTree) answers in the order of the build leaves
    /// holding the centres, so consecutive traversals share their cells.
    ///
    /// # Panics
    /// Panics unless `centres.len() == radii.len() × dim`.
    fn sum_targets_batch(
        &self,
        centres: &[f64],
        radii: &[f64],
        mut answer: impl FnMut(usize, (usize, f64)),
    ) {
        let d = self.dataset().dim();
        assert_eq!(centres.len(), radii.len() * d, "batch dimension mismatch");
        for (i, (center, &radius)) in centres.chunks_exact(d).zip(radii).enumerate() {
            answer(i, self.sum_targets(center, radius));
        }
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
        self.sum_targets(center, radius).0
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
