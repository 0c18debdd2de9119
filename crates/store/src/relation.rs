//! The relation façade: a dataset snapshot plus a chosen access path.
//!
//! This is the component that plays "the DBMS" in the paper's Fig. 2: exact
//! engines (`regq-exact`) and the training workload (`regq-workload`) issue
//! radius selections against a [`Relation`] and never touch index
//! internals. The kd-tree is the production path; the linear scan is the
//! reference every test compares it against.

use crate::index::{AccessPathKind, SpatialIndex};
use crate::kd_tree::KdTree;
use crate::linear_scan::LinearScan;
use regq_data::Dataset;
use std::sync::{Arc, Mutex};

/// The access path of a relation. Two variants, matched per call: the
/// fold a caller passes is compiled into the traversal of whichever path
/// the relation holds, with no call through a pointer per row.
enum AccessPath {
    Scan(LinearScan),
    KdTree(KdTree),
}

/// `$body` with `$index` bound to the concrete access path.
macro_rules! with_index {
    ($path:expr, $index:ident => $body:expr) => {
        match $path {
            AccessPath::Scan($index) => $body,
            AccessPath::KdTree($index) => $body,
        }
    };
}

/// A queryable relation: dataset snapshot + access path.
pub struct Relation {
    index: AccessPath,
    /// Scratch buffer reused across selections issued through `&mut self`
    /// helpers; guarded so `&self` methods stay thread-safe.
    scratch: Mutex<Vec<usize>>,
}

impl Relation {
    /// Build a relation over `data` using the given access path.
    pub fn new(data: Arc<Dataset>, path: AccessPathKind) -> Self {
        let index = match path {
            AccessPathKind::Scan => AccessPath::Scan(LinearScan::new(data)),
            AccessPathKind::KdTree => AccessPath::KdTree(KdTree::build(data)),
        };
        Relation {
            index,
            scratch: Mutex::new(Vec::new()),
        }
    }

    /// The relation's dataset snapshot.
    pub fn dataset(&self) -> &Arc<Dataset> {
        with_index!(&self.index, index => index.dataset())
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.dataset().len()
    }

    /// `true` when the relation holds no rows.
    pub fn is_empty(&self) -> bool {
        self.dataset().is_empty()
    }

    /// Input dimensionality.
    pub fn dim(&self) -> usize {
        self.dataset().dim()
    }

    fn query_ball(&self, center: &[f64], radius: f64, out: &mut Vec<usize>) {
        with_index!(&self.index, index => index.query_ball(center, radius, out));
    }

    /// Radius selection (paper Definition 3): ids of rows within `radius`
    /// of `center`, as a fresh id vector.
    pub fn select(&self, center: &[f64], radius: f64) -> Vec<usize> {
        let mut out = Vec::new();
        self.query_ball(center, radius, &mut out);
        out
    }

    /// Cardinality `n_θ(x)` of a selection without materializing ids when
    /// the access path can avoid it.
    pub fn count(&self, center: &[f64], radius: f64) -> usize {
        with_index!(&self.index, index => index.count_ball(center, radius))
    }

    /// Fold `state` over the rows of `D(center, radius)` during a single
    /// index traversal: `f(&mut state, id, x_i, u_i)` per qualifying row.
    ///
    /// This is the aggregation-pushdown path (no id buffer, no second data
    /// pass): moment accumulators and OLS Gram state ride the scan itself,
    /// the way a user-defined aggregate runs inside a DBMS executor — `f`
    /// is compiled into the traversal. Lock-free and allocation-free (up
    /// to the kd-tree's inline scratch width), so concurrent readers scale
    /// linearly.
    pub fn fold_ball<S>(
        &self,
        center: &[f64],
        radius: f64,
        state: S,
        f: impl FnMut(&mut S, usize, &[f64], f64),
    ) -> S {
        with_index!(&self.index, index => index.fold_ball(center, radius, state, f))
    }

    /// [`Relation::fold_ball`] for an aggregate over the output attribute
    /// alone: `f(&mut state, u_i)` for the same rows in the same order —
    /// the row-order fold behind the moments (`q1_moments`); `AVG` takes
    /// [`Relation::sum_targets`]. Over the kd-tree no feature row is
    /// unpacked and no id is loaded, and a cell lying inside the ball is
    /// one pass over a contiguous slice of the target column.
    pub fn fold_targets<S>(
        &self,
        center: &[f64],
        radius: f64,
        mut state: S,
        mut f: impl FnMut(&mut S, f64),
    ) -> S {
        with_index!(&self.index, index => index.visit_targets(center, radius, |u| f(&mut state, u)));
        state
    }

    /// `(n, Σu)` over `D(center, radius)`, the `AVG` aggregate's state,
    /// in the access path's own fold shape
    /// ([`SpatialIndex::sum_targets`]): serial over the scan, tree-shaped
    /// over the kd-tree, where a cell lying inside the ball costs one
    /// load of its cached sum.
    pub fn sum_targets(&self, center: &[f64], radius: f64) -> (usize, f64) {
        with_index!(&self.index, index => index.sum_targets(center, radius))
    }

    /// Run `f` over the selected row ids using an internal scratch buffer
    /// (no per-query allocation once warmed up). Under concurrent use the
    /// scratch is claimed with `try_lock`; a contending caller — or any
    /// caller after a panic poisoned the lock — falls back to a local
    /// buffer, so parallel readers scale instead of serializing on the
    /// mutex.
    pub fn with_selection<T>(
        &self,
        center: &[f64],
        radius: f64,
        f: impl FnOnce(&Dataset, &[usize]) -> T,
    ) -> T {
        if let Ok(mut buf) = self.scratch.try_lock() {
            self.query_ball(center, radius, &mut buf);
            f(self.dataset(), &buf)
        } else {
            let mut local = Vec::new();
            self.query_ball(center, radius, &mut local);
            f(self.dataset(), &local)
        }
    }
}

impl std::fmt::Debug for Relation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Relation")
            .field("rows", &self.len())
            .field("dim", &self.dim())
            .field(
                "access_path",
                &with_index!(&self.index, index => index.kind()),
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngExt;
    use regq_data::rng::seeded;

    fn relation(path: AccessPathKind) -> Relation {
        let mut rng = seeded(17);
        let mut ds = Dataset::new(2);
        for _ in 0..300 {
            let x = [rng.random_range(0.0..1.0), rng.random_range(0.0..1.0)];
            ds.push(&x, x[0] + x[1]).unwrap();
        }
        Relation::new(Arc::new(ds), path)
    }

    #[test]
    fn all_access_paths_agree() {
        let scan = relation(AccessPathKind::Scan);
        let kd = relation(AccessPathKind::KdTree);
        let mut rng = seeded(19);
        for _ in 0..25 {
            let c = [rng.random_range(0.0..1.0), rng.random_range(0.0..1.0)];
            let r = rng.random_range(0.05..0.4);
            let mut a = scan.select(&c, r);
            let mut b = kd.select(&c, r);
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn count_matches_select_len() {
        let rel = relation(AccessPathKind::KdTree);
        let ids = rel.select(&[0.5, 0.5], 0.2);
        assert_eq!(rel.count(&[0.5, 0.5], 0.2), ids.len());
    }

    #[test]
    fn fold_ball_matches_materialized_selection() {
        for path in [AccessPathKind::Scan, AccessPathKind::KdTree] {
            let rel = relation(path);
            let (c, r) = ([0.4, 0.6], 0.25);
            let (n, sum_y, sum_x0) =
                rel.fold_ball(&c, r, (0usize, 0.0f64, 0.0f64), |s, _, x, y| {
                    s.0 += 1;
                    s.1 += y;
                    s.2 += x[0];
                });
            let ids = rel.select(&c, r);
            assert_eq!(n, ids.len(), "{path:?}");
            let want_y: f64 = ids.iter().map(|&i| rel.dataset().y(i)).sum();
            let want_x0: f64 = ids.iter().map(|&i| rel.dataset().x(i)[0]).sum();
            assert!((sum_y - want_y).abs() < 1e-12, "{path:?}");
            assert!((sum_x0 - want_x0).abs() < 1e-12, "{path:?}");
        }
    }

    #[test]
    fn fold_ball_visits_rows_with_their_own_coordinates() {
        let rel = relation(AccessPathKind::KdTree);
        rel.fold_ball(&[0.5, 0.5], 0.3, (), |_, id, x, y| {
            assert_eq!(x, rel.dataset().x(id));
            assert_eq!(y, rel.dataset().y(id));
        });
    }

    #[test]
    fn with_selection_passes_rows() {
        let rel = relation(AccessPathKind::KdTree);
        let sum: f64 = rel.with_selection(&[0.5, 0.5], 0.3, |ds, ids| {
            ids.iter().map(|&i| ds.y(i)).sum()
        });
        let ids = rel.select(&[0.5, 0.5], 0.3);
        let expect: f64 = ids.iter().map(|&i| rel.dataset().y(i)).sum();
        assert_eq!(sum, expect);
    }

    #[test]
    fn debug_format_mentions_path() {
        let rel = relation(AccessPathKind::KdTree);
        let s = format!("{rel:?}");
        assert!(s.contains("KdTree"));
    }
}
