//! Static balanced k-d tree access path.
//!
//! **Shape.** Built once by recursive median splits
//! (`select_nth_unstable_by` under `f64::total_cmp`, so NaN and ±∞
//! coordinates order like any other value), axis cycling with depth,
//! leaves of at most sixteen rows (`LEAF_SIZE`). The nodes sit in one
//! flat array in depth-first order (left child = next node), the row ids
//! in one array permuted so that every leaf owns a contiguous range — and
//! a traversal visits leaves left to right, rows in ascending position.
//! **The visiting order is therefore the order of `ids`**, a function of
//! the dataset alone. That is a contract, not an accident: exact answers
//! are floating-point folds over the visited rows, and the trainer's
//! bit-identity guarantees rest on those folds (`docs/INVARIANTS.md`,
//! "kd-tree leaf kernel").
//!
//! **Pruning.** A subtree is skipped only when the splitting plane
//! *proves* it out of reach: `center[axis] − split > radius` for the left
//! child, the mirrored test for the right. The per-axis difference
//! lower-bounds the Euclidean distance, so the rule is sound; a NaN on
//! either side proves nothing and both children are visited. Membership
//! is always re-checked per row.
//!
//! **Leaf storage.** The index keeps its own copy of the rows *in
//! visiting order*: the features as one global AoSoA block
//! ([`regq_linalg::simd::pack_quads_aosoa`] layout — quads run over the
//! whole permuted row array, a leaf may start at any lane, only the last
//! quad is padded) and the target column beside it. A leaf is tested by
//! one [`regq_linalg::simd::within_mask_aosoa`] call over the quads it
//! touches; the mask is shifted and trimmed to the leaf's own rows and
//! walked in ascending bit order, and each hit reaches the visitor as
//! `(id, row unpacked from the quad just tested, target)`. A traversal
//! never dereferences the `Dataset`. Membership follows the
//! [`crate::norms::within`] contract.
//!
//! **Memory.** `8·n·d` bytes of features (as the row-major copy before
//! it), `8·n` of targets, `4·n` of ids, 16 bytes per node at roughly one
//! node per six rows — the target column is paid for by `u32` ids and
//! half-size nodes, so the index is no larger than the one it replaced.

use crate::index::{AccessPathKind, SpatialIndex};
use regq_data::Dataset;
use regq_linalg::simd;
use regq_linalg::tune::QUAD;
use std::sync::Arc;

/// Leaves hold up to this many points; below it, scanning beats recursing.
const LEAF_SIZE: usize = 16;

/// One 16-byte tree node; `rows == 0` marks an internal node (a leaf is
/// never empty). The split axis is not stored: it cycles with depth, and
/// the traversal carries it.
#[derive(Debug, Clone, Copy)]
struct Node {
    /// Internal: the splitting coordinate. Leaf: unused.
    split: f64,
    /// Internal: index of the right child (the left child is the next
    /// node in depth-first order). Leaf: position of its first row.
    link: u32,
    /// Leaf: number of rows, `1..=LEAF_SIZE`. Internal: `0`.
    rows: u32,
}

/// Balanced k-d tree over a dataset snapshot.
#[derive(Debug, Clone)]
pub struct KdTree {
    data: Arc<Dataset>,
    nodes: Vec<Node>,
    /// Row ids, permuted so each leaf owns a contiguous range of
    /// positions; the three arrays below are all indexed by position.
    ids: Vec<u32>,
    /// Feature rows in `ids` order as one AoSoA block: position `r` is
    /// lane `r % 4` of quad `r / 4`; the last quad is padded with `+inf`.
    quads: Vec<f64>,
    /// Target column in `ids` order.
    leaf_ys: Vec<f64>,
}

impl KdTree {
    /// Build a tree over the dataset (`O(n log n)`).
    ///
    /// # Panics
    /// Panics if the dataset holds more than `u32::MAX` rows.
    pub fn build(data: Arc<Dataset>) -> Self {
        let n = data.len();
        let d = data.dim();
        let n32 = u32::try_from(n).expect("KdTree indexes at most u32::MAX rows");
        let mut ids: Vec<u32> = (0..n32).collect();
        let mut nodes = Vec::with_capacity(2 * (n / LEAF_SIZE + 1));
        if n > 0 {
            Self::build_recursive(&data, &mut ids, 0, n, 0, &mut nodes);
        }
        let mut quads = vec![f64::INFINITY; n.div_ceil(QUAD) * QUAD * d];
        let mut leaf_ys = Vec::with_capacity(n);
        for (r, &id) in ids.iter().enumerate() {
            simd::aosoa_set_row(&mut quads, r, data.x(id as usize));
            leaf_ys.push(data.y(id as usize));
        }
        KdTree {
            data,
            nodes,
            ids,
            quads,
            leaf_ys,
        }
    }

    fn build_recursive(
        data: &Dataset,
        ids: &mut [u32],
        start: usize,
        end: usize,
        depth: usize,
        nodes: &mut Vec<Node>,
    ) {
        let me = nodes.len();
        let len = end - start;
        if len <= LEAF_SIZE {
            // `start < n ≤ u32::MAX` (checked in `build`), `len ≤ 16`.
            nodes.push(Node {
                split: 0.0,
                link: start as u32,
                rows: len as u32,
            });
            return;
        }
        let axis = depth % data.dim();
        let mid = len / 2;
        // Median split on this axis. `select_nth_unstable_by` partitions the
        // slice around the median in O(len); `total_cmp` keeps the order
        // total when coordinates are NaN.
        let slice = &mut ids[start..end];
        slice.select_nth_unstable_by(mid, |&a, &b| {
            data.x(a as usize)[axis].total_cmp(&data.x(b as usize)[axis])
        });
        let split = data.x(slice[mid] as usize)[axis];
        // `link` is patched once the left subtree's node count is known.
        nodes.push(Node {
            split,
            link: 0,
            rows: 0,
        });
        Self::build_recursive(data, ids, start, start + mid, depth + 1, nodes);
        // Fewer nodes than rows, so the index fits a `u32` as well.
        nodes[me].link = nodes.len() as u32;
        Self::build_recursive(data, ids, start + mid, end, depth + 1, nodes);
    }

    /// Call `on_leaf(start, end)` for every leaf the ball can reach, left
    /// to right. `axis` is the split axis of `node` (depth mod `d`).
    fn reach_leaves(
        &self,
        node: usize,
        axis: usize,
        center: &[f64],
        radius: f64,
        on_leaf: &mut impl FnMut(usize, usize),
    ) {
        let Node { split, link, rows } = self.nodes[node];
        if rows != 0 {
            on_leaf(link as usize, (link + rows) as usize);
            return;
        }
        let delta = center[axis] - split;
        let next = if axis + 1 == center.len() {
            0
        } else {
            axis + 1
        };
        // The left child holds coordinates <= split, the right >= split
        // (equal keys may sit on either side, and every row is re-checked,
        // so only pruning must be conservative). A child is skipped when
        // proven out of reach; a NaN `delta` proves nothing.
        let (left_far, right_far) = (delta > radius, -delta > radius);
        if !left_far {
            self.reach_leaves(node + 1, next, center, radius, on_leaf);
        }
        if !right_far {
            self.reach_leaves(link as usize, next, center, radius, on_leaf);
        }
    }

    /// Membership mask of the leaf rows `[start, end)`: bit `r − start` is
    /// set iff row `r` lies in the ball.
    fn leaf_mask(&self, start: usize, end: usize, center: &[f64], radius: f64) -> u64 {
        // Every quad the leaf touches (at most five for sixteen rows),
        // then drop the lanes before `start` and after `end`: a
        // neighbouring leaf's rows or the `+inf` pad.
        let stride = QUAD * center.len();
        let block = &self.quads[start / QUAD * stride..end.div_ceil(QUAD) * stride];
        let mask = simd::within_mask_aosoa(center, block, radius * radius);
        (mask >> (start % QUAD)) & ((1u64 << (end - start)) - 1)
    }

    /// One traversal: `on_leaf(start, mask)` for every leaf the ball can
    /// reach, in visiting order, with the leaf's membership mask.
    fn visit_leaf_masks(&self, center: &[f64], radius: f64, mut on_leaf: impl FnMut(usize, u64)) {
        assert_eq!(center.len(), self.data.dim(), "query dimension mismatch");
        // A negative radius admits nothing (`norms::within`); the leaf
        // kernel only ever sees `radius²`, so the sign is settled here,
        // once per traversal.
        if self.nodes.is_empty() || radius < 0.0 {
            return;
        }
        self.reach_leaves(0, 0, center, radius, &mut |start, end| {
            on_leaf(start, self.leaf_mask(start, end, center, radius));
        });
    }
}

impl SpatialIndex for KdTree {
    fn visit_ball(&self, center: &[f64], radius: f64, visit: &mut dyn FnMut(usize, &[f64], f64)) {
        // The one allocation of a traversal: hits are unpacked into it.
        let mut row = vec![0.0; center.len()];
        self.visit_leaf_masks(center, radius, |start, mut mask| {
            while mask != 0 {
                let r = start + mask.trailing_zeros() as usize;
                mask &= mask - 1;
                simd::aosoa_row_into(&self.quads, r, &mut row);
                visit(self.ids[r] as usize, &row, self.leaf_ys[r]);
            }
        });
    }

    fn count_ball(&self, center: &[f64], radius: f64) -> usize {
        let mut n = 0;
        self.visit_leaf_masks(center, radius, |_, mask| n += mask.count_ones() as usize);
        n
    }

    fn dataset(&self) -> &Arc<Dataset> {
        &self.data
    }

    fn kind(&self) -> AccessPathKind {
        AccessPathKind::KdTree
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear_scan::LinearScan;
    use rand::RngExt;
    use regq_data::rng::seeded;

    fn random_dataset(n: usize, d: usize, seed: u64) -> Arc<Dataset> {
        let mut rng = seeded(seed);
        let mut ds = Dataset::new(d);
        for _ in 0..n {
            let x: Vec<f64> = (0..d).map(|_| rng.random_range(-1.0..1.0)).collect();
            ds.push(&x, 0.0).unwrap();
        }
        Arc::new(ds)
    }

    fn sorted(mut v: Vec<usize>) -> Vec<usize> {
        v.sort_unstable();
        v
    }

    #[test]
    fn matches_linear_scan_on_random_data() {
        let data = random_dataset(500, 3, 42);
        let tree = KdTree::build(data.clone());
        let scan = LinearScan::new(data);
        let mut rng = seeded(7);
        let mut got = Vec::new();
        let mut want = Vec::new();
        for _ in 0..50 {
            let c: Vec<f64> = (0..3).map(|_| rng.random_range(-1.2..1.2)).collect();
            let r = rng.random_range(0.0..0.8);
            tree.query_ball(&c, r, &mut got);
            scan.query_ball(&c, r, &mut want);
            assert_eq!(sorted(got.clone()), want, "r {r}");
        }
    }

    #[test]
    fn empty_dataset_returns_nothing() {
        let tree = KdTree::build(Arc::new(Dataset::new(2)));
        let mut out = vec![1];
        tree.query_ball(&[0.0, 0.0], 1.0, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn single_point_dataset() {
        let mut ds = Dataset::new(2);
        ds.push(&[0.5, 0.5], 1.0).unwrap();
        let tree = KdTree::build(Arc::new(ds));
        let mut out = Vec::new();
        tree.query_ball(&[0.5, 0.5], 0.0, &mut out);
        assert_eq!(out, vec![0]);
        tree.query_ball(&[2.0, 2.0], 1.0, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn duplicate_points_are_all_found() {
        let mut ds = Dataset::new(1);
        for _ in 0..100 {
            ds.push(&[3.0], 0.0).unwrap();
        }
        let tree = KdTree::build(Arc::new(ds));
        let mut out = Vec::new();
        tree.query_ball(&[3.0], 0.1, &mut out);
        assert_eq!(out.len(), 100);
    }

    #[test]
    fn zero_radius_finds_exact_matches_only() {
        let data = random_dataset(200, 2, 3);
        let tree = KdTree::build(data.clone());
        let mut out = Vec::new();
        let target = data.x(17).to_vec();
        tree.query_ball(&target, 0.0, &mut out);
        assert!(out.contains(&17));
        for &id in &out {
            assert_eq!(data.x(id), &target[..]);
        }
    }

    #[test]
    fn non_finite_coordinates_build_and_never_hide_finite_rows() {
        // 40 finite rows on a line plus NaN / ±inf rows: enough to force
        // splits, with NaN keys landing on split planes.
        let mut ds = Dataset::new(2);
        for i in 0..40 {
            ds.push(&[i as f64, 0.5], 0.0).unwrap();
        }
        for bad in [f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for _ in 0..10 {
                ds.push(&[bad, 0.5], 0.0).unwrap();
                ds.push(&[0.5, bad], 0.0).unwrap();
            }
        }
        let data = Arc::new(ds);
        let tree = KdTree::build(data.clone());
        let scan = LinearScan::new(data);
        let (mut got, mut want) = (Vec::new(), Vec::new());
        for (c, r) in [([20.0, 0.5], 3.0), ([0.0, 0.0], 1e9), ([5.0, 0.5], 0.0)] {
            tree.query_ball(&c, r, &mut got);
            scan.query_ball(&c, r, &mut want);
            assert!(!want.is_empty());
            assert_eq!(sorted(got.clone()), want, "r {r}");
        }
    }

    #[test]
    fn nodes_are_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Node>(), 16);
    }
}
