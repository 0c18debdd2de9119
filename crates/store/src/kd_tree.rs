//! Static balanced k-d tree access path.
//!
//! **Shape.** Built once by recursive median splits
//! (`select_nth_unstable_by` under `f64::total_cmp`, so NaN and ±∞
//! coordinates order like any other value), axis cycling with depth,
//! leaves of at most sixteen rows (`LEAF_SIZE`). The nodes sit in one
//! flat array in depth-first order (left child = next node), the row ids
//! in one array permuted so that every subtree owns a contiguous range of
//! positions — and a traversal visits subtrees left to right, rows in
//! ascending position. **The visiting order is therefore the order of
//! `ids`**, a function of the dataset alone. That is a contract, not an
//! accident: exact answers are floating-point folds over the visited
//! rows — in row order for the OLS Gram state and the moments' spread,
//! tree-shaped for `Σu`, every mean's sum (below) — and the trainer's
//! bit-identity guarantees rest on those folds (`docs/INVARIANTS.md`).
//!
//! **Pruning.** The traversal carries the current cell's box — the root
//! box narrowed by one side per split on the way down — and the
//! subtree's position range, halved the way the build halved it. From
//! the box it takes two bounds on a row's squared distance to the
//! centre, both evaluated with the membership kernel's own operation
//! sequence (coordinate order, separate multiply and add, as
//! [`regq_linalg::vector::sq_dist`]):
//!
//! * `near = Σ_c max(lo_c − q_c, q_c − hi_c, 0)²`. Rounding is monotone,
//!   so every row of the cell computes a distance `≥ near`;
//!   `near > radius²` *proves* the kernel would reject them all and the
//!   subtree is skipped.
//! * `far = Σ_c max(q_c − lo_c, hi_c − q_c)²`. By the same argument
//!   every row computes a distance `≤ far`; `far ≤ radius²` *proves* the
//!   kernel would admit them all and the whole range is handed on
//!   without a distance test.
//!
//! Each column's rounded pair `(g_c², f_c²)` is kept beside the box: a
//! step down narrows one side of one column and recomputes that column's
//! pair alone, and a visit sums the `d` cached terms in coordinate order
//! from `0.0` — the same additions of the same rounded squares as
//! evaluating every column afresh, so the bounds keep their bits. The
//! traversal is one body generic over the table's width (`1..=8`
//! unrolled, `0` read at run time), dispatched once per call.
//!
//! Neither is a heuristic: a subtree is skipped or admitted exactly when
//! a per-row test of each of its rows would have said the same. NaN goes
//! the safe way in both: a NaN term drops out of `near` (less pruning)
//! and poisons `far` (no admission) — and a row with a NaN coordinate
//! forces a NaN side onto every cell that holds it, because the box
//! sides are ordered by `total_cmp` like the splits. `±∞` needs no case.
//!
//! **Granularity.** Descent stops at the largest subtree one
//! [`regq_linalg::simd::within_mask_aosoa`] call covers — the mask's 64
//! rows, lane offset included — not at the sixteen-row build leaves:
//! the leaves fix the order of `ids`, the mask fixes the cost of a
//! visit, and the two are independent.
//!
//! **Leaf storage.** The index keeps its own copy of the rows *in
//! visiting order*: the features as one global AoSoA block
//! ([`regq_linalg::simd::pack_quads_aosoa`] layout — quads run over the
//! whole permuted row array, a subtree may start at any lane, only the
//! last quad is padded) and the target column beside it. The mask of a
//! tested subtree is shifted and trimmed to its own rows and walked in
//! ascending bit order; a hit reaches the visitor as `(id, row unpacked
//! from the quad just tested, target)`, or as the target alone for a
//! fold that reads nothing else. A traversal never dereferences the
//! `Dataset`. Membership follows the [`crate::norms::within`] contract.
//!
//! **`Σu`.** The sum every traversal returns is a fold of the tree's
//! shape, defined without reference to pruning or admission. Its leaves
//! are the traversal's mask ranges — the highest subtrees one mask covers
//! — each summing its rows in the ball in ascending position; above them
//! a node is `left + right` over the build's halving; a subtree or mask
//! with no row in the ball contributes nothing (`−0.0`, the identity of
//! addition, not `+0.0`). The build caches every node's value with all
//! its rows in the ball, computed by that same recursion, so a subtree
//! admitted whole contributes one load (its rows are still handed on)
//! and the result cannot tell admission happened. The mask width and the
//! lane offsets are thereby part of every exact mean, as `LEAF_SIZE` is
//! of the visiting order. It differs from the serial sum in the last
//! bits: at most `(63 + ⌈log₂(n/64)⌉)` roundings reach a row's term,
//! against `n − 1` in a serial fold.
//!
//! **Batches.** [`SpatialIndex::sum_targets_batch`] answers each ball
//! with `sum_targets` itself, in the order of the build leaves holding
//! the centres — one root-to-leaf descent per centre under `total_cmp`,
//! the splits' own comparison — so consecutive traversals walk the same
//! cells while they are still cached. An exact answer is a pure function
//! of (table, ball); the order changes what it costs, never what it is.
//!
//! **Memory.** `8·n·d` bytes of features (as the row-major copy before
//! it), `8·n` of targets, `4·n` of ids, 16 bytes per node at roughly one
//! node per six rows plus its cached `Σu` (8 bytes, ≈ 1.3 a row), and the
//! root box: `2d` doubles, no box per node.
//! A traversal keeps its cell box with the per-column bound terms (`4d`
//! doubles) and the visitor's row on the stack (`INLINE_SCRATCH`, 128
//! doubles each: 32 columns of box and terms) and makes no allocator
//! call; only a table wider than 32 columns spills the box and terms to
//! the one `Vec` every traversal used to pay.

use crate::index::{AccessPathKind, SpatialIndex};
use regq_data::Dataset;
use regq_linalg::simd::{self, MASK_QUADS};
use regq_linalg::tune::QUAD;
use std::sync::Arc;

/// Leaves hold up to this many points. Part of the visiting-order
/// contract (it decides where the recursive median splits stop), not a
/// traversal knob.
const LEAF_SIZE: usize = 16;

/// Rows one membership-kernel call decides: the width of its mask.
const MASK_ROWS: usize = MASK_QUADS * QUAD;

/// Doubles of traversal scratch kept on the stack: the cell box and its
/// per-column bound terms of a table up to 32 columns wide, the
/// visitor's row up to 128.
const INLINE_SCRATCH: usize = 128;

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
    /// Row ids, permuted so each subtree owns a contiguous range of
    /// positions; the three arrays below are all indexed by position.
    ids: Vec<u32>,
    /// Feature rows in `ids` order as one AoSoA block: position `r` is
    /// lane `r % 4` of quad `r / 4`; the last quad is padded with `+inf`.
    quads: Vec<f64>,
    /// Target column in `ids` order.
    leaf_ys: Vec<f64>,
    /// Per node, indexed like `nodes`: the tree-shaped `Σu` of all its
    /// rows, what an admitted subtree contributes to a sum.
    sums: Vec<f64>,
    /// The root cell: per-column minima then maxima (`2d` doubles) under
    /// `f64::total_cmp` — the order the splits use, so a column holding a
    /// NaN has a NaN side.
    root_box: Vec<f64>,
}

/// The rows of one subtree that lie in the ball, as positions into the
/// permuted arrays, ascending.
enum Hits {
    /// The cell of `node` lies inside the ball: every row of the
    /// positions `[start, end)` it owns.
    All {
        node: usize,
        start: usize,
        end: usize,
    },
    /// Bit `i` is set iff row `start + i` lies in the ball.
    Mask { start: usize, mask: u64 },
}

impl Hits {
    fn count(&self) -> usize {
        match *self {
            Hits::All { start, end, .. } => end - start,
            Hits::Mask { mask, .. } => mask.count_ones() as usize,
        }
    }

    fn for_each(self, mut f: impl FnMut(usize)) {
        match self {
            Hits::All { start, end, .. } => (start..end).for_each(f),
            Hits::Mask { start, mut mask } => {
                while mask != 0 {
                    f(start + mask.trailing_zeros() as usize);
                    mask &= mask - 1;
                }
            }
        }
    }
}

/// `(n, Σu)` (module docs, **`Σu`**) of a subtree the ball misses:
/// `−0.0` is the identity of IEEE addition — `−0.0 + u` is `u` bit for
/// bit, `±0.0` included (a NaN stays a NaN) — so it leaves the sum as if
/// the subtree were not there.
const MISSED: (usize, f64) = (0, -0.0);

/// `Σu` of `ys` in ascending position, from the identity `−0.0`.
fn serial_sum(ys: &[f64]) -> f64 {
    ys.iter().fold(-0.0, |sum, &u| sum + u)
}

/// Run `f` over `len` zeroed doubles of scratch: stack memory up to
/// [`INLINE_SCRATCH`], one `Vec` beyond.
fn with_scratch<R>(len: usize, f: impl FnOnce(&mut [f64]) -> R) -> R {
    let mut inline = [0.0; INLINE_SCRATCH];
    match inline.get_mut(..len) {
        Some(scratch) => f(scratch),
        None => f(&mut vec![0.0; len]),
    }
}

/// `true` when one membership-kernel call decides rows `[start, end)`:
/// the quads the range touches — `start`'s lane offset included — hold
/// at most [`MASK_ROWS`] rows. A sixty-four-row range that starts
/// mid-quad needs a seventeenth quad and does not qualify; a leaf always
/// does.
fn one_mask_covers(start: usize, end: usize) -> bool {
    start % QUAD + (end - start) <= MASK_ROWS
}

/// `(g_c², f_c²)` of one column: the terms the column adds to `near` and
/// `far` (module docs, **Pruning**) for a cell whose sides in it are `lo`
/// and `hi`, in the membership kernel's own operation sequence.
fn bound_terms(q: f64, lo: f64, hi: f64) -> (f64, f64) {
    // How far the centre sits inside each side; negative when it lies
    // beyond that side.
    let (below, above) = (q - lo, hi - q);
    // A NaN side drops out of `near`: comparisons with it are false,
    // which leaves the other side or zero.
    let inside = if below < above { below } else { above };
    let gap = if inside < 0.0 { -inside } else { 0.0 };
    // ... and poisons `far`: a cell with a NaN side may hold a NaN row,
    // which no ball admits.
    let reach = if below > above {
        below
    } else if below <= above {
        above
    } else {
        f64::NAN
    };
    (gap * gap, reach * reach)
}

/// The state of one traversal over a table `D` columns wide (`0` = read
/// the width at run time): the ball, the current cell's box with each
/// column's bound terms, and the consumer of the hits.
struct Descent<'a, F, const D: usize> {
    tree: &'a KdTree,
    center: &'a [f64],
    /// `radius²`, what the membership kernel compares against.
    limit: f64,
    /// The current cell, one entry per column. Every row below the
    /// current node has `lo[c] ≤ x[c] ≤ hi[c]` under `total_cmp`.
    lo: &'a mut [f64],
    hi: &'a mut [f64],
    /// Per column, [`bound_terms`] of the current cell: `gaps[c]` is its
    /// `g_c²`, `reaches[c]` its `f_c²`. A step down changes one side of
    /// one column, so it recomputes that column's pair and no other.
    gaps: &'a mut [f64],
    reaches: &'a mut [f64],
    on_hits: F,
}

impl<F: FnMut(Hits) -> (usize, f64), const D: usize> Descent<'_, F, D> {
    /// The table's width, a constant unless `D` is `0`.
    fn dim(&self) -> usize {
        if D == 0 {
            self.center.len()
        } else {
            D
        }
    }

    /// Recompute column `axis`'s bound terms from the cell's sides.
    fn refresh(&mut self, axis: usize) {
        (self.gaps[axis], self.reaches[axis]) =
            bound_terms(self.center[axis], self.lo[axis], self.hi[axis]);
    }

    /// Visit the subtree at `node`, which owns positions `[start, end)`
    /// and splits on `axis`.
    fn visit(&mut self, node: usize, start: usize, end: usize, axis: usize) -> (usize, f64) {
        // Bounds on the squared distance the membership kernel computes
        // for any row of the current cell: the cached terms summed in
        // coordinate order from `0.0`, the kernel's own operation
        // sequence (module docs, **Pruning**).
        let d = self.dim();
        let (mut near, mut far) = (0.0, 0.0);
        for (&gap, &reach) in self.gaps[..d].iter().zip(&self.reaches[..d]) {
            near += gap;
            far += reach;
        }
        // A NaN bound proves nothing: both tests are false and the
        // subtree is examined row by row.
        if near > self.limit {
            return MISSED;
        }
        if far <= self.limit {
            return (self.on_hits)(Hits::All { node, start, end });
        }
        let tree = self.tree;
        if one_mask_covers(start, end) {
            let mask = tree.range_mask(start, end, self.center, self.limit);
            return (self.on_hits)(Hits::Mask { start, mask });
        }
        // More than one mask of rows, so more than a leaf: an internal
        // node, whose children own the halves `build_recursive` gave them.
        let Node { split, link, rows } = tree.nodes[node];
        debug_assert_eq!(rows, 0, "a range wider than a mask is not a leaf");
        let mid = start + (end - start) / 2;
        let next = if axis + 1 == self.dim() { 0 } else { axis + 1 };
        // The left child holds keys <= split, the right >= split (equal
        // keys may sit on either side): narrow one side and refresh its
        // column's terms, descend, restore.
        let terms = (self.gaps[axis], self.reaches[axis]);
        let outer = std::mem::replace(&mut self.hi[axis], split);
        self.refresh(axis);
        let left = self.visit(node + 1, start, mid, next);
        self.hi[axis] = outer;
        let outer = std::mem::replace(&mut self.lo[axis], split);
        self.refresh(axis);
        let right = self.visit(link as usize, mid, end, next);
        self.lo[axis] = outer;
        (self.gaps[axis], self.reaches[axis]) = terms;
        (left.0 + right.0, left.1 + right.1)
    }
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
        let mut sums = vec![0.0; nodes.len()];
        if n > 0 {
            Self::subtree_sums(&nodes, &leaf_ys, 0, 0, n, &mut sums);
        }
        // An empty table has no root cell, and no traversal asks for one.
        let mut root_box = Vec::with_capacity(2 * d);
        if n > 0 {
            root_box.extend_from_slice(data.x(0));
            root_box.extend_from_slice(data.x(0));
            let (lo, hi) = root_box.split_at_mut(d);
            for row in data.xs_flat().chunks_exact(d) {
                for ((lo, hi), &x) in lo.iter_mut().zip(hi.iter_mut()).zip(row) {
                    if x.total_cmp(lo).is_lt() {
                        *lo = x;
                    }
                    if x.total_cmp(hi).is_gt() {
                        *hi = x;
                    }
                }
            }
        }
        KdTree {
            data,
            nodes,
            ids,
            quads,
            leaf_ys,
            sums,
            root_box,
        }
    }

    /// Fill `sums` for the subtree at `node` (positions `[start, end)`)
    /// and every node below it, returning its own entry: the tree-shaped
    /// `Σu` with every row in the ball — what the traversal computes for
    /// it, so what it may hand on when it admits the subtree.
    fn subtree_sums(
        nodes: &[Node],
        ys: &[f64],
        node: usize,
        start: usize,
        end: usize,
        sums: &mut [f64],
    ) -> f64 {
        let Node { link, rows, .. } = nodes[node];
        if rows == 0 {
            let mid = start + (end - start) / 2;
            let left = Self::subtree_sums(nodes, ys, node + 1, start, mid, sums);
            let right = Self::subtree_sums(nodes, ys, link as usize, mid, end, sums);
            sums[node] = left + right;
        }
        // A fold leaf sums its rows in order, and so does every node
        // below one (build leaves are among them); above the fold's
        // leaves the halves stay joined.
        if one_mask_covers(start, end) {
            sums[node] = serial_sum(&ys[start..end]);
        }
        sums[node]
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

    /// Membership mask of the rows `[start, end)` (non-empty, and
    /// [`one_mask_covers`] them): bit `r − start` is set iff row `r` lies
    /// in the ball `‖row − center‖₂² ≤ limit`.
    fn range_mask(&self, start: usize, end: usize, center: &[f64], limit: f64) -> u64 {
        // One kernel call over every quad the range touches, then drop
        // the lanes before `start` and after `end`: a neighbouring
        // subtree's rows or the `+inf` pad. The trim is total over
        // `1..=64` rows, where `(1 << len) − 1` is not.
        let stride = QUAD * center.len();
        let block = &self.quads[start / QUAD * stride..end.div_ceil(QUAD) * stride];
        let mask = simd::within_mask_aosoa(center, block, limit);
        (mask >> (start % QUAD)) & (u64::MAX >> (MASK_ROWS - (end - start)))
    }

    /// The build leaf whose cell holds `center`, as its node index —
    /// depth-first, so leaves number left to right. One root-to-leaf
    /// descent under `total_cmp`, the comparison the build splits by, so
    /// every centre has one, NaN and ±∞ coordinates included; a centre on
    /// a split plane goes left. `0` in an empty tree.
    fn leaf_of(&self, center: &[f64]) -> usize {
        let mut node = 0;
        for axis in (0..center.len()).cycle() {
            // A leaf holds rows; an empty tree has no node at all.
            match self.nodes.get(node) {
                Some(n) if n.rows == 0 => {
                    let left = center[axis].total_cmp(&n.split).is_le();
                    node = if left { node + 1 } else { n.link as usize };
                }
                _ => break,
            }
        }
        node
    }

    /// `(n, Σu)` of one subtree's hits (module docs, **`Σu`**), each hit
    /// handed on as `visit(position, u)` in ascending position. An
    /// admitted range is walked as a slice: indexing each position
    /// doubled the cost of a serial fold over it.
    fn sum_hits(&self, hits: Hits, mut visit: impl FnMut(usize, f64)) -> (usize, f64) {
        match hits {
            Hits::All { node, start, end } => {
                for (r, &u) in (start..).zip(&self.leaf_ys[start..end]) {
                    visit(r, u);
                }
                (end - start, self.sums[node])
            }
            masked => {
                let (n, mut sum) = (masked.count(), -0.0);
                masked.for_each(|r| {
                    let u = self.leaf_ys[r];
                    sum += u;
                    visit(r, u);
                });
                (n, sum)
            }
        }
    }

    /// The one traversal: `on_hits` for every subtree the ball reaches
    /// that holds a row of it or had to be tested, in visiting order; the
    /// values it returns joined as the build halved the rows.
    fn fold_hits(
        &self,
        center: &[f64],
        radius: f64,
        on_hits: impl FnMut(Hits) -> (usize, f64),
    ) -> (usize, f64) {
        let d = self.data.dim();
        assert_eq!(center.len(), d, "query dimension mismatch");
        // A negative radius admits nothing (`norms::within`); the bounds
        // and the kernel only ever see `radius²`, so the sign is settled
        // here, once per traversal.
        if self.nodes.is_empty() || radius < 0.0 {
            return MISSED;
        }
        match d {
            1 => self.descend::<_, 1>(center, radius, on_hits),
            2 => self.descend::<_, 2>(center, radius, on_hits),
            3 => self.descend::<_, 3>(center, radius, on_hits),
            4 => self.descend::<_, 4>(center, radius, on_hits),
            5 => self.descend::<_, 5>(center, radius, on_hits),
            6 => self.descend::<_, 6>(center, radius, on_hits),
            7 => self.descend::<_, 7>(center, radius, on_hits),
            8 => self.descend::<_, 8>(center, radius, on_hits),
            _ => self.descend::<_, 0>(center, radius, on_hits),
        }
    }

    /// [`KdTree::fold_hits`] over a non-empty tree, `D` columns wide (`0`
    /// = read the width at run time): the root cell and its bound terms
    /// in scratch, then the descent from the root.
    fn descend<F: FnMut(Hits) -> (usize, f64), const D: usize>(
        &self,
        center: &[f64],
        radius: f64,
        on_hits: F,
    ) -> (usize, f64) {
        let d = center.len();
        with_scratch(4 * d, |scratch| {
            let (cell, terms) = scratch.split_at_mut(2 * d);
            cell.copy_from_slice(&self.root_box);
            let (lo, hi) = cell.split_at_mut(d);
            let (gaps, reaches) = terms.split_at_mut(d);
            let mut descent = Descent::<F, D> {
                tree: self,
                center,
                limit: radius * radius,
                lo,
                hi,
                gaps,
                reaches,
                on_hits,
            };
            for axis in 0..d {
                descent.refresh(axis);
            }
            descent.visit(0, 0, self.ids.len(), 0)
        })
    }
}

impl SpatialIndex for KdTree {
    fn visit_ball(
        &self,
        center: &[f64],
        radius: f64,
        mut visit: impl FnMut(usize, &[f64], f64),
    ) -> (usize, f64) {
        with_scratch(center.len(), |row| {
            self.fold_hits(center, radius, |hits| {
                self.sum_hits(hits, |r, u| {
                    simd::aosoa_row_into(&self.quads, r, row);
                    visit(self.ids[r] as usize, row, u);
                })
            })
        })
    }

    fn visit_targets(
        &self,
        center: &[f64],
        radius: f64,
        mut visit: impl FnMut(f64),
    ) -> (usize, f64) {
        self.fold_hits(center, radius, |hits| self.sum_hits(hits, |_, u| visit(u)))
    }

    fn sum_targets_batch(
        &self,
        centres: &[f64],
        radii: &[f64],
        mut answer: impl FnMut(usize, (usize, f64)),
    ) {
        let d = self.data.dim();
        assert_eq!(centres.len(), radii.len() * d, "batch dimension mismatch");
        let balls = u32::try_from(radii.len()).expect("a batch holds at most u32::MAX balls");
        // Ball `i` under the key `leaf << 32 | i` (fewer nodes than rows,
        // so a leaf fits 32 bits): sorted, leaves run left to right and
        // the balls of one leaf in input order.
        let mut order: Vec<u64> = centres
            .chunks_exact(d)
            .zip(0..balls)
            .map(|(center, i)| (self.leaf_of(center) as u64) << 32 | u64::from(i))
            .collect();
        order.sort_unstable();
        for key in order {
            let i = (key & u64::from(u32::MAX)) as usize;
            answer(i, self.sum_targets(&centres[i * d..][..d], radii[i]));
        }
    }

    fn count_ball(&self, center: &[f64], radius: f64) -> usize {
        // The hits are counted, not walked: no sum is taken.
        self.fold_hits(center, radius, |hits| (hits.count(), -0.0))
            .0
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

    /// Rows `0, 1, …, n − 1` on a line.
    fn line(n: usize) -> Arc<Dataset> {
        let mut ds = Dataset::new(1);
        for i in 0..n {
            ds.push(&[i as f64], i as f64).unwrap();
        }
        Arc::new(ds)
    }

    #[test]
    fn one_mask_covers_sixty_four_rows_less_the_lane_offset() {
        for lane in 0..QUAD {
            for (len, fits) in [(1, true), (16, true), (60, true), (63, lane <= 1)] {
                assert_eq!(one_mask_covers(lane, lane + len), fits, "{lane}+{len}");
            }
            assert_eq!(one_mask_covers(lane, lane + 64), lane == 0);
            assert!(!one_mask_covers(lane, lane + 65));
            assert!(!one_mask_covers(lane, lane + 128));
        }
    }

    #[test]
    fn range_mask_is_the_per_row_test_at_every_lane_offset_and_width() {
        // The widest ranges a mask covers at each lane offset — where
        // `(1 << len) − 1` wraps to an empty mask (or panics) — and a few
        // narrow ones, each against a ball that cuts it and one that
        // holds all of it.
        let tree = KdTree::build(line(72));
        let row = |r: usize| tree.data.x(tree.ids[r] as usize);
        for lane in 0..QUAD {
            for len in [1, 2, 15, 16, 17, 63 - lane, 64 - lane] {
                let (start, end) = (QUAD + lane, QUAD + lane + len);
                assert!(one_mask_covers(start, end));
                for (center, radius) in [(start as f64, len as f64 / 2.0), (36.0, 100.0)] {
                    let want = (start..end)
                        .filter(|&r| crate::norms::within(&[center], row(r), radius))
                        .fold(0u64, |m, r| m | 1 << (r - start));
                    let got = tree.range_mask(start, end, &[center], radius * radius);
                    assert_eq!(got, want, "lane {lane} len {len} r {radius}");
                }
            }
        }
    }

    #[test]
    fn trees_around_one_mask_of_rows_match_the_scan() {
        // 63 / 64: the root is one mask. 65 / 128: it splits first. 122 …
        // 127: the right child starts at lanes 1, 2 and 3, with and
        // without room for its rows in sixteen quads. Balls that hold
        // every row but the outermost keep each cell's box outside, so
        // full-width masks are computed, not admitted.
        for n in [63usize, 64, 65, 122, 123, 124, 125, 126, 127, 128] {
            let data = line(n);
            let tree = KdTree::build(data.clone());
            let scan = LinearScan::new(data);
            let mid = (n - 1) as f64 / 2.0;
            let (mut got, mut want) = (Vec::new(), Vec::new());
            for (c, r) in [(mid, mid - 0.5), (mid, mid), (0.0, mid), (mid + 3.0, 40.0)] {
                tree.query_ball(&[c], r, &mut got);
                scan.query_ball(&[c], r, &mut want);
                assert_eq!(sorted(got.clone()), want, "n {n} c {c} r {r}");
                assert_eq!(tree.count_ball(&[c], r), want.len(), "n {n} c {c} r {r}");
            }
        }
    }

    #[test]
    fn a_cell_inside_the_ball_is_admitted_unless_it_holds_a_nan_row() {
        let mut ds = Dataset::new(2);
        for i in 0..200 {
            ds.push(&[(i % 20) as f64, (i / 20) as f64], i as f64)
                .unwrap();
        }
        // Two hundred rows on a grid, then the same with two NaN rows.
        let finite = Arc::new(ds.clone());
        ds.push(&[f64::NAN, 3.0], -1.0).unwrap();
        ds.push(&[7.0, -f64::NAN], -2.0).unwrap();
        let rows = 200;
        for data in [finite, Arc::new(ds)] {
            let tree = KdTree::build(data);
            // The whole table, root cell included, lies inside this ball:
            // one `All` when every side is a number, none that covers a
            // NaN row otherwise.
            let mut admitted = 0;
            let mut hits = 0;
            tree.fold_hits(&[10.0, 5.0], 1e3, |h| {
                hits += h.count();
                if let Hits::All { start, end, .. } = h {
                    admitted += end - start;
                    for &id in &tree.ids[start..end] {
                        assert!(tree.data.x(id as usize).iter().all(|x| !x.is_nan()));
                    }
                }
                MISSED
            });
            assert_eq!(hits, rows);
            assert!(admitted > 0 && admitted <= rows);
            assert_eq!(admitted == rows, tree.ids.len() == rows);
            assert_eq!(tree.count_ball(&[10.0, 5.0], f64::INFINITY), rows);
            assert_eq!(tree.count_ball(&[f64::NAN, 5.0], f64::INFINITY), 0);
        }
    }

    #[test]
    fn target_visitor_sees_the_row_visitor_targets_in_order() {
        let data = random_dataset(300, 2, 5);
        let tree = KdTree::build(data);
        for r in [0.0, 0.2, 1.2, 5.0] {
            let (mut rows, mut targets) = (Vec::new(), Vec::new());
            tree.visit_ball(&[0.1, -0.2], r, |_, _, u| rows.push(u.to_bits()));
            tree.visit_targets(&[0.1, -0.2], r, |u| targets.push(u.to_bits()));
            assert_eq!(rows, targets, "r {r}");
        }
    }

    /// The tree-shaped `Σu` of the rows `[start, end)` of subtree `node`,
    /// recomputed from the target column.
    fn fresh_sum(tree: &KdTree, node: usize, start: usize, end: usize) -> f64 {
        if one_mask_covers(start, end) {
            return tree.leaf_ys[start..end].iter().fold(-0.0, |s, &u| s + u);
        }
        let mid = start + (end - start) / 2;
        let right = tree.nodes[node].link as usize;
        fresh_sum(tree, node + 1, start, mid) + fresh_sum(tree, right, mid, end)
    }

    #[test]
    fn cached_sums_are_the_tree_shaped_sums_of_their_rows() {
        for (n, d) in [(1, 1), (64, 1), (127, 2), (1_000, 3), (5_003, 2)] {
            let mut rng = seeded(n as u64);
            let mut ds = Dataset::new(d);
            for i in 0..n {
                let x: Vec<f64> = (0..d).map(|_| rng.random_range(-1.0..1.0)).collect();
                // Mixed scales, and a run of `−0.0` that only `−0.0`
                // leaves alone.
                let u = if i % 97 < 20 {
                    -0.0
                } else {
                    rng.random_range(-1.0..1.0) * 10f64.powi(i as i32 % 7)
                };
                ds.push(&x, u).unwrap();
            }
            let tree = KdTree::build(Arc::new(ds));
            assert_eq!(tree.sums.len(), tree.nodes.len());
            // Every node, fold leaves and the build leaves below them
            // included, against its own range.
            let mut stack = vec![(0, 0, n)];
            while let Some((node, start, end)) = stack.pop() {
                let cached = tree.sums[node].to_bits();
                assert_eq!(cached, fresh_sum(&tree, node, start, end).to_bits());
                let Node { link, rows, .. } = tree.nodes[node];
                if rows == 0 {
                    let mid = start + (end - start) / 2;
                    stack.extend([(node + 1, start, mid), (link as usize, mid, end)]);
                }
            }
            // Every row in the ball, through the cache at the root and
            // through a ball just wide enough, around a row, whose cell
            // bounds do not admit the root (in one column the box's sides
            // are rows, so there they do): the same bits.
            let whole = tree.sum_targets(&vec![0.0; d], 2.0 * (d as f64).sqrt());
            assert_eq!((whole.0, whole.1.to_bits()), (n, tree.sums[0].to_bits()));
            let row = tree.data.x(0).to_vec();
            let mut radius = (0..n)
                .map(|i| regq_linalg::vector::l2_dist(&row, tree.data.x(i)))
                .fold(0.0, f64::max);
            while tree.count_ball(&row, radius) < n {
                radius = radius.next_up();
            }
            let mut root_admitted = false;
            tree.fold_hits(&row, radius, |h| {
                root_admitted |= matches!(h, Hits::All { node: 0, .. });
                MISSED
            });
            assert!(d == 1 || !root_admitted, "n {n}");
            let tight = tree.sum_targets(&row, radius);
            assert_eq!((tight.0, tight.1.to_bits()), (n, tree.sums[0].to_bits()));
        }
    }

    #[test]
    fn a_batch_answers_each_ball_once_in_build_leaf_order() {
        let tree = KdTree::build(random_dataset(2_000, 3, 11));
        let mut rng = seeded(12);
        let mut centres: Vec<f64> = (0..300 * 3).map(|_| rng.random_range(-1.2..1.2)).collect();
        // Hostile centres get a leaf too, and a duplicate ball its own slot.
        centres.extend([
            f64::NAN,
            0.0,
            f64::INFINITY,
            -f64::NAN,
            f64::NEG_INFINITY,
            -0.0,
        ]);
        centres.extend_from_within(..3);
        let radii: Vec<f64> = (0..centres.len() / 3)
            .map(|i| 0.1 * (i % 7) as f64)
            .collect();
        let mut seen = Vec::new();
        tree.sum_targets_batch(&centres, &radii, |i, (n, sum)| {
            let want = tree.sum_targets(&centres[3 * i..][..3], radii[i]);
            assert_eq!((n, sum.to_bits()), (want.0, want.1.to_bits()), "ball {i}");
            seen.push((tree.leaf_of(&centres[3 * i..][..3]), i));
        });
        assert!(seen.iter().all(|&(leaf, _)| tree.nodes[leaf].rows > 0));
        assert!(
            seen.windows(2).all(|w| w[0] < w[1]),
            "leaf, then input order"
        );
        assert_eq!(seen.len(), radii.len());
    }

    #[test]
    fn nodes_are_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Node>(), 16);
    }
}
