//! The textbook kd-tree: a permuted id array and nothing else, rows
//! fetched from the dataset, one [`norms::within`] per row. It is rebuilt
//! from the documented shape (median split under `total_cmp`, axis =
//! depth mod `d`, leaves of at most sixteen rows, prune a child only when
//! proven far by its splitting plane) and is the specification the
//! production `KdTree` is held to. It does not follow the production
//! traversal's changes.
//!
//! Shared by the store's batteries and by `regq_exact`'s property tests
//! (which include this file by path); each uses part of it.
#![allow(dead_code)]

use regq_data::Dataset;
use regq_store::norms;

pub const LEAF_SIZE: usize = 16;

/// Rows per quad and per membership mask of `regq_linalg`'s leaf kernel
/// — restated, with the rule below, so the reference stands alone.
const QUAD: usize = 4;
const MASK_ROWS: usize = 64;

/// `true` when one mask decides positions `[start, end)`: the quads the
/// range touches, `start`'s lane offset included, hold at most
/// [`MASK_ROWS`] rows.
pub fn one_mask_covers(start: usize, end: usize) -> bool {
    start % QUAD + (end - start) <= MASK_ROWS
}

/// The textbook tree: ids only, rows fetched from the dataset.
pub enum RefNode {
    Leaf(Vec<usize>),
    Split {
        axis: usize,
        split: f64,
        left: Box<RefNode>,
        right: Box<RefNode>,
    },
}

/// The tree over every row of `data`.
pub fn build(data: &Dataset) -> RefNode {
    let mut ids: Vec<usize> = (0..data.len()).collect();
    build_reference(data, &mut ids, 0)
}

pub fn build_reference(data: &Dataset, ids: &mut [usize], depth: usize) -> RefNode {
    if ids.len() <= LEAF_SIZE {
        return RefNode::Leaf(ids.to_vec());
    }
    let axis = depth % data.dim();
    let mid = ids.len() / 2;
    ids.select_nth_unstable_by(mid, |&a, &b| data.x(a)[axis].total_cmp(&data.x(b)[axis]));
    let split = data.x(ids[mid])[axis];
    let (lo, hi) = ids.split_at_mut(mid);
    RefNode::Split {
        axis,
        split,
        left: Box::new(build_reference(data, lo, depth + 1)),
        right: Box::new(build_reference(data, hi, depth + 1)),
    }
}

/// Append the ids of the ball's rows in visiting order.
pub fn walk_reference(
    node: &RefNode,
    data: &Dataset,
    center: &[f64],
    radius: f64,
    out: &mut Vec<usize>,
) {
    match node {
        RefNode::Leaf(ids) => out.extend(
            ids.iter()
                .filter(|&&id| norms::within(center, data.x(id), radius)),
        ),
        RefNode::Split {
            axis,
            split,
            left,
            right,
        } => {
            let delta = center[*axis] - split;
            let (left_far, right_far) = (delta > radius, -delta > radius);
            if !left_far {
                walk_reference(left, data, center, radius, out);
            }
            if !right_far {
                walk_reference(right, data, center, radius, out);
            }
        }
    }
}

impl RefNode {
    /// Rows in the subtree.
    pub fn len(&self) -> usize {
        match self {
            RefNode::Leaf(ids) => ids.len(),
            RefNode::Split { left, right, .. } => left.len() + right.len(),
        }
    }

    /// The subtree's ids, left to right.
    fn ids(&self, out: &mut Vec<usize>) {
        match self {
            RefNode::Leaf(ids) => out.extend(ids),
            RefNode::Split { left, right, .. } => {
                left.ids(out);
                right.ids(out);
            }
        }
    }
}

/// `(n, Σu)` of the ball, tree-shaped: the fold's leaves are the highest
/// subtrees one mask covers, each summing its rows in the ball in
/// ascending position; above them a node is `left + right`. A subtree or
/// leaf with no row in the ball contributes nothing — not a zero — and
/// the sum of no rows is `−0.0`.
pub fn sum_targets(tree: &RefNode, data: &Dataset, center: &[f64], radius: f64) -> (usize, f64) {
    let (n, sum) = tree_sum(tree, 0, data, center, radius);
    (n, sum.unwrap_or(-0.0))
}

/// The subtree `node`, owning the positions from `start` on: its rows in
/// the ball and their tree-shaped sum, `None` when there are none.
fn tree_sum(
    node: &RefNode,
    start: usize,
    data: &Dataset,
    center: &[f64],
    radius: f64,
) -> (usize, Option<f64>) {
    if one_mask_covers(start, start + node.len()) {
        let mut ids = Vec::new();
        node.ids(&mut ids);
        let targets = ids
            .into_iter()
            .filter(|&id| norms::within(center, data.x(id), radius))
            .map(|id| data.y(id));
        return targets.fold((0, None), |(n, sum), u| {
            (n + 1, Some(sum.map_or(u, |sum: f64| sum + u)))
        });
    }
    let RefNode::Split { left, right, .. } = node else {
        unreachable!("a leaf's sixteen rows fit one mask")
    };
    let (ln, lsum) = tree_sum(left, start, data, center, radius);
    let (rn, rsum) = tree_sum(right, start + left.len(), data, center, radius);
    let sum = match (lsum, rsum) {
        (Some(l), Some(r)) => Some(l + r),
        (one, other) => one.or(other),
    };
    (ln + rn, sum)
}
