//! Property tests: the kd-tree implements the same selection semantics as
//! the linear scan, for random data, centers and *every* radius —
//! negative, zero, `NaN` and infinite included.

use proptest::prelude::*;
use regq_data::Dataset;
use regq_linalg::vector;
use regq_store::{norms, KdTree, LinearScan, SpatialIndex};
use std::sync::Arc;

fn dataset_strategy(d: usize) -> impl Strategy<Value = Dataset> {
    prop::collection::vec(prop::collection::vec(-1.0..1.0f64, d), 0..200).prop_map(move |rows| {
        let mut ds = Dataset::new(d);
        for r in &rows {
            ds.push(r, 0.0).unwrap();
        }
        ds
    })
}

/// Mostly ordinary radii below `max`, with the hostile ones mixed in:
/// negative (finite and −∞), ±0, NaN and +∞. A negative or NaN radius
/// selects nothing, an infinite one every row without a NaN coordinate.
fn radius_strategy(max: f64) -> impl Strategy<Value = f64> {
    (0..16u32, 0.0..max).prop_map(|(kind, r)| match kind {
        0 | 1 => -r,
        2 => f64::NEG_INFINITY,
        3 => 0.0,
        4 => -0.0,
        5 => f64::NAN,
        6 => f64::INFINITY,
        _ => r,
    })
}

/// Mostly finite coordinates, with NaN (either sign) and ±∞ mixed in.
fn hostile_coordinate() -> impl Strategy<Value = f64> {
    (0..16u32, -1.0..1.0f64).prop_map(|(kind, finite)| match kind {
        0 => f64::NAN,
        1 => -f64::NAN,
        2 => f64::INFINITY,
        3 => f64::NEG_INFINITY,
        _ => finite,
    })
}

fn sorted(mut v: Vec<usize>) -> Vec<usize> {
    v.sort_unstable();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn kd_tree_equals_scan_2d(ds in dataset_strategy(2),
                              cx in -1.5..1.5f64, cy in -1.5..1.5f64,
                              r in radius_strategy(1.5)) {
        let data = Arc::new(ds);
        let tree = KdTree::build(data.clone());
        let scan = LinearScan::new(data);
        let (mut got, mut want) = (Vec::new(), Vec::new());
        tree.query_ball(&[cx, cy], r, &mut got);
        scan.query_ball(&[cx, cy], r, &mut want);
        prop_assert_eq!(sorted(got), want);
    }

    #[test]
    fn kd_tree_equals_scan_4d(ds in dataset_strategy(4),
                              c in prop::collection::vec(-1.5..1.5f64, 4),
                              r in radius_strategy(2.0)) {
        let data = Arc::new(ds);
        let tree = KdTree::build(data.clone());
        let scan = LinearScan::new(data);
        let (mut got, mut want) = (Vec::new(), Vec::new());
        tree.query_ball(&c, r, &mut got);
        scan.query_ball(&c, r, &mut want);
        prop_assert_eq!(sorted(got), want);
    }

    /// The push-based fold traversal visits exactly the rows the
    /// materializing selection returns — same ids, same coordinates, same
    /// outputs — for both access paths and every radius.
    #[test]
    fn fold_ball_equals_query_ball_on_every_path(ds in dataset_strategy(3),
                                                 c in prop::collection::vec(-1.5..1.5f64, 3),
                                                 r in radius_strategy(1.5)) {
        let data = Arc::new(ds);
        let scan = LinearScan::new(data.clone());
        let tree = KdTree::build(data.clone());
        let paths: [&dyn SpatialIndex; 2] = [&scan, &tree];
        for index in paths {
            let mut visited = Vec::new();
            let mut rows_match = true;
            index.visit_ball(&c, r, &mut |id, x, y| {
                rows_match &= x == data.x(id) && y == data.y(id);
                visited.push(id);
            });
            prop_assert!(rows_match, "visitor row mismatch on {}", index.kind());
            let mut ids = Vec::new();
            index.query_ball(&c, r, &mut ids);
            prop_assert_eq!(&visited, &ids, "visit vs query on {}", index.kind());
            prop_assert_eq!(index.count_ball(&c, r), ids.len());
        }
    }

    /// `norms::within` boundary contract: the squared-space membership
    /// test agrees with the root-space predicate `dist(a, b) ≤ r`
    /// everywhere except (at most) a one-ulp band around the boundary,
    /// where the documented squared form is canonical. See the contract
    /// note on `norms::within`.
    #[test]
    fn within_agrees_with_dist_up_to_boundary_ulp(
        a in prop::collection::vec(-3.0..3.0f64, 4),
        b in prop::collection::vec(-3.0..3.0f64, 4),
        r in 0.0..8.0f64,
    ) {
        let dist = vector::l2_dist(&a, &b);
        let within = norms::within(&a, &b, r);
        if within != (dist <= r) {
            // Disagreement is only legal in the rounding band around the
            // boundary itself.
            let scale = dist.abs().max(r.abs()).max(1.0);
            prop_assert!(
                (dist - r).abs() <= 8.0 * f64::EPSILON * scale,
                "within = {within} but dist = {dist} vs r = {r}"
            );
        }
    }

    /// Hostile rows: `Dataset::push` accepts any `f64`, so a table may
    /// carry NaN and ±∞ coordinates. Both indexes build over them without
    /// panicking and still return the same row set — a NaN coordinate
    /// matches nothing, an infinite one only an infinite ball — for every
    /// radius, hostile ones included.
    #[test]
    fn access_paths_agree_on_non_finite_rows(
        rows in prop::collection::vec(prop::collection::vec(hostile_coordinate(), 3), 0..120),
        c in prop::collection::vec(hostile_coordinate(), 3),
        r in radius_strategy(3.0),
    ) {
        let mut ds = Dataset::new(3);
        for row in &rows {
            ds.push(row, 0.0).unwrap();
        }
        let data = Arc::new(ds);
        let scan = LinearScan::new(data.clone());
        let tree = KdTree::build(data);
        let (mut s, mut t) = (Vec::new(), Vec::new());
        scan.query_ball(&c, r, &mut s);
        tree.query_ball(&c, r, &mut t);
        prop_assert_eq!(&s, &sorted(t), "kd-tree vs scan, r {}", r);
        prop_assert_eq!(tree.count_ball(&c, r), s.len());
    }

    /// Selections are monotone in the radius: a bigger ball returns a
    /// superset of row ids.
    #[test]
    fn selection_monotone_in_radius(ds in dataset_strategy(3),
                                    c in prop::collection::vec(-1.0..1.0f64, 3),
                                    r1 in 0.0..1.0f64, extra in 0.0..1.0f64) {
        let data = Arc::new(ds);
        let tree = KdTree::build(data);
        let (mut small, mut big) = (Vec::new(), Vec::new());
        tree.query_ball(&c, r1, &mut small);
        tree.query_ball(&c, r1 + extra, &mut big);
        let big_set: std::collections::HashSet<usize> = big.into_iter().collect();
        for id in small {
            prop_assert!(big_set.contains(&id));
        }
    }
}
