//! Property tests: every access path implements the same selection
//! semantics as the linear scan, for random data, centers, radii and norms.

use proptest::prelude::*;
use regq_data::Dataset;
use regq_store::{GridIndex, KdTree, LinearScan, Norm, SpatialIndex};
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

fn norm_strategy() -> impl Strategy<Value = Norm> {
    prop_oneof![
        Just(Norm::L1),
        Just(Norm::L2),
        Just(Norm::LInf),
        (1.0..4.0f64).prop_map(Norm::Lp),
    ]
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
                              r in 0.0..1.5f64,
                              norm in norm_strategy()) {
        let data = Arc::new(ds);
        let tree = KdTree::build(data.clone());
        let scan = LinearScan::new(data);
        let (mut got, mut want) = (Vec::new(), Vec::new());
        tree.query_ball(&[cx, cy], r, norm, &mut got);
        scan.query_ball(&[cx, cy], r, norm, &mut want);
        prop_assert_eq!(sorted(got), want);
    }

    #[test]
    fn grid_equals_scan_2d(ds in dataset_strategy(2),
                           cx in -1.5..1.5f64, cy in -1.5..1.5f64,
                           r in 0.0..1.5f64,
                           norm in norm_strategy()) {
        let data = Arc::new(ds);
        let grid = GridIndex::build(data.clone());
        let scan = LinearScan::new(data);
        let (mut got, mut want) = (Vec::new(), Vec::new());
        grid.query_ball(&[cx, cy], r, norm, &mut got);
        scan.query_ball(&[cx, cy], r, norm, &mut want);
        prop_assert_eq!(sorted(got), want);
    }

    #[test]
    fn kd_tree_equals_scan_4d(ds in dataset_strategy(4),
                              c in prop::collection::vec(-1.5..1.5f64, 4),
                              r in 0.0..2.0f64,
                              norm in norm_strategy()) {
        let data = Arc::new(ds);
        let tree = KdTree::build(data.clone());
        let scan = LinearScan::new(data);
        let (mut got, mut want) = (Vec::new(), Vec::new());
        tree.query_ball(&c, r, norm, &mut got);
        scan.query_ball(&c, r, norm, &mut want);
        prop_assert_eq!(sorted(got), want);
    }

    #[test]
    fn grid_equals_scan_4d(ds in dataset_strategy(4),
                           c in prop::collection::vec(-1.5..1.5f64, 4),
                           r in 0.0..2.0f64,
                           norm in norm_strategy()) {
        let data = Arc::new(ds);
        let grid = GridIndex::build(data.clone());
        let scan = LinearScan::new(data);
        let (mut got, mut want) = (Vec::new(), Vec::new());
        grid.query_ball(&c, r, norm, &mut got);
        scan.query_ball(&c, r, norm, &mut want);
        prop_assert_eq!(sorted(got), want);
    }

    /// The push-based fold traversal visits exactly the rows the
    /// materializing selection returns — same ids, same coordinates, same
    /// outputs — for every access path and norm.
    #[test]
    fn fold_ball_equals_query_ball_on_every_path(ds in dataset_strategy(3),
                                                 c in prop::collection::vec(-1.5..1.5f64, 3),
                                                 r in 0.0..1.5f64,
                                                 norm in norm_strategy()) {
        let data = Arc::new(ds);
        let scan = LinearScan::new(data.clone());
        let tree = KdTree::build(data.clone());
        let grid = GridIndex::build(data.clone());
        let paths: [&dyn SpatialIndex; 3] = [&scan, &tree, &grid];
        for index in paths {
            let mut visited = Vec::new();
            let mut rows_match = true;
            index.visit_ball(&c, r, norm, &mut |id, x, y| {
                rows_match &= x == data.x(id) && y == data.y(id);
                visited.push(id);
            });
            prop_assert!(rows_match, "visitor row mismatch on {}", index.kind());
            let mut ids = Vec::new();
            index.query_ball(&c, r, norm, &mut ids);
            prop_assert_eq!(&visited, &ids, "visit vs query on {}", index.kind());
            prop_assert_eq!(index.count_ball(&c, r, norm), ids.len());
        }
    }

    /// `Norm::within` boundary contract: the power-space membership test
    /// agrees with the root-space predicate `dist(a, b) ≤ r` everywhere
    /// except (at most) a one-ulp band around the boundary, where the
    /// documented squared/power-space form is canonical. See the contract
    /// note on `Norm::within`.
    #[test]
    fn within_agrees_with_dist_up_to_boundary_ulp(
        a in prop::collection::vec(-3.0..3.0f64, 4),
        b in prop::collection::vec(-3.0..3.0f64, 4),
        r in 0.0..8.0f64,
        norm in norm_strategy(),
    ) {
        let dist = norm.dist(&a, &b);
        let within = norm.within(&a, &b, r);
        if within != (dist <= r) {
            // Disagreement is only legal in the rounding band around the
            // boundary itself.
            let scale = dist.abs().max(r.abs()).max(1.0);
            prop_assert!(
                (dist - r).abs() <= 8.0 * f64::EPSILON * scale,
                "{norm:?}: within = {within} but dist = {dist} vs r = {r}"
            );
        }
    }

    /// Exactly *on* the boundary (a representable dist == r), membership
    /// must be inclusive for every norm and agree across all access paths.
    #[test]
    fn boundary_membership_is_inclusive_on_every_path(
        ds in dataset_strategy(2),
        cx in -1.5..1.5f64, cy in -1.5..1.5f64,
        r in 0.0..1.5f64,
        norm in norm_strategy(),
    ) {
        let data = Arc::new(ds);
        let scan = LinearScan::new(data.clone());
        let tree = KdTree::build(data.clone());
        let grid = GridIndex::build(data);
        let (mut s, mut t, mut g) = (Vec::new(), Vec::new(), Vec::new());
        scan.query_ball(&[cx, cy], r, norm, &mut s);
        tree.query_ball(&[cx, cy], r, norm, &mut t);
        grid.query_ball(&[cx, cy], r, norm, &mut g);
        prop_assert_eq!(&s, &sorted(t));
        prop_assert_eq!(&s, &sorted(g));
    }

    /// Degenerate (zero-extent) grid dimensions: a dataset whose first
    /// feature is a constant column still answers every ball exactly —
    /// centered on the constant value, off it, or far away — because the
    /// clamped binning maps the whole degenerate axis to cell 0 for data
    /// and queries alike.
    #[test]
    fn grid_handles_constant_feature_column(
        others in prop::collection::vec(-1.0..1.0f64, 1..120),
        constant in -2.0..2.0f64,
        center_offset in -1.5..1.5f64,
        cy in -1.5..1.5f64,
        r in 0.0..1.5f64,
        norm in norm_strategy(),
    ) {
        let mut ds = Dataset::new(2);
        for &v in &others {
            ds.push(&[constant, v], 0.0).unwrap();
        }
        let data = Arc::new(ds);
        let grid = GridIndex::build(data.clone());
        let scan = LinearScan::new(data);
        let (mut got, mut want) = (Vec::new(), Vec::new());
        // Centered exactly on the constant value…
        grid.query_ball(&[constant, cy], r, norm, &mut got);
        scan.query_ball(&[constant, cy], r, norm, &mut want);
        prop_assert_eq!(sorted(got.clone()), want.clone(), "on-value ball");
        // …and off it along the degenerate axis.
        grid.query_ball(&[constant + center_offset, cy], r, norm, &mut got);
        scan.query_ball(&[constant + center_offset, cy], r, norm, &mut want);
        prop_assert_eq!(sorted(got.clone()), want, "off-value ball");
    }

    /// Hostile rows: `Dataset::push` accepts any `f64`, so a table may
    /// carry NaN and ±∞ coordinates. Every index builds over them without
    /// panicking and all three paths still return the same row set under
    /// all four norms — a NaN coordinate matches nothing, an infinite one
    /// only an infinite ball — for finite and non-finite balls alike.
    #[test]
    fn access_paths_agree_on_non_finite_rows(
        rows in prop::collection::vec(prop::collection::vec(hostile_coordinate(), 3), 0..120),
        c in prop::collection::vec(hostile_coordinate(), 3),
        r in prop_oneof![0.0..3.0f64, 0.0..3.0f64, Just(f64::INFINITY), Just(f64::NAN)],
    ) {
        let mut ds = Dataset::new(3);
        for row in &rows {
            ds.push(row, 0.0).unwrap();
        }
        let data = Arc::new(ds);
        let scan = LinearScan::new(data.clone());
        let tree = KdTree::build(data.clone());
        let grid = GridIndex::build(data);
        for norm in [Norm::L1, Norm::L2, Norm::LInf, Norm::Lp(3.0)] {
            let (mut s, mut t, mut g) = (Vec::new(), Vec::new(), Vec::new());
            scan.query_ball(&c, r, norm, &mut s);
            tree.query_ball(&c, r, norm, &mut t);
            grid.query_ball(&c, r, norm, &mut g);
            prop_assert_eq!(&s, &sorted(t), "kd-tree vs scan, {:?} r {}", norm, r);
            prop_assert_eq!(&s, &sorted(g), "grid vs scan, {:?} r {}", norm, r);
            prop_assert_eq!(tree.count_ball(&c, r, norm), s.len());
        }
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
        tree.query_ball(&c, r1, Norm::L2, &mut small);
        tree.query_ball(&c, r1 + extra, Norm::L2, &mut big);
        let big_set: std::collections::HashSet<usize> = big.into_iter().collect();
        for id in small {
            prop_assert!(big_set.contains(&id));
        }
    }
}
