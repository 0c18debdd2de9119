//! Property tests: the kd-tree implements the same selection semantics as
//! the linear scan, for random data, centers and *every* radius —
//! negative, zero, `NaN` and infinite included — and its tree-shaped
//! `Σu` is the textbook tree's under hostile targets.

mod textbook;

use proptest::prelude::*;
use regq_data::Dataset;
use regq_linalg::{vector, GramAccumulator, OnlineStats};
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

/// Mostly finite coordinates, with NaN (either sign), ±∞ and −0.0 mixed
/// in: five draws in `one_in` are hostile.
fn hostile_coordinate(one_in: u32) -> impl Strategy<Value = f64> {
    (0..one_in, -1.0..1.0f64).prop_map(|(kind, finite)| match kind {
        0 => f64::NAN,
        1 => -f64::NAN,
        2 => f64::INFINITY,
        3 => f64::NEG_INFINITY,
        4 => -0.0,
        _ => finite,
    })
}

/// Columns of the big hostile tables below.
const BIG_DIM: usize = 3;

/// A table deep enough for whole subtrees to lie inside a ball (the
/// 200-row tables of `dataset_strategy` almost never have one), with a
/// hostile coordinate in about one row in twenty: enough cells without a
/// NaN side for the admission shortcut to fire, enough with one for it to
/// have something to get wrong.
fn big_hostile_table() -> impl Strategy<Value = Dataset> {
    let row = prop::collection::vec(hostile_coordinate(320), BIG_DIM);
    prop::collection::vec(row, 500..=5_000).prop_map(|rows| {
        let mut ds = Dataset::new(BIG_DIM);
        for (i, r) in rows.iter().enumerate() {
            ds.push(r, (i as f64).sin()).unwrap();
        }
        ds
    })
}

/// The targets a sum can go wrong on: NaN of either sign, ±∞ (whose
/// meeting is a NaN), `−0.0` (which only `−0.0` leaves alone) and ±1e300
/// (whose partial sums are far from their neighbours' scale).
const HOSTILE_TARGETS: [f64; 7] = [
    f64::NAN,
    -f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    -0.0,
    1e300,
    -1e300,
];

/// [`radius_strategy`], or a radius wide enough to hold whole subtrees
/// of a table in `[−1, 1]^d` — up to the whole table.
fn wide_radius_strategy() -> impl Strategy<Value = f64> {
    (any::<bool>(), radius_strategy(1.5), 0.3..4.0f64)
        .prop_map(|(wide, r, w)| if wide { w } else { r })
}

fn sorted(mut v: Vec<usize>) -> Vec<usize> {
    v.sort_unstable();
    v
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The bits of `x`, every NaN as one: Rust leaves the sign and payload of
/// an arithmetic NaN unspecified (with two NaN operands, which one an
/// addition returns is the code generator's choice), so only NaN-ness is
/// an answer.
fn value_bits(x: f64) -> u64 {
    if x.is_nan() {
        f64::NAN.to_bits()
    } else {
        x.to_bits()
    }
}

/// The visitor, the materialized selection and the count of one access
/// path name the same rows, and the visitor's row is the dataset's.
fn check_visit_equals_query(
    index: &impl SpatialIndex,
    c: &[f64],
    r: f64,
) -> Result<(), TestCaseError> {
    let data = index.dataset();
    let mut visited = Vec::new();
    let mut rows_match = true;
    index.visit_ball(c, r, |id, x, y| {
        rows_match &= x == data.x(id) && y == data.y(id);
        visited.push(id);
    });
    prop_assert!(rows_match, "visitor row mismatch on {}", index.kind());
    let mut ids = Vec::new();
    index.query_ball(c, r, &mut ids);
    prop_assert_eq!(&visited, &ids, "visit vs query on {}", index.kind());
    prop_assert_eq!(index.count_ball(c, r), ids.len());
    let mut targets = Vec::new();
    index.visit_targets(c, r, |u| targets.push(u));
    let want: Vec<f64> = ids.iter().map(|&i| data.y(i)).collect();
    prop_assert_eq!(bits(&targets), bits(&want), "targets on {}", index.kind());
    Ok(())
}

/// Scan ≡ kd-tree on one ball: the same row set, the same count, and the
/// tree's folds — through the row visitor and the target-only one —
/// carrying the bits of the same folds over the dataset in the tree's
/// visiting order.
fn check_tree_against_scan(
    tree: &KdTree,
    scan: &LinearScan,
    c: &[f64],
    r: f64,
) -> Result<(), TestCaseError> {
    let data = tree.dataset();
    let (mut got, mut want) = (Vec::new(), Vec::new());
    tree.query_ball(c, r, &mut got);
    scan.query_ball(c, r, &mut want);
    prop_assert_eq!(&sorted(got.clone()), &want, "kd-tree vs scan, r {}", r);
    prop_assert_eq!(tree.count_ball(c, r), want.len());

    let fold = |s: &mut (GramAccumulator, OnlineStats), x: &[f64], u: f64| {
        s.0.push_affine(x, u);
        s.1.push(u);
    };
    let state = || (GramAccumulator::new(data.dim() + 1), OnlineStats::new());
    let mut folded = state();
    tree.visit_ball(c, r, |_, x, u| fold(&mut folded, x, u));
    let mut from_data = state();
    for &id in &got {
        fold(&mut from_data, data.x(id), data.y(id));
    }
    let state_bits = |s: &(GramAccumulator, OnlineStats)| {
        let mut out = vec![s.1.count(), s.1.mean().to_bits(), s.1.variance().to_bits()];
        out.extend(bits(s.0.xty()));
        out.extend(bits(s.0.xtx()));
        out
    };
    prop_assert_eq!(state_bits(&folded), state_bits(&from_data), "fold, r {}", r);
    let mut stats = OnlineStats::new();
    tree.visit_targets(c, r, |u| stats.push(u));
    prop_assert_eq!(
        (
            stats.count(),
            stats.mean().to_bits(),
            stats.variance().to_bits()
        ),
        (
            from_data.1.count(),
            from_data.1.mean().to_bits(),
            from_data.1.variance().to_bits()
        ),
        "target fold, r {}",
        r
    );
    Ok(())
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
    fn visit_ball_equals_query_ball_on_every_path(ds in dataset_strategy(3),
                                                 c in prop::collection::vec(-1.5..1.5f64, 3),
                                                 r in radius_strategy(1.5)) {
        let data = Arc::new(ds);
        check_visit_equals_query(&LinearScan::new(data.clone()), &c, r)?;
        check_visit_equals_query(&KdTree::build(data), &c, r)?;
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
        rows in prop::collection::vec(prop::collection::vec(hostile_coordinate(16), 3), 0..120),
        c in prop::collection::vec(hostile_coordinate(16), 3),
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

    /// The two cell bounds under hostile input: big tables with NaN, ±∞
    /// and −0.0 coordinates, centres with NaN and ±∞ ones, every radius of
    /// `radius_strategy` and radii that hold whole subtrees. A subtree
    /// skipped or admitted on its cell alone must be one the per-row test
    /// would have skipped or admitted row by row.
    #[test]
    fn cell_bounds_agree_with_the_scan_on_hostile_tables(
        ds in big_hostile_table(),
        c in prop::collection::vec(hostile_coordinate(16), BIG_DIM),
        aimed in prop::collection::vec(-1.0..1.0f64, BIG_DIM),
        r in wide_radius_strategy(),
    ) {
        let data = Arc::new(ds);
        let scan = LinearScan::new(data.clone());
        let tree = KdTree::build(data);
        // A hostile centre (a NaN or same-signed ∞ coordinate empties the
        // ball), and a finite one the wide radii hold subtrees around.
        check_tree_against_scan(&tree, &scan, &c, r)?;
        check_tree_against_scan(&tree, &scan, &aimed, r)?;
    }

    /// An infinite ball around a finite centre admits every row without a
    /// NaN coordinate — rows at ±∞ included — and no other; a NaN
    /// coordinate in the centre admits nothing at any radius.
    #[test]
    fn infinite_ball_and_nan_centre_on_hostile_tables(
        ds in big_hostile_table(),
        c in prop::collection::vec(-1.0..1.0f64, BIG_DIM),
        nan_at in 0..BIG_DIM,
        r in wide_radius_strategy(),
    ) {
        let data = Arc::new(ds);
        let scan = LinearScan::new(data.clone());
        let tree = KdTree::build(data.clone());
        let no_nan: Vec<usize> = (0..data.len())
            .filter(|&i| data.x(i).iter().all(|x| !x.is_nan()))
            .collect();
        let mut got = Vec::new();
        tree.query_ball(&c, f64::INFINITY, &mut got);
        prop_assert_eq!(sorted(got), no_nan);
        check_tree_against_scan(&tree, &scan, &c, f64::INFINITY)?;

        let mut c = c;
        c[nan_at] = f64::NAN;
        for r in [r, f64::INFINITY] {
            prop_assert_eq!(tree.count_ball(&c, r), 0);
            check_tree_against_scan(&tree, &scan, &c, r)?;
        }
    }

    /// NaN split keys: with most rows NaN in one column, the median of
    /// that column is NaN from the root down. A NaN side proves nothing
    /// about a cell — nothing behind it may be skipped, nothing admitted
    /// untested.
    #[test]
    fn nan_split_keys_neither_prune_nor_admit(
        rows in prop::collection::vec(
            (any::<bool>(), 0..8u32, prop::collection::vec(-1.0..1.0f64, 2)),
            500..=2_000,
        ),
        c in prop::collection::vec(-1.0..1.0f64, 2),
        r in wide_radius_strategy(),
    ) {
        let mut ds = Dataset::new(2);
        for (i, (negative, kind, row)) in rows.iter().enumerate() {
            let nan = if *negative { -f64::NAN } else { f64::NAN };
            let x0 = if *kind < 5 { nan } else { row[0] };
            ds.push(&[x0, row[1]], i as f64).unwrap();
        }
        let data = Arc::new(ds);
        let scan = LinearScan::new(data.clone());
        let tree = KdTree::build(data);
        check_tree_against_scan(&tree, &scan, &c, r)?;
        check_tree_against_scan(&tree, &scan, &c, f64::INFINITY)?;
    }

    /// `AVG`'s tree-shaped `Σu` under hostile targets: in about one row
    /// in a thousand, ten, a hundred or all of them, `u` is NaN, ±∞,
    /// `−0.0` or ±1e300. Through admitted subtrees (the wide radii, an
    /// infinite one) and tested masks alike, `(n, Σu)` carries the bits
    /// of the textbook tree's own tree-shaped sum ([`value_bits`]: a NaN's
    /// sign and payload are not the program's); against the serial sum
    /// over the same rows it is NaN exactly when that is, infinite exactly
    /// when that is (with its sign), and otherwise within both sums'
    /// rounding bounds of it.
    #[test]
    fn tree_sum_is_its_definition_on_hostile_targets(
        rows in prop::collection::vec(
            (prop::collection::vec(-1.0..1.0f64, BIG_DIM), 0..1_000u32, 0..7usize, -5.0..5.0f64),
            500..=5_000,
        ),
        rarity in 0..4u32,
        c in prop::collection::vec(-1.0..1.0f64, BIG_DIM),
        r in wide_radius_strategy(),
    ) {
        let hostile_below = 10u32.pow(rarity);
        let mut ds = Dataset::new(BIG_DIM);
        for (x, draw, kind, finite) in &rows {
            let u = if *draw < hostile_below { HOSTILE_TARGETS[*kind] } else { *finite };
            ds.push(x, u).unwrap();
        }
        let data = Arc::new(ds);
        let tree = KdTree::build(data.clone());
        let scan = LinearScan::new(data.clone());
        let reference = textbook::build(&data);
        // Rounds a row's term may go through: within a mask, then one per
        // level above it (docs/INVARIANTS.md, "kd-tree leaf kernel").
        let depth = (data.len() as f64 / 64.0).log2().ceil().max(0.0);
        for r in [r, f64::INFINITY] {
            let (n, sum) = tree.sum_targets(&c, r);
            let (want_n, want) = textbook::sum_targets(&reference, &data, &c, r);
            prop_assert_eq!((n, value_bits(sum)), (want_n, value_bits(want)), "r {}", r);

            let (scan_n, serial) = scan.sum_targets(&c, r);
            prop_assert_eq!(n, scan_n);
            prop_assert_eq!(sum.is_nan(), serial.is_nan(), "{} vs serial {}", sum, serial);
            prop_assert_eq!(sum.is_infinite(), serial.is_infinite());
            if sum.is_infinite() {
                prop_assert_eq!(sum, serial);
            } else if !sum.is_nan() {
                let mut abs = 0.0;
                scan.visit_targets(&c, r, |u| abs += u.abs());
                let rounds = 63.0 + depth + n as f64 - 1.0;
                let bound = 1.01 * rounds * f64::EPSILON * abs;
                prop_assert!((sum - serial).abs() <= bound, "{} vs serial {}", sum, serial);
            }
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
        tree.query_ball(&c, r1, &mut small);
        tree.query_ball(&c, r1 + extra, &mut big);
        let big_set: std::collections::HashSet<usize> = big.into_iter().collect();
        for id in small {
            prop_assert!(big_set.contains(&id));
        }
    }
}
