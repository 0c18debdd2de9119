//! The kd-tree's leaf storage is a private copy of the rows in visiting
//! order, tested up to sixty-four rows at a time by a SIMD mask kernel;
//! its traversal skips a subtree whose cell lies outside the ball and
//! hands on, untested, one whose cell lies inside. This battery pins that
//! none of it is observable: the tree must behave **bit for bit** like
//! the textbook tree that keeps nothing but a permuted id array, prunes
//! on the splitting plane alone and asks `norms::within` about
//! `dataset.x(id)`, one row at a time.
//!
//! The reference is that textbook tree (`textbook/mod.rs`), rebuilt from
//! the documented shape. It is the specification and does not follow the
//! production traversal's changes. Agreement on the **unsorted** id
//! sequence pins the depth-first visiting order — the contract the
//! row-order folds (moments, the OLS Gram state) rest on — together with
//! subtrees that start at every lane offset of a quad, the padded last
//! quad, the inclusive boundary, and (the two large sizes, whose balls
//! hold a thousand rows and more) whole subtrees admitted without a
//! distance test between ones tested a mask at a time.
//!
//! `AVG`'s `Σu` is tree-shaped instead: the textbook tree computes it by
//! its own recursion — one `norms::within` per row, the mask-granularity
//! rule restated — and the production tree's `(n, Σu)`, cached sums of
//! admitted subtrees included, must carry its bits. Beside the aimed
//! balls every table gets one that holds all of it (the root admitted)
//! and one that holds nothing.
//!
//! Failures print `REGQ_PROPTEST_SEED=<seed>`; re-run with that variable
//! set to reproduce the exact case.

mod textbook;

use proptest::prelude::*;
use rand::RngExt;
use regq_data::rng::{seeded, SeededRng};
use regq_data::Dataset;
use regq_linalg::{vector, GramAccumulator, OnlineStats};
use regq_store::{KdTree, SpatialIndex};
use std::sync::Arc;
use textbook::walk_reference;

// 35 and 77 split into leaves that start at lanes 1, 2 and 3 of a quad
// (17 and 33 only ever produce lane-0 starts); 1 000 has every offset.
const SIZES: [usize; 12] = [0, 1, 3, 4, 5, 15, 16, 17, 33, 35, 77, 1_000];
const DIMS: [usize; 8] = [1, 2, 3, 4, 8, 16, 17, 32];
/// Tables deep enough for cells inside a ball, at the dimensions the
/// benchmark's tables have; every ball over them holds at least
/// `LARGE_BALL_ROWS` rows.
const LARGE_SIZES: [usize; 2] = [4_096, 20_000];
const LARGE_DIMS: [usize; 2] = [2, 4];
const LARGE_BALL_ROWS: usize = 1_000;
/// Probes per dataset: three aimed at stored rows then one random ball,
/// four times over.
const PROBES: usize = 16;

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The three fold states the exact engines ride on the traversal.
struct Folds {
    sum: f64,
    stats: OnlineStats,
    gram: GramAccumulator,
}

impl Folds {
    fn new(d: usize) -> Self {
        Folds {
            sum: 0.0,
            stats: OnlineStats::new(),
            gram: GramAccumulator::new(d + 1),
        }
    }

    fn push(&mut self, x: &[f64], u: f64) {
        self.sum += u;
        self.stats.push(u);
        self.gram.push_affine(x, u);
    }

    fn to_bits(&self) -> Vec<u64> {
        let mut out = vec![self.stats.count()];
        out.extend(bits(&[
            self.sum,
            self.stats.mean(),
            self.stats.variance(),
            self.gram.sum_y(),
            self.gram.yty(),
        ]));
        out.extend(bits(self.gram.xty()));
        out.extend(bits(self.gram.gram_matrix().as_slice()));
        out
    }
}

/// One table of `n` rows in `d` columns, [`PROBES`] balls over it, then
/// one holding the whole table and one holding nothing. With `large`,
/// every aimed ball is centred on a stored row and reaches exactly to the
/// stored row of some rank `≥ LARGE_BALL_ROWS` in distance from it.
fn check_table(rng: &mut SeededRng, n: usize, d: usize, large: bool) -> Result<(), TestCaseError> {
    let mut ds = Dataset::new(d);
    for _ in 0..n {
        let x: Vec<f64> = (0..d).map(|_| rng.random_range(-1.0..1.0)).collect();
        ds.push(&x, rng.random_range(-5.0..5.0)).unwrap();
    }
    let data = Arc::new(ds);
    let tree = KdTree::build(data.clone());
    let reference = textbook::build(&data);

    for probe in 0..PROBES + 2 {
        // Balls centred on (or near) a stored row, with a radius that
        // puts another stored row exactly on the boundary — or a random
        // ball when there is no row to aim at. Last, a ball around the
        // whole table (every row lies in `[−1, 1]^d`) and an empty one.
        let (center, radius) = if probe == PROBES {
            (vec![0.0; d], 2.0 * (d as f64).sqrt())
        } else if probe == PROBES + 1 {
            (vec![3.0; d], 1.0)
        } else if large {
            let c = data.x(rng.random_range(0..n)).to_vec();
            let mut dists: Vec<f64> = (0..n).map(|i| vector::l2_dist(&c, data.x(i))).collect();
            let rank = rng.random_range(LARGE_BALL_ROWS..n);
            let (_, &mut r, _) = dists.select_nth_unstable_by(rank, f64::total_cmp);
            (c, r)
        } else if n == 0 || probe % 4 == 3 {
            let c: Vec<f64> = (0..d).map(|_| rng.random_range(-1.2..1.2)).collect();
            (c, rng.random_range(0.0..1.5) * (d as f64).sqrt())
        } else {
            let c = data.x(rng.random_range(0..n)).to_vec();
            let r = vector::l2_dist(&c, data.x(rng.random_range(0..n)));
            (c, r)
        };

        let mut want = Vec::new();
        walk_reference(&reference, &data, &center, radius, &mut want);
        prop_assert!(!large || probe >= PROBES || want.len() >= LARGE_BALL_ROWS);
        let expected_rows = [n, 0];
        prop_assert!(probe < PROBES || want.len() == expected_rows[probe - PROBES]);

        // (a) the same id sequence, unsorted.
        let mut got = Vec::new();
        tree.query_ball(&center, radius, &mut got);
        prop_assert_eq!(&got, &want, "n {} d {} r {}", n, d, radius);
        prop_assert_eq!(tree.count_ball(&center, radius), want.len());

        // (b) folds over the traversal carry the same bits as folds
        // over the dataset in reference order — through the row
        // visitor and through the target-only one.
        let folded = tree.fold_ball(&center, radius, Folds::new(d), |s, _, x, u| s.push(x, u));
        let mut from_data = Folds::new(d);
        for &id in &want {
            from_data.push(data.x(id), data.y(id));
        }
        prop_assert_eq!(
            folded.to_bits(),
            from_data.to_bits(),
            "n {} d {}: fold state",
            n,
            d
        );
        let (mut sum, mut stats) = (0.0, OnlineStats::new());
        tree.visit_targets(&center, radius, |u| {
            sum += u;
            stats.push(u);
        });
        prop_assert_eq!(
            (stats.count(), bits(&[sum, stats.mean(), stats.variance()])),
            (
                from_data.stats.count(),
                bits(&[
                    from_data.sum,
                    from_data.stats.mean(),
                    from_data.stats.variance()
                ])
            ),
            "n {} d {}: target fold state",
            n,
            d
        );

        // (c) the visitor's row is the dataset's row, bitwise.
        let mut rows_match = true;
        tree.visit_ball(&center, radius, |id, x, u| {
            rows_match &= bits(x) == bits(data.x(id));
            rows_match &= u.to_bits() == data.y(id).to_bits();
        });
        prop_assert!(rows_match, "n {} d {}: visitor row", n, d);

        // (d) `AVG`'s tree-shaped `(n, Σu)`: the textbook tree's bits.
        let (rows, sum) = tree.sum_targets(&center, radius);
        let (want_rows, want_sum) = textbook::sum_targets(&reference, &data, &center, radius);
        prop_assert_eq!(
            (rows, sum.to_bits()),
            (want_rows, want_sum.to_bits()),
            "n {} d {} r {}: tree-shaped sum",
            n,
            d,
            radius
        );
        prop_assert_eq!(rows, want.len());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn leaf_kernel_is_unobservable(seed in any::<u64>()) {
        let mut rng = seeded(seed);
        for n in SIZES {
            for d in DIMS {
                check_table(&mut rng, n, d, false)?;
            }
        }
        for n in LARGE_SIZES {
            for d in LARGE_DIMS {
                check_table(&mut rng, n, d, true)?;
            }
        }
    }
}
