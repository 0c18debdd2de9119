//! Property-based tests for the exact engines: OLS optimality, MARS
//! dominance over OLS, Q1 consistency, equivalence of the
//! aggregation-pushdown executors with the materialize-then-recompute
//! reference path across every access path, and of the batched `AVG`
//! (`ExactEngine::q1_batch`) with one `q1` per ball.

// The textbook kd-tree of the store's batteries: the specification the
// kd-tree's tree-shaped `Σu` is held to.
#[path = "../../store/tests/textbook/mod.rs"]
mod textbook;

use proptest::prelude::*;
use regq_data::Dataset;
use regq_exact::{
    fit_ols, fit_ols_ball, q1_mean, q1_moments, ExactEngine, GoodnessOfFit, LinearModel, Mars,
    MarsParams, Moments,
};
use regq_linalg::{lstsq, LinalgError, Matrix, OnlineStats};
use regq_store::{AccessPathKind, Relation};
use std::sync::Arc;

// The pre-pushdown execution shapes, kept here as the references the
// pushed-down executors are tested against: materialize the selection,
// then read the rows in a second pass.

/// Q1 over a materialized id list: the serial sum from `−0.0`, the
/// identity of addition, in visiting order.
fn q1_mean_materialized(rel: &Relation, center: &[f64], radius: f64) -> Option<f64> {
    rel.with_selection(center, radius, |ds, ids| {
        if ids.is_empty() {
            None
        } else {
            let sum = ids.iter().fold(-0.0, |sum, &i| sum + ds.y(i));
            Some(sum / ids.len() as f64)
        }
    })
}

/// Q1 moments over a materialized id list.
fn q1_moments_materialized(rel: &Relation, center: &[f64], radius: f64) -> Option<Moments> {
    rel.with_selection(center, radius, |ds, ids| {
        if ids.is_empty() {
            return None;
        }
        let mut acc = OnlineStats::new();
        let mut sum_sq = 0.0;
        for &i in ids {
            let u = ds.y(i);
            acc.push(u);
            sum_sq += u * u;
        }
        Some(Moments {
            n: ids.len(),
            mean: acc.mean(),
            variance: acc.variance(),
            second_moment: sum_sq / ids.len() as f64,
        })
    })
}

/// OLS through the full `n × (d+1)` design matrix and `lstsq` (what the
/// paper's PostgreSQL+XLeratorDB baseline does).
fn fit_ols_design(ds: &Dataset, ids: &[usize]) -> Result<LinearModel, LinalgError> {
    if ids.is_empty() {
        return Err(LinalgError::Empty);
    }
    let d = ds.dim();
    let n = ids.len();
    let mut design = Matrix::zeros(n, d + 1);
    let mut y = Vec::with_capacity(n);
    for (r, &i) in ids.iter().enumerate() {
        let row = design.row_mut(r);
        row[0] = 1.0;
        row[1..].copy_from_slice(ds.x(i));
        y.push(ds.y(i));
    }
    let sol = lstsq(&design, &y)?;
    let intercept = sol.coeffs[0];
    let slope = sol.coeffs[1..].to_vec();
    let predicted: Vec<f64> = ids
        .iter()
        .map(|&i| {
            let x = ds.x(i);
            let mut v = intercept;
            for (b, xi) in slope.iter().zip(x.iter()) {
                v += b * xi;
            }
            v
        })
        .collect();
    let fit = GoodnessOfFit::evaluate(&y, &predicted).expect("non-empty");
    Ok(LinearModel {
        intercept,
        slope,
        fit,
    })
}

#[test]
fn pushdown_and_materialized_q1_agree_exactly_on_a_known_line() {
    // Points at x = 0, 1, ..., 9 with u = 10x.
    let mut ds = Dataset::new(1);
    for i in 0..10 {
        ds.push(&[i as f64], 10.0 * i as f64).unwrap();
    }
    let rel = Relation::new(Arc::new(ds), AccessPathKind::Scan);
    for (c, r) in [(5.0, 1.5), (3.0, 0.0), (4.5, 100.0), (100.0, 0.5)] {
        assert_eq!(q1_mean(&rel, &[c], r), q1_mean_materialized(&rel, &[c], r));
        assert_eq!(
            q1_moments(&rel, &[c], r),
            q1_moments_materialized(&rel, &[c], r)
        );
    }
}

/// Random dataset: n rows, d dims, values bounded.
fn dataset_strategy(d: usize, min_rows: usize) -> impl Strategy<Value = Dataset> {
    prop::collection::vec(
        (prop::collection::vec(-5.0..5.0f64, d), -10.0..10.0f64),
        min_rows..(min_rows + 60),
    )
    .prop_map(move |rows| {
        let mut ds = Dataset::new(d);
        for (x, u) in &rows {
            ds.push(x, *u).unwrap();
        }
        ds
    })
}

fn all_ids(ds: &Dataset) -> Vec<usize> {
    (0..ds.len()).collect()
}

/// Random dataset with a non-trivial output surface (for Q1/OLS
/// equivalence; outputs must vary with x so regressions are meaningful).
fn surface_strategy(d: usize) -> impl Strategy<Value = Dataset> {
    prop::collection::vec(prop::collection::vec(-2.0..2.0f64, d), 1..150).prop_map(move |rows| {
        let mut ds = Dataset::new(d);
        for x in &rows {
            let u = x
                .iter()
                .enumerate()
                .map(|(i, v)| (i + 1) as f64 * v)
                .sum::<f64>()
                + 0.3 * x[0] * x[0];
            ds.push(x, u).unwrap();
        }
        ds
    })
}

const ALL_PATHS: [AccessPathKind; 2] = [AccessPathKind::Scan, AccessPathKind::KdTree];

/// Columns of the batch arm's tables.
const BATCH_DIM: usize = 3;

/// Batch sizes around one and around a 64-row mask, and a large one.
const BATCH_SIZES: [usize; 7] = [0, 1, 2, 63, 64, 65, 1_000];

/// Mostly finite values in `[−scale, scale)`, with NaN (either sign), ±∞
/// and −0.0 mixed in: five draws in `one_in` are hostile.
fn hostile(one_in: u32, scale: f64) -> impl Strategy<Value = f64> {
    (0..one_in, -1.0..1.0f64).prop_map(move |(kind, finite)| match kind {
        0 => f64::NAN,
        1 => -f64::NAN,
        2 => f64::INFINITY,
        3 => f64::NEG_INFINITY,
        4 => -0.0,
        _ => finite * scale,
    })
}

/// Ordinary radii up to wide enough to hold the whole table, with the
/// hostile ones mixed in: negative, ±0, NaN and +∞.
fn hostile_radius() -> impl Strategy<Value = f64> {
    (0..12u32, 0.0..4.0f64).prop_map(|(kind, r)| match kind {
        0 => -r,
        1 => 0.0,
        2 => -0.0,
        3 => f64::NAN,
        4 => f64::INFINITY,
        _ => r,
    })
}

/// An answer by its bits, every NaN as one: with two NaN operands, which
/// one an addition returns is the code generator's choice, so only
/// NaN-ness is an answer.
fn answer_bits(a: Option<f64>) -> Option<u64> {
    a.map(|x| if x.is_nan() { f64::NAN } else { x }.to_bits())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// OLS is the least-squares optimum: no coefficient perturbation can
    /// reduce the SSR.
    #[test]
    fn ols_is_least_squares_optimal(ds in dataset_strategy(2, 8),
                                    eps in -0.5..0.5f64) {
        let ids = all_ids(&ds);
        let Ok(model) = fit_ols(&ds, &ids) else { return Ok(()) };
        let ssr_of = |int: f64, s0: f64, s1: f64| -> f64 {
            ids.iter()
                .map(|&i| {
                    let x = ds.x(i);
                    let p = int + s0 * x[0] + s1 * x[1];
                    (ds.y(i) - p) * (ds.y(i) - p)
                })
                .sum()
        };
        let base = ssr_of(model.intercept, model.slope[0], model.slope[1]);
        prop_assert!(base <= ssr_of(model.intercept + eps, model.slope[0], model.slope[1]) + 1e-7);
        prop_assert!(base <= ssr_of(model.intercept, model.slope[0] + eps, model.slope[1]) + 1e-7);
        prop_assert!(base <= ssr_of(model.intercept, model.slope[0], model.slope[1] + eps) + 1e-7);
    }

    /// In-sample OLS FVU never exceeds 1 (the intercept-only model is in
    /// its hypothesis space).
    #[test]
    fn ols_fvu_is_at_most_one(ds in dataset_strategy(3, 10)) {
        let ids = all_ids(&ds);
        let Ok(model) = fit_ols(&ds, &ids) else { return Ok(()) };
        if model.fit.fvu.is_finite() {
            prop_assert!(model.fit.fvu <= 1.0 + 1e-6, "fvu = {}", model.fit.fvu);
        }
    }

    /// Pushed-down Q1 against the materialize-then-recompute path. Over
    /// the scan `AVG` is the serial sum, bit for bit; over the kd-tree it
    /// is tree-shaped — the textbook tree's sum bit for bit, the serial
    /// one within rounding. The moments fold row by row on both paths and
    /// stay bit-exact.
    #[test]
    fn pushdown_q1_equals_materialized(ds in surface_strategy(2),
                                       c in prop::collection::vec(-2.5..2.5f64, 2),
                                       r in 0.0..2.5f64) {
        let data = Arc::new(ds);
        let reference = textbook::build(&data);
        for path in ALL_PATHS {
            let rel = Relation::new(data.clone(), path);
            let (got, serial) = (q1_mean(&rel, &c, r), q1_mean_materialized(&rel, &c, r));
            if path == AccessPathKind::Scan {
                prop_assert_eq!(got.map(f64::to_bits), serial.map(f64::to_bits));
            } else {
                let (n, sum) = textbook::sum_targets(&reference, &data, &c, r);
                let tree_shaped = (n > 0).then(|| sum / n as f64);
                prop_assert_eq!(got.map(f64::to_bits), tree_shaped.map(f64::to_bits));
                prop_assert_eq!(got.is_some(), serial.is_some());
                if let (Some(got), Some(serial)) = (got, serial) {
                    let abs: f64 = rel.select(&c, r).iter().map(|&i| data.y(i).abs()).sum();
                    let bound = 1e-12 * (1.0 + abs) / n as f64;
                    prop_assert!((got - serial).abs() <= bound, "{} vs serial {}", got, serial);
                }
            }
            let moments = |m: Option<Moments>| m.map(|m| {
                (m.n, [m.mean, m.variance, m.second_moment].map(f64::to_bits))
            });
            prop_assert_eq!(
                moments(q1_moments(&rel, &c, r)),
                moments(q1_moments_materialized(&rel, &c, r)),
                "moments mismatch on {:?}", path
            );
        }
    }

    /// `q1_batch` answers every ball as `q1` does, bit for bit, on both
    /// access paths: tables with NaN, ±∞ and −0.0 in their rows and
    /// targets; hostile balls (NaN or ±∞ centre coordinates, radii
    /// negative, ±0, NaN or +∞); every size of [`BATCH_SIZES`], the balls
    /// drawn repeated cyclically, so every batch past the drawn count
    /// holds duplicates. A slot the batch never writes keeps a sentinel no
    /// answer has.
    #[test]
    fn batch_q1_equals_one_q1_per_ball(
        rows in prop::collection::vec(
            (prop::collection::vec(hostile(64, 2.0), BATCH_DIM), hostile(64, 10.0)),
            0..600,
        ),
        balls in prop::collection::vec(
            (prop::collection::vec(hostile(16, 2.5), BATCH_DIM), hostile_radius()),
            1..40,
        ),
    ) {
        let mut ds = Dataset::new(BATCH_DIM);
        for (x, u) in &rows {
            ds.push(x, *u).unwrap();
        }
        let data = Arc::new(ds);
        let sentinel = Some(f64::from_bits(1));
        for path in ALL_PATHS {
            let engine = ExactEngine::new(data.clone(), path);
            for size in BATCH_SIZES {
                let ball = |i: usize| &balls[i % balls.len()];
                let centres: Vec<f64> = (0..size).flat_map(|i| ball(i).0.clone()).collect();
                let radii: Vec<f64> = (0..size).map(|i| ball(i).1).collect();
                let mut out = vec![sentinel; size];
                engine.q1_batch(&centres, &radii, &mut out);
                for (i, got) in out.iter().enumerate() {
                    let (c, r) = ball(i);
                    prop_assert_eq!(
                        answer_bits(*got),
                        answer_bits(engine.q1(c, *r)),
                        "{:?} batch of {}, ball {}: {:?} r {}", path, size, i, c, r
                    );
                }
            }
        }
    }

    /// The fused in-scan OLS matches the reference pipeline (materialized
    /// selection + design matrix + lstsq) up to numerical tolerance, on
    /// every access path, whenever the reference succeeds.
    #[test]
    fn pushdown_ols_equals_materialized(ds in surface_strategy(3),
                                        c in prop::collection::vec(-2.5..2.5f64, 3),
                                        r in 0.5..3.0f64) {
        let data = Arc::new(ds);
        for path in ALL_PATHS {
            let rel = Relation::new(data.clone(), path);
            let ids = rel.select(&c, r);
            let Ok(reference) = fit_ols_design(rel.dataset(), &ids) else { continue };
            // Skip numerically fragile selections: coefficient comparisons
            // only make sense when the design is well-conditioned enough
            // that both solvers sit on the same optimum.
            if reference.fit.tss < 1e-6 { continue }
            let fused = fit_ols_ball(&rel, &c, r);
            prop_assert!(fused.is_ok(), "fused failed where reference fit on {:?}", path);
            let fused = fused.unwrap();
            prop_assert_eq!(fused.moments.n, ids.len());
            let scale = 1.0 + reference.intercept.abs();
            prop_assert!(
                (fused.model.intercept - reference.intercept).abs() < 1e-5 * scale,
                "intercept {} vs {} on {:?}",
                fused.model.intercept, reference.intercept, path
            );
            for (a, b) in fused.model.slope.iter().zip(reference.slope.iter()) {
                let scale = 1.0 + b.abs();
                prop_assert!(
                    (a - b).abs() < 1e-5 * scale,
                    "slope {} vs {} on {:?}", a, b, path
                );
            }
        }
    }

    /// The gram-based `fit_ols` agrees with the design-matrix reference on
    /// the same id set.
    #[test]
    fn gram_fit_ols_equals_design_path(ds in surface_strategy(2)) {
        let ids = all_ids(&ds);
        let (Ok(gram), Ok(design)) = (fit_ols(&ds, &ids), fit_ols_design(&ds, &ids)) else {
            return Ok(());
        };
        if design.fit.tss < 1e-6 { return Ok(()); }
        prop_assert!((gram.intercept - design.intercept).abs() < 1e-6 * (1.0 + design.intercept.abs()));
        for (a, b) in gram.slope.iter().zip(design.slope.iter()) {
            prop_assert!((a - b).abs() < 1e-6 * (1.0 + b.abs()), "{} vs {}", a, b);
        }
        prop_assert!((gram.fit.fvu - design.fit.fvu).abs() < 1e-6);
    }

    /// MARS never fits worse in-sample than the intercept-only model (the
    /// intercept basis is always kept), i.e. FVU ≤ 1. Note MARS does *not*
    /// always dominate OLS: even at `gcv_penalty = 0` the GCV denominator
    /// `(1 − M/n)²` rewards dropping terms, so the backward pass may prune
    /// hinge pairs an OLS fit would have used.
    #[test]
    fn mars_dominates_intercept_in_sample(ds in dataset_strategy(1, 20)) {
        let ids = all_ids(&ds);
        let params = MarsParams {
            max_terms: 9,
            max_knots_per_dim: 8,
            gcv_penalty: 0.0,
            ..Default::default()
        };
        let Ok(mars) = Mars::fit(&ds, &ids, params) else { return Ok(()) };
        prop_assert!(
            mars.fit.ssr <= mars.fit.tss * (1.0 + 1e-9) + 1e-9,
            "mars ssr {} vs tss {}",
            mars.fit.ssr,
            mars.fit.tss
        );
    }

    /// MARS predictions are finite everywhere in (and around) the domain.
    #[test]
    fn mars_predicts_finite(ds in dataset_strategy(2, 15),
                            probe in prop::collection::vec(-6.0..6.0f64, 2)) {
        let ids = all_ids(&ds);
        let Ok(m) = Mars::fit(&ds, &ids, MarsParams {
            max_terms: 7,
            max_knots_per_dim: 6,
            ..Default::default()
        }) else { return Ok(()) };
        prop_assert!(m.predict(&probe).is_finite());
    }

    /// Goodness-of-fit identities: SSR, TSS ≥ 0 and CoD = 1 − FVU.
    #[test]
    fn gof_identities(actual in prop::collection::vec(-10.0..10.0f64, 2..40),
                      noise in prop::collection::vec(-1.0..1.0f64, 2..40)) {
        let n = actual.len().min(noise.len());
        let pred: Vec<f64> = actual[..n]
            .iter()
            .zip(noise[..n].iter())
            .map(|(a, e)| a + e)
            .collect();
        let g = GoodnessOfFit::evaluate(&actual[..n], &pred).unwrap();
        prop_assert!(g.ssr >= 0.0);
        prop_assert!(g.tss >= 0.0);
        if g.fvu.is_finite() {
            prop_assert!((g.cod - (1.0 - g.fvu)).abs() < 1e-12);
        }
    }

    /// The backward pass never yields more basis functions than the
    /// forward cap.
    #[test]
    fn mars_respects_term_cap(ds in dataset_strategy(1, 25), cap in 3usize..15) {
        let ids = all_ids(&ds);
        let Ok(m) = Mars::fit(&ds, &ids, MarsParams {
            max_terms: cap,
            max_knots_per_dim: 8,
            ..Default::default()
        }) else { return Ok(()) };
        prop_assert!(m.n_basis() <= cap);
    }
}
