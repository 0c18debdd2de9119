//! `d = 64` end to end: one statement's ball through every aggregate ×
//! `EXACT` / `MODEL` / `AUTO`, SQL text in → answer out, over a kd-tree
//! table with a model of more than one layout block and a moments model.
//! Every answer is checked against the component below the session that
//! defines it (exact engine, scalar model oracle, a `Scan` relation for
//! `COUNT(*)`), so a width the 2-d fixtures never reach cannot be
//! silently truncated anywhere between the parser and the kernels. A twin
//! session takes every statement through `parse` + `execute_statement`
//! and must answer (and count) exactly as the text door does.

use rand::RngExt;
use regq_core::moments::{MomentPair, MomentsModel};
use regq_core::{LlmModel, ModelConfig, Query};
use regq_data::rng::seeded;
use regq_data::Dataset;
use regq_exact::ExactEngine;
use regq_serve::{Route, RoutePolicy};
use regq_sql::{parse, QueryOutput, QueryValue, Session};
use regq_store::{AccessPathKind, Relation};
use std::sync::Arc;

const D: usize = 64;

/// `text` through `s.execute` and through `twin.execute_statement` of its
/// public parse: the same output bit for bit, the same counters after.
fn both(s: &Session, twin: &Session, text: &str) -> QueryOutput {
    let out = s.execute(text);
    let want = twin.execute_statement(&parse(text).unwrap());
    assert_eq!(format!("{out:?}"), format!("{want:?}"), "{text}");
    let stats = |s: &Session| s.router("wide").unwrap().stats();
    assert_eq!(stats(s), stats(twin), "{text}");
    out.unwrap()
}

#[test]
fn a_64_dimensional_ball_runs_through_every_aggregate_and_mode() {
    let mut rng = seeded(64);
    let mut ds = Dataset::with_capacity(D, 4_000);
    for _ in 0..4_000 {
        let x: Vec<f64> = (0..D).map(|_| rng.random_range(0.0..1.0)).collect();
        let u = x[0] + 0.5 * x[D - 1] + 0.1 * (6.0 * x[7]).sin();
        ds.push(&x, u).unwrap();
    }
    let data = Arc::new(ds);
    let engine = ExactEngine::new(Arc::clone(&data), AccessPathKind::KdTree);

    // Balls around the cube's middle, wide enough to select most rows
    // (uniform points sit ≈ 2.3 from it). A tight vigilance makes nearly
    // every training query its own prototype: K > 64 rows, so the serving
    // layout has several blocks and pruning has something to decide.
    let ball = |rng: &mut _| {
        let jitter = |rng: &mut rand::rngs::StdRng| 0.5 + rng.random_range(-0.2..0.2);
        let c: Vec<f64> = (0..D).map(|_| jitter(rng)).collect();
        (c, rng.random_range(2.3..2.7))
    };
    let cfg = ModelConfig::with_vigilance(D, 0.05);
    let mut model = LlmModel::new(cfg.clone()).unwrap();
    let mut moments = MomentsModel::new(cfg).unwrap();
    for _ in 0..400 {
        let (c, r) = ball(&mut rng);
        let mo = engine.q1_moments(&c, r).expect("the ball selects rows");
        let q = Query::new_unchecked(c, r);
        model.train_step(&q, mo.mean).unwrap();
        let pair = MomentPair {
            mean: mo.mean,
            variance: mo.variance,
        };
        moments.train_step(&q, pair).unwrap();
    }
    assert!(
        model.snapshot().layout().num_blocks() > 1,
        "K = {}",
        model.k()
    );
    assert!(moments.second_head().snapshot().layout().num_blocks() > 1);

    // The statement's ball: a trained prototype's own subspace.
    let p = &model.prototypes()[model.k() / 2];
    let (c, r) = (p.center.clone(), p.radius);
    let q = Query::new_unchecked(c.clone(), r);
    let components: Vec<String> = c.iter().map(|v| format!("{v:?}")).collect();
    let sql = |aggregate: &str, mode: &str| {
        format!(
            "SELECT {aggregate} FROM wide WHERE DIST(x, [{}]) <= {r:?} USING {mode};",
            components.join(", ")
        )
    };

    let truth = engine.q1_moments(&c, r).unwrap();
    let rows = Relation::new(Arc::clone(&data), AccessPathKind::Scan).count(&c, r);
    assert!(
        rows > D + 1,
        "OLS needs more rows than coefficients: {rows}"
    );
    assert_eq!(truth.n, rows);
    let exact = |aggregate: &str| match aggregate {
        "AVG(u)" => QueryValue::Scalar(engine.q1(&c, r).unwrap()),
        "VAR(u)" => QueryValue::Scalar(truth.variance),
        _ => {
            let fit = engine.q1_reg_fused(&c, r).unwrap().model;
            assert_eq!(fit.slope.len(), D);
            QueryValue::Regression(vec![regq_core::LocalModel {
                intercept: fit.intercept,
                slope: fit.slope.into(),
                prototype: 0,
                weight: 1.0,
                center: c.clone().into(),
                radius: r,
            }])
        }
    };
    let served = |aggregate: &str| match aggregate {
        "AVG(u)" => QueryValue::Scalar(model.predict_q1(&q).unwrap()),
        "VAR(u)" => QueryValue::Scalar(moments.second_head().predict_q1(&q).unwrap().max(0.0)),
        _ => QueryValue::Regression(model.predict_q2(&q).unwrap()),
    };

    // Feedback off: the oracles above stay the served parameters. The
    // threshold decides `AUTO`: 0 always serves the model, 2 never does
    // (scores live in [0, 1]).
    let session = |confidence_threshold: f64| {
        let policy = RoutePolicy {
            confidence_threshold,
            feedback: false,
            ..RoutePolicy::default()
        };
        let engine = ExactEngine::new(Arc::clone(&data), AccessPathKind::KdTree);
        let mut s = Session::new();
        s.register_table_with_policy("wide", engine, policy);
        s.register_model("wide", model.clone()).unwrap();
        s.register_moments_model("wide", moments.clone()).unwrap();
        s
    };

    for (threshold, auto_route) in [(0.0, Route::Model), (2.0, Route::Exact)] {
        let (s, twin) = (session(threshold), session(threshold));
        let stats = || s.router("wide").unwrap().stats();
        for aggregate in ["AVG(u)", "LINREG(u)", "VAR(u)"] {
            let out = both(&s, &twin, &sql(aggregate, "EXACT"));
            assert_eq!((out.route, out.confidence), (Route::Exact, None));
            assert_eq!(out.value, exact(aggregate), "{aggregate} EXACT");

            let screened = stats().blocks_screened;
            let out = both(&s, &twin, &sql(aggregate, "MODEL"));
            assert_eq!(out.route, Route::Model);
            assert_eq!(out.value, served(aggregate), "{aggregate} MODEL");
            assert_eq!(out.snapshot_version, Some(model.steps()));
            assert!(
                stats().blocks_screened > screened,
                "{aggregate} takes the pruned resolver"
            );

            let auto = both(&s, &twin, &sql(aggregate, "AUTO"));
            assert_eq!(auto.route, auto_route, "{aggregate} at {threshold}");
            assert_eq!(auto.confidence, out.confidence, "{aggregate}: one score");
            let want = match auto_route {
                Route::Model => served(aggregate),
                _ => exact(aggregate),
            };
            assert_eq!(auto.value, want, "{aggregate} AUTO at {threshold}");
        }
        for mode in ["EXACT", "MODEL", "AUTO"] {
            let out = both(&s, &twin, &sql("COUNT(*)", mode));
            assert_eq!((out.count(), out.route), (Some(rows), Route::Exact));
        }
    }
}
