//! What the SQL front door asks of the allocator, counted.
//!
//! Text in, answer out: [`Session::execute`] parses a statement, binds it
//! to its table and consults the table's snapshot. The parse
//! borrows its table name from the text and allocates the centre once, at
//! its final size (read in place up to 8 components, counted first
//! beyond); the bind moves that centre into the [`Query`]; the router
//! pins its cell's read state in place; the model path beneath allocates
//! only what the answer owns (`served_allocations` in `regq_core`). So,
//! once a thread is warm, for `d ∈ {2, 4, 8, 9, 64}`:
//!
//! * `AVG … USING MODEL`, `VAR … USING MODEL` and `COUNT(*)` make **one**
//!   allocator call: the centre (a `COUNT(*)` at `d = 64` one more, its
//!   kd-tree traversal's scratch past 32 columns);
//! * `LINREG … USING MODEL` makes **two**: the centre and the answer list
//!   (past `d = 8` also two per listed model, its slope and centre);
//! * beneath the session, [`ShardRouter::q1_model`] makes **none** and
//!   [`ShardRouter::q2_model`] **one** (its list);
//! * an exact answer on a model that learns adds **one** for its label,
//!   the query's copy on the feedback queue: at `d = 4`, `AVG` and `VAR`
//!   make two, `LINREG` eight (nine `USING AUTO`, which discards a model
//!   list), and [`ShardRouter::q1_exact`] one.
//!
//! Before the front door stopped allocating, the same warm calls cost 7
//! (`AVG`), 8 (`LINREG`) and 4 (`q1_model`) at one shard and `d ≤ 4`: the
//! parser's table `String` and centre `Vec`, the bind's copy of that
//! centre, three `Vec`s in the router's consultation and a `Box` each time
//! a thread-cached snapshot reader went back into its cache — one more at
//! `d = 8` (the centre `Vec` grew once). That is what this file would
//! report there.
//!
//! It is its own test binary because it installs a counting
//! `#[global_allocator]`; the count is per thread, so the harness running
//! tests side by side does not disturb it.

use rand::RngExt;
use regq_core::moments::{MomentPair, MomentsModel};
use regq_core::{LlmModel, ModelConfig, Query};
use regq_data::generators::GasSensorSurrogate;
use regq_data::rng::seeded;
use regq_data::{Dataset, SampleOptions};
use regq_exact::ExactEngine;
use regq_serve::{Route, RoutePolicy, ShardRouter};
use regq_sql::{QueryValue, Session};
use regq_store::AccessPathKind;
use std::sync::Arc;

#[path = "../../../tests/support/counting.rs"]
mod counting;
use counting::counted;

/// A `d`-dimensional table `t` with a trained model and moments model.
fn session(dim: usize) -> Session {
    let cfg = ModelConfig::with_vigilance(dim, 0.15);
    session_with(dim, RoutePolicy::default(), cfg)
}

/// [`session`] under `policy`, its models trained with `cfg`.
fn session_with(dim: usize, policy: RoutePolicy, cfg: ModelConfig) -> Session {
    let field = GasSensorSurrogate::new(dim, 5);
    let mut rng = seeded(dim as u64);
    let data = Dataset::from_function(&field, 4_000, SampleOptions::default(), &mut rng);
    let engine = ExactEngine::new(Arc::new(data), AccessPathKind::KdTree);
    let mut model = LlmModel::new(cfg.clone()).unwrap();
    let mut moments = MomentsModel::new(cfg).unwrap();
    let scale = (dim as f64).sqrt();
    for _ in 0..1_500 {
        let (c, r) = if dim <= 9 {
            let c: Vec<f64> = (0..dim).map(|_| rng.random_range(0.0..1.0)).collect();
            (c, scale * rng.random_range(0.1..0.25))
        } else {
            // Wide: uniform rows sit ≈ √(d/12) from the cube's middle and
            // further from anywhere else, so the balls that select rows
            // are wide ones around the middle (as in `high_dim.rs`).
            let c: Vec<f64> = (0..dim).map(|_| rng.random_range(0.3..0.7)).collect();
            (c, rng.random_range(1.1..1.3) * (dim as f64 / 12.0).sqrt())
        };
        if let Some(mo) = engine.q1_moments(&c, r) {
            let q = Query::new_unchecked(c, r);
            model.train_step(&q, mo.mean).unwrap();
            let pair = MomentPair {
                mean: mo.mean,
                variance: mo.variance,
            };
            moments.train_step(&q, pair).unwrap();
        }
    }
    assert!(model.k() > 1, "K = {}", model.k());
    let mut s = Session::new();
    s.register_table_with_policy("t", engine, policy);
    s.register_model("t", model).unwrap();
    s.register_moments_model("t", moments).unwrap();
    s
}

/// A ball in the middle of the data, a tight one, and one far outside
/// every prototype (winner fallback).
fn probes(dim: usize) -> [(Vec<f64>, f64); 3] {
    let scale = (dim as f64).sqrt();
    [
        (vec![0.5; dim], 0.2 * scale),
        (vec![0.3; dim], 0.01),
        (vec![9.0; dim], 0.05),
    ]
}

fn sql(aggregate: &str, (center, radius): &(Vec<f64>, f64), mode: &str) -> String {
    let center: Vec<String> = center.iter().map(|c| format!("{c:?}")).collect();
    format!(
        "SELECT {aggregate} FROM t WHERE DIST(x, [{}]) <= {radius:?} USING {mode};",
        center.join(", ")
    )
}

#[test]
fn a_warm_statement_allocates_its_centre_and_what_its_answer_owns() {
    // (aggregate, mode, allocator calls once warm)
    let statements = [
        ("AVG(u)", "MODEL", 1),
        ("VAR(u)", "MODEL", 1),
        ("COUNT(*)", "EXACT", 1),
        ("COUNT(*)", "MODEL", 1),
        ("LINREG(u)", "MODEL", 2),
    ];
    for dim in [2usize, 4, 8, 9, 64] {
        let s = session(dim);
        for pass in 0..3 {
            for probe in &probes(dim) {
                for (aggregate, mode, want) in statements {
                    let text = sql(aggregate, probe, mode);
                    let (out, calls) = counted(|| s.execute(&text));
                    let out = out.unwrap_or_else(|e| panic!("{text}: {e}"));
                    // Past `Coeffs`' inline width (d = 8) each listed model
                    // owns its slope and its centre buffers too; past 32
                    // columns the kd-tree traversal behind a `COUNT(*)`
                    // spills its box and bound terms to one `Vec`.
                    let want =
                        want + match &out.value {
                            QueryValue::Regression(list) if dim > 8 => 2 * list.len(),
                            _ => 0,
                        } + usize::from(aggregate == "COUNT(*)" && dim > 32);
                    assert!(
                        pass == 0 || calls == want,
                        "{calls} calls (want {want}) for {aggregate} USING {mode}, \
                         d {dim}, pass {pass}"
                    );
                }
            }
        }
    }
}

#[test]
fn beneath_the_session_the_router_allocates_only_the_answer() {
    let s = session(4);
    let router: &ShardRouter = s.router("t").unwrap();
    for pass in 0..3 {
        for (center, radius) in probes(4) {
            let q = Query::new(center, radius).unwrap();
            let (out, calls) = counted(|| router.q1_model(&q));
            out.unwrap();
            assert!(pass == 0 || calls == 0, "q1_model: {calls} calls");
            let (out, calls) = counted(|| router.q2_model(&q));
            assert!(!out.unwrap().value.is_empty());
            assert!(pass == 0 || calls == 1, "q2_model: {calls} calls");
        }
    }
}

/// Exact answers on a model that learns: each one's label is queued and
/// trained at once. Beyond the centre and what the exact
/// answer owns, a label costs one allocator call, its queued copy of the
/// query; the drain takes each example off the queue in place. `USING
/// AUTO` on a table whose threshold routes everything exact costs what
/// `USING EXACT` does, plus the discarded model list of a `LINREG`.
#[test]
fn a_warm_labelled_statement_allocates_its_centre_its_answer_and_its_queued_label() {
    // (aggregate, mode, allocator calls once warm)
    let statements = [
        ("AVG(u)", "EXACT", 2),
        ("VAR(u)", "EXACT", 2),
        ("LINREG(u)", "EXACT", 8),
        ("AVG(u)", "AUTO", 2),
        ("VAR(u)", "AUTO", 2),
        ("LINREG(u)", "AUTO", 9),
    ];
    // Balls with rows: every statement answers, with a label.
    let balls = [
        (vec![0.5; 4], 0.4),
        (vec![0.4; 4], 0.35),
        (vec![0.6; 4], 0.3),
    ];
    // Γ never falls to this γ, so the model never freezes: every label
    // is queued and trained.
    let learning = ModelConfig {
        gamma: 1e-300,
        ..ModelConfig::with_vigilance(4, 0.15)
    };
    let all_exact = RoutePolicy {
        confidence_threshold: 2.0,
    };
    let s = session_with(4, all_exact, learning);
    let router = s.router("t").unwrap();
    for pass in 0..3 {
        for ball in &balls {
            for (aggregate, mode, want) in statements {
                let text = sql(aggregate, ball, mode);
                let (out, calls) = counted(|| s.execute(&text));
                let out = out.unwrap_or_else(|e| panic!("{text}: {e}"));
                assert_eq!(out.route, Route::Exact, "{text}");
                assert!(
                    pass == 0 || calls == want,
                    "{calls} calls (want {want}) for {aggregate} USING {mode}, pass {pass}"
                );
            }
            let q = Query::new(ball.0.clone(), ball.1).unwrap();
            let (out, calls) = counted(|| router.q1_exact(&q));
            out.unwrap();
            assert!(pass == 0 || calls == 1, "q1_exact: {calls} calls");
        }
    }
    let stats = router.stats();
    assert_eq!(stats.feedback_declined + stats.feedback_dropped, 0);
    assert_eq!(stats.feedback_fed, stats.feedback_enqueued);
    assert_eq!(stats.feedback_fed, 3 * 3 * 7, "every label trained");
}
