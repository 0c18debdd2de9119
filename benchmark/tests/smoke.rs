//! Smoke tests: every workload at 1 % scale emits every named metric, the
//! program's own counters agree with what the harness saw, and the
//! waterfall closes. Not a measurement — numbers at this scale mean
//! nothing.

use regq_benchmark::bench::{self, Options, Trace};
use regq_benchmark::fixture::{self, Fixture};
use regq_benchmark::json::Json;
use regq_benchmark::spec::{Kind, WorkloadSpec, END_TO_END, PER_LAYER, WORKLOADS};
use regq_sql::Aggregate;
use std::path::PathBuf;
use std::sync::Mutex;

const SCALE: f64 = 0.01;
const SECONDS: f64 = 0.05;

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke")
}

/// The harness runs tests on parallel threads; the runs take turns, so that
/// the waterfall of one is not torn by four others on two cores.
static ONE_RUN_AT_A_TIME: Mutex<()> = Mutex::new(());

/// Run one workload with both metric sets and return its result object.
fn run(spec: &'static WorkloadSpec, seed: u64) -> Json {
    let _turn = ONE_RUN_AT_A_TIME
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let outcome = bench::run(&Options {
        workload: spec,
        seed,
        seconds: SECONDS,
        scale: SCALE,
        trace: Trace::Both,
        out_dir: out_dir(),
    });
    let report = outcome.lines.join("\n");
    assert_eq!(outcome.failed, 0, "{report}");
    let result = Json::parse(outcome.lines.last().expect("a result line")).expect("valid JSON");
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{report}");
    assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
    assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
    let keys: Vec<&str> = result
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    result
}

fn metric(result: &Json, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("metric {name} is missing"))
}

fn check(spec: &'static WorkloadSpec, seed: u64) {
    let result = run(spec, seed);
    let named = END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)));
    for (name, unit) in named {
        assert!(metric(&result, name).is_finite(), "{name} is not finite");
        let got = result
            .get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("unit"))
            .and_then(Json::as_str);
        assert_eq!(got, Some(unit), "unit of {name}");
    }
    for name in ["setup_s", "qps", "p50_us", "p99_us", "peak_rss_mb"] {
        assert!(metric(&result, name) > 0.0, "{name} must be positive");
    }

    // The router served exactly the AVG and LINREG statements that got an
    // answer; VAR and COUNT are session-level operators.
    let fx = Fixture::build(spec, SCALE);
    let budget = (SECONDS * spec.statements_per_second) as usize;
    let traffic = fixture::traffic(&fx, seed, SCALE, budget / bench::DRIFT_REPLICAS);
    let pool_routed = traffic
        .aggs
        .iter()
        .filter(|a| matches!(a, Aggregate::Avg | Aggregate::LinReg))
        .count() as f64;
    let sent = metric(&result, "sql.statements");
    // The drift workload's counters cover one replica of the stream; every
    // pool statement is AVG or LINREG, whichever pass it is sent in.
    let routed = if spec.kind == Kind::LiveDrift {
        pool_routed
    } else {
        sent
    };
    let served = metric(&result, "serve.model_served")
        + metric(&result, "serve.exact_served")
        + metric(&result, "serve.degraded_served");
    assert_eq!(
        served,
        routed - metric(&result, "sql.null_answers"),
        "{}: router served {served} of {routed} routed statements",
        spec.name
    );

    // Every (query, block) visit is either skipped or verified.
    let visits = metric(&result, "serve.blocks_skipped") + metric(&result, "serve.blocks_verified");
    assert!(metric(&result, "serve.blocks_screened") <= visits);
    if spec.kind == Kind::ScalarModel {
        let blocks = fx.model.snapshot().layout().num_blocks() as f64;
        assert_eq!(visits, sent * blocks, "{}: block visits", spec.name);
    }

    // Loose on purpose: the rest of the other tests still runs beside this
    // one, and a closure within 10 % is a property of a quiet full-scale run.
    let residual = metric(&result, "trace.residual_share");
    assert!(
        residual <= 0.5,
        "{}: the waterfall leaves {residual} unexplained",
        spec.name
    );
    assert!(out_dir().join(format!("trace-{}.json", spec.name)).exists());
}

#[test]
fn sql_model_smallk_emits_every_metric() {
    check(&WORKLOADS[0], 7);
}

#[test]
fn sql_model_largek_emits_every_metric() {
    check(&WORKLOADS[1], 7);
}

#[test]
fn sql_auto_batch_sharded_emits_every_metric() {
    check(&WORKLOADS[2], 7);
}

#[test]
fn sql_auto_live_drift_emits_every_metric() {
    check(&WORKLOADS[3], 7);
}

#[test]
fn a_second_seed_runs_clean_and_a_seed_repeats_exactly() {
    for spec in &WORKLOADS {
        let (a, b) = (run(spec, 11), run(spec, 11));
        let repeats = END_TO_END
            .iter()
            .filter(|m| m.exact)
            .map(|m| m.name)
            .chain(PER_LAYER.iter().filter(|m| m.exact).map(|m| m.name));
        for name in repeats {
            assert_eq!(
                metric(&a, name).to_bits(),
                metric(&b, name).to_bits(),
                "{}: {name} must repeat bit for bit for a seed",
                spec.name
            );
        }
    }
}
