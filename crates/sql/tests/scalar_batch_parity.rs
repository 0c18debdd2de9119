//! A script drops the labels its statements one by one would drop.
//!
//! Twin sessions serve one trainable table under the same `QueueOverflow`
//! schedule. One executes a script statement by statement
//! ([`Session::execute`]), the other as one [`Session::execute_batch`]
//! call. Every statement must get the same answer bits, route, confidence,
//! snapshot version and dropped-label flag, and the twins must end with
//! the same [`RouterStats`] and the same trainer, prototype for prototype
//! in arena order. (Without injected faults, `reference_interpreter.rs`
//! holds both doors to one reference.)
//!
//! The publish interval lies beyond every label a case feeds, so no
//! republish lands inside a run: a statement-at-a-time loop would see a
//! snapshot that the batch, which consults once, does not.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use regq_core::{LlmModel, ModelConfig, Query};
use regq_data::generators::GasSensorSurrogate;
use regq_data::rng::seeded;
use regq_data::{Dataset, SampleOptions};
use regq_exact::ExactEngine;
use regq_serve::{FaultKind, FaultPlan, RoutePolicy, RouterStats};
use regq_sql::{QueryOutput, Session};
use regq_store::AccessPathKind;
use std::sync::Arc;

const DIM: usize = 4;

/// A d = 4 table and a model trained on it that still learns.
fn table(vigilance: f64) -> (Arc<Dataset>, LlmModel) {
    let field = GasSensorSurrogate::new(DIM, 5);
    let mut rng = seeded(4);
    let data = Arc::new(Dataset::from_function(
        &field,
        4_000,
        SampleOptions::default(),
        &mut rng,
    ));
    let engine = ExactEngine::new(Arc::clone(&data), AccessPathKind::KdTree);
    let mut model = LlmModel::new(ModelConfig::with_vigilance(DIM, vigilance)).unwrap();
    for _ in 0..1_500 {
        let (c, r) = ball(&mut rng);
        if let Some(y) = engine.q1(&c, r) {
            model.train_step(&Query::new_unchecked(c, r), y).unwrap();
        }
    }
    model.unfreeze();
    (data, model)
}

fn ball(rng: &mut impl RngExt) -> (Vec<f64>, f64) {
    let c = (0..DIM).map(|_| rng.random_range(0.0..1.0)).collect();
    (c, 2.0 * rng.random_range(0.15..0.25))
}

/// Twin sessions over `data` and `model`, each with its own plan that
/// fires `QueueOverflow` at the `overflows` occurrences.
fn twins(
    (data, model): &(Arc<Dataset>, LlmModel),
    threshold: f64,
    overflows: &[u64],
) -> [Session; 2] {
    std::array::from_fn(|_| {
        let engine = ExactEngine::new(Arc::clone(data), AccessPathKind::KdTree);
        let policy = RoutePolicy {
            confidence_threshold: threshold,
            publish_interval: usize::MAX,
            ..RoutePolicy::default()
        };
        let mut s = Session::new();
        s.register_table_with_policy("t", engine, policy);
        s.register_model("t", model.clone()).unwrap();
        let plan = FaultPlan::new().inject(FaultKind::QueueOverflow, overflows);
        s.set_fault_plan("t", plan).unwrap();
        s
    })
}

/// `n` `USING AUTO` statements of `aggregate` over non-empty balls.
fn script(data: &Arc<Dataset>, aggregate: &str, n: usize, rng: &mut StdRng) -> Vec<String> {
    let engine = ExactEngine::new(Arc::clone(data), AccessPathKind::KdTree);
    let mut statements = Vec::with_capacity(n);
    while statements.len() < n {
        let (c, r) = ball(rng);
        if engine.q1(&c, r).is_none() {
            continue;
        }
        let c: Vec<String> = c.iter().map(|x| format!("{x:?}")).collect();
        statements.push(format!(
            "SELECT {aggregate} FROM t WHERE DIST(x, [{}]) <= {r:?} USING AUTO",
            c.join(", ")
        ));
    }
    statements
}

/// Every field of an output, floats by their bits (`{:?}` of an `f64`
/// round-trips it).
fn bits(out: &QueryOutput) -> String {
    format!("{out:?}")
}

fn stats(s: &Session) -> RouterStats {
    s.router("t").unwrap().stats()
}

/// The trainer's prototypes, each by its bits, in arena order.
fn prototypes(s: &Session) -> Vec<String> {
    let model = s.router("t").unwrap().merged_model().unwrap();
    model
        .prototypes()
        .iter()
        .map(|p| format!("{p:?}"))
        .collect()
}

/// Run each script statement by statement on `looped` and as one batch
/// on `batched`; return the batches' outputs.
fn assert_twins_agree(
    [looped, batched]: &[Session; 2],
    scripts: &[Vec<String>],
    case: &str,
) -> Vec<QueryOutput> {
    let mut outputs = Vec::new();
    for (n, statements) in scripts.iter().enumerate() {
        let one_by_one: Vec<QueryOutput> = statements
            .iter()
            .map(|s| looped.execute(s).unwrap())
            .collect();
        let batch = batched.execute_batch(&statements.join(";\n")).unwrap();
        assert_eq!(batch.len(), one_by_one.len());
        for (i, (want, got)) in one_by_one.iter().zip(&batch).enumerate() {
            assert_eq!(bits(got), bits(want), "{case}, script {n}, statement {i}");
        }
        outputs.extend(batch);
        assert_eq!(stats(batched), stats(looped), "{case}, script {n}");
    }
    assert_eq!(prototypes(batched), prototypes(looped), "{case}");
    outputs
}

/// `QueueOverflow` occurrences 2, 3 and 10 drop the labels of statements
/// 2, 3 and 10 of this script, in one batch as statement by statement:
/// labels are offered in the order they were gathered.
#[test]
fn queue_overflow_drops_the_same_labels_in_a_script_as_one_by_one() {
    let fixture = table(0.15);
    let mut rng = StdRng::seed_from_u64(48);
    let statements = script(&fixture.0, "AVG(u)", 16, &mut rng);
    let sessions = twins(&fixture, 2.0, &[2, 3, 10]);
    let outputs = assert_twins_agree(&sessions, std::slice::from_ref(&statements), "overflow");
    let dropped: Vec<usize> = (0..outputs.len())
        .filter(|&i| outputs[i].feedback_dropped)
        .map(|i| i + 1)
        .collect();
    assert_eq!(dropped, [2, 3, 10]);
    let st = stats(&sessions[1]);
    assert_eq!((st.feedback_enqueued, st.feedback_dropped), (13, 3));
}
