//! One label a ball. A trainable router feeds back the ball's mean from
//! each of its three exact doors: `q1_exact` (`AVG`), `q2_exact`
//! (`LINREG`, the fused Q1 + OLS fit) and `var_exact` (`VAR`, the
//! moments). All three take it from the access path's `(n, Σu)`, so it
//! is one value, bit for bit, whichever aggregate fell back — and twin
//! routers fed the same balls through different doors end with the same
//! model.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use regq_core::{LlmModel, ModelConfig, Query};
use regq_data::generators::GasSensorSurrogate;
use regq_data::{Dataset, SampleOptions};
use regq_exact::ExactEngine;
use regq_serve::{RoutePolicy, ShardRouter};
use regq_store::AccessPathKind;
use std::sync::Arc;

/// A router over the kd-tree of `data` training one untrained model,
/// every exact answer offered to the trainer.
fn learner(data: &Arc<Dataset>) -> ShardRouter {
    let mut cfg = ModelConfig::with_vigilance(2, 0.15);
    cfg.gamma = 1e-3;
    let model = LlmModel::new(cfg).unwrap();
    let exact = ExactEngine::new(Arc::clone(data), AccessPathKind::KdTree);
    ShardRouter::with_model(exact, model, RoutePolicy::default())
}

/// The trainer's prototypes, each by its bits, in arena order.
fn prototypes(router: &ShardRouter) -> Vec<String> {
    let model = router.merged_model().unwrap();
    model
        .prototypes()
        .iter()
        .map(|p| format!("{p:?}"))
        .collect()
}

#[test]
fn twin_routers_fed_through_different_exact_doors_learn_one_model() {
    let field = GasSensorSurrogate::new(2, 3);
    let mut rng = StdRng::seed_from_u64(49);
    let data = Arc::new(Dataset::from_function(
        &field,
        20_000,
        SampleOptions::default(),
        &mut rng,
    ));
    let [avg, linreg, var] = [(); 3].map(|()| learner(&data));
    let mut fed = 0;
    for _ in 0..2_000 {
        let centre = vec![rng.random_range(0.0..1.0), rng.random_range(0.0..1.0)];
        let q = Query::new_unchecked(centre, rng.random_range(0.05..0.3));
        // A ball the fit cannot solve offers no label through `LINREG`;
        // it is fed to none of the twins.
        if linreg.q2_exact(&q).is_err() {
            continue;
        }
        avg.q1_exact(&q).unwrap();
        var.var_exact(&q).unwrap();
        fed += 1;
    }
    assert!(fed > 1_500, "only {fed} balls fed");
    let stats = avg.stats();
    assert_eq!(stats.feedback_fed, fed, "every label trained");
    let model = prototypes(&avg);
    assert!(model.len() > 1, "the stream spawned prototypes");
    assert_eq!(prototypes(&linreg), model, "LINREG's labels vs AVG's");
    assert_eq!(prototypes(&var), model, "VAR's labels vs AVG's");
}
