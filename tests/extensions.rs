//! Integration tests for the paper's future-work extensions implemented in
//! this reproduction: moments (E-1) and confidence scoring (E-4 /
//! desideratum D2).

use regq::core::moments::{MomentPair, MomentsModel};
use regq::prelude::*;
use std::sync::Arc;

fn build_engine(seed: u64, n: usize) -> (ExactEngine, GasSensorSurrogate) {
    let field = GasSensorSurrogate::new(2, 33);
    let mut rng = seeded(seed);
    let data = Dataset::from_function(
        &field,
        n,
        SampleOptions {
            normalize_output: false,
            ..Default::default()
        },
        &mut rng,
    );
    (
        ExactEngine::new(Arc::new(data), AccessPathKind::KdTree),
        field,
    )
}

#[test]
fn moments_model_tracks_conditional_mean_and_variance() {
    let (engine, field) = build_engine(1, 30_000);
    let gen = QueryGenerator::for_function(&field, 0.15);
    let mut cfg = ModelConfig::with_vigilance(2, 0.15);
    cfg.gamma = 1e-3;
    let mut model = LlmModel::new(cfg.clone()).unwrap();
    let mut mm = MomentsModel::new(cfg).unwrap();
    let mut rng = seeded(2);
    for _ in 0..50_000 {
        let q = gen.generate(&mut rng);
        if let Some(mo) = engine.q1_moments(&q.center, q.radius) {
            let done_a = model.train_step(&q, mo.mean).unwrap().converged;
            let done_b = mm
                .train_step(
                    &q,
                    MomentPair {
                        mean: mo.mean,
                        variance: mo.variance,
                    },
                )
                .unwrap();
            if done_a && done_b {
                break;
            }
        }
    }
    // Score on unseen queries.
    let mut mean_err = regq::core::metrics::RmseAccumulator::new();
    let mut var_err = regq::core::metrics::RmseAccumulator::new();
    let mut exact_means = regq::linalg::OnlineStats::new();
    let mut var_scale = 0.0;
    let mut n = 0;
    for q in gen.generate_many(500, &mut seeded(3)) {
        let Some(exact) = engine.q1_moments(&q.center, q.radius) else {
            continue;
        };
        mean_err.push(exact.mean, model.predict_q1(&q).unwrap());
        var_err.push(exact.variance, mm.predict(&q).unwrap());
        exact_means.push(exact.mean);
        var_scale += exact.variance;
        n += 1;
    }
    assert!(n > 300);
    // The output here is *unnormalized*, so score the Q1 model against the
    // spread of the true conditional means: a trivial predict-the-average
    // model would score ~1.0 on this ratio. The 0.5 budget is not thin —
    // the pinned seeds land at RMSE ≈ 0.185 against a spread of ≈ 1.02
    // (ratio ≈ 0.18, ~2.8× headroom) — it is set at half the trivial
    // model's score so only a qualitative regression of the Q1 model
    // trips it, not evaluation noise.
    let spread = exact_means.variance().sqrt();
    eprintln!("mean RMSE {} spread {}", mean_err.rmse().unwrap(), spread);
    assert!(
        mean_err.rmse().unwrap() < 0.5 * spread,
        "mean RMSE {} vs conditional-mean spread {}",
        mean_err.rmse().unwrap(),
        spread
    );
    // Variance predictions track the scale of the true variances.
    let avg_var = var_scale / n as f64;
    assert!(
        var_err.rmse().unwrap() < avg_var,
        "variance RMSE {} vs mean variance {}",
        var_err.rmse().unwrap(),
        avg_var
    );
}

#[test]
fn confidence_routes_extrapolations_to_the_engine() {
    let (engine, field) = build_engine(9, 25_000);
    let gen = QueryGenerator::for_function(&field, 0.12);
    let mut cfg = ModelConfig::with_vigilance(2, 0.15);
    cfg.gamma = 1e-3;
    let mut model = LlmModel::new(cfg).unwrap();
    let mut rng = seeded(10);
    train_from_engine(&mut model, &engine, &gen, 60_000, &mut rng).unwrap();

    // In-distribution queries score high; far-away balls score low — the
    // signal a serving layer uses to fall back to exact execution.
    let mut in_dist_scores = Vec::new();
    for q in gen.generate_many(200, &mut rng) {
        in_dist_scores.push(model.confidence(&q).unwrap().score);
    }
    let median = {
        let mut s = in_dist_scores.clone();
        s.sort_by(|a, b| a.partial_cmp(b).unwrap());
        s[s.len() / 2]
    };
    let far = model
        .confidence(&Query::new(vec![40.0, -25.0], 0.1).unwrap())
        .unwrap();
    assert!(median > 0.3, "in-distribution median score {median}");
    assert!(
        far.score < median / 2.0,
        "far score {} median {median}",
        far.score
    );
    assert_eq!(far.overlap_mass, 0.0);
}
