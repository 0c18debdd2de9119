//! End-to-end integration tests: the full Fig.-2 pipeline — dataset →
//! exact engine → analyst workload → model training → zero-data-access
//! prediction — with accuracy assertions against ground truth.

use regq::prelude::*;
use std::sync::Arc;
use std::sync::OnceLock;

/// Shared non-linear fixture (expensive: 40k rows + training to Γ ≤ γ).
fn nonlinear_fixture() -> &'static (ExactEngine, QueryGenerator, LlmModel) {
    static FIX: OnceLock<(ExactEngine, QueryGenerator, LlmModel)> = OnceLock::new();
    FIX.get_or_init(|| {
        let field = GasSensorSurrogate::new(2, 42);
        let mut rng = seeded(1);
        let data = Dataset::from_function(&field, 40_000, SampleOptions::default(), &mut rng);
        let engine = ExactEngine::new(Arc::new(data), AccessPathKind::KdTree);
        let gen = QueryGenerator::for_function(&field, 0.1);
        let mut cfg = ModelConfig::with_vigilance(2, 0.12);
        // γ = 5e-3: deep enough for accurate slopes, shallow enough that
        // the slope head's slower (p = 0.6) Γ_H decay crosses it within
        // this workload (`ModelConfig::convergence_window` and
        // `coeff_rate_power` document both choices).
        cfg.gamma = 5e-3;
        let mut model = LlmModel::new(cfg).unwrap();
        let report = train_from_engine(&mut model, &engine, &gen, 120_000, &mut rng).unwrap();
        assert!(report.converged, "fixture must converge");
        (engine, gen, model)
    })
}

#[test]
fn pipeline_converges_and_predicts_q1_accurately() {
    let (engine, gen, model) = nonlinear_fixture();
    let mut rng = seeded(100);
    let eval = evaluate_q1(model, engine, gen, 2_000, &mut rng);
    // The data is scaled to [0,1]; a useful model must be well under the
    // trivial predict-the-global-mean error (~0.15 on this surface).
    assert!(eval.rmse < 0.09, "Q1 RMSE too high: {}", eval.rmse);
    assert!(eval.n > 1_500);
}

#[test]
fn q2_local_models_beat_global_reg_on_nonlinear_data() {
    let (engine, gen, model) = nonlinear_fixture();
    let mut rng = seeded(101);
    let eval = evaluate_q2(model, engine, gen, 400, None, &mut rng);
    assert!(eval.n > 50);
    // Per-query FVU has an unbounded heavy upper tail (near-constant
    // subspaces blow the ratio up for every method), so the ordering is
    // asserted on medians, as the evaluator documents. 400 probes keep
    // the median estimates stable: at 100 the two medians sat within
    // 1% of each other (2.616 vs 2.635) and a benign change could flip
    // the ordering; at 400 the gap is ~18% (2.42 vs 2.85).
    eprintln!(
        "llm mean {} median {} | reg mean {} median {}",
        eval.llm_fvu, eval.llm_fvu_median, eval.reg_global_fvu, eval.reg_global_fvu_median
    );
    assert!(
        eval.llm_fvu_median < eval.reg_global_fvu_median,
        "LLM median FVU {} must beat global REG {}",
        eval.llm_fvu_median,
        eval.reg_global_fvu_median
    );
    // The returned lists are non-trivial on overlapping subspaces.
    assert!(eval.avg_s_len >= 1.0);
}

#[test]
fn prediction_requires_no_data_access_and_is_fast() {
    let (engine, gen, model) = nonlinear_fixture();
    let mut rng = seeded(102);
    let queries = gen.generate_many(200, &mut rng);
    let llm = time_q1_llm(model, &queries);
    let exact = time_q1_exact(engine, &queries);
    // The engine holds 40k rows behind a kd-tree; even so, the model-side
    // answer must be decisively faster on average.
    assert!(
        llm.mean() < exact.mean(),
        "LLM {:?} not faster than exact {:?}",
        llm.mean(),
        exact.mean()
    );
}

#[test]
fn model_scales_independently_of_data_size() {
    // Train once, then time predictions — they cannot depend on the
    // relation size because prediction never touches the relation.
    let (_, gen, model) = nonlinear_fixture();
    let mut rng = seeded(103);
    let queries = gen.generate_many(500, &mut rng);
    let t = time_q1_llm(model, &queries);
    // O(dK) per query: sub-10µs each even in CI noise.
    assert!(
        t.mean().as_micros() < 200,
        "prediction latency {:?} suspiciously high",
        t.mean()
    );
}

#[test]
fn exact_q1_equals_manual_average_through_all_access_paths() {
    let field = Saddle2d;
    let mut rng = seeded(3);
    let data = Arc::new(Dataset::from_function(
        &field,
        5_000,
        SampleOptions {
            normalize_output: false,
            ..Default::default()
        },
        &mut rng,
    ));
    for path in [AccessPathKind::Scan, AccessPathKind::KdTree] {
        let engine = ExactEngine::new(data.clone(), path);
        let ids = engine.select(&[0.2, -0.3], 0.5);
        let manual: f64 = ids.iter().map(|&i| data.y(i)).sum::<f64>() / ids.len() as f64;
        let q1 = engine.q1(&[0.2, -0.3], 0.5).unwrap();
        assert!((q1 - manual).abs() < 1e-12, "path {path:?}");
    }
}

#[test]
fn linear_world_sanity_all_three_engines_agree() {
    // On exactly linear data every method must recover the plane.
    let field =
        regq::data::function::FnFunction::unit_box("plane", 2, |x| 1.0 + 2.0 * x[0] - 3.0 * x[1]);
    let mut rng = seeded(4);
    let data = Arc::new(Dataset::from_function(
        &field,
        20_000,
        SampleOptions {
            normalize_output: false,
            ..Default::default()
        },
        &mut rng,
    ));
    let engine = ExactEngine::new(data, AccessPathKind::KdTree);

    // Global REG: exact coefficients.
    let reg = engine.global_reg().unwrap();
    assert!((reg.intercept - 1.0).abs() < 1e-6);
    assert!((reg.slope[0] - 2.0).abs() < 1e-6);
    assert!((reg.slope[1] + 3.0).abs() < 1e-6);

    // Per-query PLR: FVU ~ 0 (a line is a trivial spline).
    let plr = engine
        .q2_plr(&[0.5, 0.5], 0.3, MarsParams::default())
        .unwrap();
    assert!(plr.fit.fvu < 1e-9);

    // The trained model's Q2 list recovers the same plane locally.
    let gen = QueryGenerator::for_function(&field, 0.1);
    let mut cfg = ModelConfig::with_vigilance(2, 0.12);
    cfg.gamma = 1e-3;
    let mut model = LlmModel::new(cfg).unwrap();
    train_from_engine(&mut model, &engine, &gen, 60_000, &mut rng).unwrap();
    let s = model
        .predict_q2(&Query::new(vec![0.5, 0.5], 0.2).unwrap())
        .unwrap();
    // Score the returned list by overlap weight: low-weight members may be
    // young prototypes with immature coefficients, which is expected; the
    // weighted answer is what the algorithm stands behind.
    let weighted_err: f64 = s
        .iter()
        .map(|lm| {
            let at_center = lm.predict(&lm.center);
            let truth = 1.0 + 2.0 * lm.center[0] - 3.0 * lm.center[1];
            lm.weight * (at_center - truth).abs()
        })
        .sum();
    assert!(
        weighted_err < 0.1,
        "weighted local-model error {weighted_err}"
    );
}

#[test]
fn trained_model_survives_persistence_round_trip() {
    let (_, gen, model) = nonlinear_fixture();
    let path = std::env::temp_dir().join(format!("regq-e2e-{}.model", std::process::id()));
    regq::core::persist::save_model(model, &path).unwrap();
    let restored = regq::core::persist::load_model(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let mut rng = seeded(105);
    for q in gen.generate_many(100, &mut rng) {
        assert_eq!(
            model.predict_q1(&q).unwrap(),
            restored.predict_q1(&q).unwrap()
        );
    }
}

#[test]
fn empty_and_tiny_subspaces_are_handled_gracefully() {
    let (engine, _, model) = nonlinear_fixture();
    // Far outside the data domain: the exact engine returns None, the
    // model extrapolates (finite), never panics.
    let far = Query::new(vec![50.0, 50.0], 0.01).unwrap();
    assert!(engine.q1(&far.center, far.radius).is_none());
    assert!(model.predict_q1(&far).unwrap().is_finite());
    assert_eq!(model.predict_q2(&far).unwrap().len(), 1);
}
