//! R1-style scenario: chemometrics over a gas-sensor array (the paper's
//! real dataset), in higher dimension (d = 5) with sensor drift.
//!
//! Shows:
//! * training at the paper's default settings (a = 0.25, γ = 0.01),
//! * prediction accuracy vs the exact engine on unseen queries (A1/A2),
//! * sensor drift: the response shifts and a model that keeps consuming
//!   `(query, answer)` pairs tracks it, while a frozen one goes stale.
//!
//! ```sh
//! cargo run --release --example sensor_calibration
//! ```

use regq::prelude::*;
use std::sync::Arc;

fn main() {
    let d = 5;
    let field = GasSensorSurrogate::new(d, 1313);
    let mut rng = seeded(99);

    // Raw (un-normalized) outputs so the drift simulation below stays
    // visible — batch renormalization would silently cancel the shift.
    let raw = SampleOptions {
        normalize_output: false,
        ..Default::default()
    };
    println!("materializing 500,000 calibration rows (d = {d}) ...");
    let data = Dataset::from_function(&field, 500_000, raw, &mut rng);
    let engine = ExactEngine::new(Arc::new(data), AccessPathKind::KdTree);

    // Finer-than-default vigilance: in d = 5 the paper-default a = 0.25
    // yields only a handful of prototypes, too coarse to expose local
    // structure; a = 0.18 lands near a hundred. θ covers ~20% of each
    // feature range → enough mass per ball even in d = 5.
    let gen = QueryGenerator::for_function(&field, 0.2);
    let mut cfg = ModelConfig::with_vigilance(d, 0.18);
    cfg.gamma = 2e-3;
    let mut model = LlmModel::new(cfg).expect("config");
    let report = train_from_engine(&mut model, &engine, &gen, 120_000, &mut rng).expect("training");
    println!(
        "trained: |T| = {} pairs, K = {}, converged = {}",
        report.consumed, report.prototypes, report.converged
    );

    // --- A1 accuracy on unseen queries ---------------------------------
    let q1 = evaluate_q1(&model, &engine, &gen, 2_000, &mut rng);
    println!(
        "\nA1 (mean-value) over {} unseen queries: RMSE = {:.4}",
        q1.n, q1.rmse
    );

    // --- A2 data-value accuracy vs global REG --------------------------
    let a2 = evaluate_data_values(&model, &engine, &gen, 300, 20, None, &mut rng);
    println!(
        "A2 (data values) over {} points: LLM RMSE = {:.4}, global-REG RMSE = {:.4}",
        a2.n, a2.rmse_llm, a2.rmse_reg_global
    );

    // --- Sensor drift ---------------------------------------------------
    // The array's response shifts by +0.15 across the board (baseline
    // drift after recalibration). A frozen model keeps predicting the old
    // level; one that keeps training on executed queries follows.
    println!("\nsimulating baseline drift of +0.15 on the response ...");
    let drifted = regq::data::function::FnFunction::unit_box("drifted", d, {
        let f = field.clone();
        move |x| f.eval(x) + 0.15
    });
    let mut rng2 = seeded(7);
    let new_data = Dataset::from_function(&drifted, 500_000, raw, &mut rng2);
    let new_engine = ExactEngine::new(Arc::new(new_data), AccessPathKind::KdTree);

    let stale = model.clone();
    model.unfreeze();
    let mut consumed = 0;
    for _ in 0..20_000 {
        let q = gen.generate(&mut rng2);
        if let Some(y) = new_engine.q1(&q.center, q.radius) {
            model.train_step(&q, y).expect("train");
            consumed += 1;
        }
    }
    println!("re-trained on {consumed} post-drift queries");

    let stale_eval = evaluate_q1(&stale, &new_engine, &gen, 1_500, &mut rng2);
    let fresh_eval = evaluate_q1(&model, &new_engine, &gen, 1_500, &mut rng2);
    println!(
        "post-drift RMSE: frozen model = {:.4}, re-trained model = {:.4}",
        stale_eval.rmse, fresh_eval.rmse
    );
    if fresh_eval.rmse < stale_eval.rmse {
        println!("continued training recovered the accuracy loss ✔");
    }
}
