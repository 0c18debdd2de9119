//! The paper's §I motivating scenario: seismologists exploring P-wave
//! velocity over a geographic region.
//!
//! Analysts issue dNN queries `D(x₀, θ)` — "all measurements within θ
//! degrees of (longitude, latitude) x₀" — and ask:
//!
//! * **Q1**: the mean P-wave speed inside the disc (the best linear
//!   sufficient statistic for the region);
//! * **Q2**: how velocity depends on position — the local linear
//!   coefficients `u ≈ b₀ + b₁·lon + b₂·lat`, possibly several per region
//!   when the dependency changes across a fault line.
//!
//! We simulate a velocity field with a sharp "fault" discontinuity in
//! slope: a single global plane fits poorly, while the model's list of
//! local linear models recovers the two regimes — the paper's D1/D3
//! desiderata.
//!
//! ```sh
//! cargo run --release --example seismic_analytics
//! ```

use regq::data::function::FnFunction;
use regq::prelude::*;
use std::sync::Arc;

fn main() {
    // Velocity field over a 1°×1° region, rescaled to [0,1]²:
    // east of the "fault" (x1 > 0.55 + 0.1·x2) velocity climbs steeply
    // with longitude; west of it, it declines gently with latitude.
    let field = FnFunction::unit_box("p-wave-velocity", 2, |x| {
        let fault = 0.55 + 0.1 * x[1];
        if x[0] > fault {
            3.2 + 4.0 * (x[0] - fault) - 0.3 * x[1]
        } else {
            3.2 - 0.8 * (fault - x[0]) - 1.2 * x[1]
        }
    });

    let mut rng = seeded(2024);
    println!("materializing 300,000 sensor readings ...");
    let data = Dataset::from_function(
        &field,
        300_000,
        SampleOptions {
            target_noise_std: 0.02,
            normalize_output: false,
            ..Default::default()
        },
        &mut rng,
    );
    let engine = ExactEngine::new(Arc::new(data), AccessPathKind::KdTree);

    // Train from a survey campaign's query log. Radii ~ N(0.1, 0.1²):
    // discs covering ≈20% of the region diameter, as in the paper.
    let gen = QueryGenerator::for_function(&field, 0.1);
    let mut cfg = ModelConfig::with_vigilance(2, 0.12);
    cfg.gamma = 1e-3;
    let mut model = LlmModel::new(cfg).expect("valid config");
    let report = train_from_engine(&mut model, &engine, &gen, 120_000, &mut rng).expect("training");
    println!(
        "survey model trained: {} queries, K = {} regional regimes, converged = {}",
        report.consumed, report.prototypes, report.converged
    );

    // --- The analyst's exploration -------------------------------------
    // A disc straddling the fault: one global line cannot fit (D1), the
    // local list can (D3).
    let straddle = Query::new(vec![0.55, 0.5], 0.2).expect("valid query");
    println!("\n── disc straddling the fault: D(x=[0.55,0.5], θ=0.2) ──");

    let global = engine
        .q2_reg(&straddle.center, straddle.radius)
        .expect("exact REG");
    println!(
        "exact single-plane REG:  u ≈ {:.2} + {:.2}·lon + {:.2}·lat   (CoD = {:.3})",
        global.intercept, global.slope[0], global.slope[1], global.fit.cod
    );

    let s = model.predict_q2(&straddle).expect("prediction");
    println!("LLM list S ({} local models, no data access):", s.len());
    for lm in &s {
        let side = if lm.center[0] > 0.55 + 0.1 * lm.center[1] {
            "east of fault"
        } else {
            "west of fault"
        };
        println!(
            "  around [{:.2},{:.2}] ({side}): u ≈ {:.2} + {:.2}·lon + {:.2}·lat  (weight {:.2})",
            lm.center[0], lm.center[1], lm.intercept, lm.slope[0], lm.slope[1], lm.weight
        );
    }

    // The two regimes have very different longitude slopes (+4.0 east,
    // +0.8 west): check the model separated them.
    // Keep a safety margin from the fault so fault-straddling prototypes
    // (which legitimately blend the regimes) don't pollute the comparison.
    let east_slopes: Vec<f64> = s
        .iter()
        .filter(|lm| lm.center[0] > 0.68 + 0.1 * lm.center[1])
        .map(|lm| lm.slope[0])
        .collect();
    let west_slopes: Vec<f64> = s
        .iter()
        .filter(|lm| lm.center[0] < 0.42 + 0.1 * lm.center[1])
        .map(|lm| lm.slope[0])
        .collect();
    if let (Some(&e), Some(&w)) = (east_slopes.first(), west_slopes.first()) {
        println!(
            "\nregime separation: east lon-slope ≈ {e:.2} (true 4.0), west ≈ {w:.2} (true 0.8)"
        );
    }

    // --- Q1 sweep along a transect -------------------------------------
    println!("\n── mean-velocity transect at lat 0.5, θ = 0.08 ──");
    println!("lon\texact\tLLM\t|err|");
    for i in 1..10 {
        let lon = i as f64 / 10.0;
        let q = Query::new(vec![lon, 0.5], 0.08).expect("valid");
        let exact = engine.q1(&q.center, q.radius).unwrap_or(f64::NAN);
        let pred = model.predict_q1(&q).expect("prediction");
        println!(
            "{lon:.1}\t{exact:.3}\t{pred:.3}\t{:.3}",
            (exact - pred).abs()
        );
    }

    // --- Variance extension: measurement spread per region (E-1) -------
    println!("\n── per-region variance via the moments extension ──");
    let mut mm = MomentsModel::new(ModelConfig::with_vigilance(2, 0.12)).expect("config");
    let mut rng2 = seeded(77);
    for _ in 0..30_000 {
        let q = gen.generate(&mut rng2);
        if let Some(mo) = engine.q1_moments(&q.center, q.radius) {
            let pair = regq::core::moments::MomentPair {
                mean: mo.mean,
                variance: mo.variance,
            };
            if mm.train_step(&q, pair).expect("train") {
                break;
            }
        }
    }
    for (label, x) in [("west", [0.2, 0.5]), ("east", [0.85, 0.5])] {
        let q = Query::new(x.to_vec(), 0.1).expect("valid");
        let p = mm.predict(&q).expect("prediction");
        let exact = engine.q1_moments(&q.center, q.radius).expect("non-empty");
        println!(
            "{label}: predicted mean {:.3} / var {:.4}   exact mean {:.3} / var {:.4}",
            p.mean, p.variance, exact.mean, exact.variance
        );
    }
}
