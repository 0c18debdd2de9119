//! Ablation A1b — prediction rule: the paper's δ̃-weighted overlap
//! neighborhood (Algorithm 2) vs a closest-prototype-only rule, and the
//! effect of the overlap fallback.
//!
//! Run: `cargo run --release -p regq-bench --bin ablation_prediction`

use regq_bench as bench;
use regq_bench::Family;
use regq_core::metrics::RmseAccumulator;
use regq_data::rng::seeded;

fn main() {
    let d = 2;
    let t = bench::train(
        Family::R1,
        d,
        bench::default_rows(),
        0.15,
        1e-3,
        bench::default_train_budget(),
        15,
    );
    let mut rng = seeded(150);

    let mut weighted = RmseAccumulator::new();
    let mut closest = RmseAccumulator::new();
    let mut fallback_count = 0usize;
    let mut total = 0usize;

    for q in t.gen.generate_many(4_000, &mut rng) {
        let Some(actual) = t.engine.q1(&q.center, q.radius) else {
            continue;
        };
        total += 1;
        // Algorithm 2 (weighted overlap neighborhood).
        let (alg2, confidence) = t.model.predict_q1_with_confidence(&q).expect("trained");
        weighted.push(actual, alg2);
        // Closest-prototype-only variant.
        let (j, _) = t.model.winner(&q).expect("non-empty");
        let near = t.model.arena().eval(j, &q.center, q.radius);
        closest.push(actual, near);
        if !confidence.fused {
            fallback_count += 1;
        }
    }

    println!("prediction rule\tQ1_RMSE\tqueries");
    println!(
        "Algorithm 2 (delta-weighted W(q))\t{:.4}\t{}",
        weighted.rmse().unwrap_or(f64::NAN),
        weighted.count()
    );
    println!(
        "closest prototype only\t{:.4}\t{}",
        closest.rmse().unwrap_or(f64::NAN),
        closest.count()
    );
    println!(
        "# W(q) empty (fallback used) on {fallback_count}/{total} queries; K = {}",
        t.model.k()
    );
}
