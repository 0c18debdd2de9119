//! The in-DBMS face of the system: a SQL session over a relation, with
//! both exact and model-served execution of the paper's Q1/Q2 dialect.
//!
//! ```sh
//! cargo run --release --example sql_console
//! ```

use regq::core::moments::{MomentPair, MomentsModel};
use regq::prelude::*;
use regq::sql::Session;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    // A relation and its analyst workload.
    let field = GasSensorSurrogate::new(2, 99);
    let mut rng = seeded(42);
    println!("-- loading table 'readings' (150,000 rows) ...");
    let data = Dataset::from_function(&field, 150_000, SampleOptions::default(), &mut rng);
    let engine = ExactEngine::new(Arc::new(data), AccessPathKind::KdTree);

    // Train the serving models from the query log.
    println!("-- training serving models from the query log ...");
    let gen = QueryGenerator::for_function(&field, 0.1);
    let mut cfg = ModelConfig::with_vigilance(2, 0.15);
    cfg.gamma = 1e-3;
    let mut model = LlmModel::new(cfg.clone()).expect("config");
    let mut moments = MomentsModel::new(cfg).expect("config");
    let mut consumed = 0usize;
    for _ in 0..80_000 {
        let q = gen.generate(&mut rng);
        if let Some(mo) = engine.q1_moments(&q.center, q.radius) {
            let a = model.train_step(&q, mo.mean).expect("train").converged;
            let b = moments
                .train_step(
                    &q,
                    MomentPair {
                        mean: mo.mean,
                        variance: mo.variance,
                    },
                )
                .expect("train");
            consumed += 1;
            if a && b {
                break;
            }
        }
    }
    println!(
        "-- trained on {consumed} executed queries; K = {}",
        model.k()
    );

    let mut session = Session::new();
    session.register_table("readings", engine);
    session.register_model("readings", model).expect("register");
    session
        .register_moments_model("readings", moments)
        .expect("register");

    // The console script: each statement in both execution modes.
    let script = [
        "SELECT COUNT(*) FROM readings WHERE DIST(x, [0.4, 0.6]) <= 0.15;",
        "SELECT AVG(u) FROM readings WHERE DIST(x, [0.4, 0.6]) <= 0.15;",
        "SELECT AVG(u) FROM readings WHERE DIST(x, [0.4, 0.6]) <= 0.15 USING MODEL;",
        "SELECT VAR(u) FROM readings WHERE DIST(x, [0.4, 0.6]) <= 0.15;",
        "SELECT VAR(u) FROM readings WHERE DIST(x, [0.4, 0.6]) <= 0.15 USING MODEL;",
        "SELECT LINREG(u) FROM readings WHERE DIST(x, [0.4, 0.6]) <= 0.15;",
        "SELECT LINREG(u) FROM readings WHERE DIST(x, [0.4, 0.6]) <= 0.15 USING MODEL;",
        // Confidence-gated hybrid routing: the session serves from the
        // model when the score clears the gate, otherwise executes on the
        // data — and reports the route it took either way.
        "SELECT AVG(u) FROM readings WHERE DIST(x, [0.4, 0.6]) <= 0.15 USING AUTO;",
        "SELECT AVG(u) FROM readings WHERE DIST(x, [30.0, 30.0]) <= 50.0 USING AUTO;",
        // Error cases surface as readable diagnostics, not panics.
        "SELECT AVG(u) FROM missing WHERE DIST(x, [0.4, 0.6]) <= 0.15;",
        "SELECT MEDIAN(u) FROM readings WHERE DIST(x, [0.4, 0.6]) <= 0.15;",
    ];

    for sql in script {
        println!("\nregq> {sql}");
        // The whole call, parse included.
        let t0 = Instant::now();
        let result = session.execute(sql);
        let dur = t0.elapsed();
        match result {
            Ok(out) => {
                for line in out.to_string().lines() {
                    println!("  {line}");
                }
                match out.confidence {
                    Some(score) => {
                        println!("  (route: {}, confidence {score:.2}, {dur:.2?})", out.route)
                    }
                    None => println!("  (route: {}, {dur:.2?})", out.route),
                }
            }
            Err(e) => println!("  ERROR: {e}"),
        }
    }
}
