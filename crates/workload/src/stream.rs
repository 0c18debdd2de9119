//! The Fig. 2 training loop: analysts' queries hit the DBMS, and the model
//! learns from the `(query, answer)` stream.
//!
//! The paper's cost breakdown (§VI-B) attributes 99.62 % of training time
//! to executing the queries against the RDBMS and only the remainder to
//! model updates; [`StreamReport`] reproduces that accounting.

use crate::querygen::QueryGenerator;
use rand::Rng;
use regq_core::{CoreError, LlmModel, Query};
use regq_exact::ExactEngine;
use std::time::{Duration, Instant};

/// Outcome of a training run against the exact engine.
#[derive(Debug, Clone)]
pub struct StreamReport {
    /// Queries issued (including ones whose subspace was empty).
    pub issued: usize,
    /// Pairs actually fed to the model (non-empty subspaces).
    pub consumed: usize,
    /// Queries skipped because `D(x, θ)` held no tuples (SQL `AVG` = NULL).
    pub skipped_empty: usize,
    /// Whether the model converged (`Γ ≤ γ`).
    pub converged: bool,
    /// Final prototype count `K`.
    pub prototypes: usize,
    /// Per-consumed-step `Γ` trace (Fig. 6).
    pub gamma_trace: Vec<f64>,
    /// Wall-clock spent executing queries on the engine.
    pub query_exec_time: Duration,
    /// Wall-clock spent in model updates.
    pub model_update_time: Duration,
}

impl StreamReport {
    /// Fraction of training wall-clock spent executing queries (the
    /// paper reports 99.62 %).
    pub fn query_time_fraction(&self) -> f64 {
        let q = self.query_exec_time.as_secs_f64();
        let m = self.model_update_time.as_secs_f64();
        if q + m == 0.0 {
            0.0
        } else {
            q / (q + m)
        }
    }
}

/// Drive the Fig. 2 loop: draw queries, execute Q1 exactly, feed the model,
/// stop at convergence or after `max_queries` issued queries.
///
/// # Errors
/// Propagates model-side [`CoreError`]s (dimension mismatch etc.).
pub fn train_from_engine<R: Rng + ?Sized>(
    model: &mut LlmModel,
    engine: &ExactEngine,
    gen: &QueryGenerator,
    max_queries: usize,
    rng: &mut R,
) -> Result<StreamReport, CoreError> {
    let mut report = StreamReport {
        issued: 0,
        consumed: 0,
        skipped_empty: 0,
        converged: false,
        prototypes: 0,
        gamma_trace: Vec::new(),
        query_exec_time: Duration::ZERO,
        model_update_time: Duration::ZERO,
    };
    while report.issued < max_queries {
        let q: Query = gen.generate(rng);
        report.issued += 1;

        let t0 = Instant::now();
        let answer = engine.q1(&q.center, q.radius);
        report.query_exec_time += t0.elapsed();

        let Some(y) = answer else {
            report.skipped_empty += 1;
            continue;
        };

        let t1 = Instant::now();
        let out = model.train_step(&q, y)?;
        report.model_update_time += t1.elapsed();

        report.consumed += 1;
        report.gamma_trace.push(out.gamma_j.max(out.gamma_h));
        if out.converged {
            report.converged = true;
            break;
        }
    }
    report.prototypes = model.k();
    report.converged = model.is_frozen();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use regq_core::ModelConfig;
    use regq_data::generators::GasSensorSurrogate;
    use regq_data::rng::seeded;
    use regq_data::{Dataset, SampleOptions};
    use regq_store::AccessPathKind;
    use std::sync::Arc;

    fn setup(n: usize) -> (ExactEngine, QueryGenerator) {
        let f = GasSensorSurrogate::new(2, 42);
        let mut rng = seeded(1);
        let ds = Dataset::from_function(&f, n, SampleOptions::default(), &mut rng);
        let engine = ExactEngine::new(Arc::new(ds), AccessPathKind::KdTree);
        let gen = QueryGenerator::for_function(&f, 0.1);
        (engine, gen)
    }

    #[test]
    fn training_loop_converges_on_real_engine() {
        let (engine, gen) = setup(20_000);
        let mut model = LlmModel::new(ModelConfig::paper_defaults(2)).unwrap();
        let mut rng = seeded(2);
        let report = train_from_engine(&mut model, &engine, &gen, 50_000, &mut rng).unwrap();
        assert!(report.converged, "no convergence in 50k queries");
        assert!(report.consumed > 100);
        assert_eq!(report.gamma_trace.len(), report.consumed);
        assert!(report.prototypes >= 1);
        assert_eq!(report.issued, report.consumed + report.skipped_empty);
    }

    #[test]
    fn query_execution_dominates_training_time() {
        let (engine, gen) = setup(50_000);
        let mut model = LlmModel::new(ModelConfig::paper_defaults(2)).unwrap();
        let mut rng = seeded(3);
        let report = train_from_engine(&mut model, &engine, &gen, 3_000, &mut rng).unwrap();
        // The paper reports 99.62 %; on an in-memory engine with a kd-tree
        // the margin is narrower but execution must still dominate.
        assert!(
            report.query_time_fraction() > 0.5,
            "query fraction {}",
            report.query_time_fraction()
        );
    }

    #[test]
    fn empty_subspaces_are_skipped_not_fed() {
        // Tiny dataset + tiny radii: most balls are empty.
        let f = GasSensorSurrogate::new(2, 7);
        let mut rng = seeded(5);
        let ds = Dataset::from_function(&f, 20, SampleOptions::default(), &mut rng);
        let engine = ExactEngine::new(Arc::new(ds), AccessPathKind::Scan);
        let gen = QueryGenerator::new(vec![(0.0, 1.0); 2], 0.01, 0.0, 1.0);
        let mut model = LlmModel::new(ModelConfig::paper_defaults(2)).unwrap();
        let report = train_from_engine(&mut model, &engine, &gen, 300, &mut rng).unwrap();
        assert!(report.skipped_empty > 0);
        assert_eq!(report.issued, 300.min(report.issued));
        assert_eq!(report.consumed + report.skipped_empty, report.issued);
    }

    #[test]
    fn max_queries_caps_the_loop() {
        let (engine, gen) = setup(5_000);
        let mut cfg = ModelConfig::paper_defaults(2);
        cfg.gamma = 1e-15; // unreachable: loop must stop at the cap
        let mut model = LlmModel::new(cfg).unwrap();
        let mut rng = seeded(4);
        let report = train_from_engine(&mut model, &engine, &gen, 500, &mut rng).unwrap();
        assert_eq!(report.issued, 500);
        assert!(!report.converged);
    }
}
