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
use regq_linalg::runs;
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
    /// Wall-clock spent executing queries on the engine: the time the
    /// loop waited for each chunk, whose runs execute on every core the
    /// host grants — not the sum of the runs' times. Queries run a chunk
    /// at a time, so when training converges inside a chunk this includes
    /// the at most 2,047 executions past the converging query, which
    /// `issued` does not count.
    pub query_exec_time: Duration,
    /// Wall-clock spent in model updates.
    pub model_update_time: Duration,
}

impl StreamReport {
    /// Fraction of training wall-clock spent executing queries (the
    /// paper reports 99.62 %). A wall-clock share: the chunks execute on
    /// every core the host grants, so the share falls as cores are added
    /// while the work done stays the same.
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

/// Queries per chunk of a stream: the most the exact engine executes as
/// one ordered batch. Balls whose centres share a build leaf meet within
/// a chunk this large, and the benchmark fixture's 2,000-query training
/// calls stay whole.
const CHUNK: usize = 2048;

/// One chunk of a drawn query stream with its exact Q1 answers: drawn in
/// stream order on the calling thread, executed as contiguous draw-order
/// runs, one per core the process may use ([`runs::in_runs`]), each run
/// one ordered batch ([`ExactEngine::q1_batch`]), and read back in draw
/// order. An exact answer is a pure function of (table, ball), so the
/// pairs are the ones a one-at-a-time loop would see. The buffers are
/// reused chunk to chunk.
#[derive(Debug, Default)]
pub(crate) struct ExactChunk {
    queries: Vec<Query>,
    centres: Vec<f64>,
    radii: Vec<f64>,
    answers: Vec<Option<f64>>,
}

impl ExactChunk {
    /// Draw the next `min(left, CHUNK)` queries of `gen`'s stream and
    /// execute them; returns the wall-clock the execution took (the time
    /// the caller waited, not the sum over the runs).
    pub(crate) fn next<R: Rng + ?Sized>(
        &mut self,
        engine: &ExactEngine,
        gen: &QueryGenerator,
        left: usize,
        rng: &mut R,
    ) -> Duration {
        self.queries.clear();
        self.centres.clear();
        self.radii.clear();
        for _ in 0..left.min(CHUNK) {
            let q = gen.generate(rng);
            self.centres.extend_from_slice(&q.center);
            self.radii.push(q.radius);
            self.queries.push(q);
        }
        self.answers.clear();
        self.answers.resize(self.queries.len(), None);
        let t0 = Instant::now();
        self.execute(engine, runs::cores);
        t0.elapsed()
    }

    /// Exact Q1 of ball `i` into `answers[i]`, as at most `workers()`
    /// contiguous runs of one ball or more, each run one
    /// [`ExactEngine::q1_batch`] into its own slice of the answers.
    fn execute(&mut self, engine: &ExactEngine, workers: impl FnOnce() -> usize) {
        let d = engine.relation().dim();
        let (centres, radii) = (&self.centres, &self.radii);
        let runs = runs::run_count(radii.len(), 1, 1, workers);
        runs::in_runs(
            &mut self.answers,
            runs,
            |start, answers| {
                let end = start + answers.len();
                engine.q1_batch(&centres[start * d..end * d], &radii[start..end], answers);
            },
            drop,
        );
    }

    /// The chunk's `(query, exact Q1)` pairs, in draw order.
    pub(crate) fn pairs(&self) -> impl Iterator<Item = (&Query, Option<f64>)> {
        self.queries.iter().zip(self.answers.iter().copied())
    }
}

/// Drive the Fig. 2 loop: draw queries, execute Q1 exactly, feed the model,
/// stop at convergence or after `max_queries` issued queries.
///
/// The stream is drawn a chunk of at most 2,048 queries at a time on the
/// calling thread. Each chunk's exact answers run as contiguous
/// draw-order runs, one per core the process may use, each run one
/// ordered batch ([`ExactEngine::q1_batch`]), and the pairs are fed in
/// draw order. The caller gets the report (timings aside), the model and the
/// RNG state that drawing, executing and feeding one query at a time
/// would leave: when training stops inside a chunk — convergence, or a
/// `train_step` error — `rng` is rewound to the chunk's start and the
/// queries up to the stopping one are drawn again. That rewind is why
/// `R: Clone`.
///
/// # Errors
/// [`CoreError::DimensionMismatch`] before the first draw, leaving `rng`
/// and `model` untouched, when `gen` draws balls of another dimension
/// than the table's; otherwise propagates model-side [`CoreError`]s
/// (a model of another dimension, a non-finite answer, etc.).
pub fn train_from_engine<R: Rng + Clone>(
    model: &mut LlmModel,
    engine: &ExactEngine,
    gen: &QueryGenerator,
    max_queries: usize,
    rng: &mut R,
) -> Result<StreamReport, CoreError> {
    let table_dim = engine.relation().dim();
    if gen.dim() != table_dim {
        return Err(CoreError::DimensionMismatch {
            expected: table_dim,
            actual: gen.dim(),
        });
    }
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
    let mut chunk = ExactChunk::default();
    'stream: while report.issued < max_queries {
        let start = rng.clone();
        report.query_exec_time += chunk.next(engine, gen, max_queries - report.issued, rng);
        for (j, (q, answer)) in chunk.pairs().enumerate() {
            report.issued += 1;
            let Some(y) = answer else {
                report.skipped_empty += 1;
                continue;
            };

            let t1 = Instant::now();
            let step = model.train_step(q, y);
            report.model_update_time += t1.elapsed();

            let converged = step.map(|out| {
                report.consumed += 1;
                report.gamma_trace.push(out.gamma_j.max(out.gamma_h));
                out.converged
            });
            if let Ok(false) = converged {
                continue;
            }
            // Training stops at the chunk's query `j`, the `j + 1`-th
            // draw past `start`; the rest of the chunk was never issued.
            *rng = start;
            for _ in 0..=j {
                gen.generate(rng);
            }
            converged?;
            break 'stream;
        }
    }
    report.prototypes = model.k();
    report.converged = model.is_frozen();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngExt;
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
        // Every query of the budget is issued unless training converged.
        assert!(report.issued <= 300);
        assert!(report.converged || report.issued == 300, "{report:?}");
        assert_eq!(report.consumed + report.skipped_empty, report.issued);
    }

    #[test]
    fn max_queries_caps_the_loop() {
        let (engine, gen) = setup(5_000);
        let mut cfg = ModelConfig::paper_defaults(2);
        cfg.gamma = 1e-15; // unreachable: loop must stop at the cap
        let mut model = LlmModel::new(cfg).unwrap();
        let mut rng = seeded(4);
        // Two whole chunks and a part of a third.
        let budget = 2 * CHUNK + 500;
        let report = train_from_engine(&mut model, &engine, &gen, budget, &mut rng).unwrap();
        assert_eq!(report.issued, budget);
        assert_eq!(report.consumed + report.skipped_empty, budget);
        assert!(!report.converged);
    }

    #[test]
    fn every_split_of_a_chunk_answers_each_ball_as_one_q1() {
        let sentinel = Some(f64::from_bits(0x7ff8_dead_beef_0001));
        for d in [2usize, 4] {
            let f = GasSensorSurrogate::new(d, 9);
            let ds = Dataset::from_function(&f, 3_000, SampleOptions::default(), &mut seeded(9));
            let data = Arc::new(ds);
            let gen = QueryGenerator::for_function(&f, 0.1);
            for path in [AccessPathKind::Scan, AccessPathKind::KdTree] {
                let engine = ExactEngine::new(data.clone(), path);
                for n in [0usize, 1, 2, 5, CHUNK] {
                    let mut rng = seeded(n as u64);
                    let (mut centres, mut radii) = (Vec::new(), Vec::new());
                    for i in 0..n {
                        let mut q = gen.generate(&mut rng);
                        if i % 3 == 1 {
                            // Far outside the table: an empty ball.
                            q.center[0] = 10.0;
                        }
                        centres.extend_from_slice(&q.center);
                        radii.push(q.radius);
                    }
                    let want: Vec<Option<u64>> = centres
                        .chunks(d)
                        .zip(&radii)
                        .map(|(c, &r)| engine.q1(c, r).map(f64::to_bits))
                        .collect();
                    if n >= 2 {
                        assert!(want.iter().any(Option::is_none), "d {d} {path} n {n}");
                        assert!(want.iter().any(Option::is_some), "d {d} {path} n {n}");
                    }
                    for workers in [1, 2, 3, 7, n + 1] {
                        let mut chunk = ExactChunk {
                            centres: centres.clone(),
                            radii: radii.clone(),
                            answers: vec![sentinel; n],
                            ..ExactChunk::default()
                        };
                        chunk.execute(&engine, || workers);
                        let got: Vec<Option<u64>> =
                            chunk.answers.iter().map(|a| a.map(f64::to_bits)).collect();
                        assert_eq!(got, want, "d {d} {path} n {n} workers {workers}");
                    }
                }
            }
        }
    }

    #[test]
    fn a_generator_of_another_dimension_is_refused_before_the_first_draw() {
        let (engine, _) = setup(1_000);
        let gen = QueryGenerator::new(vec![(0.0, 1.0); 3], 0.1, 0.1, 1.0);
        let mut model = LlmModel::new(ModelConfig::paper_defaults(2)).unwrap();
        let mut rng = seeded(6);
        let err = train_from_engine(&mut model, &engine, &gen, 100, &mut rng).unwrap_err();
        assert_eq!(
            err,
            CoreError::DimensionMismatch {
                expected: 2,
                actual: 3
            }
        );
        assert_eq!(rng.random::<u64>(), seeded(6).random::<u64>(), "RNG drawn");
        assert_eq!((model.k(), model.steps()), (0, 0), "model fed");
    }

    #[test]
    fn chunk_is_the_size_the_stream_equivalence_battery_targets() {
        // `tests/stream_equivalence.rs` places convergence, errors and
        // budgets at chunk boundaries of this size.
        assert_eq!(CHUNK, 2048);
    }
}
