//! Closed-loop concurrent serving: reader threads auto-routing a shared
//! workload through a live [`ShardRouter`] while one writer keeps the
//! Fig. 2 trainer loop running ([`serve_closed_loop`]), plus the rate
//! helpers every report prints through ([`qps_value`] / [`qps_label`]).
//!
//! atomics: audited — the `Ordering::Relaxed` site is the work-claim
//! cursor (`fetch_add` atomicity gives exactly-once claiming over a
//! shared immutable query slice); the `drained` flag is Release/Acquire
//! because the measuring thread reads the tallies the workers wrote
//! before setting it.

use regq_core::Query;
use regq_serve::{ServeError, ShardRouter};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Queries/second, degrading to `NaN` when `elapsed` is below the timer's
/// resolution (a sub-tick run proves a *lower bound*, not a rate).
pub fn qps_value(queries: usize, elapsed: Duration) -> f64 {
    let secs = elapsed.as_secs_f64();
    if secs <= 0.0 {
        f64::NAN
    } else {
        queries as f64 / secs
    }
}

/// Human-readable rate that never prints `inf`: a sub-tick measurement
/// becomes a counted sentinel (`">=N queries in <1 timer tick"`), anything
/// else the usual integer rate.
pub fn qps_label(queries: usize, elapsed: Duration) -> String {
    let secs = elapsed.as_secs_f64();
    if secs <= 0.0 {
        format!(">={queries} queries in <1 timer tick")
    } else {
        format!("{:.0}", queries as f64 / secs)
    }
}

/// Result of one closed-loop concurrent-serving measurement
/// ([`serve_closed_loop`]): `readers` serving threads auto-routing a
/// shared workload through a [`ShardRouter`] while one writer thread
/// keeps executing ground-truth queries and feeding the fabric. Feedback
/// flows through bounded per-shard queues, so the ledger distinguishes
/// enqueued / fed / dropped.
#[derive(Debug, Clone, Copy)]
pub struct ServeLoopResult {
    /// Number of shards in the router.
    pub shards: usize,
    /// Number of reader (serving) threads.
    pub readers: usize,
    /// Reader queries answered (each exactly once across the readers).
    pub queries: usize,
    /// Wall-clock from the writer's first fed example, when the readers
    /// start, until the last reader finished.
    pub elapsed: Duration,
    /// Reader queries served from the fused shard snapshots.
    pub model_served: u64,
    /// Reader queries that fell back to the exact engine.
    pub exact_served: u64,
    /// Feedback examples accepted into shard queues during the run
    /// (writer stream + reader-fallback feedback).
    pub feedback_enqueued: u64,
    /// Feedback examples the shard trainers consumed during the run.
    pub feedback_fed: u64,
    /// Feedback examples dropped at full shard queues (every drop is
    /// counted).
    pub feedback_dropped: u64,
    /// Snapshot publishes (summed over shard cells) during the run.
    pub publishes: u64,
    /// Ground-truth queries the writer executed before the readers
    /// drained the workload.
    pub writer_examples: usize,
}

impl ServeLoopResult {
    /// Reader queries per second. A wall-clock below the timer's
    /// resolution (`elapsed == 0`) yields `f64::NAN` — *not* infinity, so
    /// a JSON writer's non-finite guard turns it into `null` instead of an
    /// unparseable `inf`. Print [`ServeLoopResult::qps_label`] instead of
    /// formatting this directly.
    pub fn qps(&self) -> f64 {
        qps_value(self.queries, self.elapsed)
    }

    /// [`ServeLoopResult::qps`] as display text that never prints `inf`.
    pub fn qps_label(&self) -> String {
        qps_label(self.queries, self.elapsed)
    }

    /// Fraction of reader queries served from the shard snapshots.
    pub fn model_share(&self) -> f64 {
        let total = self.model_served + self.exact_served;
        if total == 0 {
            0.0
        } else {
            self.model_served as f64 / total as f64
        }
    }
}

/// Closed-loop concurrent serving: `readers` threads drain
/// `reader_queries` (work-stealing over a shared cursor) through
/// [`ShardRouter::q1`] — one hazard-slot guard per shard, cross-shard
/// fusion, confidence-gated exact fallback — while **one** writer thread
/// (the caller's) runs the Fig. 2 trainer loop over `writer_queries`:
/// execute exactly, enqueue into the shard fabric, and steal whatever
/// drain work its `observe` can grab; the shard trainers republish at
/// the policy cadence. The readers — and the clock — start once the
/// writer's first example is in the fabric, and the writer stops as soon
/// as the readers drain the workload. So `elapsed` measures reader
/// throughput under live training on any host, however fast the readers
/// and however late the writer would have been scheduled beside them.
///
/// Reader queries whose exact fallback selects an empty subspace count as
/// answered (SQL NULL); any other serve error panics (measurement bug).
///
/// # Panics
/// Panics if `readers == 0` or on a non-NULL serve error.
pub fn serve_closed_loop(
    router: &ShardRouter,
    reader_queries: &[Query],
    readers: usize,
    writer_queries: &[Query],
) -> ServeLoopResult {
    assert!(readers >= 1, "need at least one reader thread");
    let before = router.stats();
    let cursor = AtomicUsize::new(0);
    let drained = AtomicBool::new(false);
    let mut writer_examples = 0usize;
    let mut writer_step = |q: &Query| {
        if let Some(y) = router.exact_engine().q1(&q.center, q.radius) {
            router.observe_outcome(q, y);
        }
        writer_examples += 1;
    };
    // The writer's first example goes in before any reader exists: a
    // reader pool fast enough to drain the workload within a scheduling
    // quantum would otherwise be measured against no writer at all.
    let mut writer_queries = writer_queries.iter();
    if let Some(q) = writer_queries.next() {
        writer_step(q);
    }
    let t0 = Instant::now();
    // `elapsed` is taken per reader at its own finish and maxed — the
    // writer's in-flight ground-truth query after the drain must not
    // inflate the reader-throughput clock.
    let elapsed = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..readers)
            .map(|_| {
                scope.spawn(|| {
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= reader_queries.len() {
                            break;
                        }
                        match router.q1(&reader_queries[i]) {
                            Ok(_) | Err(ServeError::EmptySubspace) => {}
                            Err(e) => panic!("closed-loop serve failed: {e}"),
                        }
                    }
                    drained.store(true, Ordering::Release);
                    t0.elapsed()
                })
            })
            .collect();
        // The single writer: ground-truth execution + fabric feedback on
        // the calling thread, until the readers finish.
        for q in writer_queries {
            if drained.load(Ordering::Acquire) {
                break;
            }
            writer_step(q);
        }
        // Flush whatever the opportunistic pumps left queued.
        router.pump();
        handles
            .into_iter()
            .map(|h| h.join().expect("reader thread"))
            .max()
            .expect("at least one reader")
    });
    let after = router.stats();
    ServeLoopResult {
        shards: router.shards(),
        readers,
        queries: reader_queries.len(),
        elapsed,
        model_served: after.model_served - before.model_served,
        exact_served: after.exact_served - before.exact_served,
        feedback_enqueued: after.feedback_enqueued - before.feedback_enqueued,
        feedback_fed: after.feedback_fed - before.feedback_fed,
        feedback_dropped: after.feedback_dropped - before.feedback_dropped,
        publishes: after.publishes - before.publishes,
        writer_examples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::querygen::QueryGenerator;
    use crate::stream::train_from_engine;
    use regq_core::LlmModel;
    use regq_data::generators::GasSensorSurrogate;
    use regq_data::rng::seeded;
    use regq_data::{Dataset, SampleOptions};
    use regq_exact::ExactEngine;
    use regq_store::AccessPathKind;
    use std::sync::Arc;

    #[test]
    fn sub_resolution_elapsed_degrades_to_nan_and_a_counted_sentinel() {
        // Satellite bugfix regression: a run faster than the timer tick
        // used to report `inf` qps, which the JSON guard caught but the
        // human-readable `{:.0}` prints did not.
        let run = |elapsed| ServeLoopResult {
            shards: 1,
            readers: 1,
            queries: 1_000,
            elapsed,
            model_served: 0,
            exact_served: 0,
            feedback_enqueued: 0,
            feedback_fed: 0,
            feedback_dropped: 0,
            publishes: 0,
            writer_examples: 0,
        };
        let r = run(Duration::ZERO);
        assert!(r.qps().is_nan(), "sub-tick qps must be NaN, not inf");
        assert_eq!(r.qps_label(), ">=1000 queries in <1 timer tick");
        let real = run(Duration::from_millis(500));
        assert_eq!(real.qps(), 2_000.0);
        assert_eq!(real.qps_label(), "2000");
        // The free helpers drive every report's label identically.
        assert!(qps_value(7, Duration::ZERO).is_nan());
        assert_eq!(qps_label(7, Duration::ZERO), ">=7 queries in <1 timer tick");
    }

    mod closed_loop {
        use super::*;
        use regq_core::ModelConfig;
        use regq_serve::RoutePolicy;

        fn router(trained: bool, shards: usize) -> ShardRouter {
            let f = GasSensorSurrogate::new(2, 5);
            let mut rng = seeded(21);
            let ds = Dataset::from_function(&f, 20_000, SampleOptions::default(), &mut rng);
            let exact = ExactEngine::new(Arc::new(ds), AccessPathKind::KdTree);
            let mut model = LlmModel::new(ModelConfig::with_vigilance(2, 0.08)).unwrap();
            if trained {
                let gen = QueryGenerator::for_function(&f, 0.1);
                train_from_engine(&mut model, &exact, &gen, 10_000, &mut rng).unwrap();
            }
            ShardRouter::with_model(
                exact,
                model,
                RoutePolicy {
                    confidence_threshold: 0.3,
                    feedback: true,
                    publish_interval: 64,
                    ..RoutePolicy::default()
                },
                shards,
            )
        }

        #[test]
        fn closed_loop_answers_every_reader_query_and_trains() {
            for shards in [1usize, 4] {
                let router = router(false, shards);
                let f = GasSensorSurrogate::new(2, 5);
                let gen = QueryGenerator::for_function(&f, 0.1);
                let mut rng = seeded(22);
                let reader_queries = gen.generate_many(6_000, &mut rng);
                let writer_queries = gen.generate_many(5_000, &mut rng);
                let r = serve_closed_loop(&router, &reader_queries, 2, &writer_queries);
                assert_eq!((r.shards, r.readers, r.queries), (shards, 2, 6_000));
                // Every reader query routes somewhere; the handful whose
                // fallback selection is empty are answered as SQL NULL and
                // bump neither counter.
                let routed = r.model_served + r.exact_served;
                assert!(
                    routed <= 6_000 && routed > 5_500,
                    "unexpected route accounting at {shards} shards: {routed}/6000"
                );
                assert!(r.qps() > 0.0);
                assert!(
                    r.feedback_fed > 0,
                    "the closed loop must train the model mid-run"
                );
                assert!(r.writer_examples > 0);
                // Nothing leaks from the accounting: everything the fabric
                // consumed was first enqueued, and every loss is counted.
                assert!(r.feedback_fed <= r.feedback_enqueued);
            }
        }

        #[test]
        fn trained_router_serves_mostly_from_the_model() {
            for shards in [1usize, 4] {
                let router = router(true, shards);
                let f = GasSensorSurrogate::new(2, 5);
                let gen = QueryGenerator::for_function(&f, 0.1);
                let mut rng = seeded(23);
                let reader_queries = gen.generate_many(400, &mut rng);
                let writer_queries = gen.generate_many(2_000, &mut rng);
                let r = serve_closed_loop(&router, &reader_queries, 4, &writer_queries);
                assert!(
                    r.model_share() > 0.5,
                    "trained router should clear the gate for most in-distribution \
                     queries (model share {} at {shards} shards)",
                    r.model_share()
                );
            }
        }

        #[test]
        #[should_panic(expected = "at least one reader")]
        fn zero_readers_panics() {
            let _ = serve_closed_loop(&router(false, 1), &[], 0, &[]);
        }
    }
}
