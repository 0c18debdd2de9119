//! Integration tests for the declarative front end and concurrent serving
//! through the facade crate: the SQL surface (`USING EXACT | MODEL |
//! AUTO`), the train/serve snapshot split, the lock-free serving engine
//! under live training, scripted epoch-reclamation interleavings, and
//! counted feedback drops surfacing on query outputs. (What a statement
//! answers and how the trainer learns from it, statement by statement, is
//! `reference_interpreter.rs`.) The
//! [`fault_injection`] battery drives deterministic seeded faults
//! (trainer panics, lock poisoning, queue-overflow bursts, publish
//! stalls) through the same facade and proves each class recovers with
//! zero wrong answers: routes, values and scores stay bit-identical to a
//! fault-free twin, and every lost label is counted and flagged.
//!
//! Property-based suites here run on the in-tree proptest shim: failures
//! print a `REGQ_PROPTEST_SEED=<seed>` repro line.

use regq::core::moments::{MomentPair, MomentsModel};
use regq::prelude::*;
use regq::sql::{Session, SqlError};
use std::sync::Arc;
use std::sync::OnceLock;

struct Fix {
    session: Session,
    model: LlmModel,
    engine_rows: usize,
}

fn fixture() -> &'static Fix {
    static FIX: OnceLock<Fix> = OnceLock::new();
    FIX.get_or_init(|| {
        let field = GasSensorSurrogate::new(2, 21);
        let mut rng = seeded(2);
        let ds = Dataset::from_function(&field, 30_000, SampleOptions::default(), &mut rng);
        let rows = ds.len();
        let engine = ExactEngine::new(Arc::new(ds), AccessPathKind::KdTree);
        let gen = QueryGenerator::for_function(&field, 0.1);

        let mut cfg = ModelConfig::with_vigilance(2, 0.15);
        cfg.gamma = 1e-3;
        let mut model = LlmModel::new(cfg.clone()).unwrap();
        let mut moments = MomentsModel::new(cfg).unwrap();
        for _ in 0..50_000 {
            let q = gen.generate(&mut rng);
            if let Some(mo) = engine.q1_moments(&q.center, q.radius) {
                let a = model.train_step(&q, mo.mean).unwrap().converged;
                let b = moments
                    .train_step(
                        &q,
                        MomentPair {
                            mean: mo.mean,
                            variance: mo.variance,
                        },
                    )
                    .unwrap();
                if a && b {
                    break;
                }
            }
        }

        let mut session = Session::new();
        session.register_table("readings", engine);
        session.register_model("readings", model.clone()).unwrap();
        session.register_moments_model("readings", moments).unwrap();
        Fix {
            session,
            model,
            engine_rows: rows,
        }
    })
}

#[test]
fn sql_exact_and_model_answers_agree() {
    let f = fixture();
    let exact = f
        .session
        .execute("SELECT AVG(u) FROM readings WHERE DIST(x, [0.5, 0.5]) <= 0.15")
        .unwrap();
    let served = f
        .session
        .execute("SELECT AVG(u) FROM readings WHERE DIST(x, [0.5, 0.5]) <= 0.15 USING MODEL")
        .unwrap();
    let (e, m) = (
        exact.scalar().expect("scalar"),
        served.scalar().expect("scalar"),
    );
    assert!((e - m).abs() < 0.12, "exact {e} vs model {m}");
    assert_eq!(exact.route, Route::Exact);
    assert_eq!(served.route, Route::Model);
}

#[test]
fn sql_linreg_list_is_weight_normalized() {
    let f = fixture();
    let out = f
        .session
        .execute("SELECT LINREG(u) FROM readings WHERE DIST(x, [0.5, 0.5]) <= 0.2 USING MODEL")
        .unwrap();
    let list = out.regression().expect("regression list");
    assert!(!list.is_empty());
    let wsum: f64 = list.iter().map(|m| m.weight).sum();
    assert!((wsum - 1.0).abs() < 1e-9);
}

#[test]
fn sql_count_matches_engine_row_semantics() {
    let f = fixture();
    let n = f
        .session
        .execute("SELECT COUNT(*) FROM readings WHERE DIST(x, [0.5, 0.5]) <= 10.0")
        .unwrap()
        .count()
        .expect("count");
    assert_eq!(n, f.engine_rows, "whole-domain ball must count every row");
}

#[test]
fn sql_errors_are_structured() {
    let f = fixture();
    assert!(matches!(
        f.session
            .execute("SELECT AVG(u) FROM nope WHERE DIST(x, [0.5, 0.5]) <= 0.1"),
        Err(SqlError::UnknownTable(_))
    ));
    assert!(matches!(
        f.session.execute("this is not sql"),
        Err(SqlError::Parse(_))
    ));
    // source() threads the cause for structured error reporting.
    use std::error::Error as _;
    let err = f.session.execute("this is not sql").unwrap_err();
    assert!(err.source().is_some());
}

#[test]
fn sql_auto_mode_serves_concurrently_from_one_session() {
    let f = fixture();
    let statements = [
        "SELECT AVG(u) FROM readings WHERE DIST(x, [0.5, 0.5]) <= 0.15 USING AUTO",
        "SELECT AVG(u) FROM readings WHERE DIST(x, [0.2, 0.8]) <= 0.1 USING AUTO",
        "SELECT LINREG(u) FROM readings WHERE DIST(x, [0.5, 0.5]) <= 0.2 USING AUTO",
        "SELECT VAR(u) FROM readings WHERE DIST(x, [0.5, 0.5]) <= 0.2 USING AUTO",
    ];
    let reference: Vec<_> = statements
        .iter()
        .map(|s| f.session.execute(s).unwrap())
        .collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                scope.spawn(|| {
                    statements
                        .iter()
                        .map(|s| f.session.execute(s).unwrap())
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            // The fixture's model is converged (frozen trainer), so the
            // published snapshot is stable and answers are deterministic
            // across threads, routes included.
            assert_eq!(h.join().unwrap(), reference);
        }
    });
}

#[test]
fn frozen_model_serves_concurrently_with_identical_answers() {
    let f = fixture();
    let model = &f.model;
    let gen = QueryGenerator::new(vec![(0.0, 1.0); 2], 0.1, 0.05, 1.0);
    let mut rng = seeded(7);
    let queries = gen.generate_many(512, &mut rng);
    let reference: Vec<f64> = queries
        .iter()
        .map(|q| model.predict_q1(q).unwrap())
        .collect();

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                scope.spawn(|| {
                    queries
                        .iter()
                        .map(|q| model.predict_q1(q).unwrap())
                        .collect::<Vec<f64>>()
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), reference);
        }
    });
}

/// Closed-loop serving: `readers` threads each auto-route their share of
/// `reader_queries` through `router` while the calling thread, the one
/// writer, executes `writer_queries` exactly and feeds the answers back;
/// then whatever the opportunistic pumps left queued is flushed. Returns
/// how many reader queries were answered with a value — the rest were
/// SQL NULL (an empty selection); any other serve error fails the test.
fn closed_loop(
    router: &ShardRouter,
    reader_queries: &[Query],
    readers: usize,
    writer_queries: &[Query],
) -> u64 {
    let answered = std::thread::scope(|scope| {
        let handles: Vec<_> = reader_queries
            .chunks(reader_queries.len().div_ceil(readers))
            .map(|share| {
                scope.spawn(move || {
                    let mut answered = 0;
                    for q in share {
                        match router.q1(q) {
                            Ok(_) => answered += 1,
                            Err(ServeError::EmptySubspace) => {}
                            Err(e) => panic!("closed-loop serve failed: {e}"),
                        }
                    }
                    answered
                })
            })
            .collect();
        for q in writer_queries {
            if let Some(y) = router.exact_engine().q1(&q.center, q.radius) {
                router.observe_outcome(q, y);
            }
        }
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    router.pump();
    answered
}

#[test]
fn closed_loop_serving_exercises_both_routes_under_live_training() {
    let field = GasSensorSurrogate::new(2, 33);
    let mut rng = seeded(11);
    let ds = Arc::new(Dataset::from_function(
        &field,
        20_000,
        SampleOptions::default(),
        &mut rng,
    ));
    let exact = || ExactEngine::new(ds.clone(), AccessPathKind::KdTree);
    let gen = QueryGenerator::for_function(&field, 0.1);
    let config = ModelConfig::with_vigilance(2, 0.08);
    let mut trained = LlmModel::new(config.clone()).unwrap();
    train_from_engine(&mut trained, &exact(), &gen, 10_000, &mut rng).unwrap();
    let router = |model| {
        ShardRouter::with_model(
            exact(),
            model,
            RoutePolicy {
                confidence_threshold: 0.3,
                feedback: true,
                publish_interval: 64,
            },
        )
    };
    // A fresh router falls back, learns from the writer and its own
    // fallbacks, and republishes mid-run.
    let fresh = router(LlmModel::new(config.clone()).unwrap());
    let published = fresh.stats().publishes;
    let reader_queries = gen.generate_many(6_000, &mut rng);
    let writer_queries = gen.generate_many(5_000, &mut rng);
    let answered = closed_loop(&fresh, &reader_queries, 4, &writer_queries);
    let stats = fresh.stats();
    // Every reader query routes somewhere; the handful whose fallback
    // selection is empty are answered as SQL NULL and bump no counter.
    let routed = stats.model_served + stats.exact_served;
    assert_eq!(routed, answered, "route accounting");
    assert!(routed > 5_500, "too many NULLs: {routed}/6000");
    assert!(
        stats.exact_served > 0,
        "a fresh router must fall back at first"
    );
    assert!(
        stats.feedback_fed > 0,
        "the closed loop must train from fallbacks/writer"
    );
    // Nothing leaks from the accounting: everything the trainer consumed
    // was first enqueued, and every loss is counted.
    assert!(stats.feedback_fed <= stats.feedback_enqueued);
    assert!(
        stats.publishes > published,
        "the trainer must republish mid-run"
    );

    // A pre-trained router clears the gate for most in-distribution
    // queries under the same live training.
    let served = router(trained);
    let reader_queries = gen.generate_many(400, &mut rng);
    let writer_queries = gen.generate_many(2_000, &mut rng);
    closed_loop(&served, &reader_queries, 4, &writer_queries);
    let stats = served.stats();
    let share = stats.model_served as f64 / (stats.model_served + stats.exact_served) as f64;
    assert!(
        share > 0.5,
        "trained router should serve mostly from the model (share {share})"
    );
}

mod snapshot_equivalence {
    //! Proptest: `ServingSnapshot` predictions are **bit-identical** to
    //! the mutable `LlmModel` at every publish point, observed from any
    //! number of reader threads (the invariant that makes lock-free
    //! serving sound: a published snapshot is the model, frozen in time).

    use proptest::prelude::*;
    use regq::core::snapshot::ServingSnapshot;
    use regq::prelude::*;

    fn probe_grid() -> Vec<Query> {
        let mut probes = Vec::new();
        for i in 0..4 {
            for j in 0..4 {
                for theta in [0.05, 0.25, 0.7] {
                    probes.push(Query::new_unchecked(
                        vec![i as f64 * 0.5 - 0.25, j as f64 * 0.5 - 0.25],
                        theta,
                    ));
                }
            }
        }
        probes
    }

    fn assert_capture_matches(model: &LlmModel, snap: &ServingSnapshot) {
        assert_eq!(snap.version(), model.steps());
        assert_eq!(snap.prototypes(), model.prototypes());
        for probe in probe_grid() {
            assert_eq!(
                snap.predict_q1_with_confidence(&probe),
                model.predict_q1_with_confidence(&probe)
            );
            let (list, confidence) = snap.predict_q2_with_confidence(&probe).unwrap();
            assert_eq!(Ok(list), model.predict_q2(&probe));
            assert_eq!(Ok(confidence), model.confidence(&probe));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]

        #[test]
        fn snapshots_match_the_model_at_every_publish_point_from_any_thread_count(
            pairs in prop::collection::vec(
                (prop::collection::vec(-1.0..2.0f64, 2), 0.01..0.6f64, -5.0..5.0f64),
                40..140,
            ),
            publish_every in 7usize..40,
            threads in 1usize..5,
        ) {
            let mut model = LlmModel::new(ModelConfig::paper_defaults(2)).unwrap();
            // Publish points: every `publish_every` steps, a (frozen model
            // clone, snapshot) capture pair — exactly what a trainer
            // publishes mid-stream.
            let mut captures: Vec<(LlmModel, ServingSnapshot)> = Vec::new();
            for (i, (c, r, y)) in pairs.iter().enumerate() {
                let q = Query::new_unchecked(c.clone(), *r);
                model.train_step(&q, *y).unwrap();
                if i % publish_every == 0 {
                    captures.push((model.clone(), model.snapshot()));
                }
            }
            captures.push((model.clone(), model.snapshot()));

            // Any number of concurrent readers observe every capture
            // bit-identically (thread-local serving scratch, shared
            // immutable snapshots).
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..threads)
                    .map(|_| {
                        scope.spawn(|| {
                            for (m, s) in &captures {
                                assert_capture_matches(m, s);
                            }
                        })
                    })
                    .collect();
                for h in handles {
                    h.join().unwrap();
                }
            });
        }
    }
}

mod epoch_reclamation {
    //! Scripted interleavings of the `SnapshotCell` publish/read/free
    //! protocol — the epoch state machine driven **single-threaded** so
    //! every hazard window is hit deterministically on every run, with
    //! retention counted at each step. (The multi-threaded stress
    //! companion lives in `regq_serve`'s unit suite; this battery pins
    //! the protocol itself.)

    use regq::prelude::*;

    #[test]
    fn scripted_publish_between_announce_and_validate_is_caught() {
        let cell: SnapshotCell<u64> = SnapshotCell::with_snapshot(1);
        assert_eq!(cell.epoch(), 1);
        assert_eq!(cell.retained(), 1);

        // t0: the reader announces the current epoch into its hazard slot.
        let mut r1 = cell.reader();
        r1.announce();

        // t1: the writer publishes *inside* the reader's announce→validate
        // window — the classic hazard. The announced node is pinned by the
        // slot, so the writer must retain both epochs.
        cell.publish(2);
        assert_eq!(cell.retained(), 2, "pinned epoch 1 + current epoch 2");

        // t2: validation fails (current moved since the announce), which
        // is exactly what keeps the pinned-but-stale value from being
        // served as current.
        assert!(
            r1.validate().is_none(),
            "a publish inside the announce window must fail validation"
        );

        // t3: the retry loop lands on the new epoch.
        {
            let g = r1.enter();
            assert_eq!(g.get(), Some(&2));
            assert_eq!(g.epoch(), Some(2));

            // t4: a publish while the guard pins epoch 2 frees the now
            // unpinned epoch 1 but must keep 2 (pinned) and 3 (current).
            cell.publish(3);
            assert_eq!(cell.retained(), 2, "epoch 1 freed; 2 pinned, 3 current");

            // t5: a second reader sees the new current while the first
            // still holds the old epoch — no reader blocks another.
            let mut r2 = cell.reader();
            let g2 = r2.enter();
            assert_eq!(g2.get(), Some(&3));
            assert_eq!(g2.epoch(), Some(3));
        }

        // t6: both guards dropped — reclaim frees everything but current.
        cell.reclaim();
        assert_eq!(cell.retained(), 1, "only the current epoch survives");
        assert_eq!(cell.load_owned(), Some(3));
    }

    #[test]
    fn retention_is_bounded_by_pinned_readers_plus_current() {
        let cell: SnapshotCell<u64> = SnapshotCell::new();
        assert_eq!(cell.epoch(), 0);

        // With no readers the writer self-cleans: retention never grows
        // past the current epoch no matter how many stream through.
        for v in 1..=50u64 {
            cell.publish(v);
            assert_eq!(cell.retained(), 1, "unpinned epochs must free on publish");
        }

        // Three readers pin three *distinct* epochs via their hazard
        // slots (an announce is a pin even before validation — the writer
        // may never free an announced node).
        let mut r1 = cell.reader();
        let mut r2 = cell.reader();
        let mut r3 = cell.reader();
        r1.announce(); // pins epoch 50
        cell.publish(51);
        r2.announce(); // pins epoch 51
        cell.publish(52);
        r3.announce(); // pins epoch 52
        cell.publish(53);
        assert_eq!(cell.reader_slots(), 3);
        assert_eq!(cell.retained(), 4, "three pinned epochs + current");
        assert!(
            cell.retained() <= cell.reader_slots() + 1,
            "the memory bound"
        );

        // Dropping handles retires their slots; reclaim frees their pins
        // one by one, never touching the current epoch.
        drop(r1);
        cell.reclaim();
        assert_eq!(cell.retained(), 3);
        drop(r2);
        drop(r3);
        cell.reclaim();
        assert_eq!(cell.retained(), 1);
        assert_eq!(cell.reader_slots(), 0);
        assert_eq!(cell.load_owned(), Some(53));
    }
}

#[test]
fn feedback_queue_drops_are_counted_and_surface_through_sql() {
    use regq::core::moments::{MomentPair, MomentsModel};
    use regq::sql::Session;

    // A self-contained table with a 1-slot feedback queue. A two-statement
    // script offers both fallbacks' labels in one batch: the first takes
    // the slot, the second overflows, and the overflow is a *counted*
    // drop (never a silent one).
    let field = GasSensorSurrogate::new(2, 13);
    let mut rng = seeded(17);
    let ds = Arc::new(Dataset::from_function(
        &field,
        5_000,
        SampleOptions::default(),
        &mut rng,
    ));

    let cfg = ModelConfig::with_vigilance(2, 0.15);
    let mut model = LlmModel::new(cfg.clone()).unwrap();
    let q0 = Query::new_unchecked(vec![0.5, 0.5], 0.1);
    model.train_step(&q0, 0.0).unwrap();
    let mut moments = MomentsModel::new(cfg).unwrap();
    moments
        .train_step(
            &q0,
            MomentPair {
                mean: 0.0,
                variance: 1.0,
            },
        )
        .unwrap();
    let mut frozen = model.clone();
    frozen.freeze();

    let mut session = Session::new();
    for (table, model) in [("readings", model), ("archive", frozen)] {
        session.register_table_with_policy(
            table,
            ExactEngine::new(ds.clone(), AccessPathKind::KdTree),
            RoutePolicy {
                confidence_threshold: 2.0, // force exact routing; feedback still flows
                feedback: true,
                publish_interval: 64,
            },
        );
        session.register_model(table, model).unwrap();
        session.set_feedback_queue_capacity(table, 1).unwrap();
    }
    session.register_moments_model("readings", moments).unwrap();

    let sql = "SELECT AVG(u) FROM readings WHERE DIST(x, [0.5, 0.5]) <= 0.2 USING AUTO";
    let out = session.execute_batch(&format!("{sql}; {sql}")).unwrap();
    assert_eq!(out[0].route, Route::Exact);
    assert!(
        !out[0].feedback_dropped,
        "the first example fits the 1-slot queue"
    );
    assert!(
        out[1].feedback_dropped,
        "overflow must surface on the answer, not vanish"
    );
    let stats = session.router("readings").unwrap().stats();
    assert_eq!(stats.feedback_enqueued, 1);
    assert_eq!(stats.feedback_dropped, 1, "drops must be counted");
    assert_eq!(stats.feedback_declined, 0);

    // A trainer that cannot train is not offered feedback at all: behind a
    // frozen model the same script loses nothing, fills no queue, and the
    // two labels are counted as declined.
    let sql = sql.replace("readings", "archive");
    let out = session.execute_batch(&format!("{sql}; {sql}")).unwrap();
    assert!(out
        .iter()
        .all(|o| o.route == Route::Exact && !o.feedback_dropped));
    assert!(!session.execute(&sql).unwrap().feedback_dropped);
    let stats = session.router("archive").unwrap().stats();
    assert_eq!(
        (
            stats.feedback_enqueued,
            stats.feedback_dropped,
            stats.feedback_declined
        ),
        (0, 0, 3)
    );
}

mod fault_injection {
    //! The fault battery: scripted, deterministic injections through the
    //! facade proving each fault class *recovers* — no wrong answers, no
    //! silent losses. Routes, values and scores stay bit-identical to a
    //! fault-free twin; every firing is answered by a counted
    //! restart/heal or a counted, flagged drop in the stats.

    use rand::RngExt;
    use regq::data::SeededRng;
    use regq::prelude::*;
    use std::sync::{Arc, OnceLock};

    fn shared_data() -> Arc<Dataset> {
        static DATA: OnceLock<Arc<Dataset>> = OnceLock::new();
        DATA.get_or_init(|| {
            let field = GasSensorSurrogate::new(2, 9);
            let mut rng = seeded(71);
            Arc::new(Dataset::from_function(
                &field,
                20_000,
                SampleOptions::default(),
                &mut rng,
            ))
        })
        .clone()
    }

    fn exact() -> ExactEngine {
        ExactEngine::new(shared_data(), AccessPathKind::KdTree)
    }

    /// A converged model over the shared data (frozen by the callers
    /// that need training pinned).
    fn trained_model() -> LlmModel {
        static MODEL: OnceLock<LlmModel> = OnceLock::new();
        MODEL
            .get_or_init(|| {
                let engine = exact();
                let mut rng = seeded(72);
                let mut cfg = ModelConfig::with_vigilance(2, 0.15);
                cfg.gamma = 1e-3;
                let mut model = LlmModel::new(cfg).unwrap();
                let gen = QueryGenerator::new(vec![(0.0, 1.0), (0.0, 1.0)], 0.1, 0.1, 1.0);
                for _ in 0..30_000 {
                    let q = gen.generate(&mut rng);
                    if let Some(y) = engine.q1(&q.center, q.radius) {
                        if model.train_step(&q, y).unwrap().converged {
                            break;
                        }
                    }
                }
                model
            })
            .clone()
    }

    fn probes() -> Vec<Query> {
        let mut probes = Vec::new();
        for i in 0..5 {
            for j in 0..5 {
                for theta in [0.05, 0.15, 0.45] {
                    probes.push(Query::new_unchecked(
                        vec![0.1 + i as f64 * 0.2, 0.1 + j as f64 * 0.2],
                        theta,
                    ));
                }
            }
        }
        probes
    }

    /// The drift: the workload's focus walks the diagonal from 0.25 to
    /// 0.75 over `RAMP` queries from query `DRIFT_AT` on.
    const DRIFT_AT: usize = 3_000;
    const RAMP: usize = 500;
    /// Queries per route tally.
    const WINDOW: usize = 250;
    /// A post-drift window has recovered once its model share is back to
    /// this fraction of the last pre-drift window's.
    const RECOVERY_FRACTION: f64 = 0.7;

    /// Drift progress at stream position `i`: 0 before the drift, a
    /// linear ramp across it, 1 after.
    fn phase(i: usize) -> f64 {
        (i.saturating_sub(DRIFT_AT) as f64 / RAMP as f64).min(1.0)
    }

    /// The `i`-th query of the drifting stream `rng` draws: centre
    /// uniform within ±0.08 of the focus, radius uniform in [0.08, 0.16).
    fn drifting_query(i: usize, rng: &mut SeededRng) -> Query {
        let focus = 0.25 + phase(i) * 0.5;
        let center = (0..2)
            .map(|_| focus + rng.random_range(-0.08..0.08))
            .collect();
        Query::new_unchecked(center, rng.random_range(0.08..0.16))
    }

    /// Drives a fresh learner through 8,000 drifting queries in a
    /// single-threaded closed loop (`q1` auto-routing: confident snapshot
    /// serves, exact fallbacks feeding the trainer) under `plan`, and
    /// tallies `[model-side, exact]` answers per [`WINDOW`] queries; then
    /// the feedback queue is drained. A NULL counts on neither side.
    /// Deterministic: the recovery point is a property of the learner,
    /// not of thread timing.
    fn drift(plan: Option<FaultPlan>) -> (ShardRouter, Vec<[usize; 2]>) {
        let mut router = ShardRouter::with_model(
            exact(),
            LlmModel::new(ModelConfig::with_vigilance(2, 0.08)).unwrap(),
            RoutePolicy {
                confidence_threshold: 0.3,
                feedback: true,
                publish_interval: 32,
            },
        );
        if let Some(plan) = plan {
            router.set_fault_plan(plan);
        }
        let mut rng = seeded(33);
        let mut windows = vec![[0usize; 2]; 8_000 / WINDOW];
        for i in 0..8_000 {
            match router.q1(&drifting_query(i, &mut rng)) {
                Ok(served) => windows[i / WINDOW][usize::from(served.route == Route::Exact)] += 1,
                Err(ServeError::EmptySubspace) => {}
                Err(e) => panic!("drift loop hit a non-workload error: {e}"),
            }
        }
        router.pump();
        (router, windows)
    }

    fn model_share([model, exact]: [usize; 2]) -> f64 {
        model as f64 / (model + exact).max(1) as f64
    }

    /// The pre-drift baseline share, and the queries from the drift's
    /// onset to the first window after the ramp whose share is back to
    /// [`RECOVERY_FRACTION`] of it (`None`: never).
    fn recovery(windows: &[[usize; 2]]) -> (f64, Option<usize>) {
        let baseline = model_share(windows[DRIFT_AT / WINDOW - 1]);
        let at = ((DRIFT_AT + RAMP).div_ceil(WINDOW)..windows.len())
            .find(|&w| model_share(windows[w]) >= RECOVERY_FRACTION * baseline);
        (baseline, at.map(|w| w * WINDOW - DRIFT_AT))
    }

    #[test]
    fn the_drifting_valley_is_deterministic() {
        assert_eq!((phase(0), phase(DRIFT_AT)), (0.0, 0.0));
        assert!(phase(DRIFT_AT + 250) > 0.0 && phase(DRIFT_AT + 250) < 1.0);
        assert_eq!((phase(DRIFT_AT + RAMP), phase(10_000)), (1.0, 1.0));
        let (mut a, mut b) = (seeded(7), seeded(7));
        for i in (0..8_000).step_by(80) {
            let q = drifting_query(i, &mut a);
            assert_eq!(q, drifting_query(i, &mut b));
            let focus = 0.25 + 0.5 * phase(i);
            assert!(q.center.iter().all(|c| (c - focus).abs() <= 0.08));
            assert!((0.08..0.16).contains(&q.radius));
        }
    }

    #[test]
    fn a_clean_drift_dips_spikes_and_recovers() {
        let (_, windows) = drift(None);
        let (baseline, recovered) = recovery(&windows);
        assert!(
            baseline > 0.5,
            "never learned the pre-drift region: baseline {baseline}"
        );
        let after = &windows[DRIFT_AT / WINDOW..];
        let dip = after.iter().copied().map(model_share).fold(1.0, f64::min);
        assert!(dip < baseline, "drift caused no dip: {dip} vs {baseline}");
        // The fallback spike is what retrains: some window at/after the
        // drift leans on the exact engine harder than the last calm one.
        let spike = after.iter().map(|w| w[1]).max().unwrap();
        let calm = windows[DRIFT_AT / WINDOW - 1][1];
        assert!(spike > calm, "no fallback spike: {spike} vs {calm}");
        let recovered = recovered.expect("the fabric never recovered from the drift");
        assert!(recovered <= 5_000, "recovery too slow: {recovered} queries");
    }

    #[test]
    fn injected_trainer_panics_recover_in_the_live_closed_loop() {
        let (_, clean) = recovery(&drift(None).1);
        // Silence the supervisor-caught injected panics' default-hook
        // spam (the loop stays single-threaded and deterministic).
        std::panic::set_hook(Box::new(|_| {}));
        let mix = [
            FaultKind::TrainerPanic,
            FaultKind::LockPoison,
            FaultKind::QueueOverflow,
        ];
        for (kinds, seed, horizon) in [(&mix[..1], 99, 500), (&mix[..], 43, 300)] {
            let plan = FaultPlan::seeded(kinds, seed, horizon, 4);
            let (router, windows) = drift(Some(plan.clone()));
            for &kind in kinds {
                assert!(plan.fired(kind) > 0, "the seeded {kind:?} never fired");
            }
            let stats = router.stats();
            assert_eq!(
                (stats.trainer_panics, stats.lock_poisonings),
                (
                    plan.fired(FaultKind::TrainerPanic),
                    plan.fired(FaultKind::LockPoison)
                ),
                "every firing is counted, and nothing else"
            );
            assert_eq!(
                stats.trainer_restarts,
                stats.trainer_panics + stats.lock_poisonings,
                "every fault must be answered by a counted restart"
            );
            assert_eq!(
                router.quarantined().len(),
                stats.trainer_panics as usize,
                "every poisonous example must be retrievable"
            );
            // No example vanishes: each fallback's is queued or counted as
            // dropped (one per overflow burst), and each queued one is fed
            // or quarantined.
            assert_eq!(
                stats.feedback_enqueued + stats.feedback_dropped,
                stats.exact_served
            );
            assert_eq!(stats.feedback_dropped, plan.fired(FaultKind::QueueOverflow));
            assert_eq!(
                stats.feedback_fed + stats.trainer_panics,
                stats.feedback_enqueued
            );
            let (_, recovered) = recovery(&windows);
            assert!(
                recovered.is_some(),
                "the supervised loop must still recover from drift: {windows:?}"
            );
            assert_eq!(recovered, clean, "faults must not delay the recovery");
        }
        let _ = std::panic::take_hook();
    }

    #[test]
    fn a_stalled_publish_never_blocks_serving() {
        let mut model = trained_model();
        model.freeze();
        let mut router = ShardRouter::with_model(
            exact(),
            model,
            RoutePolicy {
                feedback: false,
                ..RoutePolicy::default()
            },
        );
        let probe = Query::new_unchecked(vec![0.5, 0.5], 0.15);
        // Serve once first: this registers the main thread's hazard-slot
        // reader, which is what lets it ignore the wedged writer below.
        let before = router.q1(&probe).unwrap();
        assert_eq!(before.route, Route::Model);
        let (plan, gate) = FaultPlan::new()
            .inject(FaultKind::PublishStall, &[1])
            .with_publish_gate();
        router.set_fault_plan(plan.clone());
        let router = &router;
        std::thread::scope(|scope| {
            let writer = scope.spawn(move || router.publish_now());
            while plan.fired(FaultKind::PublishStall) == 0 {
                std::hint::spin_loop();
            }
            // The writer is wedged mid-publish holding the cell's state
            // lock; the serve path must keep answering from the current
            // snapshot, bit-identically.
            for _ in 0..100 {
                let served = router.q1(&probe).unwrap();
                assert_eq!(served.route, Route::Model);
                assert_eq!(served.value.to_bits(), before.value.to_bits());
                assert_eq!(served.snapshot_version, before.snapshot_version);
            }
            gate.release();
            writer.join().unwrap();
        });
    }

    #[test]
    fn overflow_bursts_surface_through_sql_as_counted_drops() {
        use regq::sql::Session;
        // Unfrozen: a frozen trainer is not offered feedback to begin with.
        let mut model = trained_model();
        model.unfreeze();
        let mut session = Session::new();
        session.register_table_with_policy(
            "readings",
            exact(),
            RoutePolicy {
                confidence_threshold: 2.0, // force exact; feedback flows
                feedback: true,
                publish_interval: 64,
            },
        );
        session.register_model("readings", model).unwrap();
        session
            .set_fault_plan(
                "readings",
                FaultPlan::new().inject(FaultKind::QueueOverflow, &[1]),
            )
            .unwrap();
        let sql = "SELECT AVG(u) FROM readings WHERE DIST(x, [0.5, 0.5]) <= 0.2";
        let burst = session.execute(sql).unwrap();
        assert_eq!(burst.route, Route::Exact, "the answer itself is exact");
        assert!(burst.feedback_dropped, "the burst must surface as a drop");
        let calm = session.execute(sql).unwrap();
        assert!(!calm.feedback_dropped, "the burst is over");
        let stats = session.router("readings").unwrap().stats();
        assert_eq!(stats.feedback_dropped, 1);
    }

    #[test]
    fn fault_battery_answers_match_the_fault_free_twin_bit_for_bit() {
        // A trainer that learns, so every fallback offers its label and
        // each enqueue pumps — the injection points of both armed kinds.
        // The threshold sends about two probes in five to the exact
        // engine. The publish interval lies beyond every label the probes
        // feed, so both twins serve their first snapshot throughout: any
        // divergence in an answer is a serving bug.
        let mut model = trained_model();
        model.unfreeze();
        let policy = RoutePolicy {
            confidence_threshold: 0.6,
            feedback: true,
            publish_interval: 1_024,
        };
        let free = ShardRouter::with_model(exact(), model.clone(), policy);
        let mut armed = ShardRouter::with_model(exact(), model, policy);
        let plan = FaultPlan::new()
            .inject(FaultKind::LockPoison, &[2, 5])
            .inject(FaultKind::QueueOverflow, &[1, 4, 7]);
        armed.set_fault_plan(plan.clone());
        std::panic::set_hook(Box::new(|_| {})); // injected poisoners
        let mut routes = [0usize; 2];
        for probe in probes() {
            match (free.q1(&probe), armed.q1(&probe)) {
                (Ok(f), Ok(a)) => {
                    routes[usize::from(f.route == Route::Exact)] += 1;
                    assert_eq!(f.route, a.route, "routes diverged at {probe:?}");
                    assert_eq!(f.value.to_bits(), a.value.to_bits());
                    assert_eq!(f.score.map(f64::to_bits), a.score.map(f64::to_bits));
                    assert_eq!(f.snapshot_version, a.snapshot_version);
                }
                (Err(ServeError::EmptySubspace), Err(ServeError::EmptySubspace)) => {}
                (f, a) => panic!("outcomes diverged: {f:?} vs {a:?}"),
            }
        }
        let _ = std::panic::take_hook();
        assert!(routes.iter().all(|&n| n > 0), "one route only: {routes:?}");
        // Locking the trainer heals a poisoning the last pump left.
        armed.merged_model();
        for kind in [FaultKind::LockPoison, FaultKind::QueueOverflow] {
            assert!(plan.fired(kind) > 0, "the armed {kind:?} never fired");
        }
        let stats = armed.stats();
        assert_eq!(stats.lock_poisonings, plan.fired(FaultKind::LockPoison));
        assert_eq!(
            stats.trainer_restarts, stats.lock_poisonings,
            "every poisoning healed by a counted restart (and nothing else fired)"
        );
        assert_eq!(stats.feedback_dropped, plan.fired(FaultKind::QueueOverflow));
        assert_eq!(free.stats().feedback_dropped, 0);
        assert_eq!(
            (stats.publishes, free.stats().publishes),
            (1, 1),
            "both twins serve their first snapshot"
        );
    }
}
