//! Integration tests for the declarative front end and concurrent serving
//! through the facade crate: the SQL surface (`USING EXACT | MODEL |
//! AUTO`), the train/serve snapshot split, the lock-free serving engine
//! under live training, and the sharded fabric's battery — shard
//! bit-identity (proptest), scripted epoch-reclamation interleavings, and
//! counted feedback drops surfacing on query outputs. The
//! [`fault_injection`] battery drives deterministic seeded faults
//! (trainer panics, lock poisoning, queue-overflow bursts, publish
//! stalls, deadline pressure) through the same facade and proves each
//! class recovers with zero wrong answers: non-degraded routes stay
//! bit-identical to a fault-free twin and degraded serves are always
//! flagged.
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
fn sql_auto_mode_gates_on_confidence_end_to_end() {
    let f = fixture();
    // Far-but-data-rich ball: the snapshot is consulted, doubts itself,
    // and the exact engine answers — with the score reported.
    let low = f
        .session
        .execute("SELECT AVG(u) FROM readings WHERE DIST(x, [40.0, 40.0]) <= 60.0 USING AUTO")
        .unwrap();
    assert_eq!(low.route, Route::Exact);
    assert!(low.confidence.is_some(), "snapshot must be consulted");
    let exact = f
        .session
        .execute("SELECT AVG(u) FROM readings WHERE DIST(x, [40.0, 40.0]) <= 60.0")
        .unwrap();
    assert_eq!(low.scalar().unwrap(), exact.scalar().unwrap());

    // At a mature prototype's own subspace the gate clears and the model
    // serves with zero data access.
    let router = f.session.router("readings").unwrap();
    let protos = router.merged_model().unwrap().prototypes();
    let p = protos.iter().max_by_key(|p| p.updates).unwrap();
    let sql = format!(
        "SELECT AVG(u) FROM readings WHERE DIST(x, [{}, {}]) <= {} USING AUTO",
        p.center[0], p.center[1], p.radius
    );
    let high = f.session.execute(&sql).unwrap();
    assert_eq!(high.route, Route::Model, "score {:?}", high.confidence);
    assert!(high.confidence.unwrap() >= 0.3);
    assert!(high.scalar().unwrap().is_finite());
    assert!(high.snapshot_version.is_some());
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

#[test]
fn closed_loop_serving_exercises_both_routes_under_live_training() {
    use regq::workload::serve_closed_loop;
    let field = GasSensorSurrogate::new(2, 33);
    let mut rng = seeded(11);
    let ds = Dataset::from_function(&field, 20_000, SampleOptions::default(), &mut rng);
    let exact = ExactEngine::new(Arc::new(ds), AccessPathKind::KdTree);
    let router = ShardRouter::with_model(
        exact,
        LlmModel::new(ModelConfig::with_vigilance(2, 0.08)).unwrap(),
        RoutePolicy {
            confidence_threshold: 0.3,
            feedback: true,
            publish_interval: 64,
            ..RoutePolicy::default()
        },
        1,
    );
    let gen = QueryGenerator::for_function(&field, 0.1);
    let reader_queries = gen.generate_many(3_000, &mut rng);
    let writer_queries = gen.generate_many(20_000, &mut rng);
    let r = serve_closed_loop(&router, &reader_queries, 4, &writer_queries);
    assert_eq!(r.queries, 3_000);
    assert!(r.exact_served > 0, "a fresh router must fall back at first");
    assert!(
        r.feedback_fed > 0,
        "the closed loop must train from fallbacks/writer"
    );
    assert!(r.publishes >= 1, "the trainer must republish mid-run");
    let stats = router.stats();
    assert_eq!(
        stats.model_served + stats.exact_served,
        r.model_served + r.exact_served
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

mod shard_equivalence {
    //! Proptest: the `ShardRouter`'s fused cross-shard answer is
    //! **bit-identical** to the unsharded model it was partitioned from
    //! — routes, values, confidence scores and Q2 lists — at 1, 2, 4 and
    //! 8 shards, including wide balls that straddle every shard boundary.
    //! The oracle is the model's own snapshot through the **unpruned
    //! scalar** predictors (the path furthest from the pruned, fused one
    //! production runs) plus the exact engine for fallbacks. This is the
    //! invariant that makes sharding a pure throughput decision: no
    //! answer may depend on the shard count.

    use proptest::prelude::*;
    use regq::linalg::LinalgError;
    use regq::prelude::*;
    use std::sync::{Arc, OnceLock};

    /// One shared dataset (exact fallback must agree too, so every engine
    /// instance wraps the same rows behind the same access path).
    fn shared_exact() -> ExactEngine {
        static DATA: OnceLock<Arc<Dataset>> = OnceLock::new();
        let data = DATA.get_or_init(|| {
            let field = GasSensorSurrogate::new(2, 5);
            let mut rng = seeded(55);
            Arc::new(Dataset::from_function(
                &field,
                8_000,
                SampleOptions::default(),
                &mut rng,
            ))
        });
        ExactEngine::new(data.clone(), AccessPathKind::KdTree)
    }

    /// What the router must answer, decided by the unsharded model alone:
    /// its prediction above the threshold, the exact answer (with the
    /// rejecting score attached) below it, `None` = an empty selection.
    fn expected<T>(
        (value, conf): (T, Confidence),
        threshold: f64,
        exact: impl FnOnce() -> Option<T>,
    ) -> Option<(Route, T, u64)> {
        if conf.score >= threshold {
            Some((Route::Model, value, conf.score.to_bits()))
        } else {
            exact().map(|y| (Route::Exact, y, conf.score.to_bits()))
        }
    }

    fn observed<T>(served: Result<Served<T>, ServeError>) -> Option<(Route, T, u64)> {
        match served {
            Ok(s) => Some((
                s.route,
                s.value,
                s.score.expect("snapshot consulted").to_bits(),
            )),
            Err(ServeError::EmptySubspace) => None,
            Err(e) => panic!("unexpected serve error: {e}"),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn shard_router_answers_are_bit_identical_to_the_unsharded_model(
            pairs in prop::collection::vec(
                (prop::collection::vec(0.0..1.0f64, 2), 0.02..0.5f64, -3.0..3.0f64),
                30..90,
            ),
            probes in prop::collection::vec(
                // Centers beyond the data domain and radii up to 1.2 (the
                // whole unit square) force boundary-straddling balls whose
                // overlap set spans several shards.
                (prop::collection::vec(-0.3..1.3f64, 2), 0.01..1.2f64),
                20..40,
            ),
        ) {
            let mut model = LlmModel::new(ModelConfig::with_vigilance(2, 0.2)).unwrap();
            for (c, r, y) in &pairs {
                model.train_step(&Query::new_unchecked(c.clone(), *r), *y).unwrap();
            }
            // Feedback off: the routers hold the published model fixed, so
            // any divergence is the fusion itself, not training drift.
            let policy = RoutePolicy { feedback: false, ..RoutePolicy::default() };
            let threshold = policy.confidence_threshold;
            let (snap, exact) = (model.snapshot(), shared_exact());
            for shards in [1usize, 2, 4, 8] {
                let router =
                    ShardRouter::with_model(shared_exact(), model.clone(), policy, shards);
                for (c, r) in &probes {
                    let q = Query::new_unchecked(c.clone(), *r);
                    let (y, conf) = snap.predict_q1_with_confidence(&q).unwrap();
                    prop_assert_eq!(
                        observed(router.q1(&q).map(|s| s.map_value(f64::to_bits))),
                        expected((y.to_bits(), conf), threshold, || {
                            exact.q1(&q.center, q.radius).map(f64::to_bits)
                        }),
                        "q1 at {} shards", shards
                    );
                    prop_assert_eq!(
                        observed(router.q2(&q)),
                        expected(snap.predict_q2_with_confidence(&q).unwrap(), threshold, || {
                            match exact.q1_reg_fused(&q.center, q.radius) {
                                Ok(fit) => Some(vec![LocalModel {
                                    intercept: fit.model.intercept,
                                    slope: fit.model.slope.into(),
                                    prototype: 0,
                                    weight: 1.0,
                                    center: q.center.clone().into(),
                                    radius: q.radius,
                                }]),
                                Err(LinalgError::Empty) => None,
                                Err(e) => panic!("unexpected exact error: {e}"),
                            }
                        }),
                        "q2 at {} shards", shards
                    );
                }
            }
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
    // the slot, the second overflows, and with no retry budget sustained
    // pressure becomes a *counted* drop (never a silent one).
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
                ..RoutePolicy::default()
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
    //! The PR 8 fault battery: scripted, deterministic injections through
    //! the facade proving each fault class *recovers* — no wrong answers,
    //! no silent losses. Non-degraded routes stay bit-identical to a
    //! fault-free twin; degraded serves are always flagged
    //! [`Route::Degraded`]; every firing is answered by a counted
    //! restart/heal/retry in the stats.

    use regq::prelude::*;
    use regq::workload::{drift_recovery_loop, ShiftingValley};
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

    #[test]
    fn injected_trainer_panics_recover_in_the_live_closed_loop() {
        // Silence the supervisor-caught injected panics' default-hook
        // spam (the test stays single-threaded and deterministic).
        std::panic::set_hook(Box::new(|_| {}));
        let mut router = ShardRouter::with_model(
            exact(),
            LlmModel::new(ModelConfig::with_vigilance(2, 0.08)).unwrap(),
            RoutePolicy {
                confidence_threshold: 0.3,
                feedback: true,
                publish_interval: 32,
                ..RoutePolicy::default()
            },
            2,
        );
        router.set_fault_plan(FaultPlan::seeded(&[FaultKind::TrainerPanic], 99, 500, 4));
        let valley = ShiftingValley {
            start: vec![0.3, 0.3],
            end: vec![0.7, 0.7],
            radius_min: 0.08,
            radius_max: 0.16,
            jitter: 0.08,
            drift_at: 1_500,
            drift_len: 300,
        };
        let report = drift_recovery_loop(&router, &valley, 4_000, 200, 101);
        let _ = std::panic::take_hook();
        let stats = router.stats();
        assert!(stats.trainer_panics > 0, "the seeded plan never fired");
        assert_eq!(
            stats.trainer_restarts, stats.trainer_panics,
            "every panic must be answered by a counted restart"
        );
        assert_eq!(
            router.quarantined().len(),
            stats.trainer_panics as usize,
            "every poisonous example must be retrievable"
        );
        assert!(
            report.recovered_at.is_some(),
            "the supervised loop must still recover from drift: {report:?}"
        );
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
            1,
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
    fn overflow_bursts_surface_through_sql_until_given_a_retry_budget() {
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
                ..RoutePolicy::default()
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
        assert!(
            burst.feedback_dropped,
            "with no retry budget the burst must surface as a drop"
        );
        let calm = session.execute(sql).unwrap();
        assert!(!calm.feedback_dropped, "the burst is over");
        let stats = session.router("readings").unwrap().stats();
        assert_eq!(stats.feedback_dropped, 1);
        // The same burst with a retry budget is absorbed invisibly.
        let mut learner = trained_model();
        learner.unfreeze();
        let mut patient = Session::new();
        patient.register_table_with_policy(
            "patient",
            exact(),
            RoutePolicy {
                confidence_threshold: 2.0,
                feedback: true,
                publish_interval: 64,
                overflow_retries: 2,
                ..RoutePolicy::default()
            },
        );
        patient.register_model("patient", learner).unwrap();
        patient
            .set_fault_plan(
                "patient",
                FaultPlan::new().inject(FaultKind::QueueOverflow, &[1]),
            )
            .unwrap();
        let sql = "SELECT AVG(u) FROM patient WHERE DIST(x, [0.5, 0.5]) <= 0.2";
        let absorbed = patient.execute(sql).unwrap();
        assert!(!absorbed.feedback_dropped, "the retry must absorb it");
        let stats = patient.router("patient").unwrap().stats();
        assert_eq!(stats.feedback_dropped, 0);
        assert!(stats.feedback_retried >= 1, "retries must be counted");
    }

    #[test]
    fn fault_battery_answers_match_the_fault_free_twin_bit_for_bit() {
        let mut model = trained_model();
        model.freeze(); // pin training: divergence would be a serving bug
        let free = ShardRouter::with_model(
            exact(),
            model.clone(),
            RoutePolicy {
                feedback: true,
                ..RoutePolicy::default()
            },
            2,
        );
        let mut armed = ShardRouter::with_model(
            exact(),
            model,
            RoutePolicy {
                feedback: true,
                deadline_us: Some(50.0), // the hint below trips this
                overflow_retries: 1,
                ..RoutePolicy::default()
            },
            2,
        );
        armed.set_fault_plan(
            FaultPlan::seeded(
                &[FaultKind::LockPoison, FaultKind::QueueOverflow],
                13,
                40,
                3,
            )
            .with_exact_cost_hint_us(1e6),
        );
        std::panic::set_hook(Box::new(|_| {})); // injected poisoners
        let mut degraded = 0usize;
        for probe in probes() {
            match (free.q1(&probe), armed.q1(&probe)) {
                (Ok(f), Ok(a)) if a.route == Route::Degraded => {
                    degraded += 1;
                    // A degraded serve is the *flagged* fused snapshot
                    // answer — provably right, not approximately right.
                    assert_eq!(f.route, Route::Exact, "both gates saw the same score");
                    let reference = armed.q1_model(&probe).unwrap();
                    assert_eq!(a.value.to_bits(), reference.value.to_bits());
                }
                (Ok(f), Ok(a)) => {
                    assert_eq!(f.route, a.route, "routes diverged at {probe:?}");
                    assert_eq!(f.value.to_bits(), a.value.to_bits());
                    assert_eq!(f.score.map(f64::to_bits), a.score.map(f64::to_bits));
                }
                (Err(ServeError::EmptySubspace), Err(ServeError::EmptySubspace)) => {}
                (f, a) => panic!("outcomes diverged: {f:?} vs {a:?}"),
            }
        }
        let _ = std::panic::take_hook();
        assert!(degraded > 0, "the deadline budget never tripped");
        let stats = armed.stats();
        assert_eq!(stats.degraded_served, degraded as u64);
        assert_eq!(
            stats.trainer_restarts, stats.lock_poisonings,
            "every poisoning healed by a counted restart (and nothing else fired)"
        );
        assert_eq!(stats.trainer_panics, 0, "frozen trainers cannot panic");
        assert_eq!(
            stats.feedback_dropped, 0,
            "retry budget must absorb the bursts"
        );
        assert_eq!(free.stats().degraded_served, 0);
    }
}
