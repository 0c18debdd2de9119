//! One differential oracle from SQL text down.
//!
//! A reference interpreter, written here from the paper's contract, runs
//! every script beside a real [`Session`] over the same tables:
//!
//! * it binds a statement as the session does (table, dimensionality,
//!   a validated ball);
//! * `USING MODEL` answers come from [`ServingSnapshot`]'s unpruned oracle
//!   (Algorithms 2–3 as printed) over its own capture of the trainer at
//!   the last publish; `VAR` from the variance head's;
//! * `USING EXACT` answers and fallbacks come from a twin kd-tree
//!   [`ExactEngine`], each checked against a scan within 1e-9 (a
//!   `LINREG` fit by its value at the ball's centre);
//! * `USING AUTO` serves the capture when its score is at least the
//!   policy's threshold and falls back otherwise; a run of `AUTO` `AVG` or
//!   `LINREG` statements on one table consults one capture for the run;
//! * every label that goes back — fallbacks, forced `EXACT` answers, the
//!   mean of a `LINREG` or `VAR` — is offered in the order it was
//!   gathered, queued (a full queue of [`FEEDBACK_QUEUE_CAPACITY`] labels
//!   is drained first) and drained, oldest first, through
//!   [`LlmModel::train_step`] (Bismarck's one incremental-gradient loop),
//!   publishing every [`PUBLISH_INTERVAL`] labels;
//! * a label offered to a trainer that can learn is one occurrence of the
//!   table's [`FaultKind::QueueOverflow`] injection point: where the
//!   table's plan fires, the label is dropped at once, counted and
//!   flagged on the answer that owed it;
//! * it keeps its own [`RouterStats`].
//!
//! After every call the session's answer (bits, route, confidence,
//! snapshot version, dropped flag) or typed error, every table's
//! counters and every trainer (prototypes in arena order, steps, frozen
//! flag) must equal the interpreter's. The scripts go through every door
//! (`execute`, `execute_command`, `execute_batch`, hand-built
//! `execute_statement(s)`), over frozen and live tables with and without a
//! variance head, a table with no model, and hostile input. The live and
//! strict tables arm a `QueueOverflow` schedule drawn from the case seed
//! (the fixed script arms its own); no other fault kind is armed, and the
//! interpreter models none of them.
//! Failures print a `REGQ_PROPTEST_SEED=<seed>` line.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use regq::core::moments::MomentPair;
use regq::core::ScreenCounters;
use regq::exact::BallFit;
use regq::linalg::LinalgError;
use regq::prelude::*;
use regq::serve::{FEEDBACK_QUEUE_CAPACITY, PUBLISH_INTERVAL};
use regq::sql::{
    parse, parse_command, parse_script, Aggregate, Command, ExecMode, QueryOutput, QueryValue,
    Session, SqlError, Statement,
};
use std::collections::VecDeque;
use std::sync::{Arc, OnceLock};

/// `regq_core::snapshot`'s smallest run of query × prototype pairs: a
/// batched run of twice as many is split across cores.
const MIN_RUN_PAIRS: usize = 1 << 16;

/// The tables every case registers, in this order.
const TABLES: [&str; 5] = ["frozen", "live", "quiet", "strict", "bare"];

/// The occurrences of label offers at which an injected `QueueOverflow`
/// fires, for each table that arms one.
type Overflows = [(&'static str, Vec<u64>)];

/// `name`'s overflow occurrences (none for a table `armed` leaves out).
fn overflows_of(armed: &Overflows, name: &str) -> Vec<u64> {
    let arm = armed.iter().find(|(table, _)| *table == name);
    arm.map_or_else(Vec::new, |(_, at)| at.clone())
}

struct Fixture {
    data: Arc<Dataset>,
    kd: ExactEngine,
    scan: ExactEngine,
    /// A model and a moments model trained on the table; γ = 1e-300, so
    /// neither ever freezes on its own.
    model: LlmModel,
    moments: MomentsModel,
    /// The ball of the model's most updated prototype.
    mature: (Vec<f64>, f64),
    /// A ball whose score is the median of 65 in the unit square, and
    /// that score: the frozen table's threshold, so `>=` is tested at
    /// equality and both routes are common.
    edge: (Vec<f64>, f64, f64),
}

fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let field = GasSensorSurrogate::new(2, 21);
        let mut rng = seeded(5);
        let data = Dataset::from_function(&field, 4_000, SampleOptions::default(), &mut rng);
        let data = Arc::new(data);
        let kd = ExactEngine::new(Arc::clone(&data), AccessPathKind::KdTree);
        let scan = ExactEngine::new(Arc::clone(&data), AccessPathKind::Scan);
        let gen = QueryGenerator::for_function(&field, 0.1);
        let config = ModelConfig {
            gamma: 1e-300,
            ..ModelConfig::with_vigilance(2, 0.05)
        };
        let mut model = LlmModel::new(config.clone()).unwrap();
        let mut moments = MomentsModel::new(config).unwrap();
        for _ in 0..1_500 {
            let q = gen.generate(&mut rng);
            if let Some(m) = kd.q1_moments(&q.center, q.radius) {
                model.train_step(&q, m.mean).unwrap();
                let pair = MomentPair {
                    mean: m.mean,
                    variance: m.variance,
                };
                moments.train_step(&q, pair).unwrap();
            }
        }
        let protos = model.prototypes();
        let p = protos.iter().max_by_key(|p| p.updates).unwrap();
        let mut scored: Vec<(Vec<f64>, f64, f64)> = (0..65)
            .map(|_| {
                let q = gen.generate(&mut rng);
                let score = model.confidence(&q).unwrap().score;
                (q.center, q.radius, score)
            })
            .collect();
        scored.sort_by(|a, b| a.2.total_cmp(&b.2));
        Fixture {
            mature: (p.center.clone(), p.radius),
            edge: scored.swap_remove(32),
            data,
            kd,
            scan,
            model,
            moments,
        }
    })
}

/// One table's registration: its trainer, variance head and policy.
fn registration(name: &str) -> (Option<LlmModel>, Option<MomentsModel>, RoutePolicy) {
    let f = fixture();
    let (mut model, head) = (f.model.clone(), Some(f.moments.clone()));
    let mut policy = RoutePolicy::default();
    match name {
        "frozen" => {
            model.freeze();
            policy.confidence_threshold = f.edge.2;
            (Some(model), head, policy)
        }
        "live" => (Some(model), head, policy),
        "quiet" => {
            model.freeze();
            (Some(model), None, policy)
        }
        "strict" => {
            policy.confidence_threshold = 0.6;
            (Some(model), head, policy)
        }
        _ => {
            let untrained = MomentsModel::new(model.config().clone()).unwrap();
            (None, Some(untrained), policy)
        }
    }
}

// ---- The reference interpreter ----------------------------------------------

/// One table as the interpreter keeps it.
struct Table {
    name: &'static str,
    policy: RoutePolicy,
    trainer: Option<LlmModel>,
    /// The capture of the trainer at its last publish.
    served: Option<ServingSnapshot>,
    head: Option<ServingSnapshot>,
    queue: VecDeque<(Query, f64)>,
    since_publish: usize,
    /// Whether the trainer can learn: labels are offered only then.
    trainable: bool,
    /// Labels offered while it could, and the offers an injected
    /// `QueueOverflow` drops.
    offered: u64,
    overflows: Vec<u64>,
    stats: RouterStats,
    /// Publishes made by drains that reached [`PUBLISH_INTERVAL`].
    drain_publishes: u64,
}

impl Table {
    fn new(name: &'static str, overflows: Vec<u64>) -> Self {
        let (trainer, head, policy) = registration(name);
        let mut table = Table {
            name,
            policy,
            trainable: trainer.as_ref().is_some_and(|m| !m.is_frozen()),
            trainer,
            served: None,
            head: head.map(|m| m.head().snapshot()),
            queue: VecDeque::new(),
            since_publish: 0,
            offered: 0,
            overflows,
            stats: RouterStats::default(),
            drain_publishes: 0,
        };
        table.publish();
        table
    }

    fn publish(&mut self) {
        self.since_publish = 0;
        if let Some(model) = &self.trainer {
            self.served = Some(model.snapshot());
            self.stats.publishes += 1;
            self.stats.retained = 1;
        }
    }

    /// Train on the queued labels, oldest first, until the trainer
    /// freezes; publish once the interval is reached.
    fn drain(&mut self, spawned: &mut usize) {
        let Some(model) = self.trainer.as_mut().filter(|m| !m.is_frozen()) else {
            return;
        };
        if self.queue.is_empty() {
            return;
        }
        for _ in 0..self.queue.len() {
            if model.is_frozen() {
                break;
            }
            let (q, y) = self.queue.pop_front().unwrap();
            if let Ok(step) = model.train_step(&q, y) {
                self.stats.feedback_fed += 1;
                self.since_publish += 1;
                *spawned += usize::from(step.spawned);
            }
        }
        self.trainable = !model.is_frozen();
        if self.since_publish >= PUBLISH_INTERVAL {
            self.publish();
            self.drain_publishes += 1;
        }
    }
}

/// What a capture predicted for a query: the answer and its score.
type Predicted = Option<(QueryValue, f64)>;

struct Interpreter {
    tables: Vec<Table>,
    /// Spawning training steps, over every table.
    spawned: usize,
    /// The most query × prototype pairs a batched run consulted.
    widest_run: usize,
    /// Drains run because a label met a full queue.
    full_drains: usize,
    /// Disagreements of the kd-tree with the scan.
    faults: Vec<String>,
}

fn output(
    value: QueryValue,
    route: Route,
    confidence: Option<f64>,
    version: Option<u64>,
) -> QueryOutput {
    QueryOutput {
        value,
        route,
        confidence,
        snapshot_version: version,
        feedback_dropped: false,
    }
}

/// `a` and `b` within 1e-9 of each other, relative to their size.
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

impl Interpreter {
    fn new(armed: &Overflows) -> Self {
        Interpreter {
            tables: TABLES
                .map(|name| Table::new(name, overflows_of(armed, name)))
                .into(),
            spawned: 0,
            widest_run: 0,
            full_drains: 0,
            faults: Vec::new(),
        }
    }

    fn bind(&self, s: &Statement) -> Result<(usize, Query), SqlError> {
        let t = self.tables.iter().position(|t| t.name == s.table);
        let t = t.ok_or_else(|| SqlError::UnknownTable(s.table.clone()))?;
        if s.center.len() != 2 {
            return Err(SqlError::DimensionMismatch {
                table: s.table.clone(),
                expected: 2,
                actual: s.center.len(),
            });
        }
        let q = Query::new(s.center.clone(), s.radius).map_err(SqlError::Model)?;
        Ok((t, q))
    }

    fn statement(&mut self, s: &Statement) -> Result<QueryOutput, SqlError> {
        let (t, q) = self.bind(s)?;
        let out = match (s.aggregate, s.mode) {
            (Aggregate::Count, _) => {
                let f = fixture();
                let n = f.kd.relation().count(&q.center, q.radius);
                if n != f.scan.relation().count(&q.center, q.radius) {
                    self.faults.push(format!("COUNT {q:?}"));
                }
                return Ok(output(QueryValue::Count(n), Route::Exact, None, None));
            }
            (aggregate, ExecMode::Model) => self.model_route(t, &q, aggregate),
            (aggregate, mode) => self.gated(t, &[q], aggregate, mode == ExecMode::Auto),
        };
        out.map(|mut outs| outs.remove(0))
    }

    /// A script: maximal runs of `AUTO` `AVG` / `LINREG` statements on one
    /// table are bound whole, then gated over one consultation.
    fn script(&mut self, stmts: &[Statement]) -> Result<Vec<QueryOutput>, SqlError> {
        let mut outs = Vec::new();
        let mut rest = stmts;
        while let Some(first) = rest.first() {
            let batchable = first.mode == ExecMode::Auto
                && matches!(first.aggregate, Aggregate::Avg | Aggregate::LinReg);
            let same = |s: &&Statement| {
                (s.mode, s.aggregate, &s.table) == (first.mode, first.aggregate, &first.table)
            };
            let len = if batchable {
                rest.iter().take_while(same).count()
            } else {
                1
            };
            let (run, tail) = rest.split_at(len);
            rest = tail;
            if len == 1 {
                outs.push(self.statement(first)?);
                continue;
            }
            let bound = run
                .iter()
                .map(|s| self.bind(s))
                .collect::<Result<Vec<_>, _>>()?;
            let t = bound[0].0;
            let queries: Vec<Query> = bound.into_iter().map(|(_, q)| q).collect();
            let k = self.tables[t].served.as_ref().map_or(0, ServingSnapshot::k);
            self.widest_run = self.widest_run.max(queries.len() * k);
            outs.extend(self.gated(t, &queries, first.aggregate, true)?);
        }
        Ok(outs)
    }

    fn command(&mut self, text: &str) -> Result<Option<QueryOutput>, SqlError> {
        match parse_command(text)? {
            Command::Query(s) => self.statement(&s).map(Some),
            Command::SetShards { table: Some(t), .. } if !TABLES.contains(&t.as_str()) => {
                Err(SqlError::UnknownTable(t))
            }
            Command::SetShards { .. } => Ok(None),
        }
    }

    /// What the capture behind `aggregate` predicts for `queries` — the
    /// trainer's for `AVG` / `LINREG`, the variance head's for `VAR` —
    /// and its version. The pruning counters are telemetry of the served
    /// path, so they are read off that path over the same capture.
    fn consult(
        &mut self,
        t: usize,
        queries: &[Query],
        aggregate: Aggregate,
    ) -> (Vec<Predicted>, u64) {
        let table = &mut self.tables[t];
        let capture = match aggregate {
            Aggregate::Var => table.head.as_ref(),
            _ => table.served.as_ref(),
        };
        let Some(snap) = capture else {
            return (vec![None; queries.len()], 0);
        };
        let mut screen = ScreenCounters::default();
        let predicted = queries
            .iter()
            .map(|q| match aggregate {
                Aggregate::LinReg => {
                    let _ = snap.predict_q2_with_confidence_pruned(q, &mut screen);
                    let (list, conf) = snap.predict_q2_with_confidence(q).ok()?;
                    let weights: f64 = list.iter().map(|m| m.weight).sum();
                    if (weights - 1.0).abs() > 1e-9 {
                        self.faults.push(format!("{q:?}: weights sum to {weights}"));
                    }
                    Some((QueryValue::Regression(list), conf.score))
                }
                _ => {
                    let _ = snap.predict_q1_with_confidence_pruned(q, &mut screen);
                    let (y, conf) = snap.predict_q1_with_confidence(q).ok()?;
                    let y = if aggregate == Aggregate::Var {
                        y.max(0.0)
                    } else {
                        y
                    };
                    Some((QueryValue::Scalar(y), conf.score))
                }
            })
            .collect();
        if screen.blocks > 0 {
            table.stats.blocks_screened += screen.screened;
            table.stats.blocks_skipped += screen.skipped;
            table.stats.blocks_verified += screen.verified;
        }
        (predicted, snap.version())
    }

    fn model_route(
        &mut self,
        t: usize,
        q: &Query,
        aggregate: Aggregate,
    ) -> Result<Vec<QueryOutput>, SqlError> {
        let (mut predicted, version) = self.consult(t, std::slice::from_ref(q), aggregate);
        let table = &mut self.tables[t];
        let Some((value, score)) = predicted.remove(0) else {
            let name = table.name.to_owned();
            return Err(match (aggregate, &table.head) {
                (Aggregate::Var, None) => SqlError::NoMomentsModel(name),
                (Aggregate::Var, Some(_)) => SqlError::Model(CoreError::EmptyModel),
                _ => SqlError::NoModel(name),
            });
        };
        if aggregate != Aggregate::Var {
            table.stats.model_served += 1;
        }
        Ok(vec![output(
            value,
            Route::Model,
            Some(score),
            Some(version),
        )])
    }

    /// The gate over `queries` (one consultation when `consult`, none for
    /// forced `EXACT`), then their labels offered in the order gathered —
    /// also when a fallback fails, which ends the call.
    fn gated(
        &mut self,
        t: usize,
        queries: &[Query],
        aggregate: Aggregate,
        consult: bool,
    ) -> Result<Vec<QueryOutput>, SqlError> {
        let (predicted, version) = if consult {
            self.consult(t, queries, aggregate)
        } else {
            (vec![None; queries.len()], 0)
        };
        let threshold = self.tables[t].policy.confidence_threshold;
        let (mut outs, mut labels, mut failed) = (Vec::new(), Vec::new(), None);
        for (q, predicted) in queries.iter().zip(predicted) {
            let out = match predicted {
                Some((value, score)) if score >= threshold => {
                    output(value, Route::Model, Some(score), Some(version))
                }
                below => {
                    let score = below.map(|(_, score)| score);
                    match self.exact(q, aggregate) {
                        Ok((value, label)) => {
                            labels.push((outs.len(), q, label));
                            output(value, Route::Exact, score, score.map(|_| version))
                        }
                        Err(e) => {
                            failed = Some(e);
                            break;
                        }
                    }
                }
            };
            let stats = &mut self.tables[t].stats;
            match (aggregate, out.route) {
                (Aggregate::Var, _) => {}
                (_, Route::Model) => stats.model_served += 1,
                _ => stats.exact_served += 1,
            }
            outs.push(out);
        }
        self.offer(t, labels, &mut outs);
        failed.map_or(Ok(outs), Err)
    }

    /// The exact answer and the label it feeds back: the ball's mean.
    fn exact(&mut self, q: &Query, aggregate: Aggregate) -> Result<(QueryValue, f64), SqlError> {
        let (f, c, r) = (fixture(), &q.center[..], q.radius);
        let mut check = |what: &str, kd: Option<f64>, scan: Option<f64>| {
            let agree = match (kd, scan) {
                (Some(a), Some(b)) => close(a, b),
                (a, b) => a.is_none() && b.is_none(),
            };
            if !agree {
                self.faults
                    .push(format!("{what} {q:?}: kd {kd:?}, scan {scan:?}"));
            }
        };
        match aggregate {
            Aggregate::Avg => {
                let y = f.kd.q1(c, r);
                check("AVG", y, f.scan.q1(c, r));
                let y = y.ok_or(SqlError::EmptySubspace)?;
                Ok((QueryValue::Scalar(y), y))
            }
            Aggregate::Var => {
                let (m, scan) = (f.kd.q1_moments(c, r), f.scan.q1_moments(c, r));
                check("VAR", m.map(|m| m.variance), scan.map(|m| m.variance));
                check("VAR mean", m.map(|m| m.mean), scan.map(|m| m.mean));
                let m = m.ok_or(SqlError::EmptySubspace)?;
                Ok((QueryValue::Scalar(m.variance), m.mean))
            }
            _ => {
                let (fit, scan) = (f.kd.q1_reg_fused(c, r), f.scan.q1_reg_fused(c, r));
                let at_centre = |fit: &Result<BallFit, LinalgError>| {
                    fit.as_ref().ok().map(|fit| fit.model.predict(c))
                };
                check("LINREG", at_centre(&fit), at_centre(&scan));
                match fit {
                    Ok(fit) => {
                        let list = vec![LocalModel {
                            intercept: fit.model.intercept,
                            slope: fit.model.slope.into(),
                            prototype: 0,
                            weight: 1.0,
                            center: c.into(),
                            radius: r,
                        }];
                        Ok((QueryValue::Regression(list), fit.moments.mean))
                    }
                    Err(LinalgError::Empty) => Err(SqlError::EmptySubspace),
                    Err(e) => Err(SqlError::Numeric(e)),
                }
            }
        }
    }

    /// The feedback door: each label is declined while the trainer
    /// cannot learn; otherwise it is an offer, lost at once when the
    /// table's overflow schedule fires there. A label that finds
    /// [`FEEDBACK_QUEUE_CAPACITY`] labels queued drains them first, and is
    /// lost only if the queue is still full. One drain follows a pass that
    /// queued anything.
    fn offer(&mut self, t: usize, labels: Vec<(usize, &Query, f64)>, outs: &mut [QueryOutput]) {
        let table = &mut self.tables[t];
        let mut queued = false;
        for (slot, q, y) in labels {
            if !table.trainable {
                table.stats.feedback_declined += 1;
                continue;
            }
            table.offered += 1;
            let lost = table.overflows.contains(&table.offered) || {
                if table.queue.len() == FEEDBACK_QUEUE_CAPACITY {
                    table.drain(&mut self.spawned);
                    self.full_drains += 1;
                }
                table.queue.len() == FEEDBACK_QUEUE_CAPACITY
            };
            if lost {
                table.stats.feedback_dropped += 1;
                outs[slot].feedback_dropped = true;
            } else {
                table.queue.push_back((q.clone(), y));
                table.stats.feedback_enqueued += 1;
                queued = true;
            }
        }
        if queued {
            table.drain(&mut self.spawned);
        }
    }
}

// ---- The differential -------------------------------------------------------

/// One call into a session, through the door it names.
#[derive(Debug, Clone)]
enum Op {
    Execute(String),
    Command(String),
    Batch(String),
    Statement(Statement),
    Statements(Vec<Statement>),
    PublishNow(&'static str),
}

/// A session and the interpreter, fed the same calls.
struct Differential {
    session: Session,
    reference: Interpreter,
}

/// A result as the test compares it: `Debug` prints every `f64` so that
/// it reads back to the same bits, and every error with its variant and
/// payload.
fn shown<T: std::fmt::Debug>(result: &Result<T, SqlError>) -> String {
    format!("{result:?}")
}

/// Every bit of a trainer: prototypes in arena order, steps, frozen flag.
fn trainer_bits(model: &LlmModel) -> (Vec<u64>, u64, bool) {
    let mut bits = Vec::new();
    for p in model.prototypes() {
        bits.extend(p.center.iter().chain(&p.b_x).map(|v| v.to_bits()));
        bits.extend([p.radius, p.y, p.b_theta].map(f64::to_bits));
        bits.push(p.updates);
    }
    (bits, model.steps(), model.is_frozen())
}

impl Differential {
    /// Both sides over the five tables, each table in `armed` with its
    /// `QueueOverflow` schedule.
    fn new(armed: &Overflows) -> Self {
        let f = fixture();
        let mut session = Session::new();
        for name in TABLES {
            let (model, head, policy) = registration(name);
            let engine = ExactEngine::new(Arc::clone(&f.data), AccessPathKind::KdTree);
            session.register_table_with_policy(name, engine, policy);
            if let Some(model) = model {
                session.register_model(name, model).unwrap();
            }
            if let Some(head) = head {
                session.register_moments_model(name, head).unwrap();
            }
            let overflows = overflows_of(armed, name);
            let plan = FaultPlan::new().inject(FaultKind::QueueOverflow, &overflows);
            session.set_fault_plan(name, plan).unwrap();
        }
        Differential {
            session,
            reference: Interpreter::new(armed),
        }
    }

    /// Run `op` on both sides and compare everything; the session's
    /// answers, for the caller's own checks.
    fn step(&mut self, op: &Op) -> Result<Vec<QueryOutput>, TestCaseError> {
        let (s, r) = (&mut self.session, &mut self.reference);
        let (got, want, outs) = match op {
            Op::Execute(text) => {
                let got = s.execute(text);
                let want = parse(text)
                    .map_err(SqlError::from)
                    .and_then(|st| r.statement(&st));
                (shown(&got), shown(&want), got.into_iter().collect())
            }
            Op::Command(text) => {
                let got = s.execute_command(text);
                let want = r.command(text);
                (
                    shown(&got),
                    shown(&want),
                    got.ok().flatten().into_iter().collect(),
                )
            }
            Op::Batch(text) => {
                let got = s.execute_batch(text);
                let want = parse_script(text)
                    .map_err(SqlError::from)
                    .and_then(|v| r.script(&v));
                (shown(&got), shown(&want), got.unwrap_or_default())
            }
            Op::Statement(st) => {
                let got = s.execute_statement(st);
                (
                    shown(&got),
                    shown(&r.statement(st)),
                    got.into_iter().collect(),
                )
            }
            Op::Statements(v) => {
                let got = s.execute_statements(v);
                (shown(&got), shown(&r.script(v)), got.unwrap_or_default())
            }
            Op::PublishNow(name) => {
                let t = TABLES.iter().position(|t| t == name).unwrap();
                s.router(name).unwrap().publish_now();
                r.tables[t].publish();
                (String::new(), String::new(), Vec::new())
            }
        };
        prop_assert_eq!(got, want, "{:?}", op);
        prop_assert!(r.faults.is_empty(), "kd-tree vs scan: {:?}", r.faults);
        for table in &r.tables {
            let router = s.router(table.name).unwrap();
            prop_assert_eq!(router.stats(), table.stats, "{} after {:?}", table.name, op);
            let trainer = router.merged_model();
            prop_assert_eq!(
                trainer.as_ref().map(trainer_bits),
                table.trainer.as_ref().map(trainer_bits),
                "{}'s trainer after {:?}",
                table.name,
                op
            );
        }
        Ok(outs)
    }

    /// [`Differential::step`] outside a property.
    fn call(&mut self, op: Op) -> Vec<QueryOutput> {
        self.step(&op).unwrap()
    }

    fn table(&self, name: &str) -> &Table {
        self.reference
            .tables
            .iter()
            .find(|t| t.name == name)
            .unwrap()
    }
}

// ---- Scripts ------------------------------------------------------------------

fn sql(aggregate: Aggregate, table: &str, center: &[f64], radius: f64, mode: ExecMode) -> String {
    let aggregate = match aggregate {
        Aggregate::Avg => "AVG(u)",
        Aggregate::LinReg => "LINREG(u)",
        Aggregate::Var => "VAR(u)",
        Aggregate::Count => "COUNT(*)",
    };
    let using = match mode {
        ExecMode::Exact => "",
        ExecMode::Model => " USING MODEL",
        ExecMode::Auto => " USING AUTO",
    };
    let center: Vec<String> = center.iter().map(|x| format!("{x:?}")).collect();
    let center = center.join(", ");
    format!("SELECT {aggregate} FROM {table} WHERE DIST(x, [{center}]) <= {radius:?}{using}")
}

fn text(s: &Statement) -> String {
    sql(s.aggregate, &s.table, &s.center, s.radius, s.mode)
}

/// [`text`] spelt another way: each keyword letter in either case, and
/// any run of blanks between words.
fn respelt(s: &Statement, rng: &mut StdRng) -> String {
    let mut out = String::new();
    for word in text(s).split(' ') {
        let keyword = word.chars().take_while(char::is_ascii_uppercase).count();
        for (i, c) in word.char_indices() {
            let lower = i < keyword && rng.random();
            out.push(if lower { c.to_ascii_lowercase() } else { c });
        }
        out += pick(rng, &[" ", "  ", "\n", "\t "]);
    }
    out
}

fn statement(
    aggregate: Aggregate,
    table: &str,
    (center, radius): (Vec<f64>, f64),
    mode: ExecMode,
) -> Statement {
    Statement {
        aggregate,
        table: table.into(),
        center,
        radius,
        mode,
    }
}

const AGGREGATES: [Aggregate; 4] = [
    Aggregate::Avg,
    Aggregate::LinReg,
    Aggregate::Var,
    Aggregate::Count,
];
const MODES: [ExecMode; 3] = [ExecMode::Exact, ExecMode::Model, ExecMode::Auto];

fn pick<T: Clone>(rng: &mut StdRng, from: &[T]) -> T {
    from[rng.random_range(0..from.len())].clone()
}

/// A ball that selects rows: in the table's unit square, or the
/// fixture's edge or mature-prototype ball.
fn good_ball(rng: &mut StdRng) -> (Vec<f64>, f64) {
    let f = fixture();
    match rng.random_range(0..8u32) {
        0 => (f.edge.0.clone(), f.edge.1),
        1 => f.mature.clone(),
        _ => {
            let center = vec![rng.random_range(0.0..1.0), rng.random_range(0.0..1.0)];
            (center, rng.random_range(0.05..0.35))
        }
    }
}

/// A ball: [`good_ball`] most of the time, otherwise wide, far and empty,
/// far and whole-table, or of a wrong dimensionality.
fn ball(rng: &mut StdRng) -> (Vec<f64>, f64) {
    fn square(rng: &mut StdRng, n: usize, lo: f64, hi: f64) -> Vec<f64> {
        (0..n).map(|_| rng.random_range(lo..hi)).collect()
    }
    match rng.random_range(0..20u32) {
        0..=13 => good_ball(rng),
        14 | 15 => (square(rng, 2, -0.5, 1.5), rng.random_range(0.5..1.5)),
        16 => (square(rng, 2, 30.0, 40.0), 0.01),
        17 | 18 => (square(rng, 2, 30.0, 40.0), 60.0),
        _ => {
            let dim = pick(rng, &[1, 3]);
            (square(rng, dim, 0.0, 1.0), 0.2)
        }
    }
}

/// Every ball the parser cannot produce: a non-finite coordinate, or a
/// radius that is not finite and positive.
fn hostile_balls() -> Vec<(Vec<f64>, f64)> {
    let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0, -0.1];
    let mut balls: Vec<_> = bad.iter().map(|&b| (vec![0.5, 0.5], b)).collect();
    balls.extend(
        bad[..3]
            .iter()
            .flat_map(|&b| [(vec![0.5, b], 0.2), (vec![b; 3], 0.2)]),
    );
    balls
}

/// A table name: the five tables, the live one three times as often as
/// the rest, and one name in twenty unknown (names are case-sensitive,
/// and a keyword may be one).
fn table(rng: &mut StdRng) -> &'static str {
    const MIX: [&str; 8] = [
        "frozen", "frozen", "live", "live", "live", "quiet", "strict", "bare",
    ];
    match rng.random_range(0..20u32) {
        0 => pick(rng, &["nope", "Live", "FROM"]),
        _ => pick(rng, &MIX),
    }
}

fn any_statement(rng: &mut StdRng) -> Statement {
    let (aggregate, mode) = (pick(rng, &AGGREGATES), pick(rng, &MODES));
    statement(aggregate, table(rng), ball(rng), mode)
}

/// A run the script executor batches: `AUTO` `AVG` or `LINREG` on one
/// table over balls drawn by `ball`.
fn run(rng: &mut StdRng, len: usize, ball: fn(&mut StdRng) -> (Vec<f64>, f64)) -> Vec<Statement> {
    let (aggregate, table) = (pick(rng, &[Aggregate::Avg, Aggregate::LinReg]), table(rng));
    (0..len)
        .map(|_| statement(aggregate, table, ball(rng), ExecMode::Auto))
        .collect()
}

/// Mostly a [`good_ball`]: most runs answer every statement.
fn run_ball(rng: &mut StdRng) -> (Vec<f64>, f64) {
    match rng.random_range(0..4u32) {
        0 => ball(rng),
        _ => good_ball(rng),
    }
}

fn script(rng: &mut StdRng) -> Vec<Statement> {
    let mut stmts = Vec::new();
    for _ in 0..rng.random_range(1..4u32) {
        if rng.random::<bool>() {
            let len = rng.random_range(2..10usize);
            stmts.extend(run(rng, len, run_ball));
        } else {
            stmts.push(any_statement(rng));
        }
    }
    stmts
}

/// The proptest's overflow occurrences are drawn from the first this
/// many offers: most cases offer the live table at least that many
/// labels, so most of their draws fire.
const OVERFLOW_HORIZON: u64 = 16;

/// Statements in a run large enough to be split across cores.
fn big_run_len() -> usize {
    (2 * MIN_RUN_PAIRS).div_ceil(fixture().model.k()) + 1
}

/// Texts beside the generated statements: parse errors, unknown tables,
/// wrong dimensions, the parser's own literal edges and `SET SHARDS`.
fn hostile_texts() -> Vec<String> {
    let wide: Vec<String> = (0..64).map(|i| format!("{:.3}", i as f64 / 64.0)).collect();
    let ball = |center: &str, radius: &str| {
        format!("SELECT AVG(u) FROM live WHERE DIST(x, [{center}]) <= {radius} USING AUTO")
    };
    let mut texts = vec![
        "SELECT AVG(u) FROM nope WHERE DIST(x, [0.5, 0.5]) <= 0.1 USING MODEL".to_string(),
        "this is not sql".to_string(),
        ball("0.5", "0.1"),
        ball("0.5, 0.5, 0.5", "0.1"),
        ball(&wide.join(", "), "0.1"),
        ball("0.5, 0.5", "0"),
        ball("0.5, 0.5", "-0.25"),
        ball("0.5, 0.5", "1e999"),
        ball("1e999, 0.5", "0.1"),
        ball("0.123456789012345, 0.1234567890123456", "0.1"),
        ball("0.5, 0.5", "123456789012345"),
        ball("0.5, 0.5", "1234567890123456"),
        ball("0.10000000000000001, -0", "0.1"),
        ball("5., .5", "+.5"),
        ball("0.5, .", "0.1"),
        ball("1e, 0.5", "0.1"),
        ball("0.5, 0.5", "1e-400"),
        ball("0.5, 0.5", "0.1; garbage"),
        ball("0.5, 0.5", "0.1 é"),
        ball("0.5, 0.5🦀", "0.1"),
        "SELECT VAR(u) FROM tλ WHERE DIST(x, [0.5, 0.5]) <= 0.1".to_string(),
        "SELECT VAR(u) FROM live WHERE DIST(x, [50.0, 50.0]) <= 0.01".to_string(),
        "SELECT LINREG(u) FROM live WHERE DIST(x, [50.0, 50.0]) <= 0.01 USING MODEL".to_string(),
        format!(
            "{}; {}",
            ball("0.5, 0.5", "0.3"),
            ball("0.5, 0.5, 0.5", "0.3")
        ),
        "SET SHARDS 4 FOR nope".to_string(),
        "SET SHARDS 0".to_string(),
        "SET SHARDS 4 FOR live;".to_string(),
        "SET SHARDS 2".to_string(),
        String::new(),
    ];
    let run = format!("{}; {}", ball("0.2, 0.8", "0.2"), ball("0.7, 0.3", "0.2"));
    texts.extend([run.replace("FROM live", "FROM nope"), run]);
    texts
}

fn random_op(rng: &mut StdRng) -> Op {
    match rng.random_range(0..40u32) {
        0..=11 => Op::Execute(respelt(&any_statement(rng), rng)),
        12..=15 => Op::Command(match rng.random_range(0..4u32) {
            0 => format!(
                "SET SHARDS {} FOR {}",
                rng.random_range(1..9u32),
                table(rng)
            ),
            _ => respelt(&any_statement(rng), rng) + ";",
        }),
        16..=27 => {
            let texts: Vec<String> = script(rng).iter().map(|s| respelt(s, rng)).collect();
            Op::Batch(texts.join(";\n") + pick(rng, &["", ";", " ;  "]))
        }
        28..=31 => {
            let mut st = any_statement(rng);
            if rng.random::<bool>() {
                (st.center, st.radius) = pick(rng, &hostile_balls());
            }
            Op::Statement(st)
        }
        32..=35 => {
            let mut v = script(rng);
            if rng.random_range(0..4u32) == 0 {
                let at = rng.random_range(0..v.len());
                (v[at].center, v[at].radius) = pick(rng, &hostile_balls());
            }
            Op::Statements(v)
        }
        36 => Op::PublishNow(pick(rng, &TABLES)),
        37 => {
            let texts = hostile_texts();
            let text = texts[rng.random_range(0..texts.len())].clone();
            let door: fn(String) -> Op = pick(rng, &[Op::Execute, Op::Command, Op::Batch]);
            door(text)
        }
        38 => {
            let big: Vec<String> = run(rng, big_run_len(), good_ball)
                .iter()
                .map(text)
                .collect();
            Op::Batch(big.join(";"))
        }
        _ => Op::Statements(run(rng, 2, ball)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random scripts through every door: the session answers, counts and
    /// trains as the reference interpreter does.
    #[test]
    fn a_session_answers_counts_and_trains_as_the_reference_interpreter(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let armed = ["live", "strict"].map(|name| {
            let at = (0..4).map(|_| rng.random_range(1..=OVERFLOW_HORIZON)).collect();
            (name, at)
        });
        let mut differential = Differential::new(&armed);
        for _ in 0..40 {
            differential.step(&random_op(&mut rng))?;
        }
    }
}

/// A fixed script covering every case the random ones may miss, with
/// what the outputs themselves must show.
#[test]
fn a_fixed_script_covers_every_case() {
    let f = fixture();
    let in_square = (vec![0.4, 0.6], 0.2);
    let (mature, (edge, edge_r, threshold)) = (f.mature.clone(), f.edge.clone());

    // An overflow occurrence drops its label at once, counted and flagged
    // on the answer that owed it, through every door that feeds: the live
    // table's offers 1, 3 and 5.
    let mut d = Differential::new(&[("live", vec![1, 3, 5])]);
    let dropped =
        |outs: Vec<QueryOutput>| -> Vec<bool> { outs.iter().map(|o| o.feedback_dropped).collect() };
    let st = statement(Aggregate::Avg, "live", in_square.clone(), ExecMode::Exact);
    assert_eq!(dropped(d.call(Op::Execute(text(&st)))), [true]);
    let two = format!("{}; {}", text(&st), text(&st));
    assert_eq!(dropped(d.call(Op::Batch(two))), [false, true]);
    let two = vec![st.clone(), st];
    assert_eq!(dropped(d.call(Op::Statements(two))), [false, true]);
    assert_eq!(d.table("live").stats.feedback_dropped, 3);

    // Every aggregate × mode on every table, through `execute`,
    // `execute_command` and `execute_statement`.
    for name in TABLES {
        for aggregate in AGGREGATES {
            for mode in MODES {
                let st = statement(aggregate, name, in_square.clone(), mode);
                d.call(Op::Execute(text(&st)));
                d.call(Op::Command(text(&st)));
                d.call(Op::Statement(st));
            }
        }
    }

    // The gate: a far, data-rich ball is consulted, doubts itself and
    // falls back to the exact answer; the mature prototype's own ball
    // clears it, and the edge ball scores exactly the frozen table's
    // threshold and is served.
    for aggregate in [Aggregate::Avg, Aggregate::Var] {
        let far = sql(aggregate, "frozen", &[40.0, 40.0], 60.0, ExecMode::Auto);
        let low = d.call(Op::Execute(far.clone())).remove(0);
        assert_eq!(low.route, Route::Exact);
        assert!(low.confidence.is_some_and(|score| score < threshold));
        let exact = d.call(Op::Execute(far.replace(" USING AUTO", "")));
        assert_eq!(low.value, exact[0].value);
    }
    for name in ["frozen", "live"] {
        let auto = sql(Aggregate::Avg, name, &mature.0, mature.1, ExecMode::Auto);
        let high = d.call(Op::Execute(auto)).remove(0);
        assert_eq!(high.route, Route::Model);
        assert!(high.snapshot_version.is_some() && high.scalar().is_some_and(f64::is_finite));
    }
    let [auto, model] = [ExecMode::Auto, ExecMode::Model]
        .map(|mode| sql(Aggregate::LinReg, "frozen", &mature.0, mature.1, mode));
    let (auto, model) = (d.call(Op::Execute(auto)), d.call(Op::Execute(model)));
    assert_eq!(auto[0].route, Route::Model);
    assert_eq!(auto[0].value, model[0].value);
    let at_edge = sql(Aggregate::Avg, "frozen", &edge, edge_r, ExecMode::Auto);
    let served = d.call(Op::Execute(at_edge)).remove(0);
    assert_eq!(served.route, Route::Model);
    assert_eq!(served.confidence, Some(threshold));
    // VAR passes the same gate over the variance head: both routes over
    // the head's own prototypes.
    let head = f.moments.head().prototypes();
    let routes: Vec<Route> = (head.iter().take(24))
        .map(|p| {
            sql(
                Aggregate::Var,
                "frozen",
                &p.center,
                p.radius,
                ExecMode::Auto,
            )
        })
        .map(|var| d.call(Op::Execute(var))[0].route)
        .collect();
    assert!(routes.contains(&Route::Model) && routes.contains(&Route::Exact));
    // COUNT(*) counts rows, whatever the mode.
    for mode in MODES {
        let whole = sql(Aggregate::Count, "live", &[0.5, 0.5], 10.0, mode);
        assert_eq!(
            d.call(Op::Execute(whole)).remove(0).count(),
            Some(f.data.len())
        );
    }

    // Hostile input through every door, and balls the parser cannot make.
    for text in hostile_texts() {
        d.call(Op::Execute(text.clone()));
        d.call(Op::Command(text.clone()));
        d.call(Op::Batch(text));
    }
    for ball in hostile_balls() {
        for aggregate in AGGREGATES {
            let st = statement(aggregate, "live", ball.clone(), ExecMode::Auto);
            d.call(Op::Statements(vec![st.clone(), st.clone()]));
            d.call(Op::Statement(st));
        }
    }

    // A batched run that fails at an empty ball offers the labels of the
    // fallbacks before it.
    for (name, aggregate) in TABLES
        .iter()
        .zip([Aggregate::Avg, Aggregate::LinReg].iter().cycle())
    {
        let mut run = vec![(vec![40.0, 40.0], 60.0), (vec![-20.0, 40.0], 60.0)];
        run.extend([(vec![0.3, 0.6], 0.2), (vec![40.0, 40.0], 60.0)]);
        let run: Vec<String> = run
            .into_iter()
            .map(|(c, r)| sql(*aggregate, name, &c, r, ExecMode::Auto))
            .collect();
        d.call(Op::Batch(run.join(";")));
        let empty = sql(*aggregate, name, &[30.0, 30.0], 0.01, ExecMode::Auto);
        d.call(Op::Batch(format!("{};{empty}", run.join(";"))));
    }
    assert!(d.table("frozen").stats.feedback_declined > 0);
    assert!(d.table("bare").stats.feedback_declined > 0);

    // The trainer is train_step over what it is fed: analyst balls
    // through forced EXACT, published by hand every four calls, some
    // spawning.
    let mut rng = StdRng::seed_from_u64(4);
    let before = (d.table("live").stats.publishes, d.reference.spawned);
    for i in 0..300 {
        let aggregate = [Aggregate::Avg, Aggregate::LinReg, Aggregate::Var][i % 3];
        let st = statement(aggregate, "live", ball(&mut rng), ExecMode::Exact);
        d.call(Op::Execute(text(&st)));
        if i % 4 == 3 {
            d.call(Op::PublishNow("live"));
        }
    }
    assert!(d.table("live").stats.publishes > before.0 + 50);
    assert!(d.reference.spawned >= before.1 + 2, "spawns");

    d.call(Op::PublishNow("live"));
    let list = sql(Aggregate::LinReg, "live", &[0.5, 0.5], 0.4, ExecMode::Model);
    let served = d.call(Op::Execute(list)).remove(0);
    let steps = d.table("live").trainer.as_ref().unwrap().steps();
    assert_eq!(served.snapshot_version, Some(steps));
    assert!(served.regression().unwrap().len() > 1);

    // Runs both below and above two runs' worth of pairs, through
    // `execute_batch` and `execute_statements`.
    let mut rng = StdRng::seed_from_u64(5);
    for name in ["frozen", "live"] {
        for len in [3, big_run_len()] {
            let st: Vec<Statement> = (0..len)
                .map(|_| statement(Aggregate::Avg, name, good_ball(&mut rng), ExecMode::Auto))
                .collect();
            let outs = match name {
                "frozen" => d.call(Op::Batch(st.iter().map(text).collect::<Vec<_>>().join(";"))),
                _ => d.call(Op::Statements(st)),
            };
            let models = outs.iter().filter(|o| o.route == Route::Model).count();
            assert!(
                len < 8 || (0 < models && models < len),
                "{name}: {models} of {len}"
            );
        }
    }
    assert!(d.reference.widest_run >= 2 * MIN_RUN_PAIRS);

    // A batched run of more fallbacks than the queue holds: the label
    // that meets the full queue drains it mid-pass, nothing is lost, and
    // both that drain and the pass's last one reach the publish interval.
    let far: Vec<String> = (0..FEEDBACK_QUEUE_CAPACITY + PUBLISH_INTERVAL + 20)
        .map(|_| {
            let center = [rng.random_range(30.0..40.0), rng.random_range(30.0..40.0)];
            sql(Aggregate::Avg, "live", &center, 60.0, ExecMode::Auto)
        })
        .collect();
    let before = (d.reference.full_drains, d.table("live").drain_publishes);
    let outs = d.call(Op::Batch(far.join(";")));
    assert!(outs
        .iter()
        .all(|o| o.route == Route::Exact && !o.feedback_dropped));
    assert_eq!(d.reference.full_drains, before.0 + 1);
    assert_eq!(d.table("live").drain_publishes, before.1 + 2);
}
