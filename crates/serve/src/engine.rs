//! [`ServeEngine`]: confidence-gated hybrid routing between the learned
//! snapshot and the exact DBMS backend, with the training loop closed in
//! production.
//!
//! atomics: audited — every `Ordering::Relaxed` in this module is either
//! a monotonic stat counter (`model_served`, `feedback_*`,
//! `trainer_*`, `lock_poisonings`; read only for [`ServeStats`]) or the
//! advisory `degraded` flag, whose readers tolerate staleness by design
//! (it only biases routing until the next publish). No Relaxed access
//! publishes memory: snapshot hand-off goes through the SeqCst
//! [`SnapshotCell`] protocol, and the exact-cost EMA lives in
//! `crate::cost::CostEma` with its own audit header.
//!
//! Query flow (the paper's desideratum D2 made operational):
//!
//! 1. resolve the current [`ServingSnapshot`] from the lock-free
//!    [`SnapshotCell`] under a hazard-slot read guard (the cell reclaims
//!    stale epochs, so reads pin the snapshot for exactly the prediction's
//!    duration);
//! 2. score the query with [`regq_core::confidence`] — the assessment
//!    shares the prediction's own overlap-weight resolution, so answer
//!    and score come out of a single `O(dK)` scan;
//! 3. serve from the snapshot when the score clears the policy threshold;
//!    otherwise execute on the [`ExactEngine`] and — Algorithm 1's Fig. 2
//!    loop — feed the exact answer back to the trainer as a free training
//!    example (`try_lock`: feedback never blocks a serving thread; a
//!    contended example is *dropped* and the drop is counted, see
//!    [`Feedback`]);
//! 4. the trainer republishes a fresh snapshot every
//!    [`RoutePolicy::publish_interval`] accepted examples, so readers pick
//!    up the improved model without ever taking a lock.
//!
//! The serve path holds **no `Mutex`/`RwLock`**: model-served queries cost
//! three thread-private atomics (the cell's announce/validate handshake)
//! plus the `O(dK)` scan; exact-served queries add the data traversal and
//! an optional `try_lock` that gives up instantly under contention.
//!
//! # Fault tolerance
//!
//! Training is *supervised*: every SGD ingestion runs under
//! `catch_unwind`. A panicking trainer (including injected
//! [`crate::fault::FaultKind::TrainerPanic`] faults) quarantines the
//! offending example (retrievable via [`ServeEngine::quarantined`]),
//! restarts the trainer from the last published snapshot, and counts the
//! whole event in [`ServeStats`] — serving never stops and recovery is
//! never silent. A poisoned trainer lock triggers the same
//! restart-from-snapshot (a poisoned guard may hold a half-applied
//! update, which must not be trained on or published) and then clears the
//! poison. Under a [`RoutePolicy::deadline_us`] budget, fallbacks whose
//! exact execution is estimated to blow the budget are served from the
//! snapshot instead, explicitly flagged [`Route::Degraded`].

use crate::cell::SnapshotCell;
use crate::cost::CostEma;
use crate::fault::{FaultKind, FaultPlan};
use regq_core::{CoreError, LlmModel, LocalModel, Query, ScreenCounters, ServingSnapshot};
use regq_exact::ExactEngine;
use regq_linalg::LinalgError;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Which backend answered a routed query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Served from the published model snapshot (zero data access).
    Model,
    /// Executed on the exact engine (data traversal).
    Exact,
    /// Served from the snapshot **below** the confidence threshold,
    /// because the exact fallback was refused — its estimated cost blew
    /// the [`RoutePolicy::deadline_us`] budget, or feedback pressure
    /// crossed [`RoutePolicy::pressure_watermark`]. The value is the same
    /// bits the model route would serve; the distinct variant exists so a
    /// degraded answer is *always* flagged, never mistaken for a
    /// confident one.
    Degraded,
}

impl fmt::Display for Route {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Route::Model => write!(f, "model"),
            Route::Exact => write!(f, "exact"),
            Route::Degraded => write!(f, "degraded"),
        }
    }
}

/// A routed answer: the value plus how it was produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Served<T> {
    /// The answer.
    pub value: T,
    /// Which backend produced it.
    pub route: Route,
    /// The confidence score that drove the routing decision (`None` when
    /// no snapshot was consulted — e.g. forced-exact mode before any
    /// model was attached).
    pub score: Option<f64>,
    /// Version ([`ServingSnapshot::version`]) of the snapshot consulted.
    pub snapshot_version: Option<u64>,
    /// `true` when this query's own feedback example was *lost*: dropped
    /// to trainer-lock contention / queue overflow, or quarantined by a
    /// panicking trainer. Always `false` on model and degraded routes and
    /// with feedback disabled.
    pub feedback_dropped: bool,
    /// Pruning telemetry of the bound-and-verify snapshot consultation
    /// that produced (or rejected) the model answer: prototype blocks
    /// considered / bounded / skipped / verified. All-zero when no
    /// snapshot was consulted; for batch entry points the counters of the
    /// whole batch's single consultation are shared by every answer in
    /// it. `screen.skip_rate()` is the query's pruning win.
    pub screen: ScreenCounters,
}

impl<T> Served<T> {
    fn exact_only(value: T) -> Self {
        Served {
            value,
            route: Route::Exact,
            score: None,
            snapshot_version: None,
            feedback_dropped: false,
            screen: ScreenCounters::default(),
        }
    }

    /// Map the value, preserving the routing metadata (SQL layers wrap
    /// routed answers into their own output shapes).
    pub fn map_value<U>(self, f: impl FnOnce(T) -> U) -> Served<U> {
        Served {
            value: f(self.value),
            route: self.route,
            score: self.score,
            snapshot_version: self.snapshot_version,
            feedback_dropped: self.feedback_dropped,
            screen: self.screen,
        }
    }
}

/// Routing policy for a [`ServeEngine`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoutePolicy {
    /// Minimum [`regq_core::Confidence::score`] for serving from the
    /// snapshot in auto mode. `0.0` serves everything from the model,
    /// `> 1.0` routes everything to the exact engine.
    pub confidence_threshold: f64,
    /// Feed exact answers back to the trainer (Algorithm 1's loop, closed
    /// in production).
    pub feedback: bool,
    /// Publish a fresh snapshot after this many accepted feedback
    /// examples. Larger intervals amortize the `O(dK)` capture; smaller
    /// ones propagate learning to readers sooner.
    pub publish_interval: usize,
    /// Deadline budget (µs) for the exact fallback. When set and the
    /// engine's exact-cost estimate (a served-cost EMA, folded with any
    /// [`crate::fault::FaultPlan::with_exact_cost_hint_us`] hint) exceeds
    /// it, below-threshold queries are served from the snapshot as
    /// [`Route::Degraded`] instead of traversing data. `None` (default)
    /// never degrades on cost.
    pub deadline_us: Option<f64>,
    /// Feedback-pressure watermark for the sharded fabric: when the
    /// routed shard's feedback queue holds at least this many pending
    /// examples, fallbacks degrade to the snapshot answer instead of
    /// piling more work onto a struggling trainer. `None` (default)
    /// never degrades on pressure. Ignored by the unsharded
    /// [`ServeEngine`], which has no queue.
    pub pressure_watermark: Option<usize>,
    /// Bounded retry budget for feedback that hits a full shard queue:
    /// each retry backs off deterministically (a doubling spin) and pumps
    /// the owning shard once before re-offering. `0` (default) keeps the
    /// original drop-immediately behavior. Ignored by the unsharded
    /// engine (no queue to retry into).
    pub overflow_retries: u32,
}

impl Default for RoutePolicy {
    fn default() -> Self {
        RoutePolicy {
            confidence_threshold: 0.3,
            feedback: true,
            publish_interval: 256,
            deadline_us: None,
            pressure_watermark: None,
            overflow_retries: 0,
        }
    }
}

/// Counter snapshot from [`ServeEngine::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeStats {
    /// Queries answered from the model snapshot.
    pub model_served: u64,
    /// Queries answered by the exact engine.
    pub exact_served: u64,
    /// Exact answers accepted by the trainer as feedback.
    pub feedback_fed: u64,
    /// Feedback examples *lost*: the trainer lock was contended or
    /// poisoned, so the example was dropped (serving never blocks on
    /// training). Every drop is counted — see [`Feedback::Dropped`].
    pub feedback_skipped: u64,
    /// Snapshots published so far (the cell epoch).
    pub publishes: u64,
    /// Below-threshold queries served from the snapshot as
    /// [`Route::Degraded`] because the exact fallback was refused
    /// (deadline budget / pressure watermark).
    pub degraded_served: u64,
    /// Trainer panics caught mid-update; each one quarantined its example
    /// (see [`ServeEngine::quarantined`]) and restarted the trainer.
    pub trainer_panics: u64,
    /// Trainer restarts from the last published snapshot (panic or
    /// poison recovery). Recovery is never silent.
    pub trainer_restarts: u64,
    /// Poisoned trainer locks encountered and healed (restart + poison
    /// cleared).
    pub lock_poisonings: u64,
    /// Prototype block visits whose lower bound was evaluated during
    /// pruned snapshot consultations — every visit on a multi-block
    /// layout, none on a single-block one
    /// ([`regq_core::ScreenCounters::screened`], summed over all
    /// consultations).
    pub blocks_screened: u64,
    /// Prototype blocks pruned away — never exact-verified — because
    /// their bound ruled them out. The serving scan's output-sensitivity
    /// win; `blocks_skipped + blocks_verified` is the total block visits.
    pub blocks_skipped: u64,
    /// Prototype blocks exact-verified by the bit-exact kernel.
    pub blocks_verified: u64,
}

/// Outcome of offering one feedback example to the trainer
/// ([`ServeEngine::observe_outcome`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Feedback {
    /// The trainer trained on the example.
    Accepted,
    /// The trainer declined it deliberately (no model attached, frozen
    /// model, or a model-side validation error) — not a loss.
    Rejected,
    /// The example was lost to contention (trainer lock busy) or to a
    /// full/overflowing feedback queue after the retry budget. Counted in
    /// [`ServeStats::feedback_skipped`] and surfaced per-query via
    /// [`Served::feedback_dropped`].
    Dropped,
    /// The trainer panicked while ingesting this example; the example was
    /// quarantined (retrievable via [`ServeEngine::quarantined`]) and the
    /// trainer restarted from the last published snapshot. Counted in
    /// [`ServeStats::trainer_panics`] and surfaced per-query via
    /// [`Served::feedback_dropped`].
    Quarantined,
}

impl Feedback {
    /// Whether this outcome lost the example (drop or quarantine) — the
    /// condition surfaced as [`Served::feedback_dropped`].
    pub fn is_lost(self) -> bool {
        matches!(self, Feedback::Dropped | Feedback::Quarantined)
    }
}

/// Errors from routed execution.
#[derive(Debug)]
pub enum ServeError {
    /// A model-route query arrived but no (non-empty) model is attached.
    NoModel,
    /// The exact selection was empty (SQL NULL).
    EmptySubspace,
    /// Model-side failure.
    Model(CoreError),
    /// Exact-engine numerical failure.
    Numeric(LinalgError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::NoModel => write!(f, "no model attached (train or attach first)"),
            ServeError::EmptySubspace => write!(f, "empty subspace (NULL)"),
            ServeError::Model(_) => write!(f, "model error"),
            ServeError::Numeric(_) => write!(f, "numeric error"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Model(e) => Some(e),
            ServeError::Numeric(e) => Some(e),
            ServeError::NoModel | ServeError::EmptySubspace => None,
        }
    }
}

struct Trainer {
    model: Option<LlmModel>,
    /// Accepted feedback examples since the last publish.
    since_publish: usize,
}

/// What the snapshot gate decided before any exact work runs (computed
/// entirely under the read guard, consumed after it drops).
enum Gate<T> {
    /// No non-empty snapshot published: plain exact execution.
    NoSnapshot,
    /// Confidence cleared the threshold: serve this value.
    Hit { value: T, score: f64, version: u64 },
    /// Snapshot consulted but below threshold: fall back to exact,
    /// annotated with the score that rejected the model route. The
    /// predicted value rides along (it was computed anyway) so a
    /// deadline-refused fallback can serve it as [`Route::Degraded`].
    Fallback { value: T, score: f64, version: u64 },
    /// Model-side failure (dimension mismatch etc.).
    Failed(CoreError),
}

/// Batch analogue of [`Gate`]: one snapshot consultation for the whole
/// batch. Every query in a batch gates against the *same* snapshot
/// version — a deliberate consistency upgrade over the scalar loop,
/// which may observe a mid-loop republish.
enum GateBatch<T> {
    /// No non-empty snapshot published: every query runs exact.
    NoSnapshot,
    /// Batched prediction ran; per-query values and scores, all from one
    /// snapshot version. Threshold routing happens after the guard drops.
    Resolved {
        results: Vec<(T, regq_core::Confidence)>,
        version: u64,
    },
    /// Model-side failure (dimension mismatch etc.).
    Failed(CoreError),
}

/// The concurrent snapshot-serving engine (see module docs).
///
/// `&self` everywhere: an engine is shared across any number of serving
/// threads (`ServeEngine: Send + Sync`); the mutable trainer lives behind
/// a writer-side mutex that the serve path only ever `try_lock`s.
pub struct ServeEngine {
    exact: ExactEngine,
    cell: SnapshotCell,
    trainer: Mutex<Trainer>,
    policy: RoutePolicy,
    fault: FaultPlan,
    /// Examples a panicking trainer was fed, kept for post-mortems
    /// (bounded at [`QUARANTINE_CAP`]; the unbounded count is
    /// [`ServeStats::trainer_panics`]).
    quarantine: Mutex<Vec<(Query, f64)>>,
    /// Set on every trainer restart, cleared on the next publish: the
    /// served snapshot lags the (reset) trainer until then.
    degraded: AtomicBool,
    /// Exact-path cost EMA in µs (no sample yet until the first timed
    /// exact call). Only maintained when a deadline budget or injected
    /// exact latency makes it relevant.
    exact_cost: CostEma,
    model_served: AtomicU64,
    exact_served: AtomicU64,
    feedback_fed: AtomicU64,
    feedback_skipped: AtomicU64,
    degraded_served: AtomicU64,
    trainer_panics: AtomicU64,
    trainer_restarts: AtomicU64,
    lock_poisonings: AtomicU64,
    blocks_screened: AtomicU64,
    blocks_skipped: AtomicU64,
    blocks_verified: AtomicU64,
}

/// Most quarantined examples retained for inspection; the counter in
/// [`ServeStats::trainer_panics`] is never capped.
pub const QUARANTINE_CAP: usize = 64;

impl ServeEngine {
    /// Engine over an exact backend with no model yet (every query routes
    /// exact until [`ServeEngine::attach_model`] — or, with feedback on,
    /// until the engine has *trained itself* past the threshold).
    pub fn new(exact: ExactEngine, policy: RoutePolicy) -> Self {
        ServeEngine {
            exact,
            cell: SnapshotCell::new(),
            trainer: Mutex::new(Trainer {
                model: None,
                since_publish: 0,
            }),
            policy,
            fault: FaultPlan::new(),
            quarantine: Mutex::new(Vec::new()),
            degraded: AtomicBool::new(false),
            exact_cost: CostEma::new(),
            model_served: AtomicU64::new(0),
            exact_served: AtomicU64::new(0),
            feedback_fed: AtomicU64::new(0),
            feedback_skipped: AtomicU64::new(0),
            degraded_served: AtomicU64::new(0),
            trainer_panics: AtomicU64::new(0),
            trainer_restarts: AtomicU64::new(0),
            lock_poisonings: AtomicU64::new(0),
            blocks_screened: AtomicU64::new(0),
            blocks_skipped: AtomicU64::new(0),
            blocks_verified: AtomicU64::new(0),
        }
    }

    /// Engine with a trainer attached and its first snapshot published.
    pub fn with_model(exact: ExactEngine, model: LlmModel, policy: RoutePolicy) -> Self {
        let engine = Self::new(exact, policy);
        engine.attach_model(model);
        engine
    }

    /// Attach (or replace) the trainer and publish its current snapshot.
    /// Blocks on the trainer lock (an administrative operation, not the
    /// serve path).
    pub fn attach_model(&self, model: LlmModel) {
        let snapshot = model.snapshot();
        let mut t = self.lock_trainer();
        t.model = Some(model);
        t.since_publish = 0;
        self.cell.publish(snapshot);
        self.degraded.store(false, Ordering::Relaxed);
    }

    /// The exact backend.
    pub fn exact_engine(&self) -> &ExactEngine {
        &self.exact
    }

    /// An owned copy of the currently published snapshot, if any (an
    /// `Arc` bump of the shared capture — versions pinned this way survive
    /// any number of later publishes).
    pub fn snapshot(&self) -> Option<ServingSnapshot> {
        self.cell.load_owned()
    }

    /// The routing policy.
    pub fn policy(&self) -> &RoutePolicy {
        &self.policy
    }

    /// Route/feedback counters so far.
    pub fn stats(&self) -> ServeStats {
        ServeStats {
            model_served: self.model_served.load(Ordering::Relaxed),
            exact_served: self.exact_served.load(Ordering::Relaxed),
            feedback_fed: self.feedback_fed.load(Ordering::Relaxed),
            feedback_skipped: self.feedback_skipped.load(Ordering::Relaxed),
            publishes: self.cell.epoch(),
            degraded_served: self.degraded_served.load(Ordering::Relaxed),
            trainer_panics: self.trainer_panics.load(Ordering::Relaxed),
            trainer_restarts: self.trainer_restarts.load(Ordering::Relaxed),
            lock_poisonings: self.lock_poisonings.load(Ordering::Relaxed),
            blocks_screened: self.blocks_screened.load(Ordering::Relaxed),
            blocks_skipped: self.blocks_skipped.load(Ordering::Relaxed),
            blocks_verified: self.blocks_verified.load(Ordering::Relaxed),
        }
    }

    /// Fold one pruned consultation's screening telemetry into the
    /// engine-lifetime counters (monotonic stats; Relaxed per the module
    /// atomics audit).
    fn record_screen(&self, c: &ScreenCounters) {
        if c.blocks == 0 {
            return;
        }
        self.blocks_screened
            .fetch_add(c.screened, Ordering::Relaxed);
        self.blocks_skipped.fetch_add(c.skipped, Ordering::Relaxed);
        self.blocks_verified
            .fetch_add(c.verified, Ordering::Relaxed);
    }

    /// Install a fault-injection plan (see [`crate::fault`]); also arms
    /// the snapshot cell's publish path. `&mut self`: plans are installed
    /// at setup, before the engine is shared.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.cell.arm_faults(plan.clone());
        self.fault = plan;
    }

    /// Examples quarantined by panicking trainers, oldest first (bounded
    /// at [`QUARANTINE_CAP`]; [`ServeStats::trainer_panics`] has the
    /// unbounded count).
    pub fn quarantined(&self) -> Vec<(Query, f64)> {
        self.quarantine
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }

    /// `true` between a trainer restart and the next publish: answers are
    /// correct (they come from the last *published* snapshot, which the
    /// restarted trainer was rebuilt from) but learning regressed to that
    /// snapshot.
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::Relaxed)
    }

    fn lock_trainer(&self) -> std::sync::MutexGuard<'_, Trainer> {
        match self.trainer.lock() {
            Ok(t) => t,
            Err(p) => {
                let mut t = p.into_inner();
                self.recover_poisoned(&mut t);
                t
            }
        }
    }

    /// Heal a poisoned trainer lock: the guard may expose a half-applied
    /// SGD update (the panicking thread died mid-`train_step`), which
    /// must be neither trained on nor published — so restart from the
    /// last published snapshot and clear the poison. Counted, never
    /// silent.
    fn recover_poisoned(&self, t: &mut Trainer) {
        self.lock_poisonings.fetch_add(1, Ordering::Relaxed);
        self.restart_trainer(t);
        self.trainer.clear_poison();
    }

    /// Restart the trainer from the last published snapshot (or, before
    /// any publish, from a fresh model with the same config). Marks the
    /// engine degraded until the next publish.
    fn restart_trainer(&self, t: &mut Trainer) {
        t.since_publish = 0;
        t.model = self
            .cell
            .load_owned()
            .and_then(|s| s.to_model().ok())
            .or_else(|| {
                t.model
                    .as_ref()
                    .and_then(|m| LlmModel::new(m.config().clone()).ok())
            });
        self.trainer_restarts.fetch_add(1, Ordering::Relaxed);
        self.degraded.store(true, Ordering::Relaxed);
    }

    fn push_quarantine(&self, q: &Query, y: f64) {
        let mut quarantine = self
            .quarantine
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if quarantine.len() < QUARANTINE_CAP {
            quarantine.push((q.clone(), y));
        }
    }

    /// Supervised SGD ingestion of one example, with the trainer lock
    /// held. A panicking `train_step` (real or injected) quarantines the
    /// example, restarts the trainer from the last published snapshot,
    /// and reports [`Feedback::Quarantined`] — the caller keeps serving.
    fn ingest(&self, t: &mut Trainer, q: &Query, y: f64) -> Feedback {
        let Some(model) = t.model.as_mut() else {
            return Feedback::Rejected;
        };
        if model.is_frozen() {
            return Feedback::Rejected;
        }
        let boom = self.fault.fires(FaultKind::TrainerPanic);
        let step = catch_unwind(AssertUnwindSafe(|| {
            let step = model.train_step(q, y);
            // Injected *after* the step so the model really is mid-update
            // (mutated but unaccounted) when the supervisor catches it.
            if boom {
                panic!("injected fault: trainer panic mid-update");
            }
            step
        }));
        match step {
            Ok(Ok(_)) => {
                self.feedback_fed.fetch_add(1, Ordering::Relaxed);
                t.since_publish += 1;
                if t.since_publish >= self.policy.publish_interval {
                    t.since_publish = 0;
                    // INVARIANT: this arm is only reached when `train_step`
                    // succeeded above, which requires `t.model` to be
                    // `Some` (it is populated before the step and only
                    // taken on trainer restart, under this same lock).
                    let snapshot = t.model.as_ref().expect("just trained").snapshot();
                    self.cell.publish(snapshot);
                    self.degraded.store(false, Ordering::Relaxed);
                }
                Feedback::Accepted
            }
            Ok(Err(_)) => Feedback::Rejected,
            Err(_) => {
                self.trainer_panics.fetch_add(1, Ordering::Relaxed);
                self.push_quarantine(q, y);
                self.restart_trainer(t);
                Feedback::Quarantined
            }
        }
    }

    /// Offer an executed `(q, y)` pair to the trainer (Fig. 2's stream).
    /// Never blocks: under lock contention the example is dropped and
    /// counted in [`ServeStats::feedback_skipped`]. A poisoned lock is
    /// healed first (restart from snapshot, poison cleared, counted) and
    /// the example is then ingested normally; a panicking ingestion
    /// quarantines the example ([`Feedback::Quarantined`]).
    pub fn observe_outcome(&self, q: &Query, y: f64) -> Feedback {
        if self.fault.fires(FaultKind::QueueOverflow) {
            // The unsharded engine has no queue; an injected overflow
            // models the bounded-queue refusal as a counted drop.
            self.feedback_skipped.fetch_add(1, Ordering::Relaxed);
            return Feedback::Dropped;
        }
        match self.trainer.try_lock() {
            Ok(mut t) => {
                if self.fault.fires(FaultKind::LockPoison) {
                    self.poison_trainer_lock(t);
                    self.feedback_skipped.fetch_add(1, Ordering::Relaxed);
                    return Feedback::Dropped;
                }
                self.ingest(&mut t, q, y)
            }
            Err(std::sync::TryLockError::WouldBlock) => {
                self.feedback_skipped.fetch_add(1, Ordering::Relaxed);
                Feedback::Dropped
            }
            Err(std::sync::TryLockError::Poisoned(p)) => {
                let mut t = p.into_inner();
                self.recover_poisoned(&mut t);
                self.ingest(&mut t, q, y)
            }
        }
    }

    /// Genuinely poison the trainer mutex (injected
    /// [`FaultKind::LockPoison`]): panic while the guard unwinds, exactly
    /// like a real trainer thread dying with the lock held.
    fn poison_trainer_lock(&self, guard: std::sync::MutexGuard<'_, Trainer>) {
        let poisoner = catch_unwind(AssertUnwindSafe(move || {
            let _guard = guard;
            panic!("injected fault: trainer lock poisoned");
        }));
        debug_assert!(poisoner.is_err());
    }

    /// [`ServeEngine::observe_outcome`] collapsed to "did the trainer
    /// train on it".
    pub fn observe(&self, q: &Query, y: f64) -> bool {
        self.observe_outcome(q, y) == Feedback::Accepted
    }

    /// Force-publish the trainer's current parameters (blocks on the
    /// trainer lock). Returns the new epoch, or `None` without a trainer.
    pub fn publish_now(&self) -> Option<u64> {
        let mut t = self.lock_trainer();
        t.since_publish = 0;
        let snapshot = t.model.as_ref()?.snapshot();
        let epoch = self.cell.publish(snapshot);
        self.degraded.store(false, Ordering::Relaxed);
        Some(epoch)
    }

    fn exact_q1_value(&self, q: &Query) -> Result<f64, ServeError> {
        self.timed_exact(|| {
            self.exact
                .q1(&q.center, q.radius)
                .ok_or(ServeError::EmptySubspace)
        })
    }

    /// Run an exact execution, folding injected latency
    /// ([`FaultKind::ExactDelay`]) and — when a deadline budget makes the
    /// estimate relevant — the measured cost into the exact-cost EMA. The
    /// default configuration (no budget, no armed delay) is a direct
    /// call: no clock reads on the hot path.
    fn timed_exact<T>(&self, run: impl FnOnce() -> Result<T, ServeError>) -> Result<T, ServeError> {
        if self.policy.deadline_us.is_none() && !self.fault.is_armed(FaultKind::ExactDelay) {
            return run();
        }
        let start = Instant::now();
        self.fault.delay_exact();
        let out = run();
        self.record_exact_cost(start.elapsed().as_secs_f64() * 1e6);
        out
    }

    fn record_exact_cost(&self, us: f64) {
        self.exact_cost.record(us);
    }

    /// The exact-path cost estimate driving [`RoutePolicy::deadline_us`]:
    /// the max of the measured EMA and any standing fault-plan hint.
    fn exact_cost_estimate_us(&self) -> Option<f64> {
        let measured = self.exact_cost.estimate_us();
        match (measured, self.fault.exact_cost_hint_us()) {
            (Some(m), Some(h)) => Some(m.max(h)),
            (m, h) => m.or(h),
        }
    }

    /// Whether a below-threshold query should skip the exact fallback
    /// and serve the snapshot answer as [`Route::Degraded`].
    fn should_degrade(&self) -> bool {
        self.policy.deadline_us.is_some_and(|budget| {
            self.exact_cost_estimate_us()
                .is_some_and(|cost| cost > budget)
        })
    }

    fn degraded_serve<T>(
        &self,
        value: T,
        score: f64,
        version: u64,
        screen: ScreenCounters,
    ) -> Served<T> {
        self.degraded_served.fetch_add(1, Ordering::Relaxed);
        Served {
            value,
            route: Route::Degraded,
            score: Some(score),
            snapshot_version: Some(version),
            feedback_dropped: false,
            screen,
        }
    }

    /// Feed the trainer (policy permitting) and report whether *this*
    /// example was lost (dropped to contention/overflow, or quarantined
    /// by a panicking trainer).
    fn feed_back(&self, q: &Query, y: f64) -> bool {
        self.policy.feedback && self.observe_outcome(q, y).is_lost()
    }

    /// Gate a query against the current snapshot under the read guard.
    fn gate<T>(
        &self,
        q: &Query,
        predict: impl FnOnce(&ServingSnapshot, &Query) -> Result<(T, regq_core::Confidence), CoreError>,
    ) -> Gate<T> {
        self.cell.with_current(|snap| {
            let Some(snap) = snap.filter(|s| s.k() > 0) else {
                return Gate::NoSnapshot;
            };
            match predict(snap, q) {
                Ok((value, conf)) if conf.score >= self.policy.confidence_threshold => Gate::Hit {
                    value,
                    score: conf.score,
                    version: snap.version(),
                },
                Ok((value, conf)) => Gate::Fallback {
                    value,
                    score: conf.score,
                    version: snap.version(),
                },
                Err(e) => Gate::Failed(e),
            }
        })
    }

    /// **Auto-routed Q1** (the paper's D2 serve-or-fall-back): snapshot
    /// when the confidence score clears the threshold, exact otherwise —
    /// with the exact answer fed back to the trainer.
    ///
    /// # Errors
    /// [`ServeError::EmptySubspace`] when the fallback selection is empty;
    /// [`ServeError::Model`] on model-side failures (e.g. dimension
    /// mismatch).
    pub fn q1(&self, q: &Query) -> Result<Served<f64>, ServeError> {
        let mut screen = ScreenCounters::default();
        let gate = self.gate(q, |snap, q| {
            snap.predict_q1_with_confidence_pruned(q, &mut screen)
        });
        self.record_screen(&screen);
        match gate {
            Gate::NoSnapshot => self.q1_exact(q),
            Gate::Hit {
                value,
                score,
                version,
            } => {
                self.model_served.fetch_add(1, Ordering::Relaxed);
                Ok(Served {
                    value,
                    route: Route::Model,
                    score: Some(score),
                    snapshot_version: Some(version),
                    feedback_dropped: false,
                    screen,
                })
            }
            Gate::Fallback {
                value,
                score,
                version,
            } => {
                if self.should_degrade() {
                    return Ok(self.degraded_serve(value, score, version, screen));
                }
                let mut served = self.q1_exact(q)?;
                served.score = Some(score);
                served.snapshot_version = Some(version);
                served.screen = screen;
                Ok(served)
            }
            Gate::Failed(e) => Err(ServeError::Model(e)),
        }
    }

    /// **Forced model Q1** (the SQL `USING MODEL` route).
    ///
    /// # Errors
    /// [`ServeError::NoModel`] without a non-empty snapshot;
    /// [`ServeError::Model`] on prediction failures.
    pub fn q1_model(&self, q: &Query) -> Result<Served<f64>, ServeError> {
        let mut screen = ScreenCounters::default();
        let (value, score, version) = self.cell.with_current(|snap| {
            let snap = snap.filter(|s| s.k() > 0).ok_or(ServeError::NoModel)?;
            let (y, conf) = snap
                .predict_q1_with_confidence_pruned(q, &mut screen)
                .map_err(ServeError::Model)?;
            Ok((y, conf.score, snap.version()))
        })?;
        self.record_screen(&screen);
        self.model_served.fetch_add(1, Ordering::Relaxed);
        Ok(Served {
            value,
            route: Route::Model,
            score: Some(score),
            snapshot_version: Some(version),
            feedback_dropped: false,
            screen,
        })
    }

    /// **Forced exact Q1** (the SQL `USING EXACT` route). Still feeds the
    /// trainer when feedback is on — analyst-issued exact queries *are*
    /// the paper's training stream.
    ///
    /// # Errors
    /// [`ServeError::EmptySubspace`] when the selection is empty.
    pub fn q1_exact(&self, q: &Query) -> Result<Served<f64>, ServeError> {
        let y = self.exact_q1_value(q)?;
        let dropped = self.feed_back(q, y);
        self.exact_served.fetch_add(1, Ordering::Relaxed);
        let mut served = Served::exact_only(y);
        served.feedback_dropped = dropped;
        Ok(served)
    }

    /// **Auto-routed Q2** (regression-model list vs per-query OLS). The
    /// exact fallback runs the fused Q1+OLS traversal, so the free
    /// training example (the subspace mean) costs no extra data pass.
    ///
    /// # Errors
    /// [`ServeError::EmptySubspace`] / [`ServeError::Numeric`] from the
    /// fallback; [`ServeError::Model`] from the snapshot.
    pub fn q2(&self, q: &Query) -> Result<Served<Vec<LocalModel>>, ServeError> {
        let mut screen = ScreenCounters::default();
        let gate = self.gate(q, |snap, q| {
            snap.predict_q2_with_confidence_pruned(q, &mut screen)
        });
        self.record_screen(&screen);
        match gate {
            Gate::NoSnapshot => self.q2_exact(q),
            Gate::Hit {
                value,
                score,
                version,
            } => {
                self.model_served.fetch_add(1, Ordering::Relaxed);
                Ok(Served {
                    value,
                    route: Route::Model,
                    score: Some(score),
                    snapshot_version: Some(version),
                    feedback_dropped: false,
                    screen,
                })
            }
            Gate::Fallback {
                value,
                score,
                version,
            } => {
                if self.should_degrade() {
                    return Ok(self.degraded_serve(value, score, version, screen));
                }
                let mut served = self.q2_exact(q)?;
                served.score = Some(score);
                served.snapshot_version = Some(version);
                served.screen = screen;
                Ok(served)
            }
            Gate::Failed(e) => Err(ServeError::Model(e)),
        }
    }

    /// **Forced model Q2** (Algorithm 3's list `S`).
    ///
    /// # Errors
    /// [`ServeError::NoModel`] without a non-empty snapshot;
    /// [`ServeError::Model`] on prediction failures.
    pub fn q2_model(&self, q: &Query) -> Result<Served<Vec<LocalModel>>, ServeError> {
        let mut screen = ScreenCounters::default();
        let (value, score, version) = self.cell.with_current(|snap| {
            let snap = snap.filter(|s| s.k() > 0).ok_or(ServeError::NoModel)?;
            let (s, conf) = snap
                .predict_q2_with_confidence_pruned(q, &mut screen)
                .map_err(ServeError::Model)?;
            Ok((s, conf.score, snap.version()))
        })?;
        self.record_screen(&screen);
        self.model_served.fetch_add(1, Ordering::Relaxed);
        Ok(Served {
            value,
            route: Route::Model,
            score: Some(score),
            snapshot_version: Some(version),
            feedback_dropped: false,
            screen,
        })
    }

    /// **Forced exact Q2**: the per-query OLS fit, returned in the same
    /// [`LocalModel`] shape as the model route (weight 1, the query ball
    /// as the region). Feeds the subspace mean to the trainer (the fused
    /// traversal computes it anyway).
    ///
    /// # Errors
    /// [`ServeError::EmptySubspace`] on an empty selection;
    /// [`ServeError::Numeric`] on a numerical failure.
    pub fn q2_exact(&self, q: &Query) -> Result<Served<Vec<LocalModel>>, ServeError> {
        let fit = self.timed_exact(|| {
            self.exact
                .q1_reg_fused(&q.center, q.radius)
                .map_err(|e| match e {
                    LinalgError::Empty => ServeError::EmptySubspace,
                    other => ServeError::Numeric(other),
                })
        })?;
        let dropped = self.feed_back(q, fit.moments.mean);
        self.exact_served.fetch_add(1, Ordering::Relaxed);
        let mut served = Served::exact_only(vec![LocalModel {
            intercept: fit.model.intercept,
            slope: fit.model.slope,
            prototype: 0,
            weight: 1.0,
            center: q.center.clone(),
            radius: q.radius,
        }]);
        served.feedback_dropped = dropped;
        Ok(served)
    }

    // ---- Batched serving ----------------------------------------------
    //
    // The batch entry points route a whole `&[Query]` through ONE
    // snapshot read guard and ONE trainer `try_lock`. Per-query answers
    // are bit-identical to the scalar path (the snapshot batch
    // predictors replay the scalar kernels' floating-point operation
    // sequence exactly); the observable difference is consistency:
    // a batch never straddles a republish, whereas a scalar loop can.

    /// Offer a whole batch of executed `(q, y)` pairs to the trainer
    /// under a single `try_lock`. Per-example semantics match
    /// [`ServeEngine::observe_outcome`] exactly (supervised ingestion,
    /// publish at the interval, quarantine on panic — the batch continues
    /// on the restarted trainer); under contention the *entire batch* is
    /// dropped and counted, because serving never blocks on training. A
    /// poisoned lock is healed first and the batch then ingests normally.
    pub fn observe_outcome_batch(&self, pairs: &[(Query, f64)]) -> Vec<Feedback> {
        if pairs.is_empty() {
            return Vec::new();
        }
        match self.trainer.try_lock() {
            Ok(mut t) => {
                if self.fault.fires(FaultKind::LockPoison) {
                    self.poison_trainer_lock(t);
                    self.feedback_skipped
                        .fetch_add(pairs.len() as u64, Ordering::Relaxed);
                    return vec![Feedback::Dropped; pairs.len()];
                }
                self.ingest_batch(&mut t, pairs)
            }
            Err(std::sync::TryLockError::WouldBlock) => {
                self.feedback_skipped
                    .fetch_add(pairs.len() as u64, Ordering::Relaxed);
                vec![Feedback::Dropped; pairs.len()]
            }
            Err(std::sync::TryLockError::Poisoned(p)) => {
                let mut t = p.into_inner();
                self.recover_poisoned(&mut t);
                self.ingest_batch(&mut t, pairs)
            }
        }
    }

    fn ingest_batch(&self, t: &mut Trainer, pairs: &[(Query, f64)]) -> Vec<Feedback> {
        pairs
            .iter()
            .map(|(q, y)| {
                if self.fault.fires(FaultKind::QueueOverflow) {
                    self.feedback_skipped.fetch_add(1, Ordering::Relaxed);
                    Feedback::Dropped
                } else {
                    self.ingest(t, q, *y)
                }
            })
            .collect()
    }

    /// Gate a whole batch against the current snapshot under one read
    /// guard.
    fn gate_batch<T>(
        &self,
        queries: &[Query],
        predict: impl FnOnce(
            &ServingSnapshot,
            &[Query],
        ) -> Result<Vec<(T, regq_core::Confidence)>, CoreError>,
    ) -> GateBatch<T> {
        self.cell.with_current(|snap| {
            let Some(snap) = snap.filter(|s| s.k() > 0) else {
                return GateBatch::NoSnapshot;
            };
            match predict(snap, queries) {
                Ok(results) => GateBatch::Resolved {
                    results,
                    version: snap.version(),
                },
                Err(e) => GateBatch::Failed(e),
            }
        })
    }

    /// Shared batch driver: gate every query against one snapshot, serve
    /// the confident ones from the model, run the rest on the exact
    /// engine (after the read guard drops), and feed the exact answers
    /// back in one batched trainer offer. `exact` returns the served
    /// value plus the label to feed back. Fails fast on the first exact
    /// error (answers already produced are discarded — a batch is one
    /// all-or-nothing call).
    fn route_batch<T>(
        &self,
        queries: &[Query],
        predict: impl FnOnce(
            &ServingSnapshot,
            &[Query],
            &mut ScreenCounters,
        ) -> Result<Vec<(T, regq_core::Confidence)>, CoreError>,
        mut exact: impl FnMut(&Query) -> Result<(T, f64), ServeError>,
    ) -> Result<Vec<Served<T>>, ServeError> {
        if queries.is_empty() {
            return Ok(Vec::new());
        }
        let expected = self.exact.relation().dim();
        for q in queries {
            if q.dim() != expected {
                return Err(ServeError::Model(CoreError::DimensionMismatch {
                    expected,
                    actual: q.dim(),
                }));
            }
        }
        let mut screen = ScreenCounters::default();
        let mut out: Vec<Served<T>> = Vec::with_capacity(queries.len());
        let mut fb_pairs: Vec<(Query, f64)> = Vec::new();
        let mut fb_slots: Vec<usize> = Vec::new();
        #[allow(clippy::type_complexity)]
        let mut fallback = |q: &Query,
                            score: Option<f64>,
                            version: Option<u64>,
                            out: &mut Vec<Served<T>>,
                            exact: &mut dyn FnMut(&Query) -> Result<(T, f64), ServeError>|
         -> Result<(), ServeError> {
            let (value, y) = exact(q)?;
            if self.policy.feedback {
                fb_pairs.push((q.clone(), y));
                fb_slots.push(out.len());
            }
            self.exact_served.fetch_add(1, Ordering::Relaxed);
            let mut served = Served::exact_only(value);
            served.score = score;
            served.snapshot_version = version;
            out.push(served);
            Ok(())
        };
        let gate = self.gate_batch(queries, |snap, qs| predict(snap, qs, &mut screen));
        self.record_screen(&screen);
        match gate {
            GateBatch::Failed(e) => return Err(ServeError::Model(e)),
            GateBatch::NoSnapshot => {
                for q in queries {
                    fallback(q, None, None, &mut out, &mut exact)?;
                }
            }
            GateBatch::Resolved { results, version } => {
                debug_assert_eq!(results.len(), queries.len());
                // One degrade decision per batch: every below-threshold
                // query in this batch routes the same way.
                let degrade = self.should_degrade();
                for (q, (value, conf)) in queries.iter().zip(results) {
                    if conf.score >= self.policy.confidence_threshold {
                        self.model_served.fetch_add(1, Ordering::Relaxed);
                        out.push(Served {
                            value,
                            route: Route::Model,
                            score: Some(conf.score),
                            snapshot_version: Some(version),
                            feedback_dropped: false,
                            screen,
                        });
                    } else if degrade {
                        out.push(self.degraded_serve(value, conf.score, version, screen));
                    } else {
                        fallback(q, Some(conf.score), Some(version), &mut out, &mut exact)?;
                        // The consultation covered this query too.
                        if let Some(last) = out.last_mut() {
                            last.screen = screen;
                        }
                    }
                }
            }
        }
        let feedback = self.observe_outcome_batch(&fb_pairs);
        for (&slot, fb) in fb_slots.iter().zip(feedback) {
            out[slot].feedback_dropped = fb.is_lost();
        }
        Ok(out)
    }

    /// **Batched auto-routed Q1**: [`ServeEngine::q1`] over a slice with
    /// one snapshot read guard, the blocked Q×K distance kernels, and
    /// one batched feedback offer for the exact-fallback subset. Answers
    /// are bit-identical to per-query [`ServeEngine::q1`] calls against
    /// the same snapshot. An empty batch returns an empty vec.
    ///
    /// # Errors
    /// As [`ServeEngine::q1`]; additionally a typed
    /// [`CoreError::DimensionMismatch`] (wrapped in
    /// [`ServeError::Model`]) when any query's dimensionality differs
    /// from the relation's, checked up front before any work runs.
    pub fn q1_batch(&self, queries: &[Query]) -> Result<Vec<Served<f64>>, ServeError> {
        self.route_batch(
            queries,
            ServingSnapshot::predict_q1_with_confidence_batch_pruned,
            |q| {
                let y = self.exact_q1_value(q)?;
                Ok((y, y))
            },
        )
    }

    /// **Batched auto-routed Q2**: [`ServeEngine::q2`] over a slice —
    /// same single-guard, single-feedback-offer semantics as
    /// [`ServeEngine::q1_batch`], with the fused Q1+OLS fallback feeding
    /// the subspace mean back to the trainer.
    ///
    /// # Errors
    /// As [`ServeEngine::q2`], plus the up-front batched dimension check.
    pub fn q2_batch(&self, queries: &[Query]) -> Result<Vec<Served<Vec<LocalModel>>>, ServeError> {
        self.route_batch(
            queries,
            ServingSnapshot::predict_q2_with_confidence_batch_pruned,
            |q| {
                let fit = self.timed_exact(|| {
                    self.exact
                        .q1_reg_fused(&q.center, q.radius)
                        .map_err(|e| match e {
                            LinalgError::Empty => ServeError::EmptySubspace,
                            other => ServeError::Numeric(other),
                        })
                })?;
                let y = fit.moments.mean;
                Ok((
                    vec![LocalModel {
                        intercept: fit.model.intercept,
                        slope: fit.model.slope,
                        prototype: 0,
                        weight: 1.0,
                        center: q.center.clone(),
                        radius: q.radius,
                    }],
                    y,
                ))
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use regq_core::ModelConfig;
    use regq_data::generators::GasSensorSurrogate;
    use regq_data::rng::seeded;
    use regq_data::{Dataset, SampleOptions};
    use regq_store::AccessPathKind;
    use std::sync::Arc;

    fn q(center: &[f64], r: f64) -> Query {
        Query::new_unchecked(center.to_vec(), r)
    }

    fn exact_engine(rows: usize, seed: u64) -> ExactEngine {
        let field = GasSensorSurrogate::new(2, 3);
        let mut rng = seeded(seed);
        let ds = Dataset::from_function(&field, rows, SampleOptions::default(), &mut rng);
        ExactEngine::new(Arc::new(ds), AccessPathKind::KdTree)
    }

    fn trained_model(engine: &ExactEngine, budget: usize, seed: u64) -> LlmModel {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cfg = ModelConfig::with_vigilance(2, 0.15);
        cfg.gamma = 1e-3;
        let mut model = LlmModel::new(cfg).unwrap();
        for _ in 0..budget {
            let c = vec![rng.random_range(0.0..1.0), rng.random_range(0.0..1.0)];
            let r = rng.random_range(0.05..0.2);
            if let Some(y) = engine.q1(&c, r) {
                if model.train_step(&q(&c, r), y).unwrap().converged {
                    break;
                }
            }
        }
        model
    }

    fn engine_with_model() -> ServeEngine {
        let exact = exact_engine(20_000, 1);
        let model = trained_model(&exact, 30_000, 2);
        ServeEngine::with_model(exact, model, RoutePolicy::default())
    }

    #[test]
    fn send_sync_and_static_bounds() {
        fn assert_bounds<T: Send + Sync>() {}
        assert_bounds::<ServeEngine>();
        assert_bounds::<SnapshotCell>();
        assert_bounds::<ServingSnapshot>();
    }

    #[test]
    fn in_distribution_queries_serve_from_the_model() {
        let engine = engine_with_model();
        // Probe at a mature prototype's own ball: guaranteed overlap mass,
        // guaranteed high confidence.
        let snapshot = engine.snapshot().unwrap();
        let protos = snapshot.prototypes();
        let p = protos.iter().max_by_key(|p| p.updates).unwrap();
        let probe = q(&p.center, p.radius);
        let served = engine.q1(&probe).unwrap();
        assert_eq!(served.route, Route::Model);
        assert!(served.score.unwrap() >= engine.policy().confidence_threshold);
        assert_eq!(served.value, snapshot.predict_q1(&probe).unwrap());
        assert!(!served.feedback_dropped);
        assert_eq!(engine.stats().model_served, 1);
    }

    #[test]
    fn low_confidence_queries_fall_back_to_exact() {
        let engine = engine_with_model();
        // Far outside the trained region, but still inside the dataset's
        // bounding volume? No — use a ball that *does* select data but
        // sits past the trained query distribution, by widening the ball
        // around a corner. Simplest robust construction: a huge radius at
        // an untrained far center selects the whole table.
        let far = q(&[30.0, 30.0], 50.0);
        let served = engine.q1(&far).unwrap();
        assert_eq!(served.route, Route::Exact);
        let score = served.score.expect("snapshot was consulted");
        assert!(score < engine.policy().confidence_threshold);
        assert_eq!(
            served.value,
            engine.exact_engine().q1(&far.center, far.radius).unwrap()
        );
        assert_eq!(engine.stats().exact_served, 1);
    }

    #[test]
    fn empty_fallback_selection_is_a_null_error() {
        let engine = engine_with_model();
        let err = engine.q1(&q(&[500.0, 500.0], 0.01)).unwrap_err();
        assert!(matches!(err, ServeError::EmptySubspace));
    }

    #[test]
    fn engine_without_model_routes_exact_and_reports_no_score() {
        let exact = exact_engine(5_000, 4);
        let engine = ServeEngine::new(
            exact,
            RoutePolicy {
                feedback: false,
                ..RoutePolicy::default()
            },
        );
        let served = engine.q1(&q(&[0.5, 0.5], 0.2)).unwrap();
        assert_eq!(served.route, Route::Exact);
        assert_eq!(served.score, None);
        assert_eq!(served.snapshot_version, None);
        assert!(matches!(
            engine.q1_model(&q(&[0.5, 0.5], 0.2)),
            Err(ServeError::NoModel)
        ));
    }

    #[test]
    fn exact_fallback_feeds_the_trainer_and_republishes() {
        let exact = exact_engine(10_000, 5);
        // Fresh (empty) trainer + a threshold nothing clears: every query
        // executes exactly and becomes a training example.
        let policy = RoutePolicy {
            confidence_threshold: 2.0, // unreachable: always fall back
            feedback: true,
            publish_interval: 16,
            ..RoutePolicy::default()
        };
        let model = LlmModel::new(ModelConfig::with_vigilance(2, 0.15)).unwrap();
        let engine = ServeEngine::with_model(exact, model, policy);
        assert_eq!(engine.stats().publishes, 1);
        let mut rng = StdRng::seed_from_u64(6);
        let mut fed_before = 0;
        for _ in 0..200 {
            let c = vec![rng.random_range(0.0..1.0), rng.random_range(0.0..1.0)];
            match engine.q1(&q(&c, 0.15)) {
                Ok(served) => assert_eq!(served.route, Route::Exact),
                Err(ServeError::EmptySubspace) => continue,
                Err(e) => panic!("unexpected {e}"),
            }
            fed_before += 1;
        }
        let stats = engine.stats();
        assert!(stats.feedback_fed > 0, "trainer saw no examples");
        assert!(stats.feedback_fed <= fed_before as u64);
        assert!(
            stats.publishes > 1,
            "publish_interval=16 with {} examples must republish",
            stats.feedback_fed
        );
        // The published snapshot now carries the learned prototypes, at a
        // version no newer than the examples the trainer accepted.
        assert!(engine.snapshot().unwrap().k() > 0);
        let version = engine.snapshot().unwrap().version();
        assert!(version > 0 && version <= stats.feedback_fed);
    }

    #[test]
    fn contended_feedback_is_counted_and_reported() {
        // Satellite fix regression: a `try_lock` loss must increment the
        // drop counter AND be visible on the served answer — previously
        // the example vanished silently.
        let engine = engine_with_model();
        let query = q(&[0.5, 0.5], 0.2);
        // Hold the trainer lock so every feedback attempt loses the race
        // deterministically (std mutexes are not reentrant: `try_lock`
        // from this thread reports WouldBlock).
        let guard = engine.trainer.lock().unwrap();
        assert_eq!(engine.observe_outcome(&query, 1.0), Feedback::Dropped);
        let served = engine.q1_exact(&query).unwrap();
        assert!(served.feedback_dropped, "drop must surface on the answer");
        drop(guard);
        assert_eq!(engine.stats().feedback_skipped, 2);
        // Uncontended attempts are not drops (the frozen trainer rejects
        // them, which is a deliberate decline, not a loss).
        let served = engine.q1_exact(&query).unwrap();
        assert!(!served.feedback_dropped);
        assert_eq!(engine.stats().feedback_skipped, 2);
    }

    #[test]
    fn poisoned_trainer_lock_heals_with_a_counted_restart() {
        // Poison recovery semantics (the shard.rs:279 audit, engine
        // form): a poisoned guard may hold a half-applied SGD update, so
        // recovery must reset the trainer from the last published
        // snapshot, count the health event, clear the poison, and then
        // keep ingesting — NOT silently train on the poisoned state (the
        // pre-PR-8 behavior) and NOT drop examples forever.
        let exact = exact_engine(20_000, 1);
        let mut model = trained_model(&exact, 30_000, 2);
        model.freeze(); // frozen survives snapshot → restart round trips
        let engine = ServeEngine::with_model(exact, model, RoutePolicy::default());
        let probe = q(&[0.5, 0.5], 0.2);
        let before = engine.snapshot().unwrap();
        let poisoner = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = engine.trainer.lock().unwrap();
            panic!("poison the trainer lock");
        }));
        assert!(poisoner.is_err());
        // First offer after the poison heals the lock and ingests on the
        // restarted trainer. The trainer is frozen and the snapshot
        // restores frozen too: a deliberate Rejected, not a loss.
        assert_eq!(engine.observe_outcome(&probe, 1.0), Feedback::Rejected);
        let stats = engine.stats();
        assert_eq!(stats.lock_poisonings, 1);
        assert_eq!(stats.trainer_restarts, 1);
        assert_eq!(stats.feedback_skipped, 0, "recovery is not a drop");
        assert!(engine.is_degraded(), "restart marks the engine degraded");
        // The poison is cleared: later offers take the normal path.
        let served = engine.q1_exact(&probe).unwrap();
        assert!(!served.feedback_dropped);
        assert_eq!(engine.stats().lock_poisonings, 1);
        // The restarted trainer publishes bit-identically to the snapshot
        // it was rebuilt from — nothing half-applied survived.
        engine.publish_now().unwrap();
        assert!(!engine.is_degraded(), "publish clears the degraded flag");
        let after = engine.snapshot().unwrap();
        assert_eq!(
            before.predict_q1(&probe).unwrap().to_bits(),
            after.predict_q1(&probe).unwrap().to_bits(),
            "recovered trainer must republish the pre-poison snapshot"
        );
    }

    #[test]
    fn injected_trainer_panic_quarantines_restarts_and_keeps_serving() {
        use crate::fault::{FaultKind, FaultPlan};
        let exact = exact_engine(5_000, 21);
        let model = LlmModel::new(ModelConfig::with_vigilance(2, 0.15)).unwrap();
        let mut engine = ServeEngine::with_model(
            exact,
            model,
            RoutePolicy {
                confidence_threshold: 2.0, // always fall back: feed everything
                publish_interval: 4,
                ..RoutePolicy::default()
            },
        );
        engine.set_fault_plan(FaultPlan::new().inject(FaultKind::TrainerPanic, &[3]));
        let mut rng = StdRng::seed_from_u64(22);
        let mut outcomes = Vec::new();
        let mut pairs = Vec::new();
        for _ in 0..8 {
            let c = vec![rng.random_range(0.0..1.0), rng.random_range(0.0..1.0)];
            let query = q(&c, 0.15);
            let y = rng.random_range(-1.0..1.0);
            pairs.push((query.clone(), y));
            outcomes.push(engine.observe_outcome(&query, y));
        }
        // Exactly ingestion #3 was quarantined; the rest trained.
        let expected: Vec<Feedback> = (1..=8)
            .map(|i| {
                if i == 3 {
                    Feedback::Quarantined
                } else {
                    Feedback::Accepted
                }
            })
            .collect();
        assert_eq!(outcomes, expected);
        let stats = engine.stats();
        assert_eq!(stats.trainer_panics, 1);
        assert_eq!(stats.trainer_restarts, 1);
        assert_eq!(stats.feedback_fed, 7);
        // The quarantined example is retrievable, exactly the third pair.
        let quarantined = engine.quarantined();
        assert_eq!(quarantined.len(), 1);
        assert_eq!(quarantined[0].0.center, pairs[2].0.center);
        assert_eq!(quarantined[0].1, pairs[2].1);
        // Serving survived throughout and the fabric still answers.
        assert!(engine.q1(&q(&[0.5, 0.5], 0.3)).is_ok());
        assert!(stats.publishes >= 2, "post-restart training republished");
    }

    #[test]
    fn deadline_budget_degrades_fallbacks_flagged_and_snapshot_identical() {
        use crate::fault::FaultPlan;
        // Twin engines over the same data and model; one advertises an
        // exact cost far beyond the deadline budget. Model routes must
        // stay bit-identical; the twin's exact fallbacks must become
        // flagged Degraded answers that serve the snapshot's own bits.
        let plain = {
            let exact = exact_engine(20_000, 1);
            let model = trained_model(&exact, 30_000, 2);
            let policy = RoutePolicy {
                feedback: false,
                ..RoutePolicy::default()
            };
            ServeEngine::with_model(exact, model, policy)
        };
        let mut slow = {
            let exact = exact_engine(20_000, 1);
            let model = trained_model(&exact, 30_000, 2);
            let policy = RoutePolicy {
                feedback: false,
                deadline_us: Some(50.0),
                ..RoutePolicy::default()
            };
            ServeEngine::with_model(exact, model, policy)
        };
        slow.set_fault_plan(FaultPlan::new().with_exact_cost_hint_us(1e6));
        let snapshot = slow.snapshot().unwrap();
        let probes = mixed_probes(&plain);
        let mut degraded = 0usize;
        for probe in &probes {
            let a = plain.q1(probe).unwrap();
            let b = slow.q1(probe).unwrap();
            match a.route {
                Route::Model => {
                    assert_eq!(b.route, Route::Model);
                    assert_eq!(a.value.to_bits(), b.value.to_bits());
                }
                Route::Exact => {
                    degraded += 1;
                    assert_eq!(b.route, Route::Degraded, "refused fallback must be flagged");
                    assert_eq!(
                        b.value.to_bits(),
                        snapshot.predict_q1(probe).unwrap().to_bits(),
                        "degraded answer must be the snapshot's own bits"
                    );
                    assert_eq!(b.score, a.score);
                }
                Route::Degraded => panic!("plain engine must never degrade"),
            }
        }
        assert!(degraded > 0, "probe set must exercise the fallback route");
        assert_eq!(slow.stats().degraded_served, degraded as u64);
        assert_eq!(plain.stats().degraded_served, 0);
        // Batch path: same per-query routes and bits. Screening counters
        // differ by design (the batch shares one consultation's aggregate
        // across its answers), so normalise them before comparing.
        let batch = slow.q1_batch(&probes).unwrap();
        for (probe, served) in probes.iter().zip(&batch) {
            let mut scalar = slow.q1(probe).unwrap();
            let mut batched = served.clone();
            scalar.screen = ScreenCounters::default();
            batched.screen = ScreenCounters::default();
            assert_eq!(batched, scalar);
        }
    }

    #[test]
    fn injected_queue_overflow_is_a_counted_drop_that_heals() {
        use crate::fault::{FaultKind, FaultPlan};
        let exact = exact_engine(5_000, 23);
        let model = LlmModel::new(ModelConfig::with_vigilance(2, 0.15)).unwrap();
        let mut engine = ServeEngine::with_model(
            exact,
            model,
            RoutePolicy {
                confidence_threshold: 2.0,
                ..RoutePolicy::default()
            },
        );
        engine.set_fault_plan(FaultPlan::new().inject(FaultKind::QueueOverflow, &[1, 2]));
        let probe = q(&[0.5, 0.5], 0.2);
        let served = engine.q1(&probe).unwrap();
        assert!(served.feedback_dropped, "overflow burst surfaces per-query");
        assert_eq!(engine.observe_outcome(&probe, 1.0), Feedback::Dropped);
        assert_eq!(engine.stats().feedback_skipped, 2);
        // Burst over: feedback flows again.
        assert_eq!(engine.observe_outcome(&probe, 1.0), Feedback::Accepted);
        assert_eq!(engine.stats().feedback_skipped, 2);
    }

    #[test]
    fn self_training_engine_graduates_to_model_serving() {
        // Start with an *empty* trainer and let the closed loop train it:
        // after enough exact-served queries, in-distribution queries must
        // start clearing the confidence gate.
        let exact = exact_engine(20_000, 7);
        // Finer vigilance than the default: enough prototypes that typical
        // analyst balls genuinely overlap learned subspaces once trained.
        let cfg = ModelConfig::with_vigilance(2, 0.08);
        let engine = ServeEngine::with_model(
            exact,
            LlmModel::new(cfg).unwrap(),
            RoutePolicy {
                confidence_threshold: 0.3,
                feedback: true,
                publish_interval: 64,
                ..RoutePolicy::default()
            },
        );
        let mut rng = StdRng::seed_from_u64(8);
        let mut model_routes = 0usize;
        for _ in 0..4_000 {
            let c = vec![rng.random_range(0.0..1.0), rng.random_range(0.0..1.0)];
            match engine.q1(&q(&c, 0.15)) {
                Ok(served) => {
                    if served.route == Route::Model {
                        model_routes += 1;
                    }
                }
                Err(ServeError::EmptySubspace) => {}
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert!(
            model_routes > 100,
            "closed loop never graduated: {model_routes} model routes"
        );
        let stats = engine.stats();
        assert!(stats.publishes > 1);
        assert!(stats.model_served > 0 && stats.exact_served > 0);
    }

    #[test]
    fn q2_routes_and_shapes_match_the_session_contract() {
        let engine = engine_with_model();
        let snapshot = engine.snapshot().unwrap();
        let protos = snapshot.prototypes();
        let p = protos.iter().max_by_key(|p| p.updates).unwrap();
        let query = q(&p.center, p.radius);
        let model_route = engine.q2_model(&query).unwrap();
        assert!(!model_route.value.is_empty());
        let wsum: f64 = model_route.value.iter().map(|m| m.weight).sum();
        assert!((wsum - 1.0).abs() < 1e-9);

        let exact_route = engine.q2_exact(&query).unwrap();
        assert_eq!(exact_route.value.len(), 1);
        assert_eq!(exact_route.value[0].weight, 1.0);
        assert_eq!(exact_route.value[0].slope.len(), 2);

        let auto = engine.q2(&query).unwrap();
        assert_eq!(auto.route, Route::Model, "in-distribution Q2 must serve");
        assert_eq!(auto.value, model_route.value);
    }

    #[test]
    fn serve_error_sources_chain() {
        use std::error::Error as _;
        let engine = engine_with_model();
        let err = engine.q1(&q(&[0.5], 0.1)).unwrap_err();
        let ServeError::Model(inner) = &err else {
            panic!("expected model error, got {err:?}");
        };
        assert!(matches!(inner, CoreError::DimensionMismatch { .. }));
        assert!(err.source().is_some(), "source must thread the cause");
        assert!(ServeError::EmptySubspace.source().is_none());
    }

    #[test]
    fn concurrent_readers_with_live_writer_never_block_or_tear() {
        // 4 reader threads auto-route a fixed workload while the main
        // thread keeps feeding/publishing; every answer must be finite,
        // and model-served answers must be deterministic per published
        // version: two readers seeing the same (query, version) pair must
        // read the same value, even though publishes land mid-flight (and
        // superseded snapshots are being *freed* mid-flight by the cell's
        // reclamation).
        let exact = exact_engine(10_000, 9);
        let cfg = ModelConfig::with_vigilance(2, 0.15);
        let engine = ServeEngine::with_model(
            exact,
            LlmModel::new(cfg).unwrap(),
            RoutePolicy {
                confidence_threshold: 0.25,
                feedback: false, // readers must not train: the writer owns it
                publish_interval: 128,
                ..RoutePolicy::default()
            },
        );
        let mut rng = StdRng::seed_from_u64(10);
        let queries: Vec<Query> = (0..400)
            .map(|_| {
                let c = vec![rng.random_range(0.0..1.0), rng.random_range(0.0..1.0)];
                q(&c, rng.random_range(0.08..0.2))
            })
            .collect();
        let per_reader: Vec<Vec<(usize, u64, f64)>> = std::thread::scope(|scope| {
            let readers: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        let mut answers = Vec::new();
                        // Loop the workload a few times so later passes see
                        // later publishes.
                        for pass in 0..4 {
                            let _ = pass;
                            for (i, query) in queries.iter().enumerate() {
                                match engine.q1(query) {
                                    Ok(served) => {
                                        assert!(served.value.is_finite());
                                        if served.route == Route::Model {
                                            answers.push((
                                                i,
                                                served.snapshot_version.unwrap(),
                                                served.value,
                                            ));
                                        }
                                    }
                                    Err(ServeError::EmptySubspace) => {}
                                    Err(e) => panic!("unexpected {e}"),
                                }
                            }
                        }
                        answers
                    })
                })
                .collect();
            // Live writer: train + publish while readers run.
            let mut wrng = StdRng::seed_from_u64(11);
            for _ in 0..2_000 {
                let c = vec![wrng.random_range(0.0..1.0), wrng.random_range(0.0..1.0)];
                let query = q(&c, 0.15);
                if let Some(y) = engine.exact_engine().q1(&query.center, query.radius) {
                    engine.observe(&query, y);
                }
            }
            engine.publish_now();
            readers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        assert!(engine.stats().publishes >= 2);
        // Reclamation kept the cell bounded: 4 reader threads + this one.
        assert!(engine.cell.retained() <= 6);
        // Per-version determinism across readers.
        let mut by_key: std::collections::HashMap<(usize, u64), f64> =
            std::collections::HashMap::new();
        for answers in &per_reader {
            for &(i, version, value) in answers {
                let prior = by_key.insert((i, version), value);
                if let Some(prev) = prior {
                    assert_eq!(
                        prev.to_bits(),
                        value.to_bits(),
                        "query {i} diverged within snapshot version {version}"
                    );
                }
            }
        }
    }

    /// Mixed-route probe set: prototype-centered balls clear the gate,
    /// wide off-center balls fall back but still select data.
    fn mixed_probes(engine: &ServeEngine) -> Vec<Query> {
        let snapshot = engine.snapshot().unwrap();
        let mut probes: Vec<Query> = snapshot
            .prototypes()
            .iter()
            .take(6)
            .map(|p| q(&p.center, p.radius.max(0.05)))
            .collect();
        // Huge balls at untrained far centers select the whole table but
        // carry no overlap confidence: guaranteed exact fallbacks.
        probes.push(q(&[30.0, 30.0], 50.0));
        probes.push(q(&[-20.0, 40.0], 60.0));
        probes
    }

    #[test]
    fn batch_q1_and_q2_match_scalar_calls_bit_for_bit() {
        // Feedback off: the scalar loop must not retrain between calls,
        // so both paths consult the same frozen snapshot. `Served`
        // derives `PartialEq`, so this compares value, route, score,
        // version and the feedback flag in one shot — after normalising
        // `screen`, which legitimately differs: a batch shares its single
        // consultation's aggregate counters across every answer, while a
        // scalar call carries its own one-query counters.
        fn descreened<T>(mut s: Served<T>) -> Served<T> {
            s.screen = ScreenCounters::default();
            s
        }
        let exact = exact_engine(20_000, 1);
        let model = trained_model(&exact, 30_000, 2);
        let policy = RoutePolicy {
            feedback: false,
            ..RoutePolicy::default()
        };
        let engine = ServeEngine::with_model(exact, model, policy);
        let probes = mixed_probes(&engine);
        let batch = engine.q1_batch(&probes).unwrap();
        assert_eq!(batch.len(), probes.len());
        // Every answer in one batch carries the same aggregate screening
        // counters, covering the whole batch's consultation.
        let shared = batch[0].screen;
        assert_eq!(shared.blocks, shared.skipped + shared.verified);
        assert!(shared.blocks > 0, "batch consulted a snapshot");
        for (query, served) in probes.iter().zip(&batch) {
            assert_eq!(served.screen, shared);
            assert_eq!(
                descreened(served.clone()),
                descreened(engine.q1(query).unwrap())
            );
        }
        let model_routes = batch.iter().filter(|s| s.route == Route::Model).count();
        assert!(
            model_routes > 0 && model_routes < batch.len(),
            "probe set must exercise both model and exact routes ({model_routes}/{})",
            batch.len()
        );
        let batch2 = engine.q2_batch(&probes).unwrap();
        for (query, served) in probes.iter().zip(&batch2) {
            assert_eq!(
                descreened(served.clone()),
                descreened(engine.q2(query).unwrap())
            );
        }
        // A singleton batch is the scalar call — including its counters,
        // because a one-query batch IS one consultation.
        for query in &probes {
            assert_eq!(
                engine.q1_batch(std::slice::from_ref(query)).unwrap()[0],
                engine.q1(query).unwrap()
            );
        }
    }

    #[test]
    fn empty_batch_is_empty_not_a_panic() {
        let engine = engine_with_model();
        assert!(engine.q1_batch(&[]).unwrap().is_empty());
        assert!(engine.q2_batch(&[]).unwrap().is_empty());
        assert!(engine.observe_outcome_batch(&[]).is_empty());
        // Also on an engine with no snapshot at all.
        let bare = ServeEngine::new(exact_engine(500, 9), RoutePolicy::default());
        assert!(bare.q1_batch(&[]).unwrap().is_empty());
    }

    #[test]
    fn batch_dimension_mismatch_is_a_typed_error() {
        let engine = engine_with_model();
        let queries = vec![q(&[0.5, 0.5], 0.2), q(&[0.5, 0.5, 0.5], 0.2)];
        match engine.q1_batch(&queries) {
            Err(ServeError::Model(CoreError::DimensionMismatch { expected, actual })) => {
                assert_eq!((expected, actual), (2, 3));
            }
            other => panic!("expected typed dimension mismatch, got {other:?}"),
        }
        // Same contract without any snapshot published: the up-front
        // check must fire before the exact route would.
        let bare = ServeEngine::new(exact_engine(500, 9), RoutePolicy::default());
        assert!(matches!(
            bare.q1_batch(&queries),
            Err(ServeError::Model(CoreError::DimensionMismatch { .. }))
        ));
    }

    #[test]
    fn batched_feedback_feeds_the_trainer_once_per_fallback() {
        let engine = engine_with_model();
        // Force every query down the exact path so each one produces a
        // feedback example.
        let wide = vec![
            q(&[30.0, 30.0], 50.0),
            q(&[-20.0, 40.0], 60.0),
            q(&[25.0, -25.0], 55.0),
        ];
        let before = engine.stats();
        let served = engine.q1_batch(&wide).unwrap();
        let exact_count = served.iter().filter(|s| s.route == Route::Exact).count();
        assert!(exact_count > 0, "probe set must hit the exact route");
        let after = engine.stats();
        assert_eq!(after.exact_served - before.exact_served, exact_count as u64);
        assert_eq!(after.feedback_fed - before.feedback_fed, exact_count as u64);
        assert!(served.iter().all(|s| !s.feedback_dropped));
    }

    #[test]
    fn contended_batch_feedback_drops_the_whole_batch_counted() {
        let engine = engine_with_model();
        let wide = vec![q(&[30.0, 30.0], 50.0), q(&[-20.0, 40.0], 60.0)];
        let guard = engine.trainer.lock().unwrap();
        let served = engine.q1_batch(&wide).unwrap();
        drop(guard);
        let dropped = served
            .iter()
            .filter(|s| s.route == Route::Exact)
            .collect::<Vec<_>>();
        assert!(!dropped.is_empty());
        assert!(
            dropped.iter().all(|s| s.feedback_dropped),
            "every fallback answer in a contended batch must surface the drop"
        );
        assert_eq!(engine.stats().feedback_skipped, dropped.len() as u64);
    }
}
