//! [`ShardRouter`]: the serving engine — confidence-gated routing
//! between the learned snapshot and the exact DBMS backend, with the
//! training loop closed in production by one trainer.
//!
//! atomics: audited — every `Ordering::Relaxed` here is a monotonic stat
//! counter or the advisory `degraded` flag, each read only for
//! [`RouterStats`]. The feedback door keeps its counts behind its own
//! mutex, not in atomics. Snapshot hand-off goes through the SeqCst
//! [`SnapshotCell`] protocol.
//!
//! # Query flow (the paper's desideratum D2 made operational)
//!
//! 1. resolve one hazard-slot read guard on the router's one
//!    [`SnapshotCell`] — the serve path holds **no `Mutex`/`RwLock`**, and
//!    the guard pins the snapshot's epoch for exactly the prediction's
//!    duration;
//! 2. predict and score in one pass: the confidence assessment
//!    ([`regq_core::confidence`]) shares the prediction's own
//!    overlap-weight resolution;
//! 3. serve from the snapshot when the score clears
//!    [`RoutePolicy::confidence_threshold`]; otherwise execute on the
//!    [`ExactEngine`] and — Algorithm 1's Fig. 2 loop — offer the exact
//!    answer to the trainer. One gate loop does this for a scalar call and
//!    a batch alike (a scalar call is a batch of one), and one feedback
//!    door offers every label, in the order the labels were gathered (see
//!    [`Feedback`]). Neither a read nor feedback ever waits;
//! 4. the trainer republishes every [`PUBLISH_INTERVAL`] consumed
//!    examples.
//!
//! # One trainer, one door
//!
//! The router keeps one trainer, an [`LlmModel`], behind one mutex, and
//! one feedback door in front of it — the bounded queue, whether the
//! trainer learns and the feedback counts — behind another. Each of the
//! door's steps is one critical section on it, and a pump re-checks the
//! queue after it lets the trainer go, so every label is counted once and
//! none is left queued for a trainer that learns (`docs/INVARIANTS.md`,
//! *The feedback contract*). The trainer runs [`LlmModel::train_step`]
//! over the labels in queue order, so it *is* Algorithm 1 over that
//! stream: its winner is chosen among all prototypes and it stops on one
//! Γ. A publish captures the trainer's model ([`ServingSnapshot::capture`])
//! into the router's one [`SnapshotCell`] under the trainer lock, so
//! publishes land in training order, and a snapshot's version is the
//! trainer's step count. A publish costs `O(d·K + K log K)`; reads take no
//! lock.
//!
//! # Fault tolerance
//!
//! Training is *supervised*: every SGD ingestion runs under
//! `catch_unwind`. A panicking step (including injected
//! [`FaultKind::TrainerPanic`] faults) quarantines the offending example
//! ([`ShardRouter::quarantined`]), restarts the trainer from the snapshot
//! the cell serves ([`ServingSnapshot::to_model`]), flags the router
//! *degraded* until its next publish, and counts everything in
//! [`RouterStats`] — serving never stops and recovery is never silent. A
//! poisoned trainer lock gets the same restart before the poison is
//! cleared (a poisoned guard may hold a half-applied update, which must be
//! neither trained on nor published). Feedback that meets a full bounded
//! queue while another thread holds the trainer (or an injected
//! [`FaultKind::QueueOverflow`] burst) is a counted drop, flagged on the
//! answer that owed it.

use crate::cell::SnapshotCell;
use crate::fault::{FaultKind, FaultPlan};
use crate::route::{
    Feedback, Route, RoutePolicy, ServeError, Served, FEEDBACK_QUEUE_CAPACITY, PUBLISH_INTERVAL,
    QUARANTINE_CAP,
};
use regq_core::moments::MomentsModel;
use regq_core::{
    Confidence, CoreError, LlmModel, LocalModel, Query, ScreenCounters, ServingSnapshot,
};
use regq_exact::ExactEngine;
use regq_linalg::LinalgError;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::slice;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError, TryLockError};

/// The one trainer: its model (none until one is attached) and the
/// examples it consumed since its last publish.
struct Trainer {
    model: Option<LlmModel>,
    since_publish: usize,
}

/// The feedback door's state, one piece behind one mutex: the queued
/// labels, whether the trainer learns, and the counts [`RouterStats`]
/// reports. Each label is counted in the critical section that declines,
/// drops, queues, feeds or quarantines it.
#[derive(Default)]
struct Door {
    queue: VecDeque<(Query, f64)>,
    /// Most labels `queue` holds: [`FEEDBACK_QUEUE_CAPACITY`].
    bound: usize,
    /// Whether the trainer holds a model that still learns, written
    /// under this lock wherever the model changes.
    learns: bool,
    enqueued: u64,
    fed: u64,
    dropped: u64,
    declined: u64,
    /// Queued labels the trainer failed on, and the first
    /// [`QUARANTINE_CAP`] of them.
    panics: u64,
    quarantine: Vec<(Query, f64)>,
}

/// What a pump's `try_lock` on the trainer got: the trainer (healed if
/// its lock was poisoned); `Busy`, another thread holds it; or `Killed`,
/// an injected [`FaultKind::LockPoison`] killed the guard.
enum Take<'r> {
    Held(MutexGuard<'r, Trainer>),
    Busy,
    Killed,
}

/// Counter snapshot from [`ShardRouter::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RouterStats {
    /// Queries answered from the snapshot.
    pub model_served: u64,
    /// Queries answered by the exact engine. Like its two siblings this
    /// counts the snapshot's heads (`AVG`, `LINREG`); `VAR` passes the
    /// same gate and moves only the `blocks_*` counters.
    pub exact_served: u64,
    /// Feedback examples accepted into the feedback queue. Each offered
    /// label is counted once: enqueued, dropped or declined; each enqueued
    /// one is then fed, quarantined or still queued. One critical section
    /// reads all five: `feedback_fed + trainer_panics <= feedback_enqueued`.
    pub feedback_enqueued: u64,
    /// Queued feedback examples the trainer consumed. Once the offering
    /// calls return, `feedback_fed + trainer_panics == feedback_enqueued`
    /// unless the trainer froze with labels queued.
    pub feedback_fed: u64,
    /// Feedback examples *lost*: the bounded queue stayed full while
    /// another thread held the trainer, or an injected
    /// [`FaultKind::QueueOverflow`] burst fired. Every drop
    /// is counted and surfaced per-query via
    /// [`Served::feedback_dropped`].
    pub feedback_dropped: u64,
    /// Feedback examples *declined* ([`Feedback::Declined`]): the trainer
    /// holds no model or a frozen one, or `train_step` would refuse the
    /// pair. Nothing was queued — not a loss.
    pub feedback_declined: u64,
    /// Snapshot publishes into the router's one cell: one per pump that
    /// reaches its cadence, per `publish_now` and per `attach_model`.
    pub publishes: u64,
    /// Snapshot epochs the router's one cell retains (bounded by
    /// readers, not publishes — the reclamation invariant).
    pub retained: usize,
    /// Always 0: nothing produces [`Route::Degraded`]. Kept only while
    /// the benchmark package still reads it.
    pub degraded_served: u64,
    /// Queued examples the trainer failed on, each quarantined
    /// ([`ShardRouter::quarantined`]): a caught panic, which also
    /// restarted the trainer, or a `train_step` error.
    pub trainer_panics: u64,
    /// Trainer restarts from the served snapshot (panic or poison
    /// recovery). Recovery is never silent.
    pub trainer_restarts: u64,
    /// Poisoned trainer locks encountered and healed.
    pub lock_poisonings: u64,
    /// Whether the trainer was restarted and has not published since:
    /// answers stay correct (they come from the published snapshot) but
    /// learning regressed to it.
    pub degraded: bool,
    /// Prototype block visits whose lower bound was evaluated during
    /// pruned consultations of the snapshot (none on single-block
    /// layouts) — and, for `VAR`, of the variance head's.
    pub blocks_screened: u64,
    /// Prototype blocks pruned away because their bound ruled them out —
    /// the router's output-sensitivity win.
    pub blocks_skipped: u64,
    /// Prototype blocks exact-verified by the bit-exact kernel.
    pub blocks_verified: u64,
}

/// The serving engine (see module docs). `&self` prediction/feedback
/// from any number of threads (`ShardRouter: Send + Sync`); the mutable
/// trainer lives behind a writer-side mutex that the serve path only ever
/// `try_lock`s. Attaching models is a `&mut self` administrative
/// operation.
pub struct ShardRouter {
    exact: ExactEngine,
    policy: RoutePolicy,
    trainer: Mutex<Trainer>,
    door: Mutex<Door>,
    /// Set when the trainer was restarted, cleared at its next publish
    /// ([`RouterStats::degraded`]).
    degraded: AtomicBool,
    /// The one snapshot every answer is served from.
    cell: SnapshotCell,
    /// The variance head behind `VAR` ([`ShardRouter::attach_moments`]),
    /// captured once: immutable and consulted whole, so it lives beside
    /// the trainer, not in it, and needs no cell.
    moments: Option<ServingSnapshot>,
    fault: FaultPlan,
    /// Answers per [`Route`] the gate gives (`Model`, `Exact`), indexed
    /// `route as usize`, of the heads that count theirs: `AVG` and
    /// `LINREG` ([`RouterStats::model_served`], `exact_served`). `VAR`
    /// answers move none.
    routes: [AtomicU64; 2],
    trainer_restarts: AtomicU64,
    lock_poisonings: AtomicU64,
    blocks_screened: AtomicU64,
    blocks_skipped: AtomicU64,
    blocks_verified: AtomicU64,
}

/// What the snapshot said about one query: the fused prediction with its
/// confidence, or `None` while there is no non-empty snapshot.
type Predicted<T> = Option<(T, Confidence)>;

/// One consultation: what it predicted, the snapshot's version and its
/// pruning telemetry.
type Consulted<P> = (P, u64, ScreenCounters);

/// One gated query: the answer and, on the exact route, the label its
/// caller owes the trainer as feedback.
type Routed<T> = (Served<T>, Option<f64>);

/// Where the gate loop writes: the answers in query order, and the labels
/// they owe as `(answer index, label)` in the order gathered.
trait Answers<T> {
    /// Append the next query's answer and, on the exact route, its label.
    fn put(&mut self, served: Served<T>, label: Option<f64>);
    /// The answers so far, and the labels they owe.
    fn parts(&mut self) -> (&mut [Served<T>], &[(usize, f64)]);
}

/// A scalar call's answer and label, in place: a scalar call allocates
/// nothing for them.
type One<T> = (Option<Served<T>>, Option<(usize, f64)>);

/// A batch's answers and labels.
type Many<T> = (Vec<Served<T>>, Vec<(usize, f64)>);

impl<T> Answers<T> for One<T> {
    fn put(&mut self, served: Served<T>, label: Option<f64>) {
        self.0 = Some(served);
        self.1 = label.map(|y| (0, y));
    }

    fn parts(&mut self) -> (&mut [Served<T>], &[(usize, f64)]) {
        (self.0.as_mut_slice(), self.1.as_slice())
    }
}

impl<T> Answers<T> for Many<T> {
    fn put(&mut self, served: Served<T>, label: Option<f64>) {
        if let Some(y) = label {
            self.1.push((self.0.len(), y));
        }
        self.0.push(served);
    }

    fn parts(&mut self) -> (&mut [Served<T>], &[(usize, f64)]) {
        (&mut self.0, &self.1)
    }
}

/// Poison-tolerant lock for the door and read-only test access: no
/// critical section on the door can panic midway, so `into_inner` is
/// sound. Deliberately **not** used for the trainer lock,
/// whose guard may hold a half-applied SGD update — that goes through
/// [`ShardRouter::lock_trainer`], which restarts the trainer from the
/// served snapshot, counted, before handing it out.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Die holding `guard`, genuinely poisoning its mutex (the injected
/// [`FaultKind::LockPoison`] mechanism — no simulation, the real thing).
fn poison_lock(guard: MutexGuard<'_, Trainer>) {
    let poisoner = catch_unwind(AssertUnwindSafe(move || {
        let _guard = guard;
        panic!("injected fault: trainer lock poisoned");
    }));
    debug_assert!(poisoner.is_err());
}

impl ShardRouter {
    /// Router without a model — every query routes exact (and the router
    /// trains itself once [`ShardRouter::attach_model`] seeds its
    /// trainer).
    pub fn new(exact: ExactEngine, policy: RoutePolicy) -> Self {
        ShardRouter {
            exact,
            policy,
            trainer: Mutex::new(Trainer {
                model: None,
                since_publish: 0,
            }),
            door: Mutex::new(Door {
                bound: FEEDBACK_QUEUE_CAPACITY,
                ..Door::default()
            }),
            degraded: AtomicBool::new(false),
            cell: SnapshotCell::new(),
            moments: None,
            fault: FaultPlan::new(),
            routes: Default::default(),
            trainer_restarts: AtomicU64::new(0),
            lock_poisonings: AtomicU64::new(0),
            blocks_screened: AtomicU64::new(0),
            blocks_skipped: AtomicU64::new(0),
            blocks_verified: AtomicU64::new(0),
        }
    }

    /// Router training `model`, its first snapshot published.
    pub fn with_model(exact: ExactEngine, model: LlmModel, policy: RoutePolicy) -> Self {
        let mut router = Self::new(exact, policy);
        router.attach_model(model);
        router
    }

    /// Make `model` the trainer's and publish its snapshot. Pending
    /// queued feedback is discarded (it belonged to the replaced model).
    pub fn attach_model(&mut self, model: LlmModel) {
        let mut t = self.lock_trainer();
        t.model = Some(model);
        self.settle(&t, |door| door.queue.clear());
        self.publish(&mut t);
    }

    /// Attach a trained moments model: enables the model route of
    /// [`ShardRouter::var`] / [`ShardRouter::var_model`]. Its variance
    /// head is kept as a snapshot, and its own confidence gates `VAR`.
    /// It is served as attached — exact `VAR` fallbacks feed their
    /// subspace mean to the Q1 trainer, not to this head.
    pub fn attach_moments(&mut self, model: MomentsModel) {
        self.moments = Some(model.head().snapshot());
    }

    /// The trainer's model as it stands, cloned — what the next publish
    /// captures. `None` before a model is attached.
    pub fn merged_model(&self) -> Option<LlmModel> {
        self.lock_trainer().model.clone()
    }

    /// The exact backend.
    pub fn exact_engine(&self) -> &ExactEngine {
        &self.exact
    }

    /// Counters so far; the door's in one critical section.
    pub fn stats(&self) -> RouterStats {
        let door = lock(&self.door);
        RouterStats {
            model_served: self.routes[Route::Model as usize].load(Ordering::Relaxed),
            exact_served: self.routes[Route::Exact as usize].load(Ordering::Relaxed),
            feedback_enqueued: door.enqueued,
            feedback_fed: door.fed,
            feedback_dropped: door.dropped,
            feedback_declined: door.declined,
            publishes: self.cell.epoch(),
            retained: self.cell.retained(),
            degraded_served: 0,
            trainer_panics: door.panics,
            trainer_restarts: self.trainer_restarts.load(Ordering::Relaxed),
            lock_poisonings: self.lock_poisonings.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
            blocks_screened: self.blocks_screened.load(Ordering::Relaxed),
            blocks_skipped: self.blocks_skipped.load(Ordering::Relaxed),
            blocks_verified: self.blocks_verified.load(Ordering::Relaxed),
        }
    }

    /// Fold one pruned consultation's screening telemetry into the
    /// router-lifetime counters (monotonic stats; Relaxed per the module
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

    /// Arm a [`FaultPlan`] on the router and its snapshot cell (for
    /// injected publish stalls). Deterministic: occurrence counters live
    /// in the shared plan, so a scripted schedule fires at exactly the
    /// configured sites.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.cell.arm_faults(plan.clone());
        self.fault = plan;
    }

    /// Examples quarantined by the panicking trainer, oldest first
    /// (bounded at [`QUARANTINE_CAP`] retained examples;
    /// [`RouterStats::trainer_panics`] has the unbounded count).
    pub fn quarantined(&self) -> Vec<(Query, f64)> {
        lock(&self.door).quarantine.clone()
    }

    /// Apply `f` to the door and re-derive its `learns` from the trainer
    /// the caller holds, in one critical section.
    fn settle(&self, t: &Trainer, f: impl FnOnce(&mut Door)) {
        let mut door = lock(&self.door);
        f(&mut door);
        door.learns = t.model.as_ref().is_some_and(|m| !m.is_frozen());
    }

    /// Lock the trainer, healing a poisoned lock on the way in
    /// ([`ShardRouter::heal`]).
    fn lock_trainer(&self) -> MutexGuard<'_, Trainer> {
        self.trainer
            .lock()
            .unwrap_or_else(|poisoned| self.heal(poisoned))
    }

    /// Heal the poisoned trainer lock: the guard may expose a
    /// half-applied SGD update, which must be neither trained on nor
    /// published — so restart from the served snapshot and clear the
    /// poison. Counted, never silent.
    fn heal<'s>(
        &'s self,
        poisoned: PoisonError<MutexGuard<'s, Trainer>>,
    ) -> MutexGuard<'s, Trainer> {
        let mut t = poisoned.into_inner();
        self.lock_poisonings.fetch_add(1, Ordering::Relaxed);
        self.recover_trainer(&mut t);
        self.settle(&t, |_| {});
        self.trainer.clear_poison();
        t
    }

    /// Restart the trainer (the caller holds it) from the snapshot the
    /// cell serves — the last publish, made under this same lock — or,
    /// before any publish, from a fresh model with the same config. Marks
    /// the router degraded until the next publish; the caller settles the
    /// door's `learns`.
    fn recover_trainer(&self, t: &mut Trainer) {
        t.since_publish = 0;
        t.model = match self.cell.load_owned() {
            Some(snapshot) => snapshot.to_model().ok(),
            None => t
                .model
                .as_ref()
                .and_then(|m| LlmModel::new(m.config().clone()).ok()),
        };
        self.trainer_restarts.fetch_add(1, Ordering::Relaxed);
        self.degraded.store(true, Ordering::Relaxed);
    }

    /// The one publish: capture the model of the trainer the caller holds
    /// into the cell and clear the degraded flag. Nothing is published
    /// without a model.
    fn publish(&self, t: &mut Trainer) {
        t.since_publish = 0;
        if let Some(model) = &t.model {
            self.degraded.store(false, Ordering::Relaxed);
            self.cell.publish(ServingSnapshot::capture(model));
        }
    }

    /// Offer one `(q, y)` feedback example to the trainer: the feedback
    /// door over one pair ([`Feedback`] says what can become of it, a pair
    /// `train_step` would refuse included). Never blocks on the trainer
    /// lock.
    pub fn observe_outcome(&self, q: &Query, y: f64) -> Feedback {
        let mut feedback = Feedback::Dropped;
        self.offer([(0, q, y)], |_, outcome| feedback = outcome);
        feedback
    }

    /// The feedback door: the only code that offers labels to the queue.
    /// Walks `(slot, query, label)` pairs in the order given — the order
    /// their labels were gathered — and reports each pair's [`Feedback`]
    /// to `outcome` under its slot, as `enqueue` decides it; a pair that
    /// meets a full queue pumps once first. So a pass of any length feeds
    /// a free trainer every label, as the pairs offered one at a time
    /// would. One pump follows a pass that enqueued anything.
    fn offer<'q>(
        &self,
        pairs: impl IntoIterator<Item = (usize, &'q Query, f64)>,
        mut outcome: impl FnMut(usize, Feedback),
    ) {
        let mut enqueued = false;
        for (slot, q, y) in pairs {
            let feedback = self.enqueue(q, y, false).unwrap_or_else(|| {
                self.pump();
                self.enqueue(q, y, true).unwrap_or(Feedback::Dropped)
            });
            enqueued |= feedback == Feedback::Accepted;
            outcome(slot, feedback);
        }
        if enqueued {
            self.pump();
        }
    }

    /// The door's first step, one critical section: decline `(q, y)` while
    /// the trainer cannot learn or if `train_step` would refuse it; drop it
    /// when an injected overflow fires (first offer only) or the queue is
    /// still full on a `retry`; else queue it — each counted. `None`,
    /// nothing counted: the queue is full on the first offer.
    fn enqueue(&self, q: &Query, y: f64, retry: bool) -> Option<Feedback> {
        let refused = self.check_dim(q).is_err()
            || ![q.radius, y].iter().chain(&q.center).all(|v| v.is_finite());
        let mut door = lock(&self.door);
        let full = door.queue.len() >= door.bound;
        Some(if refused || !door.learns {
            door.declined += 1;
            Feedback::Declined
        } else if (!retry && self.fault.fires(FaultKind::QueueOverflow)) || (retry && full) {
            door.dropped += 1;
            Feedback::Dropped
        } else if full {
            return None;
        } else {
            door.queue.push_back((q.clone(), y));
            door.enqueued += 1;
            Feedback::Accepted
        })
    }

    /// Train the queue if the trainer is free, and take it again if a
    /// label arrived while it was let go. Returns once the queue is empty,
    /// the trainer cannot learn, or another thread holds the trainer
    /// (that holder re-checks the queue before it lets go).
    fn pump(&self) {
        loop {
            match self.take_trainer() {
                Take::Held(mut t) => {
                    while self.train_one(&mut t) {}
                    if !self.release(t) {
                        return;
                    }
                }
                Take::Busy => return,
                Take::Killed => {}
            }
        }
    }

    /// The pump's first step: `try_lock` the trainer, healing a poisoned
    /// lock (counted) before handing it out.
    fn take_trainer(&self) -> Take<'_> {
        match self.trainer.try_lock() {
            Ok(t) if self.fault.fires(FaultKind::LockPoison) => {
                poison_lock(t);
                Take::Killed
            }
            Ok(t) => Take::Held(t),
            Err(TryLockError::WouldBlock) => Take::Busy,
            Err(TryLockError::Poisoned(poisoned)) => Take::Held(self.heal(poisoned)),
        }
    }

    /// The pump's middle step, holding the trainer: train the oldest
    /// queued label (`false`, touching nothing, when the queue is empty or
    /// the trainer cannot learn). Supervised: a panic quarantines the label
    /// and restarts the trainer from the served snapshot, and the pump
    /// goes on; a `train_step` error quarantines it too. Counted, with
    /// `learns` re-derived, in one critical section.
    fn train_one(&self, t: &mut Trainer) -> bool {
        let Some(model) = t.model.as_mut().filter(|m| !m.is_frozen()) else {
            return false;
        };
        let Some((q, y)) = lock(&self.door).queue.pop_front() else {
            return false;
        };
        let boom = self.fault.fires(FaultKind::TrainerPanic);
        let step = catch_unwind(AssertUnwindSafe(|| {
            let step = model.train_step(&q, y);
            // Injected *after* the step so the model really is mid-update
            // (mutated but unaccounted) when the supervisor catches it.
            if boom {
                panic!("injected fault: trainer panic mid-update");
            }
            step
        }));
        let trained = matches!(step, Ok(Ok(_)));
        if trained {
            t.since_publish += 1;
        } else if step.is_err() {
            self.recover_trainer(t);
        }
        self.settle(t, |door| {
            if trained {
                door.fed += 1;
            } else {
                door.panics += 1;
                if door.quarantine.len() < QUARANTINE_CAP {
                    door.quarantine.push((q, y));
                }
            }
        });
        true
    }

    /// The pump's last step: publish once [`PUBLISH_INTERVAL`] examples
    /// were consumed since the last publish, let the trainer go, and
    /// re-check the queue — `true` when a trainer that learns has labels
    /// queued, which a caller that found the trainer busy left to it.
    fn release(&self, mut t: MutexGuard<'_, Trainer>) -> bool {
        if t.since_publish >= PUBLISH_INTERVAL {
            self.publish(&mut t);
        }
        drop(t);
        let door = lock(&self.door);
        door.learns && !door.queue.is_empty()
    }

    /// Force-publish the trainer's current parameters: locks the trainer
    /// (a poisoned lock heals first, so a half-applied update is never
    /// published) and captures its model into the cell. Returns the
    /// publish count.
    pub fn publish_now(&self) -> u64 {
        self.publish(&mut self.lock_trainer());
        self.stats().publishes
    }

    /// `q` itself once its dimensionality matches the relation's — the one
    /// input check every serve entry point runs, exactly once per query.
    fn check_dim<'q>(&self, q: &'q Query) -> Result<&'q Query, ServeError> {
        let expected = self.exact.relation().dim();
        if q.dim() != expected {
            return Err(ServeError::Model(CoreError::DimensionMismatch {
                expected,
                actual: q.dim(),
            }));
        }
        Ok(q)
    }

    /// Consult the snapshot once about `queries` (one query or a batch):
    /// run `predict` on the snapshot one read guard pins for exactly its
    /// duration, and return what it made of it (`None` while nothing is
    /// published, or on its error — an empty snapshot), the snapshot's
    /// version and the pruning telemetry (already folded into the
    /// router-lifetime counters). Allocates only what `predict` returns.
    fn consult<Q: ?Sized, P>(
        &self,
        queries: &Q,
        predict: impl FnOnce(&ServingSnapshot, &Q, &mut ScreenCounters) -> Result<P, CoreError>,
    ) -> Consulted<Option<P>> {
        let mut reader = self.cell.tls_reader();
        let guard = reader.enter();
        let mut screen = ScreenCounters::default();
        let Some(snapshot) = guard.get() else {
            return (None, 0, screen);
        };
        let predicted = predict(snapshot, queries, &mut screen).ok();
        self.record_screen(&screen);
        (predicted, snapshot.version(), screen)
    }

    /// The exact Q1 execution: the subspace mean, which is both the
    /// answer and the label to feed back.
    fn exact_q1(&self, q: &Query) -> Result<(f64, f64), ServeError> {
        let y = self
            .exact
            .q1(&q.center, q.radius)
            .ok_or(ServeError::EmptySubspace)?;
        Ok((y, y))
    }

    /// The exact Q2 execution: the per-query OLS fit in [`LocalModel`]
    /// shape (weight 1, the query ball as the region) plus the subspace
    /// mean as the label to feed back — the fused Q1+OLS traversal
    /// computes it anyway, so the free training example costs no extra
    /// data pass.
    fn exact_q2(&self, q: &Query) -> Result<(Vec<LocalModel>, f64), ServeError> {
        let fit = self
            .exact
            .q1_reg_fused(&q.center, q.radius)
            .map_err(|e| match e {
                LinalgError::Empty => ServeError::EmptySubspace,
                other => ServeError::Numeric(other),
            })?;
        let list = vec![LocalModel {
            intercept: fit.model.intercept,
            slope: fit.model.slope.into(),
            prototype: 0,
            weight: 1.0,
            center: q.center.as_slice().into(),
            radius: q.radius,
        }];
        Ok((list, fit.moments.mean))
    }

    /// The exact `VAR` execution: the subspace variance, with the mean
    /// the same traversal computed as the label to feed back (a
    /// `VAR`-heavy workload still trains the Q1 model).
    fn exact_var(&self, q: &Query) -> Result<(f64, f64), ServeError> {
        let m = self
            .exact
            .q1_moments(&q.center, q.radius)
            .ok_or(ServeError::EmptySubspace)?;
        Ok((m.variance, m.mean))
    }

    /// Consult the moments model about `q`: the variance head's
    /// prediction (clamped non-negative) and its confidence from the one
    /// pruned resolution every served answer takes, telemetry folded into
    /// the router-lifetime counters. No cell guard (the snapshot is
    /// immutable once attached); the version is the head's step count.
    /// Predicts nothing without a moments model.
    ///
    /// # Errors
    /// [`CoreError::EmptyModel`] while the head is untrained.
    fn consult_moments(&self, q: &Query) -> Result<Consulted<Predicted<f64>>, CoreError> {
        let Some(head) = self.moments.as_ref() else {
            return Ok(Default::default());
        };
        let mut screen = ScreenCounters::default();
        let (variance, conf) = head.predict_q1_with_confidence_pruned(q, &mut screen)?;
        self.record_screen(&screen);
        Ok((Some((variance.max(0.0), conf)), head.version(), screen))
    }

    /// The gate (D2): route one query given what the models `predicted`
    /// for it. Serves the prediction when its score clears the
    /// threshold, and otherwise runs `exact` — annotated with the
    /// rejecting score when there was one. Offering the label is the gate
    /// loop's job ([`ShardRouter::route_batch`]).
    fn gate<T>(
        &self,
        q: &Query,
        predicted: Predicted<T>,
        version: u64,
        screen: ScreenCounters,
        exact: impl Fn(&Self, &Query) -> Result<(T, f64), ServeError>,
    ) -> Result<Routed<T>, ServeError> {
        match predicted {
            Some((value, conf)) if conf.score >= self.policy.confidence_threshold => {
                Ok((Served::model(value, conf.score, version, screen), None))
            }
            below => {
                let score = below.map(|(_, conf)| conf.score);
                let (value, y) = exact(self, q)?;
                let served = Served {
                    score,
                    snapshot_version: score.is_some().then_some(version),
                    // All-zero exactly when no snapshot was consulted.
                    screen,
                    ..Served::exact_only(value)
                };
                Ok((served, Some(y)))
            }
        }
    }

    /// The gate loop behind every auto-routed and forced-exact answer,
    /// scalar and batched: gate each query against what `consulted`
    /// predicted for it (exact executions run after the guard dropped),
    /// count its route in `routes` (`None` for `VAR`, whose answers move
    /// no route counter), write its answer into `answers` — one slot for
    /// a scalar call, a vector for a batch — and offer its fallbacks'
    /// labels through the feedback door in the order they were gathered.
    /// Fails fast on the first exact error (a batch is one
    /// all-or-nothing call) — after offering the labels gathered before
    /// it, so the trainer is fed as a query-at-a-time loop that stopped at
    /// the same query would feed it.
    fn route_batch<T, A: Answers<T>>(
        &self,
        queries: &[Query],
        (predicted, version, screen): Consulted<impl IntoIterator<Item = Predicted<T>>>,
        routes: Option<&[AtomicU64; 2]>,
        exact: impl Fn(&Self, &Query) -> Result<(T, f64), ServeError>,
        mut answers: A,
    ) -> Result<A, ServeError> {
        let mut routed = Ok(());
        // Every answer carries the counters of the one consultation,
        // which covered all of them.
        for (q, predicted) in queries.iter().zip(predicted) {
            match self.gate(q, predicted, version, screen, &exact) {
                Ok((served, label)) => {
                    if let Some(routes) = routes {
                        routes[served.route as usize].fetch_add(1, Ordering::Relaxed);
                    }
                    answers.put(served, label);
                }
                Err(e) => {
                    routed = Err(e);
                    break;
                }
            }
        }
        let (served, labels) = answers.parts();
        self.offer(
            labels.iter().map(|&(slot, y)| (slot, &queries[slot], y)),
            |slot, feedback| served[slot].feedback_dropped = feedback.is_lost(),
        );
        routed.map(|()| answers)
    }

    /// [`ShardRouter::route_batch`] over one query, answered in one slot.
    fn route_one<T>(
        &self,
        q: &Query,
        (predicted, version, screen): Consulted<Predicted<T>>,
        routes: Option<&[AtomicU64; 2]>,
        exact: impl Fn(&Self, &Query) -> Result<(T, f64), ServeError>,
    ) -> Result<Served<T>, ServeError> {
        let consulted = ([predicted], version, screen);
        let one = (None, None);
        let (served, _) = self.route_batch(slice::from_ref(q), consulted, routes, exact, one)?;
        #[expect(
            clippy::expect_used,
            reason = "the gate loop answers every query of a call it returns `Ok` for"
        )]
        Ok(served.expect("one query, one answer"))
    }

    /// The batched entries: every query's dimensionality checked up
    /// front, before any work runs, one pinned snapshot consulted for the
    /// whole batch, then the gate loop.
    fn serve_batch<T>(
        &self,
        queries: &[Query],
        predict: impl FnOnce(
            &ServingSnapshot,
            &[Query],
            &mut ScreenCounters,
        ) -> Result<Vec<(T, Confidence)>, CoreError>,
        exact: impl Fn(&Self, &Query) -> Result<(T, f64), ServeError>,
    ) -> Result<Vec<Served<T>>, ServeError> {
        for q in queries {
            self.check_dim(q)?;
        }
        let (predicted, version, screen) = self.consult(queries, predict);
        // One prediction per query — or none for any, with nothing served.
        let predicted = predicted.into_iter().flatten().map(Some);
        let consulted = (
            predicted.chain(std::iter::repeat_with(|| None)),
            version,
            screen,
        );
        let out = (Vec::with_capacity(queries.len()), Vec::new());
        let (served, _) = self.route_batch(queries, consulted, Some(&self.routes), exact, out)?;
        Ok(served)
    }

    /// Scalar forced-model driver: the snapshot's answer at whatever
    /// score it carries.
    fn serve_model<T>(
        &self,
        q: &Query,
        predict: impl FnOnce(
            &ServingSnapshot,
            &Query,
            &mut ScreenCounters,
        ) -> Result<(T, Confidence), CoreError>,
    ) -> Result<Served<T>, ServeError> {
        let (predicted, version, screen) = self.consult(q, predict);
        let (value, conf) = predicted.ok_or(ServeError::NoModel)?;
        self.routes[Route::Model as usize].fetch_add(1, Ordering::Relaxed);
        Ok(Served::model(value, conf.score, version, screen))
    }

    /// **Auto-routed Q1** (the paper's D2 serve-or-fall-back): the
    /// snapshot's answer when the confidence score clears the policy
    /// threshold, exact fallback (with feedback) otherwise.
    ///
    /// # Errors
    /// [`ServeError::EmptySubspace`] when the fallback selection is
    /// empty; [`ServeError::Model`] on a dimension mismatch.
    pub fn q1(&self, q: &Query) -> Result<Served<f64>, ServeError> {
        let q = self.check_dim(q)?;
        let consulted = self.consult(q, ServingSnapshot::predict_q1_with_confidence_pruned);
        self.route_one(q, consulted, Some(&self.routes), Self::exact_q1)
    }

    /// **Forced model Q1** (the SQL `USING MODEL` route).
    ///
    /// # Errors
    /// [`ServeError::NoModel`] when the snapshot is empty;
    /// [`ServeError::Model`] on a dimension mismatch.
    pub fn q1_model(&self, q: &Query) -> Result<Served<f64>, ServeError> {
        self.serve_model(
            self.check_dim(q)?,
            ServingSnapshot::predict_q1_with_confidence_pruned,
        )
    }

    /// **Forced exact Q1** (the SQL `USING EXACT` route): no snapshot
    /// consulted, the label still offered —
    /// analyst-issued exact queries *are* the paper's training stream.
    ///
    /// # Errors
    /// [`ServeError::EmptySubspace`] when the selection is empty.
    pub fn q1_exact(&self, q: &Query) -> Result<Served<f64>, ServeError> {
        let q = self.check_dim(q)?;
        self.route_one(q, Default::default(), Some(&self.routes), Self::exact_q1)
    }

    /// **Auto-routed Q2** (regression-model list vs per-query OLS). List
    /// elements carry the prototypes' arena indices.
    ///
    /// # Errors
    /// [`ServeError::EmptySubspace`] / [`ServeError::Numeric`] from the
    /// fallback; [`ServeError::Model`] on a dimension mismatch.
    pub fn q2(&self, q: &Query) -> Result<Served<Vec<LocalModel>>, ServeError> {
        let q = self.check_dim(q)?;
        let consulted = self.consult(q, ServingSnapshot::predict_q2_with_confidence_pruned);
        self.route_one(q, consulted, Some(&self.routes), Self::exact_q2)
    }

    /// **Forced model Q2** (Algorithm 3's list `S`).
    ///
    /// # Errors
    /// [`ServeError::NoModel`] when the snapshot is empty;
    /// [`ServeError::Model`] on a dimension mismatch.
    pub fn q2_model(&self, q: &Query) -> Result<Served<Vec<LocalModel>>, ServeError> {
        self.serve_model(
            self.check_dim(q)?,
            ServingSnapshot::predict_q2_with_confidence_pruned,
        )
    }

    /// **Forced exact Q2**: the per-query OLS fit in [`LocalModel`]
    /// shape, feeding the subspace mean back to the trainer.
    ///
    /// # Errors
    /// [`ServeError::EmptySubspace`] on an empty selection;
    /// [`ServeError::Numeric`] on a numerical failure.
    pub fn q2_exact(&self, q: &Query) -> Result<Served<Vec<LocalModel>>, ServeError> {
        let q = self.check_dim(q)?;
        self.route_one(q, Default::default(), Some(&self.routes), Self::exact_q2)
    }

    // ---- VAR -----------------------------------------------------------
    //
    // The variance head is resolved by the same pruned driver and passes
    // the same gate loop and feedback door as the snapshot's heads. It
    // moves neither `model_served` nor `exact_served`: those count
    // `AVG` + `LINREG` answers, a scope the ledger's smoke test pins
    // (`benchmark/tests/smoke.rs`).

    /// **Auto-routed `VAR`**: the moments model's variance head when its
    /// confidence clears the policy threshold, otherwise exact execution
    /// with the subspace mean fed back. No (or an untrained) moments
    /// model routes exact with no score.
    ///
    /// # Errors
    /// [`ServeError::EmptySubspace`] when the fallback selection is
    /// empty; [`ServeError::Model`] on a dimension mismatch.
    pub fn var(&self, q: &Query) -> Result<Served<f64>, ServeError> {
        let q = self.check_dim(q)?;
        let consulted = self.consult_moments(q).unwrap_or_default();
        self.route_one(q, consulted, None, Self::exact_var)
    }

    /// **Forced model `VAR`** (the SQL `USING MODEL` route).
    ///
    /// # Errors
    /// [`ServeError::NoModel`] without a moments model;
    /// [`ServeError::Model`] while its head is untrained or on a
    /// dimension mismatch.
    pub fn var_model(&self, q: &Query) -> Result<Served<f64>, ServeError> {
        let q = self.check_dim(q)?;
        let (predicted, version, screen) = self.consult_moments(q).map_err(ServeError::Model)?;
        let (value, conf) = predicted.ok_or(ServeError::NoModel)?;
        Ok(Served::model(value, conf.score, version, screen))
    }

    /// **Forced exact `VAR`**; still feeds the subspace mean to the
    /// trainer.
    ///
    /// # Errors
    /// [`ServeError::EmptySubspace`] when the selection is empty.
    pub fn var_exact(&self, q: &Query) -> Result<Served<f64>, ServeError> {
        let q = self.check_dim(q)?;
        self.route_one(q, Default::default(), None, Self::exact_var)
    }

    // ---- Batched serving ----------------------------------------------
    //
    // The batch entry points resolve the read guard ONCE for the whole
    // `&[Query]` and run the snapshot's batch predictors (split into runs
    // on every core when the batch is large enough; the guard stays
    // pinned on this thread until every run has joined). From the gate
    // on, a batch runs the scalar calls' lines: the one gate loop and the
    // one feedback door. Per-query answers are bit-identical to the
    // scalar path (the batch predictors run the scalar path's resolver
    // and fold per query); the observable difference is consistency — a
    // batch never straddles a republish, whereas a scalar loop can.

    /// **Batched auto-routed Q1**: [`ShardRouter::q1`] over a slice with
    /// one guard resolution and one batched resolve-and-fold
    /// ([`ServingSnapshot::predict_q1_with_confidence_batch_pruned`]: each
    /// query resolved through the snapshot's block layout and fused, a
    /// batch large enough to pay for a thread split into contiguous runs
    /// on every core). Answers are bit-identical to per-query
    /// [`ShardRouter::q1`] calls against the same pinned snapshot, and the
    /// trainer is fed as those calls feed it. An empty batch returns an
    /// empty vec.
    ///
    /// # Errors
    /// As [`ShardRouter::q1`]; the typed dimension mismatch is checked
    /// up front for every query before any work runs.
    pub fn q1_batch(&self, queries: &[Query]) -> Result<Vec<Served<f64>>, ServeError> {
        self.serve_batch(
            queries,
            ServingSnapshot::predict_q1_with_confidence_batch_pruned,
            Self::exact_q1,
        )
    }

    /// **Batched auto-routed Q2** — same single-resolution semantics as
    /// [`ShardRouter::q1_batch`], list elements carrying arena indices,
    /// the fused Q1+OLS fallback feeding the subspace mean back.
    ///
    /// # Errors
    /// As [`ShardRouter::q2`], plus the up-front batched dimension check.
    pub fn q2_batch(&self, queries: &[Query]) -> Result<Vec<Served<Vec<LocalModel>>>, ServeError> {
        self.serve_batch(
            queries,
            ServingSnapshot::predict_q2_with_confidence_batch_pruned,
            Self::exact_q2,
        )
    }
}

impl std::fmt::Debug for ShardRouter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardRouter")
            .field("policy", &self.policy)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
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
    use std::sync::{Arc, OnceLock};

    fn q(center: &[f64], r: f64) -> Query {
        Query::new_unchecked(center.to_vec(), r)
    }

    impl ShardRouter {
        /// The feedback door over a slice of pairs, each outcome in its
        /// pair's place.
        fn observe_outcome_batch(&self, pairs: &[(Query, f64)]) -> Vec<Feedback> {
            let mut out = vec![Feedback::Dropped; pairs.len()];
            let pairs = pairs.iter().enumerate().map(|(i, (q, y))| (i, q, *y));
            self.offer(pairs, |i, feedback| out[i] = feedback);
            out
        }
    }

    fn dataset(rows: usize, seed: u64) -> Arc<Dataset> {
        let field = GasSensorSurrogate::new(2, 3);
        let mut rng = seeded(seed);
        Arc::new(Dataset::from_function(
            &field,
            rows,
            SampleOptions::default(),
            &mut rng,
        ))
    }

    fn exact_over(data: &Arc<Dataset>) -> ExactEngine {
        ExactEngine::new(Arc::clone(data), AccessPathKind::KdTree)
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

    /// Probes spanning in-distribution balls, wide balls overlapping many
    /// prototypes and out-of-distribution corners.
    fn probes() -> Vec<Query> {
        let mut probes = Vec::new();
        for i in 0..6 {
            for j in 0..6 {
                for theta in [0.05, 0.15, 0.45, 1.5] {
                    probes.push(q(&[i as f64 * 0.2, j as f64 * 0.2], theta));
                }
            }
        }
        probes
    }

    /// The fixture most tests serve from: 20k rows and a model trained on
    /// them short of convergence (so its trainer still learns).
    fn fixture() -> (Arc<Dataset>, LlmModel) {
        static FIX: OnceLock<(Arc<Dataset>, LlmModel)> = OnceLock::new();
        FIX.get_or_init(|| {
            let data = dataset(20_000, 1);
            let model = trained_model(&exact_over(&data), 30_000, 2);
            (data, model)
        })
        .clone()
    }

    fn fixture_router(policy: RoutePolicy) -> ShardRouter {
        let (data, model) = fixture();
        ShardRouter::with_model(exact_over(&data), model, policy)
    }

    /// The fixture's model made a learner that never freezes (γ tiny),
    /// so every label it is offered is queued and trained.
    fn learner() -> LlmModel {
        let (_, trained) = fixture();
        let mut cfg = trained.config().clone();
        cfg.gamma = 1e-300;
        LlmModel::from_parts(cfg, trained.prototypes(), trained.steps(), 0, false).unwrap()
    }

    /// A router every answer of which falls back (threshold 2.0), with
    /// `model` as its trainer.
    fn all_exact(model: LlmModel) -> ShardRouter {
        let policy = RoutePolicy {
            confidence_threshold: 2.0,
        };
        ShardRouter::with_model(exact_over(&fixture().0), model, policy)
    }

    /// `n` in-square balls with rows, drawn from `seed`.
    fn balls(n: usize, seed: u64) -> Vec<Query> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let c = [rng.random_range(0.1..0.9), rng.random_range(0.1..0.9)];
                q(&c, rng.random_range(0.05..0.3))
            })
            .collect()
    }

    /// Mixed-route probe set: prototype-centered balls clear the gate,
    /// huge balls at untrained far centers select the whole table but
    /// carry no overlap confidence — guaranteed exact fallbacks.
    fn mixed_probes() -> Vec<Query> {
        let mut probes: Vec<Query> = fixture()
            .1
            .prototypes()
            .iter()
            .take(6)
            .map(|p| q(&p.center, p.radius.max(0.05)))
            .collect();
        probes.push(q(&[30.0, 30.0], 50.0));
        probes.push(q(&[-20.0, 40.0], 60.0));
        probes
    }

    #[test]
    fn send_sync_and_static_bounds() {
        fn assert_bounds<T: Send + Sync>() {}
        assert_bounds::<ShardRouter>();
        assert_bounds::<SnapshotCell>();
        assert_bounds::<ServingSnapshot>();
    }

    #[test]
    fn batch_q1_and_q2_match_scalar_calls_bit_for_bit() {
        // A frozen trainer: the scalar loop must not retrain between
        // calls, so both paths consult the same snapshots. `Served` derives
        // `PartialEq`, so this compares value, route, score, version and
        // the feedback flag in one shot — after normalising `screen`,
        // which legitimately differs: a batch shares its single
        // consultation's aggregate counters across every answer, while a
        // scalar call carries its own one-query counters.
        fn descreened<T>(mut s: Served<T>) -> Served<T> {
            s.screen = ScreenCounters::default();
            s
        }
        let probes = mixed_probes();
        let (data, mut model) = fixture();
        model.freeze();
        let router = ShardRouter::with_model(exact_over(&data), model, RoutePolicy::default());
        let batch = router.q1_batch(&probes).unwrap();
        assert_eq!(batch.len(), probes.len());
        let shared = batch[0].screen;
        assert_eq!(shared.blocks, shared.skipped + shared.verified);
        assert!(shared.blocks > 0, "batch consulted the snapshot");
        for (query, served) in probes.iter().zip(&batch) {
            assert_eq!(served.screen, shared);
            assert_eq!(
                descreened(served.clone()),
                descreened(router.q1(query).unwrap())
            );
        }
        let model_routes = batch.iter().filter(|s| s.route == Route::Model).count();
        assert!(
            model_routes > 0 && model_routes < batch.len(),
            "probe set must exercise both routes ({model_routes}/{})",
            batch.len()
        );
        for (query, served) in probes.iter().zip(router.q2_batch(&probes).unwrap()) {
            assert_eq!(descreened(served), descreened(router.q2(query).unwrap()));
        }
        // A singleton batch is the scalar call — including its counters,
        // because a one-query batch IS one consultation.
        for query in &probes {
            assert_eq!(
                router.q1_batch(std::slice::from_ref(query)).unwrap()[0],
                router.q1(query).unwrap()
            );
        }
    }

    #[test]
    fn empty_batch_is_empty_not_a_panic() {
        let bare = ShardRouter::new(exact_over(&dataset(500, 9)), RoutePolicy::default());
        for router in [fixture_router(RoutePolicy::default()), bare] {
            assert!(router.q1_batch(&[]).unwrap().is_empty());
            assert!(router.q2_batch(&[]).unwrap().is_empty());
            assert!(router.observe_outcome_batch(&[]).is_empty());
        }
    }

    #[test]
    fn batch_dimension_mismatch_is_a_typed_error() {
        let queries = vec![q(&[0.5, 0.5], 0.2), q(&[0.5, 0.5, 0.5], 0.2)];
        // With and without a published snapshot: the up-front check must
        // fire before any route would.
        let bare = ShardRouter::new(exact_over(&dataset(500, 9)), RoutePolicy::default());
        for router in [fixture_router(RoutePolicy::default()), bare] {
            match router.q1_batch(&queries) {
                Err(ServeError::Model(CoreError::DimensionMismatch { expected, actual })) => {
                    assert_eq!((expected, actual), (2, 3));
                }
                other => panic!("expected typed dimension mismatch, got {other:?}"),
            }
        }
    }

    #[test]
    fn serve_error_sources_chain() {
        use std::error::Error as _;
        let err = fixture_router(RoutePolicy::default())
            .q1(&q(&[0.5], 0.1))
            .unwrap_err();
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
        // reclamation). The readers' fallbacks feed the trainer too: a
        // version is one capture, whoever trained it.
        let router = ShardRouter::with_model(
            exact_over(&dataset(10_000, 9)),
            LlmModel::new(ModelConfig::with_vigilance(2, 0.15)).unwrap(),
            RoutePolicy {
                confidence_threshold: 0.25,
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
                        // Loop the workload so later passes see later
                        // publishes.
                        for _pass in 0..4 {
                            for (i, query) in queries.iter().enumerate() {
                                match router.q1(query) {
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
                if let Some(y) = router.exact_engine().q1(&query.center, query.radius) {
                    router.observe_outcome(&query, y);
                }
            }
            router.publish_now();
            readers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        let stats = router.stats();
        assert!(stats.publishes >= 2);
        // Reclamation kept the cell bounded: 4 reader threads + this one.
        assert!(stats.retained <= 6);
        // Per-version determinism across readers.
        let mut by_key = std::collections::HashMap::new();
        for &(i, version, value) in per_reader.iter().flatten() {
            if let Some(prev) = by_key.insert((i, version), value) {
                assert_eq!(
                    prev.to_bits(),
                    value.to_bits(),
                    "query {i} diverged within snapshot version {version}"
                );
            }
        }
    }

    /// While the trainer is held nothing drains (the door only `try_lock`s
    /// it): the queue fills, the next label is a counted, flagged drop, and
    /// once released one pump trains the queue oldest first.
    #[test]
    fn a_full_queue_drops_only_while_another_thread_holds_the_trainer() {
        let model = learner();
        let router = all_exact(model.clone());
        let labelled: Vec<(Query, f64)> = balls(FEEDBACK_QUEUE_CAPACITY, 3)
            .into_iter()
            .enumerate()
            .map(|(i, ball)| (ball, i as f64 / 100.0))
            .collect();
        let busy = lock(&router.trainer);
        for (ball, y) in &labelled {
            assert_eq!(router.observe_outcome(ball, *y), Feedback::Accepted);
        }
        let served = router.q1(&q(&[0.5, 0.5], 0.2)).unwrap();
        assert_eq!(served.route, Route::Exact);
        assert!(served.feedback_dropped, "drop must surface on the answer");
        let s = router.stats();
        let counts = (s.feedback_enqueued, s.feedback_dropped, s.feedback_fed);
        assert_eq!(counts, (FEEDBACK_QUEUE_CAPACITY as u64, 1, 0));
        drop(busy);
        router.pump();
        assert_eq!(router.stats().feedback_fed, FEEDBACK_QUEUE_CAPACITY as u64);
        let mut oracle = model;
        for (ball, y) in &labelled {
            oracle.train_step(ball, *y).unwrap();
        }
        let trainer = router.merged_model().unwrap();
        assert_eq!(
            (trainer.prototypes(), trainer.steps()),
            (oracle.prototypes(), oracle.steps()),
            "oldest first"
        );
        assert!(lock(&router.door).queue.is_empty());
    }

    /// A batch with more fallbacks than the queue holds feeds a free
    /// trainer every label, as the scalar calls over the same queries do:
    /// a label that meets the full queue drains it first.
    #[test]
    fn a_batch_larger_than_the_queue_feeds_an_idle_trainer_every_label() {
        let queries = balls(FEEDBACK_QUEUE_CAPACITY + 76, 4);
        let (scalar, batched) = (all_exact(learner()), all_exact(learner()));
        let one_by_one: Vec<Served<f64>> = queries.iter().map(|b| scalar.q1(b).unwrap()).collect();
        let batch = batched.q1_batch(&queries).unwrap();
        assert!(batch
            .iter()
            .all(|s| s.route == Route::Exact && !s.feedback_dropped));
        for (a, b) in one_by_one.iter().zip(&batch) {
            assert_eq!(a.value.to_bits(), b.value.to_bits());
        }
        let n = queries.len() as u64;
        for router in [&scalar, &batched] {
            let s = router.stats();
            let counts = (s.feedback_enqueued, s.feedback_fed, s.feedback_dropped);
            assert_eq!(counts, (n, n, 0));
        }
        let (a, b) = (
            scalar.merged_model().unwrap(),
            batched.merged_model().unwrap(),
        );
        assert_eq!((a.prototypes(), a.steps()), (b.prototypes(), b.steps()));
    }

    #[test]
    fn a_trainer_that_cannot_train_is_not_offered_feedback() {
        let data = dataset(5_000, 23);
        let forced_exact = RoutePolicy {
            confidence_threshold: 2.0, // every answer is a fallback with a label
        };
        let probe = q(&[0.5, 0.5], 0.2);
        let pairs = vec![(probe.clone(), 1.0); 3];
        let learner = trained_model(&exact_over(&data), 5_000, 24);
        let mut frozen = learner.clone();
        frozen.freeze();
        let with_frozen = ShardRouter::with_model(exact_over(&data), frozen, forced_exact);
        let model_less = ShardRouter::new(exact_over(&data), forced_exact);
        for router in [with_frozen, model_less] {
            // The scalar door, the batch door, and each behind a fallback.
            assert_eq!(router.observe_outcome(&probe, 1.0), Feedback::Declined);
            assert_eq!(router.observe_outcome(&probe, 1.0), Feedback::Declined);
            assert_eq!(
                router.observe_outcome_batch(&pairs),
                vec![Feedback::Declined; 3]
            );
            let served = router.q1(&probe).unwrap();
            assert_eq!(
                (served.route, served.feedback_dropped),
                (Route::Exact, false)
            );
            let batch = router.q1_batch(&[probe.clone(), probe.clone()]).unwrap();
            assert!(batch
                .iter()
                .all(|s| s.route == Route::Exact && !s.feedback_dropped));
            let stats = router.stats();
            assert_eq!(stats.feedback_declined, 2 + 3 + 1 + 2, "never silent");
            assert_eq!(
                (
                    stats.feedback_enqueued,
                    stats.feedback_dropped,
                    stats.feedback_fed
                ),
                (0, 0, 0)
            );
            assert!(lock(&router.door).queue.is_empty());
        }

        // A trainer that freezes *inside a drain* (γ so large that its
        // first step converges) stops being offered feedback from the next
        // example on.
        let mut cfg = learner.config().clone();
        cfg.gamma = 1e9;
        cfg.convergence_window = 1;
        let eager =
            LlmModel::from_parts(cfg, learner.prototypes(), learner.steps(), 0, false).unwrap();
        let router = ShardRouter::with_model(exact_over(&data), eager, forced_exact);
        assert_eq!(router.observe_outcome(&probe, 1.0), Feedback::Accepted);
        assert_eq!(router.stats().feedback_fed, 1, "drained, and frozen by it");
        assert_eq!(router.observe_outcome(&probe, 1.0), Feedback::Declined);
        assert_eq!(
            router.observe_outcome_batch(&pairs),
            vec![Feedback::Declined; 3]
        );
        let stats = router.stats();
        assert_eq!((stats.feedback_enqueued, stats.feedback_fed), (1, 1));
        assert_eq!((stats.feedback_declined, stats.feedback_dropped), (4, 0));
    }

    #[test]
    fn closed_loop_trains_itself_to_model_serving() {
        let data = dataset(20_000, 7);
        let cfg = ModelConfig::with_vigilance(2, 0.08);
        let router = ShardRouter::with_model(
            exact_over(&data),
            LlmModel::new(cfg).unwrap(),
            RoutePolicy::default(),
        );
        let attached = router.stats().publishes;
        let mut rng = StdRng::seed_from_u64(8);
        let mut model_routes = 0usize;
        for _ in 0..4_000 {
            let c = vec![rng.random_range(0.0..1.0), rng.random_range(0.0..1.0)];
            match router.q1(&q(&c, 0.15)) {
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
        let stats = router.stats();
        assert!(stats.feedback_fed > 0 && stats.publishes > attached);
        assert!(stats.model_served > 0 && stats.exact_served > 0);
        // The served snapshot carries what the fallbacks taught, at a
        // version no newer than the examples the trainer consumed; once
        // republished, its version is every example consumed.
        let probe = q(&[0.5, 0.5], 0.15);
        let version = router.q1_model(&probe).unwrap().snapshot_version;
        assert!(version.is_some_and(|v| v > 0 && v <= stats.feedback_fed));
        router.publish_now();
        let version = router.q1_model(&probe).unwrap().snapshot_version;
        assert_eq!(version, Some(stats.feedback_fed));
    }

    /// The live trainer serves what it published, and a restart resumes
    /// from that. A model that never freezes (γ tiny), every answer exact
    /// and every label fed (threshold 2.0), wide balls that spawn, and
    /// injected trainer panics; over the first 256 labels a `publish_now`
    /// follows every 8th, after them the drains publish every
    /// [`PUBLISH_INTERVAL`]. The oracle replays the labels through
    /// `LlmModel::train_step`, takes a snapshot at each of those publishes,
    /// and at each label a panic hits resumes from its last snapshot's
    /// model. The trainer is the oracle, step for step; between publishes
    /// the served snapshot is the oracle's last one; after `publish_now`
    /// every served answer — scalar and batched, Q1 and Q2 — is the
    /// oracle's bit for bit at its step, Q2 lists labelled with arena
    /// indices.
    #[test]
    fn a_live_trainer_serves_its_publishes_and_restarts_from_them() {
        let learner = learner();
        let mut router = all_exact(learner.clone());
        let panics = [13, 29, 61, 97, 131, 187, 241];
        router.set_fault_plan(FaultPlan::new().inject(FaultKind::TrainerPanic, &panics));
        let mut oracle = learner.clone();
        let mut published = oracle.snapshot();
        let (mut fed, mut since_publish, mut publishes) = (0, 0, 1);
        let mut rng = StdRng::seed_from_u64(31);
        for _ in 0..700 {
            let c = [rng.random_range(-0.2..1.2), rng.random_range(-0.2..1.2)];
            let probe = q(&c, rng.random_range(0.05..0.8));
            match router.q1(&probe) {
                Ok(served) => {
                    assert_eq!(served.route, Route::Exact);
                    fed += 1;
                    if panics.contains(&fed) {
                        oracle = published.to_model().unwrap();
                        since_publish = 0;
                    } else {
                        oracle.train_step(&probe, served.value).unwrap();
                        since_publish += 1;
                    }
                    let by_hand = fed <= 256 && fed % 8 == 0;
                    if by_hand {
                        router.publish_now();
                    }
                    if by_hand || since_publish == PUBLISH_INTERVAL {
                        published = oracle.snapshot();
                        (since_publish, publishes) = (0, publishes + 1);
                    }
                }
                Err(ServeError::EmptySubspace) => {}
                Err(e) => panic!("unexpected {e}"),
            }
        }
        let stats = router.stats();
        assert_eq!(stats.trainer_panics, panics.len() as u64);
        assert!(publishes > 1 + 256 / 8, "no drain reached the interval");
        assert_eq!(stats.publishes, publishes);
        let trainer = router.merged_model().unwrap();
        assert!(trainer.k() > learner.k(), "no label spawned a prototype");
        assert_eq!(
            (trainer.prototypes(), trainer.steps(), trainer.is_frozen()),
            (oracle.prototypes(), oracle.steps(), false)
        );

        // Between publishes: the oracle's last snapshot.
        let live = router.cell.load_owned().unwrap();
        assert_eq!(
            (live.prototypes(), live.version()),
            (published.prototypes(), published.version())
        );

        router.publish_now();
        let snapshot = oracle.snapshot();
        let steps = Some(oracle.steps());
        // Serve every answer from the model, and feed nothing back.
        router.policy.confidence_threshold = f64::NEG_INFINITY;
        let probes = probes();
        let q1_batch = router.q1_batch(&probes).unwrap();
        let q2_batch = router.q2_batch(&probes).unwrap();
        for (i, probe) in probes.iter().enumerate() {
            let (y, conf) = snapshot.predict_q1_with_confidence(probe).unwrap();
            let (list, list_conf) = snapshot.predict_q2_with_confidence(probe).unwrap();
            let want_q1 = (y.to_bits(), conf.score.to_bits(), steps);
            let want_q2 = (list, list_conf.score.to_bits(), steps);
            let as_q1 = |s: &Served<f64>| {
                assert_eq!(s.route, Route::Model);
                (
                    s.value.to_bits(),
                    s.score.unwrap().to_bits(),
                    s.snapshot_version,
                )
            };
            let as_q2 = |s: Served<Vec<LocalModel>>| {
                assert_eq!(s.route, Route::Model);
                (s.value, s.score.unwrap().to_bits(), s.snapshot_version)
            };
            assert_eq!(as_q1(&router.q1(probe).unwrap()), want_q1, "q1 {i}");
            assert_eq!(as_q1(&router.q1_model(probe).unwrap()), want_q1);
            assert_eq!(as_q1(&q1_batch[i]), want_q1, "q1 batch {i}");
            assert_eq!(as_q2(router.q2(probe).unwrap()), want_q2, "q2 {i}");
            assert_eq!(as_q2(router.q2_model(probe).unwrap()), want_q2);
            assert_eq!(as_q2(q2_batch[i].clone()), want_q2, "q2 batch {i}");
        }
    }

    #[test]
    fn empty_router_routes_exact_and_reports_no_model() {
        let data = dataset(5_000, 11);
        let router = ShardRouter::new(exact_over(&data), RoutePolicy::default());
        let served = router.q1(&q(&[0.5, 0.5], 0.2)).unwrap();
        assert_eq!(served.route, Route::Exact);
        assert_eq!(served.score, None);
        assert!(matches!(
            router.q1_model(&q(&[0.5, 0.5], 0.2)),
            Err(ServeError::NoModel)
        ));
        // Dimension mismatches are typed, with or without a model.
        assert!(matches!(
            router.q1(&q(&[0.5], 0.2)),
            Err(ServeError::Model(CoreError::DimensionMismatch { .. }))
        ));
    }

    #[test]
    fn injected_trainer_panic_quarantines_restarts_and_keeps_draining() {
        let data = dataset(5_000, 13);
        let model = LlmModel::new(ModelConfig::with_vigilance(2, 0.15)).unwrap();
        // Four labels: no drain reaches the publish interval.
        let mut router = ShardRouter::with_model(exact_over(&data), model, RoutePolicy::default());
        // Each observe_outcome drains exactly one example, so trainer
        // occurrence 2 is the second example fed.
        router.set_fault_plan(FaultPlan::new().inject(FaultKind::TrainerPanic, &[2]));
        let pairs: Vec<(Query, f64)> = (0..4)
            .map(|i| (q(&[0.1 + 0.2 * i as f64, 0.5], 0.1), i as f64))
            .collect();
        for (probe, y) in &pairs {
            assert_eq!(router.observe_outcome(probe, *y), Feedback::Accepted);
        }
        let stats = router.stats();
        assert_eq!(stats.trainer_panics, 1);
        assert_eq!(stats.trainer_restarts, 1);
        assert!(stats.degraded, "restart must flag the router");
        // Examples 1, 3, 4 trained (3 restarted after the panic on 2);
        // the poisonous example is retrievable, not silently gone.
        assert_eq!(stats.feedback_fed, 3);
        let quarantined = router.quarantined();
        assert_eq!(quarantined.len(), 1);
        assert_eq!(quarantined[0].0.center, pairs[1].0.center);
        assert_eq!(quarantined[0].1, pairs[1].1);
        // The router keeps serving, and a publish clears the flag.
        router.q1(&q(&[0.5, 0.5], 0.2)).unwrap();
        router.publish_now();
        assert!(!router.stats().degraded);
    }

    #[test]
    fn poisoned_trainer_lock_heals_and_answers_stay_bit_identical() {
        let data = dataset(20_000, 15);
        let mut model = trained_model(&exact_over(&data), 30_000, 16);
        model.freeze();
        let mut router = ShardRouter::with_model(exact_over(&data), model, RoutePolicy::default());
        let before: Vec<_> = probes()
            .iter()
            .map(|p| router.q1(p).map(|s| (s.route, s.value.to_bits())).ok())
            .collect();
        // Occurrence 1 kills the pump's first lock holder mid-section,
        // genuinely poisoning the trainer mutex; the same pump's next take
        // finds the poison, restarts the trainer from the served snapshot,
        // and clears it — counted, not silent.
        router.set_fault_plan(FaultPlan::new().inject(FaultKind::LockPoison, &[1]));
        router.pump();
        let stats = router.stats();
        assert_eq!(stats.lock_poisonings, 1);
        assert_eq!(stats.trainer_restarts, 1);
        assert!(stats.degraded);
        // Publishing the restored (bit-identical) parameters clears the
        // flag, and every answer matches the pre-fault run exactly.
        router.publish_now();
        assert!(!router.stats().degraded);
        let after: Vec<_> = probes()
            .iter()
            .map(|p| router.q1(p).map(|s| (s.route, s.value.to_bits())).ok())
            .collect();
        assert_eq!(before, after, "poison recovery changed answers");
    }

    /// A pass that enqueued nothing runs no pump: a declined or dropped
    /// example takes no trainer lock, and a drop is counted at once. (Each
    /// trainer lock a pump takes is a `LockPoison` injection point, armed
    /// here far beyond the test to count them.)
    #[test]
    fn an_offer_that_enqueues_nothing_runs_no_pump() {
        let data = dataset(5_000, 29);
        let probe = q(&[0.5, 0.5], 0.2);
        let pumps = |plan: &FaultPlan| plan.seen(FaultKind::LockPoison);
        let mut frozen = trained_model(&exact_over(&data), 2_000, 30);
        frozen.freeze();
        let mut declining =
            ShardRouter::with_model(exact_over(&data), frozen, RoutePolicy::default());
        let plan = FaultPlan::new().inject(FaultKind::LockPoison, &[1_000]);
        declining.set_fault_plan(plan.clone());
        assert_eq!(declining.observe_outcome(&probe, 1.0), Feedback::Declined);
        let pairs = vec![(probe.clone(), 1.0); 3];
        assert_eq!(
            declining.observe_outcome_batch(&pairs),
            vec![Feedback::Declined; 3]
        );
        assert_eq!(pumps(&plan), 0, "a declined offer pumped");

        let learner = LlmModel::new(ModelConfig::with_vigilance(2, 0.15)).unwrap();
        let mut dropping =
            ShardRouter::with_model(exact_over(&data), learner, RoutePolicy::default());
        let plan = FaultPlan::new()
            .inject(FaultKind::QueueOverflow, &[1])
            .inject(FaultKind::LockPoison, &[1_000]);
        dropping.set_fault_plan(plan.clone());
        assert_eq!(dropping.observe_outcome(&probe, 1.0), Feedback::Dropped);
        assert_eq!(dropping.stats().feedback_dropped, 1, "a drop is counted");
        assert_eq!(pumps(&plan), 0, "a dropped offer pumped");
        assert_eq!(dropping.observe_outcome(&probe, 1.0), Feedback::Accepted);
        assert_eq!(pumps(&plan), 1, "an enqueued offer pumps once");
    }

    /// The door declines what `train_step` would refuse, counted, rather
    /// than queueing it for a drain that would discard it uncounted.
    #[test]
    fn the_door_declines_what_the_trainer_would_refuse() {
        let router = all_exact(learner());
        let refused = [
            (q(&[0.5, 0.5, 0.5], 0.2), 1.0),
            (q(&[f64::NAN, 0.5], 0.2), 1.0),
            (q(&[0.5, f64::INFINITY], 0.2), 1.0),
            (q(&[0.5, 0.5], f64::INFINITY), 1.0),
            (q(&[0.5, 0.5], f64::NAN), 1.0),
            (q(&[0.5, 0.5], 0.2), f64::NAN),
            (q(&[0.5, 0.5], 0.2), f64::NEG_INFINITY),
        ];
        for (ball, y) in &refused {
            assert_eq!(router.observe_outcome(ball, *y), Feedback::Declined);
        }
        assert_eq!(
            router.observe_outcome_batch(&refused),
            vec![Feedback::Declined; refused.len()]
        );
        let s = router.stats();
        let counts = (s.feedback_declined, s.feedback_enqueued, s.feedback_fed);
        assert_eq!(counts, (2 * refused.len() as u64, 0, 0));
        assert_eq!((s.feedback_dropped, s.trainer_panics), (0, 0));
        let well_formed = q(&[0.5, 0.5], 0.2);
        assert_eq!(
            router.observe_outcome(&well_formed, 1.0),
            Feedback::Accepted
        );
        assert_eq!(router.stats().feedback_fed, 1);
    }

    impl Door {
        /// A door that queues at most `bound` labels.
        fn bounded(bound: usize) -> Self {
            Door {
                bound,
                ..Door::default()
            }
        }
    }

    /// Every interleaving of the feedback door, walked on a real router
    /// with a real [`LlmModel`] trainer (`docs/INVARIANTS.md`, *The door
    /// checker*).
    ///
    /// A memoized DFS enumerates every schedule of two offering actors —
    /// one offers labels 0 and 1 in one pass, the other label 2 — and one
    /// `stats()` reader, on a door that queues at most two labels. Every
    /// transition is a call to one of the door's steps; what is restated
    /// here is only how `offer` and `pump` compose them:
    ///
    /// ```text
    /// offer   E enqueue each label of the pass; a full queue runs a pump,
    ///         then E again as the retry; one pump after a pass that
    ///         enqueued anything
    /// pump    T take_trainer → held: N train_one until false, R release,
    ///         T again if R re-checked true | busy: done | killed: T
    /// reader  S stats
    /// ```
    ///
    /// Each edge replays its path on a fresh router. After every step:
    /// each label offered is exactly one of fed, queued, declined,
    /// dropped-and-flagged or quarantined, and the counts say so; a
    /// `stats()` read has `fed + trainer_panics <= enqueued`; the trainer
    /// is `train_step` replayed over the labels in queue order (a restart
    /// resumes from the served snapshot), its `learns` flag is the door's,
    /// each `train_one` took the oldest label, and snapshot versions never
    /// fall. At quiescence a trainer that learns leaves the queue empty.
    mod door_explorer {
        use super::*;
        use std::collections::{HashMap, HashSet};
        use std::time::Instant;

        /// The labels each offering actor offers, in one pass.
        const PASSES: [&[usize]; 2] = [&[0, 1], &[2]];
        const LABELS: usize = 3;
        /// The `stats()` reader's actor number.
        const READER: usize = PASSES.len();

        fn label(l: usize) -> (Query, f64) {
            (q(&[0.2 + 0.3 * l as f64, 0.5], 0.1), l as f64 + 1.0)
        }

        /// The label whose pair carries `y`.
        fn id(&(_, y): &(Query, f64)) -> usize {
            y as usize - 1
        }

        /// An offering actor's next step; a pump carries the pass position
        /// whose label it retries after it (`None`: the pass's last pump).
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        enum Pc {
            Offer { i: usize, retry: bool },
            Take(Option<usize>),
            Train(Option<usize>),
            Release(Option<usize>),
            Done,
        }

        /// Where a pump returns to.
        fn after_pump(back: Option<usize>) -> Pc {
            back.map_or(Pc::Done, |i| Pc::Offer { i, retry: true })
        }

        /// What became of the trainer, in order.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        enum Event {
            Trained(usize),
            /// Quarantined; `true` when the trainer was restarted.
            Failed(usize, bool),
            Healed,
        }

        /// The property a schedule broke.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        enum Kind {
            Conservation,
            Counts,
            StatsLaw,
            Trainer,
            NotOldest,
            Version,
            Stranded,
        }

        #[derive(Debug)]
        struct Violation {
            kind: Kind,
            trace: Vec<String>,
        }

        impl std::fmt::Display for Violation {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, "{:?}; schedule: {}", self.kind, self.trace.join(" "))
            }
        }

        /// One walk: the trainer the router starts with, the faults armed
        /// on it, the exact number of schedules, and what some schedule
        /// must reach (an outcome, an event, or a step's result).
        struct Setup {
            name: &'static str,
            model: fn() -> LlmModel,
            faults: &'static [(FaultKind, u64)],
            schedules: u128,
            covers: &'static [&'static str],
        }

        /// The learner made to freeze at its first step.
        fn freezing() -> LlmModel {
            let model = learner();
            let mut cfg = model.config().clone();
            cfg.gamma = 1e9;
            cfg.convergence_window = 1;
            LlmModel::from_parts(cfg, model.prototypes(), model.steps(), 0, false).unwrap()
        }

        const SETUPS: [Setup; 5] = [
            Setup {
                name: "learns",
                model: learner,
                faults: &[],
                schedules: 10_222,
                covers: &["Dropped", "busy", "retry", "recheck"],
            },
            Setup {
                name: "freezes",
                model: freezing,
                faults: &[],
                schedules: 2_154,
                covers: &["Declined", "Trained"],
            },
            Setup {
                name: "panics",
                model: learner,
                faults: &[(FaultKind::TrainerPanic, 2)],
                schedules: 10_222,
                covers: &["Failed"],
            },
            Setup {
                name: "poisons",
                model: learner,
                faults: &[(FaultKind::LockPoison, 1)],
                schedules: 23_004,
                covers: &["killed", "Healed"],
            },
            Setup {
                name: "overflows",
                model: learner,
                faults: &[(FaultKind::QueueOverflow, 2)],
                schedules: 1_218,
                covers: &["Dropped", "Trained"],
            },
        ];

        /// A fresh router for `setup`: a door bounded at two labels, its
        /// faults armed, its trainer attached and published.
        fn router(setup: &Setup, model: &LlmModel) -> ShardRouter {
            static DATA: OnceLock<Arc<Dataset>> = OnceLock::new();
            let data = DATA.get_or_init(|| dataset(64, 5));
            let mut router = ShardRouter::new(exact_over(data), RoutePolicy::default());
            router.door = Mutex::new(Door::bounded(2));
            let mut plan = FaultPlan::new();
            for &(kind, at) in setup.faults {
                plan = plan.inject(kind, &[at]);
            }
            router.set_fault_plan(plan);
            router.attach_model(model.clone());
            router
        }

        /// The labels queued, oldest first.
        fn queued(router: &ShardRouter) -> Vec<usize> {
            lock(&router.door).queue.iter().map(id).collect()
        }

        struct Offerer<'r> {
            pc: Pc,
            /// Whether the pass enqueued anything.
            enqueued: bool,
            guard: Option<MutexGuard<'r, Trainer>>,
        }

        /// One replay: the router, its actors and the oracle beside it.
        struct Run<'r> {
            router: &'r ShardRouter,
            offerers: Vec<Offerer<'r>>,
            read: bool,
            outcomes: [Option<Feedback>; LABELS],
            events: Vec<Event>,
            /// `train_step` over the labels trained, restarted where the
            /// trainer was.
            oracle: LlmModel,
            /// The model a restart resumes from: the attached one, the
            /// only publish a walk makes.
            published: ServingSnapshot,
            version: u64,
            /// What this replay reached, for `Setup::covers`.
            reached: Vec<&'static str>,
        }

        impl<'r> Run<'r> {
            fn new(router: &'r ShardRouter, model: &LlmModel) -> Self {
                Run {
                    router,
                    offerers: (0..PASSES.len())
                        .map(|_| Offerer {
                            pc: Pc::Offer { i: 0, retry: false },
                            enqueued: false,
                            guard: None,
                        })
                        .collect(),
                    read: false,
                    outcomes: [None; LABELS],
                    events: Vec::new(),
                    oracle: model.clone(),
                    published: model.snapshot(),
                    version: 0,
                    reached: Vec::new(),
                }
            }

            fn enabled(&self) -> Vec<usize> {
                let offerers = (0..PASSES.len()).filter(|&a| self.offerers[a].pc != Pc::Done);
                offerers.chain((!self.read).then_some(READER)).collect()
            }

            fn event(&mut self, event: Event) {
                self.events.push(event);
                self.reached.push(match event {
                    Event::Trained(_) => "Trained",
                    Event::Failed(..) => "Failed",
                    Event::Healed => "Healed",
                });
                match event {
                    Event::Trained(l) => {
                        let (q, y) = label(l);
                        self.oracle.train_step(&q, y).unwrap();
                    }
                    Event::Failed(_, false) => {}
                    Event::Failed(_, true) | Event::Healed => {
                        self.oracle = self.published.to_model().unwrap();
                    }
                }
            }

            /// Take `actor`'s next step; a label for the trace.
            fn step(&mut self, actor: usize) -> Result<String, Kind> {
                let router = self.router;
                if actor == READER {
                    self.read = true;
                    law(&router.stats())?;
                    return Ok("S".into());
                }
                let (before, queue) = (router.stats(), queued(router));
                let pass = PASSES[actor];
                let offerer = &mut self.offerers[actor];
                let pc = offerer.pc;
                let mut events = Vec::new();
                let mut reached = None;
                offerer.pc = match pc {
                    Pc::Offer { i, retry } => {
                        let (q, y) = label(pass[i]);
                        match router.enqueue(&q, y, retry) {
                            None if !retry => Pc::Take(Some(i)),
                            offered => {
                                let feedback = offered.unwrap_or(Feedback::Dropped);
                                reached = Some(if retry { "retry" } else { "offer" });
                                self.reached.push(match feedback {
                                    Feedback::Accepted => "Accepted",
                                    Feedback::Dropped => "Dropped",
                                    Feedback::Declined => "Declined",
                                });
                                self.outcomes[pass[i]] = Some(feedback);
                                offerer.enqueued |= feedback == Feedback::Accepted;
                                if i + 1 < pass.len() {
                                    Pc::Offer {
                                        i: i + 1,
                                        retry: false,
                                    }
                                } else if offerer.enqueued {
                                    Pc::Take(None)
                                } else {
                                    Pc::Done
                                }
                            }
                        }
                    }
                    Pc::Take(back) => match router.take_trainer() {
                        Take::Held(t) => {
                            if router.stats().lock_poisonings > before.lock_poisonings {
                                events.push(Event::Healed);
                            }
                            offerer.guard = Some(t);
                            Pc::Train(back)
                        }
                        Take::Busy => {
                            reached = Some("busy");
                            after_pump(back)
                        }
                        Take::Killed => {
                            reached = Some("killed");
                            Pc::Take(back)
                        }
                    },
                    Pc::Train(back) => {
                        let t = offerer.guard.as_mut().expect("a pump holds the trainer");
                        if router.train_one(t) {
                            let (after, left) = (router.stats(), queued(router));
                            let popped = *queue.iter().find(|l| !left.contains(l)).unwrap();
                            if popped != queue[0] {
                                return Err(Kind::NotOldest);
                            }
                            events.push(if after.feedback_fed > before.feedback_fed {
                                Event::Trained(popped)
                            } else {
                                let restarted = after.trainer_restarts > before.trainer_restarts;
                                Event::Failed(popped, restarted)
                            });
                            Pc::Train(back)
                        } else {
                            Pc::Release(back)
                        }
                    }
                    Pc::Release(back) => {
                        let t = offerer.guard.take().expect("a pump holds the trainer");
                        if router.release(t) {
                            reached = Some("recheck");
                            Pc::Take(back)
                        } else {
                            after_pump(back)
                        }
                    }
                    Pc::Done => unreachable!("a finished actor is never scheduled"),
                };
                self.reached.extend(reached);
                for event in events {
                    self.event(event);
                }
                Ok(format!("{}:{pc:?}", ["a", "b"][actor]))
            }

            /// The checks every step must pass.
            fn check(&mut self) -> Result<(), Kind> {
                let router = self.router;
                let stats = router.stats();
                law(&stats)?;
                let queued = queued(router);
                let quarantined: Vec<usize> = router.quarantined().iter().map(id).collect();
                let fed: Vec<usize> = self
                    .events
                    .iter()
                    .filter_map(|e| match *e {
                        Event::Trained(l) => Some(l),
                        _ => None,
                    })
                    .collect();
                for l in 0..LABELS {
                    let places = [
                        queued.contains(&l),
                        fed.contains(&l),
                        quarantined.contains(&l),
                        self.outcomes[l] == Some(Feedback::Declined),
                        self.outcomes[l] == Some(Feedback::Dropped),
                    ];
                    let places = places.iter().filter(|&&p| p).count();
                    if places != usize::from(self.outcomes[l].is_some()) {
                        return Err(Kind::Conservation);
                    }
                }
                let count = |f| self.outcomes.iter().filter(|&&o| o == Some(f)).count() as u64;
                let counted = (
                    stats.feedback_enqueued,
                    stats.feedback_declined,
                    stats.feedback_dropped,
                    stats.feedback_fed,
                    stats.trainer_panics,
                );
                let seen = (
                    count(Feedback::Accepted),
                    count(Feedback::Declined),
                    count(Feedback::Dropped),
                    fed.len() as u64,
                    quarantined.len() as u64,
                );
                if counted != seen {
                    return Err(Kind::Counts);
                }
                let held = self.offerers.iter().find_map(|o| o.guard.as_ref());
                let model = match held {
                    Some(t) => t.model.clone(),
                    None => match router.trainer.try_lock() {
                        Ok(t) => t.model.clone(),
                        Err(TryLockError::Poisoned(t)) => t.into_inner().model.clone(),
                        Err(TryLockError::WouldBlock) => unreachable!("no actor holds it"),
                    },
                };
                let model = model.expect("a model is attached");
                let (o, m) = (&self.oracle, &model);
                let learns = !m.is_frozen();
                if (m.prototypes(), m.steps(), learns)
                    != (o.prototypes(), o.steps(), !o.is_frozen())
                    || lock(&router.door).learns != learns
                {
                    return Err(Kind::Trainer);
                }
                let version = router.cell.load_owned().map_or(0, |s| s.version());
                if version < self.version {
                    return Err(Kind::Version);
                }
                self.version = version;
                if self.enabled().is_empty() && learns && !queued.is_empty() {
                    return Err(Kind::Stranded);
                }
                Ok(())
            }

            /// The memo key: everything the rest of a schedule depends on.
            fn key(&self) -> String {
                let router = self.router;
                let offerers: Vec<_> = self
                    .offerers
                    .iter()
                    .map(|o| (o.pc, o.enqueued, o.guard.is_some()))
                    .collect();
                let kinds = [
                    FaultKind::TrainerPanic,
                    FaultKind::LockPoison,
                    FaultKind::QueueOverflow,
                ];
                let seen = kinds.map(|k| router.fault.seen(k));
                format!(
                    "{offerers:?} {} {:?} {:?} {:?} {:?} {} {seen:?}",
                    self.read,
                    self.outcomes,
                    self.events,
                    queued(router),
                    router.stats(),
                    router.trainer.is_poisoned(),
                )
            }
        }

        /// The law every `stats()` read keeps.
        fn law(s: &RouterStats) -> Result<(), Kind> {
            if s.feedback_fed + s.trainer_panics > s.feedback_enqueued {
                return Err(Kind::StatsLaw);
            }
            Ok(())
        }

        struct Explorer<'s> {
            setup: &'s Setup,
            model: LlmModel,
            /// Explored states → maximal schedules from them.
            memo: HashMap<String, u128>,
            path: Vec<usize>,
            covered: HashSet<&'static str>,
        }

        impl Explorer<'_> {
            /// Replay the path on a fresh router: the state it reaches and
            /// the actors that may move next, or what a step broke.
            fn replay(&mut self) -> Result<(String, Vec<usize>), Violation> {
                let router = router(self.setup, &self.model);
                let mut run = Run::new(&router, &self.model);
                let mut trace = Vec::new();
                for &actor in &self.path {
                    let stepped = run.step(actor).and_then(|label| {
                        trace.push(label);
                        run.check()
                    });
                    if let Err(kind) = stepped {
                        return Err(Violation { kind, trace });
                    }
                }
                self.covered.extend(run.reached.drain(..));
                Ok((run.key(), run.enabled()))
            }

            fn dfs(&mut self) -> Result<u128, Violation> {
                let (key, enabled) = self.replay()?;
                if let Some(&count) = self.memo.get(&key) {
                    return Ok(count);
                }
                let mut total = u128::from(enabled.is_empty());
                for actor in enabled {
                    self.path.push(actor);
                    total += self.dfs()?;
                    self.path.pop();
                }
                self.memo.insert(key, total);
                Ok(total)
            }
        }

        /// Drop the default hook's report of an injected panic; pass any
        /// other on.
        fn quiet_injected_panics() {
            static QUIET: std::sync::Once = std::sync::Once::new();
            QUIET.call_once(|| {
                let report = std::panic::take_hook();
                std::panic::set_hook(Box::new(move |info| {
                    let message = info.payload().downcast_ref::<&str>();
                    if !message.is_some_and(|m| m.starts_with("injected fault")) {
                        report(info);
                    }
                }));
            });
        }

        #[test]
        fn every_interleaving_of_the_door_keeps_the_feedback_contract() {
            quiet_injected_panics();
            let start = Instant::now();
            let mut total = 0;
            for setup in &SETUPS {
                let at = Instant::now();
                let mut explorer = Explorer {
                    setup,
                    model: (setup.model)(),
                    memo: HashMap::new(),
                    path: Vec::new(),
                    covered: HashSet::new(),
                };
                let schedules = explorer
                    .dfs()
                    .unwrap_or_else(|v| panic!("{}: {v}", setup.name));
                eprintln!(
                    "{}: {schedules} schedules over {} states in {:.2?}",
                    setup.name,
                    explorer.memo.len(),
                    at.elapsed()
                );
                assert_eq!(schedules, setup.schedules, "{}", setup.name);
                let missed: Vec<_> = setup
                    .covers
                    .iter()
                    .filter(|c| !explorer.covered.contains(*c))
                    .collect();
                assert!(
                    missed.is_empty(),
                    "{}: no schedule reached {missed:?}",
                    setup.name
                );
                total += schedules;
            }
            eprintln!("door: {total} schedules in {:.2?}", start.elapsed());
        }
    }
}
