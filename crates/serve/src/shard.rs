//! [`ShardRouter`]: the serving engine — confidence-gated routing
//! between the learned snapshots and the exact DBMS backend, with the
//! training loop closed in production over a sharded serve/train fabric.
//!
//! atomics: audited — every `Ordering::Relaxed` here is a monotonic stat
//! counter or a per-shard advisory flag: `degraded`, read only for
//! [`RouterStats`], and `trainable`, read by the feedback doors — a stale
//! read queues one example for a trainer that just froze (it stays
//! queued, bounded) or declines one for a trainer that just came back;
//! both tolerate staleness. The two orderings
//! that matter are explicit: `next_id` (the spawn ticket counter whose
//! values become prototype identities) is SeqCst, and snapshot hand-off
//! goes through the SeqCst [`SnapshotCell`] protocol. The exact-cost EMA
//! lives in `crate::cost::CostEma` with its own audit header; the
//! partitioner (`crate::partition`) has no atomics at all.
//!
//! # Query flow (the paper's desideratum D2 made operational)
//!
//! 1. resolve one hazard-slot read guard per shard — the serve path holds
//!    **no `Mutex`/`RwLock`**, and the guards pin every involved epoch
//!    for exactly the prediction's duration;
//! 2. predict and score in one pass: the confidence assessment
//!    ([`regq_core::confidence`]) shares the prediction's own
//!    overlap-weight resolution;
//! 3. serve from the snapshots when the score clears
//!    [`RoutePolicy::confidence_threshold`]; otherwise execute on the
//!    [`ExactEngine`] and — Algorithm 1's Fig. 2 loop — enqueue the exact
//!    answer on its shard's bounded feedback queue. Feedback never blocks
//!    a serving thread: queues are drained under `try_lock`, a contended
//!    trainer leaves the example queued for the next drain, only a
//!    full queue loses one, and a shard whose trainer cannot learn (no
//!    model, or a frozen one) is not offered any (both counted, see
//!    [`Feedback`]);
//! 4. each shard's trainer republishes a fresh snapshot every
//!    [`RoutePolicy::publish_interval`] consumed examples.
//!
//! # Shards
//!
//! A single trainer mutex is fine for one feedback stream and a
//! bottleneck for many, so the router partitions the **joint query
//! space** `[x, θ]` (a kd-split over the attached model's prototypes,
//! hash fallback while there is nothing to split) into `n` shards, each
//! owning
//!
//! * its own trainer (an [`LlmModel`] over the shard's prototype subset),
//! * its own [`SnapshotCell`] (so publishes on one shard never disturb
//!   readers of another),
//! * a bounded feedback queue drained with work stealing: any caller
//!   drains whichever shard's trainer lock it can grab.
//!
//! A query ball near a shard boundary overlaps prototypes in *several*
//! shards, and the paper's fused answer (Algorithm 3) is a normalized
//! overlap-weighted sum over **all** of them. The router therefore hands
//! every shard's guarded snapshot to the cross-shard predictors of
//! `regq_core`, which replay the exact floating-point operation sequence
//! of the single-arena predictors — the answer is **bit-identical** to
//! the unsharded model's at any shard count, not merely close. The
//! contract making that possible: every prototype carries a *global id*
//! (its index in the pre-split arena, or a fresh `next_id` ticket on
//! spawn), per-shard id lists stay strictly ascending (training only
//! ever appends), and the fusion driver merges the per-shard overlap sets
//! back into global-id order. One shard is simply the smallest fabric.
//!
//! # Fault tolerance
//!
//! Training is *supervised*: every SGD ingestion runs under
//! `catch_unwind`. A panicking drain (including injected
//! [`FaultKind::TrainerPanic`] faults) quarantines the offending example
//! ([`ShardRouter::quarantined`]), restarts that shard's trainer from its
//! last published [`ShardSnapshot`], flags the shard *degraded* until its
//! next publish, and counts everything in [`RouterStats`] — serving never
//! stops and recovery is never silent. A poisoned trainer lock gets the
//! same restart-from-snapshot before the poison is cleared (a poisoned
//! guard may hold a half-applied update, which must be neither trained on
//! nor published). Feedback that hits a full bounded queue gets a bounded
//! deterministic retry-with-backoff budget
//! ([`RoutePolicy::overflow_retries`]) before the counted drop, and
//! fallbacks degrade to the flagged snapshot answer under a deadline
//! budget or queue-pressure watermark ([`Route::Degraded`]).

use crate::cell::{ReadGuard, SnapshotCell};
use crate::cost::CostEma;
use crate::fault::{FaultKind, FaultPlan};
use crate::partition::{joint_point, Partitioner};
use crate::route::{Feedback, Route, RoutePolicy, ServeError, Served, QUARANTINE_CAP};
use regq_core::moments::MomentsModel;
use regq_core::{
    sharded_q1_with_confidence_batch_pruned, sharded_q1_with_confidence_pruned,
    sharded_q2_with_confidence_batch_pruned, sharded_q2_with_confidence_pruned, Confidence,
    CoreError, LlmModel, LocalModel, Prototype, Query, ScreenCounters, ServingSnapshot, ShardPart,
};
use regq_exact::ExactEngine;
use regq_linalg::LinalgError;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, TryLockError};
use std::time::Instant;

/// Default bound on each shard's feedback queue (examples, not bytes).
const DEFAULT_QUEUE_CAPACITY: usize = 1024;

/// Shards whose read state a consultation keeps in place; a fabric with
/// more spills it to the heap (the `regq_core::Coeffs` pattern). Covers
/// every shard count the workloads and tests run.
const INLINE_SHARDS: usize = 8;

/// One empty slot per shard: in place up to [`INLINE_SHARDS`] shards, on
/// the heap beyond.
enum PerShard<T> {
    Inline([Option<T>; INLINE_SHARDS]),
    Heap(Vec<Option<T>>),
}

impl<T> PerShard<T> {
    fn new(shards: usize) -> Self {
        if shards <= INLINE_SHARDS {
            PerShard::Inline(std::array::from_fn(|_| None))
        } else {
            PerShard::Heap(std::iter::repeat_with(|| None).take(shards).collect())
        }
    }

    /// The slots; zip them with the shards (an inline buffer has spares).
    fn slots(&mut self) -> &mut [Option<T>] {
        match self {
            PerShard::Inline(slots) => slots,
            PerShard::Heap(slots) => slots,
        }
    }
}

/// What one shard publishes: its snapshot plus the global prototype id of
/// each local arena slot, as **one atomic unit** — a reader never sees a
/// snapshot paired with another version's id map.
#[derive(Debug, Clone)]
pub struct ShardSnapshot {
    /// The shard's model snapshot.
    pub snapshot: ServingSnapshot,
    /// Global prototype ids, one per arena slot, strictly ascending.
    pub ids: Arc<Vec<usize>>,
}

struct ShardTrainer {
    model: Option<LlmModel>,
    /// Global id of each arena slot — strictly ascending (training only
    /// appends; merges/prunes never run inside the fabric).
    ids: Vec<usize>,
    since_publish: usize,
}

struct Shard {
    trainer: Mutex<ShardTrainer>,
    cell: SnapshotCell<ShardSnapshot>,
    queue: Mutex<VecDeque<(Query, f64)>>,
    /// Set when this shard's trainer was restarted from its snapshot,
    /// cleared at its next publish: answers stay correct (they come from
    /// the published snapshot) but learning regressed to it.
    degraded: AtomicBool,
    /// Whether this shard's trainer holds a model that still learns
    /// (present and not frozen). Advisory: written where the model changes
    /// hands — `attach_model`, `recover_shard_trainer`, the end of a drain
    /// (a step may have frozen it) — so the feedback doors can decline
    /// examples nobody would ever drain without locking the trainer.
    trainable: AtomicBool,
}

impl Shard {
    fn empty() -> Self {
        Shard {
            trainer: Mutex::new(ShardTrainer {
                model: None,
                ids: Vec::new(),
                since_publish: 0,
            }),
            cell: SnapshotCell::new(),
            queue: Mutex::new(VecDeque::new()),
            degraded: AtomicBool::new(false),
            trainable: AtomicBool::new(false),
        }
    }

    /// Re-derive `trainable` from the trainer the caller holds locked.
    fn note_trainable(&self, t: &ShardTrainer) {
        let learns = t.model.as_ref().is_some_and(|m| !m.is_frozen());
        self.trainable.store(learns, Ordering::Relaxed);
    }
}

/// Counter snapshot from [`ShardRouter::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RouterStats {
    /// Queries answered from the fused shard snapshots.
    pub model_served: u64,
    /// Queries answered by the exact engine. Like its two siblings this
    /// counts the shard-snapshot heads (`AVG`, `LINREG`); `VAR` passes
    /// the same gate and moves only the `blocks_*` counters.
    pub exact_served: u64,
    /// Feedback examples accepted into a shard queue.
    pub feedback_enqueued: u64,
    /// Feedback examples actually consumed by a shard trainer.
    pub feedback_fed: u64,
    /// Feedback examples *lost*: the target shard's bounded queue was
    /// full. Every drop is counted and surfaced per-query via
    /// [`Served::feedback_dropped`].
    pub feedback_dropped: u64,
    /// Feedback examples *declined*: the target shard's trainer holds no
    /// model or a frozen one, so nothing could have been learned and
    /// nothing was queued ([`Feedback::Declined`]) — not a loss.
    pub feedback_declined: u64,
    /// Snapshot publishes summed over all shard cells.
    pub publishes: u64,
    /// Number of shards.
    pub shards: usize,
    /// Retained snapshot epochs summed over all shard cells (bounded by
    /// readers, not publishes — the reclamation invariant).
    pub retained: usize,
    /// Below-threshold queries served from the snapshots as
    /// [`Route::Degraded`] (deadline budget / pressure watermark).
    pub degraded_served: u64,
    /// Shard-trainer panics caught mid-drain; each quarantined its
    /// example ([`ShardRouter::quarantined`]) and restarted that shard's
    /// trainer.
    pub trainer_panics: u64,
    /// Shard-trainer restarts from the shard's last published snapshot
    /// (panic or poison recovery). Recovery is never silent.
    pub trainer_restarts: u64,
    /// Poisoned shard-trainer locks encountered and healed.
    pub lock_poisonings: u64,
    /// Retry attempts made for feedback that found its shard queue full
    /// (the bounded [`RoutePolicy::overflow_retries`] budget).
    pub feedback_retried: u64,
    /// Shards currently flagged degraded (restarted trainer awaiting its
    /// next publish).
    pub degraded_shards: usize,
    /// Prototype block visits whose lower bound was evaluated during
    /// pruned snapshot consultations (none on single-block layouts),
    /// summed over every shard consulted — and, for `VAR`, over the
    /// variance head's snapshot.
    pub blocks_screened: u64,
    /// Prototype blocks pruned away because their bound ruled them out —
    /// the fabric's output-sensitivity win.
    pub blocks_skipped: u64,
    /// Prototype blocks exact-verified by the bit-exact kernel.
    pub blocks_verified: u64,
}

/// The serving engine (see module docs). `&self` prediction/feedback
/// from any number of threads (`ShardRouter: Send + Sync`); the mutable
/// trainers live behind writer-side mutexes that the serve path only ever
/// `try_lock`s. Attaching models and resharding are `&mut self`
/// administrative operations.
pub struct ShardRouter {
    exact: ExactEngine,
    policy: RoutePolicy,
    partitioner: Partitioner,
    shards: Vec<Shard>,
    /// The variance head behind `VAR` ([`ShardRouter::attach_moments`]),
    /// captured once: immutable and consulted whole, so it lives beside
    /// the shards, not in them, and needs no cell.
    moments: Option<ServingSnapshot>,
    queue_capacity: usize,
    fault: FaultPlan,
    /// Examples quarantined by panicking shard trainers (bounded at
    /// [`QUARANTINE_CAP`]; `trainer_panics` has the unbounded count).
    quarantine: Mutex<Vec<(Query, f64)>>,
    /// Exact-path cost EMA in µs (no sample until the first timed exact
    /// call); only maintained when a deadline budget / injected delay
    /// needs it.
    exact_cost: CostEma,
    /// Next unassigned global prototype id (spawn ticket counter).
    next_id: AtomicUsize,
    model_served: AtomicU64,
    exact_served: AtomicU64,
    feedback_enqueued: AtomicU64,
    feedback_fed: AtomicU64,
    feedback_dropped: AtomicU64,
    feedback_declined: AtomicU64,
    degraded_served: AtomicU64,
    trainer_panics: AtomicU64,
    trainer_restarts: AtomicU64,
    lock_poisonings: AtomicU64,
    feedback_retried: AtomicU64,
    blocks_screened: AtomicU64,
    blocks_skipped: AtomicU64,
    blocks_verified: AtomicU64,
}

/// What the snapshots said about one query: the fused prediction with its
/// confidence, or `None` when no shard has a non-empty snapshot.
type Predicted<T> = Option<(T, Confidence)>;

/// One consultation: what it predicted, the newest model version
/// involved and its pruning telemetry.
type Consulted<P> = (P, u64, ScreenCounters);

/// One gated query: the answer and, on the exact route, the label its
/// caller owes the fabric as feedback.
type Routed<T> = (Served<T>, Option<f64>);

/// Poison-tolerant lock for *queue* mutexes and read-only test access.
///
/// Deliberately **not** used for trainer locks. A `VecDeque` of
/// `(Query, f64)` pairs has no
/// cross-field invariant a mid-operation panic could break (an element is
/// either in the queue or it isn't), so `into_inner` is sound here. A
/// *trainer* guard, by contrast, may hold a half-applied SGD update —
/// those locks go through [`ShardRouter::lock_shard_trainer`], which
/// restarts the trainer from its last published snapshot and counts the
/// health event before handing the guard out.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Die holding `guard`, genuinely poisoning its mutex (the injected
/// [`FaultKind::LockPoison`] mechanism — no simulation, the real thing).
fn poison_lock(guard: MutexGuard<'_, ShardTrainer>) {
    let poisoner = catch_unwind(AssertUnwindSafe(move || {
        let _guard = guard;
        panic!("injected fault: shard trainer lock poisoned");
    }));
    debug_assert!(poisoner.is_err());
}

/// Deterministic exponential spin backoff between overflow retries —
/// no clocks, no sleeps, so scripted single-threaded tests replay
/// bit-identically.
fn backoff(attempt: u32) {
    for _ in 0..(64u32 << attempt.min(10)) {
        std::hint::spin_loop();
    }
}

impl ShardRouter {
    /// Router over `shards` empty shards — every query routes exact (and,
    /// with feedback on, the fabric trains itself once models are
    /// attached or [`ShardRouter::attach_model`] seeds them).
    ///
    /// # Panics
    /// Panics when `shards == 0`.
    pub fn new(exact: ExactEngine, policy: RoutePolicy, shards: usize) -> Self {
        assert!(shards >= 1, "a router needs at least one shard");
        ShardRouter {
            exact,
            policy,
            partitioner: Partitioner::Hash { shards },
            shards: (0..shards).map(|_| Shard::empty()).collect(),
            moments: None,
            queue_capacity: DEFAULT_QUEUE_CAPACITY,
            fault: FaultPlan::new(),
            quarantine: Mutex::new(Vec::new()),
            exact_cost: CostEma::new(),
            next_id: AtomicUsize::new(0),
            model_served: AtomicU64::new(0),
            exact_served: AtomicU64::new(0),
            feedback_enqueued: AtomicU64::new(0),
            feedback_fed: AtomicU64::new(0),
            feedback_dropped: AtomicU64::new(0),
            feedback_declined: AtomicU64::new(0),
            degraded_served: AtomicU64::new(0),
            trainer_panics: AtomicU64::new(0),
            trainer_restarts: AtomicU64::new(0),
            lock_poisonings: AtomicU64::new(0),
            feedback_retried: AtomicU64::new(0),
            blocks_screened: AtomicU64::new(0),
            blocks_skipped: AtomicU64::new(0),
            blocks_verified: AtomicU64::new(0),
        }
    }

    /// Router with `model` partitioned across `shards` shards and every
    /// shard's first snapshot published.
    ///
    /// # Panics
    /// Panics when `shards == 0`.
    pub fn with_model(
        exact: ExactEngine,
        model: LlmModel,
        policy: RoutePolicy,
        shards: usize,
    ) -> Self {
        let mut router = Self::new(exact, policy, shards);
        router.attach_model(model);
        router
    }

    /// Partition `model` across the current shards: a kd-split is built
    /// from the prototypes' joint points `[center, radius]`, each
    /// prototype keeps its arena index as its global id, and every shard
    /// publishes its subset snapshot. Pending queued feedback is
    /// discarded (it belonged to the replaced model).
    pub fn attach_model(&mut self, model: LlmModel) {
        let protos = model.prototypes();
        let joint: Vec<Vec<f64>> = protos
            .iter()
            .map(|p| joint_point(&p.center, p.radius))
            .collect();
        self.partitioner = Partitioner::kd(&joint, self.shards.len());
        let mut per: Vec<(Vec<Prototype>, Vec<usize>)> =
            (0..self.shards.len()).map(|_| Default::default()).collect();
        for (gid, p) in protos.into_iter().enumerate() {
            let shard = self.partitioner.route(&p.center, p.radius);
            per[shard].0.push(p);
            per[shard].1.push(gid);
        }
        self.next_id
            .store(per.iter().map(|(s, _)| s.len()).sum(), Ordering::SeqCst);
        for (shard, (subset, ids)) in self.shards.iter().zip(per) {
            let m = LlmModel::from_parts(
                model.config().clone(),
                subset,
                model.steps(),
                model.is_frozen(),
            )
            // INVARIANT: `from_parts` validates dimensions and
            // finiteness, and every part here is a subset of a model that
            // already passed that validation with the same config.
            .expect("subset of a valid model is valid");
            let snapshot = m.snapshot();
            lock(&shard.queue).clear();
            let mut t = self.lock_shard_trainer(shard);
            t.model = Some(m);
            t.ids = ids.clone();
            t.since_publish = 0;
            shard.note_trainable(&t);
            shard.cell.publish(ShardSnapshot {
                snapshot,
                ids: Arc::new(ids),
            });
            shard.degraded.store(false, Ordering::Relaxed);
        }
    }

    /// Attach a trained moments model: enables the model route of
    /// [`ShardRouter::var`] / [`ShardRouter::var_model`]. Only the
    /// variance head is kept, as a snapshot: the heads share one codebook
    /// and its update counts, so its confidence is the mean head's, bit
    /// for bit. It is served as attached — exact `VAR` fallbacks feed
    /// their subspace mean to the Q1 trainers, not to this head — and
    /// resharding leaves it untouched.
    pub fn attach_moments(&mut self, model: MomentsModel) {
        self.moments = Some(model.second_head().snapshot());
    }

    /// Re-shard in place: drain every queue, merge the per-shard models
    /// back into one (global-id order), rebuild `shards` fresh shards and
    /// re-partition. Model parameters survive bit-for-bit; global ids are
    /// compacted to `0..K`.
    ///
    /// # Panics
    /// Panics when `shards == 0`.
    pub fn set_shards(&mut self, shards: usize) {
        assert!(shards >= 1, "a router needs at least one shard");
        self.drain_all_blocking();
        let merged = self.merged_model();
        self.partitioner = Partitioner::Hash { shards };
        self.shards = (0..shards).map(|_| Shard::empty()).collect();
        for shard in &self.shards {
            shard.cell.arm_faults(self.fault.clone());
        }
        self.next_id.store(0, Ordering::SeqCst);
        if let Some(model) = merged {
            self.attach_model(model);
        }
    }

    /// Reassemble the single unsharded model: all shard prototypes in
    /// ascending global-id order, `steps` = the max over shards, frozen
    /// iff every shard is. `None` when no shard has a trainer.
    pub fn merged_model(&self) -> Option<LlmModel> {
        let mut entries: Vec<(usize, Prototype)> = Vec::new();
        let mut config = None;
        let mut steps = 0u64;
        let mut frozen = true;
        for shard in &self.shards {
            let t = self.lock_shard_trainer(shard);
            let Some(model) = t.model.as_ref() else {
                continue;
            };
            config.get_or_insert_with(|| model.config().clone());
            steps = steps.max(model.steps());
            frozen &= model.is_frozen();
            for (local, p) in model.prototypes().into_iter().enumerate() {
                entries.push((t.ids[local], p));
            }
        }
        let config = config?;
        entries.sort_unstable_by_key(|e| e.0);
        let protos = entries.into_iter().map(|(_, p)| p).collect();
        Some(
            LlmModel::from_parts(config, protos, steps, frozen)
                // INVARIANT: every prototype being merged came out of a
                // shard model that passed `from_parts` validation
                // against a clone of this same config, so re-validation
                // cannot fail.
                .expect("merged shard parts are consistent"),
        )
    }

    /// The exact backend.
    pub fn exact_engine(&self) -> &ExactEngine {
        &self.exact
    }

    /// The routing policy.
    pub fn policy(&self) -> &RoutePolicy {
        &self.policy
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Bound each shard's feedback queue to `capacity` examples (an
    /// administrative knob; the default is 1024).
    pub fn set_queue_capacity(&mut self, capacity: usize) {
        self.queue_capacity = capacity.max(1);
    }

    /// Counters so far.
    pub fn stats(&self) -> RouterStats {
        RouterStats {
            model_served: self.model_served.load(Ordering::Relaxed),
            exact_served: self.exact_served.load(Ordering::Relaxed),
            feedback_enqueued: self.feedback_enqueued.load(Ordering::Relaxed),
            feedback_fed: self.feedback_fed.load(Ordering::Relaxed),
            feedback_dropped: self.feedback_dropped.load(Ordering::Relaxed),
            feedback_declined: self.feedback_declined.load(Ordering::Relaxed),
            publishes: self.shards.iter().map(|s| s.cell.epoch()).sum(),
            shards: self.shards.len(),
            retained: self.shards.iter().map(|s| s.cell.retained()).sum(),
            degraded_served: self.degraded_served.load(Ordering::Relaxed),
            trainer_panics: self.trainer_panics.load(Ordering::Relaxed),
            trainer_restarts: self.trainer_restarts.load(Ordering::Relaxed),
            lock_poisonings: self.lock_poisonings.load(Ordering::Relaxed),
            feedback_retried: self.feedback_retried.load(Ordering::Relaxed),
            degraded_shards: self
                .shards
                .iter()
                .filter(|s| s.degraded.load(Ordering::Relaxed))
                .count(),
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

    /// Arm a [`FaultPlan`] on the router and every shard's snapshot cell
    /// (for injected publish stalls). Deterministic: occurrence counters
    /// live in the shared plan, so a scripted schedule fires at exactly
    /// the configured sites.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        for shard in &self.shards {
            shard.cell.arm_faults(plan.clone());
        }
        self.fault = plan;
    }

    /// Examples quarantined by panicking shard trainers, oldest first
    /// (bounded at [`QUARANTINE_CAP`] retained examples;
    /// [`RouterStats::trainer_panics`] has the unbounded count).
    pub fn quarantined(&self) -> Vec<(Query, f64)> {
        self.quarantine
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    fn push_quarantine(&self, q: &Query, y: f64) {
        let mut quarantine = self
            .quarantine
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if quarantine.len() < QUARANTINE_CAP {
            quarantine.push((q.clone(), y));
        }
    }

    /// Lock a shard's trainer, healing a poisoned lock on the way in: the
    /// poisoned guard may expose a half-applied SGD update (the panicking
    /// thread died mid-`train_step`), which must be neither trained on
    /// nor published — so restart from the shard's last published
    /// snapshot and clear the poison. Counted, never silent.
    fn lock_shard_trainer<'s>(&self, shard: &'s Shard) -> MutexGuard<'s, ShardTrainer> {
        match shard.trainer.lock() {
            Ok(t) => t,
            Err(p) => {
                let mut t = p.into_inner();
                self.lock_poisonings.fetch_add(1, Ordering::Relaxed);
                self.recover_shard_trainer(shard, &mut t);
                shard.trainer.clear_poison();
                t
            }
        }
    }

    /// Restart one shard's trainer from its last published
    /// [`ShardSnapshot`] (or, before any publish, from a fresh model with
    /// the same config and an empty id list). Marks the shard degraded
    /// until its next publish.
    fn recover_shard_trainer(&self, shard: &Shard, t: &mut ShardTrainer) {
        t.since_publish = 0;
        match shard.cell.load_owned() {
            Some(ss) => {
                t.model = ss.snapshot.to_model().ok();
                t.ids = ss.ids.as_ref().clone();
            }
            None => {
                t.model = t
                    .model
                    .as_ref()
                    .and_then(|m| LlmModel::new(m.config().clone()).ok());
                t.ids.clear();
            }
        }
        shard.note_trainable(t);
        self.trainer_restarts.fetch_add(1, Ordering::Relaxed);
        shard.degraded.store(true, Ordering::Relaxed);
    }

    /// Offer one `(q, y)` feedback example to the fabric. The example is
    /// routed to its shard's bounded queue; `Accepted` means *enqueued*
    /// (a trainer consumes it at the next drain). A full queue gets the
    /// bounded retry-with-backoff budget of
    /// [`RoutePolicy::overflow_retries`] (each attempt pumps the fabric
    /// first, so retries actively make room) before the example is lost
    /// as a `Dropped` — counted in [`RouterStats::feedback_dropped`]. A
    /// shard whose trainer cannot learn (no model, or a frozen one) is
    /// offered nothing: the example is `Declined`, counted in
    /// [`RouterStats::feedback_declined`], and no queue fills up with
    /// examples nobody would drain. Never blocks on a trainer lock.
    pub fn observe_outcome(&self, q: &Query, y: f64) -> Feedback {
        let idx = self.partitioner.route(&q.center, q.radius);
        if self.declines(&self.shards[idx], 1) {
            return Feedback::Declined;
        }
        // An injected overflow burst makes the first offer behave as if
        // the queue were full — the retry/drop path must absorb it.
        if !self.fault.fires(FaultKind::QueueOverflow) && self.try_enqueue(idx, q, y) {
            self.feedback_enqueued.fetch_add(1, Ordering::Relaxed);
            // Opportunistic drain: this caller steals whatever shard work
            // it can grab without blocking (its own shard included).
            self.pump();
            return Feedback::Accepted;
        }
        self.retry_enqueue(idx, q, y)
    }

    /// Whether `shard` cannot train and so declines the `n` examples on
    /// offer — counted here, for both feedback doors.
    fn declines(&self, shard: &Shard, n: usize) -> bool {
        let declines = !shard.trainable.load(Ordering::Relaxed);
        if declines {
            self.feedback_declined
                .fetch_add(n as u64, Ordering::Relaxed);
        }
        declines
    }

    /// One lock-and-offer against shard `idx`'s bounded queue.
    fn try_enqueue(&self, idx: usize, q: &Query, y: f64) -> bool {
        let mut queue = lock(&self.shards[idx].queue);
        if queue.len() >= self.queue_capacity {
            return false;
        }
        queue.push_back((q.clone(), y));
        true
    }

    /// Deterministic bounded retry after a full-queue offer: up to
    /// [`RoutePolicy::overflow_retries`] rounds of exponential spin
    /// backoff, each preceded by a drain pass so the retry has a reason
    /// to succeed. Exhausting the budget is a counted drop.
    fn retry_enqueue(&self, idx: usize, q: &Query, y: f64) -> Feedback {
        for attempt in 0..self.policy.overflow_retries {
            self.feedback_retried.fetch_add(1, Ordering::Relaxed);
            backoff(attempt);
            self.pump();
            if self.try_enqueue(idx, q, y) {
                self.feedback_enqueued.fetch_add(1, Ordering::Relaxed);
                self.pump();
                return Feedback::Accepted;
            }
        }
        self.feedback_dropped.fetch_add(1, Ordering::Relaxed);
        Feedback::Dropped
    }

    /// Drain queued feedback into whichever shard trainers are free
    /// (`try_lock` — contended shards are left for whoever holds them;
    /// that holder drains the examples this caller enqueued, which is the
    /// work-stealing contract in both directions). Returns the number of
    /// examples trained.
    pub fn pump(&self) -> usize {
        let mut trained = 0;
        for shard in &self.shards {
            match shard.trainer.try_lock() {
                Ok(t) => {
                    if self.fault.fires(FaultKind::LockPoison) {
                        // Kill this holder mid-critical-section: the
                        // guard dies inside a panic, genuinely poisoning
                        // the lock for whoever comes next.
                        poison_lock(t);
                        continue;
                    }
                    let mut t = t;
                    trained += self.drain_shard(shard, &mut t);
                }
                Err(TryLockError::WouldBlock) => {}
                Err(TryLockError::Poisoned(p)) => {
                    // The previous holder panicked mid-update; its model
                    // state is untrustworthy. Restart from the published
                    // snapshot before draining anything into it.
                    let mut t = p.into_inner();
                    self.lock_poisonings.fetch_add(1, Ordering::Relaxed);
                    self.recover_shard_trainer(shard, &mut t);
                    shard.trainer.clear_poison();
                    trained += self.drain_shard(shard, &mut t);
                }
            }
        }
        trained
    }

    /// Drain one shard's queue into its trainer (caller holds the lock).
    /// A shard that cannot train (no model, frozen) leaves its queue
    /// untouched; the feedback doors stop offering it examples
    /// (`Shard::trainable`), so what a freeze left behind stays bounded.
    ///
    /// Every `train_step` runs supervised: a panic (real or injected)
    /// quarantines the offending example, restarts this shard's trainer
    /// from its last published snapshot, and the drain *continues* on the
    /// restarted model — one poisonous example cannot take the rest of
    /// the batch down with it.
    fn drain_shard(&self, shard: &Shard, t: &mut ShardTrainer) -> usize {
        if t.model.as_ref().is_none_or(|m| m.is_frozen()) {
            return 0;
        }
        let batch: Vec<(Query, f64)> = lock(&shard.queue).drain(..).collect();
        if batch.is_empty() {
            return 0;
        }
        let mut trained = 0usize;
        let mut batch = batch.into_iter();
        while let Some((q, y)) = batch.next() {
            // Re-check per example: a mid-batch restart may have landed
            // on a frozen (or unrecoverable) model. Untrainable leftovers
            // go back to the queue front, order preserved.
            if t.model.as_ref().is_none_or(|m| m.is_frozen()) {
                let rest: Vec<(Query, f64)> = std::iter::once((q, y)).chain(batch).collect();
                let mut queue = lock(&shard.queue);
                for pair in rest.into_iter().rev() {
                    queue.push_front(pair);
                }
                break;
            }
            // INVARIANT: the `t.model.is_none()` requeue branch above
            // breaks out of the loop, so reaching here implies `Some`.
            let model = t.model.as_mut().expect("checked above");
            let k_before = model.k();
            let boom = self.fault.fires(FaultKind::TrainerPanic);
            let step = catch_unwind(AssertUnwindSafe(|| {
                let step = model.train_step(&q, y);
                // Injected *after* the step so the model really is
                // mid-update (mutated but unaccounted) when the
                // supervisor catches it.
                if boom {
                    panic!("injected fault: shard trainer panic mid-update");
                }
                step
            }));
            match step {
                Ok(Ok(_)) => {
                    // INVARIANT: this arm means `train_step` ran on
                    // `t.model` above; nothing in between can take it
                    // (we hold the shard trainer lock throughout).
                    if t.model.as_ref().expect("just trained").k() > k_before {
                        // Spawn appends exactly one prototype at the
                        // arena's end, so a fresh (globally unique,
                        // per-shard ascending) id ticket keeps ids
                        // aligned slot-for-slot.
                        t.ids.push(self.next_id.fetch_add(1, Ordering::SeqCst));
                    }
                    trained += 1;
                    t.since_publish += 1;
                }
                Ok(Err(_)) => continue,
                Err(_) => {
                    self.trainer_panics.fetch_add(1, Ordering::Relaxed);
                    self.push_quarantine(&q, y);
                    self.recover_shard_trainer(shard, t);
                }
            }
        }
        self.feedback_fed
            .fetch_add(trained as u64, Ordering::Relaxed);
        // A step above may have frozen the model (convergence).
        shard.note_trainable(t);
        if t.since_publish >= self.policy.publish_interval {
            t.since_publish = 0;
            if let Some(model) = t.model.as_ref() {
                shard.cell.publish(ShardSnapshot {
                    snapshot: model.snapshot(),
                    ids: Arc::new(t.ids.clone()),
                });
                shard.degraded.store(false, Ordering::Relaxed);
            }
        }
        trained
    }

    /// Blocking drain of every shard (administrative; used by
    /// [`ShardRouter::set_shards`]).
    fn drain_all_blocking(&self) {
        for shard in &self.shards {
            let mut t = self.lock_shard_trainer(shard);
            self.drain_shard(shard, &mut t);
        }
    }

    /// Force-publish every shard's current parameters (blocks on each
    /// trainer lock in turn; a poisoned lock heals first, so a
    /// half-applied update is never published). Returns the total publish
    /// count.
    pub fn publish_now(&self) -> u64 {
        for shard in &self.shards {
            let mut t = self.lock_shard_trainer(shard);
            t.since_publish = 0;
            let ShardTrainer { model, ids, .. } = &*t;
            if let Some(model) = model {
                shard.cell.publish(ShardSnapshot {
                    snapshot: model.snapshot(),
                    ids: Arc::new(ids.clone()),
                });
                shard.degraded.store(false, Ordering::Relaxed);
            }
        }
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

    /// Consult the shard snapshots once about `queries` (one query or a
    /// whole batch): resolve one read guard per shard, run `predict` over
    /// the non-empty parts, and return what it made of them, the newest
    /// snapshot version involved and the consultation's pruning telemetry
    /// (already folded into the router-lifetime counters). The guards pin
    /// every involved epoch for exactly the prediction's duration —
    /// publishes land concurrently, reclamation frees what no guard pins.
    ///
    /// Readers, guards and parts sit in place for up to [`INLINE_SHARDS`]
    /// shards, so a warm consultation calls the allocator only for what
    /// `predict` returns.
    fn consult<Q: ?Sized, P>(
        &self,
        queries: &Q,
        predict: impl FnOnce(&[ShardPart<'_>], &Q, &mut ScreenCounters) -> P,
    ) -> Consulted<P> {
        let n = self.shards.len();
        let mut readers = PerShard::new(n);
        let mut guards = PerShard::new(n);
        for ((reader, guard), shard) in readers
            .slots()
            .iter_mut()
            .zip(guards.slots())
            .zip(&self.shards)
        {
            *guard = Some(reader.insert(shard.cell.tls_reader()).enter());
        }
        let mut version = 0u64;
        let mut live = guards
            .slots()
            .iter()
            .flatten()
            .filter_map(ReadGuard::get)
            .filter(|ss| ss.snapshot.k() > 0)
            .inspect(|ss| version = version.max(ss.snapshot.version()))
            .map(|ss| ShardPart {
                snapshot: &ss.snapshot,
                ids: Some(&ss.ids),
            });
        // The predictors take the live parts as one slice: in place
        // (padded with the first) up to INLINE_SHARDS, on the heap beyond.
        let (mut inline, spilled): (_, Vec<_>);
        let parts: &[ShardPart<'_>] = match live.next() {
            None => &[],
            Some(first) if n <= INLINE_SHARDS => {
                inline = [first; INLINE_SHARDS];
                let mut len = 1;
                for (slot, part) in inline[1..].iter_mut().zip(live) {
                    *slot = part;
                    len += 1;
                }
                &inline[..len]
            }
            Some(first) => {
                spilled = std::iter::once(first).chain(live).collect();
                &spilled
            }
        };
        let mut screen = ScreenCounters::default();
        let predicted = predict(parts, queries, &mut screen);
        self.record_screen(&screen);
        (predicted, version, screen)
    }

    /// Offer a routed answer's label (exact route only, policy
    /// permitting) to the fabric, surfacing a lost example on the answer.
    fn feed_back<T>(&self, q: &Query, (mut served, label): Routed<T>) -> Served<T> {
        if let (true, Some(y)) = (self.policy.feedback, label) {
            served.feedback_dropped = self.observe_outcome(q, y).is_lost();
        }
        served
    }

    /// The exact Q1 execution: the subspace mean, which is both the
    /// answer and the label to feed back.
    fn exact_q1(&self, q: &Query) -> Result<(f64, f64), ServeError> {
        let y = self.timed_exact(|| {
            self.exact
                .q1(&q.center, q.radius)
                .ok_or(ServeError::EmptySubspace)
        })?;
        Ok((y, y))
    }

    /// The exact Q2 execution: the per-query OLS fit in [`LocalModel`]
    /// shape (weight 1, the query ball as the region) plus the subspace
    /// mean as the label to feed back — the fused Q1+OLS traversal
    /// computes it anyway, so the free training example costs no extra
    /// data pass.
    fn exact_q2(&self, q: &Query) -> Result<(Vec<LocalModel>, f64), ServeError> {
        let fit = self.timed_exact(|| {
            self.exact
                .q1_reg_fused(&q.center, q.radius)
                .map_err(|e| match e {
                    LinalgError::Empty => ServeError::EmptySubspace,
                    other => ServeError::Numeric(other),
                })
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
        let m = self.timed_exact(|| {
            self.exact
                .q1_moments(&q.center, q.radius)
                .ok_or(ServeError::EmptySubspace)
        })?;
        Ok((m.variance, m.mean))
    }

    /// Consult the moments model about `q`: the variance head's
    /// prediction (clamped non-negative) and its confidence from the one
    /// pruned resolution every served answer takes, telemetry folded into
    /// the router-lifetime counters. No shard guard (the snapshot is
    /// immutable once attached); the version is the heads' step count.
    /// Predicts nothing without a moments model.
    ///
    /// # Errors
    /// [`CoreError::EmptyModel`] while the heads are untrained.
    fn consult_moments(&self, q: &Query) -> Result<Consulted<Predicted<f64>>, CoreError> {
        let Some(head) = self.moments.as_ref() else {
            return Ok(Default::default());
        };
        let mut screen = ScreenCounters::default();
        let (variance, conf) = head.predict_q1_with_confidence_pruned(q, &mut screen)?;
        self.record_screen(&screen);
        Ok((Some((variance.max(0.0), conf)), head.version(), screen))
    }

    /// Run an exact-path computation, timing it when a deadline budget
    /// (or an injected delay) makes the cost estimate matter. With no
    /// deadline and no armed delay this is a plain call — zero overhead
    /// on the default path.
    fn timed_exact<T>(&self, run: impl FnOnce() -> Result<T, ServeError>) -> Result<T, ServeError> {
        if self.policy.deadline_us.is_none() && !self.fault.is_armed(FaultKind::ExactDelay) {
            return run();
        }
        let start = Instant::now();
        self.fault.delay_exact();
        let out = run();
        self.exact_cost.record(start.elapsed().as_secs_f64() * 1e6);
        out
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

    /// Whether a below-threshold query should skip the exact fallback and
    /// serve the fused snapshot answer as [`Route::Degraded`]: either its
    /// shard's feedback queue is at the pressure watermark (the fabric is
    /// drowning — stop generating more feedback), or the exact-path cost
    /// estimate exceeds the deadline budget.
    fn should_degrade(&self, q: &Query) -> bool {
        if let Some(watermark) = self.policy.pressure_watermark {
            let shard = &self.shards[self.partitioner.route(&q.center, q.radius)];
            if lock(&shard.queue).len() >= watermark {
                return true;
            }
        }
        self.policy.deadline_us.is_some_and(|budget| {
            self.exact_cost_estimate_us()
                .is_some_and(|cost| cost > budget)
        })
    }

    /// The gate: route one query given what the models `predicted` for
    /// it. Serves the prediction when its score clears the threshold,
    /// flags it [`Route::Degraded`] when the exact fallback is refused,
    /// and otherwise runs `exact` — annotated with the rejecting score
    /// when there was one. Offering the label is the caller's job: scalar
    /// callers do it at once, batches offer all of theirs together.
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
            Some((value, conf)) if self.should_degrade(q) => {
                let served = Served {
                    route: Route::Degraded,
                    ..Served::model(value, conf.score, version, screen)
                };
                Ok((served, None))
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

    /// [`ShardRouter::gate`] for the snapshot-served heads (`AVG`,
    /// `LINREG`), counting the route taken.
    fn route_one<T>(
        &self,
        q: &Query,
        predicted: Predicted<T>,
        version: u64,
        screen: ScreenCounters,
        exact: impl Fn(&Self, &Query) -> Result<(T, f64), ServeError>,
    ) -> Result<Routed<T>, ServeError> {
        let routed = self.gate(q, predicted, version, screen, exact)?;
        let counter = match routed.0.route {
            Route::Model => &self.model_served,
            Route::Exact => &self.exact_served,
            Route::Degraded => &self.degraded_served,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        Ok(routed)
    }

    /// Scalar auto-routing driver: consult the snapshots once, gate, and
    /// offer the fallback's label to the fabric.
    fn serve_auto<T>(
        &self,
        q: &Query,
        predict: impl FnOnce(&[ShardPart<'_>], &Query, &mut ScreenCounters) -> Predicted<T>,
        exact: impl Fn(&Self, &Query) -> Result<(T, f64), ServeError>,
    ) -> Result<Served<T>, ServeError> {
        let (predicted, version, screen) = self.consult(q, predict);
        Ok(self.feed_back(q, self.route_one(q, predicted, version, screen, exact)?))
    }

    /// Scalar forced-model driver: the fused snapshot answer at whatever
    /// score it carries.
    fn serve_model<T>(
        &self,
        q: &Query,
        predict: impl FnOnce(&[ShardPart<'_>], &Query, &mut ScreenCounters) -> Predicted<T>,
    ) -> Result<Served<T>, ServeError> {
        let (predicted, version, screen) = self.consult(q, predict);
        let (value, conf) = predicted.ok_or(ServeError::NoModel)?;
        self.model_served.fetch_add(1, Ordering::Relaxed);
        Ok(Served::model(value, conf.score, version, screen))
    }

    /// Scalar forced-exact driver: no snapshot consulted, the label still
    /// offered — analyst-issued exact queries *are* the paper's training
    /// stream.
    fn serve_exact<T>(
        &self,
        q: &Query,
        exact: impl Fn(&Self, &Query) -> Result<(T, f64), ServeError>,
    ) -> Result<Served<T>, ServeError> {
        let routed = self.route_one(q, None, 0, ScreenCounters::default(), exact)?;
        Ok(self.feed_back(q, routed))
    }

    /// **Auto-routed Q1** (the paper's D2 serve-or-fall-back): the fused
    /// cross-shard answer when the confidence score clears the policy
    /// threshold, exact fallback (with feedback) otherwise.
    ///
    /// # Errors
    /// [`ServeError::EmptySubspace`] when the fallback selection is
    /// empty; [`ServeError::Model`] on a dimension mismatch.
    pub fn q1(&self, q: &Query) -> Result<Served<f64>, ServeError> {
        let q = self.check_dim(q)?;
        self.serve_auto(q, sharded_q1_with_confidence_pruned, Self::exact_q1)
    }

    /// **Forced model Q1** (the SQL `USING MODEL` route).
    ///
    /// # Errors
    /// [`ServeError::NoModel`] when every shard is empty;
    /// [`ServeError::Model`] on a dimension mismatch.
    pub fn q1_model(&self, q: &Query) -> Result<Served<f64>, ServeError> {
        self.serve_model(self.check_dim(q)?, sharded_q1_with_confidence_pruned)
    }

    /// **Forced exact Q1** (the SQL `USING EXACT` route); still feeds the
    /// fabric when feedback is on.
    ///
    /// # Errors
    /// [`ServeError::EmptySubspace`] when the selection is empty.
    pub fn q1_exact(&self, q: &Query) -> Result<Served<f64>, ServeError> {
        self.serve_exact(self.check_dim(q)?, Self::exact_q1)
    }

    /// **Auto-routed Q2** (regression-model list vs per-query OLS). List
    /// elements carry global prototype ids, so the answer does not depend
    /// on the shard count.
    ///
    /// # Errors
    /// [`ServeError::EmptySubspace`] / [`ServeError::Numeric`] from the
    /// fallback; [`ServeError::Model`] on a dimension mismatch.
    pub fn q2(&self, q: &Query) -> Result<Served<Vec<LocalModel>>, ServeError> {
        let q = self.check_dim(q)?;
        self.serve_auto(q, sharded_q2_with_confidence_pruned, Self::exact_q2)
    }

    /// **Forced model Q2** (Algorithm 3's list `S`).
    ///
    /// # Errors
    /// [`ServeError::NoModel`] when every shard is empty;
    /// [`ServeError::Model`] on a dimension mismatch.
    pub fn q2_model(&self, q: &Query) -> Result<Served<Vec<LocalModel>>, ServeError> {
        self.serve_model(self.check_dim(q)?, sharded_q2_with_confidence_pruned)
    }

    /// **Forced exact Q2**: the per-query OLS fit in [`LocalModel`]
    /// shape, feeding the subspace mean back to the fabric.
    ///
    /// # Errors
    /// [`ServeError::EmptySubspace`] on an empty selection;
    /// [`ServeError::Numeric`] on a numerical failure.
    pub fn q2_exact(&self, q: &Query) -> Result<Served<Vec<LocalModel>>, ServeError> {
        self.serve_exact(self.check_dim(q)?, Self::exact_q2)
    }

    // ---- VAR -----------------------------------------------------------
    //
    // The variance head is resolved by the same pruned driver and passes
    // the same gate, deadline/pressure degradation, exact-cost clock and
    // feedback seam as the shard-snapshot heads. It moves none of
    // `model_served` / `exact_served` / `degraded_served`: those count
    // `AVG` + `LINREG` answers, a scope the ledger's smoke test pins
    // (`benchmark/tests/smoke.rs`).

    /// **Auto-routed `VAR`**: the moments model's variance head when its
    /// confidence clears the policy threshold, otherwise the
    /// gate every answer passes — [`Route::Degraded`] under the deadline
    /// budget / pressure watermark, else exact execution with the
    /// subspace mean fed back. No (or an untrained) moments model routes
    /// exact with no score.
    ///
    /// # Errors
    /// [`ServeError::EmptySubspace`] when the fallback selection is
    /// empty; [`ServeError::Model`] on a dimension mismatch.
    pub fn var(&self, q: &Query) -> Result<Served<f64>, ServeError> {
        let q = self.check_dim(q)?;
        let (predicted, version, screen) = self.consult_moments(q).unwrap_or_default();
        let routed = self.gate(q, predicted, version, screen, Self::exact_var)?;
        Ok(self.feed_back(q, routed))
    }

    /// **Forced model `VAR`** (the SQL `USING MODEL` route).
    ///
    /// # Errors
    /// [`ServeError::NoModel`] without a moments model;
    /// [`ServeError::Model`] while its heads are untrained or on a
    /// dimension mismatch.
    pub fn var_model(&self, q: &Query) -> Result<Served<f64>, ServeError> {
        let q = self.check_dim(q)?;
        let (predicted, version, screen) = self.consult_moments(q).map_err(ServeError::Model)?;
        let (value, conf) = predicted.ok_or(ServeError::NoModel)?;
        Ok(Served::model(value, conf.score, version, screen))
    }

    /// **Forced exact `VAR`**; still feeds the subspace mean to the
    /// fabric when feedback is on.
    ///
    /// # Errors
    /// [`ServeError::EmptySubspace`] when the selection is empty.
    pub fn var_exact(&self, q: &Query) -> Result<Served<f64>, ServeError> {
        let q = self.check_dim(q)?;
        let routed = self.gate(q, None, 0, ScreenCounters::default(), Self::exact_var)?;
        Ok(self.feed_back(q, routed))
    }

    // ---- Batched serving ----------------------------------------------
    //
    // The batch entry points resolve the shard read guards ONCE for the
    // whole `&[Query]`, run the blocked cross-shard batch predictors,
    // and enqueue the exact-fallback feedback with one queue lock per
    // involved shard plus a single drain pass. Per-query answers are
    // bit-identical to the scalar path (the batch predictors replay the
    // scalar kernels' floating-point operation sequence exactly); the
    // observable difference is consistency — a batch never straddles a
    // shard republish, whereas a scalar loop can.

    /// Offer a batch of `(q, y)` feedback examples to the fabric:
    /// examples are grouped per shard, each involved shard's bounded
    /// queue is locked once, and one drain pass runs at the end.
    /// Per-example outcomes match [`ShardRouter::observe_outcome`]
    /// (`Accepted` = enqueued; a full shard queue gets the bounded
    /// retry-with-backoff budget — after the batch's queue locks are
    /// released — before the counted `Dropped`; a shard that cannot
    /// train declines all of its examples). Never blocks on a trainer
    /// lock.
    pub fn observe_outcome_batch(&self, pairs: &[(Query, f64)]) -> Vec<Feedback> {
        if pairs.is_empty() {
            return Vec::new();
        }
        let mut out = vec![Feedback::Dropped; pairs.len()];
        let mut by_shard: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
        for (i, (q, _)) in pairs.iter().enumerate() {
            by_shard[self.partitioner.route(&q.center, q.radius)].push(i);
        }
        let mut enqueued = 0u64;
        // (pair index, shard index) of offers that found the queue full
        // (or hit an injected overflow burst): retried after this pass.
        let mut overflowed: Vec<(usize, usize)> = Vec::new();
        for (shard_idx, (shard, idxs)) in self.shards.iter().zip(&by_shard).enumerate() {
            if idxs.is_empty() {
                continue;
            }
            if self.declines(shard, idxs.len()) {
                for &i in idxs {
                    out[i] = Feedback::Declined;
                }
                continue;
            }
            let mut queue = lock(&shard.queue);
            for &i in idxs {
                if self.fault.fires(FaultKind::QueueOverflow) || queue.len() >= self.queue_capacity
                {
                    overflowed.push((i, shard_idx));
                } else {
                    let (q, y) = &pairs[i];
                    queue.push_back((q.clone(), *y));
                    out[i] = Feedback::Accepted;
                    enqueued += 1;
                }
            }
        }
        self.feedback_enqueued
            .fetch_add(enqueued, Ordering::Relaxed);
        self.pump();
        // Retry pass with no queue lock held: each overflowed example
        // gets its own bounded backoff budget (or the immediate counted
        // drop when the budget is zero).
        for (i, shard_idx) in overflowed {
            let (q, y) = &pairs[i];
            out[i] = self.retry_enqueue(shard_idx, q, *y);
        }
        out
    }

    /// Batch auto-routing driver: dimension-check every query up front,
    /// consult one pinned set of shard snapshots for the whole batch, gate
    /// each query exactly as the scalar driver does (exact executions run
    /// after the guards drop), and offer the fallbacks' labels in one
    /// batched fabric offer. Fails fast on the first exact error (a batch
    /// is one all-or-nothing call).
    fn route_batch<T>(
        &self,
        queries: &[Query],
        predict: impl FnOnce(&[ShardPart<'_>], &[Query], &mut ScreenCounters) -> Vec<Predicted<T>>,
        exact: impl Fn(&Self, &Query) -> Result<(T, f64), ServeError>,
    ) -> Result<Vec<Served<T>>, ServeError> {
        if queries.is_empty() {
            return Ok(Vec::new());
        }
        for q in queries {
            self.check_dim(q)?;
        }
        let (predicted, version, screen) = self.consult(queries, predict);
        debug_assert_eq!(predicted.len(), queries.len());
        let mut out: Vec<Served<T>> = Vec::with_capacity(queries.len());
        let mut fb_pairs: Vec<(Query, f64)> = Vec::new();
        let mut fb_slots: Vec<usize> = Vec::new();
        // Every answer carries the aggregate counters of the batch's
        // single consultation, which covered all of them.
        for (q, predicted) in queries.iter().zip(predicted) {
            let (served, label) = self.route_one(q, predicted, version, screen, &exact)?;
            if let (true, Some(y)) = (self.policy.feedback, label) {
                fb_pairs.push((q.clone(), y));
                fb_slots.push(out.len());
            }
            out.push(served);
        }
        let feedback = self.observe_outcome_batch(&fb_pairs);
        for (&slot, fb) in fb_slots.iter().zip(feedback) {
            out[slot].feedback_dropped = fb.is_lost();
        }
        Ok(out)
    }

    /// **Batched auto-routed Q1**: [`ShardRouter::q1`] over a slice with
    /// one guard resolution, the blocked Q×K distance kernels, and one
    /// batched feedback offer. Answers are bit-identical to per-query
    /// [`ShardRouter::q1`] calls against the same pinned snapshots. An
    /// empty batch returns an empty vec.
    ///
    /// # Errors
    /// As [`ShardRouter::q1`]; the typed dimension mismatch is checked
    /// up front for every query before any work runs.
    pub fn q1_batch(&self, queries: &[Query]) -> Result<Vec<Served<f64>>, ServeError> {
        self.route_batch(
            queries,
            sharded_q1_with_confidence_batch_pruned,
            Self::exact_q1,
        )
    }

    /// **Batched auto-routed Q2** — same single-resolution semantics as
    /// [`ShardRouter::q1_batch`], list elements carrying global prototype
    /// ids, the fused Q1+OLS fallback feeding the subspace mean back.
    ///
    /// # Errors
    /// As [`ShardRouter::q2`], plus the up-front batched dimension check.
    pub fn q2_batch(&self, queries: &[Query]) -> Result<Vec<Served<Vec<LocalModel>>>, ServeError> {
        self.route_batch(
            queries,
            sharded_q2_with_confidence_batch_pruned,
            Self::exact_q2,
        )
    }
}

impl std::fmt::Debug for ShardRouter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardRouter")
            .field("shards", &self.shards.len())
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
    use std::sync::OnceLock;

    fn q(center: &[f64], r: f64) -> Query {
        Query::new_unchecked(center.to_vec(), r)
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

    /// Probes spanning in-distribution balls, boundary straddlers (wide
    /// balls overlapping many shards) and out-of-distribution corners.
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
    /// them short of convergence (so its trainers still learn).
    fn fixture() -> (Arc<Dataset>, LlmModel) {
        static FIX: OnceLock<(Arc<Dataset>, LlmModel)> = OnceLock::new();
        FIX.get_or_init(|| {
            let data = dataset(20_000, 1);
            let model = trained_model(&exact_over(&data), 30_000, 2);
            (data, model)
        })
        .clone()
    }

    fn fixture_router(policy: RoutePolicy, shards: usize) -> ShardRouter {
        let (data, model) = fixture();
        ShardRouter::with_model(exact_over(&data), model, policy, shards)
    }

    /// The default policy with the trainers held fixed.
    fn no_feedback() -> RoutePolicy {
        RoutePolicy {
            feedback: false,
            ..RoutePolicy::default()
        }
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

    /// The bit-identity oracle: the unsharded model's own **unpruned
    /// scalar** prediction (the path furthest from production) decides
    /// the route the router must take and the bits it must serve;
    /// `exact` is the exact engine's answer (`None` = empty selection).
    fn assert_gated_like_the_model<T: PartialEq + std::fmt::Debug>(
        got: Result<Served<T>, ServeError>,
        (value, conf): (T, Confidence),
        exact: Option<T>,
        shards: usize,
    ) {
        let (route, want) = if conf.score >= no_feedback().confidence_threshold {
            (Route::Model, Some(value))
        } else {
            (Route::Exact, exact)
        };
        match (got, want) {
            (Ok(got), Some(want)) => {
                assert_eq!(got.route, route, "route diverged at {shards} shards");
                assert_eq!(got.value, want, "value diverged at {shards} shards");
                assert_eq!(got.score.map(f64::to_bits), Some(conf.score.to_bits()));
            }
            (Err(ServeError::EmptySubspace), None) => {}
            (got, want) => panic!("outcome diverged at {shards} shards: {got:?} vs {want:?}"),
        }
    }

    #[test]
    fn router_matches_the_unsharded_model_bit_for_bit() {
        let (data, model) = fixture();
        assert!(model.k() >= 4, "need prototypes to shard: k={}", model.k());
        let (snap, exact) = (model.snapshot(), exact_over(&data));
        // 12: past the shards a consultation keeps in place (it spills).
        for shards in [1usize, 2, 3, 5, 12] {
            // Feedback off: the published model stays the one under test.
            let router = fixture_router(no_feedback(), shards);
            for probe in probes() {
                assert_gated_like_the_model(
                    router.q1(&probe).map(|s| s.map_value(f64::to_bits)),
                    snap.predict_q1_with_confidence(&probe)
                        .map(|(y, conf)| (y.to_bits(), conf))
                        .unwrap(),
                    exact.q1(&probe.center, probe.radius).map(f64::to_bits),
                    shards,
                );
                let ols = match exact.q1_reg_fused(&probe.center, probe.radius) {
                    Ok(fit) => Some(vec![LocalModel {
                        intercept: fit.model.intercept,
                        slope: fit.model.slope.into(),
                        prototype: 0,
                        weight: 1.0,
                        center: probe.center.clone().into(),
                        radius: probe.radius,
                    }]),
                    Err(LinalgError::Empty) => None,
                    Err(e) => panic!("unexpected {e}"),
                };
                assert_gated_like_the_model(
                    router.q2(&probe),
                    snap.predict_q2_with_confidence(&probe).unwrap(),
                    ols,
                    shards,
                );
            }
        }
    }

    #[test]
    fn batch_q1_and_q2_match_scalar_calls_bit_for_bit() {
        // Feedback off: the scalar loop must not retrain between calls,
        // so both paths consult the same snapshots. `Served` derives
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
        for shards in [1usize, 4] {
            let router = fixture_router(no_feedback(), shards);
            let batch = router.q1_batch(&probes).unwrap();
            assert_eq!(batch.len(), probes.len());
            let shared = batch[0].screen;
            assert_eq!(shared.blocks, shared.skipped + shared.verified);
            assert!(shared.blocks > 0, "batch consulted the snapshots");
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
            // A singleton batch is the scalar call — including its
            // counters, because a one-query batch IS one consultation.
            for query in &probes {
                assert_eq!(
                    router.q1_batch(std::slice::from_ref(query)).unwrap()[0],
                    router.q1(query).unwrap()
                );
            }
        }
    }

    #[test]
    fn empty_batch_is_empty_not_a_panic() {
        let bare = ShardRouter::new(exact_over(&dataset(500, 9)), RoutePolicy::default(), 1);
        for router in [fixture_router(RoutePolicy::default(), 2), bare] {
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
        let bare = ShardRouter::new(exact_over(&dataset(500, 9)), RoutePolicy::default(), 1);
        for router in [fixture_router(RoutePolicy::default(), 2), bare] {
            match router.q1_batch(&queries) {
                Err(ServeError::Model(CoreError::DimensionMismatch { expected, actual })) => {
                    assert_eq!((expected, actual), (2, 3));
                }
                other => panic!("expected typed dimension mismatch, got {other:?}"),
            }
        }
    }

    #[test]
    fn batched_feedback_feeds_the_trainer_once_per_fallback() {
        let router = fixture_router(RoutePolicy::default(), 1);
        // Guaranteed fallbacks: each one produces a feedback example.
        let wide = vec![
            q(&[30.0, 30.0], 50.0),
            q(&[-20.0, 40.0], 60.0),
            q(&[25.0, -25.0], 55.0),
        ];
        let served = router.q1_batch(&wide).unwrap();
        let exact_count = served.iter().filter(|s| s.route == Route::Exact).count() as u64;
        assert!(exact_count > 0, "probe set must hit the exact route");
        let stats = router.stats();
        assert_eq!(stats.exact_served, exact_count);
        assert_eq!(stats.feedback_enqueued, exact_count);
        assert_eq!(stats.feedback_fed, exact_count);
        assert!(served.iter().all(|s| !s.feedback_dropped));
    }

    #[test]
    fn contended_trainer_leaves_feedback_queued_not_dropped() {
        let model = LlmModel::new(ModelConfig::with_vigilance(2, 0.15)).unwrap();
        let router = ShardRouter::with_model(
            exact_over(&dataset(500, 9)),
            model,
            RoutePolicy::default(),
            1,
        );
        let probe = q(&[0.5, 0.5], 0.2);
        // Std mutexes are not reentrant: while this thread holds the
        // trainer, every `try_lock` in the pump reports WouldBlock.
        let guard = router.shards[0].trainer.lock().unwrap();
        assert_eq!(router.observe_outcome(&probe, 1.0), Feedback::Accepted);
        let held = router.stats();
        assert_eq!((held.feedback_enqueued, held.feedback_fed), (1, 0));
        assert_eq!(held.feedback_dropped, 0, "contention is not a loss");
        drop(guard);
        assert_eq!(router.pump(), 1, "the next pump trains the queued example");
        assert_eq!(router.stats().feedback_fed, 1);
    }

    #[test]
    fn batched_q2_fallbacks_are_timed_and_feed_the_deadline_estimate() {
        // Regression: `q2_batch` used to call the fused exact kernel
        // directly, skipping `timed_exact` — no injected delay, no cost
        // sample, so a deadline budget never learned from batch-only
        // LINREG traffic.
        let mut router = fixture_router(
            RoutePolicy {
                confidence_threshold: 2.0, // everything falls below
                feedback: false,
                deadline_us: Some(1e-3), // any measured exact call blows it
                ..RoutePolicy::default()
            },
            2,
        );
        let plan = FaultPlan::new().inject(FaultKind::ExactDelay, &[1]);
        router.set_fault_plan(plan.clone());
        let wide = q(&[30.0, 30.0], 50.0);
        let batch = router.q2_batch(std::slice::from_ref(&wide)).unwrap();
        assert_eq!(batch[0].route, Route::Exact, "no estimate yet: run exact");
        assert_eq!(plan.fired(FaultKind::ExactDelay), 1);
        assert_eq!(router.q2(&wide).unwrap().route, Route::Degraded);
    }

    #[test]
    fn q2_routes_and_shapes_match_the_session_contract() {
        let router = fixture_router(RoutePolicy::default(), 2);
        let protos = fixture().1.prototypes();
        let p = protos.iter().max_by_key(|p| p.updates).unwrap();
        let query = q(&p.center, p.radius);
        let model_route = router.q2_model(&query).unwrap();
        assert!(!model_route.value.is_empty());
        let wsum: f64 = model_route.value.iter().map(|m| m.weight).sum();
        assert!((wsum - 1.0).abs() < 1e-9);

        let exact_route = router.q2_exact(&query).unwrap();
        assert_eq!(exact_route.value.len(), 1);
        assert_eq!(exact_route.value[0].weight, 1.0);
        assert_eq!(exact_route.value[0].slope.len(), 2);

        let auto = router.q2(&query).unwrap();
        assert_eq!(auto.route, Route::Model, "in-distribution Q2 must serve");
        assert_eq!(auto.value, model_route.value);
    }

    #[test]
    fn serve_error_sources_chain() {
        use std::error::Error as _;
        let err = fixture_router(no_feedback(), 1)
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
        // reclamation).
        let router = ShardRouter::with_model(
            exact_over(&dataset(10_000, 9)),
            LlmModel::new(ModelConfig::with_vigilance(2, 0.15)).unwrap(),
            RoutePolicy {
                confidence_threshold: 0.25,
                feedback: false, // readers must not train: the writer owns it
                publish_interval: 128,
                ..RoutePolicy::default()
            },
            1,
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

    #[test]
    fn kd_partitioner_spreads_prototypes_and_routing_is_consistent() {
        let data = dataset(20_000, 3);
        let model = trained_model(&exact_over(&data), 30_000, 4);
        let k = model.k();
        let router = ShardRouter::with_model(exact_over(&data), model, RoutePolicy::default(), 4);
        let per_shard: Vec<usize> = router
            .shards
            .iter()
            .map(|s| lock(&s.trainer).model.as_ref().unwrap().k())
            .collect();
        assert_eq!(
            per_shard.iter().sum::<usize>(),
            k,
            "prototypes lost/duplicated"
        );
        assert!(
            per_shard.iter().filter(|&&n| n > 0).count() >= 2,
            "kd split left everything in one shard: {per_shard:?}"
        );
        // Every prototype routes back to the shard that owns it.
        for (si, shard) in router.shards.iter().enumerate() {
            let t = lock(&shard.trainer);
            for p in t.model.as_ref().unwrap().prototypes() {
                assert_eq!(router.partitioner.route(&p.center, p.radius), si);
            }
        }
        // Ids: disjoint, per-shard ascending, covering 0..k.
        let mut all: Vec<usize> = Vec::new();
        for shard in &router.shards {
            let t = lock(&shard.trainer);
            assert!(t.ids.windows(2).all(|w| w[0] < w[1]), "ids not ascending");
            all.extend_from_slice(&t.ids);
        }
        all.sort_unstable();
        assert_eq!(all, (0..k).collect::<Vec<_>>());
    }

    #[test]
    fn bounded_queues_drop_deterministically_and_surface_on_answers() {
        let data = dataset(5_000, 5);
        let mut model = trained_model(&exact_over(&data), 10_000, 6);
        model.unfreeze();
        let mut router = ShardRouter::with_model(
            exact_over(&data),
            model,
            RoutePolicy {
                confidence_threshold: 2.0, // force exact so feedback flows
                feedback: true,
                publish_interval: 8,
                ..RoutePolicy::default()
            },
            1, // single shard: every example targets the same queue
        );
        router.set_queue_capacity(2);
        // While someone else holds the trainer lock nothing drains (the
        // feedback doors only ever `try_lock` it), so the third enqueue
        // must drop.
        let _busy = lock(&router.shards[0].trainer);
        let probe = q(&[0.5, 0.5], 0.2);
        assert_eq!(router.observe_outcome(&probe, 1.0), Feedback::Accepted);
        assert_eq!(router.observe_outcome(&probe, 1.0), Feedback::Accepted);
        assert_eq!(router.observe_outcome(&probe, 1.0), Feedback::Dropped);
        assert_eq!(router.stats().feedback_dropped, 1);
        // …and the drop surfaces on the query that caused it.
        let served = router.q1(&probe).unwrap();
        assert_eq!(served.route, Route::Exact);
        assert!(served.feedback_dropped, "drop must surface on the answer");
        assert_eq!(router.stats().feedback_dropped, 2);
    }

    #[test]
    fn a_trainer_that_cannot_train_is_not_offered_feedback() {
        let data = dataset(5_000, 23);
        let forced_exact = RoutePolicy {
            confidence_threshold: 2.0, // every answer is a fallback with a label
            ..RoutePolicy::default()
        };
        let probe = q(&[0.5, 0.5], 0.2);
        let pairs = vec![(probe.clone(), 1.0); 3];
        let learner = trained_model(&exact_over(&data), 5_000, 24);
        let mut frozen = learner.clone();
        frozen.freeze();
        let with_frozen = ShardRouter::with_model(exact_over(&data), frozen, forced_exact, 2);
        let model_less = ShardRouter::new(exact_over(&data), forced_exact, 2);
        for mut router in [with_frozen, model_less] {
            // Were anything queued, a 1-slot queue would drop the second.
            router.set_queue_capacity(1);
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
            assert!(router.shards.iter().all(|s| lock(&s.queue).is_empty()));
        }

        // A trainer that freezes *inside a drain* (γ so large that its
        // first step converges) stops being offered feedback from the next
        // example on, while the shard beside it still learns.
        let mut cfg = learner.config().clone();
        cfg.gamma = 1e9;
        cfg.convergence_window = 1;
        let eager =
            LlmModel::from_parts(cfg, learner.prototypes(), learner.steps(), false).unwrap();
        let router = ShardRouter::with_model(exact_over(&data), eager, forced_exact, 2);
        let probe_of = |shard: usize| {
            (0..400)
                .map(|i| q(&[(i % 20) as f64 / 20.0, (i / 20) as f64 / 20.0], 0.1))
                .find(|p| router.partitioner.route(&p.center, p.radius) == shard)
                .expect("a two-way kd split leaves no shard without a grid point")
        };
        let (a, b) = (probe_of(0), probe_of(1));
        assert_eq!(router.observe_outcome(&a, 1.0), Feedback::Accepted);
        assert_eq!(router.stats().feedback_fed, 1, "drained, and frozen by it");
        assert_eq!(router.observe_outcome(&a, 1.0), Feedback::Declined);
        assert_eq!(
            router.observe_outcome_batch(&[(a, 1.0), (b.clone(), 1.0)]),
            vec![Feedback::Declined, Feedback::Accepted]
        );
        let stats = router.stats();
        assert_eq!((stats.feedback_enqueued, stats.feedback_fed), (2, 2));
        assert_eq!((stats.feedback_declined, stats.feedback_dropped), (2, 0));
        assert_eq!(router.observe_outcome(&b, 1.0), Feedback::Declined);
    }

    #[test]
    fn sharded_closed_loop_trains_itself_to_model_serving() {
        let data = dataset(20_000, 7);
        let cfg = ModelConfig::with_vigilance(2, 0.08);
        let router = ShardRouter::with_model(
            exact_over(&data),
            LlmModel::new(cfg).unwrap(),
            RoutePolicy {
                confidence_threshold: 0.3,
                feedback: true,
                publish_interval: 32,
                ..RoutePolicy::default()
            },
            4,
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
            "sharded closed loop never graduated: {model_routes} model routes"
        );
        let stats = router.stats();
        assert!(stats.feedback_fed > 0 && stats.publishes > attached);
        assert!(stats.model_served > 0 && stats.exact_served > 0);
        // The served snapshots carry what the fallbacks taught, at a
        // version no newer than the examples the trainers consumed.
        let version = router
            .q1_model(&q(&[0.5, 0.5], 0.15))
            .unwrap()
            .snapshot_version
            .unwrap();
        assert!(version > 0 && version <= stats.feedback_fed);
        // Spawned ids stayed disjoint and per-shard ascending.
        let mut all: Vec<usize> = Vec::new();
        for shard in &router.shards {
            let t = lock(&shard.trainer);
            assert!(t.ids.windows(2).all(|w| w[0] < w[1]));
            all.extend_from_slice(&t.ids);
        }
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "global ids collided across shards");
    }

    #[test]
    fn set_shards_preserves_predictions_bit_for_bit() {
        let data = dataset(20_000, 9);
        let mut model = trained_model(&exact_over(&data), 30_000, 10);
        model.freeze();
        let policy = RoutePolicy {
            feedback: false,
            ..RoutePolicy::default()
        };
        let mut router = ShardRouter::with_model(exact_over(&data), model, policy, 3);
        let before: Vec<_> = probes()
            .iter()
            .map(|p| router.q1(p).map(|s| (s.route, s.value.to_bits())).ok())
            .collect();
        let k_before = router.merged_model().unwrap().k();
        router.set_shards(2);
        assert_eq!(router.shards(), 2);
        assert_eq!(router.merged_model().unwrap().k(), k_before);
        let after: Vec<_> = probes()
            .iter()
            .map(|p| router.q1(p).map(|s| (s.route, s.value.to_bits())).ok())
            .collect();
        assert_eq!(before, after, "resharding changed answers");
    }

    #[test]
    fn empty_router_routes_exact_and_reports_no_model() {
        let data = dataset(5_000, 11);
        let router = ShardRouter::new(
            exact_over(&data),
            RoutePolicy {
                feedback: false,
                ..RoutePolicy::default()
            },
            2,
        );
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
    fn injected_shard_trainer_panic_quarantines_restarts_and_keeps_draining() {
        let data = dataset(5_000, 13);
        let model = LlmModel::new(ModelConfig::with_vigilance(2, 0.15)).unwrap();
        let mut router = ShardRouter::with_model(
            exact_over(&data),
            model,
            RoutePolicy {
                feedback: true,
                publish_interval: 1024, // keep the drains unpublished
                ..RoutePolicy::default()
            },
            1,
        );
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
        assert_eq!(stats.degraded_shards, 1, "restart must flag the shard");
        // Examples 1, 3, 4 trained (3 restarted after the panic on 2);
        // the poisonous example is retrievable, not silently gone.
        assert_eq!(stats.feedback_fed, 3);
        let quarantined = router.quarantined();
        assert_eq!(quarantined.len(), 1);
        assert_eq!(quarantined[0].0.center, pairs[1].0.center);
        assert_eq!(quarantined[0].1, pairs[1].1);
        // The fabric keeps serving, and a publish clears the flag.
        router.q1(&q(&[0.5, 0.5], 0.2)).unwrap();
        router.publish_now();
        assert_eq!(router.stats().degraded_shards, 0);
    }

    #[test]
    fn poisoned_shard_trainer_lock_heals_and_answers_stay_bit_identical() {
        let data = dataset(20_000, 15);
        let mut model = trained_model(&exact_over(&data), 30_000, 16);
        model.freeze();
        let mut router = ShardRouter::with_model(
            exact_over(&data),
            model,
            RoutePolicy {
                feedback: false,
                ..RoutePolicy::default()
            },
            2,
        );
        let before: Vec<_> = probes()
            .iter()
            .map(|p| router.q1(p).map(|s| (s.route, s.value.to_bits())).ok())
            .collect();
        // Occurrence 1 kills the first pump's lock holder mid-section,
        // genuinely poisoning that shard's trainer mutex.
        router.set_fault_plan(FaultPlan::new().inject(FaultKind::LockPoison, &[1]));
        router.pump();
        // The next pump finds the poison, restarts that trainer from its
        // published snapshot, and clears it — counted, not silent.
        router.pump();
        let stats = router.stats();
        assert_eq!(stats.lock_poisonings, 1);
        assert_eq!(stats.trainer_restarts, 1);
        assert_eq!(stats.degraded_shards, 1);
        // Publishing the restored (bit-identical) parameters clears the
        // flag, and every answer matches the pre-fault run exactly.
        router.publish_now();
        assert_eq!(router.stats().degraded_shards, 0);
        let after: Vec<_> = probes()
            .iter()
            .map(|p| router.q1(p).map(|s| (s.route, s.value.to_bits())).ok())
            .collect();
        assert_eq!(before, after, "poison recovery changed answers");
    }

    #[test]
    fn injected_overflow_burst_is_absorbed_by_retries_or_counted_as_drops() {
        let data = dataset(5_000, 17);
        let probe = q(&[0.5, 0.5], 0.2);
        // With a retry budget the burst is invisible: the re-offer lands.
        let mut patient = ShardRouter::with_model(
            exact_over(&data),
            LlmModel::new(ModelConfig::with_vigilance(2, 0.15)).unwrap(),
            RoutePolicy {
                overflow_retries: 2,
                ..RoutePolicy::default()
            },
            1,
        );
        patient.set_fault_plan(FaultPlan::new().inject(FaultKind::QueueOverflow, &[1, 2]));
        assert_eq!(patient.observe_outcome(&probe, 1.0), Feedback::Accepted);
        assert_eq!(patient.observe_outcome(&probe, 2.0), Feedback::Accepted);
        let stats = patient.stats();
        assert_eq!(stats.feedback_retried, 2);
        assert_eq!(stats.feedback_dropped, 0);
        assert_eq!(stats.feedback_enqueued, 2);
        // With no budget the same burst is a counted, surfaced drop.
        let mut impatient = ShardRouter::with_model(
            exact_over(&data),
            LlmModel::new(ModelConfig::with_vigilance(2, 0.15)).unwrap(),
            RoutePolicy::default(), // overflow_retries: 0
            1,
        );
        impatient.set_fault_plan(FaultPlan::new().inject(FaultKind::QueueOverflow, &[1]));
        assert_eq!(impatient.observe_outcome(&probe, 1.0), Feedback::Dropped);
        assert_eq!(impatient.stats().feedback_dropped, 1);
        assert_eq!(impatient.observe_outcome(&probe, 2.0), Feedback::Accepted);
    }

    #[test]
    fn pressure_and_deadline_degrade_to_the_flagged_snapshot_answer() {
        let data = dataset(20_000, 19);
        let mut model = trained_model(&exact_over(&data), 30_000, 20);
        model.freeze();
        let probe = q(&[0.5, 0.5], 0.15);
        // Queue-pressure watermark: one queued example on a shard whose
        // trainer is busy (its lock is held, so nothing drains) crosses
        // watermark 1. The trainer must be one that learns — a frozen one
        // is offered no feedback to queue.
        let mut learner = model.clone();
        learner.unfreeze();
        let router = ShardRouter::with_model(
            exact_over(&data),
            learner,
            RoutePolicy {
                confidence_threshold: 2.0, // everything falls below
                pressure_watermark: Some(1),
                ..RoutePolicy::default()
            },
            1,
        );
        let reference = router.q1_model(&probe).unwrap();
        assert_eq!(router.q1(&probe).unwrap().route, Route::Exact);
        let busy = lock(&router.shards[0].trainer);
        router.observe_outcome(&probe, 1.0); // park one example
        let served = router.q1(&probe).unwrap();
        assert_eq!(served.route, Route::Degraded);
        assert_eq!(
            served.value.to_bits(),
            reference.value.to_bits(),
            "degraded answer must be the fused snapshot answer"
        );
        assert_eq!(router.stats().degraded_served, 1);
        // Batches take the same decision.
        let batch = router.q1_batch(std::slice::from_ref(&probe)).unwrap();
        assert_eq!(batch[0].route, Route::Degraded);
        assert_eq!(batch[0].value.to_bits(), reference.value.to_bits());
        drop(busy);
        // Deadline budget: a standing cost hint over the budget degrades
        // without ever running (or timing) the exact path.
        let mut slow = ShardRouter::with_model(
            exact_over(&data),
            model,
            RoutePolicy {
                confidence_threshold: 2.0,
                deadline_us: Some(50.0),
                ..RoutePolicy::default()
            },
            2,
        );
        slow.set_fault_plan(FaultPlan::new().with_exact_cost_hint_us(1e6));
        assert_eq!(slow.q1(&probe).unwrap().route, Route::Degraded);
        assert_eq!(slow.q2(&probe).unwrap().route, Route::Degraded);
        let batch = slow.q1_batch(std::slice::from_ref(&probe)).unwrap();
        assert_eq!(batch[0].route, Route::Degraded);
        assert_eq!(slow.stats().degraded_served, 3);
    }
}
