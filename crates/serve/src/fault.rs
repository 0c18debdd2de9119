//! Deterministic, seeded fault injection for the serve fabric.
//!
//! atomics: audited — the `seen` / `fired` occurrence counters are
//! `Ordering::Relaxed`: each is an independent monotonic tally whose
//! `fetch_add` atomicity alone decides "does occurrence *n* fire?", and
//! the observability getters only report totals. The [`StallGate`]
//! rendezvous flag stays SeqCst because it *does* order cross-thread
//! progress (the test thread must observe the stalled section entered).
//!
//! A [`FaultPlan`] is a reproducible schedule of failures that the fabric
//! components consult at well-defined *injection points*:
//!
//! | kind | injection point | effect when it fires |
//! |---|---|---|
//! | [`FaultKind::TrainerPanic`] | each trainer SGD ingestion | panic *after* the step mutates the model (the update is applied but unaccounted — the supervisor must treat the in-lock state as corrupt) |
//! | [`FaultKind::LockPoison`] | each trainer lock a pump takes: after a pass that queued a label, when a label meets a full queue, and again after a kill or a re-check that found labels | panic while the guard unwinds, genuinely poisoning the `Mutex` |
//! | [`FaultKind::QueueOverflow`] | each well-formed label offered to a trainer that can learn | the bounded queue reports full (a transient overflow burst): the label is a counted drop |
//! | [`FaultKind::PublishStall`] | each [`crate::SnapshotCell::publish`] | the writer stalls mid-publish (spin, or block on a [`StallGate`]) |
//!
//! Each kind fires at an explicit set of 1-based *occurrence numbers*
//! ([`FaultPlan::inject`]) or at a pseudo-random seeded schedule
//! ([`FaultPlan::seeded`]) — either way the schedule is a pure function of
//! the plan, so every failure mode reproduces exactly in tests. Occurrence
//! counters are only advanced for armed kinds: an empty plan (the default
//! everywhere) costs one branch per injection point.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Bounded spin used for gate-less publish stalls: long enough to be
/// visible in traces, short enough to never wedge a test.
const SPIN_ITERS: u32 = 50_000;

/// The injectable failure classes (see the module docs table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Panic the trainer mid-update (after the SGD step mutated the model).
    TrainerPanic,
    /// Poison a trainer lock (panic while the guard unwinds).
    LockPoison,
    /// Report a feedback queue as full — a transient overflow burst.
    QueueOverflow,
    /// Stall the writer inside a snapshot publish.
    PublishStall,
}

impl FaultKind {
    fn index(self) -> usize {
        match self {
            FaultKind::TrainerPanic => 0,
            FaultKind::LockPoison => 1,
            FaultKind::QueueOverflow => 2,
            FaultKind::PublishStall => 3,
        }
    }
}

/// One fault kind's schedule plus its live counters.
#[derive(Debug, Default)]
struct Arm {
    /// 1-based occurrence numbers at which this kind fires.
    at: BTreeSet<u64>,
    /// Injection points seen while armed.
    seen: AtomicU64,
    /// Faults actually fired.
    fired: AtomicU64,
}

/// The blocking half of a gated publish stall.
#[derive(Debug)]
struct GateInner {
    open: Mutex<bool>,
    cv: Condvar,
}

/// Handle releasing a gated publish stall (see
/// [`FaultPlan::with_publish_gate`]): the stalled writer blocks inside
/// `publish` until [`StallGate::release`] is called, after which all
/// current and future stalls pass immediately.
#[derive(Debug, Clone)]
pub struct StallGate {
    inner: Arc<GateInner>,
}

impl StallGate {
    /// Open the gate: wake every stalled writer and let all future stalls
    /// pass straight through.
    pub fn release(&self) {
        *self
            .inner
            .open
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = true;
        self.inner.cv.notify_all();
    }
}

#[derive(Debug, Default)]
struct Inner {
    arms: [Arm; 4],
    /// Pre-computed "this kind can ever fire" flags: the unarmed fast path
    /// is a plain bool load, no atomic traffic.
    armed: [bool; 4],
    publish_gate: Option<Arc<GateInner>>,
}

/// A deterministic fault-injection schedule shared by every component of
/// one serve fabric (cheap to clone — the schedule and its counters live
/// behind one `Arc`). See the module docs for the injection points.
///
/// Configure with the builder methods **before** installing the plan
/// (they require sole ownership); install with
/// [`crate::ShardRouter::set_fault_plan`] /
/// [`crate::SnapshotCell::arm_faults`].
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    inner: Arc<Inner>,
}

impl FaultPlan {
    /// An empty plan: nothing ever fires (the default everywhere).
    pub fn new() -> Self {
        Self::default()
    }

    #[expect(
        clippy::expect_used,
        reason = "builder methods take `self` by value before the plan is cloned/installed, \
                  so this `Arc` is still unique; violating that is a documented \
                  configuration panic (`# Panics` on every builder), not a serving-path hazard"
    )]
    fn inner_mut(&mut self) -> &mut Inner {
        Arc::get_mut(&mut self.inner).expect("configure a FaultPlan before sharing/installing it")
    }

    /// Arm `kind` to fire at the given 1-based occurrence numbers of its
    /// injection point (e.g. `&[3]` fires on the third trainer ingestion).
    ///
    /// # Panics
    /// Panics if the plan has already been cloned/installed (configure
    /// first, share after).
    #[must_use]
    pub fn inject(mut self, kind: FaultKind, occurrences: &[u64]) -> Self {
        let inner = self.inner_mut();
        inner.arms[kind.index()].at.extend(occurrences);
        inner.armed[kind.index()] |= !occurrences.is_empty();
        self
    }

    /// Arm each kind in `kinds` with `per_kind` pseudo-random occurrence
    /// numbers drawn from `1..=horizon` — a reproducible "chaos" schedule:
    /// the same `(kinds, seed, horizon, per_kind)` always yields the same
    /// plan.
    ///
    /// # Panics
    /// As [`FaultPlan::inject`].
    #[must_use]
    pub fn seeded(kinds: &[FaultKind], seed: u64, horizon: u64, per_kind: u32) -> Self {
        let mut plan = Self::new();
        let mut state = seed;
        for &kind in kinds {
            let mut at = Vec::new();
            for _ in 0..per_kind {
                at.push(splitmix64(&mut state) % horizon.max(1) + 1);
            }
            plan = plan.inject(kind, &at);
        }
        plan
    }

    /// Make [`FaultKind::PublishStall`] block on a gate instead of
    /// spinning: the returned [`StallGate`] releases the stalled writer.
    /// Used to hold a publish mid-flight deterministically while asserting
    /// that readers keep serving the previous epoch.
    ///
    /// # Panics
    /// As [`FaultPlan::inject`].
    #[must_use]
    pub fn with_publish_gate(mut self) -> (Self, StallGate) {
        let inner = Arc::new(GateInner {
            open: Mutex::new(false),
            cv: Condvar::new(),
        });
        self.inner_mut().publish_gate = Some(Arc::clone(&inner));
        (self, StallGate { inner })
    }

    /// Count one injection point for `kind` and report whether the fault
    /// fires there. Unarmed kinds return `false` without counting.
    pub fn fires(&self, kind: FaultKind) -> bool {
        let i = kind.index();
        if !self.inner.armed[i] {
            return false;
        }
        let arm = &self.inner.arms[i];
        let n = arm.seen.fetch_add(1, Ordering::Relaxed) + 1;
        if arm.at.contains(&n) {
            arm.fired.fetch_add(1, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    /// Injection points seen for `kind` (counted only while armed).
    pub fn seen(&self, kind: FaultKind) -> u64 {
        self.inner.arms[kind.index()].seen.load(Ordering::Relaxed)
    }

    /// Faults actually fired for `kind`.
    pub fn fired(&self, kind: FaultKind) -> u64 {
        self.inner.arms[kind.index()].fired.load(Ordering::Relaxed)
    }

    /// Publish-stall hook: when a stall fires, either block on the gate
    /// (until [`StallGate::release`]) or spin a bounded number of
    /// iterations. Called by [`crate::SnapshotCell::publish`] with the
    /// writer-side state lock held — exactly the adversarial scenario the
    /// lock-free read path must survive.
    pub(crate) fn stall_publish(&self) {
        if !self.fires(FaultKind::PublishStall) {
            return;
        }
        match &self.inner.publish_gate {
            Some(gate) => {
                let mut open = gate
                    .open
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                while !*open {
                    open = gate
                        .cv
                        .wait(open)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                }
            }
            None => {
                for _ in 0..SPIN_ITERS {
                    std::hint::spin_loop();
                }
            }
        }
    }
}

/// SplitMix64 — tiny, seed-robust (works from any seed, including 0).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_never_fires_and_never_counts() {
        let plan = FaultPlan::new();
        let kinds = [
            FaultKind::TrainerPanic,
            FaultKind::LockPoison,
            FaultKind::QueueOverflow,
            FaultKind::PublishStall,
        ];
        for kind in kinds {
            for _ in 0..10 {
                assert!(!plan.fires(kind));
            }
            assert_eq!(plan.seen(kind), 0, "unarmed kinds must not count");
            assert_eq!(plan.fired(kind), 0);
        }
    }

    #[test]
    fn injected_occurrences_fire_exactly_there() {
        let plan = FaultPlan::new().inject(FaultKind::TrainerPanic, &[2, 5]);
        let fired: Vec<bool> = (0..6)
            .map(|_| plan.fires(FaultKind::TrainerPanic))
            .collect();
        assert_eq!(fired, [false, true, false, false, true, false]);
        assert_eq!(plan.seen(FaultKind::TrainerPanic), 6);
        assert_eq!(plan.fired(FaultKind::TrainerPanic), 2);
        // Other kinds stay unarmed: they never fire and never count.
        assert!(!plan.fires(FaultKind::LockPoison));
        assert_eq!(plan.seen(FaultKind::LockPoison), 0);
    }

    #[test]
    fn seeded_schedules_are_reproducible_and_distinct() {
        let kinds = [FaultKind::TrainerPanic, FaultKind::QueueOverflow];
        let a = FaultPlan::seeded(&kinds, 7, 100, 5);
        let b = FaultPlan::seeded(&kinds, 7, 100, 5);
        let c = FaultPlan::seeded(&kinds, 8, 100, 5);
        let fire_vec =
            |p: &FaultPlan, k: FaultKind| -> Vec<bool> { (0..100).map(|_| p.fires(k)).collect() };
        for k in kinds {
            let (fa, fb, fc) = (fire_vec(&a, k), fire_vec(&b, k), fire_vec(&c, k));
            assert_eq!(fa, fb, "same seed must replay the same schedule");
            assert!(fa.iter().any(|&f| f), "schedule must fire within horizon");
            if fa != fc {
                return; // at least one kind differs across seeds — enough
            }
        }
        panic!("different seeds produced identical schedules for every kind");
    }

    #[test]
    fn clones_share_one_counter_stream() {
        let plan = FaultPlan::new().inject(FaultKind::QueueOverflow, &[2]);
        let other = plan.clone();
        assert!(!plan.fires(FaultKind::QueueOverflow));
        assert!(other.fires(FaultKind::QueueOverflow), "occurrence 2 fires");
        assert_eq!(plan.fired(FaultKind::QueueOverflow), 1);
    }

    #[test]
    fn gated_stall_blocks_until_released() {
        let (plan, gate) = FaultPlan::new()
            .inject(FaultKind::PublishStall, &[1])
            .with_publish_gate();
        let entered = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        std::thread::scope(|scope| {
            let writer = {
                let plan = plan.clone();
                let entered = std::sync::Arc::clone(&entered);
                scope.spawn(move || {
                    entered.store(true, Ordering::SeqCst);
                    plan.stall_publish(); // blocks until release
                })
            };
            while !entered.load(Ordering::SeqCst) {
                std::hint::spin_loop();
            }
            gate.release();
            writer.join().unwrap();
        });
        assert_eq!(plan.fired(FaultKind::PublishStall), 1);
        // After release, further stalls pass straight through.
        let plan2 = plan.clone();
        plan2.stall_publish(); // occurrence 2: not scheduled, no-op anyway
    }
}
