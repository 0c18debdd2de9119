//! The immutable serving half of the train/serve split:
//! [`ServingSnapshot`].
//!
//! [`LlmModel`] is a *mutable trainer*: Algorithm 1
//! updates its arena in place, so it cannot be shared between an online
//! training thread and concurrent readers. A [`ServingSnapshot`] is the
//! publishable counterpart: an immutable, cheaply-clonable (`Arc`-backed)
//! capture of the learned parameter set `α` — the packed
//! [`PrototypeArena`] plus the per-prototype update counts the
//! [`crate::confidence`] assessment needs — together with the
//! configuration that fixes the vigilance `ρ`.
//!
//! Two predictor families live here, and only two. The **oracle**
//! (`predict_q1_with_confidence`, `predict_q2_with_confidence`,
//! `overlap_set_into`) is the *same* arena-level driver the model runs
//! (`predict::fuse_oracle` — Algorithms 2–3 as printed) over the cloned
//! arena, so a snapshot taken at step `t` answers **bit-identically** to
//! the model frozen at step `t` by construction. The **served path**
//! (the four `*_pruned` methods) is one resolve-and-fold driver over the
//! snapshot — bound-and-verify resolution through its [`BlockLayout`],
//! which leaves `W(q)` in block order; one scatter/gather over an index
//! bitmap that puts the members in arena order (the only place anything
//! is ordered, and no comparison sort); one shared fusion fold; a Q1 or a
//! Q2 head — where scalar is a batch of one. A batch large enough to pay
//! for a thread runs that driver as contiguous runs of its queries, one
//! per core ([`regq_linalg::runs`]); an answer is a pure function of
//! (snapshot, query), so the split changes no bit. The bit-identity chain
//! is therefore the oracle ← the one resolver (`serving_equivalence`).
//! The oracle keeps no optimised pass — [`PrototypeArena::winner`] is its
//! definition, row by row — so that battery holds the served search to
//! the definition directly.
//!
//! A Q2 list element names its prototype by arena index, the model's
//! own numbering.
//!
//! Cost model: taking a snapshot clones the arena and builds the layout
//! (`O(dK + K log K)` — the publish cost, paid by the trainer at
//! publication cadence); cloning a `ServingSnapshot` bumps an `Arc` (the
//! reader cost, paid by threads that pin a version across queries).

// A hot-path module: every panic site names its invariant
// (docs/INVARIANTS.md, the panic policy).
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::arena::{BatchResolution, BlockLayout, PrototypeArena, ScreenCounters};
use crate::confidence::{self, Confidence};
use crate::config::ModelConfig;
use crate::error::CoreError;
use crate::model::LlmModel;
use crate::predict::{self, LocalModel};
use crate::prototype::Prototype;
use crate::query::Query;
use regq_linalg::runs;
use std::cell::RefCell;
use std::sync::Arc;

#[derive(Debug)]
struct Inner {
    config: ModelConfig,
    arena: PrototypeArena,
    /// The clustered, bounds-cached pruned serving layout over `arena` —
    /// built once at capture (`O(dK + K log K)`, amortized over every
    /// query served from this version) and immutable thereafter, like
    /// everything else in the capture.
    layout: BlockLayout,
    /// Training steps the source model had consumed at capture time — the
    /// snapshot's natural, monotonically increasing version.
    steps: u64,
    /// The source model's convergence-window count at capture time.
    quiet_steps: usize,
    frozen: bool,
}

/// An immutable, cheaply-clonable capture of a trained model's parameters
/// — the unit of publication from a trainer to concurrent serving threads
/// (see the module docs for the split and the cost model).
#[derive(Debug, Clone)]
pub struct ServingSnapshot {
    inner: Arc<Inner>,
}

impl ServingSnapshot {
    /// Capture the model's current parameters (clones the arena and
    /// builds the pruned serving layout; `O(dK + K log K)`).
    pub fn capture(model: &LlmModel) -> Self {
        let arena = model.arena().clone();
        let layout = arena.build_layout();
        ServingSnapshot {
            inner: Arc::new(Inner {
                config: model.config().clone(),
                arena,
                layout,
                steps: model.steps(),
                quiet_steps: model.quiet_steps(),
                frozen: model.is_frozen(),
            }),
        }
    }

    /// Rebuild a mutable [`LlmModel`] carrying this snapshot's parameters
    /// and convergence-window count (persistence and warm-started
    /// trainers; `O(dK)`).
    ///
    /// # Errors
    /// [`CoreError::InvalidConfig`] / [`CoreError::DimensionMismatch`] if
    /// the snapshot was built from inconsistent parts (impossible through
    /// [`ServingSnapshot::capture`]).
    pub fn to_model(&self) -> Result<LlmModel, CoreError> {
        LlmModel::from_parts(
            self.inner.config.clone(),
            self.prototypes(),
            self.inner.steps,
            self.inner.quiet_steps,
            self.inner.frozen,
        )
    }

    /// The model configuration at capture time.
    pub fn config(&self) -> &ModelConfig {
        &self.inner.config
    }

    /// The packed prototype storage (the learned parameters `α`).
    pub fn arena(&self) -> &PrototypeArena {
        &self.inner.arena
    }

    /// Owned prototype set (API-edge materialization; allocates).
    pub fn prototypes(&self) -> Vec<Prototype> {
        self.inner.arena.to_prototypes()
    }

    /// Number of prototypes `K`.
    pub fn k(&self) -> usize {
        self.inner.arena.len()
    }

    /// Input dimensionality `d`.
    pub fn dim(&self) -> usize {
        self.inner.config.dim
    }

    /// Training steps the source model had consumed at capture time. Two
    /// snapshots of one trainer with equal versions hold identical
    /// parameters, and versions grow monotonically with training — the
    /// natural publication epoch.
    pub fn version(&self) -> u64 {
        self.inner.steps
    }

    /// Whether the source model had converged (frozen) at capture time.
    pub fn is_frozen(&self) -> bool {
        self.inner.frozen
    }

    fn check_query(&self, q: &Query) -> Result<(), CoreError> {
        if q.dim() != self.dim() {
            return Err(CoreError::DimensionMismatch {
                expected: self.dim(),
                actual: q.dim(),
            });
        }
        if self.k() == 0 {
            return Err(CoreError::EmptyModel);
        }
        Ok(())
    }

    /// The overlap neighborhood `W(q)`, appended to `out` (cleared first).
    pub fn overlap_set_into(&self, q: &Query, out: &mut Vec<(usize, f64)>) {
        self.inner.arena.overlap_set_into(&q.center, q.radius, out);
    }

    /// Algorithm 2 (Q1) with its confidence, from the oracle —
    /// bit-identical to [`LlmModel::predict_q1_with_confidence`] on the
    /// captured parameters.
    ///
    /// # Errors
    /// [`CoreError::EmptyModel`] on an empty snapshot,
    /// [`CoreError::DimensionMismatch`] on a wrong-dimension query.
    pub fn predict_q1_with_confidence(&self, q: &Query) -> Result<(f64, Confidence), CoreError> {
        let (arena, rho) = (&self.inner.arena, self.inner.config.rho());
        let mut yhat = 0.0;
        let confidence = predict::fuse_oracle(arena, rho, q, |k, w| {
            yhat += w * arena.eval(k, &q.center, q.radius);
        })?;
        Ok((yhat, confidence))
    }

    /// Algorithm 3 (Q2) with its confidence, from the oracle — the list
    /// is bit-identical to [`LlmModel::predict_q2`], the confidence to
    /// [`LlmModel::confidence`].
    ///
    /// # Errors
    /// Same as [`ServingSnapshot::predict_q1_with_confidence`].
    pub fn predict_q2_with_confidence(
        &self,
        q: &Query,
    ) -> Result<(Vec<LocalModel>, Confidence), CoreError> {
        let (arena, rho) = (&self.inner.arena, self.inner.config.rho());
        let mut s = Vec::new();
        let confidence = predict::fuse_oracle(arena, rho, q, |k, w| {
            s.push(predict::local_model_at(arena, k, w));
        })?;
        Ok((s, confidence))
    }

    // ---- The served path: one resolver, two heads -------------------------
    //
    // Everything above is the unpruned **oracle**. A served answer
    // takes the one production path instead ([`resolve_and_fold`]); the
    // four methods below validate and call it — scalar is a batch of one.

    /// The capture-time pruned serving layout (blocked, bounds-cached
    /// view of [`ServingSnapshot::arena`]).
    pub fn layout(&self) -> &BlockLayout {
        &self.inner.layout
    }

    /// Served Q1 + confidence — bit-identical to
    /// [`ServingSnapshot::predict_q1_with_confidence`], with pruning
    /// telemetry accumulated into `counters`.
    ///
    /// # Errors
    /// Same as [`ServingSnapshot::predict_q1_with_confidence`].
    pub fn predict_q1_with_confidence_pruned(
        &self,
        q: &Query,
        counters: &mut ScreenCounters,
    ) -> Result<(f64, Confidence), CoreError> {
        self.check_query(q)?;
        let mut out = None;
        resolve_and_fold(
            self,
            std::slice::from_ref(q),
            counters,
            |q, winner, set| head_q1(self, q, winner, set),
            |_, answer| out = Some(answer),
        );
        out.ok_or(CoreError::EmptyModel)
    }

    /// Served Q2 + confidence — bit-identical to
    /// [`ServingSnapshot::predict_q2_with_confidence`], with pruning
    /// telemetry accumulated into `counters`.
    ///
    /// # Errors
    /// Same as [`ServingSnapshot::predict_q1_with_confidence`].
    pub fn predict_q2_with_confidence_pruned(
        &self,
        q: &Query,
        counters: &mut ScreenCounters,
    ) -> Result<(Vec<LocalModel>, Confidence), CoreError> {
        self.check_query(q)?;
        let mut out = None;
        resolve_and_fold(
            self,
            std::slice::from_ref(q),
            counters,
            |_, winner, set| head_q2(self, winner, set),
            |_, answer| out = Some(answer),
        );
        out.ok_or(CoreError::EmptyModel)
    }

    /// Served batched Q1 + confidence: `out[i]` is bit-identical to
    /// [`ServingSnapshot::predict_q1_with_confidence`] on `queries[i]`,
    /// and `counters` gains what the scalar calls would add. A batch of at
    /// least two runs' worth of query × prototype pairs (`1 << 16` a run)
    /// runs as contiguous runs of its queries on every core the process
    /// may use, the calling thread taking the first.
    ///
    /// # Errors
    /// [`CoreError::DimensionMismatch`] on the first wrong-dimension
    /// query, [`CoreError::EmptyModel`] on an empty snapshot (a
    /// zero-length batch returns `Ok(vec![])` without either check).
    pub fn predict_q1_with_confidence_batch_pruned(
        &self,
        queries: &[Query],
        counters: &mut ScreenCounters,
    ) -> Result<Vec<(f64, Confidence)>, CoreError> {
        queries.iter().try_for_each(|q| self.check_query(q))?;
        let runs = batch_runs(self.k(), queries.len(), runs::cores);
        resolve_and_fold_in_runs(self, queries, counters, runs, |q, winner, set| {
            head_q1(self, q, winner, set)
        })
        .into_iter()
        .map(|answer| answer.ok_or(CoreError::EmptyModel))
        .collect()
    }

    /// Served batched Q2 + confidence: `out[i]` is bit-identical to
    /// [`ServingSnapshot::predict_q2_with_confidence`] on `queries[i]`;
    /// split into runs as
    /// [`ServingSnapshot::predict_q1_with_confidence_batch_pruned`] is.
    ///
    /// # Errors
    /// Same as [`ServingSnapshot::predict_q1_with_confidence_batch_pruned`].
    pub fn predict_q2_with_confidence_batch_pruned(
        &self,
        queries: &[Query],
        counters: &mut ScreenCounters,
    ) -> Result<Vec<(Vec<LocalModel>, Confidence)>, CoreError> {
        queries.iter().try_for_each(|q| self.check_query(q))?;
        let runs = batch_runs(self.k(), queries.len(), runs::cores);
        resolve_and_fold_in_runs(self, queries, counters, runs, |_, winner, set| {
            head_q2(self, winner, set)
        })
        .into_iter()
        .map(|answer| answer.ok_or(CoreError::EmptyModel))
        .collect()
    }
}

impl LlmModel {
    /// Capture an immutable [`ServingSnapshot`] of the current parameters
    /// (the trainer side of the publication handshake; `O(dK)`).
    pub fn snapshot(&self) -> ServingSnapshot {
        ServingSnapshot::capture(self)
    }
}

/// An overlap member `(slot, δ)` or the winner `(slot, squared joint
/// distance)`.
type Scored = (usize, f64);

/// Everything [`resolve_and_fold`] keeps between calls on one thread, so
/// the served path is allocation-free per call in steady state (like the
/// oracle's overlap scratch). Only the capacity of `resolution` and
/// `ordered` carries over; `bits` and `index_of` carry *state*, under one
/// rule each:
///
/// * `bits` is **all zero between calls** — the gather clears every word
///   it reads;
/// * an `index_of` entry means something only while its bit is set — it
///   is written before it is read, so stale entries from earlier calls
///   (other layouts) are never observed and the table is never cleared.
///
/// Both are sized per call from the snapshot at hand, each on its own
/// (`bits` by words, `index_of` by slots), and grow-only.
#[derive(Default)]
struct ResolveScratch {
    /// The batch's resolution through the snapshot's layout.
    resolution: BatchResolution,
    /// One query's members in ascending slot, when the resolution did not
    /// emit them so.
    ordered: Vec<Scored>,
    /// Membership bitmap over slots, one word per [`ID_WORD`] slots.
    bits: Vec<u64>,
    /// Slot → index into the query's members.
    index_of: Vec<u32>,
}

/// The fewest query × prototype pairs a run of a split batch resolves and
/// folds: a batch splits into at most one run per core, each of at least
/// this many pairs, and a batch of fewer than twice this stays whole on
/// the calling thread.
///
/// Measured on a 2-vCPU host (release; the ledger's fixtures, served Q1,
/// median of 201 passes): a scoped spawn and join costs ≈ 30–35 µs, and
/// one run resolves and folds a pair in ≈ 6 ns at K = 39 (d = 2) and
/// ≈ 3.3 ns at K = 3,579 (d = 4). Two runs break even with one at
/// ≈ 40–60 k pairs in all — between 512 and 1,024 statements at K = 39,
/// between 8 and 16 at K = 3,579 — and take ≈ 0.7× of one run at twice
/// this constant, the smallest batch that splits. So at K = 3,579 a
/// 64-statement script (229 k pairs) splits in two, 3-query probes at
/// K = 1,500 never do, and at K ≈ 40 a batch splits only past ≈ 3,300
/// statements.
const MIN_RUN_PAIRS: usize = 1 << 16;

/// Slots per bitmap word — one word per `ROW_TILE` prototypes, so the
/// gather's word walk is the same order as the block-bound stage
/// (`regq_linalg::tune` asserts `ROW_TILE ≤ u64::BITS` at compile time:
/// a block's membership mask is one such word too).
const ID_WORD: usize = u64::BITS as usize;

thread_local! {
    /// This thread's [`ResolveScratch`] — borrowed for the length of one
    /// [`resolve_and_fold`] call, which never re-enters itself.
    static RESOLVE_SCRATCH: RefCell<ResolveScratch> = RefCell::default();
}

/// Put one query's `members` (block order) in ascending slot, into
/// `ordered`, without comparing any two of them: **scatter** every
/// member into the slot bitmap and note where it sits in `members`, then
/// **gather** by walking the touched words upwards and each word from its
/// lowest set bit. A resolution emits each slot at most once, so
/// ascending slot is a total order and this is exactly what a sort by
/// slot produces — each member written once and read once.
///
/// `members` holds at least the two members that were out of order.
/// `bits` and `index_of` are the scratch tables cut to the snapshot's
/// `K`; `bits` must be all zero on entry and is all zero on exit.
fn order_by_slot(
    members: &[Scored],
    ordered: &mut Vec<Scored>,
    bits: &mut [u64],
    index_of: &mut [u32],
) {
    // Words set so far: `lo..=hi` once a member is in.
    let (mut lo, mut hi) = (usize::MAX, 0usize);
    for (at, &(slot, _)) in members.iter().enumerate() {
        let word = slot / ID_WORD;
        (lo, hi) = (lo.min(word), hi.max(word));
        bits[word] |= 1u64 << (slot % ID_WORD);
        // `as`: `resolve_and_fold` checked that every slot fits.
        index_of[slot] = at as u32;
    }
    ordered.clear();
    for (word, set) in (lo..).zip(&mut bits[lo..=hi]) {
        let mut left = std::mem::take(set);
        while left != 0 {
            let slot = word * ID_WORD + left.trailing_zeros() as usize;
            ordered.push(members[index_of[slot] as usize]);
            left &= left - 1;
        }
    }
    assert_eq!(
        ordered.len(),
        members.len(),
        "the gather must emit every member exactly once"
    );
}

/// The **one** resolve-and-fold driver behind every served answer
/// (PAPER.md Algorithms 2–3: find the winner, find `W(q)`, fuse).
///
/// *Resolve:* the snapshot resolves the whole batch once through its
/// capture-time [`BlockLayout`] (the only production call of
/// [`BlockLayout::resolve_batch_pruned`]; telemetry lands in `counters`),
/// leaving each query's winner — strict `<` on the squared distance,
/// lowest slot on ties, the scan's first-wins rule — and its members in
/// block order. *Order, per query — here and nowhere else:* the members
/// are put in **arena order** by one scatter/gather over a slot bitmap
/// ([`order_by_slot`]; no comparison sort). Members that arrive ascending
/// already — everything one verified block emitted, the common case at
/// small `K` — are folded as resolved. *Fold:* `head` projects the
/// ordered set through the shared fusion fold
/// ([`predict::fuse_weights_from_set`]). Per-prototype `δ`, the summation
/// order and the degeneracy rule all equal the oracle's, so every
/// accumulation replays its exact floating-point operation sequence.
///
/// `emit(i, answer)` receives one answer per query, in order. Queries
/// must be checked by the caller (the right dimension, a non-empty
/// snapshot — the snapshot's methods do this up front).
///
/// # Panics
/// If the snapshot's slots do not fit in 32 bits.
fn resolve_and_fold<T>(
    snapshot: &ServingSnapshot,
    queries: &[Query],
    counters: &mut ScreenCounters,
    mut head: impl FnMut(&Query, Scored, &[Scored]) -> T,
    mut emit: impl FnMut(usize, T),
) {
    if queries.is_empty() {
        return;
    }
    let k = snapshot.k();
    // A query holds at most one member per slot, so this also bounds
    // every index `order_by_slot` stores as `u32`.
    assert!(
        u32::try_from(k).is_ok(),
        "a served snapshot's slots must fit in 32 bits, got {k}"
    );
    RESOLVE_SCRATCH.with(|scratch| {
        let mut scratch = scratch.borrow_mut();
        let ResolveScratch {
            resolution,
            ordered,
            bits,
            index_of,
        } = &mut *scratch;
        snapshot
            .layout()
            .resolve_batch_pruned(queries, resolution, counters);
        let words = k.div_ceil(ID_WORD);
        if bits.len() < words {
            bits.resize(words, 0);
        }
        if index_of.len() < k {
            index_of.resize(k, 0);
        }
        for (i, q) in queries.iter().enumerate() {
            let members = resolution.overlap(i);
            let set: &[Scored] = if members.windows(2).all(|pair| pair[0].0 < pair[1].0) {
                members
            } else {
                order_by_slot(members, ordered, &mut bits[..words], &mut index_of[..k]);
                ordered
            };
            emit(i, head(q, resolution.winner(i), set));
        }
    })
}

/// How many runs a batch of `queries` against `k` prototypes splits into:
/// at most [`runs::cores`], each of at least [`MIN_RUN_PAIRS`] query ×
/// prototype pairs — `workers` is asked only for a batch that large.
fn batch_runs(k: usize, queries: usize, workers: impl FnOnce() -> usize) -> usize {
    runs::run_count(queries, k, MIN_RUN_PAIRS, workers)
}

/// The batch entry of [`resolve_and_fold`]: `queries` as `runs`
/// contiguous runs in input order ([`runs::in_runs`]), the calling
/// thread resolving and folding the first, scoped threads the others,
/// each run with its own thread's scratch and its own [`ScreenCounters`],
/// summed into `counters`. Workers borrow only the snapshot, so whatever
/// pins it (the serve fabric's read guard) outlives the join. One answer
/// per query, in input order — bit for bit the one-run answers, since
/// each is a pure function of (snapshot, query).
///
/// # Panics
/// As [`resolve_and_fold`]; a panic in a worker's run is re-raised with
/// its own payload.
fn resolve_and_fold_in_runs<T: Send>(
    snapshot: &ServingSnapshot,
    queries: &[Query],
    counters: &mut ScreenCounters,
    runs: usize,
    head: impl Fn(&Query, Scored, &[Scored]) -> T + Sync,
) -> Vec<Option<T>> {
    let mut out: Vec<Option<T>> = std::iter::repeat_with(|| None)
        .take(queries.len())
        .collect();
    runs::in_runs(
        &mut out,
        runs,
        |start, answers| {
            let mut screened = ScreenCounters::default();
            let run = &queries[start..start + answers.len()];
            resolve_and_fold(snapshot, run, &mut screened, &head, |i, answer| {
                answers[i] = Some(answer);
            });
            screened
        },
        |screened| *counters += screened,
    );
    out
}

/// The Q1 + confidence head over one query's ordered resolution: fuse the
/// overlap set (or fall back to the winner) into the prediction and the
/// support the confidence needs.
fn head_q1(
    snapshot: &ServingSnapshot,
    q: &Query,
    (winner, winner_sq): Scored,
    set: &[Scored],
) -> (f64, Confidence) {
    let arena = snapshot.arena();
    let mut yhat = 0.0;
    let mut support_updates = 0.0;
    let info = predict::fuse_weights_from_set(set, winner, |k, w| {
        yhat += w * arena.eval(k, &q.center, q.radius);
        support_updates += w * arena.updates(k) as f64;
    });
    let rho = snapshot.config().rho();
    (
        yhat,
        confidence::combine(winner_sq, rho, support_updates, info),
    )
}

/// The Q2 + confidence head — see [`head_q1`]. List elements carry the
/// slots' arena indices. The list is sized once — one element per
/// member, or the winner alone — and its elements hold their
/// coefficients inline ([`crate::coeffs::Coeffs`]), so this is the one
/// allocation of a served `LINREG` answer.
fn head_q2(
    snapshot: &ServingSnapshot,
    (winner, winner_sq): Scored,
    set: &[Scored],
) -> (Vec<LocalModel>, Confidence) {
    let arena = snapshot.arena();
    let mut s = Vec::with_capacity(set.len().max(1));
    let mut support_updates = 0.0;
    let info = predict::fuse_weights_from_set(set, winner, |k, w| {
        s.push(predict::local_model_at(arena, k, w));
        support_updates += w * arena.updates(k) as f64;
    });
    let rho = snapshot.config().rho();
    (
        s,
        confidence::combine(winner_sq, rho, support_updates, info),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn q(center: &[f64], r: f64) -> Query {
        Query::new_unchecked(center.to_vec(), r)
    }

    fn trained(seed: u64, steps: usize) -> LlmModel {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cfg = ModelConfig::with_vigilance(2, 0.15);
        cfg.gamma = 1e-6; // keep it plastic across the probe points
        let mut m = LlmModel::new(cfg).unwrap();
        for _ in 0..steps {
            let c: Vec<f64> = (0..2).map(|_| rng.random_range(0.0..1.0)).collect();
            let y = c[0] - 2.0 * c[1];
            m.train_step(&Query::new_unchecked(c, rng.random_range(0.05..0.2)), y)
                .unwrap();
        }
        m
    }

    fn probe_grid() -> Vec<Query> {
        let mut probes = Vec::new();
        for i in 0..5 {
            for j in 0..5 {
                for theta in [0.05, 0.2, 0.6] {
                    probes.push(q(&[i as f64 * 0.5 - 0.5, j as f64 * 0.5 - 0.5], theta));
                }
            }
        }
        probes
    }

    #[test]
    fn snapshot_matches_model_bit_for_bit() {
        let m = trained(1, 4_000);
        let s = m.snapshot();
        assert_eq!(s.k(), m.k());
        assert_eq!(s.dim(), m.dim());
        assert_eq!(s.version(), m.steps());
        assert_eq!(s.is_frozen(), m.is_frozen());
        assert_eq!(s.prototypes(), m.prototypes());
        let (mut ws, mut wm) = (Vec::new(), Vec::new());
        for probe in probe_grid() {
            assert_eq!(
                s.predict_q1_with_confidence(&probe),
                m.predict_q1_with_confidence(&probe)
            );
            let (list, conf) = s.predict_q2_with_confidence(&probe).unwrap();
            assert_eq!(list, m.predict_q2(&probe).unwrap());
            assert_eq!(conf, m.confidence(&probe).unwrap());
            s.overlap_set_into(&probe, &mut ws);
            m.overlap_set_into(&probe, &mut wm);
            assert_eq!(ws, wm);
        }
    }

    #[test]
    fn snapshot_is_isolated_from_further_training() {
        let mut m = trained(2, 1_000);
        let s = m.snapshot();
        let before: Vec<f64> = probe_grid()
            .iter()
            .map(|p| s.predict_q1_with_confidence(p).unwrap().0)
            .collect();
        // Keep training the source model well past the capture point.
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..2_000 {
            let c: Vec<f64> = (0..2).map(|_| rng.random_range(0.0..1.0)).collect();
            let y = c[0] - 2.0 * c[1];
            m.train_step(&Query::new_unchecked(c, 0.1), y).unwrap();
        }
        let after: Vec<f64> = probe_grid()
            .iter()
            .map(|p| s.predict_q1_with_confidence(p).unwrap().0)
            .collect();
        assert_eq!(before, after, "snapshot must be immutable");
        assert!(m.steps() > s.version());
    }

    #[test]
    fn to_model_round_trips_parameters() {
        let m = trained(5, 2_000);
        let s = m.snapshot();
        let back = s.to_model().unwrap();
        assert_eq!(back.prototypes(), m.prototypes());
        assert_eq!(back.steps(), m.steps());
        assert_eq!(back.is_frozen(), m.is_frozen());
        for probe in probe_grid() {
            assert_eq!(back.predict_q1(&probe), m.predict_q1(&probe));
        }
    }

    /// `K = 0` through every head — the model's predictors, the
    /// snapshot's oracle and served methods — ends typed, never in a
    /// panic.
    #[test]
    fn k_zero_is_typed_through_every_head() {
        let m = LlmModel::new(ModelConfig::paper_defaults(2)).unwrap();
        let s = m.snapshot();
        let probe = q(&[0.5, 0.5], 0.1);
        let empty = CoreError::EmptyModel;
        assert_eq!(m.winner(&probe), None);
        assert_eq!(m.predict_q1(&probe), Err(empty.clone()));
        assert_eq!(m.predict_q2(&probe), Err(empty.clone()));
        assert_eq!(m.predict_value(&probe, &[0.5, 0.5]), Err(empty.clone()));
        assert_eq!(m.predict_value_at(&[0.5, 0.5], 0.1), Err(empty.clone()));
        assert_eq!(m.confidence(&probe), Err(empty.clone()));
        assert_eq!(m.predict_q1_with_confidence(&probe), Err(empty.clone()));
        let mut w = vec![(1usize, 1.0)];
        m.overlap_set_into(&probe, &mut w);
        assert!(w.is_empty());

        assert_eq!(s.predict_q1_with_confidence(&probe), Err(empty.clone()));
        assert_eq!(s.predict_q2_with_confidence(&probe), Err(empty.clone()));
        w.push((1, 1.0));
        s.overlap_set_into(&probe, &mut w);
        assert!(w.is_empty());

        let mut c = ScreenCounters::default();
        let one = std::slice::from_ref(&probe);
        assert_eq!(
            s.predict_q1_with_confidence_pruned(&probe, &mut c),
            Err(empty.clone())
        );
        assert_eq!(
            s.predict_q2_with_confidence_pruned(&probe, &mut c),
            Err(empty.clone())
        );
        assert_eq!(
            s.predict_q1_with_confidence_batch_pruned(one, &mut c),
            Err(empty.clone())
        );
        assert_eq!(
            s.predict_q2_with_confidence_batch_pruned(one, &mut c),
            Err(empty)
        );
        assert_eq!(c, ScreenCounters::default(), "nothing to resolve");

        // A wrong dimension is typed too, on the oracle like on the model.
        let t = trained(6, 200).snapshot();
        assert!(matches!(
            t.predict_q1_with_confidence(&q(&[0.5], 0.1)),
            Err(CoreError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            t.predict_q2_with_confidence(&q(&[0.5], 0.1)),
            Err(CoreError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn served_predictors_are_bit_identical_to_the_oracle_and_counted() {
        let m = trained(41, 4_000);
        let s = m.snapshot();
        let probes = probe_grid();
        let mut counters = ScreenCounters::default();
        let q1 = s
            .predict_q1_with_confidence_batch_pruned(&probes, &mut counters)
            .unwrap();
        let q2 = s
            .predict_q2_with_confidence_batch_pruned(&probes, &mut counters)
            .unwrap();
        for (i, probe) in probes.iter().enumerate() {
            assert_eq!(q1[i], s.predict_q1_with_confidence(probe).unwrap());
            assert_eq!(q2[i], s.predict_q2_with_confidence(probe).unwrap());
            let mut c = ScreenCounters::default();
            assert_eq!(
                s.predict_q1_with_confidence_pruned(probe, &mut c).unwrap(),
                q1[i]
            );
            assert!(c.blocks > 0, "scalar served call must be counted");
            assert_eq!(
                s.predict_q2_with_confidence_pruned(probe, &mut c).unwrap(),
                q2[i]
            );
        }
        // Two batch passes over every probe, all visits accounted for.
        assert_eq!(
            counters.blocks,
            2 * (probes.len() * s.layout().num_blocks()) as u64
        );
        assert_eq!(counters.skipped + counters.verified, counters.blocks);
    }

    #[test]
    fn served_predictor_edges_are_typed_not_panics() {
        let s = trained(32, 2_000).snapshot();
        let mut c = ScreenCounters::default();
        // Empty batch: empty result, no model checks, nothing counted.
        assert!(s
            .predict_q1_with_confidence_batch_pruned(&[], &mut c)
            .unwrap()
            .is_empty());
        let empty = LlmModel::new(ModelConfig::with_vigilance(2, 0.15))
            .unwrap()
            .snapshot();
        assert!(empty
            .predict_q2_with_confidence_batch_pruned(&[], &mut c)
            .unwrap()
            .is_empty());
        let ok = q(&[0.5, 0.5], 0.1);
        assert_eq!(
            empty.predict_q1_with_confidence_batch_pruned(std::slice::from_ref(&ok), &mut c),
            Err(CoreError::EmptyModel)
        );
        assert_eq!(
            empty.predict_q2_with_confidence_pruned(&ok, &mut c),
            Err(CoreError::EmptyModel)
        );
        // Wrong-dimension query, alone or anywhere in a batch: typed error.
        let mismatch = CoreError::DimensionMismatch {
            expected: 2,
            actual: 3,
        };
        let bad = q(&[0.5, 0.5, 0.5], 0.1);
        assert_eq!(
            s.predict_q1_with_confidence_pruned(&bad, &mut c),
            Err(mismatch.clone())
        );
        let batch = [ok, bad];
        assert_eq!(
            s.predict_q1_with_confidence_batch_pruned(&batch, &mut c),
            Err(mismatch.clone())
        );
        assert_eq!(
            s.predict_q2_with_confidence_batch_pruned(&batch, &mut c),
            Err(mismatch)
        );
        assert_eq!(c, ScreenCounters::default(), "rejected before resolving");
    }

    // --- Ordered emission (prefix `screening_`: the nightly Miri job
    // --- filters `-p regq_core screening_`, which puts the word walk and
    // --- the table indexing of `order_by_slot` under the interpreter).

    /// `k` seeded prototypes scattered over the unit square, small enough
    /// that a mid-sized probe ball collects members from many blocks.
    fn scattered(k: usize, seed: u64) -> LlmModel {
        let mut rng = StdRng::seed_from_u64(seed);
        let protos = (0..k)
            .map(|i| Prototype {
                center: vec![rng.random_range(0.0..1.0), rng.random_range(0.0..1.0)],
                radius: rng.random_range(0.01..0.03),
                y: rng.random_range(-1.0..1.0),
                b_x: vec![rng.random_range(-1.0..1.0), rng.random_range(-1.0..1.0)],
                b_theta: rng.random_range(-1.0..1.0),
                updates: 1 + i as u64 % 7,
            })
            .collect();
        LlmModel::from_parts(
            ModelConfig::with_vigilance(2, 0.15),
            protos,
            k as u64,
            0,
            true,
        )
        .unwrap()
    }

    /// Members from many blocks, from one block, from none (the winner
    /// fallback), from every block — and hostile balls.
    fn ordering_probes() -> Vec<Query> {
        vec![
            q(&[0.5, 0.5], 0.12),
            q(&[0.31, 0.64], 0.004),
            q(&[5.0, 5.0], 0.01),
            q(&[0.5, 0.5], 3.0),
            q(&[0.2, 0.9], 0.0),
            q(&[0.2, 0.9], -0.1),
            q(&[f64::NAN, 0.5], 0.2),
            q(&[0.5, f64::INFINITY], 0.2),
            q(&[0.5, 0.5], f64::INFINITY),
            q(&[0.5, 0.5], f64::NAN),
        ]
    }

    fn confidence_bits(c: &Confidence) -> ([u64; 4], bool) {
        let axes = [
            c.overlap_mass,
            c.support_updates,
            c.winner_distance_ratio,
            c.score,
        ];
        (axes.map(f64::to_bits), c.fused)
    }

    type Q1Bits = (u64, ([u64; 4], bool));
    type Q2Bits = (Vec<(usize, Vec<u64>)>, ([u64; 4], bool));

    fn q1_bits((y, c): &(f64, Confidence)) -> Q1Bits {
        (y.to_bits(), confidence_bits(c))
    }

    /// A Q2 answer as bits, labels included.
    fn q2_bits((list, c): &(Vec<LocalModel>, Confidence)) -> Q2Bits {
        let list = list
            .iter()
            .map(|lm| {
                let scalars = [lm.intercept, lm.weight, lm.radius];
                let all = scalars.iter().chain(&lm.slope).chain(&lm.center);
                (lm.prototype, all.map(|v| v.to_bits()).collect())
            })
            .collect();
        (list, confidence_bits(c))
    }

    fn assert_slot_bitmap_is_clean() {
        RESOLVE_SCRATCH.with(|scratch| {
            assert!(
                scratch.borrow().bits.iter().all(|&word| word == 0),
                "every slot-bitmap word must be zero between calls"
            );
        });
    }

    /// Serve the ordering probes from `snapshot` through all four served
    /// methods and require every answer `to_bits`-equal to its scalar
    /// oracle, and the slot bitmap all zero after every call.
    fn assert_served_like_the_oracle(snapshot: &ServingSnapshot) {
        let probes = ordering_probes();
        let want: Vec<(Q1Bits, Q2Bits)> = probes
            .iter()
            .map(|probe| {
                (
                    q1_bits(&snapshot.predict_q1_with_confidence(probe).unwrap()),
                    q2_bits(&snapshot.predict_q2_with_confidence(probe).unwrap()),
                )
            })
            .collect();
        let mut counters = ScreenCounters::default();
        let q1 = snapshot
            .predict_q1_with_confidence_batch_pruned(&probes, &mut counters)
            .unwrap();
        assert_slot_bitmap_is_clean();
        let q2 = snapshot
            .predict_q2_with_confidence_batch_pruned(&probes, &mut counters)
            .unwrap();
        assert_slot_bitmap_is_clean();
        for (i, probe) in probes.iter().enumerate() {
            assert!(q1_bits(&q1[i]) == want[i].0, "batch q1 {i}");
            assert!(q2_bits(&q2[i]) == want[i].1, "batch q2 {i}");
            let y = snapshot
                .predict_q1_with_confidence_pruned(probe, &mut counters)
                .unwrap();
            assert_slot_bitmap_is_clean();
            let s = snapshot
                .predict_q2_with_confidence_pruned(probe, &mut counters)
                .unwrap();
            assert_slot_bitmap_is_clean();
            assert!(q1_bits(&y) == want[i].0, "scalar q1 {i}");
            assert!(q2_bits(&s) == want[i].1, "scalar q2 {i}");
        }
        assert_eq!(counters.skipped + counters.verified, counters.blocks);
    }

    /// The scratch-hygiene battery: everything below runs on ONE thread,
    /// hence through one `RESOLVE_SCRATCH`, whose bitmap and slot table
    /// were sized by whatever was served before.
    #[test]
    fn screening_order_scratch_survives_layout_changes() {
        // Large, tiny, large again; then larger by less than a word, so
        // the table must grow where the bitmap need not.
        for k in [4_000usize, 5, 4_000, 4_030] {
            assert_served_like_the_oracle(&scattered(k, k as u64).snapshot());
        }
        // Slots on both sides of every word edge, K a multiple of the
        // word: the fourth probe's ball holds all 128 — first and last
        // bit included.
        let edges = scattered(2 * ID_WORD, 13).snapshot();
        let mut all = Vec::new();
        edges.overlap_set_into(&ordering_probes()[3], &mut all);
        assert_eq!(all.len(), 2 * ID_WORD);
        assert_served_like_the_oracle(&edges);
    }

    // --- The batch split (no `screening_` prefix: thousands of
    // --- prototypes under several thread counts are beyond Miri's pace).

    /// The served batch split: every run count — one per worker, more
    /// workers than queries included — answers every query with the bits
    /// of one run and sums to one run's counters, on batches just below
    /// and just above the split threshold, for Q1 and Q2, with hostile
    /// balls and empty `W(q)` among the queries.
    #[test]
    fn batch_split_every_run_count_answers_as_one_run() {
        let k = 4_096;
        let whole = scattered(k, 23).snapshot();
        // Two runs' worth of pairs, the fewest a batch splits at.
        let split_at = 2 * MIN_RUN_PAIRS / k;
        let mut rng = StdRng::seed_from_u64(29);
        let batch: Vec<Query> = ordering_probes()
            .into_iter()
            .chain(std::iter::repeat_with(|| {
                q(
                    &[rng.random_range(-0.2..1.2), rng.random_range(-0.2..1.2)],
                    rng.random_range(0.0..0.3),
                )
            }))
            .take(split_at)
            .collect();
        for n in [split_at - 1, split_at] {
            let queries = &batch[..n];
            let unread = || -> usize { panic!("a batch below the threshold read the core count") };
            if n < split_at {
                assert_eq!(batch_runs(k, n, unread), 1, "n {n}");
            } else {
                assert_eq!(batch_runs(k, n, || 7), 2, "n {n}");
            }
            // Both heads' answers as bits, and the counters of both.
            let serve = |runs: usize| {
                let mut counters = ScreenCounters::default();
                let q1: Vec<Q1Bits> =
                    resolve_and_fold_in_runs(&whole, queries, &mut counters, runs, |q, w, set| {
                        head_q1(&whole, q, w, set)
                    })
                    .iter()
                    .map(|a| q1_bits(a.as_ref().unwrap()))
                    .collect();
                let q2: Vec<Q2Bits> =
                    resolve_and_fold_in_runs(&whole, queries, &mut counters, runs, |_, w, set| {
                        head_q2(&whole, w, set)
                    })
                    .iter()
                    .map(|a| q2_bits(a.as_ref().unwrap()))
                    .collect();
                (q1, q2, counters)
            };
            let one_run = serve(1);
            for workers in [1, 2, 3, 7, n + 1] {
                for runs in [batch_runs(k, n, || workers), workers] {
                    assert!(serve(runs) == one_run, "n {n}, {runs} runs");
                }
            }
            assert_slot_bitmap_is_clean();
        }
    }

    /// A panic in a worker's run reaches the caller with its own message,
    /// not the scope's generic one: the batch's first query (an empty
    /// `W(q)`) runs on the calling thread, the second — whose head
    /// panics — in a worker.
    #[test]
    #[should_panic(expected = "the head refused a ball of radius 3")]
    fn batch_split_a_workers_panic_keeps_its_message() {
        let snapshot = scattered(4, 17).snapshot();
        let batch = [q(&[5.0, 5.0], 0.01), q(&[0.5, 0.5], 3.0)];
        let mut c = ScreenCounters::default();
        resolve_and_fold_in_runs(&snapshot, &batch, &mut c, 2, |q, w, set| {
            assert!(
                q.radius < 1.0,
                "the head refused a ball of radius {}",
                q.radius
            );
            head_q1(&snapshot, q, w, set)
        });
    }
}
