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
//! Two predictor families live here, and only two. The **scalar
//! oracle** (`predict_q1/q2/value`, `confidence`,
//! `predict_q{1,2}_with_confidence`, `winner`, `overlap_set_into`)
//! delegates to the *same* arena-level drivers as the model
//! ([`crate::predict`] / [`crate::confidence`]), so a snapshot taken at
//! step `t` answers every query **bit-identically** to the model frozen
//! at step `t`. The **served path** (`*_pruned` on the snapshot, the four
//! `sharded_*_pruned` functions) is one resolve-and-fold driver over
//! [`ShardPart`]s — bound-and-verify resolution through each part's
//! [`BlockLayout`], a merge into global arena order, one shared fusion
//! fold, a Q1 or a Q2 head — where scalar is a batch of one and an
//! unsharded snapshot is one part. The bit-identity chain is therefore
//! short: per-prototype `reference` ← scalar oracle (`arena_equivalence`)
//! ← the one resolver (`serving_equivalence`).
//!
//! Cost model: taking a snapshot clones the arena (`O(dK)` — the publish
//! cost, paid by the trainer at publication cadence); cloning a
//! `ServingSnapshot` bumps an `Arc` (the reader cost, paid by threads that
//! pin a version across queries).

use crate::arena::{BatchResolution, BlockLayout, PrototypeArena, ScreenCounters};
use crate::confidence::{self, Confidence};
use crate::config::ModelConfig;
use crate::error::CoreError;
use crate::model::LlmModel;
use crate::predict::{self, LocalModel};
use crate::prototype::Prototype;
use crate::query::Query;
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
                frozen: model.is_frozen(),
            }),
        }
    }

    /// Rebuild a mutable [`LlmModel`] carrying this snapshot's parameters
    /// (persistence and warm-started trainers; `O(dK)`).
    ///
    /// # Errors
    /// [`CoreError::InvalidConfig`] / [`CoreError::DimensionMismatch`] if
    /// the snapshot was built from inconsistent parts (impossible through
    /// [`ServingSnapshot::capture`]).
    pub fn to_model(&self) -> Result<LlmModel, CoreError> {
        LlmModel::from_parts_public(
            self.inner.config.clone(),
            self.prototypes(),
            self.inner.steps,
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

    /// `true` when two snapshots share the same underlying capture (an
    /// `Arc` identity check — cheap, no parameter comparison).
    pub fn same_capture(&self, other: &ServingSnapshot) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
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

    /// Winner search (index + squared joint distance); `None` when empty.
    pub fn winner(&self, q: &Query) -> Option<(usize, f64)> {
        self.inner.arena.winner(&q.center, q.radius)
    }

    /// The overlap neighborhood `W(q)`, appended to `out` (cleared first).
    pub fn overlap_set_into(&self, q: &Query, out: &mut Vec<(usize, f64)>) {
        self.inner.arena.overlap_set_into(&q.center, q.radius, out);
    }

    /// Algorithm 2 (Q1) — bit-identical to
    /// [`LlmModel::predict_q1`] on the captured parameters.
    ///
    /// # Errors
    /// [`CoreError::EmptyModel`] on an empty snapshot,
    /// [`CoreError::DimensionMismatch`] on a wrong-dimension query.
    pub fn predict_q1(&self, q: &Query) -> Result<f64, CoreError> {
        self.check_query(q)?;
        Ok(predict::q1_over_arena(&self.inner.arena, q))
    }

    /// Algorithm 3 (Q2) — bit-identical to [`LlmModel::predict_q2`].
    ///
    /// # Errors
    /// Same as [`ServingSnapshot::predict_q1`].
    pub fn predict_q2(&self, q: &Query) -> Result<Vec<LocalModel>, CoreError> {
        self.check_query(q)?;
        Ok(predict::q2_over_arena(&self.inner.arena, q))
    }

    /// Eq. 14 (data value) — bit-identical to
    /// [`LlmModel::predict_value`].
    ///
    /// # Errors
    /// Same as [`ServingSnapshot::predict_q1`], plus a dimension check on
    /// `x`.
    pub fn predict_value(&self, q: &Query, x: &[f64]) -> Result<f64, CoreError> {
        self.check_query(q)?;
        if x.len() != self.dim() {
            return Err(CoreError::DimensionMismatch {
                expected: self.dim(),
                actual: x.len(),
            });
        }
        Ok(predict::value_over_arena(&self.inner.arena, q, x))
    }

    /// Confidence assessment — bit-identical to [`LlmModel::confidence`].
    ///
    /// # Errors
    /// Same as [`ServingSnapshot::predict_q1`].
    pub fn confidence(&self, q: &Query) -> Result<Confidence, CoreError> {
        self.check_query(q)?;
        confidence::confidence_over_arena(&self.inner.arena, self.inner.config.rho(), q)
            .ok_or(CoreError::EmptyModel)
    }

    /// Q1 prediction and confidence from one overlap resolution (the
    /// routing fast path) — bit-identical to
    /// [`LlmModel::predict_q1_with_confidence`].
    ///
    /// # Errors
    /// Same as [`ServingSnapshot::predict_q1`].
    pub fn predict_q1_with_confidence(&self, q: &Query) -> Result<(f64, Confidence), CoreError> {
        self.check_query(q)?;
        confidence::q1_with_confidence_over_arena(&self.inner.arena, self.inner.config.rho(), q)
            .ok_or(CoreError::EmptyModel)
    }

    /// Q2 list and confidence from one overlap resolution (the routing
    /// fast path for `LINREG`) — the list is bit-identical to
    /// [`ServingSnapshot::predict_q2`], the confidence to
    /// [`ServingSnapshot::confidence`].
    ///
    /// # Errors
    /// Same as [`ServingSnapshot::predict_q1`].
    pub fn predict_q2_with_confidence(
        &self,
        q: &Query,
    ) -> Result<(Vec<LocalModel>, Confidence), CoreError> {
        self.check_query(q)?;
        confidence::q2_with_confidence_over_arena(&self.inner.arena, self.inner.config.rho(), q)
            .ok_or(CoreError::EmptyModel)
    }

    // ---- The served path: one resolver, two heads -------------------------
    //
    // Everything above is the scalar unpruned **oracle**. A served answer
    // takes the one production path instead ([`resolve_and_fold`]); the
    // four methods below validate, present `self` as
    // [`ShardPart::whole`] and call the cross-shard drivers the serving
    // fabric calls — scalar is a batch of one, unsharded is one part.

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
    /// Same as [`ServingSnapshot::predict_q1`].
    pub fn predict_q1_with_confidence_pruned(
        &self,
        q: &Query,
        counters: &mut ScreenCounters,
    ) -> Result<(f64, Confidence), CoreError> {
        self.check_query(q)?;
        sharded_q1_with_confidence_pruned(&[ShardPart::whole(self)], q, counters)
            .ok_or(CoreError::EmptyModel)
    }

    /// Served Q2 + confidence — bit-identical to
    /// [`ServingSnapshot::predict_q2_with_confidence`], with pruning
    /// telemetry accumulated into `counters`.
    ///
    /// # Errors
    /// Same as [`ServingSnapshot::predict_q1`].
    pub fn predict_q2_with_confidence_pruned(
        &self,
        q: &Query,
        counters: &mut ScreenCounters,
    ) -> Result<(Vec<LocalModel>, Confidence), CoreError> {
        self.check_query(q)?;
        sharded_q2_with_confidence_pruned(&[ShardPart::whole(self)], q, counters)
            .ok_or(CoreError::EmptyModel)
    }

    /// Served batched Q1 + confidence: `out[i]` is bit-identical to
    /// [`ServingSnapshot::predict_q1_with_confidence`] on `queries[i]`.
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
        sharded_q1_with_confidence_batch_pruned(&[ShardPart::whole(self)], queries, counters)
            .into_iter()
            .map(|answer| answer.ok_or(CoreError::EmptyModel))
            .collect()
    }

    /// Served batched Q2 + confidence: `out[i]` is bit-identical to
    /// [`ServingSnapshot::predict_q2_with_confidence`] on `queries[i]`.
    ///
    /// # Errors
    /// Same as [`ServingSnapshot::predict_q1_with_confidence_batch_pruned`].
    pub fn predict_q2_with_confidence_batch_pruned(
        &self,
        queries: &[Query],
        counters: &mut ScreenCounters,
    ) -> Result<Vec<(Vec<LocalModel>, Confidence)>, CoreError> {
        queries.iter().try_for_each(|q| self.check_query(q))?;
        sharded_q2_with_confidence_batch_pruned(&[ShardPart::whole(self)], queries, counters)
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

/// One part of the prototype set a served answer is resolved against: a
/// snapshot plus the **global** prototype id of each of its arena slots.
///
/// The served predictors ([`sharded_q1_with_confidence_pruned`] and
/// siblings) reconstruct the single-arena answer bit-for-bit from such
/// parts, provided the sharding invariants hold:
///
/// * `ids` maps every slot (`ids.len() == snapshot.k()`) and is strictly
///   ascending — a shard holds its prototypes in global arena order (the
///   shard fabric assigns ids in arena order and only ever appends);
/// * ids are disjoint across the parts of one query;
/// * every part shares one [`ModelConfig`] (in particular one vigilance
///   `ρ` and one dimension).
///
/// An unsharded snapshot is the one-part case, [`ShardPart::whole`].
#[derive(Debug, Clone, Copy)]
pub struct ShardPart<'a> {
    /// The part's published snapshot.
    pub snapshot: &'a ServingSnapshot,
    /// Global prototype ids, one per arena slot, strictly ascending;
    /// `None` when the part is the whole prototype set, where the local
    /// index *is* the global id.
    pub ids: Option<&'a [usize]>,
}

impl<'a> ShardPart<'a> {
    /// `snapshot` as the single part of an unsharded prototype set (local
    /// index = global id; no identity vector is materialized).
    pub fn whole(snapshot: &'a ServingSnapshot) -> Self {
        ShardPart {
            snapshot,
            ids: None,
        }
    }

    #[inline]
    fn gid(&self, local: usize) -> usize {
        self.ids.map_or(local, |ids| ids[local])
    }
}

/// One prototype as the served fold sees it:
/// `(global id, part, local index)`.
type Slot = (usize, usize, usize);

/// A slot with its distance-like payload: an overlap member `(slot, δ)`
/// or the winner `(slot, squared joint distance)`.
type Scored = (Slot, f64);

thread_local! {
    /// Per-part resolutions plus the merged-entry buffer of
    /// [`resolve_and_fold`] — like the oracle's overlap scratch, it keeps
    /// the served path allocation-free per call in steady state.
    static RESOLVE_SCRATCH: RefCell<(Vec<BatchResolution>, Vec<Scored>)> =
        const { RefCell::new((Vec::new(), Vec::new())) };
}

/// The **one** resolve-and-fold driver behind every served answer
/// (PAPER.md Algorithms 2–3: find the winner, find `W(q)`, fuse).
///
/// *Resolve:* each non-empty part resolves the whole batch once through
/// its capture-time [`BlockLayout`] (the only production call of
/// [`BlockLayout::resolve_batch_pruned`]; telemetry from all parts lands
/// in `counters`). *Merge, per query:* the global winner is the
/// lexicographic `(distance, global id)` minimum of the part winners —
/// strict `<` on the squared distance, lowest id on ties, the
/// single-arena first-wins rule — and the parts' overlap members are
/// merged into **global arena order** (ids are disjoint, so sorting by id
/// is a deterministic k-way merge). *Fold:* `head` projects the merged
/// set through the shared fusion fold
/// ([`predict::fuse_weights_from_set`]). Per-prototype `δ`, the summation
/// order and the degeneracy rule all equal the scalar oracle's, so every
/// accumulation replays its exact floating-point operation sequence.
///
/// `emit` receives one answer per query, in order: `None` exactly when
/// every part is empty. Queries must be dimension-checked by the caller
/// (the snapshot wrappers and the serve fabric do this up front).
fn resolve_and_fold<T>(
    parts: &[ShardPart<'_>],
    queries: &[Query],
    counters: &mut ScreenCounters,
    mut head: impl FnMut(&Query, Scored, &[Scored]) -> T,
    mut emit: impl FnMut(Option<T>),
) {
    RESOLVE_SCRATCH.with(|scratch| {
        let mut scratch = scratch.borrow_mut();
        let (resolutions, merged) = &mut *scratch;
        if resolutions.len() < parts.len() {
            resolutions.resize_with(parts.len(), BatchResolution::new);
        }
        for (part, resolution) in parts.iter().zip(resolutions.iter_mut()) {
            debug_assert!(
                part.ids.is_none_or(|ids| ids.len() == part.snapshot.k()),
                "ids must map every slot"
            );
            if part.snapshot.k() > 0 {
                part.snapshot
                    .layout()
                    .resolve_batch_pruned(queries, resolution, counters);
            }
        }
        for (i, q) in queries.iter().enumerate() {
            let mut winner: Option<Scored> = None;
            merged.clear();
            for (pi, (part, resolution)) in parts.iter().zip(resolutions.iter()).enumerate() {
                if part.snapshot.k() == 0 {
                    continue;
                }
                let (lk, sq) = resolution.winner(i);
                let gid = part.gid(lk);
                if winner.is_none_or(|((best, ..), best_sq)| {
                    sq < best_sq || (sq == best_sq && gid < best)
                }) {
                    winner = Some(((gid, pi, lk), sq));
                }
                let members = resolution.overlap(i).iter();
                merged.extend(members.map(|&(lk, degree)| ((part.gid(lk), pi, lk), degree)));
            }
            merged.sort_unstable_by_key(|&((gid, ..), _)| gid);
            emit(winner.map(|winner| head(q, winner, merged)));
        }
    })
}

/// The Q1 + confidence head over one query's merged resolution: fuse the
/// overlap set (or fall back to the winner) into the prediction and the
/// support the confidence needs.
fn head_q1(
    parts: &[ShardPart<'_>],
    q: &Query,
    (winner, winner_sq): Scored,
    set: &[Scored],
) -> (f64, Confidence) {
    let rho = parts[winner.1].snapshot.config().rho();
    let mut yhat = 0.0;
    let mut support_updates = 0.0;
    let info = predict::fuse_weights_from_set(
        set,
        || winner,
        |(_, pi, lk), w| {
            let arena = parts[pi].snapshot.arena();
            yhat += w * arena.eval(lk, &q.center, q.radius);
            support_updates += w * arena.updates(lk) as f64;
        },
    );
    (
        yhat,
        confidence::combine(winner_sq, rho, support_updates, info),
    )
}

/// The Q2 + confidence head — see [`head_q1`]. List elements carry the
/// **global** prototype id, so the list is indistinguishable from the
/// single-arena one.
fn head_q2(
    parts: &[ShardPart<'_>],
    (winner, winner_sq): Scored,
    set: &[Scored],
) -> (Vec<LocalModel>, Confidence) {
    let rho = parts[winner.1].snapshot.config().rho();
    let mut s = Vec::new();
    let mut support_updates = 0.0;
    let info = predict::fuse_weights_from_set(
        set,
        || winner,
        |(gid, pi, lk), w| {
            let arena = parts[pi].snapshot.arena();
            let mut lm = predict::local_model_at(arena, lk, w);
            lm.prototype = gid;
            s.push(lm);
            support_updates += w * arena.updates(lk) as f64;
        },
    );
    (
        s,
        confidence::combine(winner_sq, rho, support_updates, info),
    )
}

/// Served Q1 + confidence fused **across parts** — bit-identical to
/// [`ServingSnapshot::predict_q1_with_confidence`] on the single
/// unpartitioned snapshot (see [`ShardPart`] for the invariants that make
/// this hold), pruning telemetry accumulated into `counters`. `None` when
/// every part is empty.
pub fn sharded_q1_with_confidence_pruned(
    parts: &[ShardPart<'_>],
    q: &Query,
    counters: &mut ScreenCounters,
) -> Option<(f64, Confidence)> {
    let mut out = None;
    resolve_and_fold(
        parts,
        std::slice::from_ref(q),
        counters,
        |q, winner, set| head_q1(parts, q, winner, set),
        |answer| out = answer,
    );
    out
}

/// Served Q2 list + confidence fused across parts — bit-identical to
/// [`ServingSnapshot::predict_q2_with_confidence`] on the unpartitioned
/// snapshot, global prototype ids included. `None` when every part is
/// empty.
pub fn sharded_q2_with_confidence_pruned(
    parts: &[ShardPart<'_>],
    q: &Query,
    counters: &mut ScreenCounters,
) -> Option<(Vec<LocalModel>, Confidence)> {
    let mut out = None;
    resolve_and_fold(
        parts,
        std::slice::from_ref(q),
        counters,
        |_, winner, set| head_q2(parts, winner, set),
        |answer| out = answer,
    );
    out
}

/// Served batched Q1 + confidence across parts: `out[i]` is bit-identical
/// to [`sharded_q1_with_confidence_pruned`] on `queries[i]` — one
/// resolution of the whole batch per part, amortized over the query
/// block.
pub fn sharded_q1_with_confidence_batch_pruned(
    parts: &[ShardPart<'_>],
    queries: &[Query],
    counters: &mut ScreenCounters,
) -> Vec<Option<(f64, Confidence)>> {
    let mut out = Vec::with_capacity(queries.len());
    resolve_and_fold(
        parts,
        queries,
        counters,
        |q, winner, set| head_q1(parts, q, winner, set),
        |answer| out.push(answer),
    );
    out
}

/// Served batched Q2 + confidence across parts: `out[i]` is bit-identical
/// to [`sharded_q2_with_confidence_pruned`] on `queries[i]`, global
/// prototype ids included.
pub fn sharded_q2_with_confidence_batch_pruned(
    parts: &[ShardPart<'_>],
    queries: &[Query],
    counters: &mut ScreenCounters,
) -> Vec<Option<(Vec<LocalModel>, Confidence)>> {
    let mut out = Vec::with_capacity(queries.len());
    resolve_and_fold(
        parts,
        queries,
        counters,
        |_, winner, set| head_q2(parts, winner, set),
        |answer| out.push(answer),
    );
    out
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
        for probe in probe_grid() {
            assert_eq!(s.predict_q1(&probe), m.predict_q1(&probe));
            assert_eq!(s.predict_q2(&probe), m.predict_q2(&probe));
            assert_eq!(
                s.predict_value(&probe, &probe.center),
                m.predict_value(&probe, &probe.center)
            );
            assert_eq!(s.confidence(&probe), m.confidence(&probe));
            assert_eq!(
                s.predict_q1_with_confidence(&probe),
                m.predict_q1_with_confidence(&probe)
            );
            // The fused Q2 path decomposes into the two separate calls.
            let (list, conf) = s.predict_q2_with_confidence(&probe).unwrap();
            assert_eq!(list, s.predict_q2(&probe).unwrap());
            assert_eq!(conf, s.confidence(&probe).unwrap());
            assert_eq!(s.winner(&probe), m.winner(&probe));
        }
    }

    #[test]
    fn snapshot_is_isolated_from_further_training() {
        let mut m = trained(2, 1_000);
        let s = m.snapshot();
        let before: Vec<f64> = probe_grid()
            .iter()
            .map(|p| s.predict_q1(p).unwrap())
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
            .map(|p| s.predict_q1(p).unwrap())
            .collect();
        assert_eq!(before, after, "snapshot must be immutable");
        assert!(m.steps() > s.version());
    }

    #[test]
    fn clone_shares_the_capture() {
        let m = trained(4, 500);
        let a = m.snapshot();
        let b = a.clone();
        assert!(a.same_capture(&b));
        assert!(!a.same_capture(&m.snapshot()));
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

    #[test]
    fn empty_snapshot_errors_like_an_empty_model() {
        let m = LlmModel::new(ModelConfig::paper_defaults(2)).unwrap();
        let s = m.snapshot();
        assert!(matches!(
            s.predict_q1(&q(&[0.5, 0.5], 0.1)),
            Err(CoreError::EmptyModel)
        ));
        assert!(matches!(
            s.confidence(&q(&[0.5, 0.5], 0.1)),
            Err(CoreError::EmptyModel)
        ));
        let t = trained(6, 200).snapshot();
        assert!(matches!(
            t.predict_q1(&q(&[0.5], 0.1)),
            Err(CoreError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            t.predict_value(&q(&[0.5, 0.5], 0.1), &[0.5]),
            Err(CoreError::DimensionMismatch { .. })
        ));
    }

    /// Split a model's prototypes round-robin (`gid % n`) into `n`
    /// per-shard snapshots, keeping each slot's global arena index.
    fn split_round_robin(m: &LlmModel, n: usize) -> Vec<(ServingSnapshot, Vec<usize>)> {
        let protos = m.prototypes();
        (0..n)
            .map(|shard| {
                let mut subset = Vec::new();
                let mut ids = Vec::new();
                for (gid, p) in protos.iter().enumerate() {
                    if gid % n == shard {
                        subset.push(p.clone());
                        ids.push(gid);
                    }
                }
                let part = LlmModel::from_parts_public(m.config().clone(), subset, m.steps(), true)
                    .unwrap();
                (part.snapshot(), ids)
            })
            .collect()
    }

    fn borrow_parts(split: &[(ServingSnapshot, Vec<usize>)]) -> Vec<ShardPart<'_>> {
        split
            .iter()
            .map(|(snapshot, ids)| ShardPart {
                snapshot,
                ids: Some(ids),
            })
            .collect()
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

    #[test]
    fn sharded_fusion_is_bit_identical_to_the_single_snapshot() {
        let m = trained(21, 4_000);
        assert!(m.k() >= 5, "need enough prototypes to shard: k={}", m.k());
        let full = m.snapshot();
        let probes = probe_grid();
        for n in [1usize, 2, 3, 5] {
            let split = split_round_robin(&m, n);
            let parts = borrow_parts(&split);
            let mut counters = ScreenCounters::default();
            let q1 = sharded_q1_with_confidence_batch_pruned(&parts, &probes, &mut counters);
            let q2 = sharded_q2_with_confidence_batch_pruned(&parts, &probes, &mut counters);
            for (i, probe) in probes.iter().enumerate() {
                let (fy, fc) = full.predict_q1_with_confidence(probe).unwrap();
                let (y, c) = q1[i].unwrap();
                assert_eq!(y.to_bits(), fy.to_bits(), "q1 value drifted at n={n}");
                assert_eq!(c.score.to_bits(), fc.score.to_bits());
                assert_eq!(c, fc, "confidence drifted at n={n}");
                // Global prototype ids make the list the single-arena one.
                let want_q2 = full.predict_q2_with_confidence(probe).unwrap();
                assert_eq!(q2[i].as_ref(), Some(&want_q2), "q2 drifted at n={n}");
                // Scalar = batch of one.
                let mut c = ScreenCounters::default();
                assert_eq!(
                    sharded_q1_with_confidence_pruned(&parts, probe, &mut c),
                    q1[i]
                );
                assert_eq!(
                    sharded_q2_with_confidence_pruned(&parts, probe, &mut c),
                    q2[i]
                );
            }
            assert_eq!(counters.skipped + counters.verified, counters.blocks);
            assert!(counters.blocks > 0);
        }
    }

    #[test]
    fn sharded_fusion_handles_empty_and_missing_parts() {
        let probes = probe_grid();
        let mut c = ScreenCounters::default();
        // No parts at all, or only empty parts → None, counters untouched;
        // an empty batch → an empty vec.
        assert!(sharded_q1_with_confidence_pruned(&[], &probes[0], &mut c).is_none());
        assert!(
            sharded_q1_with_confidence_batch_pruned(&[], &probes, &mut c)
                .iter()
                .all(Option::is_none)
        );
        assert!(sharded_q1_with_confidence_batch_pruned(&[], &[], &mut c).is_empty());
        let empty = LlmModel::new(ModelConfig::with_vigilance(2, 0.15))
            .unwrap()
            .snapshot();
        let parts = [ShardPart::whole(&empty)];
        assert!(sharded_q1_with_confidence_pruned(&parts, &probes[0], &mut c).is_none());
        assert!(sharded_q2_with_confidence_pruned(&parts, &probes[0], &mut c).is_none());
        assert_eq!(c, ScreenCounters::default());

        // A mix of an empty shard and a full one ≡ the full snapshot alone.
        let full = trained(22, 2_000).snapshot();
        let mixed = [ShardPart::whole(&empty), ShardPart::whole(&full)];
        for probe in &probes {
            assert_eq!(
                sharded_q1_with_confidence_pruned(&mixed, probe, &mut c),
                Some(full.predict_q1_with_confidence(probe).unwrap())
            );
        }
    }
}
