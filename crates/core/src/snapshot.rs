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
//! (`*_pruned` on the snapshot, the four `sharded_*_pruned` functions) is
//! one resolve-and-fold driver over [`ShardPart`]s — bound-and-verify
//! resolution through each part's [`BlockLayout`], which leaves `W(q)` in
//! block order; one scatter/gather over a global-id bitmap that puts the
//! members of all parts in global arena order (the only place anything
//! is ordered, and no comparison sort); one shared fusion fold; a Q1 or a
//! Q2 head — where scalar is a batch of one and an unsharded snapshot is
//! one part. The bit-identity chain is therefore two links: the oracle ←
//! the one resolver (`serving_equivalence`), with the oracle's one
//! optimised pass, [`PrototypeArena::winner`], pinned to its definition
//! in `arena.rs`.
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
        LlmModel::from_parts(
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
    /// Same as [`ServingSnapshot::predict_q1_with_confidence`].
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
    /// Same as [`ServingSnapshot::predict_q1_with_confidence`].
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

/// Everything [`resolve_and_fold`] keeps between calls on one thread, so
/// the served path is allocation-free per call in steady state (like the
/// oracle's overlap scratch). Only the capacity of `resolutions`,
/// `staged` and `ordered` carries over; `bits` and `index_of` carry
/// *state*, under one rule each:
///
/// * `bits` is **all zero between calls** — the gather clears every word
///   it reads, and the two early exits (an id carried twice, an id beyond
///   the declared span) clear what was set before they panic;
/// * an `index_of` entry means something only while its bit is set — it
///   is written before it is read, so stale entries from earlier calls
///   (other layouts, other part counts) are never observed and the table
///   is never cleared.
///
/// Both are sized per call from the parts at hand, each on its own
/// (`bits` by words, `index_of` by ids), grow-only, and never assumed to
/// be dense: sparse ids just leave zero words for the walk to step over.
struct ResolveScratch {
    /// One resolution per part, in part order.
    resolutions: Vec<BatchResolution>,
    /// One query's members as the parts emitted them: part order, block
    /// order inside a part.
    staged: Vec<Scored>,
    /// The same members in ascending global id, when `staged` is not
    /// already.
    ordered: Vec<Scored>,
    /// Membership bitmap over global ids, one word per [`ID_WORD`] ids.
    bits: Vec<u64>,
    /// Global id → index into `staged`.
    index_of: Vec<u32>,
}

/// Global ids per bitmap word — one word per `ROW_TILE` prototypes, so the
/// gather's word walk is the same order as the block-bound stage
/// (`regq_linalg::tune` asserts `ROW_TILE ≤ u64::BITS` at compile time:
/// a block's membership mask is one such word too).
const ID_WORD: usize = u64::BITS as usize;

thread_local! {
    /// This thread's [`ResolveScratch`] — borrowed for the length of one
    /// [`resolve_and_fold`] call, which never re-enters itself.
    static RESOLVE_SCRATCH: RefCell<ResolveScratch> = const {
        RefCell::new(ResolveScratch {
            resolutions: Vec::new(),
            staged: Vec::new(),
            ordered: Vec::new(),
            bits: Vec::new(),
            index_of: Vec::new(),
        })
    };
}

/// Put one query's `staged` members in ascending global id, into
/// `ordered`, without comparing any two of them: **scatter** every member
/// into the id bitmap and note where it was staged, then **gather** by
/// walking the touched words upwards and each word from its lowest set
/// bit. Ids are unique across the parts of one query (the [`ShardPart`]
/// contract), so ascending id is a total order and this is exactly what a
/// sort by id produces — each member written once and read once.
///
/// `staged` holds at least the two members that were out of order.
/// `bits` and `index_of` are the scratch tables cut to the id span of
/// the parts at hand; `bits` must be all zero on entry and is all zero
/// on exit, panics included (see [`ResolveScratch`]).
///
/// # Panics
/// If two members carry one global id — two parts sharing a prototype
/// break the [`ShardPart`] contract, and under a bitmap the second would
/// otherwise vanish without a trace — or if an id lies beyond the span
/// (a part whose `ids` do not ascend declares too small a last id).
fn order_by_gid(
    staged: &[Scored],
    ordered: &mut Vec<Scored>,
    bits: &mut [u64],
    index_of: &mut [u32],
) {
    // Words set so far: `lo..=hi` once a member is in.
    let (mut lo, mut hi) = (usize::MAX, 0usize);
    for (at, &((gid, pi, _), _)) in staged.iter().enumerate() {
        let (word, bit) = (gid / ID_WORD, 1u64 << (gid % ID_WORD));
        // One test of a word the scatter loads anyway.
        if gid >= index_of.len() || bits[word] & bit != 0 {
            let earlier = index_of.get(gid).map(|&at| staged[at as usize].0 .1);
            if lo <= hi {
                bits[lo..=hi].fill(0);
            }
            match earlier {
                Some(earlier) => panic!(
                    "global prototype id {gid} is carried by part {earlier} and by part {pi}: \
                     the ids of one query's ShardParts must be disjoint"
                ),
                None => panic!(
                    "global prototype id {gid} of part {pi} lies beyond the last id a part \
                     declares: a ShardPart's ids must be strictly ascending"
                ),
            }
        }
        (lo, hi) = (lo.min(word), hi.max(word));
        bits[word] |= bit;
        // `as`: `resolve_and_fold` checked that every index fits.
        index_of[gid] = at as u32;
    }
    ordered.clear();
    for (word, set) in (lo..).zip(&mut bits[lo..=hi]) {
        let mut left = std::mem::take(set);
        while left != 0 {
            let gid = word * ID_WORD + left.trailing_zeros() as usize;
            ordered.push(staged[index_of[gid] as usize]);
            left &= left - 1;
        }
    }
    assert_eq!(
        ordered.len(),
        staged.len(),
        "the gather must emit every staged member exactly once"
    );
}

/// The **one** resolve-and-fold driver behind every served answer
/// (PAPER.md Algorithms 2–3: find the winner, find `W(q)`, fuse).
///
/// *Resolve:* each non-empty part resolves the whole batch once through
/// its capture-time [`BlockLayout`] (the only production call of
/// [`BlockLayout::resolve_batch_pruned`]; telemetry from all parts lands
/// in `counters`), leaving each query's members in block order.
/// *Order, per query — here and nowhere else:* the global winner is the
/// lexicographic `(distance, global id)` minimum of the part winners —
/// strict `<` on the squared distance, lowest id on ties, the
/// single-arena first-wins rule — and the members of **all** parts are
/// staged under their global ids and put in **global arena order** by one
/// scatter/gather over an id bitmap ([`order_by_gid`]; no comparison
/// sort, per part or across parts). Members that arrive ascending
/// already — everything one verified block of one part emitted, the
/// common case at small `K` — are folded as staged. *Fold:* `head`
/// projects the ordered set through the shared fusion fold
/// ([`predict::fuse_weights_from_set`]). Per-prototype `δ`, the summation
/// order and the degeneracy rule all equal the oracle's, so every
/// accumulation replays its exact floating-point operation sequence.
///
/// `emit` receives one answer per query, in order: `None` exactly when
/// every part is empty. Queries must be dimension-checked by the caller
/// (the snapshot wrappers and the serve fabric do this up front).
///
/// # Panics
/// If two parts carry the same global id (see [`order_by_gid`]).
fn resolve_and_fold<T>(
    parts: &[ShardPart<'_>],
    queries: &[Query],
    counters: &mut ScreenCounters,
    mut head: impl FnMut(&Query, Scored, &[Scored]) -> T,
    mut emit: impl FnMut(Option<T>),
) {
    RESOLVE_SCRATCH.with(|scratch| {
        let mut scratch = scratch.borrow_mut();
        let ResolveScratch {
            resolutions,
            staged,
            ordered,
            bits,
            index_of,
        } = &mut *scratch;
        if resolutions.len() < parts.len() {
            resolutions.resize_with(parts.len(), BatchResolution::new);
        }
        // One past the largest global id these parts can emit.
        let mut id_span = 0usize;
        for (part, resolution) in parts.iter().zip(resolutions.iter_mut()) {
            debug_assert!(
                part.ids.is_none_or(|ids| ids.len() == part.snapshot.k()),
                "ids must map every slot"
            );
            if part.snapshot.k() > 0 {
                let span = part.ids.map_or(part.snapshot.k(), |ids| {
                    ids.last().map_or(0, |&last| last + 1)
                });
                id_span = id_span.max(span);
                part.snapshot
                    .layout()
                    .resolve_batch_pruned(queries, resolution, counters);
            }
        }
        // A query stages at most one member per id, so this also bounds
        // every index `order_by_gid` stores as `u32`.
        assert!(
            u32::try_from(id_span).is_ok(),
            "global prototype ids must fit in 32 bits, got {id_span}"
        );
        let id_words = id_span.div_ceil(ID_WORD);
        if bits.len() < id_words {
            bits.resize(id_words, 0);
        }
        if index_of.len() < id_span {
            index_of.resize(id_span, 0);
        }
        for (i, q) in queries.iter().enumerate() {
            let mut winner: Option<Scored> = None;
            staged.clear();
            // Whether the staged ids ascend so far, and the smallest id
            // that would keep them ascending.
            let (mut ascending, mut floor) = (true, 0usize);
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
                for &(lk, degree) in resolution.overlap(i) {
                    let gid = part.gid(lk);
                    ascending &= gid >= floor;
                    floor = gid + 1;
                    staged.push(((gid, pi, lk), degree));
                }
            }
            let set: &[Scored] = if ascending {
                staged
            } else {
                let (bits, index_of) = (&mut bits[..id_words], &mut index_of[..id_span]);
                order_by_gid(staged, ordered, bits, index_of);
                ordered
            };
            emit(winner.map(|winner| head(q, winner, set)));
        }
    })
}

/// The Q1 + confidence head over one query's ordered resolution: fuse the
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
    let info = predict::fuse_weights_from_set(set, winner, |(_, pi, lk), w| {
        let arena = parts[pi].snapshot.arena();
        yhat += w * arena.eval(lk, &q.center, q.radius);
        support_updates += w * arena.updates(lk) as f64;
    });
    (
        yhat,
        confidence::combine(winner_sq, rho, support_updates, info),
    )
}

/// The Q2 + confidence head — see [`head_q1`]. List elements carry the
/// **global** prototype id, so the list is indistinguishable from the
/// single-arena one. The list is sized once — one element per member, or
/// the winner alone — and its elements hold their coefficients inline
/// ([`crate::coeffs::Coeffs`]), so this is the one allocation of a served
/// `LINREG` answer.
fn head_q2(
    parts: &[ShardPart<'_>],
    (winner, winner_sq): Scored,
    set: &[Scored],
) -> (Vec<LocalModel>, Confidence) {
    let rho = parts[winner.1].snapshot.config().rho();
    let mut s = Vec::with_capacity(set.len().max(1));
    let mut support_updates = 0.0;
    let info = predict::fuse_weights_from_set(set, winner, |(gid, pi, lk), w| {
        let arena = parts[pi].snapshot.arena();
        let mut lm = predict::local_model_at(arena, lk, w);
        lm.prototype = gid;
        s.push(lm);
        support_updates += w * arena.updates(lk) as f64;
    });
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

    /// `K = 0` through every head — the model's predictors, the
    /// snapshot's oracle and served methods, the cross-shard drivers over
    /// no parts and over only empty parts — ends typed, never in a panic.
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
        for parts in [&[][..], &[ShardPart::whole(&s), ShardPart::whole(&s)][..]] {
            assert_eq!(
                sharded_q1_with_confidence_pruned(parts, &probe, &mut c),
                None
            );
            assert_eq!(
                sharded_q2_with_confidence_pruned(parts, &probe, &mut c),
                None
            );
            assert_eq!(
                sharded_q1_with_confidence_batch_pruned(parts, one, &mut c),
                vec![None]
            );
            assert_eq!(
                sharded_q2_with_confidence_batch_pruned(parts, one, &mut c),
                vec![None]
            );
        }
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
                let part =
                    LlmModel::from_parts(m.config().clone(), subset, m.steps(), true).unwrap();
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

    // --- Ordered emission (prefix `screening_`: the nightly Miri job
    // --- filters `-p regq_core screening_`, which puts the word walk and
    // --- the table indexing of `order_by_gid` under the interpreter).

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
        LlmModel::from_parts(ModelConfig::with_vigilance(2, 0.15), protos, k as u64, true).unwrap()
    }

    /// A snapshot of the prototypes `model` holds in `slots`, in that
    /// order.
    fn subset(model: &LlmModel, slots: &[usize]) -> ServingSnapshot {
        let protos = model.prototypes();
        let chosen = slots.iter().map(|&k| protos[k].clone()).collect();
        LlmModel::from_parts(model.config().clone(), chosen, model.steps(), true)
            .unwrap()
            .snapshot()
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

    /// A Q2 answer as bits, with the list's prototype indices sent through
    /// `gids` (the oracle numbers its own arena, the parts carry ids).
    fn q2_bits((list, c): &(Vec<LocalModel>, Confidence), gids: Option<&[usize]>) -> Q2Bits {
        let list = list
            .iter()
            .map(|lm| {
                let scalars = [lm.intercept, lm.weight, lm.radius];
                let all = scalars.iter().chain(&lm.slope).chain(&lm.center);
                (
                    gids.map_or(lm.prototype, |g| g[lm.prototype]),
                    all.map(|v| v.to_bits()).collect(),
                )
            })
            .collect();
        (list, confidence_bits(c))
    }

    fn assert_id_bitmap_is_clean() {
        RESOLVE_SCRATCH.with(|scratch| {
            assert!(
                scratch.borrow().bits.iter().all(|&word| word == 0),
                "every id-bitmap word must be zero between calls"
            );
        });
    }

    /// Serve the ordering probes from `parts` through all four served
    /// drivers and require every answer `to_bits`-equal to the scalar
    /// oracle on `whole` — whose arena index `k` is global id `gids[k]` —
    /// and the id bitmap all zero after every call.
    fn assert_served_like_the_oracle(
        parts: &[ShardPart<'_>],
        whole: &ServingSnapshot,
        gids: Option<&[usize]>,
    ) {
        let probes = ordering_probes();
        let want: Vec<(Q1Bits, Q2Bits)> = probes
            .iter()
            .map(|probe| {
                (
                    q1_bits(&whole.predict_q1_with_confidence(probe).unwrap()),
                    q2_bits(&whole.predict_q2_with_confidence(probe).unwrap(), gids),
                )
            })
            .collect();
        let mut counters = ScreenCounters::default();
        let q1 = sharded_q1_with_confidence_batch_pruned(parts, &probes, &mut counters);
        assert_id_bitmap_is_clean();
        let q2 = sharded_q2_with_confidence_batch_pruned(parts, &probes, &mut counters);
        assert_id_bitmap_is_clean();
        for (i, probe) in probes.iter().enumerate() {
            assert!(
                q1_bits(q1[i].as_ref().unwrap()) == want[i].0,
                "batch q1 {i}"
            );
            assert!(
                q2_bits(q2[i].as_ref().unwrap(), None) == want[i].1,
                "batch q2 {i}"
            );
            let y = sharded_q1_with_confidence_pruned(parts, probe, &mut counters).unwrap();
            assert_id_bitmap_is_clean();
            let s = sharded_q2_with_confidence_pruned(parts, probe, &mut counters).unwrap();
            assert_id_bitmap_is_clean();
            assert!(q1_bits(&y) == want[i].0, "scalar q1 {i}");
            assert!(q2_bits(&s, None) == want[i].1, "scalar q2 {i}");
        }
        assert_eq!(counters.skipped + counters.verified, counters.blocks);
    }

    /// The scratch-hygiene battery: everything below runs on ONE thread,
    /// hence through one `RESOLVE_SCRATCH`, whose bitmap and id table were
    /// sized by whatever was served before.
    #[test]
    fn screening_order_scratch_survives_layout_part_and_id_changes() {
        // Large, tiny, large again; then larger by less than a word, so
        // the table must grow where the bitmap need not.
        for k in [4_000usize, 5, 4_000, 4_030] {
            let whole = scattered(k, k as u64).snapshot();
            assert_served_like_the_oracle(&[ShardPart::whole(&whole)], &whole, None);
        }
        // 1 → 4 → 1 parts of one prototype set.
        let model = scattered(4_000, 9);
        let whole = model.snapshot();
        for n in [1usize, 4, 1] {
            let split = split_round_robin(&model, n);
            assert_served_like_the_oracle(&borrow_parts(&split), &whole, None);
        }
        // Sparse ids far beyond anything served so far, interleaved across
        // two parts so they are staged out of order: 3, 70 000, 1 000.
        let sparse = scattered(3, 11);
        let whole = sparse.snapshot();
        let gids = [3usize, 1_000, 70_000];
        let (outer, inner) = (subset(&sparse, &[0, 2]), subset(&sparse, &[1]));
        let parts = [
            ShardPart {
                snapshot: &outer,
                ids: Some(&[3, 70_000]),
            },
            ShardPart {
                snapshot: &inner,
                ids: Some(&[1_000]),
            },
        ];
        assert_served_like_the_oracle(&parts, &whole, Some(&gids));
        // Ids on both sides of every word edge, K a multiple of the word:
        // three parts put 63, 64 and 65 in three different parts, and the
        // fourth probe's ball holds all 128 — first and last bit included.
        let edges = scattered(2 * ID_WORD, 13);
        let whole = edges.snapshot();
        let mut all = Vec::new();
        whole.overlap_set_into(&ordering_probes()[3], &mut all);
        assert_eq!(all.len(), 2 * ID_WORD);
        let split = split_round_robin(&edges, 3);
        assert_served_like_the_oracle(&borrow_parts(&split), &whole, None);
    }

    /// Two parts carrying one global id break [`ShardPart`]'s contract.
    /// The former sort kept both members; a bitmap would drop the second
    /// without a trace — so it is a panic that names the id and both
    /// parts, and it leaves the scratch fit for the next call. The twin
    /// arrives after a smaller id (`0 2 | 1 2`) or right behind itself
    /// (`0 1 | 1 2`, which must not pass for an ascending run).
    #[test]
    #[should_panic(expected = "global prototype id 2 is carried by part 0 and by part 1")]
    fn screening_two_parts_sharing_a_global_id_panic() {
        let model = scattered(4, 17);
        let serve = |first: [usize; 2], second: [usize; 2]| {
            let (a, b) = (subset(&model, &first), subset(&model, &second));
            let parts = [
                ShardPart {
                    snapshot: &a,
                    ids: Some(&first),
                },
                ShardPart {
                    snapshot: &b,
                    ids: Some(&second),
                },
            ];
            let everything = q(&[0.5, 0.5], 3.0);
            let caught = std::panic::catch_unwind(|| {
                let mut c = ScreenCounters::default();
                sharded_q1_with_confidence_pruned(&parts, &everything, &mut c)
            });
            // Never silent — and never sticky: the same thread serves a
            // well-formed partition right afterwards.
            assert_id_bitmap_is_clean();
            let whole = model.snapshot();
            let halves = split_round_robin(&model, 2);
            assert_served_like_the_oracle(&borrow_parts(&halves), &whole, None);
            caught.expect_err("a shared id must not be served")
        };
        let adjacent = serve([0, 1], [1, 2]);
        let message = adjacent.downcast_ref::<String>().unwrap();
        assert!(
            message.starts_with("global prototype id 1 is carried by part 0 and by part 1"),
            "{message}"
        );
        std::panic::resume_unwind(serve([0, 2], [1, 2]));
    }

    /// A part whose ids do not ascend declares too small a last id; the
    /// scatter must refuse the id that overshoots it — by name, not by an
    /// index out of bounds — and leave the bitmap clean.
    #[test]
    #[should_panic(expected = "global prototype id 9 of part 0 lies beyond the last id")]
    fn screening_an_id_beyond_the_declared_span_panics() {
        let part = scattered(3, 19).snapshot();
        let parts = [ShardPart {
            snapshot: &part,
            ids: Some(&[1, 9, 4]),
        }];
        let everything = q(&[0.5, 0.5], 3.0);
        let caught = std::panic::catch_unwind(|| {
            let mut c = ScreenCounters::default();
            sharded_q2_with_confidence_pruned(&parts, &everything, &mut c)
        });
        assert_id_bitmap_is_clean();
        std::panic::resume_unwind(caught.expect_err("an undeclared id must not be served"));
    }
}
