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
//! Every prediction algorithm on the snapshot delegates to the *same*
//! arena-level drivers as the model ([`crate::predict`] /
//! [`crate::confidence`]), so a snapshot taken at step `t` answers every
//! query **bit-identically** to the model frozen at step `t` — the
//! invariant the serving layer's equivalence proptests pin.
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
use crate::predict::{self, FusionInfo, LocalModel};
use crate::prototype::Prototype;
use crate::query::Query;
use std::cell::RefCell;
use std::sync::Arc;

thread_local! {
    /// Reusable batch-resolution scratch for the snapshot batch
    /// predictors — like the scalar path's overlap scratch, it keeps the
    /// batched serving path allocation-free per call in steady state.
    static BATCH_SCRATCH: RefCell<BatchResolution> = RefCell::new(BatchResolution::new());

    /// Per-part resolutions plus the merged-entry buffer for the sharded
    /// batch predictors.
    #[allow(clippy::type_complexity)]
    static SHARD_BATCH_SCRATCH: RefCell<(Vec<BatchResolution>, Vec<(usize, usize, usize, f64)>)> =
        const { RefCell::new((Vec::new(), Vec::new())) };
}

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

    // ---- Batched serving -------------------------------------------------
    //
    // One fused winner+overlap pass over the arena per query block
    // (`PrototypeArena::resolve_batch`), then the *same* per-query fusion
    // fold the scalar path runs (`predict::fuse_weights_from_set`). Every
    // batch answer is therefore **bit-identical** to the corresponding
    // scalar call on the same snapshot — the equivalence contract this
    // reproduction chose (see the `batch_equivalence` test battery) over
    // the re-baselined-tolerance alternative.

    /// Shared driver of the batch predictors: validate, resolve the batch
    /// in the thread-local scratch, then fold each query. An empty batch
    /// short-circuits to an empty result *before* the model checks, so a
    /// zero-length request never errors.
    fn batch_fold<T>(
        &self,
        queries: &[Query],
        mut per_query: impl FnMut(&PrototypeArena, &Query, (usize, f64), &[(usize, f64)]) -> T,
    ) -> Result<Vec<T>, CoreError> {
        if queries.is_empty() {
            return Ok(Vec::new());
        }
        for q in queries {
            self.check_query(q)?;
        }
        BATCH_SCRATCH.with(|scratch| {
            let mut res = scratch.borrow_mut();
            let arena = &self.inner.arena;
            arena.resolve_batch(queries, &mut res);
            Ok(queries
                .iter()
                .enumerate()
                .map(|(i, q)| per_query(arena, q, res.winner(i), res.overlap(i)))
                .collect())
        })
    }

    /// Batched Algorithm 2 (Q1): `out[i]` is bit-identical to
    /// [`ServingSnapshot::predict_q1`] on `queries[i]`, computed from one
    /// fused pass over the arena per query block.
    ///
    /// # Errors
    /// [`CoreError::DimensionMismatch`] on the first wrong-dimension
    /// query, [`CoreError::EmptyModel`] on an empty snapshot (a
    /// zero-length batch returns `Ok(vec![])` without either check).
    pub fn predict_q1_batch(&self, queries: &[Query]) -> Result<Vec<f64>, CoreError> {
        self.batch_fold(queries, |arena, q, (wk, _), set| {
            let mut yhat = 0.0;
            predict::fuse_weights_from_set(
                set,
                || wk,
                |k, w| {
                    yhat += w * arena.eval(k, &q.center, q.radius);
                },
            );
            yhat
        })
    }

    /// Batched Algorithm 3 (Q2): `out[i]` is bit-identical to
    /// [`ServingSnapshot::predict_q2`] on `queries[i]`.
    ///
    /// # Errors
    /// Same as [`ServingSnapshot::predict_q1_batch`].
    pub fn predict_q2_batch(&self, queries: &[Query]) -> Result<Vec<Vec<LocalModel>>, CoreError> {
        self.batch_fold(queries, |arena, _, (wk, _), set| {
            let mut s = Vec::new();
            predict::fuse_weights_from_set(
                set,
                || wk,
                |k, w| {
                    s.push(predict::local_model_at(arena, k, w));
                },
            );
            s
        })
    }

    /// Batched Eq. 14 (data value): `out[i]` is bit-identical to
    /// [`ServingSnapshot::predict_value`] on `(queries[i], xs[i])`.
    ///
    /// # Errors
    /// Same as [`ServingSnapshot::predict_q1_batch`], plus a dimension
    /// check on every probe point.
    ///
    /// # Panics
    /// Panics when `queries` and `xs` have different lengths (a malformed
    /// request shape, as with ragged slices in the kernels below).
    pub fn predict_value_batch(
        &self,
        queries: &[Query],
        xs: &[Vec<f64>],
    ) -> Result<Vec<f64>, CoreError> {
        assert_eq!(
            queries.len(),
            xs.len(),
            "predict_value_batch: query/probe length mismatch"
        );
        for x in xs {
            if x.len() != self.dim() {
                return Err(CoreError::DimensionMismatch {
                    expected: self.dim(),
                    actual: x.len(),
                });
            }
        }
        let mut i = 0usize;
        self.batch_fold(queries, |arena, _, (wk, _), set| {
            let x = &xs[i];
            i += 1;
            let mut uhat = 0.0;
            predict::fuse_weights_from_set(
                set,
                || wk,
                |k, w| {
                    uhat += w * arena.eval_at_own_radius(k, x);
                },
            );
            uhat
        })
    }

    /// Batched confidence assessment: `out[i]` is bit-identical to
    /// [`ServingSnapshot::confidence`] on `queries[i]`.
    ///
    /// # Errors
    /// Same as [`ServingSnapshot::predict_q1_batch`].
    pub fn confidence_batch(&self, queries: &[Query]) -> Result<Vec<Confidence>, CoreError> {
        let rho = self.inner.config.rho();
        self.batch_fold(queries, |arena, _, (wk, wsq), set| {
            let mut support_updates = 0.0;
            let info = predict::fuse_weights_from_set(
                set,
                || wk,
                |k, w| {
                    support_updates += w * arena.updates(k) as f64;
                },
            );
            confidence::combine(wsq, rho, support_updates, info)
        })
    }

    /// Batched Q1 + confidence (the serving layers' routing fast path,
    /// batch form): `out[i]` is bit-identical to
    /// [`ServingSnapshot::predict_q1_with_confidence`] on `queries[i]`.
    ///
    /// # Errors
    /// Same as [`ServingSnapshot::predict_q1_batch`].
    pub fn predict_q1_with_confidence_batch(
        &self,
        queries: &[Query],
    ) -> Result<Vec<(f64, Confidence)>, CoreError> {
        let rho = self.inner.config.rho();
        self.batch_fold(queries, |arena, q, winner, set| {
            fold_q1(arena, rho, q, winner, set)
        })
    }

    /// Batched Q2 + confidence: `out[i]` is bit-identical to
    /// [`ServingSnapshot::predict_q2_with_confidence`] on `queries[i]`.
    ///
    /// # Errors
    /// Same as [`ServingSnapshot::predict_q1_batch`].
    pub fn predict_q2_with_confidence_batch(
        &self,
        queries: &[Query],
    ) -> Result<Vec<(Vec<LocalModel>, Confidence)>, CoreError> {
        let rho = self.inner.config.rho();
        self.batch_fold(queries, |arena, _, winner, set| {
            fold_q2(arena, rho, winner, set)
        })
    }

    // ---- Bound-and-verify pruned serving ----------------------------------
    //
    // Same fusion folds as the batched path above, but the winner/overlap
    // resolution comes from the capture-time [`BlockLayout`]: a per-block
    // lower bound discards prototype blocks that provably cannot contain
    // the winner or any overlapping ball, then the exact kernel runs over
    // the rest only. Answers stay **bit-identical** to the unpruned (and
    // scalar) paths — the layout docs carry the argument, the
    // `pruned_equivalence` battery pins it — while the work becomes
    // output-sensitive on clustered prototype sets. Every pruning
    // decision is counted into the caller's [`ScreenCounters`], never
    // silent.

    /// The capture-time pruned serving layout (blocked, bounds-cached
    /// view of [`ServingSnapshot::arena`]).
    pub fn layout(&self) -> &BlockLayout {
        &self.inner.layout
    }

    /// Validate `queries` (non-empty), resolve them through the pruned
    /// layout in the thread-local scratch (telemetry into `counters`) and
    /// hand the resolution to `fold`.
    fn with_pruned_resolution<R>(
        &self,
        queries: &[Query],
        counters: &mut ScreenCounters,
        fold: impl FnOnce(&PrototypeArena, &BatchResolution) -> R,
    ) -> Result<R, CoreError> {
        for q in queries {
            self.check_query(q)?;
        }
        BATCH_SCRATCH.with(|scratch| {
            let mut res = scratch.borrow_mut();
            self.inner
                .layout
                .resolve_batch_pruned(queries, &mut res, counters);
            Ok(fold(&self.inner.arena, &res))
        })
    }

    /// [`Self::batch_fold`] with pruned resolution: identical validation,
    /// scratch and per-query fold; only the resolver differs.
    fn batch_fold_pruned<T>(
        &self,
        queries: &[Query],
        counters: &mut ScreenCounters,
        mut per_query: impl FnMut(&PrototypeArena, &Query, (usize, f64), &[(usize, f64)]) -> T,
    ) -> Result<Vec<T>, CoreError> {
        if queries.is_empty() {
            return Ok(Vec::new());
        }
        self.with_pruned_resolution(queries, counters, |arena, res| {
            queries
                .iter()
                .enumerate()
                .map(|(i, q)| per_query(arena, q, res.winner(i), res.overlap(i)))
                .collect()
        })
    }

    /// Pruned Q1 + confidence — bit-identical to
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
        let rho = self.inner.config.rho();
        self.with_pruned_resolution(std::slice::from_ref(q), counters, |arena, res| {
            fold_q1(arena, rho, q, res.winner(0), res.overlap(0))
        })
    }

    /// Pruned Q2 + confidence — bit-identical to
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
        let rho = self.inner.config.rho();
        self.with_pruned_resolution(std::slice::from_ref(q), counters, |arena, res| {
            fold_q2(arena, rho, res.winner(0), res.overlap(0))
        })
    }

    /// Pruned batched Q1 + confidence: `out[i]` is bit-identical to
    /// [`ServingSnapshot::predict_q1_with_confidence`] on `queries[i]`.
    ///
    /// # Errors
    /// Same as [`ServingSnapshot::predict_q1_batch`].
    pub fn predict_q1_with_confidence_batch_pruned(
        &self,
        queries: &[Query],
        counters: &mut ScreenCounters,
    ) -> Result<Vec<(f64, Confidence)>, CoreError> {
        let rho = self.inner.config.rho();
        self.batch_fold_pruned(queries, counters, |arena, q, winner, set| {
            fold_q1(arena, rho, q, winner, set)
        })
    }

    /// Pruned batched Q2 + confidence: `out[i]` is bit-identical to
    /// [`ServingSnapshot::predict_q2_with_confidence`] on `queries[i]`.
    ///
    /// # Errors
    /// Same as [`ServingSnapshot::predict_q1_batch`].
    pub fn predict_q2_with_confidence_batch_pruned(
        &self,
        queries: &[Query],
        counters: &mut ScreenCounters,
    ) -> Result<Vec<(Vec<LocalModel>, Confidence)>, CoreError> {
        let rho = self.inner.config.rho();
        self.batch_fold_pruned(queries, counters, |arena, _, winner, set| {
            fold_q2(arena, rho, winner, set)
        })
    }
}

/// The Q1 + confidence fold of one resolved query: fuse the overlap set
/// `set` (or fall back to the winner) into the prediction and the support
/// the confidence needs. Shared by the batched and pruned predictors so
/// they replay one floating-point operation sequence.
fn fold_q1(
    arena: &PrototypeArena,
    rho: f64,
    q: &Query,
    (wk, wsq): (usize, f64),
    set: &[(usize, f64)],
) -> (f64, Confidence) {
    let mut yhat = 0.0;
    let mut support_updates = 0.0;
    let info = predict::fuse_weights_from_set(
        set,
        || wk,
        |k, w| {
            yhat += w * arena.eval(k, &q.center, q.radius);
            support_updates += w * arena.updates(k) as f64;
        },
    );
    (yhat, confidence::combine(wsq, rho, support_updates, info))
}

/// The Q2 + confidence fold of one resolved query — see [`fold_q1`].
fn fold_q2(
    arena: &PrototypeArena,
    rho: f64,
    (wk, wsq): (usize, f64),
    set: &[(usize, f64)],
) -> (Vec<LocalModel>, Confidence) {
    let mut s = Vec::new();
    let mut support_updates = 0.0;
    let info = predict::fuse_weights_from_set(
        set,
        || wk,
        |k, w| {
            s.push(predict::local_model_at(arena, k, w));
            support_updates += w * arena.updates(k) as f64;
        },
    );
    (s, confidence::combine(wsq, rho, support_updates, info))
}

impl LlmModel {
    /// Capture an immutable [`ServingSnapshot`] of the current parameters
    /// (the trainer side of the publication handshake; `O(dK)`).
    pub fn snapshot(&self) -> ServingSnapshot {
        ServingSnapshot::capture(self)
    }
}

/// One shard's contribution to a cross-shard fused prediction: the
/// shard's snapshot plus the **global** prototype id of each local arena
/// slot.
///
/// The sharded predictors ([`sharded_q1_with_confidence`] /
/// [`sharded_q2_with_confidence`]) reconstruct the single-arena answer
/// bit-for-bit from such parts, provided the sharding invariants hold:
///
/// * `ids.len() == snapshot.k()`, and `ids` is strictly ascending — a
///   shard holds its prototypes in global arena order (the shard fabric
///   assigns ids in arena order and only ever appends);
/// * ids are disjoint across the parts of one query;
/// * every part shares one [`ModelConfig`] (in particular one vigilance
///   `ρ` and one dimension).
#[derive(Debug, Clone, Copy)]
pub struct ShardPart<'a> {
    /// The shard's published snapshot.
    pub snapshot: &'a ServingSnapshot,
    /// Global prototype ids, one per arena slot, strictly ascending.
    pub ids: &'a [usize],
}

/// Global winner across parts: `(part, local index, squared distance)`.
/// Matches the single-arena first-wins tie-break — strict `<` on the
/// squared distance, lowest global id on ties. `None` when every part is
/// empty.
fn sharded_winner(parts: &[ShardPart<'_>], q: &Query) -> Option<(usize, usize, f64)> {
    let mut best: Option<(usize, usize, f64, usize)> = None;
    for (pi, part) in parts.iter().enumerate() {
        debug_assert_eq!(part.ids.len(), part.snapshot.k(), "ids must map every slot");
        if let Some((lk, sq)) = part.snapshot.winner(q) {
            let gid = part.ids[lk];
            let better = match best {
                None => true,
                Some((_, _, best_sq, best_gid)) => {
                    sq < best_sq || (sq == best_sq && gid < best_gid)
                }
            };
            if better {
                best = Some((pi, lk, sq, gid));
            }
        }
    }
    best.map(|(pi, lk, sq, _)| (pi, lk, sq))
}

/// Resolve the merged overlap set across parts, **in global arena order**
/// (ascending global id), then hand each `(part, local, δ/total)` triple
/// to `apply` — or the winner with weight 1 on the degenerate path. This
/// is [`crate::predict`]'s overlap-weight driver re-run over a
/// partitioned arena: because per-prototype `δ`, the merged summation
/// order and the degeneracy rule are all identical, every accumulation
/// below replays the exact floating-point operation sequence of the
/// single-arena drivers.
fn drive_sharded_overlap(
    parts: &[ShardPart<'_>],
    q: &Query,
    winner: (usize, usize),
    apply: impl FnMut(usize, usize, f64),
) -> FusionInfo {
    // (gid, part, local, δ) — sorted by gid below; ids are disjoint, so
    // the sort is a deterministic k-way merge into global arena order.
    let mut entries: Vec<(usize, usize, usize, f64)> = Vec::new();
    let mut buf: Vec<(usize, f64)> = Vec::new();
    for (pi, part) in parts.iter().enumerate() {
        part.snapshot.overlap_set_into(q, &mut buf);
        for &(lk, d) in &buf {
            entries.push((part.ids[lk], pi, lk, d));
        }
    }
    entries.sort_unstable_by_key(|e| e.0);
    fuse_sharded_entries(&entries, winner, apply)
}

/// The fold half of the sharded fusion driver, over an already-merged,
/// gid-sorted entry list: sum the degrees in global arena order, decide
/// degeneracy with the shared rule, and apply either the normalized
/// weights or the winner fallback. Shared by the scalar driver above and
/// the batched driver ([`sharded_batch_drive`]) so the two replay one
/// floating-point operation sequence.
fn fuse_sharded_entries(
    entries: &[(usize, usize, usize, f64)],
    winner: (usize, usize),
    mut apply: impl FnMut(usize, usize, f64),
) -> FusionInfo {
    let total: f64 = entries.iter().map(|e| e.3).sum();
    if predict::fusion_degenerate(entries.len(), total) {
        let (wp, wl) = winner;
        apply(wp, wl, 1.0);
        FusionInfo {
            fused: false,
            mass: 0.0,
        }
    } else {
        for &(_, pi, lk, d) in entries {
            apply(pi, lk, d / total);
        }
        FusionInfo {
            fused: true,
            mass: total,
        }
    }
}

/// Q1 prediction and confidence fused **across shards** — bit-identical
/// to [`ServingSnapshot::predict_q1_with_confidence`] on the single
/// unpartitioned snapshot (see [`ShardPart`] for the invariants that make
/// this hold). `None` when every part is empty.
pub fn sharded_q1_with_confidence(parts: &[ShardPart<'_>], q: &Query) -> Option<(f64, Confidence)> {
    let (wp, wl, winner_sq) = sharded_winner(parts, q)?;
    let rho = parts[wp].snapshot.config().rho();
    let mut yhat = 0.0;
    let mut support_updates = 0.0;
    let info = drive_sharded_overlap(parts, q, (wp, wl), |pi, lk, w| {
        let arena = parts[pi].snapshot.arena();
        yhat += w * arena.eval(lk, &q.center, q.radius);
        support_updates += w * arena.updates(lk) as f64;
    });
    Some((
        yhat,
        confidence::combine(winner_sq, rho, support_updates, info),
    ))
}

/// Q2 list and confidence fused across shards — bit-identical to
/// [`ServingSnapshot::predict_q2_with_confidence`] on the unpartitioned
/// snapshot; list elements carry the **global** prototype id, so the list
/// is indistinguishable from the single-arena one. `None` when every part
/// is empty.
pub fn sharded_q2_with_confidence(
    parts: &[ShardPart<'_>],
    q: &Query,
) -> Option<(Vec<LocalModel>, Confidence)> {
    let (wp, wl, winner_sq) = sharded_winner(parts, q)?;
    let rho = parts[wp].snapshot.config().rho();
    let mut s = Vec::new();
    let mut support_updates = 0.0;
    let info = drive_sharded_overlap(parts, q, (wp, wl), |pi, lk, w| {
        let arena = parts[pi].snapshot.arena();
        let mut lm = predict::local_model_at(arena, lk, w);
        lm.prototype = parts[pi].ids[lk];
        s.push(lm);
        support_updates += w * arena.updates(lk) as f64;
    });
    Some((
        s,
        confidence::combine(winner_sq, rho, support_updates, info),
    ))
}

/// Resolve `queries` once per non-empty part into the thread-local
/// scratch — through each snapshot's capture-time [`BlockLayout`] when
/// `counters` is `Some` (pruning telemetry accumulated there), through
/// the unpruned arena scan otherwise; both fill bit-identical
/// [`BatchResolution`]s — then hand the per-part resolutions and the
/// merged-entry buffer to `fold`.
fn with_sharded_resolutions<R>(
    parts: &[ShardPart<'_>],
    queries: &[Query],
    mut counters: Option<&mut ScreenCounters>,
    fold: impl FnOnce(&[BatchResolution], &mut Vec<(usize, usize, usize, f64)>) -> R,
) -> R {
    SHARD_BATCH_SCRATCH.with(|scratch| {
        let mut s = scratch.borrow_mut();
        let (resolutions, merged) = &mut *s;
        while resolutions.len() < parts.len() {
            resolutions.push(BatchResolution::new());
        }
        for (pi, part) in parts.iter().enumerate() {
            debug_assert_eq!(part.ids.len(), part.snapshot.k(), "ids must map every slot");
            if part.snapshot.k() == 0 {
                continue;
            }
            match counters.as_deref_mut() {
                Some(c) => {
                    part.snapshot
                        .layout()
                        .resolve_batch_pruned(queries, &mut resolutions[pi], c);
                }
                None => {
                    part.snapshot
                        .arena()
                        .resolve_batch(queries, &mut resolutions[pi]);
                }
            }
        }
        fold(resolutions, merged)
    })
}

/// Query `i` of a sharded resolution, replaying the scalar sharded path:
/// winner selection with the same strict-`<`/lowest-gid tie-break as
/// [`sharded_winner`], the same gid-sorted entry merge as the scalar
/// driver, then `per_query` (which folds through the shared
/// [`fuse_sharded_entries`]). `None` exactly when the scalar call would
/// return `None` (every part empty).
fn sharded_fold_one<T>(
    parts: &[ShardPart<'_>],
    resolutions: &[BatchResolution],
    merged: &mut Vec<(usize, usize, usize, f64)>,
    i: usize,
    per_query: impl FnOnce((usize, usize, f64), &[(usize, usize, usize, f64)]) -> T,
) -> Option<T> {
    let mut best: Option<(usize, usize, f64, usize)> = None;
    for (pi, part) in parts.iter().enumerate() {
        if part.snapshot.k() == 0 {
            continue;
        }
        let (lk, sq) = resolutions[pi].winner(i);
        let gid = part.ids[lk];
        let better = match best {
            None => true,
            Some((_, _, best_sq, best_gid)) => sq < best_sq || (sq == best_sq && gid < best_gid),
        };
        if better {
            best = Some((pi, lk, sq, gid));
        }
    }
    let (wp, wl, wsq, _) = best?;
    merged.clear();
    for (pi, part) in parts.iter().enumerate() {
        if part.snapshot.k() == 0 {
            continue;
        }
        for &(lk, d) in resolutions[pi].overlap(i) {
            merged.push((part.ids[lk], pi, lk, d));
        }
    }
    merged.sort_unstable_by_key(|e| e.0);
    Some(per_query((wp, wl, wsq), merged))
}

/// Shared driver of the sharded **batch** predictors: resolve the whole
/// batch once per part (one fused arena pass per shard, amortized over
/// the query block), then fold each query ([`sharded_fold_one`]).
fn sharded_batch_drive<T>(
    parts: &[ShardPart<'_>],
    queries: &[Query],
    counters: Option<&mut ScreenCounters>,
    mut per_query: impl FnMut(&Query, (usize, usize, f64), &[(usize, usize, usize, f64)]) -> T,
) -> Vec<Option<T>> {
    if queries.is_empty() {
        return Vec::new();
    }
    with_sharded_resolutions(parts, queries, counters, |resolutions, merged| {
        queries
            .iter()
            .enumerate()
            .map(|(i, q)| {
                sharded_fold_one(parts, resolutions, merged, i, |winner, entries| {
                    per_query(q, winner, entries)
                })
            })
            .collect()
    })
}

/// The sharded Q1 + confidence fold of one resolved query — the
/// cross-shard twin of the snapshot's `fold_q1`.
fn sharded_fold_q1(
    parts: &[ShardPart<'_>],
    q: &Query,
    (wp, wl, wsq): (usize, usize, f64),
    entries: &[(usize, usize, usize, f64)],
) -> (f64, Confidence) {
    let rho = parts[wp].snapshot.config().rho();
    let mut yhat = 0.0;
    let mut support_updates = 0.0;
    let info = fuse_sharded_entries(entries, (wp, wl), |pi, lk, w| {
        let arena = parts[pi].snapshot.arena();
        yhat += w * arena.eval(lk, &q.center, q.radius);
        support_updates += w * arena.updates(lk) as f64;
    });
    (yhat, confidence::combine(wsq, rho, support_updates, info))
}

/// The sharded Q2 + confidence fold of one resolved query (list elements
/// carry the **global** prototype id).
fn sharded_fold_q2(
    parts: &[ShardPart<'_>],
    (wp, wl, wsq): (usize, usize, f64),
    entries: &[(usize, usize, usize, f64)],
) -> (Vec<LocalModel>, Confidence) {
    let rho = parts[wp].snapshot.config().rho();
    let mut s = Vec::new();
    let mut support_updates = 0.0;
    let info = fuse_sharded_entries(entries, (wp, wl), |pi, lk, w| {
        let arena = parts[pi].snapshot.arena();
        let mut lm = predict::local_model_at(arena, lk, w);
        lm.prototype = parts[pi].ids[lk];
        s.push(lm);
        support_updates += w * arena.updates(lk) as f64;
    });
    (s, confidence::combine(wsq, rho, support_updates, info))
}

/// Batched Q1 + confidence fused across shards: `out[i]` is bit-identical
/// to [`sharded_q1_with_confidence`] on `queries[i]` — and therefore to
/// the unsharded [`ServingSnapshot::predict_q1_with_confidence`] under
/// the [`ShardPart`] invariants. Queries must be dimension-checked by the
/// caller (the serve fabric does this up front).
pub fn sharded_q1_with_confidence_batch(
    parts: &[ShardPart<'_>],
    queries: &[Query],
) -> Vec<Option<(f64, Confidence)>> {
    sharded_batch_drive(parts, queries, None, |q, winner, entries| {
        sharded_fold_q1(parts, q, winner, entries)
    })
}

/// Batched Q2 + confidence fused across shards: `out[i]` is bit-identical
/// to [`sharded_q2_with_confidence`] on `queries[i]`, global prototype
/// ids included.
pub fn sharded_q2_with_confidence_batch(
    parts: &[ShardPart<'_>],
    queries: &[Query],
) -> Vec<Option<(Vec<LocalModel>, Confidence)>> {
    sharded_batch_drive(parts, queries, None, |_, winner, entries| {
        sharded_fold_q2(parts, winner, entries)
    })
}

/// Pruned batched Q1 + confidence across shards: `out[i]` is
/// bit-identical to [`sharded_q1_with_confidence_batch`] on the same
/// parts — each part resolves through its capture-time [`BlockLayout`],
/// with pruning telemetry from all parts accumulated into `counters`.
pub fn sharded_q1_with_confidence_batch_pruned(
    parts: &[ShardPart<'_>],
    queries: &[Query],
    counters: &mut ScreenCounters,
) -> Vec<Option<(f64, Confidence)>> {
    sharded_batch_drive(parts, queries, Some(counters), |q, winner, entries| {
        sharded_fold_q1(parts, q, winner, entries)
    })
}

/// Pruned batched Q2 + confidence across shards: `out[i]` is
/// bit-identical to [`sharded_q2_with_confidence_batch`] on the same
/// parts, global prototype ids included.
pub fn sharded_q2_with_confidence_batch_pruned(
    parts: &[ShardPart<'_>],
    queries: &[Query],
    counters: &mut ScreenCounters,
) -> Vec<Option<(Vec<LocalModel>, Confidence)>> {
    sharded_batch_drive(parts, queries, Some(counters), |_, winner, entries| {
        sharded_fold_q2(parts, winner, entries)
    })
}

/// Pruned scalar Q1 + confidence across shards — bit-identical to
/// [`sharded_q1_with_confidence`] (pruning telemetry in `counters`).
pub fn sharded_q1_with_confidence_pruned(
    parts: &[ShardPart<'_>],
    q: &Query,
    counters: &mut ScreenCounters,
) -> Option<(f64, Confidence)> {
    let queries = std::slice::from_ref(q);
    with_sharded_resolutions(parts, queries, Some(counters), |resolutions, merged| {
        sharded_fold_one(parts, resolutions, merged, 0, |winner, entries| {
            sharded_fold_q1(parts, q, winner, entries)
        })
    })
}

/// Pruned scalar Q2 + confidence across shards — bit-identical to
/// [`sharded_q2_with_confidence`] (pruning telemetry in `counters`).
pub fn sharded_q2_with_confidence_pruned(
    parts: &[ShardPart<'_>],
    q: &Query,
    counters: &mut ScreenCounters,
) -> Option<(Vec<LocalModel>, Confidence)> {
    let queries = std::slice::from_ref(q);
    with_sharded_resolutions(parts, queries, Some(counters), |resolutions, merged| {
        sharded_fold_one(parts, resolutions, merged, 0, |winner, entries| {
            sharded_fold_q2(parts, winner, entries)
        })
    })
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

    #[test]
    fn sharded_fusion_is_bit_identical_to_the_single_snapshot() {
        let m = trained(21, 4_000);
        assert!(m.k() >= 5, "need enough prototypes to shard: k={}", m.k());
        let full = m.snapshot();
        for n in [1usize, 2, 3, 5] {
            let split = split_round_robin(&m, n);
            let parts: Vec<ShardPart<'_>> = split
                .iter()
                .map(|(s, ids)| ShardPart { snapshot: s, ids })
                .collect();
            for probe in probe_grid() {
                let (fy, fc) = full.predict_q1_with_confidence(&probe).unwrap();
                let (y, c) = sharded_q1_with_confidence(&parts, &probe).unwrap();
                assert_eq!(y.to_bits(), fy.to_bits(), "q1 value drifted at n={n}");
                assert_eq!(c.score.to_bits(), fc.score.to_bits());
                assert_eq!(c, fc, "confidence drifted at n={n}");
                let (flist, fconf) = full.predict_q2_with_confidence(&probe).unwrap();
                let (list, conf) = sharded_q2_with_confidence(&parts, &probe).unwrap();
                assert_eq!(list, flist, "q2 list drifted at n={n}");
                assert_eq!(conf, fconf);
            }
        }
    }

    #[test]
    fn batch_predictors_are_bit_identical_to_scalar_calls() {
        let m = trained(31, 4_000);
        let s = m.snapshot();
        let probes = probe_grid();
        let xs: Vec<Vec<f64>> = probes.iter().map(|p| p.center.clone()).collect();
        let q1 = s.predict_q1_batch(&probes).unwrap();
        let q2 = s.predict_q2_batch(&probes).unwrap();
        let vals = s.predict_value_batch(&probes, &xs).unwrap();
        let confs = s.confidence_batch(&probes).unwrap();
        let q1c = s.predict_q1_with_confidence_batch(&probes).unwrap();
        let q2c = s.predict_q2_with_confidence_batch(&probes).unwrap();
        for (i, probe) in probes.iter().enumerate() {
            assert_eq!(q1[i].to_bits(), s.predict_q1(probe).unwrap().to_bits());
            assert_eq!(q2[i], s.predict_q2(probe).unwrap());
            assert_eq!(
                vals[i].to_bits(),
                s.predict_value(probe, &probe.center).unwrap().to_bits()
            );
            assert_eq!(confs[i], s.confidence(probe).unwrap());
            assert_eq!(q1c[i], s.predict_q1_with_confidence(probe).unwrap());
            assert_eq!(q2c[i], s.predict_q2_with_confidence(probe).unwrap());
        }
    }

    #[test]
    fn batch_predictor_edges_are_typed_not_panics() {
        let m = trained(32, 2_000);
        let s = m.snapshot();
        // Empty batch: empty result, no model checks.
        assert_eq!(s.predict_q1_batch(&[]).unwrap(), Vec::<f64>::new());
        let empty = LlmModel::new(ModelConfig::with_vigilance(2, 0.15))
            .unwrap()
            .snapshot();
        assert!(empty.predict_q1_batch(&[]).unwrap().is_empty());
        assert_eq!(
            empty.predict_q1_batch(&[q(&[0.5, 0.5], 0.1)]),
            Err(CoreError::EmptyModel)
        );
        // Wrong-dimension query anywhere in the batch: typed error.
        let batch = [q(&[0.5, 0.5], 0.1), q(&[0.5, 0.5, 0.5], 0.1)];
        assert_eq!(
            s.predict_q1_batch(&batch),
            Err(CoreError::DimensionMismatch {
                expected: 2,
                actual: 3
            })
        );
        assert_eq!(
            s.predict_q2_with_confidence_batch(&batch).unwrap_err(),
            CoreError::DimensionMismatch {
                expected: 2,
                actual: 3
            }
        );
        // Wrong-dimension probe point on the value path.
        assert_eq!(
            s.predict_value_batch(&[q(&[0.5, 0.5], 0.1)], &[vec![0.1]]),
            Err(CoreError::DimensionMismatch {
                expected: 2,
                actual: 1
            })
        );
    }

    #[test]
    fn sharded_batch_fusion_matches_scalar_sharded_calls() {
        let m = trained(33, 4_000);
        let probes = probe_grid();
        for n in [1usize, 2, 3, 5] {
            let split = split_round_robin(&m, n);
            let parts: Vec<ShardPart<'_>> = split
                .iter()
                .map(|(s, ids)| ShardPart { snapshot: s, ids })
                .collect();
            let q1 = sharded_q1_with_confidence_batch(&parts, &probes);
            let q2 = sharded_q2_with_confidence_batch(&parts, &probes);
            for (i, probe) in probes.iter().enumerate() {
                assert_eq!(q1[i], sharded_q1_with_confidence(&parts, probe), "n={n}");
                assert_eq!(q2[i], sharded_q2_with_confidence(&parts, probe), "n={n}");
            }
        }
        // Empty parts → per-query None; empty batch → empty vec.
        assert!(sharded_q1_with_confidence_batch(&[], &probes)
            .iter()
            .all(Option::is_none));
        assert!(sharded_q1_with_confidence_batch(&[], &[]).is_empty());
    }

    #[test]
    fn pruned_predictors_are_bit_identical_and_counted() {
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
            assert!(c.blocks > 0, "scalar pruned call must be counted");
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
        // Errors match the unpruned path.
        let mut c = ScreenCounters::default();
        assert!(s
            .predict_q1_with_confidence_batch_pruned(&[], &mut c)
            .unwrap()
            .is_empty());
        assert_eq!(
            s.predict_q1_with_confidence_pruned(&q(&[0.5], 0.1), &mut c),
            Err(CoreError::DimensionMismatch {
                expected: 2,
                actual: 1
            })
        );
    }

    #[test]
    fn pruned_sharded_fusion_matches_unpruned_sharded_calls() {
        let m = trained(42, 4_000);
        let probes = probe_grid();
        for n in [1usize, 2, 3, 5] {
            let split = split_round_robin(&m, n);
            let parts: Vec<ShardPart<'_>> = split
                .iter()
                .map(|(s, ids)| ShardPart { snapshot: s, ids })
                .collect();
            let mut counters = ScreenCounters::default();
            let q1 = sharded_q1_with_confidence_batch_pruned(&parts, &probes, &mut counters);
            let q2 = sharded_q2_with_confidence_batch_pruned(&parts, &probes, &mut counters);
            for (i, probe) in probes.iter().enumerate() {
                assert_eq!(q1[i], sharded_q1_with_confidence(&parts, probe), "n={n}");
                assert_eq!(q2[i], sharded_q2_with_confidence(&parts, probe), "n={n}");
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
        // Empty parts → per-query None, counters untouched.
        let mut c = ScreenCounters::default();
        assert!(
            sharded_q1_with_confidence_batch_pruned(&[], &probes, &mut c)
                .iter()
                .all(Option::is_none)
        );
        assert_eq!(c, ScreenCounters::default());
    }

    #[test]
    fn sharded_fusion_handles_empty_and_missing_parts() {
        // No parts at all, or only empty parts → None.
        assert!(sharded_q1_with_confidence(&[], &q(&[0.5, 0.5], 0.1)).is_none());
        let empty = LlmModel::new(ModelConfig::with_vigilance(2, 0.15))
            .unwrap()
            .snapshot();
        let parts = [ShardPart {
            snapshot: &empty,
            ids: &[],
        }];
        assert!(sharded_q1_with_confidence(&parts, &q(&[0.5, 0.5], 0.1)).is_none());
        assert!(sharded_q2_with_confidence(&parts, &q(&[0.5, 0.5], 0.1)).is_none());

        // A mix of an empty shard and a full one ≡ the full snapshot alone.
        let m = trained(22, 2_000);
        let full = m.snapshot();
        let all_ids: Vec<usize> = (0..m.k()).collect();
        let mixed = [
            ShardPart {
                snapshot: &empty,
                ids: &[],
            },
            ShardPart {
                snapshot: &full,
                ids: &all_ids,
            },
        ];
        for probe in probe_grid() {
            assert_eq!(
                sharded_q1_with_confidence(&mixed, &probe),
                Some(full.predict_q1_with_confidence(&probe).unwrap())
            );
        }
    }
}
