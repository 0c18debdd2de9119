//! Query processing: Algorithm 2 (Q1), Algorithm 3 (Q2), Eq. 14 (data
//! values).
//!
//! Prediction never touches the underlying data — it is `O(dK)` over the
//! prototype set, which is the paper's efficiency/scalability claim
//! (Section V, "Convergence & Complexity"). The drivers in this module
//! are the **scalar oracle**: two plain passes over the arena (winner,
//! then `W(q)`), shared by [`LlmModel`], the trainer and the snapshot's
//! unpruned predictors. On top of that bound the served path goes
//! *output-sensitive*: [`crate::snapshot`]'s one resolver
//! ([`crate::snapshot::ServingSnapshot::predict_q1_with_confidence_pruned`]
//! and siblings) discards whole prototype blocks through
//! [`crate::arena::BlockLayout`]'s cached bounds before the exact kernel
//! runs over the rest — bit-identical answers, with every pruning
//! decision counted into [`crate::arena::ScreenCounters`]. The fusion
//! fold (`fuse_weights_from_set`) is shared by both, so a served and
//! an oracle answer can never disagree about the route.

use crate::arena::PrototypeArena;
use crate::coeffs::Coeffs;
use crate::error::CoreError;
use crate::model::LlmModel;
use crate::query::Query;
use std::cell::RefCell;

thread_local! {
    /// Reusable overlap-set buffer for the serving path. Prediction is
    /// `O(dK)` compute; with this scratch (and the slice-level overlap
    /// kernel) it is also allocation-free per query, so a serving thread
    /// never touches the allocator in steady state. Thread-local because a
    /// frozen model is served from `&self` by many threads at once.
    static OVERLAP_SCRATCH: RefCell<Vec<(usize, f64)>> = const { RefCell::new(Vec::new()) };
}

/// Which path Algorithm 2's fusion actually took for one query — shared
/// between prediction and [`crate::confidence`] so a served answer and its
/// confidence can never disagree about the route.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct FusionInfo {
    /// `true` when the prediction fused `W(q)` with normalized `δ̃`
    /// weights; `false` when it fell back to the winner prototype (empty
    /// `W(q)`, or a non-empty set whose members are all exactly tangent —
    /// zero total weight either way).
    pub fused: bool,
    /// Raw overlap mass `Σ δ(q, w_k)` over the fused set; `0.0` on the
    /// fallback path.
    pub mass: f64,
}

/// The shared driver of all prediction algorithms **and** the confidence
/// assessment: resolve `W(q)` in the thread-local scratch and hand each
/// `(k, δ̃(q, w_k))` pair to `f` with weights normalized to 1. Zero total
/// weight means the fusion is undefined: either `W(q)` is empty, or every
/// member is exactly tangent to the query ball (`δ = 0` each — possible if
/// membership ever admits the `A(q, q')` boundary, and guarded here so the
/// weighted sum can never divide by zero). Both cases fall back to the
/// winner prototype with weight 1. Must be called on a non-empty arena.
pub(crate) fn for_each_overlap_weight(
    arena: &PrototypeArena,
    center: &[f64],
    radius: f64,
    f: impl FnMut(usize, f64),
) -> FusionInfo {
    drive_overlap_weights(arena, center, radius, None, f)
}

/// [`for_each_overlap_weight`] with the winner already in hand (the
/// confidence path needs the winner distance anyway — reusing it saves
/// the fallback branch a second full `O(dK)` scan). `winner` must be the
/// arena's own winner for this query; the scan is deterministic, so the
/// result is bit-identical to recomputing it.
pub(crate) fn for_each_overlap_weight_with_winner(
    arena: &PrototypeArena,
    center: &[f64],
    radius: f64,
    winner: usize,
    f: impl FnMut(usize, f64),
) -> FusionInfo {
    drive_overlap_weights(arena, center, radius, Some(winner), f)
}

/// Fold a *resolved* overlap set into normalized fusion weights: sum the
/// degrees in slice order, decide degeneracy (an empty set, or a
/// non-empty set whose members are all exactly tangent — zero total
/// weight either way), and hand each `(slot, δ/total)` pair to `f` — or
/// the winner with weight 1 on the fallback path. `winner` is resolved
/// lazily so the scalar no-winner path still skips its extra `O(dK)`
/// scan unless the fallback fires.
///
/// This is the **single fusion fold** of the crate. The scalar oracle
/// runs it over `(arena index, δ)` pairs in the thread-local scratch
/// (below); the served path ([`crate::snapshot`]) runs it over
/// `((global id, part, local index), δ)` entries of all parts, gathered
/// into global arena order. One function, so the served path replays
/// the exact floating-point operation sequence of the oracle —
/// summation order, degeneracy rule, division — and stays bit-identical
/// to it.
pub(crate) fn fuse_weights_from_set<S: Copy>(
    set: &[(S, f64)],
    winner: impl FnOnce() -> S,
    mut f: impl FnMut(S, f64),
) -> FusionInfo {
    let total: f64 = set.iter().map(|(_, d)| d).sum();
    if set.is_empty() || total <= 0.0 {
        f(winner(), 1.0);
        FusionInfo {
            fused: false,
            mass: 0.0,
        }
    } else {
        for &(k, d) in set {
            f(k, d / total);
        }
        FusionInfo {
            fused: true,
            mass: total,
        }
    }
}

fn drive_overlap_weights(
    arena: &PrototypeArena,
    center: &[f64],
    radius: f64,
    winner: Option<usize>,
    f: impl FnMut(usize, f64),
) -> FusionInfo {
    OVERLAP_SCRATCH.with(|scratch| {
        let mut w = scratch.borrow_mut();
        arena.overlap_set_into(center, radius, &mut w);
        fuse_weights_from_set(
            &w,
            // INVARIANT: both pub(crate) entry points require a non-empty
            // arena (documented on `for_each_overlap_weight`), and
            // `PrototypeArena::winner` is `None` only when empty.
            || winner.unwrap_or_else(|| arena.winner(center, radius).expect("non-empty arena").0),
            f,
        )
    })
}

/// Algorithm 2 (Q1) over an arena. Must be called on a non-empty arena
/// with a dimension-checked query.
pub(crate) fn q1_over_arena(arena: &PrototypeArena, q: &Query) -> f64 {
    let mut yhat = 0.0;
    for_each_overlap_weight(arena, &q.center, q.radius, |k, w| {
        yhat += w * arena.eval(k, &q.center, q.radius);
    });
    yhat
}

/// Materialize the Theorem-3 local model of prototype `k` with fusion
/// weight `weight` — the one place the `S`-list element is built, shared
/// by the Q2 prediction and the fused Q2+confidence drivers so the list
/// construction cannot drift between them. Allocation-free up to the
/// inline capacity of [`Coeffs`].
pub(crate) fn local_model_at(arena: &PrototypeArena, k: usize, weight: f64) -> LocalModel {
    let (intercept, slope) = arena.local_line(k);
    LocalModel {
        intercept,
        slope: slope.into(),
        prototype: k,
        weight,
        center: arena.center(k).into(),
        radius: arena.radius(k),
    }
}

/// Algorithm 3 (Q2) over an arena. Must be called on a non-empty arena
/// with a dimension-checked query.
pub(crate) fn q2_over_arena(arena: &PrototypeArena, q: &Query) -> Vec<LocalModel> {
    let mut s = Vec::new();
    for_each_overlap_weight(arena, &q.center, q.radius, |k, weight| {
        s.push(local_model_at(arena, k, weight));
    });
    s
}

/// Eq. 14 (data value) over an arena. Must be called on a non-empty arena
/// with dimension-checked query and probe point.
pub(crate) fn value_over_arena(arena: &PrototypeArena, q: &Query, x: &[f64]) -> f64 {
    let mut uhat = 0.0;
    for_each_overlap_weight(arena, &q.center, q.radius, |k, w| {
        uhat += w * arena.eval_at_own_radius(k, x);
    });
    uhat
}

/// One local linear model returned by a Q2 query (an element of the
/// paper's list `S`): `u ≈ intercept + slope · x` over the data subspace
/// `D_k` (Theorem 3).
///
/// The two `d`-vectors are [`Coeffs`] — inline for the dimensions the
/// paper works at, so building a list element costs no allocation and a
/// served `LINREG` answer allocates its list buffer and nothing else.
/// They read as slices (`lm.slope[0]`, `lm.slope.iter()`,
/// `lm.predict(&lm.center)`); build one from a `Vec<f64>` or a slice with
/// `.into()`.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalModel {
    /// `u`-intercept `y_k − b_{X,k} x_kᵀ`.
    pub intercept: f64,
    /// `u`-slope `b_{X,k}`.
    pub slope: Coeffs,
    /// Index of the prototype this model comes from.
    pub prototype: usize,
    /// Normalized overlap weight `δ̃(q, w_k)` (1.0 for the closest-prototype
    /// fallback) — diagnostic, not part of the paper's `S`.
    pub weight: f64,
    /// The subspace representative `x_k` (for region attribution).
    pub center: Coeffs,
    /// The subspace radius `θ_k`.
    pub radius: f64,
}

impl LocalModel {
    /// Evaluate `intercept + slope · x`.
    pub fn predict(&self, x: &[f64]) -> f64 {
        debug_assert_eq!(x.len(), self.slope.len());
        let mut v = self.intercept;
        for (b, xi) in self.slope.iter().zip(x.iter()) {
            v += b * xi;
        }
        v
    }
}

impl LlmModel {
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

    /// The overlap neighborhood `W(q)` (Eq. 10): indices and degrees of all
    /// prototypes with `δ(q, w_k) > 0`, appended to `out` (cleared first).
    /// A single batched pass over the arena's packed center block
    /// ([`crate::arena::PrototypeArena::overlap_set_into`]);
    /// allocation-free once the scratch buffers have warmed up, and
    /// bit-identical to the per-prototype reference scan
    /// ([`reference::overlap_set`]).
    pub fn overlap_set_into(&self, q: &Query, out: &mut Vec<(usize, f64)>) {
        self.arena().overlap_set_into(&q.center, q.radius, out);
    }

    /// The overlap neighborhood `W(q)` as a fresh vector (convenience over
    /// [`LlmModel::overlap_set_into`]).
    pub fn overlap_set(&self, q: &Query) -> Vec<(usize, f64)> {
        let mut out = Vec::new();
        self.overlap_set_into(q, &mut out);
        out
    }

    /// **Algorithm 2 — Q1 query processing.** Predict the mean value `ŷ`
    /// over `D(x, θ)` with zero data access.
    ///
    /// `ŷ = Σ_{w_k ∈ W(q)} δ̃(q, w_k) f_k(x, θ)` (Eq. 11/12); when `W(q)`
    /// is empty the closest prototype extrapolates: `ŷ = f_j(x, θ)`.
    ///
    /// Shared with [`crate::snapshot::ServingSnapshot::predict_q1`]
    /// (identical arena-level driver, bit-identical results).
    ///
    /// # Errors
    /// [`CoreError::EmptyModel`] on an untrained model,
    /// [`CoreError::DimensionMismatch`] on a wrong-dimension query.
    pub fn predict_q1(&self, q: &Query) -> Result<f64, CoreError> {
        self.check_query(q)?;
        Ok(q1_over_arena(self.arena(), q))
    }

    /// **Algorithm 3 — Q2 query processing.** Return the list `S` of local
    /// linear models of the data function `g` over `D(x, θ)`.
    ///
    /// Cases (Section V-B): overlap with one or more data subspaces →
    /// one `(intercept, slope)` per overlapping prototype (Theorem 3);
    /// no overlap → extrapolate from the closest prototype.
    ///
    /// # Errors
    /// Same as [`LlmModel::predict_q1`].
    pub fn predict_q2(&self, q: &Query) -> Result<Vec<LocalModel>, CoreError> {
        self.check_query(q)?;
        Ok(q2_over_arena(self.arena(), q))
    }

    /// **Eq. 14 — data-value prediction.** Predict `û ≈ g(x)` for a point
    /// `x` inside the exploration ball `q`:
    /// `û = Σ_{w_k ∈ W(q)} δ̃(q, w_k) f_k(x, θ_k)` — each LLM is evaluated
    /// at its *own* radius, collapsing it to the Theorem-3 line over `D_k`.
    ///
    /// # Errors
    /// Same as [`LlmModel::predict_q1`], plus a dimension check on `x`.
    pub fn predict_value(&self, q: &Query, x: &[f64]) -> Result<f64, CoreError> {
        self.check_query(q)?;
        if x.len() != self.dim() {
            return Err(CoreError::DimensionMismatch {
                expected: self.dim(),
                actual: x.len(),
            });
        }
        Ok(value_over_arena(self.arena(), q, x))
    }

    /// Convenience: data-value prediction using a point-centered probe ball
    /// of radius `theta` (`q = [x, θ]`), the common exploration pattern in
    /// the paper's A2 experiments.
    pub fn predict_value_at(&self, x: &[f64], theta: f64) -> Result<f64, CoreError> {
        let q = Query::new_unchecked(x.to_vec(), theta);
        self.predict_value(&q, x)
    }
}

/// The retained **pre-arena serving path**: per-prototype scans over an
/// owned [`Prototype`](crate::prototype::Prototype) snapshot (each
/// prototype carrying its own heap allocations), exactly as the serving
/// loop ran before the struct-of-arrays refactor.
///
/// One consumer keeps it alive: the `arena_equivalence` proptests, which
/// pin the arena's scalar passes bit-identical to this one (Q1, Q2, data
/// value, winner, overlap set) — the first link of the bit-identity
/// chain `reference` ← scalar oracle ← the one served resolver
/// (`docs/INVARIANTS.md`).
///
/// Functions take the snapshot from [`LlmModel::prototypes`] and return
/// `None` where the model methods would report
/// [`CoreError::EmptyModel`]; dimension checks are the caller's job. The
/// zero-total-weight fallback matches the arena path (winner with
/// weight 1).
pub mod reference {
    use super::{LocalModel, Query};
    use crate::overlap::overlap_degree_parts;
    use crate::prototype::Prototype;

    /// Per-prototype winner scan (index + squared joint distance).
    pub fn winner(protos: &[Prototype], q: &Query) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        for (k, p) in protos.iter().enumerate() {
            let d = p.sq_dist_to(q);
            if best.is_none_or(|(_, bd)| d < bd) {
                best = Some((k, d));
            }
        }
        best
    }

    /// Per-prototype overlap scan: `(k, δ)` for every `δ > 0`.
    pub fn overlap_set(protos: &[Prototype], q: &Query) -> Vec<(usize, f64)> {
        let mut out = Vec::new();
        for (k, p) in protos.iter().enumerate() {
            let d = overlap_degree_parts(&q.center, q.radius, &p.center, p.radius);
            if d > 0.0 {
                out.push((k, d));
            }
        }
        out
    }

    fn for_each_overlap_weight(
        protos: &[Prototype],
        q: &Query,
        mut f: impl FnMut(usize, f64),
    ) -> Option<()> {
        let w = overlap_set(protos, q);
        let total: f64 = w.iter().map(|(_, d)| d).sum();
        if w.is_empty() || total <= 0.0 {
            let (j, _) = winner(protos, q)?;
            f(j, 1.0);
            return Some(());
        }
        for (k, d) in w {
            f(k, d / total);
        }
        Some(())
    }

    /// Algorithm 2 (Q1) over the snapshot; `None` on an empty snapshot.
    pub fn predict_q1(protos: &[Prototype], q: &Query) -> Option<f64> {
        let mut yhat = 0.0;
        for_each_overlap_weight(protos, q, |k, w| {
            yhat += w * protos[k].eval(&q.center, q.radius);
        })?;
        Some(yhat)
    }

    /// Algorithm 3 (Q2) over the snapshot; `None` on an empty snapshot.
    pub fn predict_q2(protos: &[Prototype], q: &Query) -> Option<Vec<LocalModel>> {
        let mut s = Vec::new();
        for_each_overlap_weight(protos, q, |k, weight| {
            let p = &protos[k];
            let (intercept, slope) = p.local_line();
            s.push(LocalModel {
                intercept,
                slope: slope.into(),
                prototype: k,
                weight,
                center: p.center.as_slice().into(),
                radius: p.radius,
            });
        })?;
        Some(s)
    }

    /// Eq. 14 (data value) over the snapshot; `None` on an empty snapshot.
    pub fn predict_value(protos: &[Prototype], q: &Query, x: &[f64]) -> Option<f64> {
        let mut uhat = 0.0;
        for_each_overlap_weight(protos, q, |k, w| {
            uhat += w * protos[k].eval_at_own_radius(x);
        })?;
        Some(uhat)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn q(center: &[f64], r: f64) -> Query {
        Query::new(center.to_vec(), r).unwrap()
    }

    #[test]
    fn fusion_fallback_decision_covers_the_non_empty_all_tangent_set() {
        // The non-empty zero-total-weight case cannot be reached end to
        // end today (`overlap_set_into` filters δ = 0 members), so the
        // decision is pinned on the shared fold directly: a non-empty but
        // all-tangent set must take the winner-with-weight-1 fallback,
        // never the weighted fusion — exactly like the empty set.
        let mut calls = Vec::new();
        let info = fuse_weights_from_set(&[], || 7usize, |k, w| calls.push((k, w)));
        assert_eq!((calls, info.fused, info.mass), (vec![(7, 1.0)], false, 0.0));
        // Any positive mass, however small, fuses.
        let mut calls = Vec::new();
        let info = fuse_weights_from_set(&[(2usize, 1e-300)], || 7, |k, w| calls.push((k, w)));
        assert_eq!(
            (calls, info.fused, info.mass),
            (vec![(2, 1.0)], true, 1e-300)
        );
        // The non-empty all-tangent set (zero total weight) falls back.
        let mut calls = Vec::new();
        let info = fuse_weights_from_set(&[(0, 0.0), (3, 0.0)], || 7, |k, w| calls.push((k, w)));
        assert_eq!(calls, vec![(7, 1.0)]);
        assert!(!info.fused);
        assert_eq!(info.mass, 0.0);
    }

    /// Model trained on a linear teacher y = 2 + x1 + x2 (mean over a ball
    /// centered at x of a linear function is the function at the center, so
    /// the teacher is exactly consistent with Q1 semantics).
    fn trained_linear_model(seed: u64) -> LlmModel {
        let mut rng = StdRng::seed_from_u64(seed);
        // Finer vigilance than the paper default (a = 0.1 → more, smaller
        // subspaces: better locality for the accuracy assertions below) and
        // tight γ so slope coefficients get enough SGD updates before the
        // freeze (the convergence criterion is quantizer-driven; slopes
        // converge more slowly — see D-8).
        let mut cfg = ModelConfig::with_vigilance(2, 0.1);
        cfg.gamma = 1e-4;
        let mut m = LlmModel::new(cfg).unwrap();
        let stream = (0..60_000).map(|_| {
            let c: Vec<f64> = (0..2).map(|_| rng.random_range(0.0..1.0)).collect();
            let r = rng.random_range(0.05..0.15);
            let y = 2.0 + c[0] + c[1];
            (Query::new_unchecked(c, r), y)
        });
        m.fit_stream(stream).unwrap();
        m
    }

    #[test]
    fn q1_prediction_matches_linear_teacher() {
        let m = trained_linear_model(11);
        for (cx, cy) in [(0.3, 0.3), (0.5, 0.7), (0.8, 0.2)] {
            let pred = m.predict_q1(&q(&[cx, cy], 0.1)).unwrap();
            let truth = 2.0 + cx + cy;
            assert!(
                (pred - truth).abs() < 0.08,
                "pred {pred} vs truth {truth} at ({cx},{cy})"
            );
        }
    }

    #[test]
    fn q2_local_lines_recover_linear_teacher() {
        let m = trained_linear_model(13);
        let s = m.predict_q2(&q(&[0.5, 0.5], 0.15)).unwrap();
        assert!(!s.is_empty());
        // Weights normalize.
        let wsum: f64 = s.iter().map(|lm| lm.weight).sum();
        assert!((wsum - 1.0).abs() < 1e-9);
        // Each local line should be close to u = 2 + x1 + x2 near its
        // prototype: check prediction at the prototype center.
        for lm in &s {
            let truth = 2.0 + lm.center[0] + lm.center[1];
            let at_center = lm.predict(&lm.center);
            assert!(
                (at_center - truth).abs() < 0.12,
                "local line off: {at_center} vs {truth}"
            );
        }
    }

    #[test]
    fn q2_slopes_approximate_gradient() {
        let m = trained_linear_model(17);
        let s = m.predict_q2(&q(&[0.5, 0.5], 0.2)).unwrap();
        // Average slope across returned models ~ (1, 1).
        let n = s.len() as f64;
        let s1: f64 = s.iter().map(|lm| lm.slope[0]).sum::<f64>() / n;
        let s2: f64 = s.iter().map(|lm| lm.slope[1]).sum::<f64>() / n;
        assert!((s1 - 1.0).abs() < 0.35, "slope1 {s1}");
        assert!((s2 - 1.0).abs() < 0.35, "slope2 {s2}");
    }

    #[test]
    fn data_value_prediction_tracks_function() {
        let m = trained_linear_model(19);
        let probe = q(&[0.4, 0.6], 0.15);
        for (px, py) in [(0.35, 0.6), (0.45, 0.65), (0.4, 0.55)] {
            let pred = m.predict_value(&probe, &[px, py]).unwrap();
            let truth = 2.0 + px + py;
            assert!((pred - truth).abs() < 0.12, "pred {pred} truth {truth}");
        }
    }

    #[test]
    fn fallback_extrapolates_from_closest_prototype() {
        let m = trained_linear_model(23);
        // A far-away query ball that overlaps nothing.
        let far = q(&[5.0, 5.0], 0.01);
        assert!(m.overlap_set(&far).is_empty());
        let pred = m.predict_q1(&far).unwrap();
        assert!(pred.is_finite());
        let s = m.predict_q2(&far).unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].weight, 1.0);
    }

    #[test]
    fn bigger_radius_overlaps_more_prototypes() {
        let m = trained_linear_model(29);
        let small = m.overlap_set(&q(&[0.5, 0.5], 0.05)).len();
        let large = m.overlap_set(&q(&[0.5, 0.5], 0.5)).len();
        assert!(large >= small);
        assert!(large >= 2, "large ball should overlap several prototypes");
    }

    #[test]
    fn s_list_size_tracks_overlap_count() {
        let m = trained_linear_model(31);
        let query = q(&[0.5, 0.5], 0.3);
        let w = m.overlap_set(&query).len();
        let s = m.predict_q2(&query).unwrap();
        assert_eq!(s.len(), w);
    }

    #[test]
    fn empty_model_errors() {
        let m = LlmModel::new(ModelConfig::paper_defaults(2)).unwrap();
        assert!(matches!(
            m.predict_q1(&q(&[0.5, 0.5], 0.1)),
            Err(CoreError::EmptyModel)
        ));
        assert!(matches!(
            m.predict_q2(&q(&[0.5, 0.5], 0.1)),
            Err(CoreError::EmptyModel)
        ));
        assert!(matches!(
            m.predict_value(&q(&[0.5, 0.5], 0.1), &[0.5, 0.5]),
            Err(CoreError::EmptyModel)
        ));
    }

    #[test]
    fn dimension_mismatch_errors() {
        let m = trained_linear_model(37);
        assert!(matches!(
            m.predict_q1(&q(&[0.5], 0.1)),
            Err(CoreError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            m.predict_value(&q(&[0.5, 0.5], 0.1), &[0.1]),
            Err(CoreError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn predictions_are_finite_for_arbitrary_queries() {
        let m = trained_linear_model(41);
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..200 {
            let c: Vec<f64> = (0..2).map(|_| rng.random_range(-10.0..10.0)).collect();
            let r = rng.random_range(1e-6..10.0);
            let query = Query::new_unchecked(c, r);
            assert!(m.predict_q1(&query).unwrap().is_finite());
            for lm in m.predict_q2(&query).unwrap() {
                assert!(lm.predict(&query.center).is_finite());
            }
        }
    }

    #[test]
    fn overlap_set_into_reuses_buffer_and_matches_allocating_api() {
        let m = trained_linear_model(47);
        let mut buf = vec![(99usize, 0.0)];
        let query = q(&[0.5, 0.5], 0.2);
        m.overlap_set_into(&query, &mut buf);
        assert_eq!(buf, m.overlap_set(&query));
        // A second query through the same buffer clears the first result.
        let far = q(&[5.0, 5.0], 0.01);
        m.overlap_set_into(&far, &mut buf);
        assert!(buf.is_empty());
    }

    #[test]
    fn tangent_only_overlap_falls_back_to_winner() {
        // Regression: a query ball exactly tangent to *every* prototype
        // ball has A(q, w_k) true but δ(q, w_k) = 0 for all k — the fusion
        // carries zero total weight and must fall back to the winner
        // prototype (never divide by zero into a NaN prediction).
        let mut cfg = ModelConfig::paper_defaults(2);
        cfg.vigilance_override = Some(1e-9);
        let mut m = LlmModel::new(cfg).unwrap();
        // Spawn prototypes at exactly (0,0) and (2,0) with radius 0.5,
        // then revisit each once so the intercepts are non-zero.
        for _ in 0..2 {
            m.train_step(&q(&[0.0, 0.0], 0.5), 1.0).unwrap();
            m.train_step(&q(&[2.0, 0.0], 0.5), 5.0).unwrap();
        }
        assert_eq!(m.k(), 2);
        // Tangent to both: center distance 1.0 == 0.5 + 0.5 exactly.
        let tangent = q(&[1.0, 0.0], 0.5);
        assert!(m.overlap_set(&tangent).is_empty());
        let (j, _) = m.winner(&tangent).unwrap();
        let pred = m.predict_q1(&tangent).unwrap();
        assert!(pred.is_finite(), "tangent fusion produced {pred}");
        assert_eq!(pred, m.arena().eval(j, &tangent.center, tangent.radius));
        let s = m.predict_q2(&tangent).unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].weight, 1.0);
        assert_eq!(s[0].prototype, j);
        // The retained reference path takes the same fallback.
        let snapshot = m.prototypes();
        assert_eq!(pred, reference::predict_q1(&snapshot, &tangent).unwrap());
        let u = m.predict_value(&tangent, &[1.0, 0.0]).unwrap();
        assert!(u.is_finite());
        assert_eq!(
            u,
            reference::predict_value(&snapshot, &tangent, &[1.0, 0.0]).unwrap()
        );
    }

    #[test]
    fn predict_value_at_equals_explicit_probe() {
        let m = trained_linear_model(43);
        let x = [0.3, 0.7];
        let a = m.predict_value_at(&x, 0.1).unwrap();
        let b = m
            .predict_value(&Query::new_unchecked(x.to_vec(), 0.1), &x)
            .unwrap();
        assert_eq!(a, b);
    }
}
