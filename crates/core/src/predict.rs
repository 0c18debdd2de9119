//! Query processing: Algorithm 2 (Q1), Algorithm 3 (Q2), Eq. 14 (data
//! values).
//!
//! Prediction never touches the underlying data — it is `O(dK)` over the
//! prototype set, which is the paper's efficiency/scalability claim
//! (Section V, "Convergence & Complexity"). `fuse_oracle` is the
//! **oracle**: Algorithms 2–3 once, as printed — find the winner, find
//! `W(q)` with one `δ(q, w_k)` per prototype, fuse — behind every
//! [`LlmModel`] predictor and the snapshot's three unpruned methods. On
//! top of that bound the served path goes *output-sensitive*:
//! [`crate::snapshot`]'s one resolver
//! ([`crate::snapshot::ServingSnapshot::predict_q1_with_confidence_pruned`]
//! and siblings) discards whole prototype blocks through
//! [`crate::arena::BlockLayout`]'s cached bounds before the exact kernel
//! runs over the rest — bit-identical answers, with every pruning
//! decision counted into [`crate::arena::ScreenCounters`]. The fusion
//! fold (`fuse_weights_from_set`) is shared by both, so a served and
//! an oracle answer can never disagree about the route.

// A hot-path module: every panic site names its invariant
// (docs/INVARIANTS.md, the panic policy).
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::arena::PrototypeArena;
use crate::coeffs::Coeffs;
use crate::confidence::{self, Confidence};
use crate::error::CoreError;
use crate::model::LlmModel;
use crate::query::Query;
use std::cell::RefCell;

thread_local! {
    /// Reusable overlap-set buffer of the oracle: with it a prediction
    /// allocates nothing per query beyond a Q2 list. Thread-local because
    /// a frozen model is read from `&self` by many threads at once.
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

/// Fold a *resolved* overlap set into normalized fusion weights: sum the
/// degrees in slice order, decide degeneracy (an empty set, or a
/// non-empty set whose members are all exactly tangent — zero total
/// weight either way, so the weighted sum can never divide by zero), and
/// hand each `(slot, δ/total)` pair to `f` — or `winner` with weight 1 on
/// the fallback path.
///
/// This is the **single fusion fold** of the crate. The oracle runs it
/// over `(arena index, δ)` pairs ([`fuse_oracle`]); the served path
/// ([`crate::snapshot`]) runs it over the same pairs from the pruned
/// resolution, gathered back into arena order. One
/// function, so the served path replays the exact floating-point
/// operation sequence of the oracle — summation order, degeneracy rule,
/// division — and stays bit-identical to it.
pub(crate) fn fuse_weights_from_set<S: Copy>(
    set: &[(S, f64)],
    winner: S,
    mut f: impl FnMut(S, f64),
) -> FusionInfo {
    let total: f64 = set.iter().map(|(_, d)| d).sum();
    if set.is_empty() || total <= 0.0 {
        f(winner, 1.0);
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

/// **Algorithms 2–3, as printed** — the one arena-level driver of the
/// crate and the oracle every served answer is pinned to. Three steps:
/// the winner `j = argmin_k ‖q − w_k‖` ([`PrototypeArena::winner`]); the
/// overlap neighborhood `W(q) = {k : δ(q, w_k) > 0}` in ascending `k`
/// ([`PrototypeArena::overlap_set_into`], one Eq. 9 degree per
/// prototype); the fusion fold ([`fuse_weights_from_set`]), which hands
/// each `(k, δ̃(q, w_k))` — or `(j, 1)` when `W(q)` carries no weight — to
/// `head`. The head is what tells the predictors apart: `δ̃ · f_k(x, θ)`
/// summed is Q1 (Eq. 11–12), one [`local_model_at`] per member is Q2's
/// list `S` (Theorem 3), `δ̃ · f_k(x, θ_k)` summed is a data value
/// (Eq. 14). The `δ̃`-weighted update count is folded alongside, so the
/// returned [`Confidence`] describes exactly the route `head` saw.
///
/// # Errors
/// [`CoreError::DimensionMismatch`] on a wrong-dimension query, then
/// [`CoreError::EmptyModel`] on an empty arena — the two checks every
/// oracle entry point makes, made here once.
pub(crate) fn fuse_oracle(
    arena: &PrototypeArena,
    rho: f64,
    q: &Query,
    mut head: impl FnMut(usize, f64),
) -> Result<Confidence, CoreError> {
    if q.dim() != arena.dim() {
        return Err(CoreError::DimensionMismatch {
            expected: arena.dim(),
            actual: q.dim(),
        });
    }
    let (winner, winner_sq) = arena
        .winner(&q.center, q.radius)
        .ok_or(CoreError::EmptyModel)?;
    OVERLAP_SCRATCH.with(|scratch| {
        let mut w = scratch.borrow_mut();
        arena.overlap_set_into(&q.center, q.radius, &mut w);
        let mut support_updates = 0.0;
        let info = fuse_weights_from_set(&w, winner, |k, weight| {
            head(k, weight);
            support_updates += weight * arena.updates(k) as f64;
        });
        Ok(confidence::combine(winner_sq, rho, support_updates, info))
    })
}

/// Materialize the Theorem-3 local model of prototype `k` with fusion
/// weight `weight` — the one place the `S`-list element is built, shared
/// by the oracle's and the served Q2 heads so the list construction
/// cannot drift between them. Allocation-free up to the inline capacity
/// of [`Coeffs`].
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
    /// Arena index of the prototype this model comes from.
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
    /// [`fuse_oracle`] over this model's arena.
    pub(crate) fn fuse(
        &self,
        q: &Query,
        head: impl FnMut(usize, f64),
    ) -> Result<Confidence, CoreError> {
        fuse_oracle(self.arena(), self.config().rho(), q, head)
    }

    /// The overlap neighborhood `W(q)` (Eq. 10): indices and degrees of all
    /// prototypes with `δ(q, w_k) > 0`, appended to `out` (cleared first)
    /// in ascending index — one Eq. 9 degree per prototype
    /// ([`crate::arena::PrototypeArena::overlap_set_into`]).
    pub fn overlap_set_into(&self, q: &Query, out: &mut Vec<(usize, f64)>) {
        self.arena().overlap_set_into(&q.center, q.radius, out);
    }

    /// **Algorithm 2 — Q1 query processing.** Predict the mean value `ŷ`
    /// over `D(x, θ)` with zero data access.
    ///
    /// `ŷ = Σ_{w_k ∈ W(q)} δ̃(q, w_k) f_k(x, θ)` (Eq. 11/12); when `W(q)`
    /// is empty the closest prototype extrapolates: `ŷ = f_j(x, θ)`.
    ///
    /// # Errors
    /// [`CoreError::EmptyModel`] on an untrained model,
    /// [`CoreError::DimensionMismatch`] on a wrong-dimension query.
    pub fn predict_q1(&self, q: &Query) -> Result<f64, CoreError> {
        self.predict_q1_with_confidence(q).map(|(yhat, _)| yhat)
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
        let mut s = Vec::new();
        self.fuse(q, |k, weight| {
            s.push(local_model_at(self.arena(), k, weight))
        })?;
        Ok(s)
    }

    /// **Eq. 14 — data-value prediction.** Predict `û ≈ g(x)` for a point
    /// `x` inside the exploration ball `q`:
    /// `û = Σ_{w_k ∈ W(q)} δ̃(q, w_k) f_k(x, θ_k)` — each LLM is evaluated
    /// at its *own* radius, collapsing it to the Theorem-3 line over `D_k`.
    ///
    /// # Errors
    /// Same as [`LlmModel::predict_q1`], plus a dimension check on `x`.
    pub fn predict_value(&self, q: &Query, x: &[f64]) -> Result<f64, CoreError> {
        if x.len() != self.dim() {
            return Err(CoreError::DimensionMismatch {
                expected: self.dim(),
                actual: x.len(),
            });
        }
        let mut uhat = 0.0;
        self.fuse(q, |k, w| uhat += w * self.arena().eval_at_own_radius(k, x))?;
        Ok(uhat)
    }

    /// Convenience: data-value prediction using a point-centered probe ball
    /// of radius `theta` (`q = [x, θ]`), the common exploration pattern in
    /// the paper's A2 experiments.
    pub fn predict_value_at(&self, x: &[f64], theta: f64) -> Result<f64, CoreError> {
        let q = Query::new_unchecked(x.to_vec(), theta);
        self.predict_value(&q, x)
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

    fn overlap_set(m: &LlmModel, q: &Query) -> Vec<(usize, f64)> {
        let mut out = Vec::new();
        m.overlap_set_into(q, &mut out);
        out
    }

    /// Three prototypes in `d = 2`, small enough to fuse by hand:
    ///
    /// | k | `x_k`        | `θ_k` | `y_k` | `b_X`         | `b_Θ` | updates |
    /// |---|--------------|-------|-------|---------------|-------|---------|
    /// | 0 | (0, 0)       | 0.75  | 1     | (2, −1)       | 4     | 3       |
    /// | 1 | (0.625, 0)   | 0.25  | 5     | (0.5, 0.25)   | −2    | 7       |
    /// | 2 | (10, 10)     | 0.25  | −3    | (1, 1)        | 1     | 20      |
    fn three_prototypes() -> LlmModel {
        let proto = |center: [f64; 2], radius, y, b_x: [f64; 2], b_theta, updates| {
            crate::prototype::Prototype {
                center: center.to_vec(),
                radius,
                y,
                b_x: b_x.to_vec(),
                b_theta,
                updates,
            }
        };
        let protos = vec![
            proto([0.0, 0.0], 0.75, 1.0, [2.0, -1.0], 4.0, 3),
            proto([0.625, 0.0], 0.25, 5.0, [0.5, 0.25], -2.0, 7),
            proto([10.0, 10.0], 0.25, -3.0, [1.0, 1.0], 1.0, 20),
        ];
        LlmModel::from_parts(ModelConfig::paper_defaults(2), protos, 30, 0, true).unwrap()
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    /// The oracle against the paper's equations worked out by hand — no
    /// call into the fold, so a change to the normalisation, the
    /// degeneracy rule or a head moves this test and nothing else has to
    /// be believed.
    #[test]
    fn three_prototype_answers_match_the_equations_by_hand() {
        let m = three_prototypes();
        let rho = m.config().rho();
        let probe = q(&[0.25, 0.0], 0.25);
        // Eq. 9, δ = 1 − max(‖x − x_k‖, |θ − θ_k|) / (θ + θ_k):
        //   k = 0: 1 − max(0.25, 0.5) / 1.0   = 0.5
        //   k = 1: 1 − max(0.375, 0)  / 0.5   = 0.25
        //   k = 2: ‖x − x_2‖ ≈ 13.9 > 0.5     → not in W(q)
        assert_eq!(overlap_set(&m, &probe), vec![(0, 0.5), (1, 0.25)]);
        // Normalised (Eq. 11): δ̃ = δ / 0.75 = 2/3 and 1/3.
        let (w0, w1) = (2.0 / 3.0, 1.0 / 3.0);
        // Eq. 5 / 12, f_k(x, θ) = y_k + b_X (x − x_k)ᵀ + b_Θ (θ − θ_k):
        //   f_0 = 1 + 2(0.25) − 1(0) + 4(0.25 − 0.75)    = −0.5
        //   f_1 = 5 + 0.5(0.25 − 0.625) + 0.25(0) − 2(0) = 4.8125
        let yhat = m.predict_q1(&probe).unwrap();
        assert!(close(yhat, w0 * -0.5 + w1 * 4.8125), "ŷ = {yhat}");
        assert!(close(yhat, 3.8125 / 3.0));
        // Theorem 3, the line over D_k: intercept y_k − b_X x_kᵀ, slope b_X:
        //   k = 0: 1 − 0                    = 1       slope (2, −1)
        //   k = 1: 5 − (0.5·0.625 + 0.25·0) = 4.6875  slope (0.5, 0.25)
        let s = m.predict_q2(&probe).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].prototype, s[0].intercept), (0, 1.0));
        assert_eq!(
            (&s[0].slope[..], &s[0].center[..]),
            (&[2.0, -1.0][..], &[0.0, 0.0][..])
        );
        assert_eq!((s[1].prototype, s[1].intercept), (1, 4.6875));
        assert_eq!(
            (&s[1].slope[..], &s[1].center[..]),
            (&[0.5, 0.25][..], &[0.625, 0.0][..])
        );
        assert_eq!((s[0].radius, s[1].radius), (0.75, 0.25));
        assert!(close(s[0].weight, w0) && close(s[1].weight, w1));
        // Eq. 14 at x = (0.5, 0.5), each LLM at its own radius:
        //   f_0 = 1 + 2(0.5) − 1(0.5)                   = 1.5
        //   f_1 = 5 + 0.5(0.5 − 0.625) + 0.25(0.5)      = 5.0625
        let uhat = m.predict_value(&probe, &[0.5, 0.5]).unwrap();
        assert!(close(uhat, w0 * 1.5 + w1 * 5.0625), "û = {uhat}");
        assert!(close(uhat, 2.6875));
        // The confidence axes of that route: mass Σδ = 0.75, support
        // 2/3·3 + 1/3·7, and the winner is k = 1 (joint² 0.375² against
        // 0.25² + 0.5²).
        let c = m.confidence(&probe).unwrap();
        assert_eq!(m.winner(&probe), Some((1, 0.140625)));
        assert!(c.fused);
        assert_eq!(c.overlap_mass, 0.75);
        assert!(close(c.support_updates, 13.0 / 3.0));
        assert!(close(c.winner_distance_ratio, 0.375 / rho));
        assert_eq!(m.predict_q1_with_confidence(&probe).unwrap(), (yhat, c));

        // The two fallbacks end at the winner with weight 1. *Empty*
        // `W(q)`: nothing within reach of (5, 5); k = 1 is nearest.
        // *All tangent*: ‖x − x_1‖ = 0.5 = θ + θ_1 exactly, so δ_1 = 0,
        // and ball 0 is out of reach (1.125 > 1.0).
        //   empty:   f_1 = 5 + 0.5(5 − 0.625) + 0.25(5)   = 8.4375
        //   tangent: f_1 = 5 + 0.5(1.125 − 0.625)         = 5.25
        for (probe, f1) in [
            (q(&[5.0, 5.0], 0.25), 8.4375),
            (q(&[1.125, 0.0], 0.25), 5.25),
        ] {
            assert!(overlap_set(&m, &probe).is_empty());
            assert_eq!(m.winner(&probe).unwrap().0, 1);
            assert_eq!(m.predict_q1(&probe).unwrap(), f1);
            let s = m.predict_q2(&probe).unwrap();
            assert_eq!(s.len(), 1);
            assert_eq!(
                (s[0].prototype, s[0].weight, s[0].intercept),
                (1, 1.0, 4.6875)
            );
            assert_eq!(m.predict_value(&probe, &[0.5, 0.5]).unwrap(), 5.0625);
            let c = m.confidence(&probe).unwrap();
            assert_eq!(
                (c.fused, c.overlap_mass, c.support_updates),
                (false, 0.0, 7.0)
            );
            assert_eq!(m.predict_q1_with_confidence(&probe).unwrap(), (f1, c));
        }
    }

    #[test]
    fn fusion_fallback_decision_covers_the_non_empty_all_tangent_set() {
        // The non-empty zero-total-weight case cannot be reached end to
        // end today (`overlap_set_into` filters δ = 0 members), so the
        // decision is pinned on the shared fold directly: a non-empty but
        // all-tangent set must take the winner-with-weight-1 fallback,
        // never the weighted fusion — exactly like the empty set.
        let mut calls = Vec::new();
        let info = fuse_weights_from_set(&[], 7usize, |k, w| calls.push((k, w)));
        assert_eq!((calls, info.fused, info.mass), (vec![(7, 1.0)], false, 0.0));
        // Any positive mass, however small, fuses.
        let mut calls = Vec::new();
        let info = fuse_weights_from_set(&[(2usize, 1e-300)], 7, |k, w| calls.push((k, w)));
        assert_eq!(
            (calls, info.fused, info.mass),
            (vec![(2, 1.0)], true, 1e-300)
        );
        // The non-empty all-tangent set (zero total weight) falls back.
        let mut calls = Vec::new();
        let info = fuse_weights_from_set(&[(0, 0.0), (3, 0.0)], 7, |k, w| calls.push((k, w)));
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
        assert!(overlap_set(&m, &far).is_empty());
        let pred = m.predict_q1(&far).unwrap();
        assert!(pred.is_finite());
        let s = m.predict_q2(&far).unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].weight, 1.0);
    }

    #[test]
    fn bigger_radius_overlaps_more_prototypes() {
        let m = trained_linear_model(29);
        let small = overlap_set(&m, &q(&[0.5, 0.5], 0.05)).len();
        let large = overlap_set(&m, &q(&[0.5, 0.5], 0.5)).len();
        assert!(large >= small);
        assert!(large >= 2, "large ball should overlap several prototypes");
    }

    #[test]
    fn s_list_size_tracks_overlap_count() {
        let m = trained_linear_model(31);
        let query = q(&[0.5, 0.5], 0.3);
        let w = overlap_set(&m, &query).len();
        let s = m.predict_q2(&query).unwrap();
        assert_eq!(s.len(), w);
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
    fn overlap_set_into_clears_the_buffer_it_reuses() {
        let m = trained_linear_model(47);
        let mut buf = vec![(99usize, 0.0)];
        m.overlap_set_into(&q(&[0.5, 0.5], 0.2), &mut buf);
        assert!(!buf.is_empty() && !buf.contains(&(99, 0.0)));
        // A second query through the same buffer clears the first result.
        let far = q(&[5.0, 5.0], 0.01);
        m.overlap_set_into(&far, &mut buf);
        assert!(buf.is_empty());
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
