//! Prediction-confidence assessment (paper desideratum **D2**: "can the
//! system provide these linear regression models … *with high
//! confidence*?").
//!
//! The model can always produce a number — even for a query ball in a
//! region no analyst ever explored (Algorithm 2's closest-prototype
//! fallback). A serving layer needs to know *when to trust it*. This
//! extension scores each query on three interpretable axes:
//!
//! * **overlap mass** — the raw (unnormalized) `Σ δ(q, w_k)` over `W(q)`:
//!   how much of the query ball is covered by learned subspaces;
//! * **support maturity** — the `δ̃`-weighted SGD update count of the
//!   contributing prototypes: how well-trained the local models are;
//! * **proximity** — the joint distance to the winner relative to the
//!   vigilance `ρ`: beyond `ρ` the answer is an extrapolation.
//!
//! The combined `score ∈ [0, 1]` is a *heuristic* (the paper does not
//! define one); its component axes are exact model quantities, and the
//! tests pin the monotonicity properties that make it usable for
//! serve-or-fall-back-to-DBMS routing.
//!
//! # Route consistency
//!
//! The assessment comes out of the **same fusion driver** the prediction
//! algorithms run (`predict::fuse_oracle` folds the support alongside the
//! answer; the served heads of [`crate::snapshot`] do the same), not from
//! a parallel re-scan of the prototype set. The two can therefore never
//! disagree about the path taken: whenever the served
//! answer falls back to the winner prototype — empty `W(q)`, or the
//! zero-total-weight case where every member of a non-empty overlap set is
//! exactly tangent to the query ball — [`Confidence::fused`] is `false`,
//! `overlap_mass` is 0 and `support_updates` is the winner's update count,
//! matching what the prediction actually used.

// A hot-path module: every panic site names its invariant
// (docs/INVARIANTS.md, the panic policy).
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::error::CoreError;
use crate::model::LlmModel;
use crate::predict::FusionInfo;
use crate::query::Query;

/// Update count at which a prototype is considered half-mature.
const MATURITY_HALF_LIFE: f64 = 20.0;

/// Confidence breakdown for one query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Confidence {
    /// Raw overlap mass `Σ δ(q, w_k)` over the fused neighborhood (0 when
    /// the prediction fell back to the winner prototype).
    pub overlap_mass: f64,
    /// `δ̃`-weighted mean update count of contributing prototypes (the
    /// winner's count on the fallback path).
    pub support_updates: f64,
    /// Joint distance to the winner divided by the vigilance `ρ`
    /// (> 1 means the answer extrapolates beyond the quantization cell).
    pub winner_distance_ratio: f64,
    /// `true` when the prediction fused `W(q)` with normalized weights;
    /// `false` when it extrapolated from the winner prototype (the
    /// serve-path fallback — empty or all-tangent overlap set).
    pub fused: bool,
    /// Combined score in `[0, 1]`.
    pub score: f64,
}

/// Fold the three axes into a [`Confidence`] (shared by the oracle and
/// the served heads so the heuristic is combined identically
/// everywhere).
pub(crate) fn combine(
    winner_sq: f64,
    rho: f64,
    support_updates: f64,
    info: FusionInfo,
) -> Confidence {
    let winner_distance_ratio = winner_sq.sqrt() / rho;
    // Heuristic combination: each axis maps to [0, 1] and the score is
    // their product, with a floor on the mass term so a mature, nearby
    // winner still yields a usable (if discounted) score on the fallback
    // path.
    let mass_term = info.mass / (1.0 + info.mass);
    let maturity = support_updates / (support_updates + MATURITY_HALF_LIFE);
    let proximity = 1.0 / (1.0 + (winner_distance_ratio - 1.0).max(0.0));
    let score = (0.25 + 0.75 * mass_term) * maturity * proximity;
    Confidence {
        overlap_mass: info.mass,
        support_updates,
        winner_distance_ratio,
        fused: info.fused,
        score: score.clamp(0.0, 1.0),
    }
}

impl LlmModel {
    /// Assess prediction confidence for a query (extension; see module
    /// docs for the axes and the heuristic combination).
    ///
    /// # Errors
    /// [`CoreError::EmptyModel`] on an untrained model;
    /// [`CoreError::DimensionMismatch`] on a wrong-dimension query.
    pub fn confidence(&self, q: &Query) -> Result<Confidence, CoreError> {
        self.fuse(q, |_, _| {})
    }

    /// Predict Q1 together with its confidence, resolving the overlap
    /// neighborhood **once** (a routing layer scores and serves from the
    /// same scan).
    ///
    /// # Errors
    /// Same as [`LlmModel::predict_q1`].
    pub fn predict_q1_with_confidence(&self, q: &Query) -> Result<(f64, Confidence), CoreError> {
        let mut yhat = 0.0;
        let confidence = self.fuse(q, |k, w| {
            yhat += w * self.arena().eval(k, &q.center, q.radius);
        })?;
        Ok((yhat, confidence))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn trained(seed: u64) -> LlmModel {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cfg = ModelConfig::with_vigilance(2, 0.15);
        cfg.gamma = 1e-3;
        let mut m = LlmModel::new(cfg).unwrap();
        let stream = (0..30_000).map(|_| {
            let c: Vec<f64> = (0..2).map(|_| rng.random_range(0.0..1.0)).collect();
            let y = c[0] + c[1];
            (Query::new_unchecked(c, rng.random_range(0.05..0.15)), y)
        });
        m.fit_stream(stream).unwrap();
        m
    }

    fn q(center: &[f64], r: f64) -> Query {
        Query::new_unchecked(center.to_vec(), r)
    }

    #[test]
    fn in_distribution_queries_score_high() {
        let m = trained(1);
        // Probe at a mature prototype's own ball: overlap is guaranteed
        // (δ = 1 for the coincident prototype) and support is maximal.
        let protos = m.prototypes();
        let p = protos
            .iter()
            .max_by_key(|p| p.updates)
            .expect("trained model");
        let c = m.confidence(&q(&p.center, p.radius)).unwrap();
        assert!(c.overlap_mass >= 1.0 - 1e-9, "mass {}", c.overlap_mass);
        assert!(c.score > 0.4, "score {}", c.score);
        assert!(c.winner_distance_ratio < 1.0);
    }

    #[test]
    fn far_extrapolation_scores_low() {
        let m = trained(2);
        let near = m.confidence(&q(&[0.5, 0.5], 0.1)).unwrap();
        let far = m.confidence(&q(&[30.0, 30.0], 0.1)).unwrap();
        assert_eq!(far.overlap_mass, 0.0);
        assert!(far.winner_distance_ratio > 1.0);
        assert!(
            far.score < near.score / 3.0,
            "near {} far {}",
            near.score,
            far.score
        );
    }

    #[test]
    fn score_decreases_monotonically_with_distance() {
        let m = trained(3);
        let mut last = f64::INFINITY;
        for step in 0..6 {
            let x = 0.5 + step as f64 * 2.0;
            let c = m.confidence(&q(&[x, 0.5], 0.1)).unwrap();
            assert!(
                c.score <= last + 1e-12,
                "score rose at x = {x}: {} > {last}",
                c.score
            );
            last = c.score;
        }
    }

    #[test]
    fn fresh_prototype_support_is_flagged_immature() {
        let mut m = LlmModel::new(ModelConfig::paper_defaults(2)).unwrap();
        m.train_step(&q(&[0.5, 0.5], 0.1), 1.0).unwrap();
        let c = m.confidence(&q(&[0.5, 0.5], 0.1)).unwrap();
        // A single-update prototype: maturity term ~ 1/21.
        assert!(c.support_updates <= 1.0 + 1e-9);
        assert!(c.score < 0.1, "score {}", c.score);
    }

    #[test]
    fn predict_with_confidence_matches_parts() {
        let m = trained(4);
        let query = q(&[0.4, 0.6], 0.1);
        let (y, c) = m.predict_q1_with_confidence(&query).unwrap();
        assert_eq!(y, m.predict_q1(&query).unwrap());
        assert_eq!(c, m.confidence(&query).unwrap());
    }

    #[test]
    fn fused_flag_tracks_the_fusion_path() {
        let m = trained(8);
        let protos = m.prototypes();
        let p = protos.iter().max_by_key(|p| p.updates).unwrap();
        let near = m.confidence(&q(&p.center, p.radius)).unwrap();
        assert!(near.fused, "coincident probe must fuse");
        let far = m.confidence(&q(&[40.0, -40.0], 0.05)).unwrap();
        assert!(!far.fused, "empty W(q) must report the fallback route");
        assert_eq!(far.overlap_mass, 0.0);
    }

    #[test]
    fn errors_mirror_prediction_errors() {
        let m = trained(5);
        assert!(matches!(
            m.confidence(&q(&[0.5], 0.1)),
            Err(CoreError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn score_is_always_in_unit_interval() {
        let m = trained(6);
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..200 {
            let c: Vec<f64> = (0..2).map(|_| rng.random_range(-5.0..5.0)).collect();
            let conf = m
                .confidence(&Query::new_unchecked(c, rng.random_range(0.01..2.0)))
                .unwrap();
            assert!((0.0..=1.0).contains(&conf.score));
        }
    }
}
