//! Extension E-1 — prediction of high-order moments (the paper's
//! conclusion lists this as future work).
//!
//! A [`MomentsModel`] trains two LLM heads on the same query stream: the
//! standard head on the Q1 answer `y = E[u | D(x,θ)]` and a second head on
//! the *centered* second moment `Var[u | D(x,θ)]` (available from the
//! exact engine at no extra cost — see `regq_exact::q1_moments`).
//!
//! Training on the variance directly, rather than on `E[u²]` with a
//! subtraction at prediction time, keeps the target well conditioned:
//! when `mean² ≫ var`, small errors in either head would otherwise
//! dominate the difference.
//!
//! Because the quantizer's prototype motion depends **only on the query
//! vector** (Theorem 4's `Δw_j = η(q − w_j)` has no `y` term), the two
//! heads driven by the same query sequence maintain *identical* codebooks.

use crate::config::ModelConfig;
use crate::error::CoreError;
use crate::model::LlmModel;
use crate::query::Query;

/// Mean + second-moment predictor over data subspaces.
#[derive(Debug, Clone)]
pub struct MomentsModel {
    mean: LlmModel,
    second: LlmModel,
    /// Joint convergence accounting: the heads must freeze *together* or
    /// their codebooks would desynchronize (a frozen head stops moving its
    /// prototypes while the other keeps training).
    quiet_steps: usize,
}

/// A pair of exact conditional moments used as the training signal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MomentPair {
    /// `E[u | D(x,θ)]` — the Q1 answer.
    pub mean: f64,
    /// `Var[u | D(x,θ)]` — the centered second moment.
    pub variance: f64,
}

/// Predicted conditional moments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredictedMoments {
    /// Predicted mean `ŷ`.
    pub mean: f64,
    /// Predicted raw second moment `variance + mean²`.
    pub second: f64,
    /// Predicted variance (clamped non-negative).
    pub variance: f64,
}

impl MomentsModel {
    /// Create an untrained moments model.
    ///
    /// # Errors
    /// [`CoreError::InvalidConfig`] on invalid configuration.
    pub fn new(config: ModelConfig) -> Result<Self, CoreError> {
        Ok(MomentsModel {
            mean: LlmModel::new(config.clone())?,
            second: LlmModel::new(config)?,
            quiet_steps: 0,
        })
    }

    /// One training step on `(q, E[u], E[u²])`. Returns `true` once the
    /// joint convergence criterion froze both heads.
    ///
    /// # Errors
    /// Propagates [`LlmModel::train_step`] errors; both heads are updated
    /// or neither (the first failing head aborts before the second is
    /// touched, and head-one failures are input-validation only, which
    /// would equally fail head two).
    pub fn train_step(&mut self, q: &Query, m: MomentPair) -> Result<bool, CoreError> {
        if self.mean.is_frozen() {
            return Ok(true);
        }
        let a = self.mean.train_step_plastic(q, m.mean)?;
        let b = self.second.train_step_plastic(q, m.variance)?;
        debug_assert_eq!(a.winner, b.winner, "heads must share the codebook");
        debug_assert_eq!(a.spawned, b.spawned, "heads must share the codebook");
        // Joint Γ over both heads: the codebook displacement is shared and
        // the coefficient displacement is the worse of the two heads.
        let gamma = a.gamma_j.max(a.gamma_h).max(b.gamma_j.max(b.gamma_h));
        let cfg = self.mean.config();
        if gamma <= cfg.gamma {
            self.quiet_steps += 1;
            if self.quiet_steps >= cfg.convergence_window {
                self.mean.freeze();
                self.second.freeze();
                return Ok(true);
            }
        } else {
            self.quiet_steps = 0;
        }
        Ok(false)
    }

    /// Predict mean, second moment and variance for an unseen query.
    ///
    /// # Errors
    /// Same as [`LlmModel::predict_q1`].
    pub fn predict(&self, q: &Query) -> Result<PredictedMoments, CoreError> {
        let mean = self.mean.predict_q1(q)?;
        let variance = self.second.predict_q1(q)?.max(0.0);
        Ok(PredictedMoments {
            mean,
            second: variance + mean * mean,
            variance,
        })
    }

    /// The mean head (full Q1/Q2 interface available on it).
    pub fn mean_head(&self) -> &LlmModel {
        &self.mean
    }

    /// The variance head.
    pub fn second_head(&self) -> &LlmModel {
        &self.second
    }

    /// Prototype count (identical across heads by construction).
    pub fn k(&self) -> usize {
        self.mean.k()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// Teacher: u | q ~ has mean = x1 and variance = 0.04 + 0.05 x2
    /// (heteroscedastic).
    fn train_moments(seed: u64) -> MomentsModel {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cfg = ModelConfig::paper_defaults(2);
        cfg.gamma = 1e-4;
        let mut m = MomentsModel::new(cfg).unwrap();
        for _ in 0..40_000 {
            let c: Vec<f64> = (0..2).map(|_| rng.random_range(0.0..1.0)).collect();
            let mean = c[0];
            let var = 0.04 + 0.05 * c[1];
            let pair = MomentPair {
                mean,
                variance: var,
            };
            let q = Query::new_unchecked(c, rng.random_range(0.05..0.15));
            if m.train_step(&q, pair).unwrap() {
                break;
            }
        }
        m
    }

    #[test]
    fn heads_share_codebook_size() {
        let m = train_moments(3);
        assert_eq!(m.mean_head().k(), m.second_head().k());
        assert!(m.k() > 1);
    }

    #[test]
    fn heads_share_prototype_positions() {
        let m = train_moments(5);
        for (a, b) in m
            .mean_head()
            .prototypes()
            .iter()
            .zip(m.second_head().prototypes().iter())
        {
            assert_eq!(a.center, b.center);
            assert_eq!(a.radius, b.radius);
            assert_eq!(a.updates, b.updates);
        }
    }

    #[test]
    fn predicts_mean_and_variance() {
        let m = train_moments(7);
        let q = Query::new_unchecked(vec![0.5, 0.5], 0.1);
        let p = m.predict(&q).unwrap();
        assert!((p.mean - 0.5).abs() < 0.1, "mean {}", p.mean);
        let true_var = 0.04 + 0.05 * 0.5;
        assert!(
            (p.variance - true_var).abs() < 0.05,
            "variance {} vs {}",
            p.variance,
            true_var
        );
    }

    #[test]
    fn variance_tracks_heteroscedasticity() {
        let m = train_moments(9);
        let lo = m
            .predict(&Query::new_unchecked(vec![0.5, 0.1], 0.1))
            .unwrap()
            .variance;
        let hi = m
            .predict(&Query::new_unchecked(vec![0.5, 0.9], 0.1))
            .unwrap()
            .variance;
        assert!(hi > lo, "variance should grow with x2: {lo} vs {hi}");
    }

    #[test]
    fn variance_is_never_negative() {
        let m = train_moments(11);
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..100 {
            let c: Vec<f64> = (0..2).map(|_| rng.random_range(-2.0..3.0)).collect();
            let q = Query::new_unchecked(c, rng.random_range(0.01..1.0));
            assert!(m.predict(&q).unwrap().variance >= 0.0);
        }
    }

    #[test]
    fn untrained_model_errors() {
        let m = MomentsModel::new(ModelConfig::paper_defaults(1)).unwrap();
        assert!(m.predict(&Query::new_unchecked(vec![0.0], 0.1)).is_err());
    }
}
