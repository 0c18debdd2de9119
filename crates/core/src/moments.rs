//! Extension E-1 — prediction of high-order moments (the paper's
//! conclusion lists this as future work).
//!
//! A [`MomentsModel`] is one LLM head trained on the *centered* second
//! moment `Var[u | D(x,θ)]`, which the exact engine yields at no extra
//! cost (`regq_exact::q1_moments`). Training on the variance directly,
//! rather than on `E[u²]` less a predicted `mean²`, keeps the target well
//! conditioned when `mean² ≫ var`.
//!
//! Theorem 4's prototype motion `Δw_j = η(q − w_j)` has no `y` term, so
//! the head grows the codebook of the Q1 model driven by the same queries
//! — that model learns the mean. The head trains through the ordinary
//! [`LlmModel::train_step`] and steps, converges and freezes like every
//! other model.

use crate::config::ModelConfig;
use crate::error::CoreError;
use crate::model::LlmModel;
use crate::query::Query;

/// Variance predictor over data subspaces: one [`LlmModel`] head trained
/// on the conditional variance.
#[derive(Debug, Clone)]
pub struct MomentsModel {
    head: LlmModel,
}

/// A pair of exact conditional moments used as the training signal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MomentPair {
    /// `E[u | D(x,θ)]` — the Q1 answer: the Q1 model's target. The
    /// variance head does not read it.
    pub mean: f64,
    /// `Var[u | D(x,θ)]` — the centered second moment.
    pub variance: f64,
}

impl MomentsModel {
    /// Create an untrained moments model.
    ///
    /// # Errors
    /// [`CoreError::InvalidConfig`] on invalid configuration.
    pub fn new(config: ModelConfig) -> Result<Self, CoreError> {
        Ok(MomentsModel {
            head: LlmModel::new(config)?,
        })
    }

    /// One [`LlmModel::train_step`] of the head on `(q, m.variance)`.
    /// Returns `true` once the head's convergence criterion froze it.
    ///
    /// # Errors
    /// Those of [`LlmModel::train_step`], frozen or not. The head is the
    /// only state, so a failing step changes nothing.
    pub fn train_step(&mut self, q: &Query, m: MomentPair) -> Result<bool, CoreError> {
        Ok(self.head.train_step(q, m.variance)?.converged)
    }

    /// Predict the conditional variance for an unseen query (clamped
    /// non-negative).
    ///
    /// # Errors
    /// Same as [`LlmModel::predict_q1`].
    pub fn predict(&self, q: &Query) -> Result<f64, CoreError> {
        Ok(self.head.predict_q1(q)?.max(0.0))
    }

    /// The variance head (full Q1/Q2 interface available on it).
    pub fn head(&self) -> &LlmModel {
        &self.head
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
            let (mean, variance) = (c[0], 0.04 + 0.05 * c[1]);
            let q = Query::new_unchecked(c, rng.random_range(0.05..0.15));
            if m.train_step(&q, MomentPair { mean, variance }).unwrap() {
                break;
            }
        }
        m
    }

    fn pair(variance: f64) -> MomentPair {
        MomentPair {
            mean: 1.0,
            variance,
        }
    }

    #[test]
    fn predicts_the_conditional_variance() {
        let m = train_moments(7);
        assert!(m.head().k() > 1);
        let v = m
            .predict(&Query::new_unchecked(vec![0.5, 0.5], 0.1))
            .unwrap();
        let true_var = 0.04 + 0.05 * 0.5;
        assert!((v - true_var).abs() < 0.05, "variance {v} vs {true_var}");
    }

    #[test]
    fn variance_tracks_heteroscedasticity() {
        let m = train_moments(9);
        let at = |x2| {
            m.predict(&Query::new_unchecked(vec![0.5, x2], 0.1))
                .unwrap()
        };
        let (lo, hi) = (at(0.1), at(0.9));
        assert!(hi > lo, "variance should grow with x2: {lo} vs {hi}");
    }

    #[test]
    fn variance_is_never_negative() {
        let m = train_moments(11);
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..100 {
            let c: Vec<f64> = (0..2).map(|_| rng.random_range(-2.0..3.0)).collect();
            let q = Query::new_unchecked(c, rng.random_range(0.01..1.0));
            assert!(m.predict(&q).unwrap() >= 0.0);
        }
    }

    #[test]
    fn untrained_model_errors() {
        let m = MomentsModel::new(ModelConfig::paper_defaults(1)).unwrap();
        assert!(m.predict(&Query::new_unchecked(vec![0.0], 0.1)).is_err());
    }

    #[test]
    fn a_non_finite_variance_changes_nothing() {
        let mut m = MomentsModel::new(ModelConfig::with_vigilance(2, 0.1)).unwrap();
        let q = Query::new_unchecked(vec![0.2, 0.3], 0.1);
        m.train_step(&q, pair(0.5)).unwrap();
        // Every field's Debug form: K, the step count, the quiet window
        // and every parameter (a finite f64 prints as its exact value).
        let before = format!("{m:?}");
        // Far from the one prototype: a step would spawn a second.
        let far = Query::new_unchecked(vec![0.9, 0.9], 0.1);
        let got = m.train_step(&far, pair(f64::NAN));
        assert!(matches!(got, Err(CoreError::NonFinite { .. })), "{got:?}");
        assert_eq!(format!("{m:?}"), before);
    }

    #[test]
    fn a_frozen_model_rejects_what_llm_model_rejects() {
        // γ this large makes every step quiet: both freeze as the window
        // closes.
        let mut cfg = ModelConfig::with_vigilance(2, 0.1);
        cfg.gamma = 1e9;
        let mut m = MomentsModel::new(cfg.clone()).unwrap();
        let mut llm = LlmModel::new(cfg).unwrap();
        let q = Query::new_unchecked(vec![0.5, 0.5], 0.1);
        for _ in 0..=llm.config().convergence_window {
            let converged = llm.train_step(&q, 0.5).unwrap().converged;
            assert_eq!(m.train_step(&q, pair(0.5)), Ok(converged));
        }
        assert!(m.head().is_frozen() && llm.is_frozen());
        let wide = Query::new_unchecked(vec![0.5; 3], 0.1);
        let mismatch = CoreError::DimensionMismatch {
            expected: 2,
            actual: 3,
        };
        let nan = CoreError::NonFinite {
            location: "train_step input",
        };
        for (q, v, err) in [(&wide, 0.5, mismatch), (&q, f64::NAN, nan)] {
            assert_eq!(llm.train_step(q, v).map(|o| o.converged), Err(err.clone()));
            assert_eq!(m.train_step(q, pair(v)), Err(err));
        }
        assert_eq!(m.train_step(&q, pair(0.5)), Ok(true));
    }
}
