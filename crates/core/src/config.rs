//! Model configuration: vigilance, convergence threshold, schedule.

use crate::error::CoreError;
use crate::schedule::LearningSchedule;

/// How the LLM slope coefficients `(b_X, b_Θ)` are stepped (design
/// decision D-8, stated here).
///
/// Theorem 4's raw rule `Δb = η e (q − w)` scales the effective slope
/// learning rate by `‖q − w‖²` — with unit-normalized workloads that is
/// ~10⁻², so slopes would need orders of magnitude more updates than the
/// paper's training sizes provide. The normalized variant (NLMS,
/// `Δb = η e (q − w)/(ε + ‖q − w‖²)`) is scale-free and reproduces the
/// paper's reported behaviour (Fig. 5 local lines matching `g`'s slopes
/// within thousands of training pairs); it is the default. `Raw` is kept
/// for the ablation bench.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SlopeUpdate {
    /// Normalized LMS step (default): `Δb = η e (q−w)/(ε + ‖q−w‖²)`.
    Normalized {
        /// Regularizer `ε` preventing blow-up for near-coincident queries.
        epsilon: f64,
    },
    /// Theorem 4 verbatim: `Δb = η e (q−w)`.
    Raw,
}

impl Default for SlopeUpdate {
    fn default() -> Self {
        SlopeUpdate::Normalized { epsilon: 1e-3 }
    }
}

/// Configuration of an [`LlmModel`](crate::model::LlmModel).
#[derive(Debug, Clone, PartialEq)]
pub struct ModelConfig {
    /// Input dimensionality `d` of the data space.
    pub dim: usize,
    /// Vigilance percentage coefficient `a ∈ (0, 1]` (§IV): the vigilance
    /// radius is `ρ = a(√d + 1)` unless overridden. Paper default: 0.25.
    pub vigilance_coeff: f64,
    /// Explicit vigilance radius `ρ` overriding the `a(√d+1)` formula —
    /// used when query/feature ranges are not `[0, 1]`-normalized (e.g. the
    /// Rosenbrock domain `[-10, 10]^d`, where `ρ` must scale with the range).
    pub vigilance_override: Option<f64>,
    /// Convergence threshold `γ` on `Γ = max(Γ_J, Γ_H)` (Algorithm 1).
    /// Paper default: 0.01.
    pub gamma: f64,
    /// Number of *consecutive* steps with `Γ ≤ γ` required to declare
    /// convergence. The paper stops at the first such step (window = 1)
    /// but does not fully specify its Γ bookkeeping (its Fig. 6 x-axis is
    /// in units of 10 pairs, suggesting windowed evaluation — design
    /// decision D-7); the default of 10 makes the stop robust to a lucky
    /// run of near-duplicate queries. Set to 1 for strict Algorithm-1
    /// behaviour.
    pub convergence_window: usize,
    /// SGD learning-rate schedule (§II-B).
    pub schedule: LearningSchedule,
    /// Slope update rule (D-8): normalized (default) or Theorem-4 raw.
    pub slope_update: SlopeUpdate,
    /// Robbins–Monro power `p ∈ (0.5, 1]` of the LLM-coefficient learning
    /// rate `η_c = 1/(1+t)^p` (D-8). The quantizer always uses `p = 1`;
    /// coefficients default to `p = 0.6` so they equilibrate on the faster
    /// timescale relative to the prototype motion. `p = 1` recovers the
    /// paper's single shared schedule.
    pub coeff_rate_power: f64,
}

impl ModelConfig {
    /// Paper-default configuration for input dimension `d`
    /// (`a = 0.25`, `γ = 0.01`, hyperbolic schedule).
    pub fn paper_defaults(dim: usize) -> Self {
        ModelConfig {
            dim,
            vigilance_coeff: 0.25,
            vigilance_override: None,
            gamma: 0.01,
            convergence_window: 10,
            schedule: LearningSchedule::default(),
            slope_update: SlopeUpdate::default(),
            coeff_rate_power: 0.6,
        }
    }

    /// Same defaults with a different vigilance coefficient `a`.
    pub fn with_vigilance(dim: usize, a: f64) -> Self {
        ModelConfig {
            vigilance_coeff: a,
            ..Self::paper_defaults(dim)
        }
    }

    /// Defaults with the vigilance expressed as percentages of explicit
    /// per-dimension value ranges (paper §IV: `ρ = ‖[a₁,…,a_d]‖₂ + a_θ`
    /// with `a_i = a · range_i`). For unit ranges this reduces to the
    /// `a(√d + 1)` formula; for domains like Rosenbrock's `[-10, 10]^d`
    /// it keeps the quantization resolution scale-equivariant.
    ///
    /// # Panics
    /// Panics when `ranges.len() != dim` or any range is non-positive.
    pub fn with_vigilance_ranges(dim: usize, a: f64, ranges: &[f64], theta_range: f64) -> Self {
        assert_eq!(ranges.len(), dim, "one range per input dimension");
        assert!(
            ranges.iter().all(|r| *r > 0.0) && theta_range > 0.0,
            "ranges must be positive"
        );
        let scaled: f64 = ranges.iter().map(|r| (a * r) * (a * r)).sum::<f64>().sqrt();
        ModelConfig {
            vigilance_coeff: a,
            vigilance_override: Some(scaled + a * theta_range),
            ..Self::paper_defaults(dim)
        }
    }

    /// The effective vigilance radius `ρ`.
    ///
    /// `ρ = a(√d + 1)` (§IV, with all per-dimension percentages equal) or
    /// the explicit override.
    pub fn rho(&self) -> f64 {
        self.vigilance_override
            .unwrap_or_else(|| self.vigilance_coeff * ((self.dim as f64).sqrt() + 1.0))
    }

    /// Validate all parameters.
    ///
    /// # Errors
    /// [`CoreError::InvalidConfig`] describing the violated constraint.
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.dim == 0 {
            return Err(CoreError::InvalidConfig("dim must be >= 1".into()));
        }
        if !(self.vigilance_coeff > 0.0 && self.vigilance_coeff <= 1.0) {
            return Err(CoreError::InvalidConfig(format!(
                "vigilance coefficient a must be in (0, 1], got {}",
                self.vigilance_coeff
            )));
        }
        if let Some(rho) = self.vigilance_override {
            if !(rho > 0.0 && rho.is_finite()) {
                return Err(CoreError::InvalidConfig(format!(
                    "vigilance override must be positive and finite, got {rho}"
                )));
            }
        }
        if !(self.gamma > 0.0 && self.gamma.is_finite()) {
            return Err(CoreError::InvalidConfig(format!(
                "gamma must be positive, got {}",
                self.gamma
            )));
        }
        if self.convergence_window == 0 {
            return Err(CoreError::InvalidConfig(
                "convergence window must be >= 1".into(),
            ));
        }
        if let SlopeUpdate::Normalized { epsilon } = self.slope_update {
            if !(epsilon > 0.0 && epsilon.is_finite()) {
                return Err(CoreError::InvalidConfig(format!(
                    "NLMS epsilon must be positive and finite, got {epsilon}"
                )));
            }
        }
        if !(self.coeff_rate_power > 0.5 && self.coeff_rate_power <= 1.0) {
            return Err(CoreError::InvalidConfig(format!(
                "coefficient rate power must lie in (0.5, 1], got {}",
                self.coeff_rate_power
            )));
        }
        self.schedule.validate().map_err(CoreError::InvalidConfig)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rho_formula_matches_paper() {
        // a = 0.25, d = 4: ρ = 0.25 * (2 + 1) = 0.75.
        let c = ModelConfig::with_vigilance(4, 0.25);
        assert!((c.rho() - 0.75).abs() < 1e-12);
        // d = 1: ρ = a * 2.
        let c = ModelConfig::with_vigilance(1, 0.5);
        assert!((c.rho() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn override_takes_precedence() {
        let mut c = ModelConfig::paper_defaults(2);
        c.vigilance_override = Some(3.5);
        assert_eq!(c.rho(), 3.5);
    }

    #[test]
    fn paper_defaults_validate() {
        assert!(ModelConfig::paper_defaults(5).validate().is_ok());
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut c = ModelConfig::paper_defaults(2);
        c.dim = 0;
        assert!(c.validate().is_err());

        let mut c = ModelConfig::paper_defaults(2);
        c.vigilance_coeff = 0.0;
        assert!(c.validate().is_err());
        c.vigilance_coeff = 1.5;
        assert!(c.validate().is_err());

        let mut c = ModelConfig::paper_defaults(2);
        c.gamma = 0.0;
        assert!(c.validate().is_err());

        let mut c = ModelConfig::paper_defaults(2);
        c.convergence_window = 0;
        assert!(c.validate().is_err());

        let mut c = ModelConfig::paper_defaults(2);
        c.vigilance_override = Some(-1.0);
        assert!(c.validate().is_err());
    }

    #[test]
    fn higher_a_means_larger_rho() {
        let lo = ModelConfig::with_vigilance(3, 0.1).rho();
        let hi = ModelConfig::with_vigilance(3, 0.9).rho();
        assert!(hi > lo);
    }

    #[test]
    fn range_scaled_vigilance_reduces_to_formula_on_unit_ranges() {
        let plain = ModelConfig::with_vigilance(4, 0.25).rho();
        let ranged = ModelConfig::with_vigilance_ranges(4, 0.25, &[1.0; 4], 1.0).rho();
        assert!((plain - ranged).abs() < 1e-12);
        // Rosenbrock-like ranges scale ρ by the range.
        let wide = ModelConfig::with_vigilance_ranges(2, 0.25, &[20.0, 20.0], 2.0).rho();
        assert!((wide - (0.25 * 20.0 * 2f64.sqrt() + 0.5)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "one range per input dimension")]
    fn range_scaled_vigilance_validates_lengths() {
        let _ = ModelConfig::with_vigilance_ranges(3, 0.25, &[1.0; 2], 1.0);
    }
}
