//! SGD learning-rate schedules (paper §II-B).
//!
//! The paper uses the hyperbolic schedule `η_t = 1/(t + 1)`, which satisfies
//! the Robbins–Monro conditions `Σ η_t = ∞`, `Σ η_t² < ∞`. What the paper
//! leaves open is *which* `t`: a global step counter or a per-prototype
//! update counter (design decision D-1, stated here). Per-prototype is the
//! default here — each prototype's parameters are then a proper stochastic
//! average of the queries it wins, matching the AVQ convergence analyses the
//! paper cites — and the global variant is kept for the ablation bench.

/// Learning-rate schedule for the Theorem-4 updates.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum LearningSchedule {
    /// `η = 1/(1 + t_k)` with `t_k` = number of updates prototype `k` has
    /// received (default; D-1).
    #[default]
    HyperbolicPerPrototype,
    /// `η = 1/(1 + t)` with `t` = global training step.
    HyperbolicGlobal,
    /// Constant rate (a floor on plasticity keeps the model tracking
    /// non-stationary data).
    Constant(f64),
}

impl LearningSchedule {
    /// The rate for a prototype with `proto_steps` prior updates at global
    /// step `global_step`.
    #[inline]
    pub fn rate(&self, proto_steps: u64, global_step: u64) -> f64 {
        match self {
            LearningSchedule::HyperbolicPerPrototype => 1.0 / (1.0 + proto_steps as f64),
            LearningSchedule::HyperbolicGlobal => 1.0 / (1.0 + global_step as f64),
            LearningSchedule::Constant(eta) => *eta,
        }
    }

    /// The rate used for the LLM *coefficient* updates: `1/(1+t)^power`
    /// for the hyperbolic schedules (two-timescale stochastic
    /// approximation — the local regression coefficients must adapt on a
    /// slower-decaying schedule than the quantizer they sit on; any
    /// `power ∈ (0.5, 1]` satisfies Robbins–Monro). `power = 1` recovers
    /// the paper's single shared schedule.
    #[inline]
    pub fn coeff_rate(&self, proto_steps: u64, global_step: u64, power: f64) -> f64 {
        match self {
            LearningSchedule::HyperbolicPerPrototype => (1.0 + proto_steps as f64).powf(-power),
            LearningSchedule::HyperbolicGlobal => (1.0 + global_step as f64).powf(-power),
            LearningSchedule::Constant(eta) => *eta,
        }
    }

    /// Validate schedule parameters.
    pub fn validate(&self) -> Result<(), String> {
        if let LearningSchedule::Constant(eta) = self {
            if !(*eta > 0.0 && *eta < 1.0) {
                return Err(format!(
                    "constant learning rate must be in (0,1), got {eta}"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_prototype_rate_decays_with_proto_steps() {
        let s = LearningSchedule::HyperbolicPerPrototype;
        assert_eq!(s.rate(0, 100), 1.0);
        assert_eq!(s.rate(1, 100), 0.5);
        assert_eq!(s.rate(9, 100), 0.1);
    }

    #[test]
    fn global_rate_ignores_proto_steps() {
        let s = LearningSchedule::HyperbolicGlobal;
        assert_eq!(s.rate(0, 9), 0.1);
        assert_eq!(s.rate(1000, 9), 0.1);
    }

    #[test]
    fn constant_rate_is_constant() {
        let s = LearningSchedule::Constant(0.05);
        assert_eq!(s.rate(0, 0), 0.05);
        assert_eq!(s.rate(99, 99), 0.05);
    }

    #[test]
    fn robbins_monro_conditions_hold_for_hyperbolic() {
        // Partial sums: Σ 1/(1+t) diverges (grows like ln), Σ 1/(1+t)^2
        // converges (< π²/6).
        let s = LearningSchedule::HyperbolicPerPrototype;
        let sum: f64 = (0..100_000u64).map(|t| s.rate(t, 0)).sum();
        let sum_sq: f64 = (0..100_000u64).map(|t| s.rate(t, 0).powi(2)).sum();
        assert!(sum > 10.0);
        assert!(sum_sq < 1.6449341);
    }

    #[test]
    fn validate_rejects_bad_constant() {
        assert!(LearningSchedule::Constant(0.0).validate().is_err());
        assert!(LearningSchedule::Constant(1.0).validate().is_err());
        assert!(LearningSchedule::Constant(0.3).validate().is_ok());
        assert!(LearningSchedule::HyperbolicGlobal.validate().is_ok());
    }
}
