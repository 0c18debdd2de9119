//! Random query workloads (paper §VI-A).
//!
//! *"Random queries `q = [x, θ]` are generated with uniformly distributed
//! centers `x ∈ [0,1]^d` for R1 or in `[−10,10]^d` for R2 … For each query,
//! `θ ~ N(µ_θ, σ_θ²)` is generated from a Gaussian distribution."*

use rand::Rng;
use regq_core::Query;
use regq_data::rng::sample_truncated_gaussian;
use regq_data::DataFunction;

/// Generator of random dNN queries over a box domain.
#[derive(Debug, Clone)]
pub struct QueryGenerator {
    bounds: Vec<(f64, f64)>,
    theta_mean: f64,
    theta_std: f64,
    theta_max: f64,
}

impl QueryGenerator {
    /// Build from explicit center bounds and radius distribution
    /// `θ ~ N(mean, std²)`, truncated to `(0, theta_max)`.
    ///
    /// # Panics
    /// Panics on empty bounds, or unless `theta_mean` and `theta_max` are
    /// finite and positive and `theta_std` finite and non-negative.
    pub fn new(bounds: Vec<(f64, f64)>, theta_mean: f64, theta_std: f64, theta_max: f64) -> Self {
        assert!(!bounds.is_empty(), "need at least one dimension");
        check_theta(theta_mean, theta_std);
        assert!(
            theta_max.is_finite() && theta_max > 0.0,
            "theta max must be finite and positive"
        );
        for (lo, hi) in &bounds {
            assert!(lo < hi, "degenerate center bound ({lo}, {hi})");
        }
        QueryGenerator {
            bounds,
            theta_mean,
            theta_std,
            theta_max,
        }
    }

    /// Paper defaults for a data function: centers uniform over the
    /// function's domain, `µ_θ` = `frac` of the (average) per-dimension
    /// range, `σ_θ = µ_θ` ("θ ~ N(0.1, 0.01)" for the unit-range R1 — the
    /// variance 0.01 is `σ² = (0.1)²`), truncated at one full range.
    pub fn for_function<F: DataFunction + ?Sized>(f: &F, frac: f64) -> Self {
        assert!(frac > 0.0, "radius fraction must be positive");
        let bounds = f.domain();
        let avg_range = bounds.iter().map(|(lo, hi)| hi - lo).sum::<f64>() / bounds.len() as f64;
        let mean = frac * avg_range;
        QueryGenerator::new(bounds, mean, mean, avg_range)
    }

    /// Override the radius distribution, keeping the center bounds (used
    /// by the µ_θ sweep of Figs. 13/14).
    ///
    /// # Panics
    /// As [`QueryGenerator::new`] on `mean` and `std`.
    pub fn with_theta(mut self, mean: f64, std: f64) -> Self {
        check_theta(mean, std);
        self.theta_mean = mean;
        self.theta_std = std;
        self
    }

    /// Input dimensionality.
    pub fn dim(&self) -> usize {
        self.bounds.len()
    }

    /// Mean radius `µ_θ`.
    pub fn theta_mean(&self) -> f64 {
        self.theta_mean
    }

    /// Draw one query.
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> Query {
        let center: Vec<f64> = self
            .bounds
            .iter()
            .map(|(lo, hi)| rng.random_range(*lo..*hi))
            .collect();
        let theta = if self.theta_std == 0.0 {
            self.theta_mean.min(self.theta_max)
        } else {
            sample_truncated_gaussian(rng, self.theta_mean, self.theta_std, 0.0, self.theta_max)
        };
        Query::new_unchecked(center, theta)
    }

    /// Draw `n` queries.
    pub fn generate_many<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Vec<Query> {
        (0..n).map(|_| self.generate(rng)).collect()
    }
}

/// The radius distribution's parameters, as [`QueryGenerator::new`] and
/// [`QueryGenerator::with_theta`] require them: a negative or NaN `std`
/// would otherwise spin every draw through the truncated sampler's
/// rejection cap and silently return the clamped mean.
fn check_theta(mean: f64, std: f64) {
    assert!(
        mean.is_finite() && mean > 0.0,
        "theta mean must be finite and positive"
    );
    assert!(
        std.is_finite() && std >= 0.0,
        "theta std must be finite and non-negative"
    );
}

// `rand::Rng` must be in scope for `random_range`.
use rand::RngExt as _;

#[cfg(test)]
mod tests {
    use super::*;
    use regq_data::generators::{GasSensorSurrogate, Rosenbrock};
    use regq_data::rng::seeded;

    #[test]
    fn centers_respect_bounds() {
        let g = QueryGenerator::new(vec![(-1.0, 1.0), (5.0, 6.0)], 0.2, 0.1, 2.0);
        let mut rng = seeded(1);
        for q in g.generate_many(500, &mut rng) {
            assert!((-1.0..1.0).contains(&q.center[0]));
            assert!((5.0..6.0).contains(&q.center[1]));
            assert!(q.radius > 0.0 && q.radius < 2.0);
        }
    }

    #[test]
    fn radii_follow_requested_distribution() {
        let g = QueryGenerator::new(vec![(0.0, 1.0)], 0.1, 0.1, 1.0);
        let mut rng = seeded(2);
        let qs = g.generate_many(20_000, &mut rng);
        let mean = qs.iter().map(|q| q.radius).sum::<f64>() / qs.len() as f64;
        // Truncating N(0.1, 0.1²) at zero shifts the mean up to
        // µ + σ·φ(1)/Φ(1) ≈ 0.129.
        assert!((mean - 0.129).abs() < 0.01, "mean radius {mean}");
        assert!(qs.iter().all(|q| q.radius > 0.0));
    }

    #[test]
    fn for_function_uses_domain() {
        let f = Rosenbrock::new(2); // domain [-10, 10]^2
        let g = QueryGenerator::for_function(&f, 0.05);
        assert_eq!(g.dim(), 2);
        // avg range = 20, so µ_θ = 1.0 — the paper's R2 setting.
        assert!((g.theta_mean() - 1.0).abs() < 1e-12);
        let mut rng = seeded(3);
        let q = g.generate(&mut rng);
        assert!(q.center.iter().all(|c| (-10.0..10.0).contains(c)));
    }

    #[test]
    fn gas_sensor_default_matches_paper_r1() {
        let f = GasSensorSurrogate::new(3, 1);
        let g = QueryGenerator::for_function(&f, 0.1);
        // Unit domain: µ_θ = 0.1 (paper: θ ~ N(0.1, 0.01)).
        assert!((g.theta_mean() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn with_theta_overrides() {
        let f = GasSensorSurrogate::new(2, 1);
        let g = QueryGenerator::for_function(&f, 0.1).with_theta(0.4, 0.05);
        assert_eq!(g.theta_mean(), 0.4);
        let mut rng = seeded(4);
        let qs = g.generate_many(2000, &mut rng);
        let mean = qs.iter().map(|q| q.radius).sum::<f64>() / qs.len() as f64;
        assert!((mean - 0.4).abs() < 0.01);
    }

    #[test]
    fn zero_std_gives_constant_radius() {
        let g = QueryGenerator::new(vec![(0.0, 1.0)], 0.25, 0.0, 1.0);
        let mut rng = seeded(5);
        for q in g.generate_many(10, &mut rng) {
            assert_eq!(q.radius, 0.25);
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let g = QueryGenerator::new(vec![(0.0, 1.0)], 0.1, 0.05, 1.0);
        let a = g.generate_many(20, &mut seeded(7));
        let b = g.generate_many(20, &mut seeded(7));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn degenerate_bounds_panic() {
        let _ = QueryGenerator::new(vec![(1.0, 1.0)], 0.1, 0.1, 1.0);
    }

    fn unit() -> QueryGenerator {
        QueryGenerator::new(vec![(0.0, 1.0)], 0.1, 0.1, 1.0)
    }

    #[test]
    #[should_panic(expected = "theta std must be finite and non-negative")]
    fn negative_theta_std_panics() {
        let _ = unit().with_theta(0.1, -0.05);
    }

    #[test]
    #[should_panic(expected = "theta std must be finite and non-negative")]
    fn nan_theta_std_panics() {
        let _ = unit().with_theta(0.1, f64::NAN);
    }

    #[test]
    #[should_panic(expected = "theta std must be finite and non-negative")]
    fn infinite_theta_std_panics() {
        let _ = QueryGenerator::new(vec![(0.0, 1.0)], 0.1, f64::INFINITY, 1.0);
    }

    #[test]
    #[should_panic(expected = "theta mean must be finite and positive")]
    fn infinite_theta_mean_panics() {
        let _ = QueryGenerator::new(vec![(0.0, 1.0)], f64::INFINITY, 0.1, 1.0);
    }

    #[test]
    #[should_panic(expected = "theta max must be finite and positive")]
    fn infinite_theta_max_panics() {
        let _ = QueryGenerator::new(vec![(0.0, 1.0)], 0.1, 0.1, f64::INFINITY);
    }
}
