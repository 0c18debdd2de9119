//! Deterministic randomness utilities.
//!
//! `rand_distr` is not on the approved dependency list, so the Gaussian
//! sampler is a hand-rolled Box–Muller transform. All generators in this
//! workspace are seeded [`rand::rngs::StdRng`] so every experiment is
//! reproducible from its seed.

use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};

/// The RNG type used across the workspace.
pub type SeededRng = StdRng;

/// Construct the workspace RNG from a seed.
pub fn seeded(seed: u64) -> SeededRng {
    StdRng::seed_from_u64(seed)
}

/// One draw from `N(mean, std²)` via the Box–Muller transform.
///
/// Uses two fresh uniforms per call. For the sample sizes in this workspace
/// the discarded second variate is irrelevant; simplicity wins over caching.
#[inline]
pub fn sample_gaussian<R: Rng + ?Sized>(rng: &mut R, mean: f64, std: f64) -> f64 {
    debug_assert!(std >= 0.0, "standard deviation must be non-negative");
    // Guard u1 away from 0 so ln() stays finite.
    let u1: f64 = loop {
        let v = rng.random::<f64>();
        if v > f64::MIN_POSITIVE {
            break v;
        }
    };
    let u2: f64 = rng.random::<f64>();
    let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    mean + std * z
}

/// Gaussian draw rejected-and-resampled until it lands in `(lo, hi)`.
///
/// The paper draws query radii `θ ~ N(µ_θ, σ_θ²)`; a radius must be
/// positive, so we truncate by resampling (Design decision D-6). Panics if
/// the interval is empty.
pub fn sample_truncated_gaussian<R: Rng + ?Sized>(
    rng: &mut R,
    mean: f64,
    std: f64,
    lo: f64,
    hi: f64,
) -> f64 {
    assert!(lo < hi, "truncation interval must be non-empty");
    // With the paper's settings (µ=0.1, σ=0.1) the acceptance rate is ≥ 84%,
    // so rejection sampling terminates quickly. Cap iterations defensively.
    for _ in 0..10_000 {
        let v = sample_gaussian(rng, mean, std);
        if v > lo && v < hi {
            return v;
        }
    }
    // Pathological parameters: fall back to clamping the mean into range.
    mean.clamp(lo + f64::EPSILON, hi - f64::EPSILON)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_rng_is_deterministic() {
        let mut a = seeded(42);
        let mut b = seeded(42);
        for _ in 0..10 {
            assert_eq!(a.random::<u64>(), b.random::<u64>());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = seeded(1);
        let mut b = seeded(2);
        let same = (0..8).all(|_| a.random::<u64>() == b.random::<u64>());
        assert!(!same);
    }

    #[test]
    fn gaussian_moments_are_close() {
        let mut rng = seeded(7);
        let n = 200_000;
        let (mut sum, mut sum2) = (0.0, 0.0);
        for _ in 0..n {
            let v = sample_gaussian(&mut rng, 2.0, 3.0);
            sum += v;
            sum2 += v * v;
        }
        let mean = sum / n as f64;
        let var = sum2 / n as f64 - mean * mean;
        assert!((mean - 2.0).abs() < 0.03, "mean {mean}");
        assert!((var - 9.0).abs() < 0.15, "var {var}");
    }

    #[test]
    fn gaussian_with_zero_std_is_constant() {
        let mut rng = seeded(3);
        for _ in 0..5 {
            assert_eq!(sample_gaussian(&mut rng, 1.5, 0.0), 1.5);
        }
    }

    #[test]
    fn truncated_gaussian_respects_bounds() {
        let mut rng = seeded(11);
        for _ in 0..5_000 {
            let v = sample_truncated_gaussian(&mut rng, 0.1, 0.1, 0.0, 1.0);
            assert!(v > 0.0 && v < 1.0, "out of range: {v}");
        }
    }

    #[test]
    fn truncated_gaussian_pathological_falls_back() {
        let mut rng = seeded(13);
        // Mean far outside a tiny interval: resampling will fail, the
        // fallback must still return something inside.
        let v = sample_truncated_gaussian(&mut rng, 100.0, 1e-12, 0.0, 1.0);
        assert!(v > 0.0 && v < 1.0);
    }
}
