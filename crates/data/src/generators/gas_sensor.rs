//! Seeded surrogate for the paper's R1 gas-sensor dataset.
//!
//! The paper's R1 is the (not freely redistributable) 16-channel gas-sensor
//! array of Rodriguez-Lujan et al. (2014), reduced to 6-dim feature vectors,
//! scaled to `[0, 1]`, and padded with Gaussian noise to 15·10⁶ rows. The
//! paper uses exactly one property of R1: *"significant non-linear
//! dependencies among the features"* — strong enough that a single linear
//! approximation is useless (their subspace-averaged global-fit FVU is
//! 4.68).
//!
//! This surrogate reproduces that property with a seeded random field over
//! `[0, 1]^d`:
//!
//! ```text
//! g(x) = Σ_j w_j exp(−‖x − c_j‖² / 2σ_j²)      (RBF bumps: local structure)
//!      + a · sin(ω·x + φ)                       (global oscillation)
//!      + b · Π_{i<2} x_i                        (multiplicative interaction)
//!      + ℓ · x                                  (weak linear trend)
//! ```
//!
//! Chemically, the bumps play the role of sensor-response plateaus at
//! different analyte concentrations and the oscillation models sensor
//! drift across the induced feature space. The structural parameters are
//! drawn once from the construction seed, so a given `(dim, seed)` pair
//! names a fixed function.

use crate::function::DataFunction;
use crate::rng::{seeded, SeededRng};
use rand::RngExt;
use regq_linalg::vector::sq_dist;

/// Seeded non-linear random field standing in for the R1 data function.
#[derive(Debug, Clone)]
pub struct GasSensorSurrogate {
    dim: usize,
    centers: Vec<Vec<f64>>,
    inv_two_sigma_sq: Vec<f64>,
    weights: Vec<f64>,
    omega: Vec<f64>,
    phase: f64,
    osc_amp: f64,
    interact_amp: f64,
    linear: Vec<f64>,
    name: String,
}

impl GasSensorSurrogate {
    /// Number of RBF bumps for a given dimension (more bumps in higher
    /// dimension keep per-unit-volume curvature comparable).
    fn bump_count(dim: usize) -> usize {
        8 + 4 * dim
    }

    /// Construct the surrogate field for input dimension `dim` from `seed`.
    pub fn new(dim: usize, seed: u64) -> Self {
        assert!(dim >= 1, "dimension must be at least 1");
        let mut rng: SeededRng = seeded(seed ^ 0x6a73_5f73_656e_736f); // "js_senso"
        let m = Self::bump_count(dim);
        let mut centers = Vec::with_capacity(m);
        let mut inv_two_sigma_sq = Vec::with_capacity(m);
        let mut weights = Vec::with_capacity(m);
        for _ in 0..m {
            let c: Vec<f64> = (0..dim).map(|_| rng.random_range(0.0..1.0)).collect();
            centers.push(c);
            // Bump widths are kept at or above the workload's query radius
            // (θ ≈ 0.1): the paper's premise is data that is *locally*
            // linear at query scale while globally non-linear, and that is
            // the regime its method (and its figures) operate in.
            let sigma = rng.random_range(0.12..0.32);
            inv_two_sigma_sq.push(1.0 / (2.0 * sigma * sigma));
            weights.push(rng.random_range(-1.0..1.0));
        }
        let omega: Vec<f64> = (0..dim).map(|_| rng.random_range(2.0..6.0)).collect();
        let phase = rng.random_range(0.0..std::f64::consts::TAU);
        let osc_amp = rng.random_range(0.25..0.45);
        let interact_amp = rng.random_range(0.3..0.7);
        let linear: Vec<f64> = (0..dim).map(|_| rng.random_range(-0.2..0.2)).collect();
        GasSensorSurrogate {
            dim,
            centers,
            inv_two_sigma_sq,
            weights,
            omega,
            phase,
            osc_amp,
            interact_amp,
            linear,
            name: format!("gas-sensor-surrogate-d{dim}"),
        }
    }
}

impl DataFunction for GasSensorSurrogate {
    fn dim(&self) -> usize {
        self.dim
    }

    fn eval(&self, x: &[f64]) -> f64 {
        debug_assert_eq!(x.len(), self.dim);
        let mut v = 0.0;
        for ((c, &inv), &w) in self
            .centers
            .iter()
            .zip(self.inv_two_sigma_sq.iter())
            .zip(self.weights.iter())
        {
            v += w * (-sq_dist(x, c) * inv).exp();
        }
        let mut arg = self.phase;
        for (xi, om) in x.iter().zip(self.omega.iter()) {
            arg += xi * om;
        }
        v += self.osc_amp * arg.sin();
        if self.dim >= 2 {
            v += self.interact_amp * x[0] * x[1];
        }
        for (xi, li) in x.iter().zip(self.linear.iter()) {
            v += xi * li;
        }
        v
    }

    fn domain(&self) -> Vec<(f64, f64)> {
        vec![(0.0, 1.0); self.dim]
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded;
    use rand::RngExt;

    #[test]
    fn same_seed_same_function() {
        let f1 = GasSensorSurrogate::new(3, 42);
        let f2 = GasSensorSurrogate::new(3, 42);
        let mut rng = seeded(0);
        for _ in 0..50 {
            let x: Vec<f64> = (0..3).map(|_| rng.random_range(0.0..1.0)).collect();
            assert_eq!(f1.eval(&x), f2.eval(&x));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let f1 = GasSensorSurrogate::new(2, 1);
        let f2 = GasSensorSurrogate::new(2, 2);
        let x = [0.4, 0.6];
        assert_ne!(f1.eval(&x), f2.eval(&x));
    }

    #[test]
    fn output_is_finite_over_domain() {
        let f = GasSensorSurrogate::new(5, 7);
        let mut rng = seeded(9);
        for _ in 0..1000 {
            let x: Vec<f64> = (0..5).map(|_| rng.random_range(0.0..1.0)).collect();
            assert!(f.eval(&x).is_finite());
        }
    }

    #[test]
    fn is_strongly_non_linear() {
        // The defining property of R1: a least-squares plane fit over the
        // whole domain leaves a large unexplained fraction of variance.
        use regq_linalg::{lstsq, Matrix};
        let f = GasSensorSurrogate::new(2, 42);
        let mut rng = seeded(123);
        let n = 2000;
        let mut rows = Vec::with_capacity(n);
        let mut ys = Vec::with_capacity(n);
        for _ in 0..n {
            let x: Vec<f64> = (0..2).map(|_| rng.random_range(0.0..1.0)).collect();
            ys.push(f.eval(&x));
            rows.push(vec![1.0, x[0], x[1]]);
        }
        let xm = Matrix::from_rows(&rows).unwrap();
        let sol = lstsq(&xm, &ys).unwrap();
        let pred = xm.matvec(&sol.coeffs).unwrap();
        let mean = ys.iter().sum::<f64>() / n as f64;
        let ssr: f64 = ys.iter().zip(&pred).map(|(y, p)| (y - p) * (y - p)).sum();
        let tss: f64 = ys.iter().map(|y| (y - mean) * (y - mean)).sum();
        let fvu = ssr / tss;
        // A global linear model must be a poor fit (paper: "significant
        // non-linear dependencies").
        assert!(fvu > 0.3, "surrogate too linear: global FVU = {fvu}");
    }

    #[test]
    fn one_dimensional_variant_works() {
        let f = GasSensorSurrogate::new(1, 5);
        assert!(f.eval(&[0.5]).is_finite());
    }
}
