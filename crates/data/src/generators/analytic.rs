//! Small closed-form data functions used in the paper's illustrations and
//! throughout the test suites.

use crate::function::DataFunction;

/// The saddle `g(x₁, x₂) = x₁(x₂ + 1)` over `[-1.5, 1.5]²` — the function of
/// the paper's Examples 2 & 3 (Fig. 4).
#[derive(Debug, Clone, Default)]
pub struct Saddle2d;

impl DataFunction for Saddle2d {
    fn dim(&self) -> usize {
        2
    }
    fn eval(&self, x: &[f64]) -> f64 {
        debug_assert_eq!(x.len(), 2);
        x[0] * (x[1] + 1.0)
    }
    fn domain(&self) -> Vec<(f64, f64)> {
        vec![(-1.5, 1.5); 2]
    }
    fn name(&self) -> &str {
        "saddle-x1(x2+1)"
    }
    fn output_range(&self) -> Option<(f64, f64)> {
        // Extremes at corners: x1 = ±1.5, x2 + 1 ∈ [-0.5, 2.5].
        Some((-3.75, 3.75))
    }
}

/// A smooth, several-inflection one-dimensional curve over `[0, 1]` with
/// output inside `[0, 1]` — stands in for the non-linear `u = g(x)` of the
/// paper's Fig. 5 (where K ≈ 6 local linear pieces fit well but one global
/// line does not).
#[derive(Debug, Clone, Default)]
pub struct SineRidge1d;

impl DataFunction for SineRidge1d {
    fn dim(&self) -> usize {
        1
    }
    fn eval(&self, x: &[f64]) -> f64 {
        debug_assert_eq!(x.len(), 1);
        let t = x[0];
        // Amplitude grows with t so no single line fits; stays in [0, 1].
        0.5 + 0.38 * ((2.5 * std::f64::consts::PI * t) + 0.4).sin() * (0.35 + 0.65 * t)
    }
    fn domain(&self) -> Vec<(f64, f64)> {
        vec![(0.0, 1.0)]
    }
    fn name(&self) -> &str {
        "sine-ridge-1d"
    }
    fn output_range(&self) -> Option<(f64, f64)> {
        Some((0.0, 1.0))
    }
}

/// An explicit piecewise-linear curve: ground truth with *known* knots and
/// slopes, used to validate that PLR/MARS and the LLM model both recover
/// piecewise-linear structure.
#[derive(Debug, Clone)]
pub struct PiecewiseLinear1d {
    /// Knot locations, strictly increasing, spanning the domain.
    knots: Vec<f64>,
    /// Values at the knots (`knots.len()` entries).
    values: Vec<f64>,
}

impl PiecewiseLinear1d {
    /// Build from `(knot, value)` pairs; knots must be strictly increasing
    /// and at least two.
    pub fn new(points: &[(f64, f64)]) -> Self {
        assert!(points.len() >= 2, "need at least two knots");
        for w in points.windows(2) {
            assert!(w[0].0 < w[1].0, "knots must be strictly increasing");
        }
        PiecewiseLinear1d {
            knots: points.iter().map(|p| p.0).collect(),
            values: points.iter().map(|p| p.1).collect(),
        }
    }

    /// A default 4-segment zig-zag over `[0, 1]` (mirrors the paper's
    /// "four local lines l₁…l₄" illustration in Fig. 1 right).
    pub fn zigzag() -> Self {
        Self::new(&[(0.0, 0.1), (0.25, 0.8), (0.5, 0.3), (0.75, 0.9), (1.0, 0.2)])
    }

    fn segment_index(&self, t: f64) -> usize {
        let last = self.knots.len() - 2;
        for i in 0..=last {
            if t < self.knots[i + 1] {
                return i;
            }
        }
        last
    }
}

impl DataFunction for PiecewiseLinear1d {
    fn dim(&self) -> usize {
        1
    }
    fn eval(&self, x: &[f64]) -> f64 {
        debug_assert_eq!(x.len(), 1);
        let t = x[0].clamp(self.knots[0], *self.knots.last().unwrap());
        let i = self.segment_index(t);
        let frac = (t - self.knots[i]) / (self.knots[i + 1] - self.knots[i]);
        self.values[i] * (1.0 - frac) + self.values[i + 1] * frac
    }
    fn domain(&self) -> Vec<(f64, f64)> {
        vec![(self.knots[0], *self.knots.last().unwrap())]
    }
    fn name(&self) -> &str {
        "piecewise-linear-1d"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saddle_matches_formula() {
        let f = Saddle2d;
        assert_eq!(f.eval(&[2.0, 3.0]), 8.0);
        assert_eq!(f.eval(&[0.0, 5.0]), 0.0);
    }

    #[test]
    fn sine_ridge_stays_in_unit_interval() {
        let f = SineRidge1d;
        for i in 0..=1000 {
            let t = i as f64 / 1000.0;
            let v = f.eval(&[t]);
            assert!((0.0..=1.0).contains(&v), "g({t}) = {v} out of [0,1]");
        }
    }

    #[test]
    fn piecewise_linear_interpolates_knots_exactly() {
        let f = PiecewiseLinear1d::zigzag();
        assert_eq!(f.eval(&[0.0]), 0.1);
        assert_eq!(f.eval(&[0.25]), 0.8);
        assert_eq!(f.eval(&[1.0]), 0.2);
        // Midpoint of first segment.
        assert!((f.eval(&[0.125]) - 0.45).abs() < 1e-12);
    }

    #[test]
    fn piecewise_linear_clamps_outside_domain() {
        let f = PiecewiseLinear1d::zigzag();
        assert_eq!(f.eval(&[-1.0]), 0.1);
        assert_eq!(f.eval(&[2.0]), 0.2);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn piecewise_linear_rejects_unsorted_knots() {
        let _ = PiecewiseLinear1d::new(&[(0.0, 0.0), (0.0, 1.0)]);
    }
}
