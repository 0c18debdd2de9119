//! Streaming and batch statistics.
//!
//! [`OnlineStats`] is a Welford accumulator — numerically stable single-pass
//! mean/variance, used by the training loop's diagnostics and by the exact
//! Q1 executor's moment extension. [`Summary`] computes batch summaries
//! (quantiles included) for experiment reporting.

/// Welford single-pass accumulator for mean and variance.
#[derive(Debug, Clone, Copy, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Fresh accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Fold one observation.
    #[inline]
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations folded so far.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Running mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance `M2/n` (0.0 when `n < 1`).
    pub fn variance(&self) -> f64 {
        if self.n < 1 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Sample variance `M2/(n−1)` (0.0 when `n < 2`).
    pub fn sample_variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`−inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merge another accumulator (parallel reduction; Chan et al.).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Batch summary of a sample: mean, std, min/max and quartiles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample size.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation.
    pub std_dev: f64,
    /// Minimum.
    pub min: f64,
    /// First quartile (linear interpolation).
    pub q25: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q75: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Summarize a sample. Returns `None` on empty input.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in Summary::of input"));
        let mut acc = OnlineStats::new();
        for &v in values {
            acc.push(v);
        }
        Some(Summary {
            n: values.len(),
            mean: acc.mean(),
            std_dev: acc.sample_variance().sqrt(),
            min: sorted[0],
            q25: quantile_sorted(&sorted, 0.25),
            median: quantile_sorted(&sorted, 0.5),
            q75: quantile_sorted(&sorted, 0.75),
            max: sorted[sorted.len() - 1],
        })
    }
}

/// Linear-interpolation quantile of an already-sorted slice, `q ∈ [0, 1]`.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of empty slice");
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Root-mean-square error between paired samples.
///
/// This is the paper's predictability metric `e` (A1) and `v` (A2):
/// `e = sqrt( (1/M) Σ (y_i − ŷ_i)² )`.
///
/// # Panics
/// Panics if lengths differ or input is empty.
pub fn rmse(actual: &[f64], predicted: &[f64]) -> f64 {
    assert_eq!(actual.len(), predicted.len(), "rmse: length mismatch");
    assert!(!actual.is_empty(), "rmse of empty sample");
    let ss: f64 = actual
        .iter()
        .zip(predicted.iter())
        .map(|(a, p)| (a - p) * (a - p))
        .sum();
    (ss / actual.len() as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_two_pass() {
        let xs = [1.0, 2.0, 4.0, 8.0, 16.0];
        let mut acc = OnlineStats::new();
        for &x in &xs {
            acc.push(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
        assert!((acc.mean() - mean).abs() < 1e-12);
        assert!((acc.variance() - var).abs() < 1e-12);
        assert_eq!(acc.min(), 1.0);
        assert_eq!(acc.max(), 16.0);
        assert_eq!(acc.count(), 5);
    }

    #[test]
    fn welford_is_stable_for_large_offsets() {
        // Classic catastrophic-cancellation case for naive sum-of-squares.
        let mut acc = OnlineStats::new();
        for i in 0..1000 {
            acc.push(1e9 + (i % 2) as f64);
        }
        assert!((acc.variance() - 0.25).abs() < 1e-6);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 3.0 + 1.0).collect();
        let mut all = OnlineStats::new();
        for &x in &xs {
            all.push(x);
        }
        let mut left = OnlineStats::new();
        let mut right = OnlineStats::new();
        for &x in &xs[..37] {
            left.push(x);
        }
        for &x in &xs[37..] {
            right.push(x);
        }
        left.merge(&right);
        assert_eq!(left.count(), all.count());
        assert!((left.mean() - all.mean()).abs() < 1e-12);
        assert!((left.variance() - all.variance()).abs() < 1e-12);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = OnlineStats::new();
        a.push(2.0);
        let b = OnlineStats::new();
        let before = a;
        a.merge(&b);
        assert_eq!(a.count(), before.count());
        assert_eq!(a.mean(), before.mean());
    }

    #[test]
    fn summary_quartiles_of_known_sample() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(s.median, 3.0);
        assert_eq!(s.q25, 2.0);
        assert_eq!(s.q75, 4.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
    }

    #[test]
    fn summary_of_empty_is_none() {
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn quantile_interpolates() {
        let sorted = [0.0, 10.0];
        assert_eq!(quantile_sorted(&sorted, 0.5), 5.0);
        assert_eq!(quantile_sorted(&sorted, 0.0), 0.0);
        assert_eq!(quantile_sorted(&sorted, 1.0), 10.0);
    }

    #[test]
    fn rmse_of_perfect_prediction_is_zero() {
        assert_eq!(rmse(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
    }

    #[test]
    fn rmse_matches_hand_computation() {
        // Errors 3 and 4 -> RMSE = sqrt((9+16)/2).
        let e = rmse(&[0.0, 0.0], &[3.0, 4.0]);
        assert!((e - (12.5f64).sqrt()).abs() < 1e-12);
    }
}
