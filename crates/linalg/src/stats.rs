//! Streaming statistics and a sorted-sample quantile.
//!
//! [`OnlineStats`] is a Welford accumulator — numerically stable single-pass
//! mean/variance, used by experiment reporting and as a reference fold in
//! the access paths' tests. [`quantile_sorted`] reads a quantile off an
//! already-sorted sample.

/// Welford single-pass accumulator for mean and variance.
#[derive(Debug, Clone, Copy, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
}

impl OnlineStats {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one observation.
    #[inline]
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
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
    fn quantile_interpolates() {
        let sorted = [0.0, 10.0];
        assert_eq!(quantile_sorted(&sorted, 0.5), 5.0);
        assert_eq!(quantile_sorted(&sorted, 0.0), 0.0);
        assert_eq!(quantile_sorted(&sorted, 1.0), 10.0);
    }
}
