//! The paper's §VI evaluation metrics, model-side.
//!
//! * **A1 (mean-value accuracy)** — RMSE `e` between exact and predicted Q1
//!   answers over a test workload;
//! * **A2 (data-value accuracy)** — RMSE `v` between `u = g(x)` and the
//!   Eq.-14 prediction `û`;
//! * **FVU / CoD** — re-exported shape used by the Q2 goodness-of-fit
//!   comparison (the data-touching side lives in `regq-exact`).

/// Streaming RMSE accumulator (avoids buffering full prediction vectors in
/// long evaluation sweeps).
#[derive(Debug, Clone, Copy, Default)]
pub struct RmseAccumulator {
    n: u64,
    sum_sq: f64,
}

impl RmseAccumulator {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one (actual, predicted) pair.
    #[inline]
    pub fn push(&mut self, actual: f64, predicted: f64) {
        let e = actual - predicted;
        self.sum_sq += e * e;
        self.n += 1;
    }

    /// Number of folded pairs.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Current RMSE (`None` when empty).
    pub fn rmse(&self) -> Option<f64> {
        if self.n == 0 {
            None
        } else {
            Some((self.sum_sq / self.n as f64).sqrt())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulator_matches_batch_rmse() {
        let actual = [1.0, 2.0, 3.0, 4.0];
        let pred = [1.5, 1.5, 3.5, 3.0];
        let mut acc = RmseAccumulator::new();
        for (a, p) in actual.iter().zip(pred.iter()) {
            acc.push(*a, *p);
        }
        let ss: f64 = actual
            .iter()
            .zip(&pred)
            .map(|(a, p)| (a - p) * (a - p))
            .sum();
        let batch = (ss / actual.len() as f64).sqrt();
        assert!((acc.rmse().unwrap() - batch).abs() < 1e-15);
        assert_eq!(acc.count(), 4);
    }

    #[test]
    fn empty_accumulator_returns_none() {
        assert!(RmseAccumulator::new().rmse().is_none());
    }
}
