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

    /// Merge another accumulator (parallel evaluation sweeps).
    pub fn merge(&mut self, other: &RmseAccumulator) {
        self.n += other.n;
        self.sum_sq += other.sum_sq;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regq_linalg::stats::rmse;

    #[test]
    fn accumulator_matches_batch_rmse() {
        let actual = [1.0, 2.0, 3.0, 4.0];
        let pred = [1.5, 1.5, 3.5, 3.0];
        let mut acc = RmseAccumulator::new();
        for (a, p) in actual.iter().zip(pred.iter()) {
            acc.push(*a, *p);
        }
        assert!((acc.rmse().unwrap() - rmse(&actual, &pred)).abs() < 1e-15);
        assert_eq!(acc.count(), 4);
    }

    #[test]
    fn empty_accumulator_returns_none() {
        assert!(RmseAccumulator::new().rmse().is_none());
    }

    #[test]
    fn merge_equals_sequential() {
        let mut a = RmseAccumulator::new();
        let mut b = RmseAccumulator::new();
        let mut all = RmseAccumulator::new();
        for i in 0..10 {
            let (act, pred) = (i as f64, i as f64 * 1.1);
            if i < 5 {
                a.push(act, pred);
            } else {
                b.push(act, pred);
            }
            all.push(act, pred);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.rmse().unwrap() - all.rmse().unwrap()).abs() < 1e-15);
    }
}
