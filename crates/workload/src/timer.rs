//! Latency accumulation for the efficiency experiments (Fig. 12).

use std::time::Duration;

/// Accumulated per-query latencies with summary accessors.
#[derive(Debug, Clone, Default)]
pub struct LatencyStats {
    samples: Vec<Duration>,
}

impl LatencyStats {
    /// Fresh accumulator.
    pub fn new() -> Self {
        LatencyStats {
            samples: Vec::new(),
        }
    }

    /// Record one latency sample.
    pub fn push(&mut self, d: Duration) {
        self.samples.push(d);
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Arithmetic mean latency (zero when empty).
    pub fn mean(&self) -> Duration {
        if self.samples.is_empty() {
            return Duration::ZERO;
        }
        let total: Duration = self.samples.iter().sum();
        total / self.samples.len() as u32
    }

    /// Mean latency in milliseconds (the unit of the paper's Fig. 12).
    pub fn mean_ms(&self) -> f64 {
        self.mean().as_secs_f64() * 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_known_samples() {
        let mut s = LatencyStats::new();
        s.push(Duration::from_millis(10));
        s.push(Duration::from_millis(30));
        assert_eq!(s.mean(), Duration::from_millis(20));
        assert!((s.mean_ms() - 20.0).abs() < 1e-9);
        assert_eq!(s.count(), 2);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = LatencyStats::new();
        assert_eq!(s.mean(), Duration::ZERO);
    }
}
