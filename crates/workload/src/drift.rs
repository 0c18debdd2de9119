//! Concept-drift recovery harness for the self-healing serve fabric.
//!
//! The robustness question the fault battery cannot answer by itself:
//! when the *workload* turns hostile — the query distribution walks away
//! from everything the model has learned — does the closed loop dip into
//! exact fallbacks, retrain in the new region, and climb back to model
//! serving? This module scripts exactly that trajectory:
//!
//! * [`ShiftingValley`] — a deterministic drifting query generator: the
//!   workload focus sits at `start`, ramps linearly to `end` over a
//!   configured window of the stream, and stays there;
//! * [`drift_recovery_loop`] — a single-threaded closed loop driving a
//!   [`ShardRouter`] through the drift, tallying per-window route shares;
//! * [`DriftReport`] — the dip → fallback-spike → retrain → recovery
//!   trajectory, with the recovery point (first post-drift window whose
//!   model share clears [`RECOVERY_FRACTION`] of the pre-drift baseline)
//!   measured in *queries*, not wall-clock — so the harness is
//!   reproducible on any machine.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use regq_core::Query;
use regq_serve::{Route, ServeError, ShardRouter};

/// A window's model share must reach this fraction of the pre-drift
/// baseline share for the fabric to count as *recovered*.
pub const RECOVERY_FRACTION: f64 = 0.7;

/// Deterministic drifting workload: query centers jitter around a focus
/// that moves from `start` to `end` across the drift window.
#[derive(Debug, Clone)]
pub struct ShiftingValley {
    /// Focus before the drift begins.
    pub start: Vec<f64>,
    /// Focus after the drift completes.
    pub end: Vec<f64>,
    /// Smallest query radius in the sweep.
    pub radius_min: f64,
    /// Largest query radius in the sweep.
    pub radius_max: f64,
    /// Half-width of the uniform jitter box around the focus.
    pub jitter: f64,
    /// Stream position (query index) where the focus starts moving.
    pub drift_at: usize,
    /// Number of queries over which the focus ramps `start → end`
    /// (`0` = an instantaneous jump).
    pub drift_len: usize,
}

impl ShiftingValley {
    /// Drift progress at stream position `i`: `0.0` before
    /// [`ShiftingValley::drift_at`], a linear ramp across the drift
    /// window, `1.0` after.
    pub fn phase(&self, i: usize) -> f64 {
        if i < self.drift_at {
            0.0
        } else if self.drift_len == 0 {
            1.0
        } else {
            (((i - self.drift_at) as f64) / self.drift_len as f64).min(1.0)
        }
    }

    /// The workload focus at stream position `i` (the lerp
    /// `start + phase · (end − start)`).
    pub fn center_at(&self, i: usize) -> Vec<f64> {
        let t = self.phase(i);
        self.start
            .iter()
            .zip(&self.end)
            .map(|(s, e)| s + t * (e - s))
            .collect()
    }

    /// The `i`-th query: the focus plus uniform jitter, radius uniform in
    /// `[radius_min, radius_max]`. Deterministic given the caller's rng
    /// state.
    pub fn query_at(&self, i: usize, rng: &mut StdRng) -> Query {
        let center: Vec<f64> = self
            .center_at(i)
            .into_iter()
            .map(|c| c + rng.random_range(-self.jitter..self.jitter))
            .collect();
        let radius = rng.random_range(self.radius_min..self.radius_max);
        Query::new_unchecked(center, radius)
    }
}

/// Route tallies over one window of the drifting stream.
#[derive(Debug, Clone, Default)]
pub struct DriftWindow {
    /// Stream position of the window's first query.
    pub start: usize,
    /// Queries issued in this window.
    pub queries: usize,
    /// Served from the shard snapshots above the confidence threshold.
    pub model_served: usize,
    /// Exact fallbacks (the retraining signal: each one feeds the fabric).
    pub exact_served: usize,
    /// Flagged degraded serves (deadline budget / pressure watermark).
    pub degraded_served: usize,
    /// Queries whose selection was empty (out-of-data excursions).
    pub empty: usize,
    /// Feedback examples this window's own queries lost.
    pub feedback_dropped: usize,
}

impl DriftWindow {
    /// Fraction of answered queries served from the snapshots (degraded
    /// serves count as model-side: they are snapshot answers).
    pub fn model_share(&self) -> f64 {
        let answered = self.model_served + self.degraded_served + self.exact_served;
        if answered == 0 {
            0.0
        } else {
            (self.model_served + self.degraded_served) as f64 / answered as f64
        }
    }
}

/// The measured dip → fallback-spike → retrain → recovery trajectory.
#[derive(Debug, Clone)]
pub struct DriftReport {
    /// Per-window route tallies across the whole stream.
    pub windows: Vec<DriftWindow>,
    /// Window size in queries.
    pub window: usize,
    /// Stream position where the drift began.
    pub drift_at: usize,
    /// Model share of the last window fully before the drift.
    pub baseline_model_share: f64,
    /// Lowest model share over the windows at/after the drift (the dip
    /// the fallback spike answers).
    pub dip_model_share: f64,
    /// Stream position of the first post-drift window whose model share
    /// recovered to [`RECOVERY_FRACTION`] × baseline; `None` = never.
    pub recovered_at: Option<usize>,
}

impl DriftReport {
    /// Recovery time-to-confidence in *queries* from drift onset; `None`
    /// when the fabric never recovered within the stream.
    pub fn recovery_queries(&self) -> Option<usize> {
        self.recovered_at.map(|at| at - self.drift_at)
    }
}

/// Drive `router` through `total` queries of the drifting workload in a
/// single-threaded closed loop (`q1` auto-routing: confident snapshot
/// serves, exact fallbacks feeding the trainers) and measure the recovery
/// trajectory in `window`-sized tallies.
///
/// Deterministic given `seed` and the router's starting state — the
/// recovery point is a property of the learner, not of thread timing.
///
/// # Panics
/// Panics when `total`, `window` or the valley's radius band is
/// degenerate, or on a non-workload serve error (dimension mismatch).
pub fn drift_recovery_loop(
    router: &ShardRouter,
    valley: &ShiftingValley,
    total: usize,
    window: usize,
    seed: u64,
) -> DriftReport {
    assert!(total > 0 && window > 0, "degenerate drift stream");
    assert!(
        valley.radius_min > 0.0 && valley.radius_min < valley.radius_max,
        "degenerate radius band"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut windows: Vec<DriftWindow> = Vec::with_capacity(total.div_ceil(window));
    for i in 0..total {
        if i % window == 0 {
            windows.push(DriftWindow {
                start: i,
                ..DriftWindow::default()
            });
        }
        let w = windows.last_mut().expect("window pushed above");
        w.queries += 1;
        let q = valley.query_at(i, &mut rng);
        match router.q1(&q) {
            Ok(served) => {
                match served.route {
                    Route::Model => w.model_served += 1,
                    Route::Degraded => w.degraded_served += 1,
                    Route::Exact => w.exact_served += 1,
                }
                if served.feedback_dropped {
                    w.feedback_dropped += 1;
                }
            }
            Err(ServeError::EmptySubspace) => w.empty += 1,
            Err(e) => panic!("drift loop hit a non-workload error: {e}"),
        }
    }
    let baseline_model_share = windows
        .iter()
        .rfind(|w| w.start + window <= valley.drift_at)
        .map(DriftWindow::model_share)
        .unwrap_or(0.0);
    let dip_model_share = windows
        .iter()
        .filter(|w| w.start >= valley.drift_at)
        .map(DriftWindow::model_share)
        .fold(f64::INFINITY, f64::min);
    let dip_model_share = if dip_model_share.is_finite() {
        dip_model_share
    } else {
        baseline_model_share
    };
    let recovered_at = windows
        .iter()
        .filter(|w| w.start >= valley.drift_at + valley.drift_len)
        .find(|w| w.model_share() >= RECOVERY_FRACTION * baseline_model_share)
        .map(|w| w.start);
    DriftReport {
        windows,
        window,
        drift_at: valley.drift_at,
        baseline_model_share,
        dip_model_share,
        recovered_at,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regq_core::{LlmModel, ModelConfig};
    use regq_data::generators::GasSensorSurrogate;
    use regq_data::rng::seeded;
    use regq_data::{Dataset, SampleOptions};
    use regq_exact::ExactEngine;
    use regq_serve::{FaultKind, FaultPlan, RoutePolicy};
    use regq_store::AccessPathKind;
    use std::sync::Arc;

    fn router(seed: u64) -> ShardRouter {
        let field = GasSensorSurrogate::new(2, 3);
        let mut rng = seeded(seed);
        let data = Dataset::from_function(&field, 20_000, SampleOptions::default(), &mut rng);
        let exact = ExactEngine::new(Arc::new(data), AccessPathKind::KdTree);
        ShardRouter::with_model(
            exact,
            LlmModel::new(ModelConfig::with_vigilance(2, 0.08)).unwrap(),
            RoutePolicy {
                confidence_threshold: 0.3,
                feedback: true,
                publish_interval: 32,
                ..RoutePolicy::default()
            },
            2,
        )
    }

    fn valley() -> ShiftingValley {
        ShiftingValley {
            start: vec![0.25, 0.25],
            end: vec![0.75, 0.75],
            radius_min: 0.08,
            radius_max: 0.16,
            jitter: 0.08,
            drift_at: 3_000,
            drift_len: 500,
        }
    }

    #[test]
    fn valley_ramps_deterministically() {
        let v = valley();
        assert_eq!(v.phase(0), 0.0);
        assert_eq!(v.phase(v.drift_at + v.drift_len), 1.0);
        assert!(v.phase(v.drift_at + 250) > 0.0 && v.phase(v.drift_at + 250) < 1.0);
        assert_eq!(v.center_at(0), vec![0.25, 0.25]);
        assert_eq!(v.center_at(10_000), vec![0.75, 0.75]);
        let (mut a, mut b) = (StdRng::seed_from_u64(7), StdRng::seed_from_u64(7));
        for i in 0..100 {
            let (qa, qb) = (v.query_at(i, &mut a), v.query_at(i, &mut b));
            assert_eq!(qa.center, qb.center);
            assert_eq!(qa.radius.to_bits(), qb.radius.to_bits());
        }
    }

    #[test]
    fn drifting_loop_dips_then_recovers() {
        let report = drift_recovery_loop(&router(31), &valley(), 8_000, 250, 33);
        assert!(
            report.baseline_model_share > 0.5,
            "never learned the pre-drift region: baseline {}",
            report.baseline_model_share
        );
        assert!(
            report.dip_model_share < report.baseline_model_share,
            "drift caused no dip: {} vs {}",
            report.dip_model_share,
            report.baseline_model_share
        );
        let recovered = report
            .recovered_at
            .expect("fabric never recovered from the drift");
        assert!(recovered >= valley().drift_at);
        assert!(
            report.recovery_queries().unwrap() <= 5_000,
            "recovery too slow: {:?}",
            report.recovery_queries()
        );
        // The fallback spike is what retrains: some window at/after the
        // drift must lean on the exact engine harder than baseline.
        let spike = report
            .windows
            .iter()
            .filter(|w| w.start >= report.drift_at)
            .map(|w| w.exact_served)
            .max()
            .unwrap();
        let calm = report
            .windows
            .iter()
            .rfind(|w| w.start + report.window <= report.drift_at)
            .unwrap()
            .exact_served;
        assert!(spike > calm, "no fallback spike: {spike} vs {calm}");
    }

    #[test]
    fn drifting_loop_survives_an_active_fault_plan() {
        let mut r = router(41);
        r.set_fault_plan(FaultPlan::seeded(
            &[
                FaultKind::TrainerPanic,
                FaultKind::LockPoison,
                FaultKind::QueueOverflow,
            ],
            43,
            4_000,
            4,
        ));
        let report = drift_recovery_loop(&r, &valley(), 8_000, 250, 33);
        assert!(
            report.recovered_at.is_some(),
            "faults prevented drift recovery: {report:?}"
        );
        let stats = r.stats();
        assert!(
            stats.trainer_panics + stats.lock_poisonings > 0,
            "fault plan never fired: {stats:?}"
        );
        assert_eq!(
            stats.trainer_restarts,
            stats.trainer_panics + stats.lock_poisonings,
            "every fault must be answered by a counted restart"
        );
    }
}
