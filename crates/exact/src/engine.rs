//! The exact-engine façade: one relation, three engines.
//!
//! Plays the role of "the RDBMS + statistical package" in the paper's
//! Fig. 2: the training loop calls [`ExactEngine::q1_batch`] (one batch
//! per contiguous run of a chunk of its query stream, the runs on every
//! core the host grants) to obtain ground truth answers, and the
//! efficiency experiment (Fig. 12) times [`ExactEngine::q1`] /
//! [`ExactEngine::q2_reg`] / [`ExactEngine::q2_plr`] against the model's
//! prediction latency.

use crate::mars::{Mars, MarsModel, MarsParams};
use crate::ols::{fit_ols_ball, fit_ols_global, BallFit, LinearModel};
use crate::q1::{avg, q1_mean, q1_moments, Moments};
use regq_data::Dataset;
use regq_linalg::LinalgError;
use regq_store::{AccessPathKind, Relation};
use std::sync::{Arc, OnceLock};

/// A relation bundled with exact Q1/Q2 executors.
pub struct ExactEngine {
    rel: Relation,
    /// Lazily computed global REG (the accuracy baseline of Figs. 9–11).
    global_reg: OnceLock<Result<LinearModel, LinalgError>>,
}

impl ExactEngine {
    /// Build over a dataset with the chosen access path.
    pub fn new(data: Arc<Dataset>, path: AccessPathKind) -> Self {
        ExactEngine {
            rel: Relation::new(data, path),
            global_reg: OnceLock::new(),
        }
    }

    /// The underlying relation.
    pub fn relation(&self) -> &Relation {
        &self.rel
    }

    /// Exact Q1: mean of `u` over `D(center, radius)`; `None` when empty.
    pub fn q1(&self, center: &[f64], radius: f64) -> Option<f64> {
        q1_mean(&self.rel, center, radius)
    }

    /// Exact Q1 over a batch of balls: `out[i]` is
    /// `q1(centre i, radii[i])` bit for bit, where `centres` holds the
    /// centres one after another (`radii.len() × dim` values). The access
    /// path executes the balls in its own order
    /// ([`Relation::sum_targets_batch`]): over the kd-tree, balls whose
    /// centres share a build leaf run back to back and find its cells
    /// still cached.
    ///
    /// # Panics
    /// Panics unless `out.len() == radii.len()` and
    /// `centres.len() == radii.len() × dim`.
    pub fn q1_batch(&self, centres: &[f64], radii: &[f64], out: &mut [Option<f64>]) {
        assert_eq!(out.len(), radii.len(), "one answer slot per ball");
        self.rel
            .sum_targets_batch(centres, radii, |i, state| out[i] = avg(state));
    }

    /// Exact Q1 with second moments.
    pub fn q1_moments(&self, center: &[f64], radius: f64) -> Option<Moments> {
        q1_moments(&self.rel, center, radius)
    }

    /// Exact per-query REG: OLS over the selection, with the Gram state
    /// pushed into the index traversal (see [`fit_ols_ball`]).
    pub fn q2_reg(&self, center: &[f64], radius: f64) -> Result<LinearModel, LinalgError> {
        fit_ols_ball(&self.rel, center, radius).map(|b| b.model)
    }

    /// Fused exact Q1 + REG: one index traversal answers both the mean
    /// query and the per-query OLS (the ground-truth pair the training
    /// loop and the Fig. 12 efficiency experiment execute).
    pub fn q1_reg_fused(&self, center: &[f64], radius: f64) -> Result<BallFit, LinalgError> {
        fit_ols_ball(&self.rel, center, radius)
    }

    /// Exact per-query PLR: MARS over the selection.
    pub fn q2_plr(
        &self,
        center: &[f64],
        radius: f64,
        params: MarsParams,
    ) -> Result<MarsModel, LinalgError> {
        self.rel.with_selection(center, radius, |ds, ids| {
            if ids.is_empty() {
                Err(LinalgError::Empty)
            } else {
                Mars::fit(ds, ids, params)
            }
        })
    }

    /// The global REG model over the whole relation (computed once).
    pub fn global_reg(&self) -> Result<&LinearModel, &LinalgError> {
        self.global_reg
            .get_or_init(|| fit_ols_global(self.rel.dataset()))
            .as_ref()
    }

    /// Row ids of a selection (for external evaluation passes).
    pub fn select(&self, center: &[f64], radius: f64) -> Vec<usize> {
        self.rel.select(center, radius)
    }
}

impl std::fmt::Debug for ExactEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExactEngine")
            .field("rel", &self.rel)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngExt;
    use regq_data::rng::seeded;

    fn engine() -> ExactEngine {
        let mut rng = seeded(23);
        let mut ds = Dataset::new(2);
        for _ in 0..1000 {
            let x = [rng.random_range(0.0..1.0), rng.random_range(0.0..1.0)];
            // Mildly non-linear surface.
            let u = x[0] + 0.5 * x[1] * x[1];
            ds.push(&x, u).unwrap();
        }
        ExactEngine::new(Arc::new(ds), AccessPathKind::KdTree)
    }

    #[test]
    fn q1_agrees_with_manual_mean() {
        let e = engine();
        let ids = e.select(&[0.5, 0.5], 0.2);
        let manual: f64 = ids
            .iter()
            .map(|&i| e.relation().dataset().y(i))
            .sum::<f64>()
            / ids.len() as f64;
        let q1 = e.q1(&[0.5, 0.5], 0.2).unwrap();
        assert!((q1 - manual).abs() < 1e-12);
    }

    #[test]
    fn q2_reg_fits_selection() {
        let e = engine();
        let m = e.q2_reg(&[0.5, 0.5], 0.3).unwrap();
        assert_eq!(m.dim(), 2);
        // Local fit should be decent on this smooth surface.
        assert!(m.fit.cod > 0.5, "cod = {}", m.fit.cod);
    }

    #[test]
    fn q2_plr_at_least_matches_reg() {
        let e = engine();
        let reg = e.q2_reg(&[0.5, 0.5], 0.35).unwrap();
        let plr = e.q2_plr(&[0.5, 0.5], 0.35, MarsParams::default()).unwrap();
        assert!(
            plr.fit.fvu <= reg.fit.fvu + 1e-9,
            "plr {} vs reg {}",
            plr.fit.fvu,
            reg.fit.fvu
        );
    }

    #[test]
    fn empty_selection_propagates() {
        let e = engine();
        assert!(e.q1(&[10.0, 10.0], 0.1).is_none());
        assert!(e.q2_reg(&[10.0, 10.0], 0.1).is_err());
        assert!(e.q2_plr(&[10.0, 10.0], 0.1, MarsParams::default()).is_err());
    }

    #[test]
    fn global_reg_is_cached_and_stable() {
        let e = engine();
        let a = e.global_reg().unwrap().clone();
        let b = e.global_reg().unwrap().clone();
        assert_eq!(a, b);
    }

    #[test]
    fn fused_execution_answers_both_queries_in_one_pass() {
        let e = engine();
        let (c, r) = ([0.5, 0.5], 0.3);
        let fused = e.q1_reg_fused(&c, r).unwrap();
        // One mean of a ball: the tree-shaped sum over n, bit for bit.
        assert_eq!(fused.moments.mean.to_bits(), e.q1(&c, r).unwrap().to_bits());
        let reg = e.q2_reg(&c, r).unwrap();
        assert_eq!(fused.model, reg);
        assert_eq!(fused.moments.n, e.select(&c, r).len());
    }
}
