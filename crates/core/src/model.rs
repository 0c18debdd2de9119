//! The [`LlmModel`]: conditionally-growing AVQ + SGD-trained Local Linear
//! Mappings (paper Section IV, Algorithm 1, Theorem 4).
//!
//! Training consumes a stream of `(q_t, y_t)` pairs (query, exact answer)
//! obtained from the DBMS — the Fig. 2 loop. Each step:
//!
//! 1. find the winner `j = argmin_k ‖q − w_k‖₂` (joint query-space `L2`)
//!    — not by an `O(dK)` scan: a trainable model keeps a live
//!    [`BlockLayout`] over its prototypes (derived state: built when the
//!    model becomes trainable, kept current by every update and spawn,
//!    dropped on freeze), whose per-block bounds skip the blocks that
//!    provably cannot hold the winner, bit-identical to the scan
//!    [`PrototypeArena::winner`] that defines it;
//! 2. if `‖q − w_j‖₂ ≤ ρ`, apply the Theorem 4 SGD updates
//!    ```text
//!    Δw_j = η (q − w_j)
//!    e    = y − y_j − b_j (q − w_j)ᵀ
//!    Δb_j = η e (q − w_j)
//!    Δy_j = η e
//!    ```
//! 3. otherwise spawn a new prototype at `q` with zeroed coefficients;
//! 4. track `Γ_J = Σ_k ‖w_{k,t} − w_{k,t−1}‖₂` and
//!    `Γ_H = Σ_k ‖b_{k,t} − b_{k,t−1}‖₂ + |y_{k,t} − y_{k,t−1}|` — only the
//!    winner moves, so the sums collapse to its displacement; a spawning
//!    step contributes `ρ` (design decision D-2);
//! 5. stop once `Γ = max(Γ_J, Γ_H) ≤ γ` for `convergence_window`
//!    consecutive steps.
//!
//! After convergence the model freezes (the paper performs no further
//! modification at prediction time) and drops its layout, so a frozen
//! model — and every serving or shard copy made of it — costs nothing
//! beyond its arena; [`LlmModel::unfreeze`] rebuilds the layout and
//! re-opens the model for further training.

use crate::arena::{BlockLayout, PrototypeArena, SearchScratch};
use crate::config::ModelConfig;
use crate::error::CoreError;
use crate::prototype::Prototype;
use crate::query::Query;
use regq_linalg::vector;

/// What a single training step did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepOutcome {
    /// Index of the winning (updated or spawned) prototype.
    pub winner: usize,
    /// `true` when the step spawned a new prototype.
    pub spawned: bool,
    /// This step's `Γ_J` contribution.
    pub gamma_j: f64,
    /// This step's `Γ_H` contribution.
    pub gamma_h: f64,
    /// `true` once the convergence criterion is met (model froze).
    pub converged: bool,
}

/// Summary of a full training run ([`LlmModel::fit_stream`]).
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Number of `(q, y)` pairs consumed.
    pub steps: usize,
    /// Final number of prototypes `K`.
    pub prototypes: usize,
    /// Whether `Γ ≤ γ` was reached (vs. stream exhausted).
    pub converged: bool,
    /// Per-step `Γ = max(Γ_J, Γ_H)` trace (feeds the Fig. 6 experiment).
    pub gamma_trace: Vec<f64>,
}

/// The query-driven predictive model (Section III–V of the paper).
///
/// # Example
///
/// ```
/// use regq_core::{LlmModel, ModelConfig, Query};
///
/// // Teacher: the mean of u over any ball centered at x is 2 + x  (a
/// // linear data function makes the ball-mean equal the center value).
/// let mut model = LlmModel::new(ModelConfig::paper_defaults(1)).unwrap();
/// let stream = (0..20_000).map(|i| {
///     let x = (i % 100) as f64 / 100.0;
///     let theta = 0.05 + (i % 7) as f64 * 0.01;
///     (Query::new_unchecked(vec![x], theta), 2.0 + x)
/// });
/// let report = model.fit_stream(stream).unwrap();
/// assert!(report.converged);
///
/// // Prediction needs no data access:
/// let q = Query::new(vec![0.4], 0.08).unwrap();
/// let y = model.predict_q1(&q).unwrap();
/// assert!((y - 2.4).abs() < 0.1, "got {y}");
/// ```
#[derive(Debug, Clone)]
pub struct LlmModel {
    config: ModelConfig,
    /// The learned parameters `α`, packed struct-of-arrays
    /// ([`PrototypeArena`]) so the oracle's `O(dK)` winner/overlap scans
    /// stream through contiguous memory.
    arena: PrototypeArena,
    /// The winner search of a trainable model — derived from `arena` and
    /// kept current with it; `None` exactly when the model is frozen
    /// (training steps are then no-ops).
    search: Option<Search>,
    /// Global SGD step counter `t`.
    global_step: u64,
    /// Consecutive steps with `Γ ≤ γ` so far.
    quiet_steps: usize,
}

/// What a trainable model keeps beside its arena: the live layout its
/// winner search runs on, and the search's scratch.
#[derive(Debug, Clone)]
struct Search {
    layout: BlockLayout,
    scratch: SearchScratch,
}

impl Search {
    fn over(arena: &PrototypeArena) -> Self {
        Search {
            layout: BlockLayout::build(arena),
            scratch: SearchScratch::default(),
        }
    }
}

impl LlmModel {
    /// Create an untrained model.
    ///
    /// # Errors
    /// [`CoreError::InvalidConfig`] if the configuration is invalid.
    pub fn new(config: ModelConfig) -> Result<Self, CoreError> {
        config.validate()?;
        let arena = PrototypeArena::new(config.dim);
        Ok(LlmModel {
            search: Some(Search::over(&arena)),
            config,
            arena,
            global_step: 0,
            quiet_steps: 0,
        })
    }

    /// The model configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// The packed prototype storage (the learned parameters `α`) — the
    /// zero-copy view the serving path runs on.
    pub fn arena(&self) -> &PrototypeArena {
        &self.arena
    }

    /// Owned snapshot of the prototype set (materializes one
    /// [`Prototype`] per slot — inspection, persistence and test
    /// comparisons; the serving path uses [`LlmModel::arena`]).
    pub fn prototypes(&self) -> Vec<Prototype> {
        self.arena.to_prototypes()
    }

    /// Number of prototypes `K`.
    pub fn k(&self) -> usize {
        self.arena.len()
    }

    /// Input dimensionality `d`.
    pub fn dim(&self) -> usize {
        self.config.dim
    }

    /// `true` once the convergence criterion (or [`LlmModel::freeze`])
    /// froze the model.
    pub fn is_frozen(&self) -> bool {
        self.search.is_none()
    }

    /// Number of training steps consumed so far.
    pub fn steps(&self) -> u64 {
        self.global_step
    }

    /// Unfreeze: subsequent [`LlmModel::train_step`] calls
    /// update parameters again. Rebuilds the winner search's layout
    /// (`O(dK + K log K)`).
    pub fn unfreeze(&mut self) {
        if self.search.is_none() {
            self.search = Some(Search::over(&self.arena));
        }
        self.quiet_steps = 0;
    }

    /// Freeze: training steps become no-ops (prediction-only serving),
    /// and the winner search's layout is dropped.
    pub fn freeze(&mut self) {
        self.search = None;
    }

    /// Winner search: index and squared joint distance of the closest
    /// prototype. `None` for an empty model. Runs the definition — the
    /// batched single-pass scan over the arena ([`PrototypeArena::winner`],
    /// pinned to its per-row definition there), which the trainer's
    /// layout search reproduces bit for bit.
    pub fn winner(&self, q: &Query) -> Option<(usize, f64)> {
        self.arena.winner(&q.center, q.radius)
    }

    /// One step of Algorithm 1 on a `(q, y)` pair.
    ///
    /// # Errors
    /// * [`CoreError::DimensionMismatch`] if `q.dim() != config.dim`;
    /// * [`CoreError::NonFinite`] for NaN/inf query or answer.
    pub fn train_step(&mut self, q: &Query, y: f64) -> Result<StepOutcome, CoreError> {
        self.step_inner(q, y, true)
    }

    /// Like [`LlmModel::train_step`] but with the convergence accounting
    /// disabled: the model never freezes itself. Callers that coordinate
    /// several heads over one logical codebook (e.g.
    /// [`crate::moments::MomentsModel`]) drive convergence externally and
    /// call [`LlmModel::freeze`] themselves.
    pub fn train_step_plastic(&mut self, q: &Query, y: f64) -> Result<StepOutcome, CoreError> {
        self.step_inner(q, y, false)
    }

    fn step_inner(
        &mut self,
        q: &Query,
        y: f64,
        convergence_accounting: bool,
    ) -> Result<StepOutcome, CoreError> {
        if q.dim() != self.config.dim {
            return Err(CoreError::DimensionMismatch {
                expected: self.config.dim,
                actual: q.dim(),
            });
        }
        if !vector::all_finite(&q.center) || !q.radius.is_finite() || !y.is_finite() {
            return Err(CoreError::NonFinite {
                location: "train_step input",
            });
        }

        let rho = self.config.rho();

        // First pair initializes the codebook (Algorithm 1 init phase).
        if self.arena.is_empty() {
            self.arena.push_query(&q.center, q.radius);
            if let Some(search) = &mut self.search {
                search.layout.push_row(&self.arena, 0, 0);
            }
            self.global_step += 1;
            return Ok(StepOutcome {
                winner: 0,
                spawned: true,
                gamma_j: rho,
                gamma_h: 0.0,
                converged: false,
            });
        }

        self.global_step += 1;
        let Some(search) = self.search.as_mut() else {
            // Paper: after convergence "no further modification is
            // performed". A frozen model holds no layout; the winner it
            // reports comes from the definition.
            // INVARIANT: the arena is non-empty (the branch above
            // returned otherwise), and `winner` is `None` only when empty.
            let (j, _) = self.winner(q).expect("non-empty codebook");
            return Ok(StepOutcome {
                winner: j,
                spawned: false,
                gamma_j: 0.0,
                gamma_h: 0.0,
                converged: true,
            });
        };
        let ((j, sq), nearest) = search
            .layout
            .winner(q, &mut search.scratch)
            // INVARIANT: the live layout covers the non-empty arena (every
            // push is followed by a `push_row`), and `winner` is `None`
            // only on an empty layout.
            .expect("non-empty codebook");

        let (gamma_j, gamma_h, winner, spawned) = if sq.sqrt() <= rho {
            let updates = self.arena.updates(j);
            let eta = self.config.schedule.rate(updates, self.global_step);

            // Joint query-space residual vector (q − w_j), split into its
            // input part and radius part. Theorem 4 updates all of α_j
            // simultaneously against this *pre-update* residual. Its input
            // part is never stored: each pass recomputes `q_i − w_{j,i}`
            // from operands that have not moved yet — the bits a stored
            // copy would hold — so a step allocates nothing at any `d`.
            let (mut dq_sq, mut b_dot_dq) = (0.0, 0.0);
            for ((qi, wi), bi) in q
                .center
                .iter()
                .zip(self.arena.center(j))
                .zip(self.arena.b_x(j))
            {
                let dqi = qi - wi;
                dq_sq += dqi * dqi;
                b_dot_dq += bi * dqi;
            }
            let dtheta = q.radius - self.arena.radius(j);
            let dq_sq = dq_sq + dtheta * dtheta;

            // Prediction error of the current LLM at q (Theorem 4's e).
            let err = y - self.arena.y(j) - b_dot_dq - self.arena.b_theta(j) * dtheta;

            // Coefficient steps run on their own (slower-decaying)
            // Robbins–Monro schedule — see coeff_rate_power (D-8).
            let eta_c = self.config.schedule.coeff_rate(
                updates,
                self.global_step,
                self.config.coeff_rate_power,
            );

            // Slope step: Δb_j = η_c e (q − w_j), optionally
            // NLMS-normalized by (ε + ‖q − w_j‖²) — see SlopeUpdate (D-8).
            let slope_scale = match self.config.slope_update {
                crate::config::SlopeUpdate::Normalized { epsilon } => {
                    eta_c * err / (epsilon + dq_sq)
                }
                crate::config::SlopeUpdate::Raw => eta_c * err,
            };

            let p = self.arena.view_mut(j);

            // Δw_j = η (q − w_j) and Δb_{X,j} = slope_scale (x − x_j), one
            // coordinate at a time: coordinate i's residual is read
            // before coordinate i of the centre moves.
            let w_disp = eta * dq_sq.sqrt();
            let mut b_disp_sq = 0.0;
            for ((w, b), qi) in p.center.iter_mut().zip(p.b_x.iter_mut()).zip(&q.center) {
                let dqi = qi - *w;
                *w += eta * dqi;
                let delta = slope_scale * dqi;
                *b += delta;
                b_disp_sq += delta * delta;
            }
            *p.radius += eta * dtheta;
            let delta_btheta = slope_scale * dtheta;
            *p.b_theta += delta_btheta;
            b_disp_sq += delta_btheta * delta_btheta;
            let delta_y = eta_c * err;
            *p.y += delta_y;
            *p.updates += 1;
            search.layout.set_row(&self.arena, j);

            // Γ contributions: ‖Δw‖₂ and ‖Δb‖₂ + |Δy| of the winner.
            (w_disp, b_disp_sq.sqrt() + delta_y.abs(), j, false)
        } else {
            // Vigilance violated: grow the codebook (K += 1), filed in the
            // block the search found nearest to q.
            self.arena.push_query(&q.center, q.radius);
            let k = self.arena.len() - 1;
            search.layout.push_row(&self.arena, k, nearest);
            search.scratch.size_for(&search.layout);
            (rho, 0.0, k, true)
        };

        // Convergence accounting.
        if convergence_accounting {
            let gamma = gamma_j.max(gamma_h);
            if gamma <= self.config.gamma {
                self.quiet_steps += 1;
                if self.quiet_steps >= self.config.convergence_window {
                    self.freeze();
                }
            } else {
                self.quiet_steps = 0;
            }
        }

        Ok(StepOutcome {
            winner,
            spawned,
            gamma_j,
            gamma_h,
            converged: self.is_frozen(),
        })
    }

    /// Train on a stream of pairs until convergence or stream exhaustion
    /// (Algorithm 1); cap it with `pairs.take(n)`.
    ///
    /// # Errors
    /// Propagates the first [`CoreError`] from [`LlmModel::train_step`].
    pub fn fit_stream<I>(&mut self, pairs: I) -> Result<TrainReport, CoreError>
    where
        I: IntoIterator<Item = (Query, f64)>,
    {
        let mut trace = Vec::new();
        let mut steps = 0usize;
        for (q, y) in pairs {
            let out = self.train_step(&q, y)?;
            steps += 1;
            trace.push(out.gamma_j.max(out.gamma_h));
            if out.converged {
                break;
            }
        }
        Ok(TrainReport {
            steps,
            prototypes: self.k(),
            converged: self.is_frozen(),
            gamma_trace: trace,
        })
    }

    /// Assemble a model from explicit parts: configuration, prototype
    /// set, consumed-step count and frozen flag — how `persist` rebuilds a
    /// saved model and how the serving layer's shard fabric builds
    /// per-shard models from prototype subsets. An unfrozen model builds
    /// its winner search's layout here (`O(dK + K log K)`); a frozen one
    /// holds none. Prototypes are not checked for finiteness: a NaN or
    /// infinite parameter is carried as is, and the layout keeps the
    /// block holding it unbounded, so the winner is still the scan's.
    ///
    /// # Errors
    /// [`CoreError::InvalidConfig`] / [`CoreError::DimensionMismatch`] on
    /// inconsistent parts.
    pub fn from_parts(
        config: ModelConfig,
        prototypes: Vec<Prototype>,
        global_step: u64,
        frozen: bool,
    ) -> Result<Self, CoreError> {
        config.validate()?;
        for p in &prototypes {
            if p.dim() != config.dim || p.b_x.len() != config.dim {
                return Err(CoreError::DimensionMismatch {
                    expected: config.dim,
                    actual: p.dim(),
                });
            }
        }
        let arena = PrototypeArena::from_prototypes(config.dim, &prototypes);
        Ok(LlmModel {
            search: (!frozen).then(|| Search::over(&arena)),
            config,
            arena,
            global_step,
            quiet_steps: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::LearningSchedule;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn q(center: &[f64], r: f64) -> Query {
        Query::new(center.to_vec(), r).unwrap()
    }

    /// Stream of queries over [0,1]^d answered by a linear function of the
    /// center (the easiest consistent teacher for the LLM).
    fn linear_stream(d: usize, n: usize, seed: u64) -> impl Iterator<Item = (Query, f64)> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(move |_| {
            let center: Vec<f64> = (0..d).map(|_| rng.random_range(0.0..1.0)).collect();
            let radius = rng.random_range(0.05..0.15);
            let y = 2.0 + center.iter().sum::<f64>();
            (Query::new_unchecked(center, radius), y)
        })
    }

    #[test]
    fn first_query_becomes_first_prototype() {
        let mut m = LlmModel::new(ModelConfig::paper_defaults(2)).unwrap();
        let out = m.train_step(&q(&[0.3, 0.4], 0.1), 1.0).unwrap();
        assert!(out.spawned);
        assert_eq!(m.k(), 1);
        let p = &m.prototypes()[0];
        assert_eq!(p.center, vec![0.3, 0.4]);
        assert_eq!(p.radius, 0.1);
        assert_eq!(p.y, 0.0);
    }

    #[test]
    fn far_query_spawns_new_prototype() {
        // Tiny vigilance: every distinct query becomes its own prototype.
        let mut cfg = ModelConfig::paper_defaults(2);
        cfg.vigilance_override = Some(1e-6);
        let mut m = LlmModel::new(cfg).unwrap();
        m.train_step(&q(&[0.0, 0.0], 0.1), 1.0).unwrap();
        let out = m.train_step(&q(&[0.5, 0.5], 0.1), 2.0).unwrap();
        assert!(out.spawned);
        assert_eq!(m.k(), 2);
    }

    #[test]
    fn near_query_updates_winner_not_k() {
        let mut m = LlmModel::new(ModelConfig::paper_defaults(2)).unwrap();
        m.train_step(&q(&[0.5, 0.5], 0.1), 1.0).unwrap();
        let out = m.train_step(&q(&[0.52, 0.5], 0.1), 1.0).unwrap();
        assert!(!out.spawned);
        assert_eq!(m.k(), 1);
        // Winner moved toward the query.
        let p = &m.prototypes()[0];
        assert!(p.center[0] > 0.5 && p.center[0] < 0.52);
    }

    #[test]
    fn accepted_update_respects_vigilance_invariant() {
        // After an update, the winner has moved toward q, so the distance
        // can only have shrunk: ‖q − w_j'‖ = (1−η)‖q − w_j‖ ≤ ρ.
        let mut m = LlmModel::new(ModelConfig::paper_defaults(1)).unwrap();
        let rho = m.config().rho();
        m.train_step(&q(&[0.0], 0.1), 0.0).unwrap();
        let query = q(&[rho * 0.7], 0.1);
        m.train_step(&query, 1.0).unwrap();
        let (j, sq) = m.winner(&query).unwrap();
        assert_eq!(j, 0);
        assert!(sq.sqrt() <= rho);
    }

    #[test]
    fn theorem4_update_reduces_local_prediction_error() {
        // Disable the convergence freeze: this test studies the raw SGD
        // fixed-point behaviour on a repeated pair.
        let mut cfg = ModelConfig::paper_defaults(1);
        cfg.gamma = 1e-300;
        let mut m = LlmModel::new(cfg).unwrap();
        m.train_step(&q(&[0.5], 0.1), 3.0).unwrap();
        // Repeatedly show the same pair; f_j(q) must approach y = 3.
        // The error trend is decreasing (small transient wobbles are
        // allowed: the w/y/b updates jointly correct the same residual and
        // can briefly overshoot while the prototype is still moving).
        let query = q(&[0.55], 0.1);
        let mut errs = Vec::with_capacity(400);
        for _ in 0..400 {
            m.train_step(&query, 3.0).unwrap();
            let f = m.arena().eval(0, &query.center, query.radius);
            errs.push((3.0 - f).abs());
        }
        assert!(
            errs[399] < 0.02,
            "did not converge to teacher: {}",
            errs[399]
        );
        assert!(errs[399] < errs[10], "no overall decrease");
        assert!(errs[100] < errs[5], "no early decrease");
    }

    #[test]
    fn gamma_decreases_and_training_converges() {
        let mut m = LlmModel::new(ModelConfig::paper_defaults(2)).unwrap();
        let report = m.fit_stream(linear_stream(2, 50_000, 42)).unwrap();
        assert!(report.converged, "did not converge in 50k steps");
        assert!(m.is_frozen());
        assert!(report.prototypes > 1);
        assert_eq!(report.gamma_trace.len(), report.steps);
        // Early Γ is large, late Γ is at/below γ.
        let early: f64 = report.gamma_trace[..20].iter().sum::<f64>() / 20.0;
        let gamma = m.config().gamma;
        assert!(early > gamma);
        assert!(*report.gamma_trace.last().unwrap() <= gamma);
    }

    #[test]
    fn frozen_model_ignores_training() {
        let mut m = LlmModel::new(ModelConfig::paper_defaults(2)).unwrap();
        m.fit_stream(linear_stream(2, 50_000, 1)).unwrap();
        assert!(m.is_frozen());
        let before = m.prototypes();
        let k = m.k();
        // Even a far-away query must not mutate a frozen model.
        let out = m.train_step(&q(&[100.0, 100.0], 0.1), 5.0).unwrap();
        assert!(!out.spawned);
        assert_eq!(m.k(), k);
        assert_eq!(m.prototypes(), before);
    }

    #[test]
    fn unfreeze_restores_plasticity() {
        let mut m = LlmModel::new(ModelConfig::paper_defaults(2)).unwrap();
        m.fit_stream(linear_stream(2, 50_000, 2)).unwrap();
        assert!(m.is_frozen());
        m.unfreeze();
        let k = m.k();
        m.train_step(&q(&[100.0, 100.0], 0.1), 5.0).unwrap();
        assert_eq!(m.k(), k + 1);
    }

    #[test]
    fn smaller_vigilance_grows_more_prototypes() {
        let mut coarse = LlmModel::new(ModelConfig::with_vigilance(2, 0.9)).unwrap();
        let mut fine = LlmModel::new(ModelConfig::with_vigilance(2, 0.05)).unwrap();
        coarse.fit_stream(linear_stream(2, 2000, 3)).unwrap();
        fine.fit_stream(linear_stream(2, 2000, 3)).unwrap();
        assert!(
            fine.k() > coarse.k(),
            "fine {} vs coarse {}",
            fine.k(),
            coarse.k()
        );
    }

    #[test]
    fn a_equal_one_yields_single_prototype_on_unit_data() {
        // ρ = 1·(√2+1) ≈ 2.41 covers the whole [0,1]² query space.
        let mut m = LlmModel::new(ModelConfig::with_vigilance(2, 1.0)).unwrap();
        m.fit_stream(linear_stream(2, 2000, 4)).unwrap();
        assert_eq!(m.k(), 1);
    }

    #[test]
    fn dimension_mismatch_is_rejected() {
        let mut m = LlmModel::new(ModelConfig::paper_defaults(2)).unwrap();
        assert!(matches!(
            m.train_step(&q(&[0.1], 0.1), 0.0),
            Err(CoreError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn non_finite_answer_is_rejected() {
        let mut m = LlmModel::new(ModelConfig::paper_defaults(1)).unwrap();
        assert!(matches!(
            m.train_step(&q(&[0.1], 0.1), f64::NAN),
            Err(CoreError::NonFinite { .. })
        ));
    }

    #[test]
    fn take_caps_training() {
        let mut cfg = ModelConfig::paper_defaults(2);
        // Make convergence impossible quickly: huge gamma requirement off.
        cfg.gamma = 1e-12;
        let mut m = LlmModel::new(cfg).unwrap();
        let report = m.fit_stream(linear_stream(2, 10_000, 5).take(100)).unwrap();
        assert_eq!(report.steps, 100);
        assert!(!report.converged);
    }

    #[test]
    fn global_schedule_also_converges() {
        let mut cfg = ModelConfig::paper_defaults(2);
        cfg.schedule = LearningSchedule::HyperbolicGlobal;
        let mut m = LlmModel::new(cfg).unwrap();
        let report = m.fit_stream(linear_stream(2, 50_000, 6)).unwrap();
        assert!(report.converged);
    }

    #[test]
    fn prototype_radii_track_query_radii() {
        // All queries share θ = 0.12; converged prototypes should sit near
        // that radius (w_k holds E[θ] over its subspace).
        let mut rng = StdRng::seed_from_u64(7);
        let mut m = LlmModel::new(ModelConfig::paper_defaults(2)).unwrap();
        for _ in 0..3000 {
            let c: Vec<f64> = (0..2).map(|_| rng.random_range(0.0..1.0)).collect();
            let y = c[0] + c[1];
            if m.train_step(&Query::new_unchecked(c, 0.12), y)
                .unwrap()
                .converged
            {
                break;
            }
        }
        for p in m.prototypes() {
            if p.updates >= 5 {
                assert!(
                    (p.radius - 0.12).abs() < 0.05,
                    "radius {} far from 0.12",
                    p.radius
                );
            }
        }
    }
}
