//! Accuracy evaluators for the paper's §VI metrics.
//!
//! All evaluators draw *unseen* queries from a [`QueryGenerator`] (the
//! test set `V` of Fig. 2), execute ground truth on the exact engine, and
//! score the model with zero data access on the prediction side.
//!
//! The Q2 evaluator implements design decision D-3: each local model in
//! the returned list `S` is scored on the rows of `D(x, θ)` Voronoi-
//! assigned to its prototype center, with per-model FVU/CoD averaged over
//! the list (the paper's "average FVU `s̄ = (1/|S|) Σ s_ℓ`").

use crate::querygen::QueryGenerator;
use crate::stream::ExactChunk;
use crate::timer::LatencyStats;
use rand::Rng;
use regq_core::metrics::RmseAccumulator;
use regq_core::{LlmModel, LocalModel, Query, ScreenCounters};
use regq_exact::{ExactEngine, GoodnessOfFit, Mars, MarsParams};
use regq_linalg::vector;
use std::time::Instant;

/// A1 — mean-value prediction accuracy over unseen Q1 queries.
#[derive(Debug, Clone, Copy)]
pub struct Q1Eval {
    /// RMSE `e` between exact and predicted answers.
    pub rmse: f64,
    /// Mean absolute error (supplementary).
    pub mae: f64,
    /// Number of scored queries (empty subspaces are skipped).
    pub n: usize,
}

/// Evaluate A1 on `m` unseen queries. The exact answers run as the
/// training stream's do ([`crate::train_from_engine`]), one ordered
/// batch per chunk, and are scored in draw order.
pub fn evaluate_q1<R: Rng + ?Sized>(
    model: &LlmModel,
    engine: &ExactEngine,
    gen: &QueryGenerator,
    m: usize,
    rng: &mut R,
) -> Q1Eval {
    let mut acc = RmseAccumulator::new();
    let mut abs_sum = 0.0;
    let mut issued = 0usize;
    let mut chunk = ExactChunk::default();
    while issued < m {
        chunk.next(engine, gen, m - issued, rng);
        for (q, actual) in chunk.pairs() {
            issued += 1;
            let Some(actual) = actual else {
                continue;
            };
            let predicted = model.predict_q1(q).expect("trained model");
            acc.push(actual, predicted);
            abs_sum += (actual - predicted).abs();
        }
    }
    let n = acc.count() as usize;
    Q1Eval {
        rmse: acc.rmse().unwrap_or(0.0),
        mae: if n > 0 { abs_sum / n as f64 } else { 0.0 },
        n,
    }
}

/// A2 — data-value prediction accuracy (Eq. 14) of LLM vs the baselines.
#[derive(Debug, Clone, Copy)]
pub struct DataValueEval {
    /// RMSE `v` of the LLM prediction `û`.
    pub rmse_llm: f64,
    /// RMSE of the global REG baseline at the same points.
    pub rmse_reg_global: f64,
    /// RMSE of per-query PLR (present when a [`MarsParams`] was supplied).
    pub rmse_plr: Option<f64>,
    /// Number of scored `(x, u)` points.
    pub n: usize,
}

/// Evaluate A2: draw `m` probe queries; inside each non-empty subspace
/// score up to `points_per_query` member rows.
pub fn evaluate_data_values<R: Rng + ?Sized>(
    model: &LlmModel,
    engine: &ExactEngine,
    gen: &QueryGenerator,
    m: usize,
    points_per_query: usize,
    plr: Option<MarsParams>,
    rng: &mut R,
) -> DataValueEval {
    let ds = engine.relation().dataset().clone();
    let global = engine.global_reg().ok().cloned();
    let mut llm = RmseAccumulator::new();
    let mut reg = RmseAccumulator::new();
    let mut plr_acc = RmseAccumulator::new();
    for _ in 0..m {
        let q = gen.generate(rng);
        let ids = engine.select(&q.center, q.radius);
        if ids.is_empty() {
            continue;
        }
        // PLR must re-fit per subspace (that is the baseline's cost).
        let plr_model = plr.and_then(|params| Mars::fit(&ds, &ids, params).ok());
        let take = ids.len().min(points_per_query);
        for k in 0..take {
            // Deterministic stride subsample of the selection.
            let i = ids[k * ids.len() / take];
            let x = ds.x(i);
            let actual = ds.y(i);
            let pred = model.predict_value(&q, x).expect("trained model");
            llm.push(actual, pred);
            if let Some(g) = &global {
                reg.push(actual, g.predict(x));
            }
            if let Some(pm) = &plr_model {
                plr_acc.push(actual, pm.predict(x));
            }
        }
    }
    DataValueEval {
        rmse_llm: llm.rmse().unwrap_or(0.0),
        rmse_reg_global: reg.rmse().unwrap_or(0.0),
        rmse_plr: plr_acc.rmse(),
        n: llm.count() as usize,
    }
}

/// Q2 goodness-of-fit comparison (Figs. 9 & 10).
///
/// Per-query FVU is a ratio with an unbounded heavy upper tail (a query
/// whose subspace happens to have near-constant `u` can score in the
/// hundreds for *every* method), so both the mean and the median are
/// reported; ordering assertions should use the medians.
#[derive(Debug, Clone, Copy)]
pub struct Q2Eval {
    /// Mean per-local-model FVU of the LLM list `S` (D-3 scoring).
    pub llm_fvu: f64,
    /// Median per-query LLM FVU.
    pub llm_fvu_median: f64,
    /// Mean CoD of the LLM local models.
    pub llm_cod: f64,
    /// Mean FVU of the *global* REG inside each query subspace — may
    /// exceed 1 (this is the paper's REG accuracy baseline).
    pub reg_global_fvu: f64,
    /// Median per-query global-REG FVU.
    pub reg_global_fvu_median: f64,
    /// Mean CoD of global REG.
    pub reg_global_cod: f64,
    /// Mean FVU of per-query REG (OLS re-fit inside each subspace; always
    /// ≤ 1, since an in-sample fit with an intercept cannot do worse than
    /// the subspace mean — reported for completeness).
    pub reg_local_fvu: f64,
    /// Mean FVU of per-query PLR (present when requested).
    pub plr_fvu: Option<f64>,
    /// Median per-query PLR FVU.
    pub plr_fvu_median: Option<f64>,
    /// Mean CoD of per-query PLR.
    pub plr_cod: Option<f64>,
    /// Mean returned list size `|S|` (paper: 4.62).
    pub avg_s_len: f64,
    /// Variance of `|S|` (paper: 3.88).
    pub var_s_len: f64,
    /// Queries contributing to the averages.
    pub n: usize,
}

/// Evaluate Q2 on `m` unseen queries. Subspaces with fewer than `d + 2`
/// rows are skipped (no identifiable local fit to compare against).
pub fn evaluate_q2<R: Rng + ?Sized>(
    model: &LlmModel,
    engine: &ExactEngine,
    gen: &QueryGenerator,
    m: usize,
    plr: Option<MarsParams>,
    rng: &mut R,
) -> Q2Eval {
    let ds = engine.relation().dataset().clone();
    let d = ds.dim();
    let min_rows = d + 2;
    let global = engine.global_reg().ok().cloned();

    let mut llm_fvu = SampleAcc::default();
    let mut reg_g_fvu = SampleAcc::default();
    let mut reg_l_fvu = SampleAcc::default();
    let mut plr_fvu = SampleAcc::default();
    let mut s_stats = regq_linalg::OnlineStats::new();
    let mut n = 0usize;

    for _ in 0..m {
        let q = gen.generate(rng);
        let ids = engine.select(&q.center, q.radius);
        if ids.len() < min_rows {
            continue;
        }
        let s = model.predict_q2(&q).expect("trained model");
        s_stats.push(s.len() as f64);

        if let Some(fvu) = llm_list_fvu(&ds, &ids, &s, min_rows) {
            llm_fvu.push(fvu);
        }
        if let Some(g) = &global {
            if let Some(gof) = g.evaluate(&ds, &ids) {
                if gof.fvu.is_finite() {
                    reg_g_fvu.push(gof.fvu);
                }
            }
        }
        if let Ok(local) = regq_exact::fit_ols(&ds, &ids) {
            if local.fit.fvu.is_finite() {
                reg_l_fvu.push(local.fit.fvu);
            }
        }
        if let Some(params) = plr {
            if let Ok(pm) = Mars::fit(&ds, &ids, params) {
                if pm.fit.fvu.is_finite() {
                    plr_fvu.push(pm.fit.fvu);
                }
            }
        }
        n += 1;
    }

    Q2Eval {
        llm_fvu: llm_fvu.mean(),
        llm_fvu_median: llm_fvu.median(),
        llm_cod: 1.0 - llm_fvu.mean(),
        reg_global_fvu: reg_g_fvu.mean(),
        reg_global_fvu_median: reg_g_fvu.median(),
        reg_global_cod: 1.0 - reg_g_fvu.mean(),
        reg_local_fvu: reg_l_fvu.mean(),
        plr_fvu: plr.map(|_| plr_fvu.mean()),
        plr_fvu_median: plr.map(|_| plr_fvu.median()),
        plr_cod: plr.map(|_| 1.0 - plr_fvu.mean()),
        avg_s_len: s_stats.mean(),
        var_s_len: s_stats.variance(),
        n,
    }
}

/// D-3: average FVU of the local models in `S` over their Voronoi-assigned
/// rows of the selection. `None` when no model gets enough rows.
fn llm_list_fvu(
    ds: &regq_data::Dataset,
    ids: &[usize],
    s: &[LocalModel],
    min_rows: usize,
) -> Option<f64> {
    if s.is_empty() {
        return None;
    }
    // Assign each selected row to the closest local-model center.
    let mut assignment: Vec<Vec<usize>> = vec![Vec::new(); s.len()];
    for &i in ids {
        let x = ds.x(i);
        let mut best = 0usize;
        let mut best_d = f64::INFINITY;
        for (k, lm) in s.iter().enumerate() {
            let d = vector::sq_dist(x, &lm.center);
            if d < best_d {
                best_d = d;
                best = k;
            }
        }
        assignment[best].push(i);
    }
    // δ̃-weighted mean: the fused Q1/Q2 answer stands behind the list
    // members in proportion to their overlap weights, so low-weight (often
    // young, half-trained) members must not dominate the score (D-3).
    let mut wsum = 0.0;
    let mut acc = 0.0;
    for (lm, rows) in s.iter().zip(assignment.iter()) {
        if rows.len() < min_rows {
            continue;
        }
        let actual: Vec<f64> = rows.iter().map(|&i| ds.y(i)).collect();
        let pred: Vec<f64> = rows.iter().map(|&i| lm.predict(ds.x(i))).collect();
        if let Some(g) = GoodnessOfFit::evaluate(&actual, &pred) {
            // Skip numerically degenerate cells (u essentially constant:
            // the FVU ratio is meaningless there and a single such cell
            // would dominate the mean).
            if g.fvu.is_finite() && g.tss > 1e-9 * rows.len() as f64 {
                acc += lm.weight * g.fvu;
                wsum += lm.weight;
            }
        }
    }
    if wsum == 0.0 {
        None
    } else {
        Some(acc / wsum)
    }
}

/// Sample-retaining accumulator: mean + median.
#[derive(Debug, Default, Clone)]
struct SampleAcc {
    samples: Vec<f64>,
}

impl SampleAcc {
    fn push(&mut self, v: f64) {
        self.samples.push(v);
    }
    fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            f64::NAN
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }
    fn median(&self) -> f64 {
        if self.samples.is_empty() {
            return f64::NAN;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite FVU samples"));
        regq_linalg::stats::quantile_sorted(&sorted, 0.5)
    }
}

/// Timed Q1 prediction over a prepared query set (LLM side of Fig. 12).
/// Times what a statement is served by — the model's snapshot, captured
/// before the loop, through the pruned resolver — so the paper's speed
/// claim is made about the path a `USING MODEL` query takes, not about
/// the unpruned oracle behind [`LlmModel::predict_q1`].
pub fn time_q1_llm(model: &LlmModel, queries: &[Query]) -> LatencyStats {
    let snapshot = model.snapshot();
    let mut counters = ScreenCounters::default();
    let mut stats = LatencyStats::new();
    for q in queries {
        let t0 = Instant::now();
        let (y, _) = snapshot
            .predict_q1_with_confidence_pruned(q, &mut counters)
            .expect("trained model");
        stats.push(t0.elapsed());
        std::hint::black_box(y);
    }
    stats
}

/// Timed Q2 prediction over a prepared query set — the served path, like
/// [`time_q1_llm`].
pub fn time_q2_llm(model: &LlmModel, queries: &[Query]) -> LatencyStats {
    let snapshot = model.snapshot();
    let mut counters = ScreenCounters::default();
    let mut stats = LatencyStats::new();
    for q in queries {
        let t0 = Instant::now();
        let (s, _) = snapshot
            .predict_q2_with_confidence_pruned(q, &mut counters)
            .expect("trained model");
        stats.push(t0.elapsed());
        std::hint::black_box(s.len());
    }
    stats
}

/// Timed exact Q1 execution (selection + aggregate).
pub fn time_q1_exact(engine: &ExactEngine, queries: &[Query]) -> LatencyStats {
    let mut stats = LatencyStats::new();
    for q in queries {
        let (y, dur) = engine.q1_timed(&q.center, q.radius);
        stats.push(dur);
        std::hint::black_box(y);
    }
    stats
}

/// Timed exact per-query REG execution (selection + OLS).
pub fn time_q2_reg_exact(engine: &ExactEngine, queries: &[Query]) -> LatencyStats {
    let mut stats = LatencyStats::new();
    for q in queries {
        let (m, dur) = engine.q2_reg_timed(&q.center, q.radius);
        stats.push(dur);
        std::hint::black_box(m.is_ok());
    }
    stats
}

/// Timed exact per-query PLR execution (selection + MARS fit).
pub fn time_q2_plr_exact(
    engine: &ExactEngine,
    queries: &[Query],
    params: MarsParams,
) -> LatencyStats {
    let mut stats = LatencyStats::new();
    for q in queries {
        let (m, dur) = engine.q2_plr_timed(&q.center, q.radius, params);
        stats.push(dur);
        std::hint::black_box(m.is_ok());
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::train_from_engine;
    use regq_core::ModelConfig;
    use regq_data::generators::GasSensorSurrogate;
    use regq_data::rng::seeded;
    use regq_data::{Dataset, SampleOptions};
    use regq_store::AccessPathKind;
    use std::sync::Arc;

    /// Shared fixture: training against the exact engine is the expensive
    /// part of these tests, so build it once for the whole test binary.
    fn setup() -> &'static (ExactEngine, QueryGenerator, LlmModel) {
        use std::sync::OnceLock;
        static SETUP: OnceLock<(ExactEngine, QueryGenerator, LlmModel)> = OnceLock::new();
        SETUP.get_or_init(|| {
            let f = GasSensorSurrogate::new(2, 42);
            let mut rng = seeded(1);
            let ds = Dataset::from_function(&f, 30_000, SampleOptions::default(), &mut rng);
            let engine = ExactEngine::new(Arc::new(ds), AccessPathKind::KdTree);
            let gen = QueryGenerator::for_function(&f, 0.1);
            let mut cfg = ModelConfig::with_vigilance(2, 0.15);
            cfg.gamma = 1e-3;
            let mut model = LlmModel::new(cfg).unwrap();
            train_from_engine(&mut model, &engine, &gen, 60_000, &mut rng).unwrap();
            (engine, gen, model)
        })
    }

    #[test]
    fn q1_eval_beats_trivial_baseline() {
        let (engine, gen, model) = setup();
        let mut rng = seeded(2);
        let eval = evaluate_q1(model, engine, gen, 2_000, &mut rng);
        assert!(eval.n > 1_000);
        // Trivial baseline: predict the global mean of u (~0.5 scale data).
        // The trained model must do clearly better.
        assert!(eval.rmse < 0.12, "rmse {}", eval.rmse);
        assert!(eval.mae <= eval.rmse + 1e-12);
    }

    #[test]
    fn data_value_eval_orders_models_sanely() {
        let (engine, gen, model) = setup();
        let mut rng = seeded(3);
        let eval = evaluate_data_values(
            model,
            engine,
            gen,
            150,
            20,
            Some(MarsParams {
                max_terms: 9,
                max_knots_per_dim: 8,
                ..Default::default()
            }),
            &mut rng,
        );
        assert!(eval.n > 500);
        // LLM uses local structure: must beat the single global plane on
        // this strongly non-linear surface.
        assert!(
            eval.rmse_llm < eval.rmse_reg_global,
            "llm {} vs global reg {}",
            eval.rmse_llm,
            eval.rmse_reg_global
        );
        // PLR re-fits per subspace with full data access: best of the three.
        let plr = eval.rmse_plr.unwrap();
        assert!(plr < eval.rmse_reg_global);
    }

    #[test]
    fn q2_eval_reproduces_figure9_ordering() {
        let (engine, gen, model) = setup();
        let mut rng = seeded(4);
        let eval = evaluate_q2(
            model,
            engine,
            gen,
            120,
            Some(MarsParams {
                max_terms: 9,
                max_knots_per_dim: 8,
                ..Default::default()
            }),
            &mut rng,
        );
        assert!(eval.n > 60);
        // The paper's ordering: PLR ≤ LLM < global REG, with global REG
        // possibly above 1.
        let plr = eval.plr_fvu.unwrap();
        assert!(
            plr <= eval.llm_fvu + 0.05,
            "plr {} vs llm {}",
            plr,
            eval.llm_fvu
        );
        assert!(
            eval.llm_fvu < eval.reg_global_fvu,
            "llm {} vs reg {}",
            eval.llm_fvu,
            eval.reg_global_fvu
        );
        // Per-query REG is a least-squares fit: FVU ≤ 1 structurally.
        assert!(eval.reg_local_fvu <= 1.0 + 1e-9);
        assert!(eval.avg_s_len >= 1.0);
        assert!(eval.var_s_len >= 0.0);
    }

    #[test]
    fn llm_prediction_is_orders_faster_than_plr() {
        let (engine, gen, model) = setup();
        let mut rng = seeded(5);
        let queries = gen.generate_many(30, &mut rng);
        let llm = time_q2_llm(model, &queries);
        let plr = time_q2_plr_exact(
            engine,
            &queries,
            MarsParams {
                max_terms: 9,
                max_knots_per_dim: 8,
                ..Default::default()
            },
        );
        assert!(
            plr.mean().as_secs_f64() > 10.0 * llm.mean().as_secs_f64(),
            "plr {:?} vs llm {:?}",
            plr.mean(),
            llm.mean()
        );
    }

    #[test]
    fn timing_stats_have_expected_counts() {
        let (engine, gen, model) = setup();
        let mut rng = seeded(6);
        let queries = gen.generate_many(50, &mut rng);
        assert_eq!(time_q1_llm(model, &queries).count(), 50);
        assert_eq!(time_q1_exact(engine, &queries).count(), 50);
        assert_eq!(time_q2_reg_exact(engine, &queries).count(), 50);
    }
}
