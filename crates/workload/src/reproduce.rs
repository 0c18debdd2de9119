//! The paper's §VI as one experiment table.
//!
//! [`TABLE`] has one [`Row`] per claim of a series this reproduction
//! prints: figure, dataset family, dimension, the experiment that
//! sweeps the figure's parameter, the paper's value ("shape only" where
//! none is transcribed) and the [`Claim`] the figure makes. A [`Lab`] runs
//! experiments at one seed and trains each distinct model — `(family, d,
//! a, γ, µ_θ, variant)` — once for every series that reads it: Figs. 7
//! and 10 (right) share one a-sweep, Figs. 9 and 10 (left) one γ = 2e-3
//! sweep and its Q2 evaluations, Figs. 13 and 14 one µ_θ sweep, and
//! Figs. 6, 8, 11, 12 and Table H the same a = 0.25 models.
//!
//! [`render`] turns the series of every [`SEEDS`] run into
//! `REPRODUCTION.md` (the `reproduce` binary writes it);
//! `tests/paper_claims.rs` runs the same rows at [`PRIMARY_SEED`] and
//! asserts each claim holds, unless its row is a [`Row::miss`].
//!
//! Datasets (§VI-A): **R1** is the gas-sensor surrogate — features and
//! outputs in `[0, 1]`, Gaussian target noise, `θ ~ N(0.1, 0.1²)`; **R2**
//! is Rosenbrock over `[-10, 10]^d` — outputs normalised to `[0, 1]`,
//! `N(0, 1)` feature noise, `θ ~ N(1, 0.5²)`, widened to `N(3, 0.5²)` for
//! `d ≥ 4`, where a ball of the paper's radius holds ~10⁻⁶ of the domain:
//! enough rows at the paper's 10¹⁰, none in a 10⁵-row table. **Ridge** is
//! Fig. 5's one-dimensional illustration.

use crate::eval::{
    evaluate_data_values, evaluate_q1, evaluate_q2, time_q1_exact, time_q1_llm, time_q2_llm,
    time_q2_plr_exact, time_q2_reg_exact, Q2Eval,
};
use crate::{train_from_engine, QueryGenerator, StreamReport};
use regq_core::config::SlopeUpdate;
use regq_core::metrics::RmseAccumulator;
use regq_core::{LearningSchedule, LlmModel, ModelConfig, Query};
use regq_data::generators::{GasSensorSurrogate, Rosenbrock, SineRidge1d};
use regq_data::rng::{seeded, SeededRng};
use regq_data::{DataFunction, Dataset, SampleOptions};
use regq_exact::{ExactEngine, GoodnessOfFit, MarsParams};
use regq_linalg::OnlineStats;
use regq_store::AccessPathKind;
use std::fmt::Write as _;
use std::rc::Rc;
use std::sync::Arc;

/// Rows of every table an accuracy experiment trains and scores on.
const ROWS: usize = 100_000;
/// Queries a training run may issue before it stops unconverged.
const BUDGET: usize = 60_000;
/// Unseen queries behind a Q1 RMSE `e`.
const TEST_QUERIES: usize = 2_000;
/// The seeds every row runs at.
pub const SEEDS: [u64; 3] = [7, 11, 13];
/// The seed the tests run at.
pub const PRIMARY_SEED: u64 = SEEDS[0];

/// The paper's default vigilance coefficient and convergence threshold.
const A: f64 = 0.25;
const GAMMA: f64 = 0.01;
/// γ of the Q2 and µ_θ experiments: slope coefficients need deeper
/// training than the paper's 0.01 gives at this |T| (design decision D-8).
const SLOPE_GAMMA: f64 = 2e-3;
const A_SWEEP: [f64; 8] = [0.05, 0.1, 0.15, 0.25, 0.4, 0.6, 0.75, 0.9];
const FVU_SWEEP: [f64; 6] = [0.05, 0.1, 0.25, 0.5, 0.75, 1.0];
const COD_SWEEP: [f64; 7] = [1.0, 0.75, 0.5, 0.25, 0.15, 0.1, 0.05];
const TEST_SIZES: [usize; 4] = [1_000, 2_000, 4_000, 6_000];
const PROBES: [usize; 3] = [30, 60, 120];
const TABLE_SIZES: [usize; 3] = [10_000, 100_000, 1_000_000];
const MUS: [f64; 7] = [0.01, 0.05, 0.1, 0.3, 0.6, 0.9, 0.99];
/// Q2 queries per evaluation.
const Q2_QUERIES: usize = 60;
/// A paper value counts as reproduced within this factor of it.
const NEAR: f64 = 1.5;

/// Per-query PLR (MARS) of the Q2 and data-value baselines.
fn plr() -> MarsParams {
    MarsParams {
        max_terms: 11,
        max_knots_per_dim: 12,
        ..Default::default()
    }
}

/// Which dataset an experiment runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Gas-sensor surrogate (the paper's R1).
    R1,
    /// Rosenbrock (the paper's R2).
    R2,
    /// The 1-D sine ridge of Fig. 5.
    Ridge,
}

impl Family {
    fn function(self, d: usize) -> Box<dyn DataFunction> {
        match self {
            Family::R1 => Box::new(GasSensorSurrogate::new(d, 42)),
            Family::R2 => Box::new(Rosenbrock::new(d)),
            Family::Ridge => Box::new(SineRidge1d),
        }
    }

    /// The family's `n`-row table at dimension `d`.
    fn dataset(self, d: usize, n: usize, seed: u64) -> Dataset {
        let opts = match self {
            // The paper pads R1 with Gaussian-noise rows; modelled as target
            // noise (≈ 1.5 % of the output range).
            Family::R1 => SampleOptions {
                target_noise_std: 0.05,
                ..Default::default()
            },
            // §VI-A: "adding noise ε ~ N(0, 1) to each feature".
            Family::R2 => SampleOptions {
                feature_noise_std: 1.0,
                ..Default::default()
            },
            Family::Ridge => SampleOptions {
                normalize_output: false,
                ..Default::default()
            },
        };
        Dataset::from_function(&*self.function(d), n, opts, &mut seeded(seed))
    }

    /// The paper's mean query radius `µ_θ`.
    fn mu(self, d: usize) -> f64 {
        match self {
            Family::R1 => 0.1,
            Family::R2 if d < 4 => 1.0,
            Family::R2 => 3.0,
            Family::Ridge => 0.08,
        }
    }

    /// Queries with centres uniform over the domain and `θ ~ N(mu, σ²)`
    /// (σ fixed per family while a µ_θ sweep moves the mean).
    fn generator(self, d: usize, mu: f64) -> QueryGenerator {
        let sigma = match self {
            Family::R1 => 0.1,
            Family::R2 => 0.5,
            Family::Ridge => 0.08,
        };
        QueryGenerator::for_function(&*self.function(d), 0.1).with_theta(mu, sigma)
    }

    /// The model configuration at vigilance coefficient `a`; R2's `ρ` is
    /// scaled to its `[-10, 10]` ranges.
    fn config(self, d: usize, a: f64) -> ModelConfig {
        match self {
            Family::R2 => ModelConfig::with_vigilance_ranges(d, a, &vec![20.0; d], 2.0),
            _ => ModelConfig::with_vigilance(d, a),
        }
    }
}

/// A learning-rule variant of the schedule ablation (design decisions
/// D-1 and D-8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Variant {
    /// Per-prototype hyperbolic schedule, NLMS slopes, coefficient power 0.6.
    Default,
    /// Coefficient-rate power 1 (the paper's one shared schedule).
    CoeffPowerOne,
    /// Theorem 4's raw slope step, power 1.
    RawSlope,
    /// One hyperbolic schedule over the global step count.
    GlobalSchedule,
    /// A constant rate η = 0.05.
    ConstantRate,
}

impl Variant {
    fn name(self) -> &'static str {
        match self {
            Variant::Default => "per-prototype, NLMS, p = 0.6 (default)",
            Variant::CoeffPowerOne => "per-prototype, NLMS, p = 1",
            Variant::RawSlope => "per-prototype, raw Theorem 4, p = 1",
            Variant::GlobalSchedule => "global schedule, NLMS, p = 0.6",
            Variant::ConstantRate => "constant η = 0.05, NLMS",
        }
    }

    fn apply(self, cfg: &mut ModelConfig) {
        match self {
            Variant::Default => {}
            Variant::CoeffPowerOne => cfg.coeff_rate_power = 1.0,
            Variant::RawSlope => {
                cfg.slope_update = SlopeUpdate::Raw;
                cfg.coeff_rate_power = 1.0;
            }
            Variant::GlobalSchedule => cfg.schedule = LearningSchedule::HyperbolicGlobal,
            Variant::ConstantRate => cfg.schedule = LearningSchedule::Constant(0.05),
        }
    }
}

/// One trained model's identity within a seed.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Spec {
    family: Family,
    d: usize,
    a: f64,
    gamma: f64,
    mu: f64,
    variant: Variant,
}

impl Spec {
    fn new(family: Family, d: usize, a: f64, gamma: f64) -> Self {
        Spec {
            family,
            d,
            a,
            gamma,
            mu: family.mu(d),
            variant: Variant::Default,
        }
    }

    fn generator(&self) -> QueryGenerator {
        self.family.generator(self.d, self.mu)
    }
}

/// A model and the report of the Fig. 2 loop that trained it.
struct Trained {
    model: LlmModel,
    report: StreamReport,
}

/// What one experiment measured at one seed: one value per swept value
/// and named column.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Name of the swept parameter (empty for a single measurement).
    x_label: &'static str,
    /// The swept values, as printed.
    xs: Vec<String>,
    /// `(column, one value per swept value)`.
    cols: Vec<(&'static str, Vec<f64>)>,
}

impl Series {
    fn new(x_label: &'static str, names: &[&'static str]) -> Self {
        Series {
            x_label,
            xs: Vec::new(),
            cols: names.iter().map(|&n| (n, Vec::new())).collect(),
        }
    }

    fn scalar(names: &[&'static str], values: &[f64]) -> Self {
        let mut s = Series::new("", names);
        s.push("", values);
        s
    }

    fn push(&mut self, x: impl ToString, values: &[f64]) {
        assert_eq!(values.len(), self.cols.len(), "one value per column");
        self.xs.push(x.to_string());
        for ((_, col), &v) in self.cols.iter_mut().zip(values) {
            col.push(v);
        }
    }

    /// The values of column `name`.
    ///
    /// # Panics
    /// When the series has no such column (a claim naming a column its
    /// experiment does not measure).
    fn col(&self, name: &str) -> &[f64] {
        &self
            .cols
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("no column {name:?} in this series"))
            .1
    }

    /// " at x = v" for swept value `i`; empty for a single measurement.
    fn at(&self, i: usize) -> String {
        if self.x_label.is_empty() {
            String::new()
        } else {
            format!(" at {} = {}", self.x_label, self.xs[i])
        }
    }

    /// Cell by cell, the median of `runs` (same experiment, one per seed).
    fn median(runs: &[Series]) -> Series {
        let mut out = runs[0].clone();
        for (c, (_, col)) in out.cols.iter_mut().enumerate() {
            for (i, v) in col.iter_mut().enumerate() {
                *v = spread(runs.iter().map(|s| s.cols[c].1[i])).1;
            }
        }
        out
    }
}

/// `(min, median, max)`.
fn spread(values: impl Iterator<Item = f64>) -> (f64, f64, f64) {
    let mut v: Vec<f64> = values.collect();
    v.sort_by(f64::total_cmp);
    (v[0], v[v.len() / 2], v[v.len() - 1])
}

/// An experiment kind: one function that trains what it reads through a
/// [`Lab`] and returns the figure's series for one `(family, d)`.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Experiment {
    /// Fig. 5: FVU over `D(0.5, 0.5)` of K local lines, one global REG
    /// line and PLR, on the 1-D ridge.
    Illustration,
    /// Fig. 6 and Table H at the paper's defaults: |T|, convergence, K,
    /// Q1 RMSE, list size |S| (also at a = 0.1, γ = 2e-3).
    Defaults,
    /// Table H's costs: training time in exact execution, prediction
    /// latency and the speedup over kd-tree execution (host-dependent).
    Costs,
    /// Fig. 7: Q1 RMSE `e` vs `a` (γ = 0.01).
    RmseVsA,
    /// Fig. 8: Q1 RMSE vs test-set size |V| at the defaults.
    RmseVsTestSize,
    /// Fig. 9: median Q2 FVU of LLM / global REG / PLR vs `a` (γ = 2e-3).
    FvuVsA,
    /// Fig. 10 (left): CoD `1 − median FVU` vs `a`, K beside (γ = 2e-3).
    CodVsA,
    /// Fig. 10 (right): K vs `a` (γ = 0.01).
    KVsA,
    /// Fig. 11: data-value RMSE `v` (Eq. 14) vs probe queries.
    DataValues,
    /// Fig. 12: mean execution time vs table size (host-dependent).
    ExecutionTime,
    /// Figs. 13–14: |T|, RMSE and CoD vs mean radius µ_θ (γ = 2e-3).
    Radius,
    /// Ablation A1a: learning-rule variants at the defaults.
    Schedule(&'static [Variant]),
    /// Ablation A1b: Algorithm 2's fusion vs the closest prototype alone.
    PredictionRule,
}

impl Experiment {
    fn title(self) -> &'static str {
        match self {
            Experiment::Illustration => "K local lines vs one REG line vs PLR over D(0.5, 0.5)",
            Experiment::Defaults => "convergence and model size at a = 0.25, γ = 0.01",
            Experiment::Costs => "training and prediction cost at a = 0.25",
            Experiment::RmseVsA => "Q1 RMSE e vs vigilance coefficient a (γ = 0.01)",
            Experiment::RmseVsTestSize => "Q1 RMSE e vs test-set size |V|",
            Experiment::FvuVsA => "Q2 FVU (medians) vs a (γ = 2e-3)",
            Experiment::CodVsA => "CoD R² = 1 − median FVU vs a, K beside (γ = 2e-3)",
            Experiment::KVsA => "prototypes K vs a (γ = 0.01)",
            Experiment::DataValues => "data-value RMSE v (Eq. 14) vs probe queries",
            Experiment::ExecutionTime => "mean execution time (ms) vs table rows",
            Experiment::Radius => "|T|, RMSE e and CoD vs mean radius µ_θ (γ = 2e-3)",
            Experiment::Schedule(_) => "learning-rule variants at a = 0.25, γ = 0.01",
            Experiment::PredictionRule => "Algorithm 2 vs closest prototype (a = 0.15, γ = 1e-3)",
        }
    }

    /// Timings: they move with the host, so CI does not compare them.
    fn host_dependent(self) -> bool {
        matches!(self, Experiment::Costs | Experiment::ExecutionTime)
    }

    fn run(self, lab: &mut Lab, family: Family, d: usize) -> Series {
        let defaults = Spec::new(family, d, A, GAMMA);
        match self {
            Experiment::Illustration => illustration(lab),
            Experiment::Defaults => {
                let t = lab.model(defaults);
                let fine = Spec::new(family, d, 0.1, SLOPE_GAMMA);
                let (s, s_fine) = (lab.list_sizes(defaults), lab.list_sizes(fine));
                Series::scalar(
                    &[
                        "|T|",
                        "converged",
                        "K",
                        "e",
                        "|S|",
                        "var |S|",
                        "K (a = 0.1)",
                        "|S| (a = 0.1)",
                        "var |S| (a = 0.1)",
                    ],
                    &[
                        t.report.consumed as f64,
                        f64::from(u8::from(t.report.converged)),
                        t.model.k() as f64,
                        lab.q1_rmse(defaults, TEST_QUERIES),
                        s.mean(),
                        s.variance(),
                        lab.model(fine).model.k() as f64,
                        s_fine.mean(),
                        s_fine.variance(),
                    ],
                )
            }
            Experiment::Costs => {
                let (t, engine) = (lab.model(defaults), lab.engine(family, d));
                let queries = defaults
                    .generator()
                    .generate_many(200, &mut lab.rng(300_000));
                let (q1, q2) = (
                    time_q1_llm(&t.model, &queries),
                    time_q2_llm(&t.model, &queries),
                );
                Series::scalar(
                    &[
                        "query-time share",
                        "Q1 ms",
                        "Q2 ms",
                        "Q1 speedup",
                        "Q2 speedup",
                    ],
                    &[
                        t.report.query_time_fraction(),
                        q1.mean_ms(),
                        q2.mean_ms(),
                        time_q1_exact(&engine, &queries).mean_ms() / q1.mean_ms(),
                        time_q2_reg_exact(&engine, &queries).mean_ms() / q2.mean_ms(),
                    ],
                )
            }
            Experiment::RmseVsA | Experiment::KVsA => {
                let with_e = self == Experiment::RmseVsA;
                let mut s = Series::new("a", if with_e { &["e", "K"][..] } else { &["K"] });
                for a in A_SWEEP {
                    let spec = Spec::new(family, d, a, GAMMA);
                    let k = lab.model(spec).model.k() as f64;
                    if with_e {
                        s.push(a, &[lab.q1_rmse(spec, TEST_QUERIES), k]);
                    } else {
                        s.push(a, &[k]);
                    }
                }
                s
            }
            Experiment::RmseVsTestSize => {
                let mut s = Series::new("|V|", &["e"]);
                for m in TEST_SIZES {
                    s.push(m, &[lab.q1_rmse(defaults, m)]);
                }
                s
            }
            Experiment::FvuVsA => {
                let mut s = Series::new("a", &["LLM", "REG", "PLR", "LLM mean", "REG mean", "K"]);
                for a in FVU_SWEEP {
                    let spec = Spec::new(family, d, a, SLOPE_GAMMA);
                    let q = lab.q2(spec, true);
                    let k = lab.model(spec).model.k() as f64;
                    let plr = q.plr_fvu_median.unwrap_or(f64::NAN);
                    s.push(
                        a,
                        &[
                            q.llm_fvu_median,
                            q.reg_global_fvu_median,
                            plr,
                            q.llm_fvu,
                            q.reg_global_fvu,
                            k,
                        ],
                    );
                }
                s
            }
            Experiment::CodVsA => {
                let mut s = Series::new("a", &["K", "LLM", "REG", "PLR"]);
                for a in COD_SWEEP {
                    let spec = Spec::new(family, d, a, SLOPE_GAMMA);
                    let q = lab.q2(spec, true);
                    let k = lab.model(spec).model.k() as f64;
                    let plr = q.plr_fvu_median.unwrap_or(f64::NAN);
                    s.push(
                        a,
                        &[
                            k,
                            1.0 - q.llm_fvu_median,
                            1.0 - q.reg_global_fvu_median,
                            1.0 - plr,
                        ],
                    );
                }
                s
            }
            Experiment::DataValues => {
                let (t, engine) = (lab.model(defaults), lab.engine(family, d));
                let mut s = Series::new("probe queries", &["LLM", "REG", "PLR"]);
                for m in PROBES {
                    let mut rng = lab.rng(100_000 + m as u64);
                    let gen = defaults.generator();
                    let v =
                        evaluate_data_values(&t.model, &engine, &gen, m, 20, Some(plr()), &mut rng);
                    s.push(
                        m,
                        &[
                            v.rmse_llm,
                            v.rmse_reg_global,
                            v.rmse_plr.unwrap_or(f64::NAN),
                        ],
                    );
                }
                s
            }
            Experiment::ExecutionTime => execution_time(lab, defaults),
            Experiment::Radius => {
                let mut s = Series::new("µ_θ", &["|T|", "converged", "e", "CoD", "K"]);
                for mu in MUS {
                    let spec = Spec {
                        mu,
                        ..Spec::new(family, d, A, SLOPE_GAMMA)
                    };
                    let t = lab.model(spec);
                    let (e, q) = (lab.q1_rmse(spec, TEST_QUERIES), lab.q2(spec, false));
                    s.push(
                        mu,
                        &[
                            t.report.consumed as f64,
                            f64::from(u8::from(t.report.converged)),
                            e,
                            1.0 - q.llm_fvu_median,
                            t.model.k() as f64,
                        ],
                    );
                }
                s
            }
            Experiment::Schedule(variants) => {
                let mut s = Series::new("variant", &["|T|", "converged", "K", "e", "Q2 FVU"]);
                for &variant in variants {
                    let spec = Spec {
                        variant,
                        ..defaults
                    };
                    let t = lab.model(spec);
                    let (e, q) = (lab.q1_rmse(spec, TEST_QUERIES), lab.q2(spec, false));
                    s.push(
                        variant.name(),
                        &[
                            t.report.consumed as f64,
                            f64::from(u8::from(t.report.converged)),
                            t.model.k() as f64,
                            e,
                            q.llm_fvu_median,
                        ],
                    );
                }
                s
            }
            Experiment::PredictionRule => prediction_rule(lab, Spec::new(family, d, 0.15, 1e-3)),
        }
    }
}

/// Fig. 5: the figure's curves are a plot; its claim is the FVU caption.
fn illustration(lab: &mut Lab) -> Series {
    let spec = Spec::new(Family::Ridge, 1, 0.15, 1e-3);
    let (t, engine) = (lab.model(spec), lab.engine(Family::Ridge, 1));
    let whole = Query::new(vec![0.5], 0.5).expect("a valid query");
    let reg = engine
        .q2_reg(&whole.center, whole.radius)
        .expect("REG over the whole domain");
    let plr = engine
        .q2_plr(
            &whole.center,
            whole.radius,
            MarsParams::for_k_models(t.model.k()),
        )
        .expect("PLR over the whole domain");
    let ids = engine.select(&whole.center, whole.radius);
    let ds = engine.relation().dataset();
    let actual: Vec<f64> = ids.iter().map(|&i| ds.y(i)).collect();
    let fvu = |predict: &dyn Fn(&[f64]) -> f64| {
        let predicted: Vec<f64> = ids.iter().map(|&i| predict(ds.x(i))).collect();
        GoodnessOfFit::evaluate(&actual, &predicted)
            .expect("a non-empty domain")
            .fvu
    };
    let llm = |x: &[f64]| {
        t.model
            .predict_value_at(x, spec.mu)
            .expect("a trained model")
    };
    Series::scalar(
        &["K", "REG FVU", "PLR FVU", "LLM FVU"],
        &[
            t.model.k() as f64,
            fvu(&|x| reg.predict(x)),
            fvu(&|x| plr.predict(x)),
            fvu(&llm),
        ],
    )
}

/// Fig. 12: the model answers from its snapshot; the exact engines scan
/// or walk the kd-tree of a table of each size (PLR on 10 queries: it is
/// seconds per query at a million rows).
fn execution_time(lab: &mut Lab, spec: Spec) -> Series {
    let t = lab.model(spec);
    let queries = spec.generator().generate_many(100, &mut lab.rng(300_000));
    let mut s = Series::new(
        "rows",
        &[
            "Q1 LLM", "Q1 scan", "Q1 kd", "Q2 LLM", "Q2 scan", "Q2 kd", "Q2 PLR",
        ],
    );
    for n in TABLE_SIZES {
        let data = Arc::new(spec.family.dataset(spec.d, n, lab.seed));
        let scan = ExactEngine::new(data.clone(), AccessPathKind::Scan);
        let kd = ExactEngine::new(data, AccessPathKind::KdTree);
        s.push(
            n,
            &[
                time_q1_llm(&t.model, &queries).mean_ms(),
                time_q1_exact(&scan, &queries).mean_ms(),
                time_q1_exact(&kd, &queries).mean_ms(),
                time_q2_llm(&t.model, &queries).mean_ms(),
                time_q2_reg_exact(&scan, &queries).mean_ms(),
                time_q2_reg_exact(&kd, &queries).mean_ms(),
                time_q2_plr_exact(&kd, &queries[..10], plr()).mean_ms(),
            ],
        );
    }
    s
}

/// Ablation A1b: the same unseen queries answered by Algorithm 2 and by
/// the winner's local line alone.
fn prediction_rule(lab: &mut Lab, spec: Spec) -> Series {
    let (t, engine) = (lab.model(spec), lab.engine(spec.family, spec.d));
    let (mut fused, mut closest, mut fallbacks) =
        (RmseAccumulator::new(), RmseAccumulator::new(), 0);
    for q in spec.generator().generate_many(4_000, &mut lab.rng(500_000)) {
        let Some(actual) = engine.q1(&q.center, q.radius) else {
            continue;
        };
        let (y, confidence) = t
            .model
            .predict_q1_with_confidence(&q)
            .expect("a trained model");
        fused.push(actual, y);
        let (j, _) = t.model.winner(&q).expect("a trained model");
        closest.push(actual, t.model.arena().eval(j, &q.center, q.radius));
        fallbacks += usize::from(!confidence.fused);
    }
    Series::scalar(
        &["K", "e (Algorithm 2)", "e (closest)", "fallback share"],
        &[
            t.model.k() as f64,
            fused.rmse().unwrap_or(f64::NAN),
            closest.rmse().unwrap_or(f64::NAN),
            fallbacks as f64 / fused.count() as f64,
        ],
    )
}

/// The experiments of one seed, sharing what they train.
///
/// Each evaluation draws its queries from a stream of its own, seeded from
/// the lab's seed and a tag, so a value does not depend on which rows ran
/// before it.
pub struct Lab {
    seed: u64,
    engines: Vec<((Family, usize), Arc<ExactEngine>)>,
    models: Vec<(Spec, Rc<Trained>)>,
    q2: Vec<((Spec, bool), Q2Eval)>,
    series: Vec<((Experiment, Family, usize), Series)>,
}

impl Lab {
    /// An empty lab at `seed`: tables, training streams and test queries
    /// all derive from it.
    pub fn new(seed: u64) -> Self {
        Lab {
            seed,
            engines: Vec::new(),
            models: Vec::new(),
            q2: Vec::new(),
            series: Vec::new(),
        }
    }

    /// `row`'s series at this lab's seed (rows of one experiment, family
    /// and `d` share it).
    pub fn series(&mut self, row: &Row) -> Series {
        let key = (row.experiment, row.family, row.d);
        if let Some((_, s)) = self.series.iter().find(|(k, _)| *k == key) {
            return s.clone();
        }
        let s = row.experiment.run(self, row.family, row.d);
        self.series.push((key, s.clone()));
        s
    }

    fn rng(&self, tag: u64) -> SeededRng {
        seeded((self.seed << 32) ^ tag)
    }

    fn engine(&mut self, family: Family, d: usize) -> Arc<ExactEngine> {
        if let Some((_, e)) = self.engines.iter().find(|(k, _)| *k == (family, d)) {
            return e.clone();
        }
        let data = Arc::new(family.dataset(d, ROWS, self.seed));
        let engine = Arc::new(ExactEngine::new(data, AccessPathKind::KdTree));
        self.engines.push(((family, d), engine.clone()));
        engine
    }

    fn model(&mut self, spec: Spec) -> Rc<Trained> {
        if let Some((_, t)) = self.models.iter().find(|(s, _)| *s == spec) {
            return t.clone();
        }
        let engine = self.engine(spec.family, spec.d);
        let mut cfg = spec.family.config(spec.d, spec.a);
        cfg.gamma = spec.gamma;
        spec.variant.apply(&mut cfg);
        let mut model = LlmModel::new(cfg).expect("the table's configurations are valid");
        let mut rng = seeded(self.seed ^ 0xbe9c);
        let report = train_from_engine(&mut model, &engine, &spec.generator(), BUDGET, &mut rng)
            .expect("generated queries have the model's dimension");
        let t = Rc::new(Trained { model, report });
        self.models.push((spec, t.clone()));
        t
    }

    fn q1_rmse(&mut self, spec: Spec, m: usize) -> f64 {
        let (t, engine) = (self.model(spec), self.engine(spec.family, spec.d));
        evaluate_q1(
            &t.model,
            &engine,
            &spec.generator(),
            m,
            &mut self.rng(m as u64),
        )
        .rmse
    }

    fn q2(&mut self, spec: Spec, with_plr: bool) -> Q2Eval {
        if let Some((_, q)) = self.q2.iter().find(|(k, _)| *k == (spec, with_plr)) {
            return *q;
        }
        let (t, engine) = (self.model(spec), self.engine(spec.family, spec.d));
        let mut rng = self.rng(200_000);
        let params = with_plr.then(plr);
        let q = evaluate_q2(
            &t.model,
            &engine,
            &spec.generator(),
            Q2_QUERIES,
            params,
            &mut rng,
        );
        self.q2.push(((spec, with_plr), q));
        q
    }

    /// `|S|` over 1,000 unseen Q2 queries.
    fn list_sizes(&mut self, spec: Spec) -> OnlineStats {
        let t = self.model(spec);
        let mut stats = OnlineStats::new();
        for q in spec
            .generator()
            .generate_many(1_000, &mut self.rng(400_000))
        {
            stats.push(t.model.predict_q2(&q).expect("a trained model").len() as f64);
        }
        stats
    }
}

/// What a figure claims about a series. Columns are named as the
/// series names them; "first" and "last" are the ends of the sweep.
#[derive(Debug, Clone, Copy)]
pub enum Claim {
    /// The column's last value exceeds `factor` × its first.
    Grows(&'static str, f64),
    /// The column's last value is below its first.
    Shrinks(&'static str),
    /// The column never rises along the sweep and ends below its start.
    Descends(&'static str),
    /// The column moves by less than `tol` of its last value from the
    /// first swept value to the last.
    Steady(&'static str, f64),
    /// The first column is below the second at every swept value where
    /// the model has more than one prototype (a series without a `K`
    /// column: every value). One prototype is one global line, so
    /// comparisons between local models and a baseline are K-matched.
    Below(&'static str, &'static str),
    /// The column's largest value is under `factor` × its smallest.
    Flat(&'static str, f64),
    /// At the last swept value the first column exceeds `factor` × the
    /// second.
    Dominates(&'static str, &'static str, f64),
    /// The column exceeds the threshold everywhere.
    Above(&'static str, f64),
    /// The first swept value has the strictly least value of the column.
    Least(&'static str),
    /// The paper's value: the column lies within a factor 1.5 of it.
    Near(&'static str, f64),
    /// The paper's range: the column lies in `[lo, hi]`.
    Within(&'static str, f64, f64),
    /// Every claim holds.
    All(&'static [Claim]),
}

/// The outcome of a [`Claim`] on one series.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// Whether the claim holds.
    pub holds: bool,
    /// The values it was decided on.
    pub detail: String,
}

impl Claim {
    /// Whether the claim compares with a value the paper prints (and so
    /// can be "reproduced"), not a shape.
    fn quantitative(self) -> bool {
        matches!(self, Claim::Near(..) | Claim::Within(..))
    }

    /// Decide the claim on `s`.
    pub fn check(self, s: &Series) -> Check {
        let ends = |c: &str| {
            let v = s.col(c);
            (v[0], v[v.len() - 1])
        };
        let check = |holds: bool, detail: String| Check { holds, detail };
        match self {
            Claim::Grows(c, f) => {
                let (a, b) = ends(c);
                check(b > f * a, format!("{c} {} → {}", num(a), num(b)))
            }
            Claim::Shrinks(c) => {
                let (a, b) = ends(c);
                check(b < a, format!("{c} {} → {}", num(a), num(b)))
            }
            Claim::Descends(c) => {
                let v = s.col(c);
                match v.windows(2).position(|w| w[1] > w[0]) {
                    Some(i) => check(
                        false,
                        format!("{c} rises {} → {}{}", num(v[i]), num(v[i + 1]), s.at(i + 1)),
                    ),
                    None => {
                        let (a, b) = ends(c);
                        check(b < a, format!("{c} {} → {}", num(a), num(b)))
                    }
                }
            }
            Claim::Steady(c, tol) => {
                let (a, b) = ends(c);
                let rel = (a - b).abs() / b.abs();
                check(
                    rel < tol,
                    format!("{c} {} → {} ({:.0} %)", num(a), num(b), 100.0 * rel),
                )
            }
            Claim::Below(lo, hi) => {
                let (l, h) = (s.col(lo), s.col(hi));
                let k = s.cols.iter().find(|(n, _)| *n == "K").map(|(_, k)| k);
                let gap = |i: usize| {
                    if l[i] < h[i] {
                        l[i] - h[i]
                    } else {
                        f64::INFINITY
                    }
                };
                let worst = (0..l.len())
                    .filter(|&i| k.is_none_or(|k| k[i] > 1.0))
                    .max_by(|&i, &j| gap(i).total_cmp(&gap(j)))
                    .expect("a swept value with K > 1");
                check(
                    gap(worst).is_finite(),
                    format!(
                        "{lo} {} vs {hi} {}{}",
                        num(l[worst]),
                        num(h[worst]),
                        s.at(worst)
                    ),
                )
            }
            Claim::Flat(c, f) => {
                let (lo, _, hi) = spread(s.col(c).iter().copied());
                check(hi < f * lo, format!("max/min of {c} = {:.1}", hi / lo))
            }
            Claim::Dominates(c, base, f) => {
                let last = s.xs.len() - 1;
                let r = s.col(c)[last] / s.col(base)[last];
                check(r > f, format!("{c}/{base} = {}{}", num(r), s.at(last)))
            }
            Claim::Above(c, t) => {
                let (lo, _, _) = spread(s.col(c).iter().copied());
                check(lo > t, format!("least {c} = {}", num(lo)))
            }
            Claim::Least(c) => {
                let v = s.col(c);
                let i = (0..v.len())
                    .min_by(|&i, &j| v[i].total_cmp(&v[j]))
                    .expect("a non-empty series");
                let holds = v[1..].iter().all(|&x| v[0] < x);
                check(holds, format!("least {c} = {}{}", num(v[i]), s.at(i)))
            }
            Claim::Near(c, paper) => {
                let m = s.col(c)[0];
                let r = m / paper;
                check(
                    (1.0 / NEAR..=NEAR).contains(&r),
                    format!("{c} = {} ({}× the paper's)", num(m), num(r)),
                )
            }
            Claim::Within(c, lo, hi) => {
                let m = s.col(c)[0];
                let outside = (lo - m).max(m - hi);
                let detail = if outside > 0.0 {
                    format!("{c} = {} ({} outside)", num(m), num(outside))
                } else {
                    format!("{c} = {}", num(m))
                };
                check(outside <= 0.0, detail)
            }
            Claim::All(claims) => {
                let checks: Vec<Check> = claims.iter().map(|c| c.check(s)).collect();
                let holds = checks.iter().all(|c| c.holds);
                let detail = checks
                    .into_iter()
                    .filter(|c| holds || !c.holds)
                    .map(|c| c.detail)
                    .collect::<Vec<_>>()
                    .join("; ");
                check(holds, detail)
            }
        }
    }
}

impl std::fmt::Display for Claim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Claim::Grows(c, 1.0) => write!(f, "{c} rises along the sweep"),
            Claim::Grows(c, x) => write!(f, "{c} grows more than {x}× along the sweep"),
            Claim::Shrinks(c) => write!(f, "{c} falls along the sweep"),
            Claim::Descends(c) => write!(f, "{c} never rises along the sweep, and falls"),
            Claim::Steady(c, tol) => write!(f, "{c} moves < {:.0} % along the sweep", 100.0 * tol),
            Claim::Below(lo, hi) => write!(f, "{lo} < {hi} wherever K > 1"),
            Claim::Flat(c, x) => write!(f, "max {c} < {x}× min {c}"),
            Claim::Dominates(c, base, x) => write!(f, "{c} > {x}× {base} at the largest"),
            Claim::Above(c, t) => write!(f, "{c} > {t}"),
            Claim::Least(c) => write!(f, "the default has the least {c}"),
            Claim::Near(c, v) => write!(f, "{c} within {NEAR}× of {v}"),
            Claim::Within(c, lo, hi) => write!(f, "{c} in [{lo}, {hi}]"),
            Claim::All(claims) => {
                for (i, c) in claims.iter().enumerate() {
                    let sep = if i == 0 { "" } else { " and " };
                    write!(f, "{sep}{c}")?;
                }
                Ok(())
            }
        }
    }
}

/// One claim about one series.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    /// The paper's figure or table.
    pub figure: &'static str,
    /// Dataset family.
    pub family: Family,
    /// Dimension `d`.
    pub d: usize,
    /// The experiment that measures the series.
    experiment: Experiment,
    /// The paper's value, or "shape only".
    paper: &'static str,
    /// What the figure claims.
    pub claim: Claim,
    /// The claim fails at [`PRIMARY_SEED`]: the tests assert it still
    /// does (so a fix updates this table and `REPRODUCTION.md` together).
    pub miss: bool,
}

const fn row(
    figure: &'static str,
    family: Family,
    d: usize,
    experiment: Experiment,
    paper: &'static str,
    claim: Claim,
) -> Row {
    Row {
        figure,
        family,
        d,
        experiment,
        paper,
        claim,
        miss: false,
    }
}

impl Row {
    const fn missed(self) -> Row {
        Row { miss: true, ..self }
    }
}

const SHAPE: &str = "shape only";
const TABLE_H: &str = "Fig. 6 / Table H";
use Experiment as E;
use Family::{Ridge, R1, R2};

/// Every row, in the order `REPRODUCTION.md` prints them. `.missed()`
/// marks a claim that fails at [`PRIMARY_SEED`].
#[rustfmt::skip]
pub const TABLE: &[Row] = &[
    row("Fig. 5", Ridge, 1, E::Illustration, "LLM ≈ PLR ≪ REG", Claim::Below("LLM FVU", "REG FVU")),
    row("Fig. 5", Ridge, 1, E::Illustration, "K = 6", Claim::Near("K", 6.0)),
    row(TABLE_H, R1, 2, E::Defaults, "converges", CONVERGES),
    row(TABLE_H, R1, 2, E::Defaults, "|T| ≈ 5,300", PAIRS).missed(),
    row(TABLE_H, R1, 2, E::Defaults, "e 0.02–0.06", Claim::Within("e", 0.02, 0.06)).missed(),
    row(TABLE_H, R1, 2, E::Defaults, "|S| 4.62", Claim::Near("|S|", 4.62)).missed(),
    row(TABLE_H, R1, 2, E::Defaults, "var |S| 3.88", Claim::Near("var |S|", 3.88)).missed(),
    row(TABLE_H, R1, 5, E::Defaults, "converges", CONVERGES),
    row(TABLE_H, R1, 5, E::Defaults, "|T| ≈ 5,300", PAIRS).missed(),
    row(TABLE_H, R1, 5, E::Defaults, "e 0.02–0.06", Claim::Within("e", 0.02, 0.06)).missed(),
    row(TABLE_H, R1, 5, E::Defaults, "|S| 4.62", Claim::Near("|S|", 4.62)).missed(),
    row(TABLE_H, R1, 5, E::Defaults, "var |S| 3.88", Claim::Near("var |S|", 3.88)).missed(),
    row(TABLE_H, R2, 2, E::Defaults, "converges", CONVERGES),
    row(TABLE_H, R2, 2, E::Defaults, "|T| ≈ 5,300", PAIRS).missed(),
    row(TABLE_H, R2, 2, E::Defaults, "K = 92", Claim::Near("K", 92.0)).missed(),
    row(TABLE_H, R2, 5, E::Defaults, "converges", CONVERGES),
    row(TABLE_H, R2, 5, E::Defaults, "|T| ≈ 5,300", PAIRS).missed(),
    row(TABLE_H, R2, 5, E::Defaults, "K = 450", Claim::Near("K", 450.0)).missed(),
    row("Fig. 7", R2, 2, E::RmseVsA, SHAPE, RISES),
    row("Fig. 7", R2, 3, E::RmseVsA, SHAPE, RISES),
    row("Fig. 7", R2, 5, E::RmseVsA, SHAPE, RISES),
    row("Fig. 7", R1, 2, E::RmseVsA, SHAPE, RISES),
    row("Fig. 7", R1, 3, E::RmseVsA, SHAPE, RISES),
    row("Fig. 7", R1, 5, E::RmseVsA, SHAPE, RISES).missed(),
    row("Fig. 8", R2, 2, E::RmseVsTestSize, SHAPE, STEADY),
    row("Fig. 8", R2, 3, E::RmseVsTestSize, SHAPE, STEADY),
    row("Fig. 8", R2, 5, E::RmseVsTestSize, SHAPE, STEADY),
    row("Fig. 8", R1, 2, E::RmseVsTestSize, SHAPE, STEADY),
    row("Fig. 8", R1, 3, E::RmseVsTestSize, SHAPE, STEADY),
    row("Fig. 8", R1, 5, E::RmseVsTestSize, SHAPE, STEADY),
    row("Fig. 9", R2, 2, E::FvuVsA, SHAPE, FVU_ORDER),
    row("Fig. 9", R2, 5, E::FvuVsA, SHAPE, FVU_ORDER).missed(),
    row("Fig. 9", R1, 2, E::FvuVsA, SHAPE, FVU_ORDER).missed(),
    row("Fig. 9", R1, 5, E::FvuVsA, SHAPE, FVU_ORDER).missed(),
    row("Fig. 10 (left)", R1, 2, E::CodVsA, SHAPE, Claim::Grows("LLM", 1.0)).missed(),
    row("Fig. 10 (left)", R1, 5, E::CodVsA, SHAPE, Claim::Grows("LLM", 1.0)).missed(),
    row("Fig. 10 (right)", R1, 2, E::KVsA, SHAPE, Claim::Descends("K")),
    row("Fig. 10 (right)", R1, 3, E::KVsA, SHAPE, Claim::Descends("K")),
    row("Fig. 10 (right)", R1, 5, E::KVsA, SHAPE, Claim::Descends("K")),
    row("Fig. 11", R2, 2, E::DataValues, SHAPE, DATA_VALUE_ORDER),
    row("Fig. 11", R2, 5, E::DataValues, SHAPE, DATA_VALUE_ORDER),
    row("Fig. 11", R1, 2, E::DataValues, SHAPE, DATA_VALUE_ORDER),
    row("Fig. 11", R1, 5, E::DataValues, SHAPE, DATA_VALUE_ORDER).missed(),
    row("Figs. 13–14", R1, 2, E::Radius, SHAPE, RADIUS_TRADE),
    row("Figs. 13–14", R1, 5, E::Radius, SHAPE, RADIUS_TRADE),
    row("A1a (D-8)", R1, 2, E::Schedule(&[Variant::Default, Variant::CoeffPowerOne, Variant::RawSlope]), SHAPE, Claim::Least("e")),
    row("A1a (D-1)", R1, 2, E::Schedule(&[Variant::Default, Variant::GlobalSchedule]), SHAPE, Claim::Least("e")),
    row("A1a (rate floor)", R1, 2, E::Schedule(&[Variant::Default, Variant::ConstantRate]), SHAPE, Claim::Least("|T|")),
    row("A1b", R1, 2, E::PredictionRule, SHAPE, Claim::Below("e (Algorithm 2)", "e (closest)")).missed(),
    row("Fig. 12", R2, 2, E::ExecutionTime, SHAPE, SCALING),
    row("Fig. 12", R2, 5, E::ExecutionTime, SHAPE, SCALING),
    row("Table H (costs)", R1, 2, E::Costs, "99.62 %", EXECUTION_DOMINATES),
    row("Table H (costs)", R1, 5, E::Costs, "99.62 %", EXECUTION_DOMINATES),
    row("Table H (costs)", R2, 2, E::Costs, "99.62 %", EXECUTION_DOMINATES),
    row("Table H (costs)", R2, 5, E::Costs, "99.62 %", EXECUTION_DOMINATES),
];

/// Fig. 6: training stops at Γ ≤ γ within the budget.
const CONVERGES: Claim = Claim::Above("converged", 0.5);
/// Table H: the pairs Algorithm 1 takes to converge.
const PAIRS: Claim = Claim::Near("|T|", 5300.0);
/// Fig. 7: coarser quantization, larger error.
const RISES: Claim = Claim::Grows("e", 1.0);

/// Fig. 8: the model is fixed; more test queries only tighten `e`.
const STEADY: Claim = Claim::Steady("e", 0.25);
/// Fig. 9: PLR best, LLM below global REG until one prototype makes it
/// one global line (the paper's a → 1; this reproduction's a ≥ 0.5).
const FVU_ORDER: Claim = Claim::All(&[Claim::Below("PLR", "LLM"), Claim::Below("LLM", "REG")]);
/// Fig. 11: LLM (no data access) and PLR (full access) beat global REG.
const DATA_VALUE_ORDER: Claim =
    Claim::All(&[Claim::Below("LLM", "REG"), Claim::Below("PLR", "REG")]);
/// Fig. 13: wider balls are easier to predict and converge sooner.
const RADIUS_TRADE: Claim = Claim::All(&[Claim::Shrinks("e"), Claim::Shrinks("|T|")]);
/// Fig. 12: exact execution grows with the table, the model does not, and
/// the gap at the largest table is an order of magnitude.
const SCALING: Claim = Claim::All(&[
    Claim::Grows("Q1 scan", 5.0),
    Claim::Flat("Q1 LLM", 20.0),
    Claim::Dominates("Q1 scan", "Q1 LLM", 10.0),
]);
/// §VI-C: training wall-clock is dominated by exact execution.
const EXECUTION_DOMINATES: Claim = Claim::Above("query-time share", 0.5);

/// A value as the file prints it: integers whole, others to three
/// significant digits.
fn num(v: f64) -> String {
    if v.is_nan() {
        return "—".into();
    }
    if v == v.round() && v.abs() < 1e12 {
        return format!("{v:.0}");
    }
    let magnitude = v.abs().log10().floor() as i32;
    if magnitude < -6 {
        return format!("{v:.2e}");
    }
    format!("{v:.*}", (2 - magnitude).max(0) as usize)
}

/// `median (min–max)` over seeds, or the one value they agree on.
fn cell(values: impl Iterator<Item = f64>) -> String {
    let (lo, mid, hi) = spread(values);
    if num(lo) == num(hi) {
        num(mid)
    } else {
        format!("{} ({}–{})", num(mid), num(lo), num(hi))
    }
}

/// Markdown table cells may not hold a bare `|`.
fn esc(s: &str) -> String {
    s.replace('|', "\\|")
}

/// A row's verdict over its seeds' series.
fn verdict(row: &Row, runs: &[Series]) -> String {
    let check = row.claim.check(&Series::median(runs));
    let failing: Vec<String> = SEEDS
        .iter()
        .zip(runs)
        .filter(|(_, s)| !row.claim.check(s).holds)
        .map(|(seed, _)| seed.to_string())
        .collect();
    let word = match (check.holds, row.claim.quantitative()) {
        (true, true) => "reproduced",
        (true, false) => "shape only",
        (false, _) => "not reproduced",
    };
    let n = runs.len();
    let seeds = if failing.is_empty() {
        format!("holds at {n}/{n} seeds")
    } else {
        format!(
            "holds at {}/{n}, fails at seed {}",
            n - failing.len(),
            failing.join(", ")
        )
    };
    format!("**{word}** ({seeds}): {}", check.detail)
}

fn header() -> String {
    format!(
        "\
# Reproduction of the paper's §VI

Generated by `cargo run --release -p regq_workload --bin reproduce` from the
experiment table in `crates/workload/src/reproduce.rs`; do not edit by hand.
Every row runs at seeds {SEEDS:?} on {ROWS}-row tables with a {BUDGET}-query
training budget and {TEST_QUERIES} unseen Q1 queries. A cell is the median over
the seeds and, where they differ, their min–max. A verdict decides the row's
claim on the median series: **reproduced** when it matches a value the paper
prints (within a factor {NEAR} of it, or inside its range), **shape only** when
the figure's shape holds but the paper prints no value to match, **not
reproduced** otherwise, with the values it was decided on.
`tests/paper_claims.rs` asserts the same claims at seed {PRIMARY_SEED}.

This reproduction's `a` is not the paper's: at a = 0.25 its K is a fraction of
the paper's (Table H's K rows), so compare Figs. 7–10 at matched K — every
`a`-sweep shows K beside its metric. CI re-runs the driver and fails when any
line above *Host-dependent rows* differs from this file.
"
    )
}

const DROPPED: &str = "\
## Dropped series

- Fig. 5's two curves (g(x) against the LLM, REG and PLR lines at 61 points; the
  exact and predicted f(x, θ) along two θ slices at 41 points): a plot's raw
  points. Its caption's claim, the FVU of each approximation, is the Fig. 5 row.
- Fig. 6's Γ trace (60 points per panel): a plot's raw points. What the figure
  states, convergence and the pairs it took, is in the Fig. 6 / Table H rows.
";

/// `REPRODUCTION.md` from `runs[r]`: row `r`'s series at each of [`SEEDS`].
pub fn render(runs: &[Vec<Series>]) -> String {
    let mut out = header();
    render_section(&mut out, runs, false);
    out.push('\n');
    out.push_str(DROPPED);
    out.push_str(
        "\n## Host-dependent rows\n\nWall-clock measurements on the host that ran the driver; \
         CI does not compare this section.\n",
    );
    render_section(&mut out, runs, true);
    out
}

fn render_section(out: &mut String, runs: &[Vec<Series>], host: bool) {
    let rows: Vec<(&Row, &[Series])> = TABLE
        .iter()
        .zip(runs)
        .filter(|(r, _)| r.experiment.host_dependent() == host)
        .map(|(r, s)| (r, s.as_slice()))
        .collect();
    out.push_str("\n| figure | series | claim | paper | verdict |\n|---|---|---|---|---|\n");
    for (r, s) in &rows {
        let series = format!("{:?}, d = {}", r.family, r.d);
        let claim = esc(&r.claim.to_string());
        let _ = writeln!(
            out,
            "| {} | {series} | {claim} | {} | {} |",
            r.figure,
            esc(r.paper),
            esc(&verdict(r, s))
        );
    }
    for (i, (r, s)) in rows.iter().enumerate() {
        let prev = i.checked_sub(1).map(|j| rows[j].0);
        if prev.is_none_or(|p| p.figure != r.figure) {
            let _ = writeln!(out, "\n## {} — {}", r.figure, r.experiment.title());
        }
        if prev.is_none_or(|p| (p.figure, p.family, p.d) != (r.figure, r.family, r.d)) {
            let _ = writeln!(out, "\n### {:?}, d = {}\n", r.family, r.d);
            render_series(out, s);
            out.push('\n');
        }
        let _ = writeln!(out, "- {} (paper: {}): {}", r.claim, r.paper, verdict(r, s));
    }
}

/// One table: swept values down, columns across; a single measurement
/// is printed one column per line.
fn render_series(out: &mut String, runs: &[Series]) {
    let s = &runs[0];
    let value = |c: usize, i: usize| cell(runs.iter().map(|r| r.cols[c].1[i]));
    if s.xs.len() == 1 {
        out.push_str("| measure | value |\n|---|---|\n");
        for (c, (name, _)) in s.cols.iter().enumerate() {
            let _ = writeln!(out, "| {} | {} |", esc(name), value(c, 0));
        }
        return;
    }
    let _ = write!(out, "| {} |", esc(s.x_label));
    for (name, _) in &s.cols {
        let _ = write!(out, " {} |", esc(name));
    }
    out.push('\n');
    out.push_str(&"|---".repeat(s.cols.len() + 1));
    out.push_str("|\n");
    for (i, x) in s.xs.iter().enumerate() {
        let _ = write!(out, "| {} |", esc(x));
        for c in 0..s.cols.len() {
            let _ = write!(out, " {} |", value(c, i));
        }
        out.push('\n');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn r1_and_r2_datasets_have_requested_shape() {
        let r1 = Family::R1.dataset(2, 500, 1);
        assert_eq!((r1.dim(), r1.len()), (2, 500));
        let r2 = Family::R2.dataset(3, 400, 1);
        assert_eq!((r2.dim(), r2.len()), (3, 400));
        // R2 outputs normalized to [0, 1].
        let (lo, hi) = r2.output_bounds().unwrap();
        assert!(lo >= 0.0 && hi <= 1.0);
    }

    #[test]
    fn r2_generator_uses_paper_radius() {
        assert_eq!(Family::R2.generator(2, Family::R2.mu(2)).theta_mean(), 1.0);
    }

    #[test]
    fn r2_config_scales_vigilance_with_range() {
        let r1 = Family::R1.config(2, 0.25).rho();
        let r2 = Family::R2.config(2, 0.25).rho();
        assert!(r2 > 10.0 * r1, "R2 rho {r2} must scale with the domain");
    }

    #[test]
    fn default_training_runs_end_to_end() {
        let t = Lab::new(PRIMARY_SEED).model(Spec::new(Family::R1, 2, A, GAMMA));
        assert!(t.report.consumed > 100);
        assert!(t.model.k() >= 1);
    }

    /// The CI check compares a fresh run with the committed file, so a
    /// series must come out the same, bit for bit, every time.
    #[test]
    fn a_row_is_bit_identical_across_runs() {
        let row = TABLE
            .iter()
            .find(|r| r.figure == "Fig. 10 (right)" && r.d == 2)
            .expect("the row exists");
        let first = Lab::new(PRIMARY_SEED).series(row);
        let second = Lab::new(PRIMARY_SEED).series(row);
        assert_eq!(format!("{first:?}"), format!("{second:?}"));
    }
}
