//! # regq — query-driven regression queries for in-DBMS analytics
//!
//! A from-scratch Rust reproduction of Anagnostopoulos & Triantafillou,
//! *"Efficient Scalable Accurate Regression Queries in In-DBMS Analytics"*
//! (IEEE ICDE 2017).
//!
//! The system learns from previously executed mean-value (Q1) and
//! regression (Q2) analytics queries and afterwards answers *new* queries
//! over arbitrary data subspaces **without touching the data** — in
//! `O(dK)` per query, independent of table size.
//!
//! ## Quickstart
//!
//! ```
//! use regq::prelude::*;
//! use std::sync::Arc;
//!
//! // 1. A "database": rows sampled from a non-linear surface (kept small
//! //    here so the doctest is quick; see examples/ for realistic sizes).
//! let field = GasSensorSurrogate::new(2, 7);
//! let mut rng = seeded(1);
//! let data = Dataset::from_function(&field, 10_000, SampleOptions::default(), &mut rng);
//! let engine = ExactEngine::new(Arc::new(data), AccessPathKind::KdTree);
//!
//! // 2. Train from the analyst query stream (the paper's Fig. 2 loop).
//! let gen = QueryGenerator::for_function(&field, 0.1);
//! let mut model = LlmModel::new(ModelConfig::paper_defaults(2)).unwrap();
//! let report = train_from_engine(&mut model, &engine, &gen, 15_000, &mut rng).unwrap();
//! assert!(report.consumed > 100);
//!
//! // 3. Answer an unseen Q1 with zero data access.
//! let q = Query::new(vec![0.4, 0.6], 0.1).unwrap();
//! let fast = model.predict_q1(&q).unwrap();
//! let exact = engine.q1(&q.center, q.radius).unwrap();
//! assert!((fast - exact).abs() < 0.25);
//!
//! // 4. Q2: the list of local linear models over the subspace.
//! let local_models = model.predict_q2(&q).unwrap();
//! assert!(!local_models.is_empty());
//! ```
//!
//! ## Crate map
//!
//! | crate | role |
//! |-------|------|
//! | [`core`] | the paper's model: vigilance AVQ + Local Linear Mappings |
//! | [`exact`] | exact engines: Q1, REG (OLS), PLR (MARS) |
//! | [`serve`] | concurrent snapshot serving: lock-free publication + confidence-gated hybrid routing |
//! | [`sql`] | declarative front end: `USING EXACT \| MODEL \| AUTO` |
//! | [`store`] | column store + dNN selection access paths |
//! | [`data`] | datasets: Rosenbrock (R2), gas-sensor surrogate (R1) |
//! | [`workload`] | query generation, Fig.-2 training loop, evaluators |
//! | [`linalg`] | dense linear algebra substrate |
//!
//! See `README.md` for the crate map and how to run things,
//! `docs/INVARIANTS.md` for the bit-identity and concurrency contracts and
//! `benchmark/README.md` for the measured end-to-end ledger;
//! `REPRODUCTION.md` (written by `regq_workload`'s `reproduce` binary)
//! reprints the paper's figures beside the paper's values.

pub use regq_core as core;
pub use regq_data as data;
pub use regq_exact as exact;
pub use regq_linalg as linalg;
pub use regq_serve as serve;
pub use regq_sql as sql;
pub use regq_store as store;
pub use regq_workload as workload;

/// One-stop imports for applications.
pub mod prelude {
    pub use regq_core::{
        overlap_degree, overlaps, Confidence, CoreError, LearningSchedule, LlmModel, LocalModel,
        ModelConfig, MomentsModel, Prototype, Query, ServingSnapshot, StepOutcome, TrainReport,
    };
    pub use regq_data::generators::{
        GasSensorSurrogate, PiecewiseLinear1d, Rosenbrock, Saddle2d, SineRidge1d,
    };
    pub use regq_data::rng::seeded;
    pub use regq_data::{DataFunction, Dataset, SampleOptions};
    pub use regq_exact::{
        fit_ols, fit_ols_global, q1_mean, q1_moments, ExactEngine, GoodnessOfFit, LinearModel,
        Mars, MarsModel, MarsParams, Moments,
    };
    pub use regq_serve::{
        FaultKind, FaultPlan, Feedback, Route, RoutePolicy, RouterStats, ServeError, Served,
        ShardRouter, ShardSnapshot, SnapshotCell, StallGate,
    };
    pub use regq_store::{AccessPathKind, Relation};
    pub use regq_workload::{
        eval::{
            evaluate_data_values, evaluate_q1, evaluate_q2, time_q1_exact, time_q1_llm,
            time_q2_llm, time_q2_plr_exact, time_q2_reg_exact,
        },
        train_from_engine, LatencyStats, QueryGenerator, StreamReport,
    };
}
