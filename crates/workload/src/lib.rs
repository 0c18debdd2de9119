//! # regq-workload
//!
//! Analyst-workload simulation and the evaluation harness for the paper's
//! §VI experiments.
//!
//! * [`querygen`] — random dNN queries with uniform centers and Gaussian
//!   radii `θ ~ N(µ_θ, σ_θ²)` (the paper's workload generator);
//! * [`stream`] — the Fig. 2 loop: execute queries on the exact engine,
//!   feed `(q, y)` pairs to the model until convergence, and account where
//!   the wall-clock time goes (the paper's 99.62 % claim); the parallel
//!   variant batches the dominant ground-truth executions across workers
//!   without changing the trained model;
//! * [`pool`] — minimal scoped-thread executors shared by the training
//!   and throughput drivers;
//! * [`throughput`] — concurrent serving measurement: frozen-model vs
//!   exact thread sweeps, plus the closed-loop readers × 1 writer driver
//!   over a live `regq_serve::ShardRouter`;
//! * [`eval`] — the A1 / A2 / FVU / CoD evaluators comparing LLM against
//!   global REG, per-query REG and PLR on unseen query sets `V`;
//! * [`experiment`] — tiny series/table printer used by every `fig*`
//!   bench target;
//! * [`drift`] — the concept-drift recovery harness: a deterministic
//!   drifting workload driven through the serve fabric, measuring the
//!   dip → fallback-spike → retrain → recovery trajectory (with or
//!   without an active fault plan);
//! * [`timer`] — latency accumulation for the efficiency experiments.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod drift;
pub mod eval;
pub mod experiment;
pub mod pool;
pub mod querygen;
pub mod stream;
pub mod throughput;
pub mod timer;

pub use drift::{drift_recovery_loop, DriftReport, DriftWindow, ShiftingValley, RECOVERY_FRACTION};
pub use eval::{DataValueEval, Q1Eval, Q2Eval};
pub use querygen::QueryGenerator;
pub use stream::{
    train_from_engine, train_from_engine_parallel, ParallelTrainOptions, StreamReport,
};
pub use throughput::{
    exact_q1_throughput, model_q1_throughput, qps_label, qps_value, serve_closed_loop,
    ServeLoopResult, ThroughputResult,
};
pub use timer::LatencyStats;
