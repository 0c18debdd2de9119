//! # regq-workload
//!
//! Analyst-workload simulation and the evaluators behind the paper's §VI
//! figures. Nothing here times the served path — the ledger
//! (`benchmark/`) does.
//!
//! * [`querygen`] — random dNN queries with uniform centers and Gaussian
//!   radii `θ ~ N(µ_θ, σ_θ²)` (the paper's workload generator);
//! * [`stream`] — the Fig. 2 loop: execute queries on the exact engine,
//!   feed `(q, y)` pairs to the model until convergence, and account where
//!   the wall-clock time goes (the paper's 99.62 % claim);
//! * [`throughput`] — the closed-loop readers × 1 writer driver over a
//!   live `regq_serve::ShardRouter` (the concurrency tests' subject) and
//!   the rate helpers reports print through;
//! * [`eval`] — the A1 / A2 / FVU / CoD evaluators comparing LLM against
//!   global REG, per-query REG and PLR on unseen query sets `V`;
//! * [`reproduce`] — the paper's §VI figures as one experiment table, run
//!   over three seeds into `REPRODUCTION.md` by the `reproduce` binary and
//!   asserted by `tests/paper_claims.rs`;
//! * [`drift`] — the concept-drift recovery harness: a deterministic
//!   drifting workload driven through the serve fabric, measuring the
//!   dip → fallback-spike → retrain → recovery trajectory (with or
//!   without an active fault plan);
//! * [`timer`] — latency accumulation for the efficiency experiments.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod drift;
pub mod eval;
pub mod querygen;
pub mod reproduce;
pub mod stream;
pub mod throughput;
pub mod timer;

pub use drift::{drift_recovery_loop, DriftReport, DriftWindow, ShiftingValley, RECOVERY_FRACTION};
pub use eval::{DataValueEval, Q1Eval, Q2Eval};
pub use querygen::QueryGenerator;
pub use stream::{train_from_engine, StreamReport};
pub use throughput::{qps_label, qps_value, serve_closed_loop, ServeLoopResult};
pub use timer::LatencyStats;
