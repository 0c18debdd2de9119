//! # regq-workload
//!
//! Analyst-workload simulation and the evaluators behind the paper's §VI
//! figures. The ledger (`benchmark/`) measures the served path end to
//! end; the figures' own latency columns are one mean per query slice.
//!
//! * [`querygen`] — random dNN queries with uniform centers and Gaussian
//!   radii `θ ~ N(µ_θ, σ_θ²)` (the paper's workload generator);
//! * [`stream`] — the Fig. 2 loop: execute queries on the exact engine,
//!   feed `(q, y)` pairs to the model until convergence, and account where
//!   the wall-clock time goes (the paper's 99.62 % claim);
//! * [`eval`] — the A1 / A2 / FVU / CoD evaluators comparing LLM against
//!   global REG, per-query REG and PLR on unseen query sets `V`, and
//!   [`eval::mean_latency`], the efficiency experiments' one timing
//!   function;
//! * [`reproduce`] — the paper's §VI figures as one experiment table, run
//!   over three seeds into `REPRODUCTION.md` by the `reproduce` binary and
//!   asserted by `tests/paper_claims.rs`.

#![deny(missing_docs)]

pub mod eval;
pub mod querygen;
pub mod reproduce;
pub mod stream;

pub use eval::{DataValueEval, Q1Eval, Q2Eval};
pub use querygen::QueryGenerator;
pub use stream::{train_from_engine, StreamReport};
