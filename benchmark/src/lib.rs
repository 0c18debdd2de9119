//! # regq-benchmark
//!
//! The repo's benchmark: four workloads run as **SQL text → `Session` →
//! `QueryOutput`**, an end-to-end ledger, and a per-layer waterfall
//! measured from outside the program. See `benchmark/README.md`.
//!
//! * [`spec`] — the workloads and every metric's name, unit and bound;
//! * [`fixture`] — tables, trained models, sessions and statement traffic;
//! * [`measure`] — the untraced closed-loop measured phase;
//! * [`oracle`] — the output check against a linear-scan engine;
//! * [`trace`] — spans per layer and the side measurements beneath them;
//! * [`bench`] — one workload in one process, the result object last;
//! * [`report`] — the full command, the ledger, `BENCHMARK.json`, `compare`.

pub mod bench;
pub mod fixture;
pub mod host;
pub mod json;
pub mod measure;
pub mod oracle;
pub mod report;
pub mod spec;
pub mod trace;
