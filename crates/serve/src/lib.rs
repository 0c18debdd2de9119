//! # regq-serve
//!
//! The concurrent snapshot-serving engine: the layer that turns the
//! `regq` library into a server core.
//!
//! The paper's deployment story (Fig. 2, desideratum D2) has three actors:
//! an **online trainer** consuming `(query, answer)` pairs from the DBMS,
//! a fleet of **serving threads** answering Q1/Q2 in `O(dK)` with zero
//! data access, and the **exact engine** standing by for queries the model
//! cannot answer with confidence. This crate wires them together:
//!
//! * [`SnapshotCell`] — the epoch publication point: the trainer publishes
//!   immutable [`regq_core::ServingSnapshot`]s; readers resolve the
//!   current one through per-reader hazard slots — **no `Mutex`/`RwLock`
//!   on the serve path** — and the writer reclaims superseded epochs, so
//!   retention stays bounded by the reader count (not the publish count);
//! * [`ShardRouter`] — the one serving engine: confidence-gated hybrid
//!   routing (score each query with [`regq_core::confidence`], serve from
//!   the snapshots above the [`RoutePolicy`] threshold, fall back to the
//!   [`regq_exact::ExactEngine`] below it — and feed the exact answer
//!   back to the trainer as a free training example, closing Algorithm
//!   1's loop in production) over a sharded fabric: a kd-split of the
//!   joint query space `[x, θ]` assigns each feedback example to one of
//!   `n` trainer+cell shards (bounded per-shard queues, work-stealing
//!   drain), while predictions fuse overlap weights **across** shards
//!   bit-identically to the single-model answer. One shard is the
//!   smallest fabric, not a separate engine;
//! * [`FaultPlan`] — the deterministic fault-injection plane behind the
//!   self-healing story: scripted trainer panics, lock poisonings, queue
//!   overflow bursts, publish stalls and exact-path delays fire at exact
//!   occurrence counts, and the supervision machinery (quarantine +
//!   restart-from-snapshot, poison healing, bounded retry-with-backoff,
//!   deadline-bounded [`Route::Degraded`] serving) recovers from each —
//!   counted in the stats, never silently.
//!
//! In the MADlib / unified in-RDBMS architecture sense, this is the
//! "engine layer" that owns routing across the exact and learned backends
//! behind one declarative surface (`regq_sql` executes through it).
//!
//! ## Panic policy
//!
//! The serve path must not unwind under any input the public API admits.
//! Fallible outcomes are typed ([`ServeError`], [`Feedback`]) or counted
//! (drops, quarantines, poisonings in [`RouterStats`]);
//! trainer panics are contained by `catch_unwind` supervision and
//! answered with a restart. The few remaining `expect`s in this crate
//! assert local invariants that hold by construction (a model that was
//! just trained is present; a [`TlsReader`]'s handle exists until drop;
//! re-assembling prototypes of a valid model is valid) or document a
//! builder contract ([`FaultPlan`] must be configured before it is
//! shared) — each states its invariant at the call site.
//!
//! ```
//! use regq_core::{LlmModel, ModelConfig, Query};
//! use regq_data::generators::GasSensorSurrogate;
//! use regq_data::{rng::seeded, Dataset, SampleOptions};
//! use regq_exact::ExactEngine;
//! use regq_serve::{Route, RoutePolicy, ShardRouter};
//! use regq_store::AccessPathKind;
//! use std::sync::Arc;
//!
//! let field = GasSensorSurrogate::new(2, 7);
//! let mut rng = seeded(1);
//! let data = Dataset::from_function(&field, 5_000, SampleOptions::default(), &mut rng);
//! let exact = ExactEngine::new(Arc::new(data), AccessPathKind::KdTree);
//!
//! // An empty trainer on one shard: the router starts on the exact route
//! // and trains itself from its own fallbacks (the closed loop).
//! let model = LlmModel::new(ModelConfig::paper_defaults(2)).unwrap();
//! let router = ShardRouter::with_model(exact, model, RoutePolicy::default(), 1);
//!
//! let q = Query::new(vec![0.4, 0.6], 0.1).unwrap();
//! let served = router.q1(&q).unwrap();
//! assert_eq!(served.route, Route::Exact); // nothing learned yet
//! assert!(router.stats().feedback_fed >= 1); // …but the trainer just ate it
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod cell;
pub(crate) mod cost;
pub mod fault;
pub(crate) mod partition;
pub mod route;
pub mod shard;

pub use cell::{ReadGuard, ReaderHandle, SnapshotCell, TlsReader};
pub use fault::{FaultKind, FaultPlan, StallGate};
pub use route::{Feedback, Route, RoutePolicy, ServeError, Served};
pub use shard::{RouterStats, ShardRouter, ShardSnapshot};
