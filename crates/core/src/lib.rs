//! # regq-core
//!
//! The paper's primary contribution: a **query-driven statistical learning
//! model** that answers mean-value (Q1) and linear-regression (Q2) queries
//! over data subspaces *without accessing the data*, after training on
//! previously executed `(query, answer)` pairs.
//!
//! ## Model in one paragraph
//!
//! A query `q = [x, θ]` (center + radius, Definition 4) lives in the query
//! space `Q ⊂ R^{d+1}`. A conditionally-growing adaptive vector quantizer
//! partitions `Q` into `K` subspaces with prototypes `w_k = [x_k, θ_k]`;
//! `K` is *not* fixed in advance but grows whenever an incoming query is
//! farther than the vigilance `ρ = a(√d + 1)` from every prototype
//! (Section IV). Each prototype carries a **Local Linear Mapping**
//! `f_k(x, θ) = y_k + b_{X,k}(x − x_k)ᵀ + b_{Θ,k}(θ − θ_k)` (Eq. 5) whose
//! coefficients are learned by stochastic gradient descent on the expected
//! prediction error (Theorem 4). Training (Algorithm 1) stops when the
//! aggregate parameter displacement `Γ = max(Γ_J, Γ_H)` drops below `γ`.
//!
//! After training:
//!
//! * **Q1** (Algorithm 2): `ŷ = Σ_{w_k ∈ W(q)} δ̃(q,w_k) · f_k(x, θ)` over
//!   the overlap neighborhood `W(q)`, falling back to the closest prototype
//!   when nothing overlaps;
//! * **Q2** (Algorithm 3): the list `S` of local linear models
//!   `(y_k − b_{X,k}x_kᵀ, b_{X,k})` — Theorem 3 — one per overlapping data
//!   subspace;
//! * **data values** (Eq. 14): `û = Σ δ̃(q,w_k) · f_k(x, θ_k)`.
//!
//! All three run in `O(dK)` with **zero data access** — the paper's
//! scalability claim.
//!
//! ## Module map
//!
//! * [`query`] — the query vector type and joint `L2` similarity
//!   (Definition 5).
//! * [`overlap`] — overlap predicate and degree `δ` (Eq. 9).
//! * [`prototype`] — the owned prototype exchange form (Theorem 3 views).
//! * [`arena`] — struct-of-arrays prototype storage, the scalar
//!   winner/overlap passes and the pruned serving layout.
//! * [`schedule`] — SGD learning-rate schedules (§II-B).
//! * [`config`] — vigilance/γ/schedule configuration.
//! * [`model`] — the [`LlmModel`]: Algorithm 1 training.
//! * [`predict`] — Algorithms 2 & 3 and Eq. 14 prediction.
//! * [`coeffs`] — the inline coefficient vector of a Q2 list element.
//! * [`metrics`] — RMSE / FVU / CoD used by the paper's §VI metrics.
//! * [`moments`] — extension E-1: second-moment head → variance prediction.
//! * [`confidence`] — desideratum D2: when to trust a served answer.
//! * [`snapshot`] — the immutable, publishable serving half of the
//!   train/serve split, and the one resolver behind every served answer.
//! * [`persist`] — versioned text persistence.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod arena;
pub mod coeffs;
pub mod confidence;
pub mod config;
pub mod error;
pub mod metrics;
pub mod model;
pub mod moments;
pub mod overlap;
pub mod persist;
pub mod predict;
pub mod prototype;
pub mod query;
pub mod schedule;
pub mod snapshot;

pub use arena::{
    BatchResolution, BlockLayout, PrototypeArena, PrototypeRef, PrototypeRefMut, ScreenCounters,
};
pub use coeffs::Coeffs;
pub use confidence::Confidence;
pub use config::ModelConfig;
pub use error::CoreError;
pub use model::{LlmModel, StepOutcome, TrainReport};
pub use moments::MomentsModel;
pub use overlap::{overlap_degree, overlap_degree_parts, overlaps};
pub use predict::LocalModel;
pub use prototype::Prototype;
pub use query::Query;
pub use schedule::LearningSchedule;
pub use snapshot::{
    sharded_q1_with_confidence_batch_pruned, sharded_q1_with_confidence_pruned,
    sharded_q2_with_confidence_batch_pruned, sharded_q2_with_confidence_pruned, ServingSnapshot,
    ShardPart,
};
