//! The owned prototype exchange form: `w_k = [x_k, θ_k]` plus its LLM
//! coefficients `(y_k, b_{X,k}, b_{Θ,k})` — the parameter triplet `α_k`
//! of Eq. (6).
//!
//! The model's *storage* is the packed
//! [`crate::arena::PrototypeArena`]; an owned [`Prototype`] is what
//! crosses API edges (persistence, rebuilding a model from a snapshot)
//! and what
//! [`LlmModel::prototypes`](crate::model::LlmModel::prototypes)
//! materializes on demand. It is data only: every evaluation (Eq. 5,
//! Theorem 3, the joint distance) is a method of the arena, and the
//! serving hot path never touches this type — it runs on the borrowed
//! views [`crate::arena::PrototypeRef`] / [`crate::arena::PrototypeRefMut`].

/// One query-space prototype with its Local Linear Mapping (owned
/// exchange form; see the module docs for its relation to the arena).
#[derive(Debug, Clone, PartialEq)]
pub struct Prototype {
    /// Prototype center `x_k` (the `E[x]` component of `w_k`).
    pub center: Vec<f64>,
    /// Prototype radius `θ_k` (the `E[θ]` component of `w_k`).
    pub radius: f64,
    /// Local intercept `y_k ≈ E[y]` over the query subspace `Q_k`.
    pub y: f64,
    /// Local slope over the input coordinates, `b_{X,k} ∈ R^d`.
    pub b_x: Vec<f64>,
    /// Local slope over the radius coordinate, `b_{Θ,k}`.
    pub b_theta: f64,
    /// Number of SGD updates this prototype has received (drives the
    /// per-prototype learning rate and the prune heuristic).
    pub updates: u64,
}

impl Prototype {
    /// Input dimensionality `d`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.center.len()
    }
}
