//! The owned prototype exchange form: `w_k = [x_k, θ_k]` plus its LLM
//! coefficients `(y_k, b_{X,k}, b_{Θ,k})` — the parameter triplet `α_k`
//! of Eq. (6).
//!
//! The model's *storage* is the packed
//! [`crate::arena::PrototypeArena`]; an owned [`Prototype`] is what
//! crosses API edges (persistence, assembling per-shard models from
//! prototype subsets) and what
//! [`LlmModel::prototypes`](crate::model::LlmModel::prototypes)
//! materializes on demand. The serving hot path never touches this type —
//! it runs on the borrowed views [`crate::arena::PrototypeRef`] /
//! [`crate::arena::PrototypeRefMut`].

use crate::query::Query;

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
    /// Spawn a prototype from a query with zero-initialized coefficients
    /// (Algorithm 1 initialization / design decision D-4).
    ///
    /// `updates` starts at 1: creation *is* the first observation, so the
    /// next hyperbolic-schedule update uses `η = 1/2` and the prototype
    /// becomes the running average of the queries it wins (rather than
    /// fully forgetting its spawn position at `η = 1`).
    pub fn from_query(q: &Query) -> Self {
        Prototype {
            center: q.center.clone(),
            radius: q.radius,
            y: 0.0,
            b_x: vec![0.0; q.dim()],
            b_theta: 0.0,
            updates: 1,
        }
    }

    /// Input dimensionality `d`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.center.len()
    }

    /// Evaluate the LLM `f_k(x, θ)` (Eq. 5/12):
    /// `y_k + b_{X,k}(x − x_k)ᵀ + b_{Θ,k}(θ − θ_k)`.
    #[inline]
    pub fn eval(&self, x: &[f64], theta: f64) -> f64 {
        debug_assert_eq!(x.len(), self.dim());
        let mut v = self.y + self.b_theta * (theta - self.radius);
        for ((bi, xi), ci) in self.b_x.iter().zip(x.iter()).zip(self.center.iter()) {
            v += bi * (xi - ci);
        }
        v
    }

    /// Evaluate the LLM at the prototype's own radius, `f_k(x, θ_k)` —
    /// the data-function approximation of Theorem 3 / Eq. (13).
    #[inline]
    pub fn eval_at_own_radius(&self, x: &[f64]) -> f64 {
        self.eval(x, self.radius)
    }

    /// The local linear model of the *data* function over `D_k`
    /// (Theorem 3): returns `(intercept, slope)` with
    /// `intercept = y_k − b_{X,k}·x_kᵀ` and `slope = b_{X,k}`.
    pub fn local_line(&self) -> (f64, &[f64]) {
        let mut intercept = self.y;
        for (bi, ci) in self.b_x.iter().zip(self.center.iter()) {
            intercept -= bi * ci;
        }
        (intercept, &self.b_x)
    }

    /// Squared joint `L2` distance from a query (Definition 5).
    #[inline]
    pub fn sq_dist_to(&self, q: &Query) -> f64 {
        q.sq_dist_parts(&self.center, self.radius)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn proto() -> Prototype {
        Prototype {
            center: vec![1.0, 2.0],
            radius: 0.5,
            y: 10.0,
            b_x: vec![2.0, -1.0],
            b_theta: 4.0,
            updates: 7,
        }
    }

    #[test]
    fn from_query_zero_initializes() {
        let q = Query::new(vec![0.3, 0.4], 0.2).unwrap();
        let p = Prototype::from_query(&q);
        assert_eq!(p.center, vec![0.3, 0.4]);
        assert_eq!(p.radius, 0.2);
        assert_eq!(p.y, 0.0);
        assert_eq!(p.b_x, vec![0.0, 0.0]);
        assert_eq!(p.b_theta, 0.0);
        assert_eq!(p.updates, 1);
    }

    #[test]
    fn eval_matches_equation_5() {
        let p = proto();
        // f(x, θ) = 10 + 2(x1-1) - 1(x2-2) + 4(θ-0.5)
        let v = p.eval(&[2.0, 1.0], 1.0);
        assert!((v - (10.0 + 2.0 + 1.0 + 2.0)).abs() < 1e-12);
        // At the prototype itself: f = y_k.
        assert_eq!(p.eval(&[1.0, 2.0], 0.5), 10.0);
    }

    #[test]
    fn eval_at_own_radius_drops_theta_term() {
        let p = proto();
        assert_eq!(p.eval_at_own_radius(&[1.0, 2.0]), 10.0);
        assert_eq!(p.eval_at_own_radius(&[2.0, 2.0]), p.eval(&[2.0, 2.0], 0.5));
    }

    #[test]
    fn local_line_matches_theorem_3() {
        let p = proto();
        let (intercept, slope) = p.local_line();
        // intercept = 10 - (2*1 + (-1)*2) = 10.
        assert_eq!(intercept, 10.0);
        assert_eq!(slope, &[2.0, -1.0]);
        // The line and the LLM-at-own-radius agree everywhere.
        let x = [0.7, -1.3];
        let line_val = intercept + slope[0] * x[0] + slope[1] * x[1];
        assert!((line_val - p.eval_at_own_radius(&x)).abs() < 1e-12);
    }
}
