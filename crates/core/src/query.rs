//! The query vector `q = [x, θ]` (paper Definition 4) and the joint
//! similarity measure (Definition 5).

use crate::error::CoreError;
use regq_linalg::vector;

/// A radius (dNN) analytics query: center `x ∈ R^d` and radius `θ > 0`,
/// treated as one `(d+1)`-dimensional vector in the query space `Q`.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Query center `x`.
    pub center: Vec<f64>,
    /// Query radius `θ`.
    pub radius: f64,
}

impl Query {
    /// Construct a query, validating finiteness and radius positivity.
    ///
    /// # Errors
    /// [`CoreError::NonFinite`] for NaN/inf input;
    /// [`CoreError::InvalidConfig`] for a non-positive radius.
    pub fn new(center: Vec<f64>, radius: f64) -> Result<Self, CoreError> {
        if !vector::all_finite(&center) || !radius.is_finite() {
            return Err(CoreError::NonFinite {
                location: "Query::new",
            });
        }
        if radius <= 0.0 {
            return Err(CoreError::InvalidConfig(format!(
                "query radius must be positive, got {radius}"
            )));
        }
        Ok(Query { center, radius })
    }

    /// Construct without validation (hot paths with already-checked input).
    pub fn new_unchecked(center: Vec<f64>, radius: f64) -> Self {
        Query { center, radius }
    }

    /// Input dimensionality `d` (the joint query vector has `d + 1`).
    #[inline]
    pub fn dim(&self) -> usize {
        self.center.len()
    }

    /// Squared joint `L2` distance (Definition 5):
    /// `‖q − q'‖₂² = ‖x − x'‖₂² + (θ − θ')²`.
    #[inline]
    pub fn sq_dist(&self, other: &Query) -> f64 {
        debug_assert_eq!(self.dim(), other.dim());
        let dr = self.radius - other.radius;
        vector::sq_dist(&self.center, &other.center) + dr * dr
    }

    /// Joint `L2` distance (Definition 5).
    #[inline]
    pub fn dist(&self, other: &Query) -> f64 {
        self.sq_dist(other).sqrt()
    }

    /// Squared joint distance to raw `(center, radius)` components —
    /// avoids materializing a `Query` on the winner-search hot path.
    #[inline]
    pub fn sq_dist_parts(&self, center: &[f64], radius: f64) -> f64 {
        debug_assert_eq!(self.dim(), center.len());
        let dr = self.radius - radius;
        vector::sq_dist(&self.center, center) + dr * dr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_validates_radius() {
        assert!(Query::new(vec![0.0], 0.1).is_ok());
        assert!(matches!(
            Query::new(vec![0.0], 0.0),
            Err(CoreError::InvalidConfig(_))
        ));
        assert!(matches!(
            Query::new(vec![0.0], -1.0),
            Err(CoreError::InvalidConfig(_))
        ));
    }

    #[test]
    fn new_rejects_non_finite() {
        assert!(matches!(
            Query::new(vec![f64::NAN], 0.1),
            Err(CoreError::NonFinite { .. })
        ));
        assert!(matches!(
            Query::new(vec![0.0], f64::INFINITY),
            Err(CoreError::NonFinite { .. })
        ));
    }

    #[test]
    fn joint_distance_matches_definition_5() {
        let a = Query::new(vec![0.0, 0.0], 0.5).unwrap();
        let b = Query::new(vec![3.0, 4.0], 0.5).unwrap();
        assert!((a.dist(&b) - 5.0).abs() < 1e-12);
        // Radius difference contributes quadratically.
        let c = Query::new(vec![0.0, 0.0], 1.5).unwrap();
        assert!((a.sq_dist(&c) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dist_parts_equals_dist() {
        let a = Query::new(vec![0.1, 0.2], 0.3).unwrap();
        let b = Query::new(vec![-0.4, 0.9], 0.7).unwrap();
        assert_eq!(a.sq_dist(&b), a.sq_dist_parts(&b.center, b.radius));
    }

    #[test]
    fn distance_is_symmetric_and_zero_on_self() {
        let a = Query::new(vec![1.0, 2.0], 0.4).unwrap();
        let b = Query::new(vec![0.0, -1.0], 0.9).unwrap();
        assert_eq!(a.sq_dist(&b), b.sq_dist(&a));
        assert_eq!(a.sq_dist(&a), 0.0);
    }
}
