//! Query overlap predicate (Definition 6) and degree (Eq. 9).
//!
//! Two queries overlap when their balls intersect:
//! `A(q, q') = (‖x − x'‖₂ ≤ θ + θ')`. The *degree* of overlap is
//!
//! ```text
//! δ(q, q') = 1 − max(‖x − x'‖₂, |θ − θ'|) / (θ + θ')   if A(q, q')
//!          = 0                                          otherwise
//! ```
//!
//! `δ ∈ [0, 1]`; `δ = 1` exactly for identical (concentric, equal-radius)
//! balls; the `|θ − θ'|` term discounts concentric-but-nested balls (the
//! paper's "remaining area from perfect inclusion").
//!
//! # Boundary contract
//!
//! Like `norms::within` in the store crate, the overlap *predicate* is
//! decided in **squared space**: `A(q, q') ⇔ ‖x − x'‖₂² ≤ (θ + θ')²`.
//! The square root — needed only for the degree's `spread` term — is
//! taken after a ball has already qualified, so the non-overlapping
//! majority of a `K`-prototype scan never pays for a root. The root-space
//! predicate `‖x − x'‖₂ ≤ θ + θ'` can disagree with it only when rounding
//! places the distance within one ulp of the radius sum; in that band δ is
//! 0 either way (any computed degree ≤ 0 is clamped out), so predictions
//! are unaffected.

use crate::query::Query;
use regq_linalg::vector;

/// Overlap predicate `A(q, q')` (Definition 6), evaluated in squared
/// space (see the module-level boundary contract).
#[inline]
pub fn overlaps(a: &Query, b: &Query) -> bool {
    let radius_sum = a.radius + b.radius;
    vector::sq_dist(&a.center, &b.center) <= radius_sum * radius_sum
}

/// Degree of overlap `δ(q, q') ∈ [0, 1]` (Eq. 9).
#[inline]
pub fn overlap_degree(a: &Query, b: &Query) -> f64 {
    overlap_degree_parts(&a.center, a.radius, &b.center, b.radius)
}

/// [`overlap_degree`] over raw `(center, radius)` parts — the
/// allocation-free kernel of the serving path. Prototypes compare against
/// queries through this directly, without materializing a [`Query`] view
/// (no center clone per prototype per prediction).
#[inline]
pub fn overlap_degree_parts(
    center_a: &[f64],
    radius_a: f64,
    center_b: &[f64],
    radius_b: f64,
) -> f64 {
    let center_sq = vector::sq_dist(center_a, center_b);
    let radius_sum = radius_a + radius_b;
    // Squared-space membership (module-level boundary contract): the
    // non-overlapping majority of a prototype scan never takes a root.
    // Asked with `≤`, exactly as `overlaps` and the served block kernel
    // ask it, so a NaN distance is no member on any path.
    if center_sq <= radius_sum * radius_sum {
        let spread = center_sq.sqrt().max((radius_a - radius_b).abs());
        // In the one-ulp band where root-space would have rejected, the raw
        // degree can dip below zero; clamp so δ ∈ [0, 1] holds unconditionally.
        (1.0 - spread / radius_sum).max(0.0)
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(center: &[f64], r: f64) -> Query {
        Query::new(center.to_vec(), r).unwrap()
    }

    #[test]
    fn identical_queries_have_degree_one() {
        let a = q(&[0.5, 0.5], 0.2);
        assert_eq!(overlap_degree(&a, &a), 1.0);
        assert!(overlaps(&a, &a));
    }

    #[test]
    fn tangent_balls_have_degree_zero_but_overlap() {
        let a = q(&[0.0], 0.5);
        let b = q(&[1.0], 0.5);
        assert!(overlaps(&a, &b));
        assert_eq!(overlap_degree(&a, &b), 0.0);
    }

    #[test]
    fn disjoint_balls_have_degree_zero() {
        let a = q(&[0.0], 0.3);
        let b = q(&[1.0], 0.3);
        assert!(!overlaps(&a, &b));
        assert_eq!(overlap_degree(&a, &b), 0.0);
    }

    #[test]
    fn a_nan_distance_is_no_member_and_has_degree_zero() {
        // `f64::max` would drop the NaN root and leave the radius term to
        // produce a positive degree; membership is asked first, with `≤`.
        let a = Query::new_unchecked(vec![f64::NAN], 0.3);
        let b = q(&[0.0], 0.3);
        assert!(!overlaps(&a, &b));
        assert_eq!(overlap_degree(&a, &b), 0.0);
    }

    #[test]
    fn concentric_nested_balls_are_discounted() {
        // Same center, different radii: spread = |θ−θ'|.
        let a = q(&[0.0, 0.0], 0.9);
        let b = q(&[0.0, 0.0], 0.1);
        let d = overlap_degree(&a, &b);
        assert!((d - (1.0 - 0.8)).abs() < 1e-12, "δ = {d}");
    }

    #[test]
    fn parts_kernel_agrees_with_query_view() {
        let a = q(&[0.1, 0.9], 0.25);
        let b = q(&[0.4, 0.7], 0.4);
        assert_eq!(
            overlap_degree(&a, &b),
            overlap_degree_parts(&a.center, a.radius, &b.center, b.radius)
        );
    }

    #[test]
    fn degree_is_symmetric() {
        let a = q(&[0.1, 0.9], 0.25);
        let b = q(&[0.4, 0.7], 0.4);
        assert_eq!(overlap_degree(&a, &b), overlap_degree(&b, &a));
    }

    #[test]
    fn degree_is_within_unit_interval() {
        let cases = [
            (q(&[0.0], 0.5), q(&[0.2], 0.5)),
            (q(&[0.0], 0.01), q(&[0.0], 5.0)),
            (q(&[3.0], 1.0), q(&[-3.0], 1.0)),
        ];
        for (a, b) in cases {
            let d = overlap_degree(&a, &b);
            assert!((0.0..=1.0).contains(&d), "δ = {d}");
        }
    }

    #[test]
    fn partial_overlap_matches_formula() {
        // centers 0.3 apart, radii 0.2 + 0.2 = 0.4; spread = max(0.3, 0) = 0.3.
        let a = q(&[0.0], 0.2);
        let b = q(&[0.3], 0.2);
        assert!((overlap_degree(&a, &b) - (1.0 - 0.3 / 0.4)).abs() < 1e-12);
    }
}
