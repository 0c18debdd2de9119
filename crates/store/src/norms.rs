//! The Euclidean membership test of the selection operator (paper
//! Definition 2 with `p = 2`, the geometry the model's overlap predicate
//! is defined in).

use regq_linalg::vector;

/// `true` if `b` lies within `radius` of `a`.
///
/// Routed through the bounded early-exit kernel
/// ([`vector::sq_dist_within`]): this predicate runs once per candidate
/// row, and for the non-matching majority the partial sum crosses the
/// bound before all coordinates are touched. No square root is ever taken.
///
/// # Boundary contract
///
/// Membership is **inclusive** and decided in *squared space*: the row
/// matches iff `‖a − b‖₂² ≤ radius²`. This is the contract both access
/// paths (scan, kd-tree) and the batched kernel ([`within_batch`])
/// implement, so they always agree exactly. A **negative radius admits
/// nothing**: no distance is below zero, and the sign is checked before
/// squaring removes it (`-0.0` is zero, a `NaN` radius admits nothing
/// either). The root-space predicate `l2_dist(a, b) ≤ radius` can disagree
/// with it only when rounding places the distance within one ulp of
/// `radius` (squaring moves the rounding point); the squared form is taken
/// as canonical because it is what the early-exit kernels evaluate and it
/// never computes a root. A proptest in `proptest_store` pins
/// `within ⇔ dist ≤ radius` up to that one-ulp boundary band.
#[inline]
pub fn within(a: &[f64], b: &[f64], radius: f64) -> bool {
    radius >= 0.0 && vector::sq_dist_within(a, b, radius * radius)
}

/// Batched [`within`] over a contiguous `dim`-strided row block: invoke
/// `visit(r)` for every matching row index, in ascending order.
///
/// Dispatches to the 4-row lockstep kernel
/// ([`vector::sq_dist_within_batch`]) — the dense inner loop of the scan
/// access path (the kd-tree tests its AoSoA leaves with
/// `regq_linalg::simd::within_mask_aosoa`, under the same membership
/// contract). Membership follows the [`within`] boundary contract exactly;
/// the negative-radius rule costs one comparison per call, none per row.
#[inline]
pub fn within_batch(
    center: &[f64],
    rows: &[f64],
    dim: usize,
    radius: f64,
    visit: &mut dyn FnMut(usize),
) {
    if radius < 0.0 {
        return;
    }
    vector::sq_dist_within_batch(center, rows, dim, radius * radius, visit);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn within_is_inclusive_at_the_boundary() {
        let a = [0.0];
        let b = [1.0];
        assert!(within(&a, &b, 1.0));
        assert!(!within(&a, &b, 0.999_999));
    }

    #[test]
    fn negative_radius_admits_nothing() {
        let a = [0.5, 0.5];
        for radius in [-0.2, -f64::MIN_POSITIVE, f64::NEG_INFINITY, f64::NAN] {
            assert!(!within(&a, &a, radius), "r {radius}");
        }
        assert!(within(&a, &a, -0.0), "-0.0 is zero");
    }

    #[test]
    fn within_batch_agrees_with_per_row_within() {
        // 11 rows of dim 3 (straddles the 4-row quad boundary).
        let rows: Vec<f64> = (0..33).map(|i| (i as f64 * 0.61).sin()).collect();
        let center = [0.2, -0.1, 0.4];
        for radius in [0.0, 0.3, 0.8, 2.0, -0.3, f64::NEG_INFINITY, f64::NAN] {
            let mut got = Vec::new();
            within_batch(&center, &rows, 3, radius, &mut |r| got.push(r));
            let want: Vec<usize> = rows
                .chunks_exact(3)
                .enumerate()
                .filter(|(_, row)| within(&center, row, radius))
                .map(|(r, _)| r)
                .collect();
            assert_eq!(got, want, "radius {radius}");
        }
    }
}
