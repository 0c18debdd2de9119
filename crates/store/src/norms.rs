//! `L_p` norm selector for the selection operator (paper Definition 2).

use regq_linalg::vector;

/// Which `L_p` norm a radius selection uses.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Norm {
    /// Manhattan distance (`p = 1`).
    L1,
    /// Euclidean distance (`p = 2`) — the paper's default.
    #[default]
    L2,
    /// Chebyshev distance (`p = ∞`).
    LInf,
    /// General Minkowski distance for `p ≥ 1`.
    Lp(f64),
}

impl Norm {
    /// Distance between two vectors under this norm.
    #[inline]
    pub fn dist(&self, a: &[f64], b: &[f64]) -> f64 {
        match self {
            Norm::L1 => vector::l1_dist(a, b),
            Norm::L2 => vector::l2_dist(a, b),
            Norm::LInf => vector::linf_dist(a, b),
            Norm::Lp(p) => vector::lp_dist(a, b, *p),
        }
    }

    /// `true` if `b` lies within `radius` of `a`.
    ///
    /// Routed through the bounded early-exit kernels
    /// ([`vector::sq_dist_within`] and friends): this predicate runs once
    /// per candidate row of every scan, and for the non-matching majority
    /// the partial sum crosses the bound before all coordinates are
    /// touched. No square root is ever taken for `L2`.
    ///
    /// # Boundary contract
    ///
    /// Membership is **inclusive** and, for `L2` (and `Lp` with finite
    /// `p ≠ 1`), decided in *power space*: the row matches iff
    /// `‖a − b‖₂² ≤ radius²` (resp. `Σ|aᵢ−bᵢ|^p ≤ radius^p`). This is the
    /// contract both access paths (scan, kd-tree) and the batched kernel
    /// ([`Norm::within_batch`]) implement, so they always agree exactly.
    /// A **negative radius admits nothing** under every norm: no distance
    /// is below zero, and the power-space forms check the sign before an
    /// even power squares it away (`-0.0` is zero, a `NaN` radius admits
    /// nothing either). The root-space predicate `dist(a, b) ≤ radius` can
    /// disagree with it only when rounding places `dist` within one ulp of
    /// `radius` (squaring moves the rounding point); the power-space form
    /// is taken as canonical because it is what the early-exit kernels
    /// evaluate and it never computes a root. A proptest in
    /// `proptest_store` pins `within ⇔ dist ≤ radius` up to that
    /// one-ulp boundary band.
    #[inline]
    pub fn within(&self, a: &[f64], b: &[f64], radius: f64) -> bool {
        match self {
            Norm::L1 => vector::l1_dist_within(a, b, radius),
            Norm::L2 => radius >= 0.0 && vector::sq_dist_within(a, b, radius * radius),
            Norm::LInf => vector::linf_dist_within(a, b, radius),
            Norm::Lp(p) => radius >= 0.0 && vector::lp_dist_within(a, b, *p, radius),
        }
    }

    /// Batched [`Norm::within`] over a contiguous `dim`-strided row block:
    /// invoke `visit(r)` for every matching row index, in ascending order.
    ///
    /// `L2` dispatches to the 4-row lockstep kernel
    /// ([`vector::sq_dist_within_batch`]) — the dense inner loop of the
    /// scan access path (the kd-tree tests its AoSoA leaves with
    /// `regq_linalg::simd::within_mask_aosoa`, under the same membership
    /// contract); the other norms fall back to the per-row early-exit
    /// kernels. Membership follows the [`Norm::within`] boundary contract
    /// exactly for every norm; the negative-radius rule costs one
    /// comparison per call, none per row.
    #[inline]
    pub fn within_batch(
        &self,
        center: &[f64],
        rows: &[f64],
        dim: usize,
        radius: f64,
        visit: &mut dyn FnMut(usize),
    ) {
        if radius < 0.0 {
            return;
        }
        match self {
            Norm::L2 => vector::sq_dist_within_batch(center, rows, dim, radius * radius, visit),
            _ => {
                for (r, row) in rows.chunks_exact(dim).enumerate() {
                    if self.within(center, row, radius) {
                        visit(r);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dist_dispatches_to_the_right_kernel() {
        let a = [0.0, 0.0];
        let b = [3.0, 4.0];
        assert_eq!(Norm::L1.dist(&a, &b), 7.0);
        assert_eq!(Norm::L2.dist(&a, &b), 5.0);
        assert_eq!(Norm::LInf.dist(&a, &b), 4.0);
        assert!((Norm::Lp(2.0).dist(&a, &b) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn within_is_inclusive_at_the_boundary() {
        let a = [0.0];
        let b = [1.0];
        assert!(Norm::L2.within(&a, &b, 1.0));
        assert!(!Norm::L2.within(&a, &b, 0.999_999));
        assert!(Norm::L1.within(&a, &b, 1.0));
        assert!(Norm::LInf.within(&a, &b, 1.0));
    }

    #[test]
    fn negative_radius_admits_nothing_under_every_norm() {
        let a = [0.5, 0.5];
        for norm in [Norm::L1, Norm::L2, Norm::LInf, Norm::Lp(3.0), Norm::Lp(4.0)] {
            for radius in [-0.2, -f64::MIN_POSITIVE, f64::NEG_INFINITY, f64::NAN] {
                assert!(!norm.within(&a, &a, radius), "{norm:?} r {radius}");
            }
            assert!(norm.within(&a, &a, -0.0), "{norm:?}: -0.0 is zero");
        }
    }

    #[test]
    fn default_is_l2() {
        assert_eq!(Norm::default(), Norm::L2);
    }

    #[test]
    fn within_batch_agrees_with_per_row_within() {
        // 11 rows of dim 3 (straddles the 4-row quad boundary).
        let rows: Vec<f64> = (0..33).map(|i| (i as f64 * 0.61).sin()).collect();
        let center = [0.2, -0.1, 0.4];
        for norm in [Norm::L1, Norm::L2, Norm::LInf, Norm::Lp(3.0)] {
            for radius in [0.0, 0.3, 0.8, 2.0, -0.3, f64::NEG_INFINITY, f64::NAN] {
                let mut got = Vec::new();
                norm.within_batch(&center, &rows, 3, radius, &mut |r| got.push(r));
                let want: Vec<usize> = rows
                    .chunks_exact(3)
                    .enumerate()
                    .filter(|(_, row)| norm.within(&center, row, radius))
                    .map(|(r, _)| r)
                    .collect();
                assert_eq!(got, want, "norm {norm:?} radius {radius}");
            }
        }
    }
}
