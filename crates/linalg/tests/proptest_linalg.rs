//! Property-based tests for the linear-algebra substrate.

use proptest::prelude::*;
use regq_linalg::vector::l2_dist;
use regq_linalg::{solve_normal_equations, GramAccumulator};

fn finite_vec(len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e3..1e3f64, len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Triangle inequality and symmetry for the L2 distance.
    #[test]
    fn l2_metric_axioms(a in finite_vec(4), b in finite_vec(4), c in finite_vec(4)) {
        let ab = l2_dist(&a, &b);
        let ba = l2_dist(&b, &a);
        prop_assert!((ab - ba).abs() < 1e-9);
        prop_assert!(l2_dist(&a, &a) < 1e-12);
        prop_assert!(l2_dist(&a, &c) <= ab + l2_dist(&b, &c) + 1e-9);
    }

    /// The solve solves the system: `G b = r` for a shifted Gram matrix.
    #[test]
    fn solve_residual_is_small(rows in prop::collection::vec(finite_vec(2), 3..8),
                               b in finite_vec(3)) {
        let mut acc = GramAccumulator::new(3);
        for row in &rows {
            acc.push_affine(row, 0.0);
        }
        // The Gram matrix of `[1, x…]` rows plus the identity.
        let mut g = acc.xtx().to_vec();
        for i in 0..3 {
            g[i * (i + 1) / 2 + i] += 1.0;
        }
        let sol = solve_normal_equations(&g, &b, 1e-8).unwrap();
        let entry = |r: usize, c: usize| if c <= r { g[r * (r + 1) / 2 + c] } else { g[c * (c + 1) / 2 + r] };
        let scale = 1.0 + b.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        for (r, &br) in b.iter().enumerate() {
            let gs: f64 = (0..3).map(|c| entry(r, c) * sol[c]).sum();
            prop_assert!((gs - br).abs() / scale < 1e-6, "Gb != r: {} vs {}", gs, br);
        }
    }

    /// An OLS fit of an exactly-linear target recovers its coefficients
    /// within 1e-5.
    #[test]
    fn solve_recovers_planted_model(b0 in -5.0..5.0f64, b1 in -5.0..5.0f64,
                                    xs in prop::collection::vec(-10.0..10.0f64, 5..30)) {
        // Need spread in x for identifiability.
        let spread = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - xs.iter().cloned().fold(f64::INFINITY, f64::min);
        prop_assume!(spread > 0.5);
        let mut acc = GramAccumulator::new(2);
        for &v in &xs {
            acc.push_affine(&[v], b0 + b1 * v);
        }
        let coeffs = acc.solve().unwrap();
        prop_assert!((coeffs[0] - b0).abs() < 1e-5);
        prop_assert!((coeffs[1] - b1).abs() < 1e-5);
    }
}
