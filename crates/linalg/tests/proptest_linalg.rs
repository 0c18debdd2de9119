//! Property-based tests for the linear-algebra substrate.

use proptest::prelude::*;
use regq_linalg::vector::l2_dist;
use regq_linalg::{lstsq, Cholesky, Matrix, QrFactorization};

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

    /// Cholesky of X'X + I always succeeds and reconstructs the input.
    #[test]
    fn cholesky_reconstructs_spd(rows in prop::collection::vec(finite_vec(3), 3..8)) {
        let x = Matrix::from_rows(&rows).unwrap();
        let mut g = x.gram();
        // Shift far from singularity so the property is about reconstruction,
        // not conditioning.
        let shift = 1.0 + g.as_slice().iter().fold(0.0f64, |m, v| m.max(v.abs())) * 1e-10;
        g.add_diagonal(shift);
        let ch = Cholesky::factor(&g).unwrap();
        let recon = ch.l().matmul(&ch.l().transpose()).unwrap();
        let scale = g.as_slice().iter().fold(1.0f64, |m, v| m.max(v.abs()));
        prop_assert!(g.max_abs_diff(&recon).unwrap() / scale < 1e-9);
    }

    /// Cholesky solve actually solves the system.
    #[test]
    fn cholesky_solve_residual_is_small(rows in prop::collection::vec(finite_vec(3), 3..8),
                                        b in finite_vec(3)) {
        let x = Matrix::from_rows(&rows).unwrap();
        let mut g = x.gram();
        g.add_diagonal(1.0);
        let ch = Cholesky::factor(&g).unwrap();
        let sol = ch.solve(&b).unwrap();
        let gs = g.matvec(&sol).unwrap();
        let scale = 1.0 + b.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        for (l, r) in gs.iter().zip(b.iter()) {
            prop_assert!((l - r).abs() / scale < 1e-6);
        }
    }

    /// QR least squares leaves a residual orthogonal to the design columns.
    #[test]
    fn qr_normal_equations_hold(xs in prop::collection::vec(-10.0..10.0f64, 6..20),
                                ys in prop::collection::vec(-10.0..10.0f64, 6..20)) {
        let n = xs.len().min(ys.len());
        let rows: Vec<Vec<f64>> = xs[..n].iter().map(|&v| vec![1.0, v, v * v]).collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let qr = QrFactorization::factor(&x).unwrap();
        // Skip degenerate designs (e.g. all xs equal).
        if qr.rank(1e-8) < 3 {
            return Ok(());
        }
        let beta = qr.solve(&ys[..n]).unwrap();
        let pred = x.matvec(&beta).unwrap();
        let resid: Vec<f64> = ys[..n].iter().zip(pred.iter()).map(|(a, p)| a - p).collect();
        let atr = x.t_matvec(&resid).unwrap();
        let scale = 1.0 + ys[..n].iter().fold(0.0f64, |m, v| m.max(v.abs()));
        for v in atr {
            prop_assert!(v.abs() / (scale * n as f64) < 1e-6, "A'r = {v}");
        }
    }

    /// lstsq on an exactly-linear target recovers coefficients within 1e-6.
    #[test]
    fn lstsq_recovers_planted_model(b0 in -5.0..5.0f64, b1 in -5.0..5.0f64,
                                    xs in prop::collection::vec(-10.0..10.0f64, 5..30)) {
        // Need spread in x for identifiability.
        let spread = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - xs.iter().cloned().fold(f64::INFINITY, f64::min);
        prop_assume!(spread > 0.5);
        let rows: Vec<Vec<f64>> = xs.iter().map(|&v| vec![1.0, v]).collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let y: Vec<f64> = xs.iter().map(|&v| b0 + b1 * v).collect();
        let sol = lstsq(&x, &y).unwrap();
        prop_assert!((sol.coeffs[0] - b0).abs() < 1e-5);
        prop_assert!((sol.coeffs[1] - b1).abs() < 1e-5);
    }
}
