//! The one least-squares solve: the normal equations `G b = r` of a Gram
//! matrix given by its packed lower triangle.
//!
//! Both exact least-squares baselines reduce to it. Per-query `REG` folds
//! its Gram state during the data scan ([`crate::gram::GramAccumulator`])
//! and hands that triangle over; MARS (`PLR`) builds one triangle per
//! basis subset from its cached columns. No design matrix is ever formed.
//!
//! The solve is Cholesky, then one retry with a small ridge on the
//! diagonal when a pivot falls to the noise level, as it does for a
//! collinear selection (a repeated or constant feature, fewer rows than
//! columns). A system the ridge cannot rescue is a typed
//! [`LinalgError::NotPositiveDefinite`]: `λ = ridge · mean diag(G)` is at
//! least `ridge / n` of the largest diagonal entry and lifts every
//! eigenvalue of a positive semi-definite `G` to `≥ λ`, which for the
//! engines' ridges and at most a few dozen columns lies above both the
//! pivot tolerance and the rounding of the factor. A failed retry
//! therefore means an indefinite input, not a collinear Gram matrix.

use crate::error::LinalgError;
use crate::vector;

/// Index of entry `(r, c)`, `c ≤ r`, in a packed lower triangle stored
/// row by row.
#[inline]
fn packed(r: usize, c: usize) -> usize {
    r * (r + 1) / 2 + c
}

/// Solve `G b = rhs` for the symmetric `G` whose lower triangle `lower`
/// holds, packed row by row: entry `(r, c)`, `c ≤ r`, at `r(r+1)/2 + c` —
/// the layout [`crate::gram::GramAccumulator`] folds.
///
/// Cholesky first. When a pivot falls to `≤ 1e-13 · max |diag|` (or is
/// not finite), one retry factors `G + λI` with
/// `λ = ridge · mean diag(G)`.
///
/// # Errors
/// * [`LinalgError::Empty`] for a system with no column.
/// * [`LinalgError::NonFinite`] if `lower` holds a NaN or an infinity.
/// * [`LinalgError::NotPositiveDefinite`] if the ridged retry fails too.
///
/// # Panics
/// Panics if `lower` does not hold `n(n+1)/2` entries for the `n` of
/// `rhs.len()`: a ragged triangle is a caller bug.
pub fn solve_normal_equations(
    lower: &[f64],
    rhs: &[f64],
    ridge: f64,
) -> Result<Vec<f64>, LinalgError> {
    let n = rhs.len();
    assert_eq!(
        lower.len(),
        packed(n, 0),
        "solve_normal_equations: a packed triangle of {n} columns"
    );
    if n == 0 {
        return Err(LinalgError::Empty);
    }
    if !vector::all_finite(lower) {
        return Err(LinalgError::NonFinite {
            location: "solve_normal_equations: Gram triangle",
        });
    }
    let l = match factor(lower, n) {
        Err(LinalgError::NotPositiveDefinite { .. }) => {
            let mean_diag = (0..n).map(|i| lower[packed(i, i)]).sum::<f64>() / n as f64;
            // The floor keeps `λ` positive on an all-zero diagonal. It never
            // binds for the engines' systems: each carries the intercept
            // column, whose diagonal entry is the row count, so
            // `mean diag ≥ 1/n`.
            let lambda = (mean_diag * ridge).max(f64::MIN_POSITIVE);
            let mut ridged = lower.to_vec();
            for i in 0..n {
                ridged[packed(i, i)] += lambda;
            }
            factor(&ridged, n)?
        }
        factored => factored?,
    };
    Ok(substitute(&l, rhs))
}

/// The packed lower Cholesky factor `L` of `A = L·Lᵀ`, column by column.
fn factor(a: &[f64], n: usize) -> Result<Vec<f64>, LinalgError> {
    let max_diag = (0..n).map(|i| a[packed(i, i)].abs()).fold(0.0, f64::max);
    // A pivot at the noise level is a failure, so the caller can retry
    // with the ridge.
    let tol = max_diag * 1e-13;
    let mut l = vec![0.0; a.len()];
    for j in 0..n {
        let row_j = packed(j, 0);
        let mut diag = a[packed(j, j)];
        for &ljk in &l[row_j..row_j + j] {
            diag -= ljk * ljk;
        }
        if diag <= tol || !diag.is_finite() {
            return Err(LinalgError::NotPositiveDefinite {
                pivot: j,
                value: diag,
            });
        }
        let ljj = diag.sqrt();
        l[packed(j, j)] = ljj;
        for i in (j + 1)..n {
            let row_i = packed(i, 0);
            let mut v = a[row_i + j];
            for (&lik, &ljk) in l[row_i..row_i + j].iter().zip(&l[row_j..row_j + j]) {
                v -= lik * ljk;
            }
            l[row_i + j] = v / ljj;
        }
    }
    Ok(l)
}

/// Solve `L·Lᵀ x = b`: forward substitution `L y = b`, then backward
/// `Lᵀ x = y`, both in place in one buffer.
fn substitute(l: &[f64], b: &[f64]) -> Vec<f64> {
    let n = b.len();
    let mut x = b.to_vec();
    for i in 0..n {
        let row_i = packed(i, 0);
        let mut v = x[i];
        for (&lik, &yk) in l[row_i..row_i + i].iter().zip(&x[..i]) {
            v -= lik * yk;
        }
        x[i] = v / l[row_i + i];
    }
    for i in (0..n).rev() {
        let mut v = x[i];
        for (k, &xk) in x.iter().enumerate().skip(i + 1) {
            v -= l[packed(k, i)] * xk;
        }
        x[i] = v / l[packed(i, i)];
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gram::GramAccumulator;

    #[test]
    fn identity_system_returns_its_right_hand_side() {
        let b = solve_normal_equations(&[1.0, 0.0, 1.0], &[3.0, -4.0], 1e-8).unwrap();
        assert_eq!(b, [3.0, -4.0]);
    }

    #[test]
    fn singular_gram_falls_back_to_the_ridge() {
        // Rank-1 Gram (duplicated column): plain Cholesky fails ...
        let lower = [2.0, 2.0, 2.0];
        assert!(matches!(
            solve_normal_equations(&lower, &[1.0, 1.0], 0.0),
            Err(LinalgError::NotPositiveDefinite { pivot: 1, .. })
        ));
        // ... and the ridged retry splits the weight across the twins.
        let b = solve_normal_equations(&lower, &[1.0, 1.0], 1e-8).unwrap();
        assert!((b[0] + b[1] - 0.5).abs() < 1e-4, "{b:?}");
    }

    #[test]
    fn indefinite_system_is_a_typed_error() {
        // Eigenvalues 3 and -1: no small ridge rescues it.
        assert!(matches!(
            solve_normal_equations(&[1.0, 2.0, 1.0], &[0.0, 0.0], 1e-8),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn non_finite_gram_is_an_error() {
        assert!(matches!(
            solve_normal_equations(&[1.0, f64::NAN, 1.0], &[0.0, 0.0], 1e-8),
            Err(LinalgError::NonFinite { .. })
        ));
    }

    #[test]
    fn empty_system_is_an_error() {
        assert!(matches!(
            solve_normal_equations(&[], &[], 1e-8),
            Err(LinalgError::Empty)
        ));
    }

    #[test]
    #[should_panic(expected = "packed triangle")]
    fn ragged_triangle_panics() {
        let _ = solve_normal_equations(&[1.0, 0.0], &[0.0, 0.0], 1e-8);
    }

    fn bits(b: &[f64]) -> Vec<u64> {
        b.iter().map(|v| v.to_bits()).collect()
    }

    /// The solve's operation order, pinned: the coefficient bits of two
    /// four-feature [`GramAccumulator`] fits over the same 40 rows, as
    /// recorded from the dense-matrix Cholesky this solve replaced. The
    /// second design repeats its first feature, so its Gram matrix is
    /// singular and its answer comes from the ridged retry. Reversing any
    /// of the factor's or the substitutions' inner loops, or dividing by
    /// a pivot as a product with its reciprocal, changes both answers.
    #[test]
    fn ols_coefficients_keep_their_literal_bits() {
        let mut plane = GramAccumulator::new(5);
        let mut twins = GramAccumulator::new(5);
        for i in 0..40 {
            let x1 = i as f64 * 0.1;
            let x2 = ((i * 7) % 11) as f64 / 10.0 - 0.5;
            let x3 = ((i * 5) % 13) as f64 / 13.0;
            let x4 = ((i * 3) % 7) as f64 / 7.0 - 0.25;
            let noise = ((i * 3) % 5) as f64 / 40.0;
            let u = 1.0 + 2.0 * x1 - 0.5 * x2 + 0.25 * x3 - x4 + noise;
            plane.push_affine(&[x1, x2, x3, x4], u);
            let noise = ((i * 5) % 7) as f64 / 20.0;
            twins.push_affine(&[x1, x2, x1, x3], 1.0 + 3.0 * x1 - x2 + 0.5 * x3 + noise);
        }
        assert_eq!(
            bits(&plane.solve().unwrap()),
            [
                0x3ff0_e689_b4d8_ebe5,
                0x4000_0370_582a_8fa7,
                0xbfdf_3331_8d18_32c8,
                0x3fcd_4732_9039_90bd,
                0xbff0_0127_8c20_f5c4
            ]
        );
        assert_eq!(
            bits(&twins.solve().unwrap()),
            [
                0x3ff2_2cfc_54dc_339f,
                0x3ff8_0912_0902_31b4,
                0xbff0_644f_0ec6_5604,
                0x3ff8_0912_06f8_b345,
                0x3fe0_642e_baef_37a4
            ]
        );
    }
}
