//! Slice-level vector arithmetic and Euclidean distances.
//!
//! The paper's Definition 2 defines the `L_p` distance between input vectors
//! (the reproduction fixes `p = 2`, see PAPER.md); Definition 5 defines the
//! query-space similarity
//! `‖q − q'‖₂² = ‖x − x'‖₂² + (θ − θ')²`. These kernels sit on the hot path
//! of both the exact selection operator and the model's winner search, so
//! they are written over plain `&[f64]` with no allocation.

/// Dot product `⟨a, b⟩`.
///
/// # Panics
/// Panics in debug builds if the slices have different lengths.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dot: length mismatch");
    let mut acc = 0.0;
    for (x, y) in a.iter().zip(b.iter()) {
        acc += x * y;
    }
    acc
}

/// Squared Euclidean distance `‖a − b‖₂²`.
#[inline]
pub fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "sq_dist: length mismatch");
    let mut acc = 0.0;
    for (x, y) in a.iter().zip(b.iter()) {
        let d = x - y;
        acc += d * d;
    }
    acc
}

/// Euclidean distance `‖a − b‖₂`.
#[inline]
pub fn l2_dist(a: &[f64], b: &[f64]) -> f64 {
    sq_dist(a, b).sqrt()
}

/// `true` when `‖a − b‖₂² ≤ limit`, bailing out as soon as the running
/// partial sum exceeds `limit`.
///
/// This is the innermost predicate of every radius selection: for
/// non-matching rows (the vast majority of a scan) most coordinates never
/// need to be touched. The accumulation is chunked so the early-exit
/// check costs one branch per four lanes, not one per lane. A NaN
/// difference (or bound) poisons the final `acc <= limit`: a row with a
/// NaN coordinate is never within, which is what lets the indexes file
/// such rows anywhere.
#[inline]
pub fn sq_dist_within(a: &[f64], b: &[f64], limit: f64) -> bool {
    debug_assert_eq!(a.len(), b.len(), "sq_dist_within: length mismatch");
    let mut acc = 0.0;
    let mut ac = a.chunks_exact(4);
    let mut bc = b.chunks_exact(4);
    for (ca, cb) in ac.by_ref().zip(bc.by_ref()) {
        for (x, y) in ca.iter().zip(cb.iter()) {
            let d = x - y;
            acc += d * d;
        }
        if acc > limit {
            return false;
        }
    }
    for (x, y) in ac.remainder().iter().zip(bc.remainder().iter()) {
        let d = x - y;
        acc += d * d;
    }
    acc <= limit
}

/// Squared Euclidean distances of `q` against four consecutive
/// `dim`-strided rows packed in `quad` (`quad.len() == 4 * dim`), with
/// block skipping. The four accumulators advance in lockstep through one
/// loop over the coordinates (4-wide instruction-level parallelism), each
/// performing exactly the additions of a scalar [`sq_dist`] over its row.
/// The loop runs in blocks of eight lanes, and after each block the quad
/// is abandoned when **all four** partial sums already exceed `limit`
/// (squared distances only grow, so every row is guaranteed
/// non-matching). Abandoned accumulators are returned as-is — they are
/// valid for the `≤ limit` test but are not full distances. Rows that
/// pass the test always carry their exact, bit-identical [`sq_dist`]
/// value.
#[inline]
fn sq_dists4_bounded(q: &[f64], quad: &[f64], dim: usize, limit: f64) -> [f64; 4] {
    debug_assert_eq!(
        quad.len(),
        4 * dim,
        "sq_dists4_bounded: quad length mismatch"
    );
    let q = &q[..dim];
    let (r0, rest) = quad.split_at(dim);
    let (r1, rest) = rest.split_at(dim);
    let (r2, r3) = rest.split_at(dim);
    let r3 = &r3[..dim];
    let (mut a0, mut a1, mut a2, mut a3) = (0.0, 0.0, 0.0, 0.0);
    let mut i = 0;
    while i < dim {
        let stop = (i + 8).min(dim);
        while i < stop {
            let qi = q[i];
            let d0 = r0[i] - qi;
            let d1 = r1[i] - qi;
            let d2 = r2[i] - qi;
            let d3 = r3[i] - qi;
            a0 += d0 * d0;
            a1 += d1 * d1;
            a2 += d2 * d2;
            a3 += d3 * d3;
            i += 1;
        }
        // Block skip: once no row can still qualify, the tail coordinates
        // of the whole quad are dead work.
        if a0 > limit && a1 > limit && a2 > limit && a3 > limit {
            break;
        }
    }
    [a0, a1, a2, a3]
}

/// Above this dimensionality the per-row early-exit kernel
/// ([`sq_dist_within`]) beats 4-row batching: most non-matching rows bail
/// out long before touching all coordinates, which the lockstep quad loop
/// cannot do per row.
const BATCH_EARLY_EXIT_DIM: usize = 24;

/// Invoke `visit(r)` for every `dim`-strided row `r` of `rows` with
/// `‖q − row‖₂² ≤ limit`, in ascending row order.
///
/// Low dimensions run the 4-row lockstep kernel with a *block-level* early
/// exit: the quad is abandoned mid-loop only when **all four** partial
/// sums already exceed the bound, so the common dense case pays one branch
/// per eight coordinate blocks rather than one per lane. High dimensions
/// (`> 24`) dispatch to the per-row early-exit kernel, where skipping the
/// tail of a single row dominates. Membership uses the same squared-space
/// contract as [`sq_dist_within`].
pub fn sq_dist_within_batch(
    q: &[f64],
    rows: &[f64],
    dim: usize,
    limit: f64,
    mut visit: impl FnMut(usize),
) {
    debug_assert!(dim > 0, "sq_dist_within_batch: dim must be positive");
    debug_assert_eq!(
        rows.len() % dim,
        0,
        "sq_dist_within_batch: ragged row block"
    );
    if dim > BATCH_EARLY_EXIT_DIM {
        for (r, row) in rows.chunks_exact(dim).enumerate() {
            if sq_dist_within(q, row, limit) {
                visit(r);
            }
        }
        return;
    }
    let mut base = 0usize;
    let mut quads = rows.chunks_exact(4 * dim);
    for quad in quads.by_ref() {
        let [a0, a1, a2, a3] = sq_dists4_bounded(q, quad, dim, limit);
        if a0 <= limit {
            visit(base);
        }
        if a1 <= limit {
            visit(base + 1);
        }
        if a2 <= limit {
            visit(base + 2);
        }
        if a3 <= limit {
            visit(base + 3);
        }
        base += 4;
    }
    for row in quads.remainder().chunks_exact(dim) {
        if sq_dist_within(q, row, limit) {
            visit(base);
        }
        base += 1;
    }
}

/// In-place `a += alpha * b` (the BLAS `axpy` kernel).
#[inline]
pub fn axpy(alpha: f64, b: &[f64], a: &mut [f64]) {
    debug_assert_eq!(a.len(), b.len(), "axpy: length mismatch");
    for (x, y) in a.iter_mut().zip(b.iter()) {
        *x += alpha * y;
    }
}

/// `true` if every component is finite.
#[inline]
pub fn all_finite(a: &[f64]) -> bool {
    a.iter().all(|x| x.is_finite())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_matches_hand_computation() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }

    #[test]
    fn dot_empty_is_zero() {
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    fn l2_dist_pythagorean() {
        assert!((l2_dist(&[0.0, 0.0], &[3.0, 4.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn bounded_kernel_agrees_with_full_distance() {
        // Dimensions straddling the 4-lane chunk boundary.
        for d in [1usize, 2, 3, 4, 5, 7, 8, 9, 13] {
            let a: Vec<f64> = (0..d).map(|i| (i as f64 * 0.7).sin()).collect();
            let b: Vec<f64> = (0..d).map(|i| (i as f64 * 1.3).cos()).collect();
            for limit in [0.0, 0.1, 0.5, 1.0, 2.0, 10.0] {
                assert_eq!(
                    sq_dist_within(&a, &b, limit * limit),
                    sq_dist(&a, &b) <= limit * limit,
                    "sq d={d} limit={limit}"
                );
            }
        }
    }

    #[test]
    fn bounded_kernel_is_inclusive_at_the_boundary() {
        let a = [0.0, 0.0];
        let b = [3.0, 4.0];
        assert!(sq_dist_within(&a, &b, 25.0));
        assert!(!sq_dist_within(&a, &b, 25.0 - 1e-9));
    }

    #[test]
    fn bounded_kernel_rejects_everything_for_negative_limits() {
        let a = [1.0];
        assert!(!sq_dist_within(&a, &a, -1.0));
    }

    /// Deterministic pseudo-random row block (n rows of width d).
    fn row_block(n: usize, d: usize) -> (Vec<f64>, Vec<f64>) {
        let q: Vec<f64> = (0..d).map(|i| (i as f64 * 0.37).sin()).collect();
        let rows: Vec<f64> = (0..n * d).map(|i| (i as f64 * 0.73).cos()).collect();
        (q, rows)
    }

    #[test]
    fn a_nan_coordinate_or_bound_is_within_nothing() {
        let a = [0.0, 0.0, 0.0, 0.0, 0.0];
        for nan_at in 0..a.len() {
            let mut b = a;
            b[nan_at] = f64::NAN;
            for limit in [0.0, 1.0, f64::INFINITY] {
                assert!(!sq_dist_within(&a, &b, limit));
            }
        }
        assert!(!sq_dist_within(&a, &a, f64::NAN));
    }

    #[test]
    fn sq_dist_within_batch_matches_per_row_kernel() {
        for d in [1usize, 2, 4, 7, 9, 24, 25, 40] {
            for n in [0usize, 1, 4, 6, 9] {
                let (q, rows) = row_block(n, d);
                for limit in [0.0, 0.5, 2.0, 5.0, 1e3] {
                    let mut got = Vec::new();
                    sq_dist_within_batch(&q, &rows, d, limit, |r| got.push(r));
                    let want: Vec<usize> = (0..n)
                        .filter(|&r| sq_dist_within(&q, &rows[r * d..(r + 1) * d], limit))
                        .collect();
                    assert_eq!(got, want, "d={d} n={n} limit={limit}");
                }
            }
        }
    }

    #[test]
    fn sq_dist_within_batch_boundary_is_inclusive_in_squared_space() {
        // One row at exact squared distance 25; the contract is `sq ≤ limit`.
        let q = [0.0, 0.0];
        let rows = [3.0, 4.0];
        let mut hits = Vec::new();
        sq_dist_within_batch(&q, &rows, 2, 25.0, |r| hits.push(r));
        assert_eq!(hits, vec![0]);
        hits.clear();
        sq_dist_within_batch(&q, &rows, 2, 25.0 - 1e-9, |r| hits.push(r));
        assert!(hits.is_empty());
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = vec![1.0, 1.0];
        axpy(2.0, &[3.0, -1.0], &mut a);
        assert_eq!(a, vec![7.0, -1.0]);
    }

    #[test]
    fn all_finite_detects_nan_and_inf() {
        assert!(all_finite(&[1.0, 2.0]));
        assert!(!all_finite(&[1.0, f64::NAN]));
        assert!(!all_finite(&[f64::INFINITY]));
    }
}
