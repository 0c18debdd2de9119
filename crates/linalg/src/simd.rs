//! Runtime-dispatched SIMD distance kernels over the **AoSoA**
//! (quad-interleaved) center layout.
//!
//! The plain struct-of-arrays kernels ([`crate::vector::sq_dists4`]) keep
//! four per-row accumulators in lockstep and rely on the compiler to map
//! them onto vector registers. That mapping needs a transpose of each
//! 4-row tile on every load, which the autovectorizer only performs
//! profitably when AVX2 is assumed at compile time — the old
//! `target-cpu=x86-64-v3` build flag. This module removes that
//! assumption:
//!
//! * **AoSoA layout.** A quad of four rows is stored coordinate-major —
//!   `quad[4·c + j]` is coordinate `c` of row `j` — so the four lanes of
//!   one coordinate are contiguous and a 256-bit load needs no shuffle.
//! * **Runtime dispatch.** [`winner_overlap_block_aosoa`] (the serving
//!   kernel: one dispatch per block of up to `tune::ROW_TILE` rows),
//!   [`within_mask_aosoa`] (the store's kd-tree leaf kernel: one dispatch
//!   per leaf, a ball-membership bit per row) and [`sq_dists4_aosoa`]
//!   (one quad) consult
//!   `is_x86_feature_detected!("avx2")` (a cached atomic load after the
//!   first call) and route to a hand-written AVX2 kernel when available,
//!   falling back to a scalar twin otherwise. Release binaries are
//!   therefore portable to any x86-64 (and any other architecture) while
//!   still running 4-lane f64 SIMD on 2013+ hardware.
//!
//! **Bit-identity contract.** Both the scalar and the AVX2 kernels give
//! each row its own accumulator and add the squared coordinate
//! differences in coordinate order — exactly the operation sequence of a
//! scalar [`crate::vector::sq_dist`] per row. The AVX2 path uses separate
//! multiply and add instructions (never FMA, which would skip the
//! intermediate rounding), so all forms agree bit for bit — pinned by the
//! tests below, by the serving equivalence batteries in `regq_core` and by
//! `regq_store`'s `kd_leaf_equivalence` battery.

use crate::tune::QUAD;
use crate::vector::resolve_quad;

/// `true` when the AVX2 fast path is available on this host. The
/// detection macro caches its CPUID result internally, so this is an
/// atomic load plus a bit test after the first call. Under Miri the
/// detection macro (and the intrinsics behind the fast path) are
/// unsupported, so the scalar kernel is pinned unconditionally — the
/// `screening_` batteries then run fully under the interpreter.
#[inline]
pub fn avx2_available() -> bool {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(all(target_arch = "x86_64", not(miri))))]
    {
        false
    }
}

/// Repack `dim`-strided rows (row-major, a multiple of [`QUAD`] rows)
/// into the AoSoA layout: per quad of four rows, coordinates interleave
/// as `[r0[c], r1[c], r2[c], r3[c]]` for `c = 0..dim`. Output is
/// appended to `out` (cleared first).
///
/// # Panics
/// Panics in debug builds when the row count is not a multiple of
/// [`QUAD`] (callers pad first) or the block is ragged.
pub fn pack_quads_aosoa(rows: &[f64], dim: usize, out: &mut Vec<f64>) {
    debug_assert!(dim > 0, "pack_quads_aosoa: dim must be positive");
    debug_assert_eq!(rows.len() % dim, 0, "pack_quads_aosoa: ragged row block");
    debug_assert_eq!(
        (rows.len() / dim) % QUAD,
        0,
        "pack_quads_aosoa: row count must be a multiple of QUAD (pad first)"
    );
    out.clear();
    out.reserve(rows.len());
    for quad in rows.chunks_exact(QUAD * dim) {
        let (r0, rest) = quad.split_at(dim);
        let (r1, rest) = rest.split_at(dim);
        let (r2, r3) = rest.split_at(dim);
        for c in 0..dim {
            out.push(r0[c]);
            out.push(r1[c]);
            out.push(r2[c]);
            out.push(r3[c]);
        }
    }
}

/// Offset of coordinate 0 of row `r` in an AoSoA block of dimension
/// `dim`; coordinate `c` of that row sits `QUAD * c` further on.
#[inline]
fn aosoa_row_base(r: usize, dim: usize) -> usize {
    r / QUAD * QUAD * dim + r % QUAD
}

/// Store `row` as row `r` of an AoSoA block of dimension `row.len()`
/// (lane `r % 4` of quad `r / 4`, layout per [`pack_quads_aosoa`]) — the
/// row-at-a-time packer for blocks too large to stage row-major first.
///
/// # Panics
/// Panics when quad `r / 4` lies outside `quads`.
#[inline]
pub fn aosoa_set_row(quads: &mut [f64], r: usize, row: &[f64]) {
    let base = aosoa_row_base(r, row.len());
    for (c, &v) in row.iter().enumerate() {
        quads[base + QUAD * c] = v;
    }
}

/// Copy row `r` of an AoSoA block of dimension `out.len()` into `out` —
/// the inverse of [`aosoa_set_row`], bit for bit.
///
/// # Panics
/// Panics when quad `r / 4` lies outside `quads`.
#[inline]
pub fn aosoa_row_into(quads: &[f64], r: usize, out: &mut [f64]) {
    let base = aosoa_row_base(r, out.len());
    for (c, v) in out.iter_mut().enumerate() {
        *v = quads[base + QUAD * c];
    }
}

/// Squared Euclidean distances of `q` against the four rows of one AoSoA
/// quad (`quad.len() == 4 * q.len()`, layout per [`pack_quads_aosoa`]).
///
/// Bit-identical to [`crate::vector::sq_dists4`] on the same four rows in
/// row-major layout (see the module docs for the contract); dispatches to
/// AVX2 at runtime when available.
#[inline]
pub fn sq_dists4_aosoa(q: &[f64], quad: &[f64]) -> [f64; 4] {
    debug_assert_eq!(
        quad.len(),
        QUAD * q.len(),
        "sq_dists4_aosoa: quad length mismatch"
    );
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: AVX2 availability was verified by the runtime check on
        // the line above, which is the only precondition of the
        // `#[target_feature(enable = "avx2")]` kernel.
        return unsafe { sq_dists4_aosoa_avx2(q, quad) };
    }
    sq_dists4_aosoa_scalar(q, quad)
}

/// Portable scalar form of [`sq_dists4_aosoa`]: four independent
/// accumulators, coordinate-ordered additions — the reference operation
/// sequence the AVX2 kernel must replay.
#[inline]
fn sq_dists4_aosoa_scalar(q: &[f64], quad: &[f64]) -> [f64; 4] {
    let (mut a0, mut a1, mut a2, mut a3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    for (lane, &qc) in quad.chunks_exact(QUAD).zip(q.iter()) {
        let d0 = lane[0] - qc;
        let d1 = lane[1] - qc;
        let d2 = lane[2] - qc;
        let d3 = lane[3] - qc;
        a0 += d0 * d0;
        a1 += d1 * d1;
        a2 += d2 * d2;
        a3 += d3 * d3;
    }
    [a0, a1, a2, a3]
}

/// AVX2 form of [`sq_dists4_aosoa`]: [`quad_sq_dists_avx2`], stored.
///
/// # Safety
/// The caller must ensure the host supports AVX2 (checked via
/// [`avx2_available`] at the dispatch site).
// SAFETY: `unsafe fn` solely for `#[target_feature]`; the body's only
// unchecked operations are the call below, whose contract is the
// caller's, and the store justified at its site.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn sq_dists4_aosoa_avx2(q: &[f64], quad: &[f64]) -> [f64; 4] {
    let acc = quad_sq_dists_avx2(q, quad);
    let mut out = [0.0f64; 4];
    // SAFETY: `out` is exactly four f64s and the unaligned store has no
    // alignment requirement.
    std::arch::x86_64::_mm256_storeu_pd(out.as_mut_ptr(), acc);
    out
}

/// The four squared distances of one AoSoA quad, left in a vector
/// register: one 256-bit lane vector per coordinate, subtract a broadcast
/// of `q[c]`, then separate multiply and add (**no FMA** — fusing would
/// skip the product rounding and break bit-identity with the scalar
/// kernels). Per lane this performs exactly the scalar kernel's operation
/// sequence, so results agree bit for bit.
///
/// # Safety
/// The caller must ensure the host supports AVX2 and that
/// `quad.len() == 4 * q.len()`.
// SAFETY: `unsafe fn` for `#[target_feature]` and the unchecked loads
// justified at their site; both callers are AVX2 kernels that pass a quad
// of exactly `4 * q.len()` floats.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn quad_sq_dists_avx2(q: &[f64], quad: &[f64]) -> std::arch::x86_64::__m256d {
    use std::arch::x86_64::{
        _mm256_add_pd, _mm256_loadu_pd, _mm256_mul_pd, _mm256_set1_pd, _mm256_setzero_pd,
        _mm256_sub_pd,
    };
    debug_assert_eq!(quad.len(), QUAD * q.len());
    let mut acc = _mm256_setzero_pd();
    for (c, &qc) in q.iter().enumerate() {
        // SAFETY: `quad.len() == 4 * q.len()` (this function's contract),
        // so the 4-wide unaligned load at offset `4 * c` is in bounds for
        // every `c < q.len()`.
        let lanes = _mm256_loadu_pd(quad.as_ptr().add(QUAD * c));
        let d = _mm256_sub_pd(lanes, _mm256_set1_pd(qc));
        acc = _mm256_add_pd(acc, _mm256_mul_pd(d, d));
    }
    acc
}

/// Most quads one [`within_mask_aosoa`] call can cover: one mask bit per
/// row of a `u64`.
pub const MASK_QUADS: usize = 64 / QUAD;

/// Ball-membership mask of one query over a run of **AoSoA** quads: bit
/// `4·k + j` of the result is set iff row `j` of quad `k` satisfies
/// `‖row − q‖₂² ≤ limit`.
///
/// This is the leaf kernel of the store's kd-tree: per row it performs
/// exactly the operation sequence of a scalar
/// [`crate::vector::sq_dist`] (see the module docs), then one ordered
/// `≤` — so a row's bit equals `sq_dist(row, q) <= limit`, the
/// squared-space membership contract of
/// [`crate::vector::sq_dist_within`]. A NaN distance compares false
/// (bit clear), like the scalar `<=`. The kernel has no notion of a
/// "valid" row: callers that run it over lanes they do not own (a
/// neighbouring leaf's rows, `+inf` pad rows) trim those bits from the
/// mask, which is what makes such lanes inert whatever they compare to.
///
/// # Panics
/// Panics on an empty query, a `quads` length that is not a whole number
/// of quads of dimension `q.len()`, or more than [`MASK_QUADS`] quads
/// (the AVX2 loads and the mask width rely on these).
#[inline]
pub fn within_mask_aosoa(q: &[f64], quads: &[f64], limit: f64) -> u64 {
    assert!(!q.is_empty(), "within_mask_aosoa: dim must be positive");
    assert_eq!(
        quads.len() % (QUAD * q.len()),
        0,
        "within_mask_aosoa: ragged quad block"
    );
    assert!(
        quads.len() <= MASK_QUADS * QUAD * q.len(),
        "within_mask_aosoa: more than MASK_QUADS quads"
    );
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: AVX2 availability was verified by the runtime check on
        // the line above, and the asserts establish the shape contract
        // (non-empty `q`, whole quads of dimension `q.len()`, at most 16
        // of them) the kernel's loads and shifts rely on.
        return unsafe { within_mask_aosoa_avx2(q, quads, limit) };
    }
    within_mask_aosoa_scalar(q, quads, limit)
}

/// Portable scalar twin of [`within_mask_aosoa`] — the reference
/// operation sequence the AVX2 kernel must replay, and the kernel that
/// runs under Miri and on non-AVX2 hosts.
fn within_mask_aosoa_scalar(q: &[f64], quads: &[f64], limit: f64) -> u64 {
    let mut mask = 0u64;
    for (k, quad) in quads.chunks_exact(QUAD * q.len()).enumerate() {
        for (j, sq) in sq_dists4_aosoa_scalar(q, quad).into_iter().enumerate() {
            mask |= u64::from(sq <= limit) << (QUAD * k + j);
        }
    }
    mask
}

/// AVX2 form of [`within_mask_aosoa`]: [`quad_sq_dists_avx2`] per quad,
/// then one ordered non-signalling `≤` against the broadcast limit and a
/// `movemask` — four membership bits per quad without leaving the vector
/// registers.
///
/// # Safety
/// The caller must ensure the host supports AVX2, that `q` is non-empty
/// and that `quads` holds at most 16 whole quads of dimension `q.len()`
/// (all checked at the dispatch site).
// SAFETY: `unsafe fn` solely for `#[target_feature]`; the body's only
// unchecked operation is the per-quad call below, and the single caller
// verifies AVX2 and the shape contract before dispatching here.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn within_mask_aosoa_avx2(q: &[f64], quads: &[f64], limit: f64) -> u64 {
    use std::arch::x86_64::{_mm256_cmp_pd, _mm256_movemask_pd, _mm256_set1_pd, _CMP_LE_OQ};
    let lim = _mm256_set1_pd(limit);
    let mut mask = 0u64;
    for (k, quad) in quads.chunks_exact(QUAD * q.len()).enumerate() {
        // SAFETY: `quad` is a `chunks_exact(4 * q.len())` chunk — the
        // length `quad_sq_dists_avx2` requires.
        let acc = quad_sq_dists_avx2(q, quad);
        // Ordered, non-signalling compare: a NaN lane is false, exactly
        // like the scalar `<=`. `movemask` yields the four sign bits in
        // lane order (0..=15), and `k < 16`, so the shift stays in range.
        let hit = _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_LE_OQ>(acc, lim));
        mask |= (hit as u64) << (QUAD * k);
    }
    mask
}

/// Fused winner-and-overlap kernel for one query over a whole **AoSoA**
/// block — centers quad-interleaved ([`pack_quads_aosoa`]), the runtime
/// dispatch paid **once per block**. Per row it computes the squared
/// center distance, the squared joint distance
/// `‖c − q‖² + (θ_q − θ_k)²` and the two compares — strict `<` against the
/// running best (ties keep the lowest row), `≤ (θ_q + θ_k)²` for overlap
/// membership — consuming each distance **in registers**; only a quad in
/// which some compare fires reaches the scalar winner scan / root +
/// degree + push (`resolve_quad`). Per row the additions are exactly a
/// scalar [`crate::vector::sq_dist`]'s in the same order (see the module
/// docs), so `(best, hits)` equal what a row-at-a-time scalar pass over
/// the same rows produces, bit for bit — the serving path's side of the
/// bit-identity contract.
///
/// `quads` holds `radii.len() / 4` AoSoA quads of dimension `q.len()`;
/// the row count must be a multiple of 4 — callers pad partial quads with
/// `+inf` centers (and any finite radius), which can never win the
/// strict-`<` update nor pass the membership test, so pad rows are inert.
///
/// `base` is the caller-space index of the first row: winner indices and
/// membership entries come out as `base + row`, in ascending row order.
/// `best` carries the running winner in and out (seed with
/// `(0, f64::INFINITY)`). Seeding `best` with
/// `(sentinel, bound.next_up())` turns the strict `<` into "first row
/// with `joint ≤ bound`, else the sentinel index is left in place".
///
/// # Panics
/// Panics on an empty query, a row count that is not a multiple of 4, or
/// `quads`/`radii` length disagreement (the AVX2 loads rely on these).
#[inline]
pub fn winner_overlap_block_aosoa(
    q: &[f64],
    q_radius: f64,
    quads: &[f64],
    radii: &[f64],
    base: usize,
    best: &mut (usize, f64),
    hits: &mut Vec<(usize, f64)>,
) {
    assert!(
        !q.is_empty(),
        "winner_overlap_block_aosoa: dim must be positive"
    );
    assert_eq!(
        radii.len() % QUAD,
        0,
        "winner_overlap_block_aosoa: row count must be a multiple of QUAD (pad first)"
    );
    assert_eq!(
        quads.len(),
        radii.len() * q.len(),
        "winner_overlap_block_aosoa: quads/radii length mismatch"
    );
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: AVX2 availability was verified by the runtime check on
        // the line above, and the three asserts establish the shape
        // contract (`quads.len() == radii.len() * q.len()`, whole quads)
        // the kernel's loads rely on.
        return unsafe {
            winner_overlap_block_aosoa_avx2(q, q_radius, quads, radii, base, best, hits)
        };
    }
    winner_overlap_block_aosoa_scalar(q, q_radius, quads, radii, base, best, hits);
}

/// Portable scalar twin of [`winner_overlap_block_aosoa`] — the reference
/// operation sequence the AVX2 kernel must replay, and the kernel that
/// runs under Miri and on non-AVX2 hosts.
fn winner_overlap_block_aosoa_scalar(
    q: &[f64],
    q_radius: f64,
    quads: &[f64],
    radii: &[f64],
    base: usize,
    best: &mut (usize, f64),
    hits: &mut Vec<(usize, f64)>,
) {
    let (mut best_k, mut best_sq) = *best;
    let mut k = base;
    for (quad, r) in quads
        .chunks_exact(QUAD * q.len())
        .zip(radii.chunks_exact(QUAD))
    {
        let sq = sq_dists4_aosoa_scalar(q, quad);
        resolve_quad(sq, r, q_radius, k, &mut best_k, &mut best_sq, hits);
        k += QUAD;
    }
    *best = (best_k, best_sq);
}

/// AVX2 form of [`winner_overlap_block_aosoa`]: per quad the distance
/// accumulator, the joint distance and both compares stay in 256-bit
/// registers (separate multiply and add, **no FMA**, as in
/// [`sq_dists4_aosoa_avx2`]); a `movemask` of the OR-ed compare lanes
/// decides whether the quad is spilled to the scalar `resolve_quad`, which
/// recomputes the same compares with the same operations and so takes
/// exactly the decisions the scalar twin takes.
///
/// # Safety
/// The caller must ensure the host supports AVX2, that `q` is non-empty,
/// that `radii.len()` is a multiple of 4 and that
/// `quads.len() == radii.len() * q.len()` (all checked at the dispatch
/// site).
// SAFETY: `unsafe fn` solely for `#[target_feature]`; the body's only
// unchecked operations are the unaligned loads and stores justified at
// their sites, and the single caller verifies AVX2 and the shape contract
// before dispatching here.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn winner_overlap_block_aosoa_avx2(
    q: &[f64],
    q_radius: f64,
    quads: &[f64],
    radii: &[f64],
    base: usize,
    best: &mut (usize, f64),
    hits: &mut Vec<(usize, f64)>,
) {
    use std::arch::x86_64::{
        _mm256_add_pd, _mm256_cmp_pd, _mm256_loadu_pd, _mm256_movemask_pd, _mm256_mul_pd,
        _mm256_or_pd, _mm256_set1_pd, _mm256_setzero_pd, _mm256_storeu_pd, _mm256_sub_pd,
        _CMP_LE_OQ, _CMP_LT_OQ,
    };
    let (mut best_k, mut best_sq) = *best;
    let mut k = base;
    let qr = _mm256_set1_pd(q_radius);
    let mut best_v = _mm256_set1_pd(best_sq);
    for (quad, r) in quads
        .chunks_exact(QUAD * q.len())
        .zip(radii.chunks_exact(QUAD))
    {
        let mut acc = _mm256_setzero_pd();
        for (c, &qc) in q.iter().enumerate() {
            // SAFETY: `quad` is a `chunks_exact(4 * q.len())` chunk, so
            // the 4-wide unaligned load at offset `4 * c` is in bounds
            // for every `c < q.len()`.
            let lanes = _mm256_loadu_pd(quad.as_ptr().add(QUAD * c));
            let d = _mm256_sub_pd(lanes, _mm256_set1_pd(qc));
            acc = _mm256_add_pd(acc, _mm256_mul_pd(d, d));
        }
        // SAFETY: `r` is a `chunks_exact(4)` chunk — exactly four f64s.
        let rv = _mm256_loadu_pd(r.as_ptr());
        let dr = _mm256_sub_pd(qr, rv);
        let joint = _mm256_add_pd(acc, _mm256_mul_pd(dr, dr));
        let rs = _mm256_add_pd(qr, rv);
        // Ordered, non-signalling compares: a NaN lane is false in both,
        // exactly like the scalar `<` / `<=`.
        let better = _mm256_cmp_pd::<_CMP_LT_OQ>(joint, best_v);
        let hit = _mm256_cmp_pd::<_CMP_LE_OQ>(acc, _mm256_mul_pd(rs, rs));
        if _mm256_movemask_pd(_mm256_or_pd(better, hit)) != 0 {
            let mut sq = [0.0f64; QUAD];
            // SAFETY: `sq` is exactly four f64s and the unaligned store
            // has no alignment requirement.
            _mm256_storeu_pd(sq.as_mut_ptr(), acc);
            resolve_quad(sq, r, q_radius, k, &mut best_k, &mut best_sq, hits);
            best_v = _mm256_set1_pd(best_sq);
        }
        k += QUAD;
    }
    *best = (best_k, best_sq);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector;

    /// Deterministic pseudo-random block (n rows of width dim).
    fn random_rows(n: usize, dim: usize, seed: u64) -> Vec<f64> {
        (0..n * dim)
            .map(|i| ((i as f64 + seed as f64 * 0.61) * 0.83).sin() * 5.0)
            .collect()
    }

    #[test]
    fn pack_round_trips_coordinates() {
        let rows = random_rows(8, 3, 1);
        let mut aosoa = vec![999.0];
        pack_quads_aosoa(&rows, 3, &mut aosoa);
        assert_eq!(aosoa.len(), rows.len());
        for quad in 0..2 {
            for j in 0..4 {
                for c in 0..3 {
                    assert_eq!(
                        aosoa[quad * 12 + 4 * c + j],
                        rows[(quad * 4 + j) * 3 + c],
                        "quad {quad} row {j} coord {c}"
                    );
                }
            }
        }
    }

    #[test]
    fn aosoa_distances_are_bit_identical_to_row_major_kernels() {
        for dim in [1usize, 2, 3, 4, 5, 7, 8, 11, 24] {
            let rows = random_rows(4, dim, 10 + dim as u64);
            let q = random_rows(1, dim, 90 + dim as u64);
            let mut aosoa = Vec::new();
            pack_quads_aosoa(&rows, dim, &mut aosoa);
            let want = vector::sq_dists4(&q, &rows, dim);
            let got = sq_dists4_aosoa(&q, &aosoa);
            for j in 0..4 {
                assert_eq!(
                    got[j].to_bits(),
                    want[j].to_bits(),
                    "dim {dim} lane {j}: {} vs {}",
                    got[j],
                    want[j]
                );
                assert_eq!(
                    got[j].to_bits(),
                    vector::sq_dist(&q, &rows[j * dim..(j + 1) * dim]).to_bits()
                );
            }
        }
    }

    #[test]
    fn dispatch_agrees_with_the_scalar_reference() {
        // On AVX2 hosts this pins the SIMD kernel against the scalar one;
        // elsewhere it is a self-comparison (still exercises dispatch).
        for dim in [1usize, 3, 4, 6, 16, 33] {
            let rows = random_rows(4, dim, 300 + dim as u64);
            let q = random_rows(1, dim, 400 + dim as u64);
            let mut aosoa = Vec::new();
            pack_quads_aosoa(&rows, dim, &mut aosoa);
            let scalar = sq_dists4_aosoa_scalar(&q, &aosoa);
            let dispatched = sq_dists4_aosoa(&q, &aosoa);
            for j in 0..4 {
                assert_eq!(dispatched[j].to_bits(), scalar[j].to_bits(), "dim {dim}");
            }
        }
    }

    #[test]
    fn infinite_pad_rows_stay_inert_not_nan() {
        // The pruned serving layout pads partial quads with +inf centers;
        // a finite query against such a row must give +inf (never NaN).
        let rows = [1.0, 2.0, f64::INFINITY, f64::INFINITY, 3.0, -1.0];
        let mut padded = rows.to_vec();
        padded.extend_from_slice(&[f64::INFINITY; 2]);
        let mut aosoa = Vec::new();
        pack_quads_aosoa(&padded, 2, &mut aosoa);
        let got = sq_dists4_aosoa(&[0.5, 0.5], &aosoa);
        assert!(got[0].is_finite());
        assert_eq!(got[1], f64::INFINITY);
        assert!(got[2].is_finite());
        assert_eq!(got[3], f64::INFINITY);
    }

    #[test]
    fn row_helpers_agree_with_the_quad_packer() {
        for dim in [1usize, 2, 3, 8, 17] {
            let rows = random_rows(12, dim, 40 + dim as u64);
            let mut packed = Vec::new();
            pack_quads_aosoa(&rows, dim, &mut packed);
            let mut scattered = vec![0.0; rows.len()];
            for (r, row) in rows.chunks_exact(dim).enumerate() {
                aosoa_set_row(&mut scattered, r, row);
            }
            assert_eq!(scattered, packed, "dim {dim}");
            let mut out = vec![0.0; dim];
            for (r, row) in rows.chunks_exact(dim).enumerate() {
                aosoa_row_into(&packed, r, &mut out);
                assert_eq!(out, row, "dim {dim} row {r}");
            }
        }
    }

    /// Dispatched membership mask, asserted equal to its scalar twin (the
    /// AVX2-vs-scalar pin on AVX2 hosts, a self-comparison elsewhere).
    fn mask_pair(q: &[f64], aosoa: &[f64], limit: f64) -> u64 {
        let mask = within_mask_aosoa(q, aosoa, limit);
        assert_eq!(
            mask,
            within_mask_aosoa_scalar(q, aosoa, limit),
            "dim {} limit {limit:e}",
            q.len()
        );
        mask
    }

    #[test]
    fn mask_kernel_matches_sq_dist_exactly_at_the_limit() {
        for dim in [1usize, 2, 3, 4, 7, 8, 17, 64] {
            for quads in [1usize, 2, 5, MASK_QUADS] {
                let n = quads * QUAD;
                let rows = random_rows(n, dim, 700 + (dim * quads) as u64);
                let q = random_rows(1, dim, 800 + dim as u64);
                let mut aosoa = Vec::new();
                pack_quads_aosoa(&rows, dim, &mut aosoa);
                let dists: Vec<f64> = rows
                    .chunks_exact(dim)
                    .map(|row| vector::sq_dist(row, &q))
                    .collect();
                // Every row's own distance as the limit (inclusive), then
                // one ulp to either side of it.
                for &at in &dists {
                    for limit in [at, at.next_down(), at.next_up()] {
                        let mask = mask_pair(&q, &aosoa, limit);
                        for (r, &dist) in dists.iter().enumerate() {
                            assert_eq!(
                                mask >> r & 1 == 1,
                                dist <= limit,
                                "dim {dim} quads {quads} row {r}"
                            );
                        }
                        let beyond = mask.checked_shr(n as u32).unwrap_or(0);
                        assert_eq!(beyond, 0, "no bits beyond the block");
                    }
                }
            }
        }
    }

    #[test]
    fn mask_kernel_nan_and_infinite_lanes() {
        for dim in [1usize, 3, 64] {
            let n = 2 * QUAD;
            let mut rows = random_rows(n, dim, 31 + dim as u64);
            // Row 1: a NaN coordinate. Row 2: a -inf coordinate. Rows 5..8:
            // the `+inf` pad rows of a partial last quad.
            rows[dim] = f64::NAN;
            rows[3 * dim - 1] = f64::NEG_INFINITY;
            rows[5 * dim..].fill(f64::INFINITY);
            let q = random_rows(1, dim, 32);
            let mut aosoa = Vec::new();
            pack_quads_aosoa(&rows, dim, &mut aosoa);
            // A finite limit admits the finite rows only.
            assert_eq!(mask_pair(&q, &aosoa, 1e9), 0b0001_1001);
            // An infinite one also admits infinite distances — which is
            // why the kd-tree trims pad lanes instead of trusting them —
            // but never a NaN distance.
            assert_eq!(mask_pair(&q, &aosoa, f64::INFINITY), 0b1111_1101);
            // A NaN limit, or a query that turns `inf − inf` into NaN,
            // admits nothing it touches.
            assert_eq!(mask_pair(&q, &aosoa, f64::NAN), 0);
            let q_inf = vec![f64::INFINITY; dim];
            assert_eq!(mask_pair(&q_inf, &aosoa, f64::INFINITY) & 0b1110_0000, 0);
        }
    }

    #[test]
    #[should_panic(expected = "ragged quad block")]
    fn mask_kernel_rejects_a_partial_quad() {
        within_mask_aosoa(&[0.0, 0.0], &[0.0; 7], 1.0);
    }

    #[test]
    #[should_panic(expected = "more than MASK_QUADS quads")]
    fn mask_kernel_rejects_more_rows_than_mask_bits() {
        within_mask_aosoa(&[0.0], &[0.0; (MASK_QUADS + 1) * QUAD], 1.0);
    }

    /// Run the dispatched block kernel and its scalar twin on the same
    /// inputs and assert identical `(best, hits)`, bit for bit; returns
    /// the result. On AVX2 hosts this pins the whole-block SIMD kernel
    /// against the scalar one; under Miri and elsewhere it is a
    /// self-comparison.
    fn block_kernel_pair(
        q: &[f64],
        q_radius: f64,
        aosoa: &[f64],
        radii: &[f64],
        base: usize,
        seed: (usize, f64),
    ) -> ((usize, f64), Vec<(usize, f64)>) {
        let (mut best_s, mut best_d) = (seed, seed);
        let (mut hits_s, mut hits_d) = (Vec::new(), Vec::new());
        winner_overlap_block_aosoa_scalar(
            q,
            q_radius,
            aosoa,
            radii,
            base,
            &mut best_s,
            &mut hits_s,
        );
        winner_overlap_block_aosoa(q, q_radius, aosoa, radii, base, &mut best_d, &mut hits_d);
        assert_eq!(best_d.0, best_s.0, "winner index");
        assert_eq!(best_d.1.to_bits(), best_s.1.to_bits(), "winner distance");
        assert_eq!(hits_d.len(), hits_s.len(), "hit count");
        for ((kd, dd), (ks, ds)) in hits_d.iter().zip(&hits_s) {
            assert_eq!(kd, ks);
            assert_eq!(dd.to_bits(), ds.to_bits());
        }
        (best_d, hits_d)
    }

    /// The row-at-a-time scalar pass the block kernel must replay: one
    /// [`vector::sq_dist`] per row, strict-`<` winner from `(0, ∞)`,
    /// members pushed in ascending row order under `base + row`.
    fn scalar_row_pass(
        q: &[f64],
        q_radius: f64,
        rows: &[f64],
        radii: &[f64],
        base: usize,
    ) -> ((usize, f64), Vec<(usize, f64)>) {
        let mut best = (0usize, f64::INFINITY);
        let mut hits = Vec::new();
        for (k, (row, &rk)) in rows.chunks_exact(q.len()).zip(radii).enumerate() {
            let csq = vector::sq_dist(q, row);
            let dr = q_radius - rk;
            let joint = csq + dr * dr;
            if joint < best.1 {
                best = (base + k, joint);
            }
            let radius_sum = q_radius + rk;
            if csq <= radius_sum * radius_sum {
                let spread = csq.sqrt().max((q_radius - rk).abs());
                let degree = 1.0 - spread / radius_sum;
                if degree > 0.0 {
                    hits.push((base + k, degree));
                }
            }
        }
        (best, hits)
    }

    #[test]
    fn block_kernel_matches_the_scalar_row_pass() {
        for d in [1usize, 2, 3, 4, 7, 9] {
            for nr in [4usize, 8, 16, 64] {
                let q = random_rows(1, d, 17 + d as u64);
                let rows = random_rows(nr, d, 500 + (d * nr) as u64);
                let radii: Vec<f64> = (0..nr)
                    .map(|i| 0.3 + (i as f64 * 0.41).sin().abs())
                    .collect();
                let mut aosoa = Vec::new();
                pack_quads_aosoa(&rows, d, &mut aosoa);
                for q_radius in [0.05, 0.4, 1.2, 6.0] {
                    let (best_want, hits_want) = scalar_row_pass(&q, q_radius, &rows, &radii, 7);
                    let (best, hits) =
                        block_kernel_pair(&q, q_radius, &aosoa, &radii, 7, (0, f64::INFINITY));
                    assert_eq!(best.0, best_want.0, "d={d} nr={nr} θ={q_radius}");
                    assert_eq!(best.1.to_bits(), best_want.1.to_bits());
                    assert_eq!(hits.len(), hits_want.len(), "d={d} nr={nr} hit count");
                    for ((ka, da), (kb, db)) in hits.iter().zip(&hits_want) {
                        assert_eq!(ka, kb);
                        assert_eq!(da.to_bits(), db.to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn block_kernel_infinite_pad_rows_are_inert() {
        let d = 3usize;
        let q = random_rows(1, d, 5);
        let rows = random_rows(6, d, 6);
        let radii: Vec<f64> = (0..6).map(|i| 0.2 + i as f64 * 0.1).collect();
        // Reference: the scalar pass over the six real rows.
        let (best_want, hits_want) = scalar_row_pass(&q, 4.0, &rows, &radii, 0);
        assert!(!hits_want.is_empty(), "the probe must overlap something");
        // Pad to eight rows with +inf centers and zero radii.
        let mut padded = rows.clone();
        padded.extend_from_slice(&[f64::INFINITY; 6]);
        let mut radii_pad = radii.clone();
        radii_pad.extend_from_slice(&[0.0; 2]);
        let mut aosoa = Vec::new();
        pack_quads_aosoa(&padded, d, &mut aosoa);
        let (best, hits) = block_kernel_pair(&q, 4.0, &aosoa, &radii_pad, 0, (0, f64::INFINITY));
        assert_eq!(best.0, best_want.0);
        assert_eq!(best.1.to_bits(), best_want.1.to_bits());
        assert_eq!(hits, hits_want);
    }

    #[test]
    fn block_kernel_agrees_with_its_scalar_twin_on_ties_pads_and_seeds() {
        const NONE: usize = usize::MAX;
        for d in [1usize, 2, 4, 5, 8, 16] {
            for nr in [3usize, 8, 21, 64] {
                let padded = nr.div_ceil(QUAD) * QUAD;
                let q = random_rows(1, d, 900 + d as u64);
                let mut rows = random_rows(nr, d, 77 + (d + nr) as u64);
                // Exact ties: every third row repeats row 0, so several
                // rows share one bit-identical joint distance.
                let row0 = rows[..d].to_vec();
                for r in (0..nr).step_by(3) {
                    rows[r * d..(r + 1) * d].copy_from_slice(&row0);
                }
                rows.resize(padded * d, f64::INFINITY);
                let mut radii = vec![0.25; nr];
                radii.resize(padded, 0.0);
                let mut aosoa = Vec::new();
                pack_quads_aosoa(&rows, d, &mut aosoa);
                let q_radius = 0.25;
                // The tied rows' joint distance (radii equal the probe's).
                let tie = vector::sq_dist(&q, &row0);
                let (free, _) =
                    block_kernel_pair(&q, q_radius, &aosoa, &radii, 0, (NONE, f64::INFINITY));
                assert!(free.0 < nr, "pad rows never win");
                // Seeded exactly at the block minimum: strict `<` finds
                // nothing and the sentinel survives ...
                let (at, _) = block_kernel_pair(&q, q_radius, &aosoa, &radii, 0, (NONE, free.1));
                assert_eq!(at, (NONE, free.1));
                // ... one ulp above it, the first minimal row is reported.
                let (above, _) =
                    block_kernel_pair(&q, q_radius, &aosoa, &radii, 0, (NONE, free.1.next_up()));
                assert_eq!(above.0, free.0);
                assert_eq!(above.1.to_bits(), free.1.to_bits());
                // Seeded just above the tie value: the lowest tied row.
                let (tied, _) =
                    block_kernel_pair(&q, q_radius, &aosoa, &radii, 0, (NONE, tie.next_up()));
                if free.1 == tie {
                    assert_eq!(tied.0, 0, "ties keep the lowest row");
                }
                // A seed below everything leaves best untouched but still
                // reports overlap members.
                let (below, hits) = block_kernel_pair(&q, 50.0, &aosoa, &radii, 0, (NONE, -1.0));
                assert_eq!(below, (NONE, -1.0));
                assert_eq!(
                    hits.len(),
                    nr,
                    "a domain-sized ball overlaps every real row"
                );
            }
        }
    }
}
