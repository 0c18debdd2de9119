//! Runtime-dispatched SIMD distance kernels over the **AoSoA**
//! (quad-interleaved) center layout.
//!
//! A row-major kernel that keeps four per-row accumulators in lockstep
//! relies on the compiler to map them onto vector registers. That mapping
//! needs a transpose of each 4-row tile on every load, which the
//! autovectorizer only performs profitably when AVX2 is assumed at
//! compile time — the old `target-cpu=x86-64-v3` build flag. This module
//! removes that assumption:
//!
//! * **AoSoA layout.** A quad of four rows is stored coordinate-major —
//!   `quad[4·c + j]` is coordinate `c` of row `j` — so the four lanes of
//!   one coordinate are contiguous and a 256-bit load needs no shuffle.
//! * **Runtime dispatch.** [`winner_mask_block_aosoa`] (the serving
//!   kernel: one dispatch per block of up to `tune::ROW_TILE` rows —
//!   winner, one membership bit per row, the squared centre distances
//!   left in a scratch for the caller's walk over the set bits),
//!   [`BoundGroups::bounds_into`] (the serving path's screening bounds,
//!   four blocks per iteration, one dispatch per query),
//!   [`within_mask_aosoa`] (the store's kd-tree leaf kernel: one dispatch
//!   per tested range of up to 64 rows, a ball-membership bit per row)
//!   and [`sq_dists4_aosoa`] (one quad) consult
//!   `is_x86_feature_detected!("avx2")` (a cached atomic load after the
//!   first call) and route to a hand-written AVX2 kernel when available,
//!   falling back to a scalar twin otherwise. Release binaries are
//!   therefore portable to any x86-64 (and any other architecture) while
//!   still running 4-lane f64 SIMD on 2013+ hardware.
//! * **Cache-line alignment by construction.** [`AlignedF64s`] is the
//!   storage the serving layout keeps its streamed arrays in: the first
//!   element sits on a 64-byte line whatever the allocator handed out,
//!   so no 32-byte quad load ever straddles two lines. The kernels never
//!   *rely* on it (every load is the unaligned form); it removes a
//!   layout-dependent cost, not a precondition.
//!
//! **Bit-identity contract.** Both the scalar and the AVX2 kernels give
//! each row its own accumulator and add the squared coordinate
//! differences in coordinate order — exactly the operation sequence of a
//! scalar [`crate::vector::sq_dist`] per row. The AVX2 path uses separate
//! multiply and add instructions (never FMA, which would skip the
//! intermediate rounding), so all forms agree bit for bit — pinned by the
//! tests below, by the serving equivalence batteries in `regq_core` and by
//! `regq_store`'s `kd_leaf_equivalence` battery.

// Unsafe by design: the AVX2 kernels are `#[target_feature]` functions
// over unchecked vector loads.
#![allow(unsafe_code)]

use crate::tune::{QUAD, ROW_TILE};
use std::ops::{Deref, DerefMut};

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
/// Bit-identical to [`crate::vector::sq_dist`] on each of the four rows
/// (see the module docs for the contract); dispatches to AVX2 at runtime
/// when available.
///
/// # Panics
/// Panics when `quad.len() != 4 * q.len()` (the AVX2 loads rely on it).
#[inline]
pub fn sq_dists4_aosoa(q: &[f64], quad: &[f64]) -> [f64; 4] {
    assert_eq!(
        quad.len(),
        QUAD * q.len(),
        "sq_dists4_aosoa: quad length mismatch"
    );
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: AVX2 availability was verified by the runtime check on
        // the line above and the assert establishes the quad length the
        // kernel's loads rely on.
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
/// The caller must ensure the host supports AVX2 and that
/// `quad.len() == 4 * q.len()` (both checked at the dispatch site).
// SAFETY: `unsafe fn` for `#[target_feature]` and the quad length the
// call below requires; the single caller checks both, and the store is
// justified at its site.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn sq_dists4_aosoa_avx2(q: &[f64], quad: &[f64]) -> [f64; 4] {
    // SAFETY: `quad.len() == 4 * q.len()`, this function's contract —
    // the length `quad_sq_dists_avx2` requires.
    let acc = unsafe { quad_sq_dists_avx2(q, quad) };
    let mut out = [0.0f64; 4];
    // SAFETY: `out` is exactly four f64s and the unaligned store has no
    // alignment requirement.
    unsafe { std::arch::x86_64::_mm256_storeu_pd(out.as_mut_ptr(), acc) };
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
// justified at their site; every caller is an AVX2 kernel that passes a
// quad of exactly `4 * q.len()` floats.
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
        let lanes = unsafe { _mm256_loadu_pd(quad.as_ptr().add(QUAD * c)) };
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
/// The width is dispatched once per call, as in
/// [`winner_mask_block_aosoa`]: one body generic over `D`, unrolled for
/// `D = 1..=8` (the query's broadcasts hoisted out of the quad loop, the
/// quad stride a constant) and reading `q.len()` at run time for `D = 0`.
///
/// # Panics
/// Panics on an empty query, a `quads` length that is not a whole number
/// of quads of dimension `q.len()`, or more than [`MASK_QUADS`] quads
/// (the AVX2 loads and the mask width rely on these).
#[inline]
pub fn within_mask_aosoa(q: &[f64], quads: &[f64], limit: f64) -> u64 {
    match q.len() {
        1 => within_mask_aosoa_width::<1>(q, quads, limit),
        2 => within_mask_aosoa_width::<2>(q, quads, limit),
        3 => within_mask_aosoa_width::<3>(q, quads, limit),
        4 => within_mask_aosoa_width::<4>(q, quads, limit),
        5 => within_mask_aosoa_width::<5>(q, quads, limit),
        6 => within_mask_aosoa_width::<6>(q, quads, limit),
        7 => within_mask_aosoa_width::<7>(q, quads, limit),
        8 => within_mask_aosoa_width::<8>(q, quads, limit),
        _ => within_mask_aosoa_width::<0>(q, quads, limit),
    }
}

/// [`within_mask_aosoa`] at the width `D` (`q.len()`, or `0` = read it at
/// run time): the shape checks — by a constant stride, so no integer
/// division — then the AVX2 kernel or the scalar twin.
#[inline(always)]
fn within_mask_aosoa_width<const D: usize>(q: &[f64], quads: &[f64], limit: f64) -> u64 {
    let q = if D == 0 { q } else { &q[..D] };
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
        // the line above, the asserts establish the shape contract
        // (non-empty `q`, whole quads of dimension `q.len()`, at most 16
        // of them) the kernel's loads and shifts rely on, and `D` is `0`
        // or `q.len()`.
        return unsafe { within_mask_aosoa_avx2::<D>(q, quads, limit) };
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
/// The caller must ensure the host supports AVX2, that `q` is non-empty,
/// that `quads` holds at most 16 whole quads of dimension `q.len()` (all
/// checked at the dispatch site) and that `D` is `0` or `q.len()`.
// SAFETY: `unsafe fn` solely for `#[target_feature]`; the body's only
// unchecked operation is the per-quad call below, and the single caller
// verifies AVX2 and the shape contract before dispatching here.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn within_mask_aosoa_avx2<const D: usize>(q: &[f64], quads: &[f64], limit: f64) -> u64 {
    use std::arch::x86_64::{_mm256_cmp_pd, _mm256_movemask_pd, _mm256_set1_pd, _CMP_LE_OQ};
    let lim = _mm256_set1_pd(limit);
    let mut mask = 0u64;
    // As in `winner_mask_block_aosoa_avx2`: with `D` known the query is
    // a `D`-long slice, so the coordinate loop unrolls with its `D`
    // broadcasts hoisted out of the quad loop and the quad stride is a
    // constant.
    let q = if D == 0 { q } else { &q[..D] };
    for (k, quad) in quads.chunks_exact(QUAD * q.len()).enumerate() {
        // SAFETY: `quad` is a `chunks_exact(4 * q.len())` chunk — the
        // length `quad_sq_dists_avx2` requires.
        let acc = unsafe { quad_sq_dists_avx2(q, quad) };
        // Ordered, non-signalling compare: a NaN lane is false, exactly
        // like the scalar `<=`. `movemask` yields the four sign bits in
        // lane order (0..=15), and `k < 16`, so the shift stays in range.
        let hit = _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_LE_OQ>(acc, lim));
        mask |= (hit as u64) << (QUAD * k);
    }
    mask
}

/// Pass 1 of the serving path's two-pass block resolution — **mask, then
/// walk** — for one query over a whole **AoSoA** block (centers
/// quad-interleaved per [`pack_quads_aosoa`], the runtime dispatch paid
/// **once per block**). Straight-line per quad, no per-row decision:
///
/// * the four squared centre distances (`acc`, coordinate order, separate
///   multiply and add — a scalar [`crate::vector::sq_dist`] per row, see
///   the module docs) are **stored** to `csq[row]`;
/// * `acc ≤ (θ_q + θ_k)²` is folded into the returned **membership
///   mask**, bit `row`;
/// * the squared joint distance `acc + (θ_q − θ_k)²` is compared strict
///   `<` against the running best. This is the one branch: a quad holding
///   a better row runs the ascending strict-`<` scan over its four joints
///   (ties keep the lowest row). Once a block near the query has been
///   verified it almost never fires.
///
/// Pass 2 is the caller's: walk the mask's set bits and compute each
/// member's degree from the stored `csq` — the very bits this pass
/// compared — so nothing is recomputed and no row costs a branch here.
/// `csq` slots at or beyond `radii.len()` are left untouched.
///
/// `quads` holds `radii.len() / 4` AoSoA quads of dimension `q.len()`;
/// the row count must be a multiple of 4 and at most [`ROW_TILE`] (one
/// mask word). Callers pad partial quads with `+inf` centers: such a row
/// never wins (`inf < best` and `NaN < best` are false) and its mask bit
/// is clear whenever `(θ_q + θ_k)²` is finite; callers trim the mask to
/// their real rows, so a pad lane is inert whatever it compares to.
///
/// `best` carries the running winner `(row, squared joint)` in and out
/// (seed with `(0, f64::INFINITY)`). Seeding it with
/// `(sentinel, bound.next_up())` turns the strict `<` into "first row
/// with `joint ≤ bound`, else the sentinel index is left in place".
///
/// # Panics
/// Panics on an empty query, a row count that is not a multiple of 4 or
/// exceeds [`ROW_TILE`], or `quads`/`radii` length disagreement (the AVX2
/// loads, the `csq` stores and the mask width rely on these).
#[inline]
pub fn winner_mask_block_aosoa(
    q: &[f64],
    q_radius: f64,
    quads: &[f64],
    radii: &[f64],
    best: &mut (usize, f64),
    csq: &mut [f64; ROW_TILE],
) -> u64 {
    assert!(
        !q.is_empty(),
        "winner_mask_block_aosoa: dim must be positive"
    );
    assert_eq!(
        radii.len() % QUAD,
        0,
        "winner_mask_block_aosoa: row count must be a multiple of QUAD (pad first)"
    );
    assert!(
        radii.len() <= ROW_TILE,
        "winner_mask_block_aosoa: more than ROW_TILE rows"
    );
    assert_eq!(
        quads.len(),
        radii.len() * q.len(),
        "winner_mask_block_aosoa: quads/radii length mismatch"
    );
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        macro_rules! avx2 {
            ($d:literal) => {
                winner_mask_block_aosoa_avx2::<$d>(q, q_radius, quads, radii, best, csq)
            };
        }
        // SAFETY: AVX2 availability was verified by the runtime check on
        // the line above, the four asserts establish the shape contract
        // (`quads.len() == radii.len() * q.len()`, whole quads, at most
        // `ROW_TILE` rows) the kernel's loads and stores rely on, and
        // each arm's `D` is `q.len()` (`0` = read it at run time).
        return unsafe {
            match q.len() {
                1 => avx2!(1),
                2 => avx2!(2),
                3 => avx2!(3),
                4 => avx2!(4),
                5 => avx2!(5),
                6 => avx2!(6),
                7 => avx2!(7),
                8 => avx2!(8),
                _ => avx2!(0),
            }
        };
    }
    winner_mask_block_aosoa_scalar(q, q_radius, quads, radii, best, csq)
}

/// Portable scalar twin of [`winner_mask_block_aosoa`] — the reference
/// operation sequence the AVX2 kernel must replay, and the kernel that
/// runs under Miri and on non-AVX2 hosts.
fn winner_mask_block_aosoa_scalar(
    q: &[f64],
    q_radius: f64,
    quads: &[f64],
    radii: &[f64],
    best: &mut (usize, f64),
    csq: &mut [f64; ROW_TILE],
) -> u64 {
    let (mut best_k, mut best_sq) = *best;
    let mut mask = 0u64;
    let rows = quads
        .chunks_exact(QUAD * q.len())
        .zip(radii.chunks_exact(QUAD))
        .zip(csq.chunks_exact_mut(QUAD));
    for (i, ((quad, r), out)) in rows.enumerate() {
        let sq = sq_dists4_aosoa_scalar(q, quad);
        out.copy_from_slice(&sq);
        for (t, (&acc, &rk)) in sq.iter().zip(r).enumerate() {
            let dr = q_radius - rk;
            let joint = acc + dr * dr;
            if joint < best_sq {
                best_sq = joint;
                best_k = QUAD * i + t;
            }
            let rs = q_radius + rk;
            mask |= u64::from(acc <= rs * rs) << (QUAD * i + t);
        }
    }
    *best = (best_k, best_sq);
    mask
}

/// AVX2 form of [`winner_mask_block_aosoa`]: per quad the distance
/// accumulator, the joint distance and both compares stay in 256-bit
/// registers (separate multiply and add, **no FMA**, as in
/// [`sq_dists4_aosoa_avx2`]); the membership compare leaves through a
/// `movemask` shifted into the mask word, the accumulator through one
/// store, and only a quad whose `movemask(joint < best)` is non-zero runs
/// the scalar twin's ascending strict-`<` scan over the four stored
/// joints — the same compares on the same bits, so `(best, mask, csq)`
/// equal the scalar twin's.
///
/// # Safety
/// The caller must ensure the host supports AVX2, that `q` is non-empty,
/// that `radii.len()` is a multiple of 4 and at most [`ROW_TILE`], that
/// `quads.len() == radii.len() * q.len()` (all checked at the dispatch
/// site) and that `D` is `0` or `q.len()`.
// SAFETY: `unsafe fn` solely for `#[target_feature]`; the body's only
// unchecked operations are the per-quad call and the unaligned loads and
// stores justified at their sites, and the single caller verifies AVX2
// and the shape contract before dispatching here.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn winner_mask_block_aosoa_avx2<const D: usize>(
    q: &[f64],
    q_radius: f64,
    quads: &[f64],
    radii: &[f64],
    best: &mut (usize, f64),
    csq: &mut [f64; ROW_TILE],
) -> u64 {
    use std::arch::x86_64::{
        _mm256_add_pd, _mm256_cmp_pd, _mm256_loadu_pd, _mm256_movemask_pd, _mm256_mul_pd,
        _mm256_set1_pd, _mm256_storeu_pd, _mm256_sub_pd, _CMP_LE_OQ, _CMP_LT_OQ,
    };
    let (mut best_k, mut best_sq) = *best;
    let qr = _mm256_set1_pd(q_radius);
    let mut best_v = _mm256_set1_pd(best_sq);
    let mut mask = 0u64;
    // With `D` known the query is a `D`-long slice from here on: the
    // coordinate loop unrolls into straight-line code with its `D`
    // broadcasts hoisted out of the quad loop, and the quad stride is a
    // constant — the chunk count a shift, not a division per block.
    let q = if D == 0 { q } else { &q[..D] };
    let rows = quads
        .chunks_exact(QUAD * q.len())
        .zip(radii.chunks_exact(QUAD));
    for (i, (quad, r)) in rows.enumerate() {
        // SAFETY: `quad` is a `chunks_exact(4 * q.len())` chunk — the
        // length `quad_sq_dists_avx2` requires.
        let acc = unsafe { quad_sq_dists_avx2(q, quad) };
        // SAFETY: `radii.len() <= ROW_TILE` (this function's contract)
        // and `i < radii.len() / 4`, so the four slots from `4 * i` lie
        // inside the `ROW_TILE`-long scratch; the unaligned store has no
        // alignment requirement.
        unsafe { _mm256_storeu_pd(csq.as_mut_ptr().add(QUAD * i), acc) };
        // SAFETY: `r` is a `chunks_exact(4)` chunk — exactly four f64s.
        let rv = unsafe { _mm256_loadu_pd(r.as_ptr()) };
        let dr = _mm256_sub_pd(qr, rv);
        let joint = _mm256_add_pd(acc, _mm256_mul_pd(dr, dr));
        let rs = _mm256_add_pd(qr, rv);
        // Ordered, non-signalling compares: a NaN lane is false in both,
        // exactly like the scalar `<=` / `<`. `movemask` yields the four
        // sign bits in lane order (0..=15) and `i < 16`, so the shift
        // stays inside the word.
        let hit = _mm256_cmp_pd::<_CMP_LE_OQ>(acc, _mm256_mul_pd(rs, rs));
        mask |= (_mm256_movemask_pd(hit) as u64) << (QUAD * i);
        let better = _mm256_cmp_pd::<_CMP_LT_OQ>(joint, best_v);
        if _mm256_movemask_pd(better) != 0 {
            let mut joints = [0.0f64; QUAD];
            // SAFETY: `joints` is exactly four f64s and the unaligned
            // store has no alignment requirement.
            unsafe { _mm256_storeu_pd(joints.as_mut_ptr(), joint) };
            for (t, &j) in joints.iter().enumerate() {
                if j < best_sq {
                    best_sq = j;
                    best_k = QUAD * i + t;
                }
            }
            best_v = _mm256_set1_pd(best_sq);
        }
    }
    *best = (best_k, best_sq);
    mask
}

/// The lane-wise maximum the bound kernels are written in: the first
/// operand if it is greater, else the **second** — `_mm256_max_pd`'s
/// rule, which hands back its second operand whenever either is NaN (and
/// for two zeros of either sign). Not [`f64::max`], which drops the NaN
/// whichever side it is on; the scalar twin must take the decisions the
/// vector instruction takes.
#[inline]
fn max_pd(a: f64, b: f64) -> f64 {
    if a > b {
        a
    } else {
        b
    }
}

/// Running minimum, maximum and finiteness of a fold, one lane per
/// position of an AoSoA quad — so a fold over quads is lane-parallel
/// compare-and-selects, and the lanes meet once, in [`Extent::finish`].
/// A NaN never enters an extremum (`NaN < x` is false); it is caught by
/// the finiteness lanes instead.
#[derive(Clone, Copy)]
struct Extent {
    lo: [f64; QUAD],
    hi: [f64; QUAD],
    finite: [bool; QUAD],
}

impl Default for Extent {
    fn default() -> Self {
        Extent {
            lo: [f64::INFINITY; QUAD],
            hi: [f64::NEG_INFINITY; QUAD],
            finite: [true; QUAD],
        }
    }
}

impl Extent {
    /// Fold up to [`QUAD`] values, value `j` into lane `j`.
    #[inline]
    fn add(&mut self, values: &[f64]) {
        let lanes = self.lo.iter_mut().zip(&mut self.hi).zip(&mut self.finite);
        for (&v, ((lo, hi), finite)) in values.iter().zip(lanes) {
            *lo = if v < *lo { v } else { *lo };
            *hi = if v > *hi { v } else { *hi };
            *finite &= v.is_finite();
        }
    }

    /// `(minimum, maximum, all finite)` over everything folded.
    #[inline]
    fn finish(self) -> (f64, f64, bool) {
        let lo = self
            .lo
            .iter()
            .fold(f64::INFINITY, |m, &v| if v < m { v } else { m });
        let hi = self
            .hi
            .iter()
            .fold(f64::NEG_INFINITY, |m, &v| if v > m { v } else { m });
        (lo, hi, self.finite.iter().all(|&ok| ok))
    }
}

/// `len` doubles whose first element sits on a 64-byte cache line — by
/// construction, not by allocator luck (`malloc` promises 16 bytes). The
/// serving layout streams these with 32-byte loads at 32-byte strides, so
/// with the base on a line no load ever straddles two; with the base
/// wherever the allocator put it, every other load may. Safe code: a
/// `Vec` over-allocated by one line and sliced from the first aligned
/// element. A clone is a new allocation at a new address, so [`Clone`]
/// re-establishes the alignment instead of copying the offset.
#[derive(Debug)]
pub struct AlignedF64s {
    buf: Vec<f64>,
    /// Elements of `buf` before the first live one.
    skip: usize,
}

impl AlignedF64s {
    /// Bytes the first element is aligned to.
    pub const ALIGN: usize = 64;

    /// `len` copies of `value`, the first on an [`Self::ALIGN`] boundary.
    pub fn filled(len: usize, value: f64) -> Self {
        let mut out = Self::with_room(len);
        out.buf.resize(out.skip + len, value);
        out
    }

    /// Empty, with room for `capacity` elements behind an aligned base.
    fn with_room(capacity: usize) -> Self {
        let lanes = Self::ALIGN / std::mem::size_of::<f64>();
        let mut buf: Vec<f64> = Vec::with_capacity(capacity + lanes - 1);
        // Elements from the (real — the capacity is never zero)
        // allocation's base to the next line. An implementation may
        // decline to answer (`usize::MAX`, e.g. an interpreter that keeps
        // addresses symbolic); the buffer is then merely unaligned, which
        // no kernel depends on.
        let skip = buf.as_ptr().align_offset(Self::ALIGN);
        let skip = if skip < lanes { skip } else { 0 };
        // Within the reserved capacity: the base never moves again.
        buf.resize(skip, 0.0);
        AlignedF64s { buf, skip }
    }

    /// Grow (or cut) to `len` elements, new ones `value`, the first still
    /// on a line. Growth beyond the room reserved moves the contents to a
    /// new allocation of at least twice the old length — re-aligned, as
    /// [`Clone`] does — so a run of appends makes `O(log n)` allocator
    /// calls, not one per append.
    pub fn resize(&mut self, len: usize, value: f64) {
        if self.skip + len > self.buf.capacity() {
            let mut grown = Self::with_room(len.max(2 * self.len()));
            grown.buf.extend_from_slice(self);
            *self = grown;
        }
        self.buf.resize(self.skip + len, value);
    }
}

impl Deref for AlignedF64s {
    type Target = [f64];
    #[inline]
    fn deref(&self) -> &[f64] {
        &self.buf[self.skip..]
    }
}

impl DerefMut for AlignedF64s {
    #[inline]
    fn deref_mut(&mut self) -> &mut [f64] {
        &mut self.buf[self.skip..]
    }
}

impl Clone for AlignedF64s {
    fn clone(&self) -> Self {
        let mut copy = Self::filled(self.len(), 0.0);
        copy.copy_from_slice(self);
        copy
    }
}

/// The screening bounds of a block layout — per block a centre bounding
/// box `[lo_c, hi_c]` and a radius range `[r_min, r_max]` — stored SoA in
/// **groups of [`QUAD`] blocks** so one vector iteration bounds four
/// blocks: `lo/hi[(g·d + c)·4 + j]` is coordinate `c` of block `4g + j`,
/// `r_min/r_max[4g + j]` its radius range. Lanes past the last block hold
/// the unbounded box; their outputs are written and never read. A layout
/// that gains blocks ([`Self::grow`]) gains whole groups of unbounded
/// lanes, and a lane holds a box only once [`Self::fit_block`] has fitted
/// it to rows — so no lane ever reports a bound of rows it does not hold.
#[derive(Debug, Clone)]
pub struct BoundGroups {
    dim: usize,
    lo: AlignedF64s,
    hi: AlignedF64s,
    r_min: AlignedF64s,
    r_max: AlignedF64s,
}

impl BoundGroups {
    /// Bounds for `blocks` blocks of dimension `dim`, every lane the
    /// **unbounded** box (`[-∞, +∞]` on every axis and in radius): its
    /// gaps are zero and its reach infinite, so it is never skipped.
    pub fn unbounded(blocks: usize, dim: usize) -> Self {
        let lanes = blocks.div_ceil(QUAD) * QUAD;
        BoundGroups {
            dim,
            lo: AlignedF64s::filled(lanes * dim, f64::NEG_INFINITY),
            hi: AlignedF64s::filled(lanes * dim, f64::INFINITY),
            r_min: AlignedF64s::filled(lanes, f64::NEG_INFINITY),
            r_max: AlignedF64s::filled(lanes, f64::INFINITY),
        }
    }

    /// Output lanes of [`Self::bounds_into`]: the block count rounded up
    /// to whole groups.
    #[inline]
    pub fn lanes(&self) -> usize {
        self.r_min.len()
    }

    /// Room for at least `blocks` blocks: whole groups of unbounded lanes
    /// are appended (amortised — see [`AlignedF64s::resize`]); existing
    /// lanes keep their boxes.
    pub fn grow(&mut self, blocks: usize) {
        let lanes = blocks.div_ceil(QUAD) * QUAD;
        if lanes > self.lanes() {
            self.lo.resize(lanes * self.dim, f64::NEG_INFINITY);
            self.hi.resize(lanes * self.dim, f64::INFINITY);
            self.r_min.resize(lanes, f64::NEG_INFINITY);
            self.r_max.resize(lanes, f64::INFINITY);
        }
    }

    /// Fit block `b`'s lane to its rows: the tight centre box and radius
    /// range of the `radii.len()` rows stored AoSoA in `quads` (layout per
    /// [`pack_quads_aosoa`]; lanes past the last real row are not read).
    /// A block holding any non-finite centre coordinate or radius gets the
    /// **unbounded** box instead, so it is verified for every query and
    /// the exact kernel decides. Every box kept is therefore folded from
    /// finite values only, and the fold is four lane-wise compare-and-select
    /// running extrema per coordinate — `minpd` / `maxpd`, not
    /// a NaN-aware scalar `f64::min` per row. Minimum and maximum round
    /// nothing, so the fold order cannot change a side's value; it can
    /// only pick which of `-0.0` and `+0.0` a zero side holds, and no bound
    /// sees that (a zero gap is clamped to `+0` by the outer `max(·, 0)`,
    /// and `(θ ± 0)²` does not depend on the sign). Allocates nothing;
    /// `O(rows · dim)`.
    ///
    /// # Panics
    /// Panics when `b` is not below [`Self::lanes`] or `quads` holds fewer
    /// than `radii.len()` rows of dimension `dim`.
    pub fn fit_block(&mut self, b: usize, quads: &[f64], radii: &[f64]) {
        let (d, rows) = (self.dim, radii.len());
        let lane = aosoa_row_base(b, d);
        // The whole quads, then the real lanes of a partial last one.
        let (whole, tail) = (QUAD * d * (rows / QUAD), rows % QUAD);
        let mut finite = true;
        for c in 0..d {
            let mut fold = Extent::default();
            for quad in quads[..whole].chunks_exact(QUAD * d) {
                fold.add(&quad[QUAD * c..QUAD * (c + 1)]);
            }
            if tail > 0 {
                fold.add(&quads[whole + QUAD * c..][..tail]);
            }
            let (lo, hi, ok) = fold.finish();
            finite &= ok;
            self.lo[lane + QUAD * c] = lo;
            self.hi[lane + QUAD * c] = hi;
        }
        let mut fold = Extent::default();
        for four in radii.chunks(QUAD) {
            fold.add(four);
        }
        let (r_min, r_max, ok) = fold.finish();
        if finite && ok {
            self.r_min[b] = r_min;
            self.r_max[b] = r_max;
            return;
        }
        for c in 0..d {
            self.lo[lane + QUAD * c] = f64::NEG_INFINITY;
            self.hi[lane + QUAD * c] = f64::INFINITY;
        }
        self.r_min[b] = f64::NEG_INFINITY;
        self.r_max[b] = f64::INFINITY;
    }

    /// Set block `b`'s box to `[lo, hi]` (one value per coordinate) and
    /// its radius range to `[r_min, r_max]` — any box, rows or not (the
    /// tests' way to pose one).
    ///
    /// # Panics
    /// Panics when `b` is not below [`Self::lanes`] or a box side is not
    /// `dim` long.
    #[cfg(test)]
    fn set_block(&mut self, b: usize, lo: &[f64], hi: &[f64], r_min: f64, r_max: f64) {
        assert_eq!(lo.len(), self.dim, "set_block: box dimension mismatch");
        assert_eq!(hi.len(), self.dim, "set_block: box dimension mismatch");
        let base = aosoa_row_base(b, self.dim);
        for (c, (&l, &h)) in lo.iter().zip(hi).enumerate() {
            self.lo[base + QUAD * c] = l;
            self.hi[base + QUAD * c] = h;
        }
        self.r_min[b] = r_min;
        self.r_max[b] = r_max;
    }

    /// Bound every block against the query ball `(q, q_radius)`:
    /// `lb[b] ≤` the squared joint distance of every row of block `b`,
    /// and `gated[b]` is `lb[b]` where the block provably holds no
    /// overlap member (`bb > reach`) and `−∞` where it may — a bound no
    /// running best undercuts, so such a block is always verified.
    ///
    /// Per lane, the operation sequence is the kernel's own on the box
    /// instead of a row: `bb = 0; bb += gap_c · gap_c` in coordinate
    /// order with `gap_c = max(max(lo_c − q_c, q_c − hi_c), 0)`, then
    /// `lb = bb + rad_gap · rad_gap` with
    /// `rad_gap = max(max(r_min − θ_q, θ_q − r_max), 0)` and
    /// `reach = max((θ_q + r_min)², (θ_q + r_max)²)` — each operand
    /// ordered before the subtraction, every step monotone under IEEE
    /// rounding, so `bb ≤ ‖c − q‖²`, `lb ≤ joint` and
    /// `reach ≥ (θ_q + θ_k)²` hold exactly for every row of the block.
    /// `max` is `_mm256_max_pd`'s rule — the first operand if it is
    /// greater, else the **second**, so a NaN on either side returns the
    /// second — and the operand order above is chosen so that a NaN can
    /// only **shrink** the bound — the outer `max(·, 0)` returns its
    /// second operand, so a NaN gap becomes `0` — or reach the
    /// `bb > reach` compare, which it fails. A poisoned input therefore
    /// never causes a skip that the unpoisoned coordinates do not justify
    /// on their own, and a NaN radius always verifies.
    ///
    /// # Panics
    /// Panics when `q` is not `dim` long or an output is not
    /// [`Self::lanes`] long (the AVX2 loads and stores rely on these).
    #[inline]
    pub fn bounds_into(&self, q: &[f64], q_radius: f64, lb: &mut [f64], gated: &mut [f64]) {
        assert_eq!(q.len(), self.dim, "bounds_into: dimension mismatch");
        assert_eq!(lb.len(), self.lanes(), "bounds_into: lb length");
        assert_eq!(gated.len(), self.lanes(), "bounds_into: gated length");
        #[cfg(target_arch = "x86_64")]
        if avx2_available() {
            // SAFETY: AVX2 availability was verified by the runtime check
            // on the line above, and the three asserts — with the lengths
            // of the four arrays, which `unbounded` and `grow` (the only
            // code that sizes them) keep at `lanes · dim` and `lanes` —
            // establish the shape contract the kernel's loads and stores
            // rely on.
            return unsafe { self.bounds_into_avx2(q, q_radius, lb, gated) };
        }
        self.bounds_into_scalar(q, q_radius, lb, gated);
    }

    /// `(bb, lb, reach)` of lane `b` against the query ball — one lane of
    /// [`Self::bounds_into`]'s operation sequence in scalar code, with
    /// the two quantities its gate compares (`bb ≤ ‖c − q‖²` for every
    /// row of the block, `reach ≥ (θ_q + θ_k)²`) left visible: what the
    /// scalar twin is made of, and what the no-tolerance bound proptest
    /// in `regq_core` reads.
    pub fn lane_bounds(&self, b: usize, q: &[f64], q_radius: f64) -> (f64, f64, f64) {
        let base = aosoa_row_base(b, self.dim);
        let mut bb = 0.0;
        for (c, &qc) in q.iter().enumerate() {
            let (l, h) = (self.lo[base + QUAD * c], self.hi[base + QUAD * c]);
            let gap = max_pd(max_pd(l - qc, qc - h), 0.0);
            bb += gap * gap;
        }
        let (r_min, r_max) = (self.r_min[b], self.r_max[b]);
        let rad_gap = max_pd(max_pd(r_min - q_radius, q_radius - r_max), 0.0);
        let s_lo = q_radius + r_min;
        let s_hi = q_radius + r_max;
        (bb, bb + rad_gap * rad_gap, max_pd(s_lo * s_lo, s_hi * s_hi))
    }

    /// Portable scalar twin of [`Self::bounds_into`] — the reference
    /// operation sequence the AVX2 kernel must replay lane for lane.
    fn bounds_into_scalar(&self, q: &[f64], q_radius: f64, lb: &mut [f64], gated: &mut [f64]) {
        for b in 0..self.lanes() {
            let (bb, bound, reach) = self.lane_bounds(b, q, q_radius);
            lb[b] = bound;
            gated[b] = if bb > reach { bound } else { f64::NEG_INFINITY };
        }
    }

    /// AVX2 form of [`Self::bounds_into`]: one group of four blocks per
    /// iteration, every quantity a 256-bit register, separate multiply
    /// and add (**no FMA**), `_mm256_max_pd` with the operand order of
    /// the scalar twin's [`max_pd`], one ordered `>` and a blend for the
    /// gate.
    ///
    /// # Safety
    /// The caller must ensure the host supports AVX2, that
    /// `q.len() == self.dim` and that `lb` and `gated` are
    /// [`Self::lanes`] long (all checked at the dispatch site).
    // SAFETY: `unsafe fn` solely for `#[target_feature]`; the body's only
    // unchecked operations are the unaligned loads and stores justified
    // at their sites, and the single caller verifies AVX2 and the shape
    // contract before dispatching here.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn bounds_into_avx2(&self, q: &[f64], q_radius: f64, lb: &mut [f64], gated: &mut [f64]) {
        use std::arch::x86_64::{
            _mm256_add_pd, _mm256_blendv_pd, _mm256_cmp_pd, _mm256_loadu_pd, _mm256_max_pd,
            _mm256_mul_pd, _mm256_set1_pd, _mm256_setzero_pd, _mm256_storeu_pd, _mm256_sub_pd,
            _CMP_GT_OQ,
        };
        let zero = _mm256_setzero_pd();
        let never = _mm256_set1_pd(f64::NEG_INFINITY);
        let qr = _mm256_set1_pd(q_radius);
        let (lo, hi) = (self.lo.as_ptr(), self.hi.as_ptr());
        for g in 0..self.lanes() / QUAD {
            let mut bb = zero;
            for (c, &qc) in q.iter().enumerate() {
                let at = (g * self.dim + c) * QUAD;
                // SAFETY: `lo` and `hi` hold `lanes · dim` doubles
                // (`unbounded`, `grow`), `g < lanes / 4` and `c < q.len() == dim`
                // (this function's contract), so the four doubles from
                // `at` are in bounds of both.
                let (l, h) = unsafe { (_mm256_loadu_pd(lo.add(at)), _mm256_loadu_pd(hi.add(at))) };
                let qv = _mm256_set1_pd(qc);
                let gap = _mm256_max_pd(
                    _mm256_max_pd(_mm256_sub_pd(l, qv), _mm256_sub_pd(qv, h)),
                    zero,
                );
                bb = _mm256_add_pd(bb, _mm256_mul_pd(gap, gap));
            }
            // SAFETY: `r_min` and `r_max` hold `lanes` doubles and
            // `g < lanes / 4`, so the four from `4 * g` are in bounds.
            let r_min = unsafe { _mm256_loadu_pd(self.r_min.as_ptr().add(QUAD * g)) };
            // SAFETY: as for `r_min` on the line above.
            let r_max = unsafe { _mm256_loadu_pd(self.r_max.as_ptr().add(QUAD * g)) };
            let rad_gap = _mm256_max_pd(
                _mm256_max_pd(_mm256_sub_pd(r_min, qr), _mm256_sub_pd(qr, r_max)),
                zero,
            );
            let s_lo = _mm256_add_pd(qr, r_min);
            let s_hi = _mm256_add_pd(qr, r_max);
            let reach = _mm256_max_pd(_mm256_mul_pd(s_lo, s_lo), _mm256_mul_pd(s_hi, s_hi));
            let bound = _mm256_add_pd(bb, _mm256_mul_pd(rad_gap, rad_gap));
            // Ordered, non-signalling `>`: a NaN on either side is false
            // and the lane takes `never`, like the scalar twin's `if`.
            let skip = _mm256_cmp_pd::<_CMP_GT_OQ>(bb, reach);
            let gate = _mm256_blendv_pd(never, bound, skip);
            // SAFETY: `lb` and `gated` are `lanes` long (this function's
            // contract) and `g < lanes / 4`; the unaligned stores have no
            // alignment requirement.
            unsafe { _mm256_storeu_pd(lb.as_mut_ptr().add(QUAD * g), bound) };
            // SAFETY: as for `lb` on the line above.
            unsafe { _mm256_storeu_pd(gated.as_mut_ptr().add(QUAD * g), gate) };
        }
    }
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
    fn aosoa_distances_are_bit_identical_to_the_per_row_kernel() {
        for dim in [1usize, 2, 3, 4, 5, 7, 8, 11, 24] {
            let rows = random_rows(4, dim, 10 + dim as u64);
            let q = random_rows(1, dim, 90 + dim as u64);
            let mut aosoa = Vec::new();
            pack_quads_aosoa(&rows, dim, &mut aosoa);
            let got = sq_dists4_aosoa(&q, &aosoa);
            for j in 0..4 {
                let want = vector::sq_dist(&q, &rows[j * dim..(j + 1) * dim]);
                assert_eq!(
                    got[j].to_bits(),
                    want.to_bits(),
                    "dim {dim} lane {j}: {} vs {want}",
                    got[j]
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
    #[should_panic(expected = "quad length mismatch")]
    fn quad_kernel_rejects_a_short_quad() {
        // Eight coordinates need 32 doubles; the AVX2 kernel would load
        // all 32 from a buffer of four.
        sq_dists4_aosoa(&[0.0; 8], &[0.0; QUAD]);
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
        for dim in [1usize, 2, 3, 4, 5, 6, 7, 8, 9, 17, 64] {
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

    /// What one [`winner_mask_block_aosoa`] call produced.
    struct BlockPass {
        best: (usize, f64),
        mask: u64,
        csq: [f64; ROW_TILE],
    }

    /// Run the dispatched block kernel and its scalar twin on the same
    /// inputs and assert them identical bit for bit — the mask, every
    /// `csq` slot the mask names (the rest may differ in NaN payload
    /// only), the winner — and that slots beyond the block are left
    /// alone; returns the result. On AVX2 hosts this pins the whole-block
    /// SIMD kernel against the scalar one; under Miri and elsewhere it is
    /// a self-comparison.
    fn block_kernel_pair(
        q: &[f64],
        q_radius: f64,
        aosoa: &[f64],
        radii: &[f64],
        seed: (usize, f64),
    ) -> BlockPass {
        const UNTOUCHED: f64 = -7.25;
        let (mut best_s, mut best_d) = (seed, seed);
        let (mut csq_s, mut csq_d) = ([UNTOUCHED; ROW_TILE], [UNTOUCHED; ROW_TILE]);
        let mask_s =
            winner_mask_block_aosoa_scalar(q, q_radius, aosoa, radii, &mut best_s, &mut csq_s);
        let mask = winner_mask_block_aosoa(q, q_radius, aosoa, radii, &mut best_d, &mut csq_d);
        assert_eq!(mask, mask_s, "membership mask");
        assert_eq!(best_d.0, best_s.0, "winner index");
        assert_eq!(best_d.1.to_bits(), best_s.1.to_bits(), "winner distance");
        assert_eq!(mask.checked_shr(radii.len() as u32).unwrap_or(0), 0);
        for (r, (d, s)) in csq_d.iter().zip(&csq_s).enumerate() {
            if r >= radii.len() {
                assert_eq!(
                    (*d, *s),
                    (UNTOUCHED, UNTOUCHED),
                    "slot {r} beyond the block"
                );
            } else if mask >> r & 1 == 1 {
                assert_eq!(d.to_bits(), s.to_bits(), "csq of member {r}");
            } else {
                assert!(d.to_bits() == s.to_bits() || (d.is_nan() && s.is_nan()));
            }
        }
        BlockPass {
            best: best_d,
            mask,
            csq: csq_d,
        }
    }

    /// Pass 2 as the serving layout runs it: walk the mask's set bits and
    /// compute each member's degree from the stored `csq`.
    fn walk(pass: &BlockPass, q_radius: f64, radii: &[f64]) -> Vec<(usize, f64)> {
        let mut hits = Vec::new();
        let mut left = pass.mask;
        while left != 0 {
            let slot = left.trailing_zeros() as usize;
            left &= left - 1;
            let radius_sum = q_radius + radii[slot];
            let spread = pass.csq[slot].sqrt().max((q_radius - radii[slot]).abs());
            let degree = 1.0 - spread / radius_sum;
            if degree > 0.0 {
                hits.push((slot, degree));
            }
        }
        hits
    }

    /// The row-at-a-time scalar pass the two-pass kernel must replay: one
    /// [`vector::sq_dist`] per row, strict-`<` winner from `seed`,
    /// members pushed in ascending row order.
    fn scalar_row_pass(
        q: &[f64],
        q_radius: f64,
        rows: &[f64],
        radii: &[f64],
        seed: (usize, f64),
    ) -> ((usize, f64), Vec<(usize, f64)>) {
        let mut best = seed;
        let mut hits = Vec::new();
        for (k, (row, &rk)) in rows.chunks_exact(q.len()).zip(radii).enumerate() {
            let csq = vector::sq_dist(q, row);
            let dr = q_radius - rk;
            let joint = csq + dr * dr;
            if joint < best.1 {
                best = (k, joint);
            }
            let radius_sum = q_radius + rk;
            if csq <= radius_sum * radius_sum {
                let spread = csq.sqrt().max((q_radius - rk).abs());
                let degree = 1.0 - spread / radius_sum;
                if degree > 0.0 {
                    hits.push((k, degree));
                }
            }
        }
        (best, hits)
    }

    /// Twin check plus the row-pass check in one: the dispatched kernel,
    /// its scalar twin and the row-at-a-time pass over the same
    /// (row-major, already padded) rows all agree bit for bit.
    fn assert_block_matches_row_pass(
        q: &[f64],
        q_radius: f64,
        rows: &[f64],
        radii: &[f64],
        seed: (usize, f64),
    ) -> BlockPass {
        let mut aosoa = Vec::new();
        pack_quads_aosoa(rows, q.len(), &mut aosoa);
        let pass = block_kernel_pair(q, q_radius, &aosoa, radii, seed);
        let (best_want, hits_want) = scalar_row_pass(q, q_radius, rows, radii, seed);
        let ctx = format!("d={} rows={} θ={q_radius:e}", q.len(), radii.len());
        assert_eq!(pass.best.0, best_want.0, "{ctx}");
        assert_eq!(pass.best.1.to_bits(), best_want.1.to_bits(), "{ctx}");
        let hits = walk(&pass, q_radius, radii);
        assert_eq!(hits.len(), hits_want.len(), "{ctx} hit count");
        for ((ka, da), (kb, db)) in hits.iter().zip(&hits_want) {
            assert_eq!((ka, da.to_bits()), (kb, db.to_bits()), "{ctx}");
        }
        pass
    }

    const NO_CANDIDATE: usize = usize::MAX;

    #[test]
    fn block_kernel_matches_the_scalar_row_pass() {
        for d in [1usize, 2, 3, 4, 5, 7, 8, 9, 64] {
            for nr in [4usize, 8, 16, 36, 64] {
                let q = random_rows(1, d, 17 + d as u64);
                let rows = random_rows(nr, d, 500 + (d * nr) as u64);
                let radii: Vec<f64> = (0..nr)
                    .map(|i| 0.3 + (i as f64 * 0.41).sin().abs())
                    .collect();
                for q_radius in [0.0, -0.1, 0.05, 0.4, 1.2, 6.0, 60.0] {
                    assert_block_matches_row_pass(&q, q_radius, &rows, &radii, (0, f64::INFINITY));
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
        let (best_want, hits_want) = scalar_row_pass(&q, 4.0, &rows, &radii, (0, f64::INFINITY));
        assert!(!hits_want.is_empty(), "the probe must overlap something");
        // Pad to eight rows with +inf centers and zero radii.
        let mut padded = rows.clone();
        padded.extend_from_slice(&[f64::INFINITY; 6]);
        let mut radii_pad = radii.clone();
        radii_pad.extend_from_slice(&[0.0; 2]);
        let pass = assert_block_matches_row_pass(&q, 4.0, &padded, &radii_pad, (0, f64::INFINITY));
        assert_eq!(pass.best.0, best_want.0);
        assert_eq!(pass.best.1.to_bits(), best_want.1.to_bits());
        assert_eq!(pass.mask >> 6, 0, "finite reach: pad bits are clear");
        assert_eq!(walk(&pass, 4.0, &radii_pad), hits_want);
        // A reach whose square overflows sets the pad bits (`inf ≤ inf`)
        // — which is why the layout trims the mask to its real rows.
        let wide = assert_block_matches_row_pass(&q, 1e200, &padded, &radii_pad, (0, 0.0));
        assert_eq!(wide.mask, 0xff);
    }

    #[test]
    fn block_kernel_agrees_with_its_scalar_twin_on_ties_pads_and_seeds() {
        for d in [1usize, 2, 4, 5, 8, 9, 64] {
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
                let q_radius = 0.25;
                let run = |q_radius: f64, seed: (usize, f64)| {
                    assert_block_matches_row_pass(&q, q_radius, &rows, &radii, seed)
                };
                // The tied rows' joint distance (radii equal the probe's).
                let tie = vector::sq_dist(&q, &row0);
                let free = run(q_radius, (NO_CANDIDATE, f64::INFINITY)).best;
                assert!(free.0 < nr, "pad rows never win");
                // Seeded exactly at the block minimum: strict `<` finds
                // nothing and the sentinel survives ...
                let at = run(q_radius, (NO_CANDIDATE, free.1)).best;
                assert_eq!(at, (NO_CANDIDATE, free.1));
                // ... one ulp above it, the first minimal row is reported.
                let above = run(q_radius, (NO_CANDIDATE, free.1.next_up())).best;
                assert_eq!(above.0, free.0);
                assert_eq!(above.1.to_bits(), free.1.to_bits());
                // Seeded just above the tie value: the lowest tied row.
                let tied = run(q_radius, (NO_CANDIDATE, tie.next_up())).best;
                if free.1 == tie {
                    assert_eq!(tied.0, 0, "ties keep the lowest row");
                }
                // A seed below everything leaves best untouched but still
                // reports overlap members.
                let below = run(500.0, (NO_CANDIDATE, -1.0));
                assert_eq!(below.best, (NO_CANDIDATE, -1.0));
                assert_eq!(
                    below.mask.count_ones() as usize,
                    nr,
                    "a domain-sized ball overlaps every real row"
                );
            }
        }
    }

    #[test]
    fn block_kernel_hostile_centres_radii_and_queries() {
        let hostile = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        for d in [1usize, 2, 4, 5, 8, 9, 64] {
            for nr in [4usize, 12, 40, 64] {
                let base_rows = random_rows(nr, d, 300 + (3 * d + nr) as u64);
                let base_radii: Vec<f64> = (0..nr).map(|i| 0.2 + 0.01 * i as f64).collect();
                let base_q = random_rows(1, d, 310 + d as u64);
                for (n, &bad) in hostile.iter().enumerate() {
                    // One poisoned centre coordinate, one poisoned radius,
                    // each in its own row.
                    let mut rows = base_rows.clone();
                    let mut radii = base_radii.clone();
                    rows[(1 + n) * d % (nr * d)] = bad;
                    radii[(2 + n) % nr] = bad;
                    for theta in [0.3, 0.0, -0.1, f64::INFINITY, f64::NAN] {
                        for seed in [(0, f64::INFINITY), (NO_CANDIDATE, 1.0f64.next_up())] {
                            assert_block_matches_row_pass(&base_q, theta, &rows, &radii, seed);
                            // ... and one poisoned query coordinate.
                            let mut q = base_q.clone();
                            q[n % d] = bad;
                            assert_block_matches_row_pass(&q, theta, &rows, &radii, seed);
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "multiple of QUAD")]
    fn block_kernel_rejects_a_partial_quad() {
        let mut csq = [0.0; ROW_TILE];
        winner_mask_block_aosoa(&[0.0], 1.0, &[0.0; 3], &[0.0; 3], &mut (0, 0.0), &mut csq);
    }

    #[test]
    #[should_panic(expected = "more than ROW_TILE rows")]
    fn block_kernel_rejects_more_rows_than_mask_bits() {
        let mut csq = [0.0; ROW_TILE];
        let rows = [0.0; ROW_TILE + QUAD];
        winner_mask_block_aosoa(&[0.0], 1.0, &rows, &rows, &mut (0, 0.0), &mut csq);
    }

    /// One block's `(lo, hi, r_min, r_max)` as handed to `set_block`.
    type BlockBox = (Vec<f64>, Vec<f64>, f64, f64);

    /// Bound groups over `blocks` random boxes of dimension `d`, with the
    /// row-major boxes they were set from.
    fn random_bounds(blocks: usize, d: usize, seed: u64) -> (BoundGroups, Vec<BlockBox>) {
        let mut groups = BoundGroups::unbounded(blocks, d);
        let mut boxes = Vec::new();
        for b in 0..blocks {
            let a = random_rows(1, d, seed + 2 * b as u64);
            let w = random_rows(1, d, seed + 2 * b as u64 + 1);
            let lo: Vec<f64> = a.iter().zip(&w).map(|(a, w)| a - w.abs() * 0.1).collect();
            let hi: Vec<f64> = a.iter().zip(&w).map(|(a, w)| a + w.abs() * 0.1).collect();
            let (r_min, r_max) = (0.05 + 0.01 * b as f64, 0.2 + 0.02 * b as f64);
            groups.set_block(b, &lo, &hi, r_min, r_max);
            boxes.push((lo, hi, r_min, r_max));
        }
        (groups, boxes)
    }

    /// Dispatched grouped bounds, asserted bit-identical to the scalar
    /// twin on every lane — pad lanes included.
    fn bounds_pair(groups: &BoundGroups, q: &[f64], q_radius: f64) -> (Vec<f64>, Vec<f64>) {
        let n = groups.lanes();
        let (mut lb, mut gated) = (vec![1.5; n], vec![1.5; n]);
        let (mut lb_s, mut gated_s) = (vec![2.5; n], vec![2.5; n]);
        groups.bounds_into(q, q_radius, &mut lb, &mut gated);
        groups.bounds_into_scalar(q, q_radius, &mut lb_s, &mut gated_s);
        for b in 0..n {
            assert_eq!(
                lb[b].to_bits(),
                lb_s[b].to_bits(),
                "lb lane {b} θ={q_radius:e}"
            );
            assert_eq!(gated[b].to_bits(), gated_s[b].to_bits(), "gate lane {b}");
        }
        (lb, gated)
    }

    #[test]
    fn grouped_bounds_agree_with_the_scalar_twin_and_the_per_block_form() {
        for d in [1usize, 2, 4, 5, 8, 9, 64] {
            for blocks in [1usize, 3, 4, 5, 17, 64] {
                let (groups, boxes) = random_bounds(blocks, d, 40 + (d * blocks) as u64);
                assert_eq!(groups.lanes(), blocks.div_ceil(QUAD) * QUAD);
                for probe in 0..6u64 {
                    let q = random_rows(1, d, 70 + probe);
                    for q_radius in [0.0, 0.01, 0.3, 4.0, -0.1] {
                        let (lb, gated) = bounds_pair(&groups, &q, q_radius);
                        for (b, (lo, hi, r_min, r_max)) in boxes.iter().enumerate() {
                            // The per-block form the layout used to
                            // evaluate (`f64::max`): on finite inputs the
                            // grouped kernel takes the same decisions.
                            let mut bb = 0.0;
                            for ((&l, &h), &qc) in lo.iter().zip(hi).zip(&q) {
                                let gap = (l - qc).max(qc - h).max(0.0);
                                bb += gap * gap;
                            }
                            let rad_gap = (r_min - q_radius).max(q_radius - r_max).max(0.0);
                            let (s_lo, s_hi) = (q_radius + r_min, q_radius + r_max);
                            let reach = (s_lo * s_lo).max(s_hi * s_hi);
                            let want = bb + rad_gap * rad_gap;
                            assert_eq!(lb[b].to_bits(), want.to_bits(), "d={d} block {b}");
                            let gate = if bb > reach { want } else { f64::NEG_INFINITY };
                            assert_eq!(gated[b].to_bits(), gate.to_bits(), "d={d} block {b}");
                        }
                        // Pad lanes: the unbounded box — zero gaps, an
                        // infinite reach, never skipped.
                        for b in blocks..groups.lanes() {
                            assert_eq!((lb[b], gated[b]), (0.0, f64::NEG_INFINITY));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn grouped_bounds_hostile_queries_and_boxes_never_open_the_gate_on_a_nan() {
        let hostile = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        for d in [1usize, 2, 5, 8, 9, 64] {
            let (mut groups, _) = random_bounds(6, d, 11 + d as u64);
            // Block 2: the unbounded box a non-finite block keeps.
            let (lo, hi) = (vec![f64::NEG_INFINITY; d], vec![f64::INFINITY; d]);
            groups.set_block(2, &lo, &hi, f64::NEG_INFINITY, f64::INFINITY);
            let base_q = random_rows(1, d, 23);
            for (n, &bad) in hostile.iter().enumerate() {
                for theta in [0.3, 0.0, -0.1, f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
                    let mut q = base_q.clone();
                    let (_, gated) = bounds_pair(&groups, &q, theta);
                    assert_eq!(gated[2], f64::NEG_INFINITY, "unbounded box, θ={theta:e}");
                    q[n % d] = bad;
                    let (lb, gated) = bounds_pair(&groups, &q, theta);
                    assert_eq!(gated[2], f64::NEG_INFINITY, "unbounded box, θ={theta:e}");
                    for b in 0..groups.lanes() {
                        // A gap is never NaN (the outer max returns 0),
                        // so only `θ` can poison `lb` — and then it has
                        // poisoned `reach` and the gate is shut.
                        assert!(!gated[b].is_nan());
                        assert!(!lb[b].is_nan() || gated[b] == f64::NEG_INFINITY);
                        if theta.is_nan() {
                            assert_eq!(gated[b], f64::NEG_INFINITY, "NaN θ verifies");
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "the interpreter may keep addresses symbolic")]
    fn aligned_storage_sits_on_a_cache_line_after_filled_and_after_clone() {
        let on_line = |a: &[f64]| (a.as_ptr() as usize).is_multiple_of(AlignedF64s::ALIGN);
        // Odd-sized live allocations in between shift what the allocator
        // hands out next.
        let mut keep_alive = Vec::new();
        for len in [0usize, 1, 7, 8, 9, 63, 1000] {
            keep_alive.push(vec![0u8; 8 + len % 5 * 16]);
            let mut a = AlignedF64s::filled(len, 1.5);
            assert_eq!(a.len(), len);
            assert!(a.iter().all(|&v| v == 1.5));
            if let Some(last) = a.last_mut() {
                *last = -2.0;
            }
            keep_alive.push(vec![0u8; 24]);
            let b = a.clone();
            assert!(on_line(&a) && on_line(&b), "len {len}");
            assert_eq!(&a[..], &b[..]);
        }
        for blocks in [1usize, 4, 5, 64, 65] {
            keep_alive.push(vec![0u8; 40]);
            let mut groups = random_bounds(blocks, 3, blocks as u64).0;
            for g in [&groups, &groups.clone()] {
                for a in [&g.lo, &g.hi, &g.r_min, &g.r_max] {
                    assert!(on_line(a), "{blocks} blocks");
                }
            }
            // ... and after growth moved every array to a new allocation.
            groups.grow(4 * blocks + 1);
            for a in [&groups.lo, &groups.hi, &groups.r_min, &groups.r_max] {
                assert!(on_line(a), "{blocks} blocks grown");
            }
        }
        let mut a = AlignedF64s::filled(3, 1.0);
        for len in [4usize, 9, 40, 41, 1000, 7] {
            keep_alive.push(vec![0u8; 8 + len % 3 * 8]);
            a.resize(len, len as f64);
            assert!(on_line(&a), "resized to {len}");
        }
    }

    #[test]
    fn resize_keeps_the_contents_and_fills_the_tail() {
        let mut a = AlignedF64s::filled(5, 0.5);
        a[4] = -3.0;
        a.resize(200, 2.0);
        assert_eq!(&a[..5], &[0.5, 0.5, 0.5, 0.5, -3.0]);
        assert!(a[5..].iter().all(|&v| v == 2.0));
        a.resize(3, 9.0);
        assert_eq!(&a[..], &[0.5; 3]);
        a.resize(6, 7.0);
        assert_eq!(&a[..], &[0.5, 0.5, 0.5, 7.0, 7.0, 7.0]);
    }

    #[test]
    fn grown_lanes_start_unbounded_and_old_lanes_keep_their_boxes() {
        for d in [1usize, 3, 9] {
            let (mut groups, boxes) = random_bounds(5, d, 60 + d as u64);
            let q = random_rows(1, d, 61);
            let (lb_before, gated_before) = bounds_pair(&groups, &q, 0.2);
            groups.grow(5);
            assert_eq!(groups.lanes(), 8, "room for five blocks is two groups");
            groups.grow(13);
            assert_eq!(groups.lanes(), 16);
            let (lb, gated) = bounds_pair(&groups, &q, 0.2);
            for b in 0..boxes.len() {
                assert_eq!(lb[b].to_bits(), lb_before[b].to_bits(), "d={d} block {b}");
                assert_eq!(gated[b].to_bits(), gated_before[b].to_bits());
            }
            for b in boxes.len()..groups.lanes() {
                assert_eq!(
                    (lb[b], gated[b]),
                    (0.0, f64::NEG_INFINITY),
                    "d={d} lane {b}"
                );
            }
        }
    }

    #[test]
    fn fit_block_is_the_row_fold_or_the_unbounded_box() {
        for d in [1usize, 2, 5, 9] {
            for rows in [1usize, 3, 4, 7, ROW_TILE] {
                let centers = random_rows(rows, d, 90 + (d * rows) as u64);
                let radii: Vec<f64> = (0..rows).map(|i| 0.1 + (i as f64 * 0.7).cos()).collect();
                let mut padded = centers.clone();
                padded.resize(rows.div_ceil(QUAD) * QUAD * d, f64::INFINITY);
                let mut quads = Vec::new();
                pack_quads_aosoa(&padded, d, &mut quads);
                // The fold the layout used to run on its row-major rows.
                let (mut lo, mut hi) = (vec![f64::INFINITY; d], vec![f64::NEG_INFINITY; d]);
                for row in centers.chunks_exact(d) {
                    for c in 0..d {
                        lo[c] = lo[c].min(row[c]);
                        hi[c] = hi[c].max(row[c]);
                    }
                }
                let r_min = radii.iter().fold(f64::INFINITY, |m, &r| m.min(r));
                let r_max = radii.iter().fold(f64::NEG_INFINITY, |m, &r| m.max(r));
                let mut want = BoundGroups::unbounded(6, d);
                want.set_block(5, &lo, &hi, r_min, r_max);
                let mut got = BoundGroups::unbounded(6, d);
                got.fit_block(5, &quads, &radii);
                let q = random_rows(1, d, 7);
                for theta in [0.05, 0.4] {
                    assert_eq!(bounds_pair(&got, &q, theta), bounds_pair(&want, &q, theta));
                }
                // One poisoned centre coordinate or radius: the lane goes
                // back to the unbounded box, and fitting clean rows again
                // makes it tight again.
                for poison in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                    let mut bad = quads.clone();
                    bad[aosoa_row_base(rows - 1, d) + QUAD * (d - 1)] = poison;
                    got.fit_block(5, &bad, &radii);
                    let (lb, gated) = bounds_pair(&got, &q, 0.2);
                    assert_eq!((lb[5], gated[5]), (0.0, f64::NEG_INFINITY));
                    let mut bad_radii = radii.clone();
                    bad_radii[0] = poison;
                    got.fit_block(5, &quads, &bad_radii);
                    assert_eq!(bounds_pair(&got, &q, 0.2).1[5], f64::NEG_INFINITY);
                    got.fit_block(5, &quads, &radii);
                    assert_eq!(bounds_pair(&got, &q, 0.2), bounds_pair(&want, &q, 0.2));
                }
            }
        }
    }
}
