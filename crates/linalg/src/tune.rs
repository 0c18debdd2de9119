//! Serving-path tile-shape tuning constants — the single home of the
//! numbers that used to live as duplicated doc-knowledge in
//! `regq_core::arena` and the kernels.
//!
//! The pruned serving layout (`regq_core::arena::BlockLayout`) clusters
//! the prototypes into blocks of at most [`ROW_TILE`] rows. One block is
//! `ROW_TILE × d` doubles — 2 KiB at `d = 4` — sized to stay L1-resident
//! while the whole-block kernel
//! ([`crate::simd::winner_mask_block_aosoa`]) streams over it **and to
//! fit one mask word**: the kernel answers a block's overlap membership
//! as one bit per row of a `u64` and leaves the rows' squared centre
//! distances in a `[f64; ROW_TILE]` scratch. It is the unit a block bound
//! skips or verifies.
//!
//! The shape carries *correctness* load beyond tuning: the kernels
//! process rows four at a time ([`QUAD`]), centers are stored
//! quad-interleaved, and every block must start on a quad boundary of the
//! padded arrays. That holds exactly when `ROW_TILE` is a multiple of
//! [`QUAD`], which is asserted at compile time below and re-asserted (as
//! a debug assertion) wherever a block is handed to the kernel
//! ([`assert_tile_invariants`]). The one-word mask holds exactly when
//! `ROW_TILE ≤ 64`, asserted beside it; the kernel's dispatch site
//! re-asserts it on the block it is handed.

/// Rows processed per fused-kernel iteration (the 4-lane quad of
/// [`crate::simd::sq_dists4_aosoa`]). Fixed by the kernel shape, not
/// tunable.
pub const QUAD: usize = 4;

/// Largest prototype block of the pruned serving layout. Must stay a
/// multiple of [`QUAD`] so a full block needs no pad rows and every block
/// starts on a quad boundary, and at most `u64::BITS` so a block's
/// membership mask is one word.
pub const ROW_TILE: usize = 64;

// Compile-time checks: the quad-alignment precondition, the one-word
// membership mask and basic sanity.
const _: () = assert!(
    ROW_TILE.is_multiple_of(QUAD),
    "ROW_TILE must be a multiple of QUAD"
);
const _: () = assert!(
    ROW_TILE <= u64::BITS as usize,
    "ROW_TILE rows must fit one u64 membership mask"
);
const _: () = assert!(ROW_TILE > 0);

/// Debug-assert the tile divisibility invariants at a use site.
///
/// `base` is the index of a block's first row in the padded arrays: the
/// quad-interleaved kernels are only correct when every block starts on a
/// quad boundary, so the layout asserts its block starts through this
/// before handing a block to the kernel.
#[inline]
pub fn assert_tile_invariants(base: usize) {
    debug_assert!(
        base.is_multiple_of(QUAD),
        "tile base {base} must sit on a quad boundary (multiple of {QUAD})"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_tile_is_quad_aligned() {
        assert_eq!(ROW_TILE % QUAD, 0);
        assert_tile_invariants(0);
        assert_tile_invariants(ROW_TILE);
        assert_tile_invariants(3 * ROW_TILE);
    }

    #[test]
    #[should_panic(expected = "quad boundary")]
    #[cfg(debug_assertions)]
    fn misaligned_tile_base_is_caught() {
        assert_tile_invariants(2);
    }
}
