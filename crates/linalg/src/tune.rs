//! Serving-path tile-shape tuning constants — the single home of the
//! numbers that used to live as duplicated doc-knowledge in
//! `regq_core::arena` and [`crate::vector`].
//!
//! The batched serving drivers cut their work into two nested tiles:
//!
//! * [`ROW_TILE`] prototype rows per cut of the packed center block. One
//!   cut is `ROW_TILE × d` doubles — 2 KiB at `d = 4` — sized to stay
//!   L1-resident while every query of a block streams over it.
//! * [`QUERY_BLOCK`] queries resolved per prototype pass, so the
//!   per-query winner state and overlap scratch of one block stay
//!   cache-resident while the prototype tiles stream past them.
//!
//! Both shapes carry *correctness* load beyond tuning: the fused kernels
//! process rows four at a time ([`crate::vector::sq_dists4`]), and the
//! bit-identity argument of the batched drivers requires quad boundaries
//! inside a tile to line up with the arena-global quad boundaries of the
//! scalar kernels. That holds exactly when `ROW_TILE` is a multiple of
//! [`QUAD`], which is asserted at compile time below and re-asserted (as
//! a debug assertion) wherever a tile is actually cut
//! ([`assert_tile_invariants`]).

/// Rows processed per fused-kernel iteration (the 4-lane quad of
/// [`crate::vector::sq_dists4`]). Fixed by the kernel shape, not tunable.
pub const QUAD: usize = 4;

/// Prototype rows per cut of a packed center block. Must stay a multiple
/// of [`QUAD`] so quad boundaries inside a cut line up with the scalar
/// kernels' — the bit-identity precondition of the batched drivers.
pub const ROW_TILE: usize = 64;

/// Queries resolved per prototype pass of the batched drivers.
pub const QUERY_BLOCK: usize = 16;

// Compile-time checks: the bit-identity precondition and basic sanity.
const _: () = assert!(
    ROW_TILE.is_multiple_of(QUAD),
    "ROW_TILE must be a multiple of QUAD"
);
const _: () = assert!(ROW_TILE > 0 && QUERY_BLOCK > 0);

/// Debug-assert the tile divisibility invariants at a use site.
///
/// `base` is the arena-global index of a tile's first row: the fused
/// kernels only preserve bit-identity when every tile starts on a quad
/// boundary, so callers cutting the packed center block assert their cut
/// points through this before handing tiles to the kernels.
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
