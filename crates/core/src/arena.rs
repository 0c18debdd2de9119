//! Struct-of-arrays prototype storage — the serving-path data layout.
//!
//! The paper's `O(dK)` serving claim (Algorithms 2–3) makes the
//! winner/overlap scan over the `K` prototypes the hot loop of every
//! prediction. The original layout — a `Vec<Prototype>` where each
//! prototype owns its `center`/`b_x` heap allocations — pays a pointer
//! chase per prototype per query. The [`PrototypeArena`] instead packs the
//! parameter triplets `α_k = (w_k, y_k, b_k)` into six contiguous,
//! dimension-strided blocks:
//!
//! ```text
//! centers   [x_0 | x_1 | … | x_{K−1}]   K·d
//! radii     [θ_0, θ_1, …, θ_{K−1}]      K
//! ys        [y_0, y_1, …, y_{K−1}]      K
//! b_xs      [b_0 | b_1 | … | b_{K−1}]   K·d
//! b_thetas  [bΘ_0, …, bΘ_{K−1}]         K
//! updates   [n_0, …, n_{K−1}]           K
//! ```
//!
//! so a scan over the `K` prototypes streams linearly through memory.
//! Two **scalar passes** over these blocks are the oracle of the crate,
//! each its own definition evaluated row by row:
//! [`PrototypeArena::winner`], the closest prototype under the joint
//! distance (Definition 5), and [`PrototypeArena::overlap_set_into`], the
//! paper's Eq. 9. `LlmModel`'s predictors and the snapshot's unpruned ones fuse
//! over them (`predict::fuse_oracle`). Production searches go through
//! the [`BlockLayout`] below instead, and are pinned bit-identical to
//! the scalar passes: the served path resolves through a capture-time
//! layout (the `serving_equivalence` battery), and the trainer finds
//! Algorithm 1's winner on a live one that follows every update and
//! spawn (the `trainer_equivalence` battery).
//!
//! [`crate::prototype::Prototype`] remains the *owned* exchange form used
//! at the API edges (persistence, codebook surgery, snapshots); on the
//! serving path it is reduced to the borrowed views [`PrototypeRef`] /
//! [`PrototypeRefMut`] over the arena blocks.

// A hot-path module: every panic site names its invariant
// (docs/INVARIANTS.md, the panic policy).
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::overlap::overlap_degree_parts;
use crate::prototype::Prototype;
use crate::query::Query;
use regq_linalg::simd;
use regq_linalg::tune::{self, QUAD, ROW_TILE};
use regq_linalg::vector;

/// The result of one batched winner/overlap resolution
/// ([`BlockLayout::resolve_batch_pruned`]): per query, the winner `(index,
/// squared joint distance)` and the overlap neighborhood `W(q)` as CSR
/// `(offsets, entries)` slices. Reusable — internal buffers are
/// retained across calls, so a serving thread resolves batches
/// allocation-free in steady state.
///
/// The members of one query are left in **block order**: the verified
/// blocks in the order they were verified, ascending arena index inside
/// each. That is the set the scalar pass finds, every degree bit for bit,
/// but not its order — putting `W(q)` in ascending index is done once per
/// served answer, by `regq_core::snapshot`'s resolve-and-fold driver
/// (`docs/INVARIANTS.md`, "ordered emission"), and only for the queries
/// whose members arrive out of order.
#[derive(Debug, Default)]
pub struct BatchResolution {
    winners: Vec<(usize, f64)>,
    offsets: Vec<usize>,
    entries: Vec<(usize, f64)>,
    scratch: SearchScratch,
}

impl BatchResolution {
    /// Empty resolution ready to be filled by
    /// [`BlockLayout::resolve_batch_pruned`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of resolved queries.
    pub fn len(&self) -> usize {
        self.winners.len()
    }

    /// `true` when no queries are resolved.
    pub fn is_empty(&self) -> bool {
        self.winners.is_empty()
    }

    /// Winner `(index, squared joint distance)` of query `i` — identical
    /// to [`PrototypeArena::winner`] for the same query.
    pub fn winner(&self, i: usize) -> (usize, f64) {
        self.winners[i]
    }

    /// Overlap neighborhood `W(q_i)` in block order (see the type docs)
    /// — as a set, members and degrees identical to
    /// [`PrototypeArena::overlap_set_into`] for the same query.
    pub fn overlap(&self, i: usize) -> &[(usize, f64)] {
        &self.entries[self.offsets[i]..self.offsets[i + 1]]
    }

    fn clear(&mut self) {
        self.winners.clear();
        self.offsets.clear();
        self.entries.clear();
    }
}

/// Contiguous struct-of-arrays storage for `K` prototypes of dimension `d`.
///
/// Invariants: `centers.len() == b_xs.len() == len·dim` and
/// `radii/ys/b_thetas/updates` all have length `len`.
#[derive(Debug, Clone, PartialEq)]
pub struct PrototypeArena {
    dim: usize,
    len: usize,
    centers: Vec<f64>,
    radii: Vec<f64>,
    ys: Vec<f64>,
    b_xs: Vec<f64>,
    b_thetas: Vec<f64>,
    updates: Vec<u64>,
}

/// Borrowed view of one prototype's parameter triplet (the serving-path
/// replacement for `&Prototype`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrototypeRef<'a> {
    /// Prototype center `x_k`.
    pub center: &'a [f64],
    /// Prototype radius `θ_k`.
    pub radius: f64,
    /// Local intercept `y_k`.
    pub y: f64,
    /// Local slope over the input coordinates, `b_{X,k}`.
    pub b_x: &'a [f64],
    /// Local slope over the radius coordinate, `b_{Θ,k}`.
    pub b_theta: f64,
    /// SGD update count.
    pub updates: u64,
}

impl PrototypeRef<'_> {
    /// Materialize an owned [`Prototype`] from this view.
    pub fn to_prototype(&self) -> Prototype {
        Prototype {
            center: self.center.to_vec(),
            radius: self.radius,
            y: self.y,
            b_x: self.b_x.to_vec(),
            b_theta: self.b_theta,
            updates: self.updates,
        }
    }
}

/// Mutable view of one prototype (training and codebook surgery).
#[derive(Debug)]
pub struct PrototypeRefMut<'a> {
    /// Prototype center `x_k`.
    pub center: &'a mut [f64],
    /// Prototype radius `θ_k`.
    pub radius: &'a mut f64,
    /// Local intercept `y_k`.
    pub y: &'a mut f64,
    /// Local slope over the input coordinates, `b_{X,k}`.
    pub b_x: &'a mut [f64],
    /// Local slope over the radius coordinate, `b_{Θ,k}`.
    pub b_theta: &'a mut f64,
    /// SGD update count.
    pub updates: &'a mut u64,
}

impl PrototypeArena {
    /// Empty arena for prototypes of dimension `dim` (`dim ≥ 1`).
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "PrototypeArena requires dim >= 1");
        PrototypeArena {
            dim,
            len: 0,
            centers: Vec::new(),
            radii: Vec::new(),
            ys: Vec::new(),
            b_xs: Vec::new(),
            b_thetas: Vec::new(),
            updates: Vec::new(),
        }
    }

    /// Build from owned prototypes (persistence / model reconstruction).
    ///
    /// # Panics
    /// Panics if any prototype's `center` or `b_x` length differs from
    /// `dim` (callers validate first and surface a typed error).
    pub fn from_prototypes(dim: usize, protos: &[Prototype]) -> Self {
        let mut arena = Self::new(dim);
        for p in protos {
            arena.push(PrototypeRef {
                center: &p.center,
                radius: p.radius,
                y: p.y,
                b_x: &p.b_x,
                b_theta: p.b_theta,
                updates: p.updates,
            });
        }
        arena
    }

    /// Number of prototypes `K`.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the arena holds no prototypes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Input dimensionality `d`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The packed center block (`len·dim`, dimension-strided).
    #[inline]
    pub fn centers(&self) -> &[f64] {
        &self.centers
    }

    /// The radius block.
    #[inline]
    pub fn radii(&self) -> &[f64] {
        &self.radii
    }

    /// Center of prototype `k`.
    #[inline]
    pub fn center(&self, k: usize) -> &[f64] {
        &self.centers[k * self.dim..(k + 1) * self.dim]
    }

    /// Radius of prototype `k`.
    #[inline]
    pub fn radius(&self, k: usize) -> f64 {
        self.radii[k]
    }

    /// Intercept of prototype `k`.
    #[inline]
    pub fn y(&self, k: usize) -> f64 {
        self.ys[k]
    }

    /// Input slope row of prototype `k`.
    #[inline]
    pub fn b_x(&self, k: usize) -> &[f64] {
        &self.b_xs[k * self.dim..(k + 1) * self.dim]
    }

    /// Radius slope of prototype `k`.
    #[inline]
    pub fn b_theta(&self, k: usize) -> f64 {
        self.b_thetas[k]
    }

    /// Update count of prototype `k`.
    #[inline]
    pub fn updates(&self, k: usize) -> u64 {
        self.updates[k]
    }

    /// Borrowed view of prototype `k`.
    #[inline]
    pub fn view(&self, k: usize) -> PrototypeRef<'_> {
        PrototypeRef {
            center: self.center(k),
            radius: self.radii[k],
            y: self.ys[k],
            b_x: self.b_x(k),
            b_theta: self.b_thetas[k],
            updates: self.updates[k],
        }
    }

    /// Mutable view of prototype `k`.
    #[inline]
    pub fn view_mut(&mut self, k: usize) -> PrototypeRefMut<'_> {
        let d = self.dim;
        PrototypeRefMut {
            center: &mut self.centers[k * d..(k + 1) * d],
            radius: &mut self.radii[k],
            y: &mut self.ys[k],
            b_x: &mut self.b_xs[k * d..(k + 1) * d],
            b_theta: &mut self.b_thetas[k],
            updates: &mut self.updates[k],
        }
    }

    /// Iterate over all prototypes as borrowed views.
    pub fn iter(&self) -> impl Iterator<Item = PrototypeRef<'_>> {
        (0..self.len).map(|k| self.view(k))
    }

    /// Materialize the whole codebook as owned prototypes (API-edge
    /// snapshot — allocates; never used on the serving path).
    pub fn to_prototypes(&self) -> Vec<Prototype> {
        self.iter().map(|p| p.to_prototype()).collect()
    }

    /// Append a prototype spawned from a query with zero-initialized
    /// coefficients (Algorithm 1 initialization / design decision D-4).
    ///
    /// `updates` starts at 1: creation *is* the first observation, so the
    /// next hyperbolic-schedule update uses `η = 1/2` and the prototype
    /// becomes the running average of the queries it wins (rather than
    /// fully forgetting its spawn position at `η = 1`).
    pub fn push_query(&mut self, center: &[f64], radius: f64) {
        assert_eq!(center.len(), self.dim, "push_query: dimension mismatch");
        self.centers.extend_from_slice(center);
        self.radii.push(radius);
        self.ys.push(0.0);
        self.b_xs.resize(self.b_xs.len() + self.dim, 0.0);
        self.b_thetas.push(0.0);
        self.updates.push(1);
        self.len += 1;
    }

    /// Append a prototype given as a view: of an owned [`Prototype`]
    /// ([`PrototypeArena::from_prototypes`]) or of another arena's row
    /// ([`PrototypeArena::view`]).
    ///
    /// # Panics
    /// Panics on a `center`/`b_x` length mismatch with the arena dimension.
    pub fn push(&mut self, p: PrototypeRef<'_>) {
        assert_eq!(p.center.len(), self.dim, "push: center dimension mismatch");
        assert_eq!(p.b_x.len(), self.dim, "push: slope dimension mismatch");
        self.centers.extend_from_slice(p.center);
        self.radii.push(p.radius);
        self.ys.push(p.y);
        self.b_xs.extend_from_slice(p.b_x);
        self.b_thetas.push(p.b_theta);
        self.updates.push(p.updates);
        self.len += 1;
    }

    /// Evaluate the LLM `f_k(x, θ)` of prototype `k` (Eq. 5/12):
    /// `y_k + b_{X,k}(x − x_k)ᵀ + b_{Θ,k}(θ − θ_k)`.
    #[inline]
    pub fn eval(&self, k: usize, x: &[f64], theta: f64) -> f64 {
        debug_assert_eq!(x.len(), self.dim);
        let mut v = self.ys[k] + self.b_thetas[k] * (theta - self.radii[k]);
        for ((bi, xi), ci) in self.b_x(k).iter().zip(x.iter()).zip(self.center(k).iter()) {
            v += bi * (xi - ci);
        }
        v
    }

    /// Evaluate the LLM of prototype `k` at its own radius, `f_k(x, θ_k)`
    /// — the data-function approximation of Theorem 3 / Eq. (13).
    #[inline]
    pub fn eval_at_own_radius(&self, k: usize, x: &[f64]) -> f64 {
        self.eval(k, x, self.radii[k])
    }

    /// The local linear model of the *data* function over `D_k`
    /// (Theorem 3): `(intercept, slope)` with
    /// `intercept = y_k − b_{X,k}·x_kᵀ` and `slope = b_{X,k}`.
    pub fn local_line(&self, k: usize) -> (f64, &[f64]) {
        let mut intercept = self.ys[k];
        for (bi, ci) in self.b_x(k).iter().zip(self.center(k).iter()) {
            intercept -= bi * ci;
        }
        (intercept, self.b_x(k))
    }

    /// Winner search over the arena: index and squared *joint* query-space
    /// distance (Definition 5) of the prototype closest to
    /// `(center, radius)`; `None` on an empty arena.
    ///
    /// The definition, row by row: `‖x − x_k‖² + (θ − θ_k)²` per
    /// prototype ([`Query::sq_dist_parts`]'s sequence), from the seed
    /// `(0, ∞)` under strict `<`, so ties keep the lowest index — the
    /// oracle the trainer's search (`BlockLayout::winner`) and the served
    /// resolver are held to, seeded alike. With non-finite parameters
    /// (impossible through validated training) the winner choice is
    /// unspecified.
    pub fn winner(&self, center: &[f64], radius: f64) -> Option<(usize, f64)> {
        if self.len == 0 {
            return None;
        }
        debug_assert_eq!(center.len(), self.dim);
        let mut best = (0usize, f64::INFINITY);
        let rows = self.centers.chunks_exact(self.dim).zip(&self.radii);
        for (k, (row, &rk)) in rows.enumerate() {
            let dr = radius - rk;
            let joint = vector::sq_dist(center, row) + dr * dr;
            if joint < best.1 {
                best = (k, joint);
            }
        }
        Some(best)
    }

    /// The overlap neighborhood `W(q)` (Eq. 10): `(k, δ(q, w_k))` for every
    /// prototype with `δ > 0`, appended to `out` (cleared first) in
    /// ascending `k` — one [`overlap_degree_parts`] (Eq. 9) per row, as
    /// the paper prints it.
    pub fn overlap_set_into(&self, center: &[f64], radius: f64, out: &mut Vec<(usize, f64)>) {
        out.clear();
        for k in 0..self.len {
            let degree = overlap_degree_parts(center, radius, self.center(k), self.radii[k]);
            if degree > 0.0 {
                out.push((k, degree));
            }
        }
    }

    /// Build the clustered, bounds-cached layout over the current
    /// prototypes ([`BlockLayout::build`]) — `O(dK + K log K)`, paid once
    /// per immutable snapshot capture.
    pub fn build_layout(&self) -> BlockLayout {
        BlockLayout::build(self)
    }
}

/// Counted — never silent — pruning telemetry from the bound-and-verify
/// resolution ([`BlockLayout::resolve_batch_pruned`]). One unit is one
/// `(query, block)` visit; `blocks = skipped + verified` always holds, so
/// a consumer can compute a skip rate without wondering whether some path
/// forgot to count.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ScreenCounters {
    /// `(query, block)` visits considered (`queries × layout blocks`).
    pub blocks: u64,
    /// Visits whose block bound was evaluated — every visit on a
    /// multi-block layout, none on a single-block one (which goes
    /// straight to the kernel).
    pub screened: u64,
    /// Visits pruned away — blocks never exact-verified for that query.
    pub skipped: u64,
    /// Visits exact-verified by the bit-exact AoSoA kernel.
    pub verified: u64,
}

impl std::ops::AddAssign for ScreenCounters {
    /// Field-wise sum: the counters of a batch split into runs are the
    /// sum of the runs' counters.
    fn add_assign(&mut self, run: Self) {
        self.blocks += run.blocks;
        self.screened += run.screened;
        self.skipped += run.skipped;
        self.verified += run.verified;
    }
}

/// Winner slot meaning "this block holds no candidate": the seed index
/// handed to the block kernel, left in place when no row's joint distance
/// reaches the running best.
const NO_CANDIDATE: usize = usize::MAX;

/// The scratch one bound-and-verify search runs in — retained, never
/// cleared, contents meaningless between calls, so a warm search makes no
/// allocator call. `lbs`: one query's block bounds, plain then gated, one
/// lane per block of the layout's bound groups (grown, never shrunk, as a
/// layout gains blocks). `csq`: the squared centre distances pass 1 of the
/// block kernel leaves for the walk over its mask — written for every row
/// the mask can name before it is read, so stale slots from another block
/// are never observed.
#[derive(Debug, Clone)]
pub(crate) struct SearchScratch {
    lbs: Vec<f64>,
    csq: [f64; ROW_TILE],
}

impl Default for SearchScratch {
    fn default() -> Self {
        SearchScratch {
            lbs: Vec::new(),
            csq: [0.0; ROW_TILE],
        }
    }
}

impl SearchScratch {
    /// Make room for `layout`'s bounds now. Every search does this
    /// first; a trainer also does it in the step that added a block
    /// ([`BlockLayout::push_row`]), so that the growth lands on that
    /// spawning step and not on the next search, which may be an update.
    pub(crate) fn size_for(&mut self, layout: &BlockLayout) {
        let lanes = layout.bounds.lanes();
        if self.lbs.len() < 2 * lanes {
            self.lbs.resize(2 * lanes, 0.0);
        }
    }
}

/// The clustered, bounds-cached layout behind bound-and-verify
/// resolution: [`PrototypeArena`] prototypes regrouped into spatially
/// coherent blocks of at most [`ROW_TILE`] rows (recursive widest-axis
/// median splits), each block carrying a cached center bounding box and
/// radius range, with centers stored AoSoA quad-interleaved for the
/// runtime-SIMD exact kernel (partial quads padded with `+inf` inert
/// rows). Everything a query streams — the centers, the padded radii, the
/// bound groups — sits in [`simd::AlignedF64s`], on a cache line by
/// construction (and again after a `clone` or a growth), so no 32-byte
/// load straddles two lines whatever the allocator handed out before.
///
/// It has two users, one storage. A [`crate::snapshot::ServingSnapshot`]
/// builds one at capture and never changes it:
/// [`BlockLayout::resolve_batch_pruned`] resolves winner/overlap in two
/// stages per query — the per-block lower bounds, four blocks per vector
/// iteration ([`simd::BoundGroups::bounds_into`]), discard blocks which
/// provably cannot contain the winner or any overlapping ball; then the
/// bit-exact two-pass block kernel runs over the rest (`verify_block`:
/// mask, then walk) — and produces a [`BatchResolution`]
/// **bit-identical** to the scalar passes ([`PrototypeArena::winner`] +
/// [`PrototypeArena::overlap_set_into`]) on the source arena for every
/// query (the `serving_equivalence` battery pins this). A trainable
/// [`crate::LlmModel`] keeps one **live**: `BlockLayout::winner` is
/// Algorithm 1's winner search — the same bounds and the same block
/// kernel, the winner alone — and `BlockLayout::set_row` /
/// `BlockLayout::push_row` follow every update and spawn, so the
/// layout always describes the arena's current rows. Every block owns a
/// fixed stride of `ROW_TILE` rows in the padded arrays (its real rows
/// first, pad rows after), which is what lets a row be appended in place.
///
/// **Why the bound needs no slack.** The bound replays the kernel's own
/// operation sequence on the block's box instead of a row: `acc = 0`,
/// `acc += gap_c · gap_c` in coordinate order with `gap_c` the distance
/// from `q_c` to the interval `[lo_c, hi_c]`, then `+ rad_gap · rad_gap`
/// with `rad_gap` the distance from `θ_q` to `[r_min, r_max]`. For every
/// row of the block `|gap_c| ≤ |r_c − q_c|` and `rad_gap ≤ |θ_q − θ_k|`
/// hold after rounding, because the operands are ordered before the
/// subtraction and IEEE rounding is monotone; squaring non-negatives,
/// adding and rounding again are monotone too. So `bb ≤ ‖c − q‖²` and
/// `lb ≤ joint` hold **exactly** in floating point, for the values the
/// kernel itself would compute — no error budget, no overflow guard
/// (`∞ ≤ ∞` keeps the inequalities true), and a NaN can only zero a gap
/// or fail the `>` that skips, and therefore verifies. Likewise
/// `(θ_q + θ_k)²` is at most the larger of the squares at the two ends of
/// the radius range. All of it needs the box to hold the block's rows —
/// which is why a live layout of two or more blocks refits a block's box
/// on every write to it (one block is verified without a bound).
///
/// Why the permutation cannot change answers: every per-pair distance,
/// joint distance and overlap degree is computed by the same
/// bit-identical kernels; within a block, slots are sorted ascending by
/// arena index, so the kernel's strict-`<` first-wins scan picks the
/// lowest index per block; across blocks, per-block winners merge
/// lexicographically by `(distance, index)` from the global seed
/// `(∞, 0)`, which reproduces the ascending-scan tie-break; and overlap
/// members — emitted in block order here — are put in ascending arena
/// order by the one consumer, [`crate::snapshot`]'s resolve-and-fold
/// driver, before the fusion fold sums them, so the fold runs in the
/// scalar path's exact order.
#[derive(Debug, Clone)]
pub struct BlockLayout {
    dim: usize,
    /// Real rows of each block (`1 ..= ROW_TILE`); block `b` owns rows
    /// `b·ROW_TILE ..` of the padded arrays.
    lens: Vec<usize>,
    /// Per-block bounding box and radius range, in groups of four blocks.
    bounds: simd::BoundGroups,
    /// Radii, `ROW_TILE` per block (pad value `0.0`).
    radii_pad: simd::AlignedF64s,
    /// AoSoA quad-interleaved centers, `ROW_TILE` rows per block (pad rows
    /// `+inf`).
    aosoa: simd::AlignedF64s,
    /// Padded row → arena index; ascending over each block's real rows.
    gids: Vec<usize>,
    /// Arena index → padded row: where `set_row` finds a prototype.
    rows: Vec<usize>,
}

impl BlockLayout {
    /// Cluster the arena (see the type docs). `O(dK + K log K)`; once per
    /// immutable capture, and whenever a model becomes trainable.
    pub fn build(arena: &PrototypeArena) -> Self {
        let k = arena.len();
        let mut order: Vec<usize> = (0..k).collect();
        // Recursive splits until every leaf fits in one ROW_TILE cut.
        let mut ranges: Vec<(usize, usize)> = Vec::new();
        let mut stack = if k == 0 {
            Vec::new()
        } else {
            vec![(0usize, k)]
        };
        while let Some((lo, hi)) = stack.pop() {
            if hi - lo <= ROW_TILE {
                ranges.push((lo, hi));
                continue;
            }
            let mid = lo + split_at_median(arena, &mut order[lo..hi]);
            stack.push((lo, mid));
            stack.push((mid, hi));
        }
        ranges.sort_unstable();
        // Pad rows are written here, once: `+inf` centers and `0.0` radii
        // are inert under both the strict-`<` winner update and the
        // membership test (see `simd::winner_mask_block_aosoa`). Nothing
        // is sized from `d` alone: a layout over no prototypes allocates
        // the same few bytes whatever dimension a loaded header states.
        let (d, blocks) = (arena.dim(), ranges.len());
        let mut layout = BlockLayout {
            dim: d,
            lens: vec![0; blocks],
            bounds: simd::BoundGroups::unbounded(blocks, d),
            radii_pad: simd::AlignedF64s::filled(blocks * ROW_TILE, 0.0),
            aosoa: simd::AlignedF64s::filled(blocks * ROW_TILE * d, f64::INFINITY),
            gids: vec![0; blocks * ROW_TILE],
            rows: vec![0; k],
        };
        for (b, &(lo, hi)) in ranges.iter().enumerate() {
            layout.place(arena, b, &mut order[lo..hi]);
        }
        layout
    }

    /// Number of prototypes covered by the layout.
    pub fn k(&self) -> usize {
        self.rows.len()
    }

    /// Input dimensionality `d`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of clustered blocks.
    pub fn num_blocks(&self) -> usize {
        self.lens.len()
    }

    /// Block `b`'s real rows: `(first padded row, count)`.
    #[inline]
    fn extent(&self, b: usize) -> (usize, usize) {
        (b * ROW_TILE, self.lens[b])
    }

    /// Fill block `b` with the prototypes `ids` (`1 ..= ROW_TILE` of
    /// them) over a block reset to pad rows, and fit its bounds. `ids` is
    /// sorted ascending first: the kernel's strict-`<` first-wins scan
    /// then picks the lowest arena index per block, as the scalar scan
    /// does globally.
    fn place(&mut self, arena: &PrototypeArena, b: usize, ids: &mut [usize]) {
        ids.sort_unstable();
        let (d, row) = (self.dim, b * ROW_TILE);
        self.aosoa[row * d..(row + ROW_TILE) * d].fill(f64::INFINITY);
        self.radii_pad[row..row + ROW_TILE].fill(0.0);
        for (slot, &id) in ids.iter().enumerate() {
            self.write_row(arena, row + slot, id);
        }
        self.lens[b] = ids.len();
        self.fit(b);
    }

    /// Copy prototype `id`'s centre and radius from `arena` into padded
    /// row `row` and record where it lives.
    fn write_row(&mut self, arena: &PrototypeArena, row: usize, id: usize) {
        let d = self.dim;
        let first = row - row % ROW_TILE;
        let quads = &mut self.aosoa[first * d..(first + ROW_TILE) * d];
        simd::aosoa_set_row(quads, row % ROW_TILE, arena.center(id));
        self.radii_pad[row] = arena.radius(id);
        self.gids[row] = id;
        self.rows[id] = row;
    }

    /// Fit block `b`'s bounds to the tight box of its current rows (the
    /// unbounded box if one of them is not finite).
    fn fit(&mut self, b: usize) {
        let (d, (row, len)) = (self.dim, self.extent(b));
        let quads = &self.aosoa[row * d..(row + ROW_TILE) * d];
        self.bounds
            .fit_block(b, quads, &self.radii_pad[row..row + len]);
    }

    /// Append an empty block — pad rows, an unbounded lane — and return
    /// its number. Storage grows amortised (doubling), never per row.
    fn add_block(&mut self) -> usize {
        let (b, d) = (self.lens.len(), self.dim);
        self.lens.push(0);
        self.bounds.grow(b + 1);
        self.radii_pad.resize((b + 1) * ROW_TILE, 0.0);
        self.aosoa.resize((b + 1) * ROW_TILE * d, f64::INFINITY);
        self.gids.resize((b + 1) * ROW_TILE, 0);
        b
    }

    /// Whether the block bounds are read. A one-block layout is verified
    /// without a bound by both searches, so its lane is not kept while
    /// the layout has one block: the split that adds the second block
    /// fits both halves (`place`).
    #[inline]
    fn bounds_read(&self) -> bool {
        self.lens.len() > 1
    }

    /// Follow a training update: rewrite prototype `id`'s row from
    /// `arena` (its AoSoA slot and its padded radius) and refit its
    /// block's bounds to the tight box of the block's current rows,
    /// `O(ROW_TILE · d)` — so a moved row never escapes its box and the
    /// box never stays wider than the rows.
    pub(crate) fn set_row(&mut self, arena: &PrototypeArena, id: usize) {
        let row = self.rows[id];
        self.write_row(arena, row, id);
        if self.bounds_read() {
            self.fit(row / ROW_TILE);
        }
    }

    /// Follow a spawn: file prototype `id` — just appended to `arena`, so
    /// the largest index there is — into block `b`, the block
    /// [`BlockLayout::winner`] reported nearest to the query it was
    /// spawned at (ignored while the layout has no block). Appending the
    /// largest index keeps the block's slots ascending. A block already
    /// holding `ROW_TILE` rows is split with [`BlockLayout::build`]'s own
    /// rule — widest-axis median under `total_cmp` — into itself and one
    /// new block, each half re-sorted by arena index. Allocates only when
    /// a block is added, and then amortised.
    ///
    /// # Panics
    /// Panics unless `id` is the layout's `K` (the next arena index).
    pub(crate) fn push_row(&mut self, arena: &PrototypeArena, id: usize, b: usize) {
        assert_eq!(id, self.rows.len(), "push_row: not the next arena index");
        self.rows.push(0);
        if self.lens.is_empty() {
            let b = self.add_block();
            self.place(arena, b, &mut [id]);
            return;
        }
        let (row, len) = self.extent(b);
        if len < ROW_TILE {
            self.write_row(arena, row + len, id);
            self.lens[b] = len + 1;
            if self.bounds_read() {
                self.fit(b);
            }
            return;
        }
        let mut ids = [0usize; ROW_TILE + 1];
        ids[..ROW_TILE].copy_from_slice(&self.gids[row..row + ROW_TILE]);
        ids[ROW_TILE] = id;
        let mid = split_at_median(arena, &mut ids);
        let new = self.add_block();
        let (left, right) = ids.split_at_mut(mid);
        self.place(arena, b, left);
        self.place(arena, new, right);
    }

    /// Pass 1 of verifying block `b` for `q`
    /// ([`simd::winner_mask_block_aosoa`]): seeded one ulp above the
    /// running `best` distance, so its strict `<` reports the block's
    /// first row with `joint ≤ best` (ties must reach the merge) or leaves
    /// [`NO_CANDIDATE`]; that candidate is merged lexicographically by
    /// `(distance, arena index)`, which reproduces the ascending-scan
    /// strict-`<` tie-break across the permuted blocks. Leaves every row's
    /// squared centre distance in `csq` and returns the block's overlap
    /// membership, one bit per row, cut to its real rows
    /// (`1 ≤ len ≤ ROW_TILE ≤ 64`): a `+inf` pad row fails
    /// `inf ≤ (θ_q + 0)²` unless that square overflows too, and the trim
    /// makes it inert even then.
    #[inline]
    fn scan_block(
        &self,
        b: usize,
        q: &Query,
        best: &mut (usize, f64),
        csq: &mut [f64; ROW_TILE],
    ) -> u64 {
        let (d, (row, len)) = (self.dim, self.extent(b));
        let padded = len.div_ceil(QUAD) * QUAD;
        tune::assert_tile_invariants(row);
        let quads = &self.aosoa[row * d..(row + padded) * d];
        let radii = &self.radii_pad[row..row + padded];
        let mut local = (NO_CANDIDATE, best.1.next_up());
        let mask =
            simd::winner_mask_block_aosoa(&q.center, q.radius, quads, radii, &mut local, csq);
        if local.0 != NO_CANDIDATE {
            // `+inf` pad rows can never win, so this slot is a real row.
            let gid = self.gids[row + local.0];
            if local.1 < best.1 || (local.1 == best.1 && gid < best.0) {
                *best = (gid, local.1);
            }
        }
        mask & (u64::MAX >> (u64::BITS as usize - len))
    }

    /// Exact-verify block `b` for `q` — **mask, then walk**. Pass 1 is
    /// `scan_block` (the whole-block kernel and the winner merge). Pass 2
    /// walks the mask's set bits in ascending slot order and computes
    /// each member's degree from the stored `csq` —
    /// [`PrototypeArena::overlap_set_into`]'s operation sequence per
    /// member, on the very bits the membership compare read — appending
    /// `(arena index, degree)` to `set`.
    #[inline]
    fn verify_block(
        &self,
        b: usize,
        q: &Query,
        best: &mut (usize, f64),
        csq: &mut [f64; ROW_TILE],
        set: &mut Vec<(usize, f64)>,
    ) {
        let mut left = self.scan_block(b, q, best, csq);
        let (row, len) = self.extent(b);
        let (radii, gids) = (&self.radii_pad[row..row + len], &self.gids[row..row + len]);
        while left != 0 {
            let slot = left.trailing_zeros() as usize;
            left &= left - 1;
            let rk = radii[slot];
            let radius_sum = q.radius + rk;
            let spread = csq[slot].sqrt().max((q.radius - rk).abs());
            let degree = 1.0 - spread / radius_sum;
            if degree > 0.0 {
                set.push((gids[slot], degree));
            }
        }
    }

    /// Stage 1 of a multi-block search: bound every block against `q`
    /// into `lbs` (sized by [`SearchScratch::size_for`]) and return
    /// `(lb, gated, first)` — `lb[b]` ≤ the squared
    /// joint distance of every row of block `b`, `gated[b]` that bound
    /// where the block provably holds no overlap member and `−∞` (a bound
    /// no best can undercut) where it may, and `first` the block with the
    /// smallest `lb` (strict `<`), which both searches verify first so the
    /// running best is tight before any other block is compared against
    /// it.
    fn bound_blocks<'s>(&self, q: &Query, lbs: &'s mut [f64]) -> (&'s [f64], &'s [f64], usize) {
        let lanes = self.bounds.lanes();
        let (lb, gated) = lbs[..2 * lanes].split_at_mut(lanes);
        self.bounds.bounds_into(&q.center, q.radius, lb, gated);
        let (mut first, mut first_lb) = (0usize, f64::INFINITY);
        for (b, &bound) in lb[..self.lens.len()].iter().enumerate() {
            if bound < first_lb {
                (first, first_lb) = (b, bound);
            }
        }
        (lb, gated, first)
    }

    /// The order both searches visit blocks in: `first`, then the others
    /// ascending.
    fn visit_order(&self, first: usize) -> impl Iterator<Item = usize> {
        std::iter::once(first).chain((0..self.lens.len()).filter(move |&b| b != first))
    }

    /// Algorithm 1's winner search: `(arena index, squared joint
    /// distance)` of the prototype closest to `q` — [`PrototypeArena::winner`]
    /// on the arena this layout follows, **bit for bit** — and the block
    /// with the smallest bound to `q`, where [`BlockLayout::push_row`]
    /// files a prototype spawned at `q`; `None` on an empty layout.
    ///
    /// The served resolution without the overlap set: every block is
    /// bounded ([`simd::BoundGroups::bounds_into`]), the block with the
    /// smallest bound is verified first, and every other block is
    /// verified unless `lb > best` — `lb`, not the overlap gate, since no
    /// member is wanted; `>`, not `≥`, since a block whose bound ties the
    /// best may hold a lower-index tie. Per block the served kernel runs
    /// seeded `(NO_CANDIDATE, best.next_up())` and the candidates merge
    /// lexicographically by `(distance, index)`. A one-block layout is
    /// verified directly. No allocator call once `scratch` has seen the
    /// layout's block count.
    pub(crate) fn winner(
        &self,
        q: &Query,
        scratch: &mut SearchScratch,
    ) -> Option<((usize, f64), usize)> {
        debug_assert_eq!(q.center.len(), self.dim, "winner: dimension mismatch");
        let mut best = (0usize, f64::INFINITY);
        match self.lens.len() {
            0 => None,
            1 => {
                self.scan_block(0, q, &mut best, &mut scratch.csq);
                Some((best, 0))
            }
            _ => {
                scratch.size_for(self);
                let (lb, _, first) = self.bound_blocks(q, &mut scratch.lbs);
                for b in self.visit_order(first) {
                    if lb[b] > best.1 {
                        continue;
                    }
                    self.scan_block(b, q, &mut best, &mut scratch.csq);
                }
                Some((best, first))
            }
        }
    }

    /// Resolve one query: winner as `(arena index, squared joint)`,
    /// overlap members appended to `set` (arena indices, block order).
    fn resolve_query(
        &self,
        q: &Query,
        scratch: &mut SearchScratch,
        set: &mut Vec<(usize, f64)>,
        counters: &mut ScreenCounters,
    ) -> (usize, f64) {
        debug_assert_eq!(
            q.center.len(),
            self.dim,
            "resolve_batch_pruned: dimension mismatch"
        );
        let nb = self.lens.len();
        counters.blocks += nb as u64;
        // Seeded like the scalar winner scan's `(0, ∞)`.
        let mut best = (0usize, f64::INFINITY);
        if nb == 1 {
            counters.verified += 1;
            self.verify_block(0, q, &mut best, &mut scratch.csq, set);
            return best;
        }
        counters.screened += nb as u64;
        scratch.size_for(self);
        let SearchScratch { lbs, csq } = scratch;
        let (_, gated, first) = self.bound_blocks(q, lbs);
        for b in self.visit_order(first) {
            // `gated` — a block that may hold an overlap member is
            // verified whatever the winner does; `>` (not `≥`): a block
            // whose bound ties the best may hold a lower-index tie, and a
            // NaN bound verifies. Nothing exceeds the initial `∞`, so
            // `first` is always verified.
            if gated[b] > best.1 {
                counters.skipped += 1;
            } else {
                counters.verified += 1;
                self.verify_block(b, q, &mut best, csq, set);
            }
        }
        best
    }

    /// Bound-and-verify pruned batched resolution: per query, a
    /// direct-form lower bound per block
    /// ([`simd::BoundGroups::bounds_into`]) discards blocks that provably
    /// cannot contain the winner or any overlapping ball, and the
    /// bit-exact two-pass block kernel (`verify_block` over
    /// [`simd::winner_mask_block_aosoa`]) resolves the rest. The
    /// filled [`BatchResolution`] holds, for every query, the scalar
    /// passes' winner and overlap set on the source arena **bit for bit**
    /// (see the type docs for the argument), the set in block order —
    /// documented output, see [`BatchResolution`]; `counters` is
    /// accumulated, never reset, so callers can aggregate across calls.
    ///
    /// Must be called on a non-empty layout with dimension-checked
    /// queries (the snapshot layer enforces both).
    pub fn resolve_batch_pruned(
        &self,
        queries: &[Query],
        out: &mut BatchResolution,
        counters: &mut ScreenCounters,
    ) {
        out.clear();
        debug_assert!(self.k() > 0, "resolve_batch_pruned: empty layout");
        let BatchResolution {
            winners,
            offsets,
            entries,
            scratch,
        } = out;
        offsets.push(0);
        for q in queries {
            winners.push(self.resolve_query(q, scratch, entries, counters));
            offsets.push(entries.len());
        }
    }
}

/// The layout's one split rule, shared by [`BlockLayout::build`] and the
/// split of a full block in [`BlockLayout::push_row`]: find the axis along
/// which the centres of `ids` spread widest and partition `ids` at its
/// median — `select_nth_unstable`, so `O(n)` without sorting the axis,
/// under `total_cmp`, since a NaN coordinate must not hand the selection
/// an inconsistent order (it may panic on one). Returns the cut `n / 2`;
/// each side is in no particular order, and the callers sort each by
/// arena index before placing it.
fn split_at_median(arena: &PrototypeArena, ids: &mut [usize]) -> usize {
    let mut widest = 0usize;
    let mut spread = f64::NEG_INFINITY;
    for c in 0..arena.dim() {
        let mut mn = f64::INFINITY;
        let mut mx = f64::NEG_INFINITY;
        for &g in ids.iter() {
            let v = arena.center(g)[c];
            mn = mn.min(v);
            mx = mx.max(v);
        }
        if mx - mn > spread {
            spread = mx - mn;
            widest = c;
        }
    }
    let mid = ids.len() / 2;
    ids.select_nth_unstable_by(mid, |&a, &b| {
        arena.center(a)[widest].total_cmp(&arena.center(b)[widest])
    });
    mid
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Query;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn random_protos(k: usize, d: usize, seed: u64) -> Vec<Prototype> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..k)
            .map(|_| Prototype {
                center: (0..d).map(|_| rng.random_range(-1.0..1.0)).collect(),
                radius: rng.random_range(0.05..0.5),
                y: rng.random_range(-3.0..3.0),
                b_x: (0..d).map(|_| rng.random_range(-2.0..2.0)).collect(),
                b_theta: rng.random_range(-1.0..1.0),
                updates: rng.random_range(1..50u64),
            })
            .collect()
    }

    #[test]
    fn round_trips_owned_prototypes() {
        let protos = random_protos(13, 3, 1);
        let arena = PrototypeArena::from_prototypes(3, &protos);
        assert_eq!(arena.len(), 13);
        assert_eq!(arena.dim(), 3);
        assert_eq!(arena.to_prototypes(), protos);
    }

    #[test]
    fn views_expose_the_pushed_fields() {
        let protos = random_protos(5, 2, 2);
        let arena = PrototypeArena::from_prototypes(2, &protos);
        for (k, p) in protos.iter().enumerate() {
            let v = arena.view(k);
            assert_eq!(v.center, &p.center[..]);
            assert_eq!(v.radius, p.radius);
            assert_eq!(v.y, p.y);
            assert_eq!(v.b_x, &p.b_x[..]);
            assert_eq!(v.b_theta, p.b_theta);
            assert_eq!(v.updates, p.updates);
            assert_eq!(v.to_prototype(), *p);
        }
    }

    /// `x_k = (1, 2)`, `θ_k = 0.5`, `y_k = 10`, `b_X = (2, −1)`, `b_Θ = 4`.
    fn one_proto_arena() -> PrototypeArena {
        let p = Prototype {
            center: vec![1.0, 2.0],
            radius: 0.5,
            y: 10.0,
            b_x: vec![2.0, -1.0],
            b_theta: 4.0,
            updates: 7,
        };
        PrototypeArena::from_prototypes(2, &[p])
    }

    #[test]
    fn eval_matches_equation_5() {
        let arena = one_proto_arena();
        // f(x, θ) = 10 + 2(x1-1) - 1(x2-2) + 4(θ-0.5)
        let v = arena.eval(0, &[2.0, 1.0], 1.0);
        assert!((v - (10.0 + 2.0 + 1.0 + 2.0)).abs() < 1e-12);
        // At the prototype itself: f = y_k.
        assert_eq!(arena.eval(0, &[1.0, 2.0], 0.5), 10.0);
    }

    #[test]
    fn eval_at_own_radius_drops_theta_term() {
        let arena = one_proto_arena();
        assert_eq!(arena.eval_at_own_radius(0, &[1.0, 2.0]), 10.0);
        assert_eq!(
            arena.eval_at_own_radius(0, &[2.0, 2.0]),
            arena.eval(0, &[2.0, 2.0], 0.5)
        );
    }

    #[test]
    fn local_line_matches_theorem_3() {
        let arena = one_proto_arena();
        let (intercept, slope) = arena.local_line(0);
        // intercept = 10 - (2*1 + (-1)*2) = 10.
        assert_eq!(intercept, 10.0);
        assert_eq!(slope, &[2.0, -1.0]);
        // The line and the LLM-at-own-radius agree everywhere.
        let x = [0.7, -1.3];
        let line_val = intercept + slope[0] * x[0] + slope[1] * x[1];
        assert!((line_val - arena.eval_at_own_radius(0, &x)).abs() < 1e-12);
    }

    /// The tie rule: with row `first` repeated at `twin`, a probe on that
    /// row is at distance 0 from both, and the lower index wins — twins
    /// inside one quad of four rows and in different quads alike.
    #[test]
    fn winner_ties_keep_the_lowest_index() {
        let protos = random_protos(10, 3, 17);
        for (first, twin) in [(0usize, 1usize), (1, 3), (2, 5), (3, 4), (0, 9), (6, 8)] {
            let mut tied = protos.clone();
            tied[twin] = tied[first].clone();
            let arena = PrototypeArena::from_prototypes(3, &tied);
            let p = &tied[first];
            assert_eq!(
                arena.winner(&p.center, p.radius),
                Some((first, 0.0)),
                "first={first} twin={twin}"
            );
        }
    }

    #[test]
    fn empty_arena_has_no_winner_and_no_overlap() {
        let arena = PrototypeArena::new(2);
        assert!(arena.winner(&[0.0, 0.0], 0.1).is_none());
        let mut out = vec![(1usize, 1.0)];
        arena.overlap_set_into(&[0.0, 0.0], 0.1, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn view_mut_writes_through() {
        let protos = random_protos(3, 2, 8);
        let mut arena = PrototypeArena::from_prototypes(2, &protos);
        {
            let v = arena.view_mut(1);
            v.center[0] = 42.0;
            *v.radius = 0.9;
            *v.y = -7.0;
            v.b_x[1] = 3.5;
            *v.b_theta = 1.25;
            *v.updates = 99;
        }
        let p = arena.view(1);
        assert_eq!(p.center[0], 42.0);
        assert_eq!(p.radius, 0.9);
        assert_eq!(p.y, -7.0);
        assert_eq!(p.b_x[1], 3.5);
        assert_eq!(p.b_theta, 1.25);
        assert_eq!(p.updates, 99);
        // Neighbours untouched.
        assert_eq!(arena.view(0).to_prototype(), protos[0]);
        assert_eq!(arena.view(2).to_prototype(), protos[2]);
    }

    #[test]
    fn push_query_zero_initializes() {
        let mut arena = PrototypeArena::new(2);
        arena.push_query(&[0.3, 0.4], 0.2);
        let p = arena.view(0);
        assert_eq!(p.center, &[0.3, 0.4]);
        assert_eq!(p.radius, 0.2);
        assert_eq!(p.y, 0.0);
        assert_eq!(p.b_x, &[0.0, 0.0]);
        assert_eq!(p.b_theta, 0.0);
        assert_eq!(p.updates, 1);
    }

    // --- Pruned serving layout (prefix `screening_` so the nightly Miri
    // --- job can filter `-p regq_core screening_`).

    /// Assert `layout` describes `arena` exactly: every arena index in
    /// exactly one block, its centre and radius stored bit for bit where
    /// `rows` says, slots ascending by arena index, pad rows inert
    /// (`+inf` centres, `0.0` radii), every block's lane the tight box of
    /// its current rows (or unbounded when one is not finite) and every
    /// lane past the last block unbounded — lanes checked once the layout
    /// has two blocks, since a one-block layout's lane is never read and
    /// not kept.
    fn assert_layout_follows(layout: &BlockLayout, arena: &PrototypeArena) {
        let (k, d) = (arena.len(), arena.dim());
        assert_eq!(layout.k(), k);
        assert_eq!(layout.dim(), d);
        let mut seen = vec![false; k];
        let mut fresh = simd::BoundGroups::unbounded(layout.num_blocks(), d);
        let mut row = vec![0.0; d];
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for b in 0..layout.num_blocks() {
            let (first, len) = layout.extent(b);
            assert!((1..=ROW_TILE).contains(&len), "block {b} holds {len} rows");
            let quads = &layout.aosoa[first * d..(first + ROW_TILE) * d];
            let gids = &layout.gids[first..first + len];
            for w in gids.windows(2) {
                assert!(w[0] < w[1], "block gids must be strictly ascending");
            }
            for (slot, &g) in gids.iter().enumerate() {
                assert!(!seen[g], "gid {g} appears twice");
                seen[g] = true;
                assert_eq!(layout.rows[g], first + slot, "gid {g}'s row");
                simd::aosoa_row_into(quads, slot, &mut row);
                assert_eq!(bits(&row), bits(arena.center(g)), "gid {g}'s centre");
                let radius = layout.radii_pad[first + slot];
                assert_eq!(radius.to_bits(), arena.radius(g).to_bits());
            }
            for slot in len..ROW_TILE {
                simd::aosoa_row_into(quads, slot, &mut row);
                assert!(row.iter().all(|&v| v == f64::INFINITY), "pad centre");
                assert_eq!(layout.radii_pad[first + slot], 0.0, "pad radius");
            }
            fresh.fit_block(b, quads, &layout.radii_pad[first..first + len]);
        }
        assert!(seen.iter().all(|&s| s), "layout must cover every gid");
        assert_eq!(layout.bounds.lanes(), fresh.lanes());
        if layout.num_blocks() < 2 {
            return;
        }
        // Probes far out on every side read every box side.
        for b in 0..fresh.lanes() {
            for (at, theta) in [(-1e6, -1e6), (1e6, 1e6), (0.3, 0.1)] {
                let q = vec![at; d];
                let (got, want) = (
                    layout.bounds.lane_bounds(b, &q, theta),
                    fresh.lane_bounds(b, &q, theta),
                );
                assert_eq!(
                    bits(&[got.0, got.1, got.2]),
                    bits(&[want.0, want.1, want.2]),
                    "lane {b} of {} blocks",
                    layout.num_blocks()
                );
            }
        }
    }

    #[test]
    fn screening_layout_partitions_the_arena() {
        for k in [0usize, 1, 3, 4, 5, 63, 64, 65, 130, 257, 1000] {
            let arena = PrototypeArena::from_prototypes(3, &random_protos(k, 3, 40 + k as u64));
            let layout = arena.build_layout();
            assert_layout_follows(&layout, &arena);
        }
    }

    /// Spawn a prototype at `(center, radius)` the way the trainer does:
    /// search first, append to the arena, file it in the nearest block.
    fn spawn(
        arena: &mut PrototypeArena,
        layout: &mut BlockLayout,
        scratch: &mut SearchScratch,
        center: &[f64],
        radius: f64,
    ) {
        let q = Query::new_unchecked(center.to_vec(), radius);
        let nearest = layout.winner(&q, scratch).map_or(0, |(_, b)| b);
        arena.push_query(center, radius);
        layout.push_row(arena, arena.len() - 1, nearest);
    }

    /// The live layout's winner against the scan's — index and distance
    /// bits — at random probes and on (a copy of) every tenth prototype.
    fn assert_winners_match(
        arena: &PrototypeArena,
        layout: &BlockLayout,
        scratch: &mut SearchScratch,
        rng: &mut StdRng,
    ) {
        let d = arena.dim();
        let mut probes: Vec<Query> = (0..6)
            .map(|_| {
                let c: Vec<f64> = (0..d).map(|_| rng.random_range(-1.5..1.5)).collect();
                Query::new_unchecked(c, rng.random_range(0.01..0.6))
            })
            .collect();
        for k in (0..arena.len()).step_by(10) {
            probes.push(Query::new_unchecked(
                arena.center(k).to_vec(),
                arena.radius(k),
            ));
        }
        for q in &probes {
            let want = arena.winner(&q.center, q.radius);
            let got = layout.winner(q, scratch).map(|(w, _)| w);
            assert_eq!(
                got.map(|(k, sq)| (k, sq.to_bits())),
                want.map(|(k, sq)| (k, sq.to_bits())),
                "K={} blocks={}",
                arena.len(),
                layout.num_blocks()
            );
        }
    }

    #[test]
    fn screening_live_layout_follows_moves_and_spawns() {
        // From empty and from a built layout: spawns (uniform, and piled
        // into one corner so the same region splits again and again) and
        // moves (small, and far enough to leave the block's box), each
        // followed by the full structural check and the winner against
        // the scan.
        let mut rng = StdRng::seed_from_u64(29);
        let mut scratch = SearchScratch::default();
        for (d, k0) in [(1usize, 0usize), (3, 0), (2, 150), (5, 70)] {
            let mut arena = PrototypeArena::from_prototypes(d, &random_protos(k0, d, 7 + d as u64));
            let mut layout = arena.build_layout();
            assert_layout_follows(&layout, &arena);
            for op in 0..260 {
                if arena.is_empty() || op % 3 != 0 {
                    let spread = if op % 2 == 0 { 1.0 } else { 0.05 };
                    let c: Vec<f64> = (0..d).map(|_| rng.random_range(-spread..spread)).collect();
                    let r = rng.random_range(0.05..0.5);
                    spawn(&mut arena, &mut layout, &mut scratch, &c, r);
                } else {
                    let id = rng.random_range(0..arena.len());
                    let step = if op % 2 == 0 { 0.01 } else { 1.0 };
                    let p = arena.view_mut(id);
                    for c in p.center.iter_mut() {
                        *c += rng.random_range(-step..step);
                    }
                    *p.radius += rng.random_range(-0.01..0.01);
                    layout.set_row(&arena, id);
                }
                assert_layout_follows(&layout, &arena);
                assert_winners_match(&arena, &layout, &mut scratch, &mut rng);
            }
            assert!(layout.num_blocks() > 2, "d={d}: splits happened");
        }
    }

    #[test]
    fn screening_live_layout_keeps_poisoned_rows_unbounded() {
        // Poisoned prototypes — a NaN centre coordinate, an infinite one,
        // an infinite radius — spread over several blocks, then moved,
        // healed and carried into new blocks by the splits that spawns
        // force: every block holding one keeps the unbounded box, every
        // other block is tight again, and the winner is still the scan's.
        let mut rng = StdRng::seed_from_u64(31);
        let mut scratch = SearchScratch::default();
        let d = 2;
        let mut protos = random_protos(200, d, 3);
        let poisons = [0usize, 37, 74, 111, 148, 185];
        for (n, &id) in poisons.iter().enumerate() {
            match n % 3 {
                0 => protos[id].center[1] = f64::NAN,
                1 => protos[id].center[0] = f64::NEG_INFINITY,
                _ => protos[id].radius = f64::INFINITY,
            }
        }
        let mut arena = PrototypeArena::from_prototypes(d, &protos);
        let mut layout = arena.build_layout();
        let unbounded_blocks = |arena: &PrototypeArena, layout: &BlockLayout| {
            let mut blocks: Vec<usize> = (0..arena.len())
                .filter(|&id| {
                    !(arena.radius(id).is_finite() && vector::all_finite(arena.center(id)))
                })
                .map(|id| layout.rows[id] / ROW_TILE)
                .collect();
            blocks.sort_unstable();
            blocks.dedup();
            for &b in &blocks {
                let far = layout.bounds.lane_bounds(b, &[1e9; 2], 1e9);
                assert_eq!(
                    (far.0, far.1, far.2),
                    (0.0, 0.0, f64::INFINITY),
                    "block {b}"
                );
            }
            blocks
        };
        assert!(
            unbounded_blocks(&arena, &layout).len() > 1,
            "poison spread over blocks"
        );
        assert_layout_follows(&layout, &arena);
        for op in 0..200 {
            match op % 4 {
                // Move a poisoned row (it stays poisoned), or heal one.
                0 => {
                    let id = poisons[op / 4 % poisons.len()];
                    let p = arena.view_mut(id);
                    p.center[0] += 0.5;
                    if op % 40 == 0 {
                        p.center.fill(0.25);
                        *p.radius = 0.2;
                    }
                    layout.set_row(&arena, id);
                }
                // Poison a clean row in place.
                1 if op % 20 == 1 => {
                    let id = rng.random_range(0..arena.len());
                    arena.view_mut(id).center[op % d] = f64::NAN;
                    layout.set_row(&arena, id);
                }
                // Spawns near the poisoned rows' region: splits.
                _ => {
                    let c: Vec<f64> = (0..d).map(|_| rng.random_range(-1.0..1.0)).collect();
                    spawn(&mut arena, &mut layout, &mut scratch, &c, 0.2);
                }
            }
            assert_layout_follows(&layout, &arena);
            unbounded_blocks(&arena, &layout);
            assert_winners_match(&arena, &layout, &mut scratch, &mut rng);
        }
        assert!(layout.num_blocks() > 4);
    }

    /// Resolve `queries` through `layout` and assert the resolution equals
    /// the scalar passes over `arena` — winner and overlap set, bit for
    /// bit — with every `(query, block)` visit counted exactly once.
    fn assert_matches_scalar_passes(
        arena: &PrototypeArena,
        layout: &BlockLayout,
        queries: &[Query],
        res: &mut BatchResolution,
    ) -> ScreenCounters {
        let mut counters = ScreenCounters::default();
        layout.resolve_batch_pruned(queries, res, &mut counters);
        assert_eq!(res.len(), queries.len());
        assert_eq!(res.is_empty(), queries.is_empty());
        let mut set = Vec::new();
        for (i, q) in queries.iter().enumerate() {
            let (wk, wsq) = arena.winner(&q.center, q.radius).unwrap();
            let (gk, gsq) = res.winner(i);
            assert_eq!((gk, gsq.to_bits()), (wk, wsq.to_bits()), "q{i} winner");
            arena.overlap_set_into(&q.center, q.radius, &mut set);
            // The resolution emits block order; the set and every degree
            // bit are pinned on an id-sorted copy (the order itself is
            // pinned where it decides bits: through the served predictors).
            let mut got = res.overlap(i).to_vec();
            got.sort_unstable_by_key(|e| e.0);
            assert_eq!(got.len(), set.len(), "q{i} overlap size");
            for (a, b) in got.iter().zip(&set) {
                assert_eq!((a.0, a.1.to_bits()), (b.0, b.1.to_bits()), "q{i} overlap");
            }
        }
        // Counted — never silent: every visit lands in exactly one
        // bucket, and a bound is evaluated for every visit unless the
        // layout is a single block.
        assert_eq!(
            counters.blocks,
            (queries.len() * layout.num_blocks()) as u64
        );
        assert_eq!(counters.skipped + counters.verified, counters.blocks);
        let bounded = if layout.num_blocks() > 1 {
            counters.blocks
        } else {
            0
        };
        assert_eq!(counters.screened, bounded);
        counters
    }

    #[test]
    fn screening_resolve_pruned_matches_scalar_passes() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut res = BatchResolution::new();
        // K values straddling the quad and ROW_TILE boundaries; an empty
        // batch resolves to an empty resolution.
        for k in [1usize, 3, 4, 5, 63, 64, 65, 130, 257] {
            let arena = PrototypeArena::from_prototypes(3, &random_protos(k, 3, k as u64));
            let layout = arena.build_layout();
            assert_layout_follows(&layout, &arena);
            for nq in [0usize, 1, 7, 16, 37] {
                let queries: Vec<Query> = (0..nq)
                    .map(|_| {
                        let c: Vec<f64> = (0..3).map(|_| rng.random_range(-1.5..1.5)).collect();
                        Query::new_unchecked(c, rng.random_range(0.01..1.0))
                    })
                    .collect();
                assert_matches_scalar_passes(&arena, &layout, &queries, &mut res);
            }
        }
    }

    #[test]
    fn screening_skips_blocks_on_clustered_data() {
        // Two tight, well-separated clusters: queries sitting inside one
        // cluster must prune the other cluster's blocks.
        let mut rng = StdRng::seed_from_u64(21);
        let mut protos = Vec::new();
        for cluster in 0..2 {
            let off = cluster as f64 * 100.0;
            for p in random_protos(256, 3, 70 + cluster as u64) {
                let mut p = p;
                for c in p.center.iter_mut() {
                    *c = *c * 0.5 + off;
                }
                p.radius = 0.05;
                protos.push(p);
            }
        }
        let arena = PrototypeArena::from_prototypes(3, &protos);
        let layout = arena.build_layout();
        let queries: Vec<Query> = (0..32)
            .map(|i| {
                let off = (i % 2) as f64 * 100.0;
                let c: Vec<f64> = (0..3).map(|_| rng.random_range(-0.5..0.5) + off).collect();
                Query::new_unchecked(c, 0.05)
            })
            .collect();
        let counters =
            assert_matches_scalar_passes(&arena, &layout, &queries, &mut BatchResolution::new());
        // Each query must at least prune the far cluster (half the blocks).
        let skip_rate = counters.skipped as f64 / counters.blocks as f64;
        assert!(
            skip_rate >= 0.5,
            "expected >= 50% skip rate on clustered data, got {skip_rate:.3} ({counters:?})"
        );
    }

    #[test]
    fn screening_scratch_reuse_is_clean_across_calls() {
        // Re-using one BatchResolution across layouts of different block
        // counts must not leak stale scratch.
        let mut res = BatchResolution::new();
        let q = Query::new_unchecked(vec![0.1, -0.2, 0.3], 0.2);
        for k in [257usize, 4, 130] {
            let arena = PrototypeArena::from_prototypes(3, &random_protos(k, 3, 90 + k as u64));
            let layout = arena.build_layout();
            assert_matches_scalar_passes(&arena, &layout, std::slice::from_ref(&q), &mut res);
        }
        // Counters accumulate (never reset) across calls.
        let arena = PrototypeArena::from_prototypes(3, &random_protos(130, 3, 3));
        let layout = arena.build_layout();
        let mut counters = ScreenCounters::default();
        for _ in 0..3 {
            layout.resolve_batch_pruned(std::slice::from_ref(&q), &mut res, &mut counters);
        }
        assert_eq!(counters.blocks, 3 * layout.num_blocks() as u64);
        assert_eq!(counters.skipped + counters.verified, counters.blocks);
    }

    #[test]
    fn screening_overflowing_squares_stay_bit_identical() {
        // Centers near 1e200 square to +inf in kernel and bound alike;
        // `∞ ≤ ∞` keeps the bound valid, so no guard is needed.
        let mut protos = random_protos(200, 2, 31);
        protos[3].center = vec![1e200, -1e200];
        protos[150].center = vec![-1e200, 1e200];
        let arena = PrototypeArena::from_prototypes(2, &protos);
        let layout = arena.build_layout();
        assert!(layout.num_blocks() > 1);
        let queries = [
            Query::new_unchecked(vec![1e200, 0.0], 0.1),
            Query::new_unchecked(vec![0.2, -0.1], 0.3),
            Query::new_unchecked(vec![-1e200, 1e200], 1e190),
        ];
        assert_matches_scalar_passes(&arena, &layout, &queries, &mut BatchResolution::new());
    }

    proptest! {
        /// The soundness core of the pruned path, with **no tolerance**:
        /// for every row of a block, the block bound never exceeds the
        /// value the exact kernel computes for that row — `bb ≤ ‖c − q‖²`,
        /// `lb ≤ joint`, `reach ≥ (θ_q + θ_k)²` — at any magnitude, for
        /// probes inside and outside the box, for radii of either sign;
        /// the dispatched four-blocks-at-a-time kernel writes exactly
        /// that `lb` and gates it on exactly that `bb > reach`. A
        /// poisoned probe (a NaN or ±∞ coordinate or radius) may skip
        /// only what the exact kernel would reject too — a NaN coordinate
        /// zeroes its own gap, a NaN radius fails the gate and verifies.
        #[test]
        fn screening_bounds_never_exceed_any_row(
            dim_at in 0usize..10,
            exp in -150i32..=150,
            rows in 1usize..=ROW_TILE,
            signed_radii in any::<bool>(),
            rng_seed in any::<u64>(),
        ) {
            let d = [1usize, 2, 3, 4, 5, 6, 7, 8, 16, 64][dim_at];
            let mut rng = StdRng::seed_from_u64(rng_seed);
            let value = |rng: &mut StdRng| {
                rng.random_range(-1.0..1.0) * 10f64.powi(exp + rng.random_range(-2..=2))
            };
            let protos: Vec<Prototype> = (0..rows)
                .map(|_| Prototype {
                    center: (0..d).map(|_| value(&mut rng)).collect(),
                    radius: if signed_radii { value(&mut rng) } else { value(&mut rng).abs() },
                    y: 0.0,
                    b_x: vec![0.0; d],
                    b_theta: 0.0,
                    updates: 0,
                })
                .collect();
            let arena = PrototypeArena::from_prototypes(d, &protos);
            let layout = arena.build_layout();
            prop_assert_eq!(layout.num_blocks(), 1);
            let lanes = layout.bounds.lanes();
            let (mut lbs, mut gated) = (vec![0.0; lanes], vec![0.0; lanes]);
            for probe in 0..12 {
                // Even probes sit next to a row (zero gaps, near
                // cancellation); odd ones anywhere at this magnitude; the
                // last four carry one poisoned coordinate or radius.
                let mut center: Vec<f64> = if probe % 2 == 0 {
                    let near = &protos[rng.random_range(0..rows)].center;
                    near.iter().map(|&c| c * rng.random_range(0.999..1.001)).collect()
                } else {
                    (0..d).map(|_| value(&mut rng)).collect()
                };
                let mut radius = value(&mut rng).abs();
                let poison = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][rng.random_range(0..3usize)];
                match probe {
                    8 | 9 => center[rng.random_range(0..d)] = poison,
                    10 | 11 => radius = poison,
                    _ => {}
                }
                let q = Query::new_unchecked(center, radius);
                let (bb, lb, reach) = layout.bounds.lane_bounds(0, &q.center, q.radius);
                layout.bounds.bounds_into(&q.center, q.radius, &mut lbs, &mut gated);
                prop_assert_eq!(lbs[0].to_bits(), lb.to_bits());
                let gate = if bb > reach { lb } else { f64::NEG_INFINITY };
                prop_assert_eq!(gated[0].to_bits(), gate.to_bits());
                // Pad lanes are the unbounded box: never skipped.
                prop_assert!(gated[1..].iter().all(|&g| g == f64::NEG_INFINITY));
                if q.radius.is_nan() {
                    prop_assert_eq!(gate, f64::NEG_INFINITY, "a NaN radius must verify");
                }
                for p in &protos {
                    let csq = vector::sq_dist(&p.center, &q.center);
                    let dr = q.radius - p.radius;
                    let rs = q.radius + p.radius;
                    if probe < 8 {
                        prop_assert!(bb <= csq, "bb {bb:e} > csq {csq:e}");
                        prop_assert!(lb <= csq + dr * dr, "lb {lb:e} > joint");
                        prop_assert!(reach >= rs * rs, "reach {reach:e} < (θq+θk)²");
                    } else {
                        // Poisoned: the row's own values may be NaN, so
                        // state what resolution relies on instead — a
                        // bound above a row's joint, or an open gate over
                        // a member, would be a wrong skip.
                        let (above, member) = (lb > csq + dr * dr, csq <= rs * rs);
                        prop_assert!(!above, "lb {lb:e} above a joint");
                        prop_assert!(
                            gate == f64::NEG_INFINITY || !member,
                            "gate open over a member (bb {bb:e}, reach {reach:e})"
                        );
                    }
                }
            }
        }
    }

    /// A one-block arena of block `b`'s rows in slot order — what the
    /// scalar passes see of that block.
    fn block_arena(arena: &PrototypeArena, layout: &BlockLayout, b: usize) -> PrototypeArena {
        let (first, len) = layout.extent(b);
        let rows: Vec<Prototype> = layout.gids[first..first + len]
            .iter()
            .map(|&g| arena.view(g).to_prototype())
            .collect();
        PrototypeArena::from_prototypes(arena.dim(), &rows)
    }

    #[test]
    fn screening_walk_emits_the_scalar_members_per_block() {
        // Pass 2 of `verify_block`, block by block: exactly the members
        // `overlap_set_into` finds among the block's rows, in slot order,
        // every degree bit for bit — partial last quads (pad rows),
        // hostile balls and a radius whose square overflows included.
        let mut rng = StdRng::seed_from_u64(5);
        for (k, d) in [(3usize, 1usize), (64, 2), (130, 3), (301, 4), (70, 9)] {
            let arena = PrototypeArena::from_prototypes(d, &random_protos(k, d, 60 + k as u64));
            let layout = arena.build_layout();
            let mut queries: Vec<Query> = (0..12)
                .map(|_| {
                    let c: Vec<f64> = (0..d).map(|_| rng.random_range(-1.2..1.2)).collect();
                    Query::new_unchecked(c, rng.random_range(0.01..1.5))
                })
                .collect();
            for theta in [0.0, -0.1, 1e200, -1e200, f64::INFINITY, f64::NAN] {
                queries.push(Query::new_unchecked(vec![0.1; d], theta));
            }
            queries.push(Query::new_unchecked(vec![f64::INFINITY; d], 0.3));
            queries.push(Query::new_unchecked(vec![f64::NAN; d], 0.3));
            let mut csq = [f64::NAN; ROW_TILE];
            let (mut got, mut want) = (Vec::new(), Vec::new());
            for b in 0..layout.num_blocks() {
                let rows = block_arena(&arena, &layout, b);
                let gids = &layout.gids[b * ROW_TILE..];
                for (i, q) in queries.iter().enumerate() {
                    got.clear();
                    let mut best = (0usize, f64::INFINITY);
                    layout.verify_block(b, q, &mut best, &mut csq, &mut got);
                    rows.overlap_set_into(&q.center, q.radius, &mut want);
                    assert_eq!(got.len(), want.len(), "k={k} block {b} q{i} size");
                    for (a, w) in got.iter().zip(&want) {
                        assert_eq!(
                            (a.0, a.1.to_bits()),
                            (gids[w.0], w.1.to_bits()),
                            "k={k} block {b} q{i}"
                        );
                    }
                    let (wk, wsq) = rows.winner(&q.center, q.radius).unwrap();
                    if wsq < f64::INFINITY {
                        assert_eq!((best.0, best.1.to_bits()), (gids[wk], wsq.to_bits()));
                    } else {
                        assert_eq!((best.0, best.1.to_bits()), (0, wsq.to_bits()));
                    }
                }
            }
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "the interpreter may keep addresses symbolic")]
    fn screening_layout_arrays_sit_on_cache_lines() {
        // By construction, not by allocator luck: after `build` and again
        // after `clone` (a new allocation at a new address). Odd-sized
        // live allocations in between shift what `malloc` hands out.
        let on_line = |a: &[f64]| (a.as_ptr() as usize).is_multiple_of(simd::AlignedF64s::ALIGN);
        let mut keep_alive = Vec::new();
        for k in [1usize, 63, 64, 65, 4096] {
            keep_alive.push(vec![0u8; 24 + k % 7 * 8]);
            let arena = PrototypeArena::from_prototypes(3, &random_protos(k, 3, k as u64));
            let layout = arena.build_layout();
            keep_alive.push(vec![0u8; 40]);
            let copy = layout.clone();
            for l in [&layout, &copy] {
                assert!(on_line(&l.aosoa), "K={k} centers");
                assert!(on_line(&l.radii_pad), "K={k} radii");
            }
            assert_eq!(&copy.aosoa[..], &layout.aosoa[..]);
            assert_eq!(&copy.radii_pad[..], &layout.radii_pad[..]);
        }
    }
}
