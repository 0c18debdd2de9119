//! The acceptance gate for the two-phase pruned serving path.
//!
//! # Equivalence contract
//!
//! Pruned resolution ([`regq_core::BlockLayout::resolve_batch_pruned`])
//! is **bit-identical** to the unpruned scan
//! ([`regq_core::PrototypeArena::resolve_batch`]) — not merely close.
//! The per-block bound may only *discard* blocks, and it replays the
//! kernel's own operation sequence on the block's box, so it never
//! exceeds what the kernel computes for any row (no slack — the exact
//! inequality is pinned by `screening_bounds_never_exceed_any_row` in
//! `arena.rs`); every other block is verified by the exact AoSoA kernel,
//! which replays the scalar kernels' operation order per row. These
//! properties pin that contract across arena sizes K ∈ {64, 257, 1024,
//! 4096} × batch sizes {1, 7, 64, 1000} × shard counts {1, 2, 4, 8}, with
//! balls straddling cluster/shard boundaries, near-tie queries whose top
//! candidates differ by a few ulps, geometry at magnitude 3 × 10⁸ whose
//! overlap margins sit far below one ulp of the squared coordinates, and
//! blocks poisoned with NaN / ±∞ parameters.
//!
//! On failure the proptest shim prints a `REGQ_PROPTEST_SEED=<n>` line —
//! re-run with that env var set to reproduce the exact case.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use regq_core::{
    sharded_q1_with_confidence_batch, sharded_q1_with_confidence_batch_pruned,
    sharded_q2_with_confidence_batch, sharded_q2_with_confidence_batch_pruned, BatchResolution,
    LlmModel, ModelConfig, Prototype, PrototypeArena, Query, ScreenCounters, ServingSnapshot,
    ShardPart,
};
use std::sync::OnceLock;

const ARENA_KS: [usize; 4] = [64, 257, 1024, 4096];
const BATCH_SIZES: [usize; 4] = [1, 7, 64, 1000];
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// A synthetic K-prototype arena in `dim` dimensions: half the
/// prototypes clustered tightly around seeded anchors (so block pruning
/// has something to skip), half spread uniformly (so plenty of blocks
/// stay live).
fn synthetic_arena(k: usize, dim: usize, seed: u64) -> PrototypeArena {
    let mut rng = StdRng::seed_from_u64(seed);
    let anchors: Vec<Vec<f64>> = (0..4)
        .map(|_| (0..dim).map(|_| rng.random_range(-8.0..8.0)).collect())
        .collect();
    let protos: Vec<Prototype> = (0..k)
        .map(|i| {
            let center: Vec<f64> = if i % 2 == 0 {
                let a = &anchors[(i / 2) % anchors.len()];
                a.iter().map(|&c| c + rng.random_range(-0.1..0.1)).collect()
            } else {
                (0..dim).map(|_| rng.random_range(-10.0..10.0)).collect()
            };
            Prototype {
                center,
                radius: rng.random_range(0.01..0.4),
                y: rng.random_range(-1.0..1.0),
                b_x: (0..dim).map(|_| rng.random_range(-1.0..1.0)).collect(),
                b_theta: rng.random_range(-1.0..1.0),
                updates: i as u64,
            }
        })
        .collect();
    PrototypeArena::from_prototypes(dim, &protos)
}

/// Assert pruned == unpruned bit-for-bit on `queries`, and that the
/// telemetry accounting is airtight.
fn assert_pruned_matches(arena: &PrototypeArena, queries: &[Query]) {
    let layout = arena.build_layout();
    let mut plain = BatchResolution::new();
    let mut pruned = BatchResolution::new();
    let mut counters = ScreenCounters::default();
    arena.resolve_batch(queries, &mut plain);
    layout.resolve_batch_pruned(queries, &mut pruned, &mut counters);
    assert_eq!(plain.len(), pruned.len());
    for i in 0..plain.len() {
        let (wa, da) = plain.winner(i);
        let (wb, db) = pruned.winner(i);
        assert_eq!(wa, wb, "winner index diverged on query {i}");
        assert_eq!(
            da.to_bits(),
            db.to_bits(),
            "winner distance bits, query {i}"
        );
        let (oa, ob) = (plain.overlap(i), pruned.overlap(i));
        assert_eq!(oa.len(), ob.len(), "overlap cardinality, query {i}");
        for (ea, eb) in oa.iter().zip(ob) {
            assert_eq!(ea.0, eb.0, "overlap member, query {i}");
            assert_eq!(
                ea.1.to_bits(),
                eb.1.to_bits(),
                "overlap degree bits, query {i}"
            );
        }
    }
    assert_eq!(
        counters.blocks,
        (queries.len() * layout.num_blocks()) as u64,
        "every (query, block) visit must be counted"
    );
    assert_eq!(counters.blocks, counters.skipped + counters.verified);
    // A bound is evaluated for every visit unless the layout is one block.
    let bounded = if layout.num_blocks() > 1 {
        counters.blocks
    } else {
        0
    };
    assert_eq!(counters.screened, bounded);
}

/// Boundary-straddling probe balls over the synthetic arenas' [-10, 10]^d
/// domain: cluster-sized through domain-dwarfing radii.
fn probe_balls(dim: usize, seed_ball: &Query, rng_seed: u64, n: usize) -> Vec<Query> {
    let mut rng = StdRng::seed_from_u64(rng_seed);
    let mut out = vec![seed_ball.clone()];
    while out.len() < n {
        let c: Vec<f64> = (0..dim).map(|_| rng.random_range(-12.0..12.0)).collect();
        out.push(Query::new_unchecked(c, rng.random_range(0.01..25.0)));
    }
    out
}

/// Trained shard fixtures, mirroring `batch_equivalence.rs`: per shard
/// count, `(snapshot, ascending disjoint global ids)` parts with a
/// trailing empty shard for counts > 2.
#[allow(clippy::type_complexity)]
fn sharded_fixtures() -> &'static Vec<(usize, Vec<(ServingSnapshot, Vec<usize>)>)> {
    static PARTS: OnceLock<Vec<(usize, Vec<(ServingSnapshot, Vec<usize>)>)>> = OnceLock::new();
    PARTS.get_or_init(|| {
        SHARD_COUNTS
            .iter()
            .map(|&shards| {
                let trained = if shards > 2 { shards - 1 } else { shards };
                let mut fixtures: Vec<(ServingSnapshot, Vec<usize>)> = (0..trained)
                    .map(|si| {
                        let mut rng = StdRng::seed_from_u64(101 + 13 * si as u64);
                        let mut cfg = ModelConfig::with_vigilance(2, 0.15);
                        cfg.gamma = 1e-4;
                        let mut m = LlmModel::new(cfg).unwrap();
                        let lo = si as f64 / trained as f64;
                        let hi = (si + 1) as f64 / trained as f64;
                        m.fit_stream((0..4_000).map(|_| {
                            let c = vec![rng.random_range(lo..hi), rng.random_range(0.0..1.0)];
                            let y = (3.0 * c[0]).sin() - c[1];
                            (Query::new_unchecked(c, rng.random_range(0.05..0.2)), y)
                        }))
                        .unwrap();
                        let snapshot = m.snapshot();
                        let ids = (0..snapshot.k()).map(|lk| lk * trained + si).collect();
                        (snapshot, ids)
                    })
                    .collect();
                if trained < shards {
                    let empty = LlmModel::new(ModelConfig::paper_defaults(2)).unwrap();
                    fixtures.push((empty.snapshot(), Vec::new()));
                }
                (shards, fixtures)
            })
            .collect()
    })
}

fn borrow_parts(fixtures: &[(ServingSnapshot, Vec<usize>)]) -> Vec<ShardPart<'_>> {
    fixtures
        .iter()
        .map(|(snapshot, ids)| ShardPart { snapshot, ids })
        .collect()
}

/// The full K sweep at every batch size, deterministic seeds — the
/// directed (non-proptest) backbone of the matrix, so the 4096-prototype
/// point is always exercised even if the proptest case budget is tiny.
#[test]
fn pruned_matches_unpruned_across_the_k_matrix() {
    for (ki, &k) in ARENA_KS.iter().enumerate() {
        let dim = 2 + ki % 3;
        let arena = synthetic_arena(k, dim, 0xA5A5 + k as u64);
        let seed_ball = Query::new_unchecked(vec![0.0; dim], 5.0);
        for &size in &BATCH_SIZES {
            // The largest batch only at the two largest K (keeps the
            // sweep under test-profile budget without losing the
            // 4096 × 1000 corner).
            if size == 1000 && k < 1024 {
                continue;
            }
            let queries = probe_balls(dim, &seed_ball, 7 * k as u64 + size as u64, size);
            assert_pruned_matches(&arena, &queries);
        }
    }
}

/// Directed: near-tie queries whose best candidates sit within a few
/// thousand ulps of each other, across blocks. The winner must still be
/// the lowest-index prototype among the bit-equal minima, and pruning
/// must not disturb that.
#[test]
fn near_ties_within_a_few_ulps_survive_pruning() {
    let dim = 3;
    for seed in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(0xBEE5 + seed);
        let q_center: Vec<f64> = (0..dim).map(|_| rng.random_range(-1.0..1.0)).collect();
        // Candidates on a sphere of radius ~2 around the query center,
        // jittered by rounding-error-sized amounts, so block-level
        // bounds cannot separate them.
        let band = 3072.0 * f64::EPSILON;
        let protos: Vec<Prototype> = (0..192)
            .map(|i| {
                let dir: Vec<f64> = (0..dim).map(|_| rng.random_range(-1.0..1.0)).collect();
                let norm = dir.iter().map(|d| d * d).sum::<f64>().sqrt().max(1e-9);
                let r = 2.0 + (i % 3) as f64 * band * rng.random_range(0.0..0.25);
                Prototype {
                    center: q_center
                        .iter()
                        .zip(&dir)
                        .map(|(&c, &d)| c + d / norm * r)
                        .collect(),
                    radius: 0.05,
                    y: 0.0,
                    b_x: vec![0.0; dim],
                    b_theta: 0.0,
                    updates: 0,
                }
            })
            .collect();
        let arena = PrototypeArena::from_prototypes(dim, &protos);
        let queries: Vec<Query> = (0..5)
            .map(|j| Query::new_unchecked(q_center.clone(), 1.9 + 0.05 * j as f64))
            .collect();
        assert_pruned_matches(&arena, &queries);
    }
}

/// Directed: geometry at magnitude ~3e8 — squared magnitudes ~1.8e17,
/// where one ulp is ~32 — with overlap margins of ~2e-3. An
/// expanded-form screen (`‖q‖² − 2q·r + ‖r‖²`) cancels catastrophically
/// here and needed an error budget to stay correct; the direct-form
/// bound subtracts before it squares, so it stays exact with no slack at
/// all. Block A holds the winner (a tight cluster around the probe
/// center); block B sits just inside the overlap boundary along axis 0,
/// so its membership hinges on exactly the comparisons a sloppy bound
/// would get wrong.
#[test]
fn large_magnitude_geometry_stays_bit_identical_without_slack() {
    let dim = 2;
    let mut rng = StdRng::seed_from_u64(42);
    let base = 3.0e8;
    let q_radius = 1.0;
    let proto_radius = 0.01;
    let margin = 1.0e-3;
    let reach = q_radius + proto_radius - margin;
    let cluster = |rng: &mut StdRng| -> Vec<f64> {
        vec![
            base + rng.random_range(-1.0e-6..1.0e-6),
            base + rng.random_range(-1.0e-6..1.0e-6),
        ]
    };
    let protos: Vec<Prototype> = (0..128)
        .map(|i| Prototype {
            // Block B's rows share ONE coordinate vector, so its overlap
            // decision rides a single comparison instead of an OR over
            // 64 independent ones.
            center: if i < 64 {
                cluster(&mut rng)
            } else {
                vec![base + reach, base]
            },
            radius: proto_radius,
            y: 0.0,
            b_x: vec![0.0; dim],
            b_theta: 0.0,
            updates: 0,
        })
        .collect();
    let arena = PrototypeArena::from_prototypes(dim, &protos);
    // Probe centers jitter far below the margin but far above the ulp of
    // the coordinates, so every query sees a fresh set of roundings while
    // all of block B stays truly inside its overlap ball.
    let queries: Vec<Query> = (0..64)
        .map(|_| Query::new_unchecked(cluster(&mut rng), q_radius))
        .collect();
    assert_pruned_matches(&arena, &queries);
    // The far block is a member block for every probe: were the bound
    // loose in the wrong direction, these entries would go missing.
    let mut plain = BatchResolution::new();
    arena.resolve_batch(&queries, &mut plain);
    for i in 0..queries.len() {
        assert!(plain.overlap(i).iter().any(|e| e.0 >= 64), "query {i}");
    }
}

/// Directed: hostile parameters. One far-away block that every probe
/// skips while healthy is poisoned with a NaN or ±∞ center coordinate or
/// radius; from then on that block is verified — and counted — for every
/// query, never skipped, and the answers equal the unpruned scan's
/// (which treats such rows as whatever IEEE comparison makes of them).
#[test]
fn hostile_block_is_always_verified_never_skipped() {
    let dim = 3;
    let mut rng = StdRng::seed_from_u64(7);
    let queries: Vec<Query> = (0..16)
        .map(|_| {
            let c: Vec<f64> = (0..dim).map(|_| rng.random_range(-1.0..1.0)).collect();
            Query::new_unchecked(c, rng.random_range(0.05..0.5))
        })
        .collect();
    let skipped_visits = |protos: &[Prototype]| -> u64 {
        let arena = PrototypeArena::from_prototypes(dim, protos);
        let layout = arena.build_layout();
        assert_eq!(layout.num_blocks(), 2);
        assert_pruned_matches(&arena, &queries);
        let mut res = BatchResolution::new();
        let mut counters = ScreenCounters::default();
        layout.resolve_batch_pruned(&queries, &mut res, &mut counters);
        counters.skipped
    };
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        // Two tight clusters 1000 apart, one block each: slots 0..64
        // near the origin, 64..128 far away — on the side the poisoned
        // coordinate sorts to, so the median split keeps the clusters
        // apart with or without it.
        let far = if bad == f64::NEG_INFINITY {
            -1000.0
        } else {
            1000.0
        };
        let healthy: Vec<Prototype> = (0..128)
            .map(|i| {
                let off = if i < 64 { 0.0 } else { far };
                Prototype {
                    center: (0..dim)
                        .map(|_| off + rng.random_range(-1.0..1.0))
                        .collect(),
                    radius: rng.random_range(0.05..0.3),
                    y: 0.0,
                    b_x: vec![0.0; dim],
                    b_theta: 0.0,
                    updates: 0,
                }
            })
            .collect();
        assert_eq!(
            skipped_visits(&healthy),
            queries.len() as u64,
            "healthy: every probe skips the far block"
        );
        let mut center_poisoned = healthy.clone();
        center_poisoned[100].center[1] = bad;
        assert_eq!(skipped_visits(&center_poisoned), 0, "center {bad}");
        let mut radius_poisoned = healthy;
        radius_poisoned[100].radius = bad;
        assert_eq!(skipped_visits(&radius_poisoned), 0, "radius {bad}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random arenas × random boundary-straddling batches: pruned equals
    /// unpruned bit for bit, and the telemetry always balances.
    #[test]
    fn pruned_resolution_matches_on_random_arenas(
        k in 64usize..512,
        dim in 2usize..5,
        coords in prop::collection::vec(-12.0..12.0f64, 4),
        radius in 0.01..25.0f64,
        rng_seed in any::<u64>(),
    ) {
        let arena = synthetic_arena(k, dim, rng_seed);
        let seed_ball = Query::new_unchecked(coords[..dim].to_vec(), radius);
        for &size in &[1usize, 7, 64] {
            let queries = probe_balls(dim, &seed_ball, rng_seed ^ size as u64, size);
            assert_pruned_matches(&arena, &queries);
        }
    }

    /// The pruned cross-shard batch drivers equal the unpruned drivers
    /// (already pinned bit-identical to the scalar path by
    /// `batch_equivalence.rs`) across the shard × batch matrix.
    #[test]
    fn sharded_pruned_drivers_match_unpruned(
        coords in prop::collection::vec(-0.5..1.5f64, 2),
        radius in 0.01..1.5f64,
        rng_seed in any::<u64>(),
    ) {
        let seed_ball = Query::new_unchecked(coords, radius);
        for (_, fixtures) in sharded_fixtures() {
            let parts = borrow_parts(fixtures);
            for &size in &BATCH_SIZES {
                let mut rng = StdRng::seed_from_u64(rng_seed);
                let queries: Vec<Query> = std::iter::once(seed_ball.clone())
                    .chain((1..size).map(|_| {
                        let c: Vec<f64> =
                            (0..2).map(|_| rng.random_range(-0.5..1.5)).collect();
                        Query::new_unchecked(c, rng.random_range(0.01..1.5))
                    }))
                    .collect();
                let plain_q1 = sharded_q1_with_confidence_batch(&parts, &queries);
                let plain_q2 = sharded_q2_with_confidence_batch(&parts, &queries);
                let mut c1 = ScreenCounters::default();
                let mut c2 = ScreenCounters::default();
                let pruned_q1 =
                    sharded_q1_with_confidence_batch_pruned(&parts, &queries, &mut c1);
                let pruned_q2 =
                    sharded_q2_with_confidence_batch_pruned(&parts, &queries, &mut c2);
                prop_assert_eq!(&plain_q1, &pruned_q1);
                prop_assert_eq!(&plain_q2, &pruned_q2);
                prop_assert_eq!(c1.blocks, c1.skipped + c1.verified);
                prop_assert_eq!(c2.blocks, c2.skipped + c2.verified);
                prop_assert!(c1.blocks > 0, "trained shards must be consulted");
            }
        }
    }
}
