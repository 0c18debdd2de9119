//! The acceptance gate for the served path.
//!
//! # Equivalence contract
//!
//! Every served answer comes out of one resolve-and-fold driver
//! (`regq_core::snapshot`): bound-and-verify resolution through the
//! snapshot's layout ([`regq_core::BlockLayout::resolve_batch_pruned`],
//! members left in block order), one scatter/gather of the members into
//! arena order, one fusion fold, a Q1 or Q2 head. That path is
//! **bit-identical** — not merely close — to the scalar unpruned oracle,
//! and the oracle is consulted *directly*, not through a chain:
//!
//! * **resolution level** — per query, the layout's winner and overlap
//!   set (as a set: compared on an id-sorted copy, every degree bit
//!   included) equal [`PrototypeArena::winner`] +
//!   [`PrototypeArena::overlap_set_into`] on the source arena (the block
//!   bound may only *discard* blocks, and it replays the kernel's own
//!   operation sequence on the block's box, so it never exceeds what the
//!   kernel computes for any row — no slack, pinned by
//!   `screening_bounds_never_exceed_any_row` in `arena.rs`);
//! * **answer level** — the four `ServingSnapshot::*_pruned` methods
//!   equal `predict_q{1,2}_with_confidence` on the same snapshot: a batch
//!   is its scalar calls (winner ties keep the lowest index, members fuse
//!   in ascending index). A router serves one such snapshot, the capture
//!   of its trainer, so this is its contract too (the root test
//!   `reference_interpreter.rs` holds the router to it from SQL text).
//!
//! The matrix: K ∈ {64, 257, 1024, 4096} × batch {1, 7, 64, 1000} ×
//! {Q1, Q2}, with balls straddling cluster and block boundaries, exact
//! and few-ulp ties, geometry at magnitude 3 × 10⁸, blocks poisoned with
//! NaN / ±∞ parameters, and hostile *query* balls. Every comparison is on
//! `to_bits`, and the pruning telemetry must balance everywhere.
//!
//! On failure the proptest shim prints a `REGQ_PROPTEST_SEED=<n>` line —
//! re-run with that env var set to reproduce the exact case.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use regq_core::{
    BatchResolution, Confidence, LlmModel, LocalModel, ModelConfig, Prototype, PrototypeArena,
    Query, ScreenCounters, ServingSnapshot,
};

const ARENA_KS: [usize; 4] = [64, 257, 1024, 4096];
const BATCH_SIZES: [usize; 4] = [1, 7, 64, 1000];

/// `k` synthetic prototypes in `dim` dimensions: half clustered tightly
/// around seeded anchors (so block pruning has something to skip), half
/// spread uniformly (so plenty of blocks stay live).
fn synthetic_protos(k: usize, dim: usize, seed: u64) -> Vec<Prototype> {
    let mut rng = StdRng::seed_from_u64(seed);
    let anchors: Vec<Vec<f64>> = (0..4)
        .map(|_| (0..dim).map(|_| rng.random_range(-8.0..8.0)).collect())
        .collect();
    (0..k)
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
        .collect()
}

/// Boundary-straddling probe balls over the synthetic [-10, 10]^d domain,
/// `seed_ball` first: radii log-uniform from cluster-sized (0.01) to
/// domain-dwarfing (25), so most sets are small and a few hold every
/// prototype.
fn probe_balls(dim: usize, seed_ball: &Query, rng_seed: u64, n: usize) -> Vec<Query> {
    let mut rng = StdRng::seed_from_u64(rng_seed);
    let mut out = vec![seed_ball.clone()];
    while out.len() < n {
        let c: Vec<f64> = (0..dim).map(|_| rng.random_range(-12.0..12.0)).collect();
        let radius = 0.01 * 2500f64.powf(rng.random_range(0.0..1.0));
        out.push(Query::new_unchecked(c, radius));
    }
    out
}

// ---- Resolution level ------------------------------------------------------

/// Assert the layout's resolution of `queries` equals the scalar passes
/// bit for bit and that the telemetry accounting is airtight; returns the
/// counters.
fn assert_resolution_matches(arena: &PrototypeArena, queries: &[Query]) -> ScreenCounters {
    let layout = arena.build_layout();
    let mut res = BatchResolution::new();
    let mut counters = ScreenCounters::default();
    layout.resolve_batch_pruned(queries, &mut res, &mut counters);
    assert_eq!(res.len(), queries.len());
    let mut set = Vec::new();
    for (i, q) in queries.iter().enumerate() {
        let (wk, wsq) = arena.winner(&q.center, q.radius).unwrap();
        let (gk, gsq) = res.winner(i);
        assert_eq!(
            (gk, gsq.to_bits()),
            (wk, wsq.to_bits()),
            "winner, query {i}"
        );
        arena.overlap_set_into(&q.center, q.radius, &mut set);
        // The layout emits block order: set and degree bits are pinned
        // here on an id-sorted copy, the order at the answer level below
        // (it decides the fold's bits).
        let mut got = res.overlap(i).to_vec();
        got.sort_unstable_by_key(|e| e.0);
        assert_eq!(got.len(), set.len(), "overlap cardinality, query {i}");
        for (a, b) in got.iter().zip(&set) {
            assert_eq!(
                (a.0, a.1.to_bits()),
                (b.0, b.1.to_bits()),
                "member, query {i}"
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
    counters
}

// ---- Answer level ----------------------------------------------------------

fn snapshot_of(dim: usize, protos: Vec<Prototype>) -> ServingSnapshot {
    let steps = protos.len() as u64;
    LlmModel::from_parts(
        ModelConfig::with_vigilance(dim, 0.15),
        protos,
        steps,
        0,
        true,
    )
    .unwrap()
    .snapshot()
}

fn conf_bits(c: &Confidence) -> ([u64; 4], bool) {
    let axes = [
        c.overlap_mass,
        c.support_updates,
        c.winner_distance_ratio,
        c.score,
    ];
    (axes.map(f64::to_bits), c.fused)
}

type Q1Bits = (u64, ([u64; 4], bool));
type Q2Bits = (Vec<(usize, Vec<u64>)>, ([u64; 4], bool));

/// A Q1 answer as raw bits — NaN-proof equality.
fn q1_bits((y, c): &(f64, Confidence)) -> Q1Bits {
    (y.to_bits(), conf_bits(c))
}

/// A Q2 answer as raw bits, prototype ids included.
fn q2_bits((list, c): &(Vec<LocalModel>, Confidence)) -> Q2Bits {
    let list = list
        .iter()
        .map(|lm| {
            let mut bits = vec![lm.intercept.to_bits(), lm.weight.to_bits()];
            bits.push(lm.radius.to_bits());
            bits.extend(lm.slope.iter().chain(&lm.center).map(|v| v.to_bits()));
            (lm.prototype, bits)
        })
        .collect();
    (list, conf_bits(c))
}

/// The scalar oracle's answers to `queries`, as bits (`None`
/// where it errs).
fn oracle_bits(
    full: &ServingSnapshot,
    queries: &[Query],
) -> (Vec<Option<Q1Bits>>, Vec<Option<Q2Bits>>) {
    let q1 = |q| {
        full.predict_q1_with_confidence(q)
            .ok()
            .as_ref()
            .map(q1_bits)
    };
    let q2 = |q| {
        full.predict_q2_with_confidence(q)
            .ok()
            .as_ref()
            .map(q2_bits)
    };
    (
        queries.iter().map(q1).collect(),
        queries.iter().map(q2).collect(),
    )
}

/// Assert that serving `queries` from the snapshot of `protos` —
/// batched, and scalar for the first few — returns exactly its oracle's
/// bits (`Err` in the oracle ⇔ `Err` served), with conserved counters.
fn assert_serves_the_oracle(protos: &[Prototype], dim: usize, queries: &[Query]) {
    let full = snapshot_of(dim, protos.to_vec());
    let (want_q1, want_q2) = oracle_bits(&full, queries);
    let (mut c1, mut c2) = (ScreenCounters::default(), ScreenCounters::default());
    let q1 = full.predict_q1_with_confidence_batch_pruned(queries, &mut c1);
    let q2 = full.predict_q2_with_confidence_batch_pruned(queries, &mut c2);
    let got_q1: Vec<_> = q1.unwrap().iter().map(|a| Some(q1_bits(a))).collect();
    let got_q2: Vec<_> = q2.unwrap().iter().map(|a| Some(q2_bits(a))).collect();
    assert!(got_q1 == want_q1, "batched Q1 diverged from the oracle");
    assert!(got_q2 == want_q2, "batched Q2 diverged from the oracle");
    // One visit per (query, block), on both heads.
    let blocks = full.layout().num_blocks();
    assert_eq!(c1, c2, "the head must not change what is resolved");
    assert_eq!(c1.blocks, (queries.len() * blocks) as u64);
    assert_eq!(c1.blocks, c1.skipped + c1.verified);
    // Scalar = batch of one, telemetry included.
    let mut scalar = ScreenCounters::default();
    for (i, q) in queries.iter().enumerate().take(8) {
        let y = full.predict_q1_with_confidence_pruned(q, &mut scalar);
        assert!(
            y.ok().as_ref().map(q1_bits) == want_q1[i],
            "scalar Q1, query {i}"
        );
        let s = full.predict_q2_with_confidence_pruned(q, &mut scalar);
        assert!(
            s.ok().as_ref().map(q2_bits) == want_q2[i],
            "scalar Q2, query {i}"
        );
    }
    assert_eq!(scalar.blocks, (2 * queries.len().min(8) * blocks) as u64);
    assert_eq!(scalar.blocks, scalar.skipped + scalar.verified);
}

// ---- The matrix ------------------------------------------------------------

/// The full K × batch × head sweep on deterministic seeds — the
/// directed backbone, so the 4096-prototype point is always exercised
/// even if the proptest case budget is tiny.
#[test]
fn served_answers_match_the_oracle_across_the_matrix() {
    for (ki, &k) in ARENA_KS.iter().enumerate() {
        let dim = 2 + ki % 3;
        let protos = synthetic_protos(k, dim, 0xA5A5 + k as u64);
        let arena = PrototypeArena::from_prototypes(dim, &protos);
        let seed_ball = Query::new_unchecked(vec![0.0; dim], 5.0);
        for &size in &BATCH_SIZES {
            // The largest batch only at the two largest K (keeps the
            // sweep under test-profile budget without losing the
            // 4096 × 1000 corner).
            if size == 1000 && k < 1024 {
                continue;
            }
            let queries = probe_balls(dim, &seed_ball, 7 * k as u64 + size as u64, size);
            assert_resolution_matches(&arena, &queries);
            assert_serves_the_oracle(&protos, dim, &queries);
        }
    }
}

/// Directed: exact ties. Every prototype exists twice, at adjacent
/// indices, with different coefficients — the layout's median splits may
/// put the twins in different blocks — so both the winner (fallback
/// probes: tiny far-away balls) and the fused sum depend on the
/// `(distance, index)` tie-break and on the gather restoring ascending
/// index order.
#[test]
fn exact_ties_keep_the_lowest_index() {
    let dim = 2;
    let mut protos = Vec::new();
    for p in synthetic_protos(96, dim, 0x71E5) {
        let mut twin = p.clone();
        twin.y += 1.0;
        twin.b_x[0] -= 0.5;
        protos.extend([p, twin]);
    }
    let mut rng = StdRng::seed_from_u64(3);
    let mut queries = probe_balls(dim, &Query::new_unchecked(vec![0.0; dim], 5.0), 17, 48);
    queries.extend((0..48).map(|_| {
        let c: Vec<f64> = (0..dim).map(|_| rng.random_range(-30.0..30.0)).collect();
        Query::new_unchecked(c, 1e-3)
    }));
    let full = snapshot_of(dim, protos.clone());
    for q in &queries {
        let (winner, _) = full.arena().winner(&q.center, q.radius).unwrap();
        assert!(winner.is_multiple_of(2), "the lower twin always wins");
    }
    assert_serves_the_oracle(&protos, dim, &queries);
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
                    y: i as f64,
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
        assert_resolution_matches(&arena, &queries);
        assert_serves_the_oracle(&protos, dim, &queries);
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
    assert_resolution_matches(&arena, &queries);
    // The far block is a member block for every probe: were the bound
    // loose in the wrong direction, these entries would go missing.
    let mut set = Vec::new();
    for (i, q) in queries.iter().enumerate() {
        arena.overlap_set_into(&q.center, q.radius, &mut set);
        assert!(set.iter().any(|e| e.0 >= 64), "query {i}");
    }
}

/// Directed: hostile parameters. One far-away block that every probe
/// skips while healthy is poisoned with a NaN or ±∞ center coordinate or
/// radius; from then on that block is verified — and counted — for every
/// query, never skipped, and the answers equal the scalar passes' (which
/// treat such rows as whatever IEEE comparison makes of them).
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
        assert_eq!(arena.build_layout().num_blocks(), 2);
        assert_resolution_matches(&arena, &queries).skipped
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

/// Hostile *query* balls — NaN / ±∞ centre coordinates, θ ∈ {0, −0.1, +∞,
/// NaN} and their combinations — through every served head (Q1, Q2 ×
/// scalar, batch): no panic, the oracle's `Ok`
/// shape, answers and confidence equal by `to_bits` (NaN included),
/// counters conserved. An empty model and a wrong dimension keep the
/// oracle's typed errors whatever the ball holds.
#[test]
fn hostile_query_balls_take_the_oracles_shape_through_every_head() {
    let dim = 3;
    let protos = synthetic_protos(300, dim, 0xBAD);
    let mut queries = Vec::new();
    for bad_center in [
        None,
        Some(f64::NAN),
        Some(f64::INFINITY),
        Some(f64::NEG_INFINITY),
    ] {
        for theta in [0.3, 0.0, -0.1, f64::INFINITY, f64::NAN] {
            for at in 0..dim {
                let mut c = vec![0.5, -7.9, 3.0];
                if let Some(bad) = bad_center {
                    c[at] = bad;
                }
                queries.push(Query::new_unchecked(c, theta));
            }
        }
    }
    let full = snapshot_of(dim, protos.clone());
    assert!(queries
        .iter()
        .all(|q| full.predict_q1_with_confidence(q).is_ok()));
    assert_resolution_matches(full.arena(), &queries);
    assert_serves_the_oracle(&protos, dim, &queries);

    let mut c = ScreenCounters::default();
    let empty = snapshot_of(dim, Vec::new());
    let narrow = Query::new_unchecked(vec![f64::NAN], f64::NAN);
    for q in &queries {
        assert_eq!(
            empty.predict_q1_with_confidence_pruned(q, &mut c).err(),
            empty.predict_q1_with_confidence(q).err()
        );
        assert_eq!(
            empty
                .predict_q2_with_confidence_batch_pruned(std::slice::from_ref(q), &mut c)
                .err(),
            empty.predict_q2_with_confidence(q).err()
        );
    }
    assert_eq!(
        full.predict_q2_with_confidence_pruned(&narrow, &mut c)
            .err(),
        full.predict_q2_with_confidence(&narrow).err()
    );
    assert_eq!(c, ScreenCounters::default(), "rejected before resolving");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random arenas × random boundary-straddling batches: the resolution
    /// equals the scalar passes, the served path returns the oracle's
    /// bits, and the telemetry always balances.
    #[test]
    fn served_answers_match_on_random_arenas(
        k in 64usize..512,
        dim in 2usize..5,
        coords in prop::collection::vec(-12.0..12.0f64, 4),
        radius in 0.01..25.0f64,
        rng_seed in any::<u64>(),
    ) {
        let protos = synthetic_protos(k, dim, rng_seed);
        let arena = PrototypeArena::from_prototypes(dim, &protos);
        let seed_ball = Query::new_unchecked(coords[..dim].to_vec(), radius);
        for &size in &[1usize, 7, 64] {
            let queries = probe_balls(dim, &seed_ball, rng_seed ^ size as u64, size);
            assert_resolution_matches(&arena, &queries);
            assert_serves_the_oracle(&protos, dim, &queries);
        }
    }
}
