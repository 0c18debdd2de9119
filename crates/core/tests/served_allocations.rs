//! What a served answer asks of the allocator, counted.
//!
//! The served path (`regq_core::snapshot`'s one resolve-and-fold driver)
//! keeps everything it needs between calls in a thread-local scratch, and
//! a `LINREG` list element holds its coefficients inline
//! ([`regq_core::Coeffs`]). So, once a thread is warm:
//!
//! * a scalar Q1 makes **no** allocator call, from one part or from four;
//! * a Q1 batch allocates its output vector(s) and nothing else;
//! * a Q2 answer allocates **its list, once** — however many members
//!   `W(q)` has, fused or winner fallback — for `d ≤ 8`, and two more per
//!   list element beyond that (the heap spill of `Coeffs`).
//!
//! Before the inline vector a Q2 answer cost `2·|W(q)|` allocations plus
//! the list's regrowths, which is what this file would report at that
//! commit. It is its own test binary because it installs a counting
//! `#[global_allocator]`; the count is per thread, so the harness running
//! tests side by side does not disturb it.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use regq_core::{
    sharded_q1_with_confidence_batch_pruned, sharded_q1_with_confidence_pruned,
    sharded_q2_with_confidence_batch_pruned, sharded_q2_with_confidence_pruned, LlmModel,
    ModelConfig, Prototype, Query, ScreenCounters, ServingSnapshot, ShardPart,
};

#[path = "../../../tests/support/counting.rs"]
mod counting;
use counting::counted;

const K: usize = 1_500;

/// `K` seeded prototypes in the unit cube of dimension `dim`, split
/// round-robin into `parts` snapshots with their ascending global ids.
fn fixture(dim: usize, parts: usize) -> Vec<(ServingSnapshot, Vec<usize>)> {
    let mut rng = StdRng::seed_from_u64(dim as u64);
    let mut coords = |scale: f64| -> Vec<f64> {
        (0..dim)
            .map(|_| scale * rng.random_range(0.0..1.0))
            .collect()
    };
    let protos: Vec<Prototype> = (0..K)
        .map(|i| Prototype {
            center: coords(1.0),
            radius: 0.05,
            y: i as f64,
            b_x: coords(2.0),
            b_theta: 0.5,
            updates: 3,
        })
        .collect();
    (0..parts)
        .map(|part| {
            let ids: Vec<usize> = (part..K).step_by(parts).collect();
            let subset = ids.iter().map(|&g| protos[g].clone()).collect();
            let model = LlmModel::from_parts(
                ModelConfig::with_vigilance(dim, 0.15),
                subset,
                K as u64,
                true,
            );
            (model.unwrap().snapshot(), ids)
        })
        .collect()
}

fn borrow(fixture: &[(ServingSnapshot, Vec<usize>)]) -> Vec<ShardPart<'_>> {
    fixture
        .iter()
        .map(|(snapshot, ids)| ShardPart {
            snapshot,
            ids: Some(ids),
        })
        .collect()
}

/// A ball whose members come from many blocks of every part (the
/// scatter/gather runs), one that fits inside a block, and one that
/// overlaps nothing (winner fallback).
fn probes(dim: usize) -> [Query; 3] {
    let ball = |at: f64, radius: f64| Query::new_unchecked(vec![at; dim], radius);
    [
        ball(0.5, 0.25 * (dim as f64).sqrt()),
        ball(0.4, 1e-3),
        ball(9.0, 1e-3),
    ]
}

/// The number of list elements the oracle returns per probe — what
/// `2·|W(q)|` was made of.
fn list_lengths(whole: &ServingSnapshot, probes: &[Query]) -> Vec<usize> {
    probes
        .iter()
        .map(|q| whole.predict_q2_with_confidence(q).unwrap().0.len())
        .collect()
}

#[test]
fn a_warm_scalar_q1_never_calls_the_allocator() {
    let dim = 4;
    let probes = probes(dim);
    for parts in [1usize, 4] {
        let fixture = fixture(dim, parts);
        let parts = borrow(&fixture);
        let whole = &fixture[0].0;
        let mut counters = ScreenCounters::default();
        for pass in 0..3 {
            for q in &probes {
                let (answer, calls) =
                    counted(|| sharded_q1_with_confidence_pruned(&parts, q, &mut counters));
                assert!(answer.is_some());
                assert!(pass == 0 || calls == 0, "{calls} calls, pass {pass}");
                // The unsharded wrapper is the one-part case of the same.
                let (answer, calls) =
                    counted(|| whole.predict_q1_with_confidence_pruned(q, &mut counters));
                assert!(answer.is_ok());
                assert!(pass == 0 || calls == 0, "{calls} calls, pass {pass}");
            }
        }
    }
}

#[test]
fn a_warm_q1_batch_allocates_only_its_output() {
    let dim = 4;
    let probes = probes(dim);
    for parts in [1usize, 4] {
        let fixture = fixture(dim, parts);
        let parts = borrow(&fixture);
        let whole = &fixture[0].0;
        let mut counters = ScreenCounters::default();
        for pass in 0..3 {
            let (answers, calls) =
                counted(|| sharded_q1_with_confidence_batch_pruned(&parts, &probes, &mut counters));
            assert_eq!(answers.len(), probes.len());
            assert!(pass == 0 || calls == 1, "{calls} calls, pass {pass}");
            // The wrapper turns `Vec<Option<_>>` into `Result<Vec<_>, _>`:
            // a second output vector, unless `collect` reuses the first.
            let (answers, calls) =
                counted(|| whole.predict_q1_with_confidence_batch_pruned(&probes, &mut counters));
            assert_eq!(answers.unwrap().len(), probes.len());
            assert!(
                pass == 0 || (1..=2).contains(&calls),
                "{calls} calls, pass {pass}"
            );
        }
    }
}

#[test]
fn a_warm_q2_allocates_its_list_and_nothing_else_up_to_eight_dimensions() {
    for dim in [1usize, 4, 8] {
        let probes = probes(dim);
        for parts in [1usize, 4] {
            let fixture = fixture(dim, parts);
            let parts = borrow(&fixture);
            let whole = &fixture[0].0;
            let mut counters = ScreenCounters::default();
            for pass in 0..3 {
                for q in &probes {
                    let (answer, calls) =
                        counted(|| sharded_q2_with_confidence_pruned(&parts, q, &mut counters));
                    assert!(!answer.unwrap().0.is_empty());
                    assert!(
                        pass == 0 || calls == 1,
                        "{calls} calls, d {dim}, pass {pass}"
                    );
                    let (answer, calls) =
                        counted(|| whole.predict_q2_with_confidence_pruned(q, &mut counters));
                    assert!(!answer.unwrap().0.is_empty());
                    assert!(
                        pass == 0 || calls == 1,
                        "{calls} calls, d {dim}, pass {pass}"
                    );
                }
                // A batch: one list per answer plus the output vector.
                let (answers, calls) = counted(|| {
                    sharded_q2_with_confidence_batch_pruned(&parts, &probes, &mut counters)
                });
                assert_eq!(answers.len(), probes.len());
                assert!(pass == 0 || calls == probes.len() + 1, "{calls} calls");
            }
        }
    }
    // The fixture is worth the name: the first probe's list is long (the
    // parent commit paid two allocations for each element), the last
    // probe's is the winner alone.
    let whole = fixture(4, 1).remove(0).0;
    let lengths = list_lengths(&whole, &probes(4));
    assert!(lengths[0] > 200, "{lengths:?}");
    assert_eq!(lengths[2], 1);
}

#[test]
fn beyond_eight_dimensions_each_list_element_spills_twice() {
    let dim = 9;
    let probes = probes(dim);
    let fixture = fixture(dim, 1);
    let whole = &fixture[0].0;
    let lengths = list_lengths(whole, &probes);
    let mut counters = ScreenCounters::default();
    for pass in 0..3 {
        for (q, len) in probes.iter().zip(&lengths) {
            let (answer, calls) =
                counted(|| whole.predict_q2_with_confidence_pruned(q, &mut counters));
            assert_eq!(answer.unwrap().0.len(), *len);
            assert!(pass == 0 || calls == 1 + 2 * len, "{calls} calls for {len}");
        }
    }
}
