//! What a served answer asks of the allocator, counted.
//!
//! The served path (`regq_core::snapshot`'s one resolve-and-fold driver)
//! keeps everything it needs between calls in a thread-local scratch, and
//! a `LINREG` list element holds its coefficients inline
//! ([`regq_core::Coeffs`]). So, once a thread is warm:
//!
//! * a scalar Q1 makes **no** allocator call;
//! * a Q1 batch allocates its output vector and nothing else;
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
use regq_core::{LlmModel, ModelConfig, Prototype, Query, ScreenCounters, ServingSnapshot};

#[path = "../../../tests/support/counting.rs"]
mod counting;
use counting::counted;

const K: usize = 1_500;

/// `K` seeded prototypes in the unit cube of dimension `dim`, as one
/// snapshot.
fn fixture(dim: usize) -> ServingSnapshot {
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
    LlmModel::from_parts(
        ModelConfig::with_vigilance(dim, 0.15),
        protos,
        K as u64,
        0,
        true,
    )
    .unwrap()
    .snapshot()
}

/// A ball whose members come from many blocks (the scatter/gather runs), one that fits inside a block, and one that
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
    let whole = fixture(dim);
    let mut counters = ScreenCounters::default();
    for pass in 0..3 {
        for q in &probes {
            let (answer, calls) =
                counted(|| whole.predict_q1_with_confidence_pruned(q, &mut counters));
            assert!(answer.is_ok());
            assert!(pass == 0 || calls == 0, "{calls} calls, pass {pass}");
        }
    }
}

#[test]
fn a_warm_q1_batch_allocates_only_its_output() {
    let dim = 4;
    let probes = probes(dim);
    let whole = fixture(dim);
    let mut counters = ScreenCounters::default();
    for pass in 0..3 {
        // The driver fills one `Option` per answer and the method turns
        // that into `Result<Vec<_>, _>` in the same buffer.
        let (answers, calls) =
            counted(|| whole.predict_q1_with_confidence_batch_pruned(&probes, &mut counters));
        assert_eq!(answers.unwrap().len(), probes.len());
        assert!(pass == 0 || calls == 1, "{calls} calls, pass {pass}");
    }
}

#[test]
fn a_warm_q2_allocates_its_list_and_nothing_else_up_to_eight_dimensions() {
    for dim in [1usize, 4, 8] {
        let probes = probes(dim);
        let whole = fixture(dim);
        let mut counters = ScreenCounters::default();
        for pass in 0..3 {
            for q in &probes {
                let (answer, calls) =
                    counted(|| whole.predict_q2_with_confidence_pruned(q, &mut counters));
                assert!(!answer.unwrap().0.is_empty());
                assert!(
                    pass == 0 || calls == 1,
                    "{calls} calls, d {dim}, pass {pass}"
                );
            }
            // A batch: one list per answer plus the output vector.
            let (answers, calls) =
                counted(|| whole.predict_q2_with_confidence_batch_pruned(&probes, &mut counters));
            assert_eq!(answers.unwrap().len(), probes.len());
            assert!(pass == 0 || calls == probes.len() + 1, "{calls} calls");
        }
    }
    // The fixture is worth the name: the first probe's list is long (the
    // parent commit paid two allocations for each element), the last
    // probe's is the winner alone.
    let lengths = list_lengths(&fixture(4), &probes(4));
    assert!(lengths[0] > 200, "{lengths:?}");
    assert_eq!(lengths[2], 1);
}

#[test]
fn beyond_eight_dimensions_each_list_element_spills_twice() {
    let dim = 9;
    let probes = probes(dim);
    let whole = fixture(dim);
    let lengths = list_lengths(&whole, &probes);
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
