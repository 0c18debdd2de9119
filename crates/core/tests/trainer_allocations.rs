//! What a training step asks of the allocator, counted.
//!
//! A trainable `LlmModel` keeps its winner search's layout and that
//! search's scratch between steps, and Theorem 4's update reads the
//! residual `q − w_j` afresh from operands that have not moved instead of
//! storing it. So, once a model is warm:
//!
//! * a step that updates a prototype — the common step — makes **no**
//!   allocator call, at any dimension;
//! * a step that spawns one appends to the arena and to the layout, whose
//!   buffers grow by doubling: over a stream that ends at `K` prototypes
//!   each buffer reallocates `O(log K)` times, not once per spawn — and
//!   the block a split adds grows the bound scratch in that same step, so
//!   the update after it still allocates nothing.
//!
//! A step that kept the residual in a `Vec` would allocate on every
//! update and fail the first test. This is its own test binary because it
//! installs a counting
//! `#[global_allocator]`; the count is per thread, so the harness running
//! tests side by side does not disturb it.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use regq_core::{LlmModel, ModelConfig, Query};

#[path = "../../../tests/support/counting.rs"]
mod counting;
use counting::counted;

/// `n` training pairs: balls uniform over the unit cube of dimension `d`,
/// built before anything is counted.
fn pairs(d: usize, n: usize, seed: u64) -> Vec<(Query, f64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let c: Vec<f64> = (0..d).map(|_| rng.random_range(0.0..1.0)).collect();
            let y = c.iter().sum::<f64>();
            (Query::new_unchecked(c, rng.random_range(0.05..0.15)), y)
        })
        .collect()
}

/// A model that never converges (every pair is a training step).
fn model(d: usize, a: f64) -> LlmModel {
    let mut cfg = ModelConfig::with_vigilance(d, a);
    cfg.gamma = 1e-300;
    LlmModel::new(cfg).unwrap()
}

#[test]
fn a_warm_step_that_does_not_spawn_never_calls_the_allocator() {
    // `d = 9` is past the inline `Coeffs` an answer spills at: the step
    // keeps no vector of its own at any `d`.
    for (d, a) in [(1usize, 0.004), (4, 0.05), (9, 0.12)] {
        let mut m = model(d, a);
        let stream = pairs(d, 8_000, d as u64);
        let (warm, counted_part) = stream.split_at(4_000);
        for (q, y) in warm {
            m.train_step(q, *y).unwrap();
        }
        assert!(m.k() > 200, "d={d}: K={} — several blocks", m.k());
        let (mut updates, mut spawns) = (0usize, 0usize);
        for (i, (q, y)) in counted_part.iter().enumerate() {
            let (out, calls) = counted(|| m.train_step(q, *y).unwrap());
            if out.spawned {
                spawns += 1;
            } else {
                updates += 1;
                assert_eq!(calls, 0, "d={d} step {i}: an update allocated");
            }
        }
        assert!(updates > 1_000, "d={d}: {updates} updates");
        assert!(spawns > 10, "d={d}: {spawns} spawns — splits in between");
    }
}

#[test]
fn spawning_steps_grow_the_arena_and_the_layout_amortised() {
    // A vigilance so small that almost every pair spawns: K climbs past
    // 4,000 and the layout gains ~100 blocks by splitting.
    let d = 4;
    let mut m = model(d, 1e-4);
    let stream = pairs(d, 4_500, 3);
    m.train_step(&stream[0].0, stream[0].1).unwrap();
    let (mut spawns, mut calls, mut allocating_steps) = (0usize, 0usize, 0usize);
    for (q, y) in &stream[1..] {
        let (out, n) = counted(|| m.train_step(q, *y).unwrap());
        assert!(out.spawned, "this stream only spawns");
        spawns += 1;
        calls += n;
        allocating_steps += usize::from(n > 0);
    }
    assert!(m.k() > 4_000);
    // The buffers that grow: six arena columns, the layout's block
    // lengths, slot → index and index → slot maps, centres, radii and
    // four bound arrays, and the bound scratch — 16. Each at least
    // doubles when it reallocates, and none is longer than
    // `64 · d · blocks ≤ 64 · d · K` elements, so each reallocates at most
    // `log2(64 · d · K) + 1 < 22` times over the whole stream.
    let bound = 16 * 22;
    assert!(
        calls <= bound,
        "{calls} allocator calls over {spawns} spawns"
    );
    assert!(
        allocating_steps * 10 < spawns,
        "{allocating_steps} of {spawns} spawning steps allocated"
    );
}
