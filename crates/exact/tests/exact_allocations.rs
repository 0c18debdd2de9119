//! What an exact answer over the kd-tree asks of the allocator, counted.
//!
//! A kd-tree traversal keeps its cell box and the visitor's row on the
//! stack and reaches the fold by static dispatch, so `COUNT(*)`, a fold
//! over the rows and the two training-query aggregates (`q1`,
//! `q1_moments`) make **no** allocator call — for a ball that prunes
//! nearly everything, one that holds whole subtrees and one that holds
//! the table. Before the stack scratch every traversal cost one `Vec`.
//! Only a table wider than the inline scratch (more than 32 columns)
//! still pays that one allocation, which a test pins so that the
//! boundary is a documented fact and not a surprise.
//!
//! The moments' second pass reads the ball's targets from a per-thread
//! buffer kept between calls, so it too asks for nothing warm, and a
//! fused Q1 + OLS fit (`q1_reg_fused`) asks for the fit's own buffers
//! and nothing for its moments.
//!
//! A batch of `AVG`s (`ExactEngine::q1_batch`, the training stream's
//! entry) asks for one buffer over the kd-tree — its visiting order, one
//! key per ball — whatever the batch size, and for nothing over the scan,
//! which keeps input order; an empty batch asks for nothing on either.
//!
//! It is its own test binary because it installs a counting
//! `#[global_allocator]` (`tests/support/counting.rs` at the repository
//! root); the count is per thread, so the harness running tests side by
//! side does not disturb it.

use rand::RngExt;
use regq_data::rng::seeded;
use regq_data::Dataset;
use regq_exact::ExactEngine;
use regq_store::AccessPathKind;
use std::hint::black_box;
use std::sync::Arc;

#[path = "../../../tests/support/counting.rs"]
mod counting;
use counting::counted;

fn engine(rows: usize, dim: usize) -> ExactEngine {
    let mut rng = seeded(dim as u64);
    let mut ds = Dataset::with_capacity(dim, rows);
    for _ in 0..rows {
        let x: Vec<f64> = (0..dim).map(|_| rng.random_range(0.0..1.0)).collect();
        ds.push(&x, x[0] - x[dim - 1]).unwrap();
    }
    ExactEngine::new(Arc::new(ds), AccessPathKind::KdTree)
}

/// Allocator calls of `COUNT(*)`, a row fold, `q1` and `q1_moments` over
/// one ball, after a warm-up pass over the same four.
fn calls_per_aggregate(engine: &ExactEngine, center: &[f64], radius: f64) -> [usize; 4] {
    let rel = engine.relation();
    let mut calls = [0; 4];
    for pass in 0..2 {
        let measured = [
            counted(|| black_box(rel.count(center, radius))).1,
            counted(|| {
                let mut s = 0.0;
                rel.visit_ball(center, radius, |id, x, u| s += x[0] * u + id as f64);
                black_box(s)
            })
            .1,
            counted(|| black_box(engine.q1(center, radius))).1,
            counted(|| black_box(engine.q1_moments(center, radius))).1,
        ];
        if pass == 1 {
            calls = measured;
        }
    }
    calls
}

#[test]
fn exact_answers_over_the_kd_tree_make_no_allocator_call() {
    for dim in [2usize, 4, 32] {
        let engine = engine(20_000, dim);
        let center = vec![0.5; dim];
        // Prunes nearly everything, holds whole subtrees, holds the table.
        for radius in [0.02, 0.3 * (dim as f64).sqrt(), 10.0] {
            assert!(radius > 1.0 || engine.relation().count(&center, radius) < 20_000);
            assert_eq!(
                calls_per_aggregate(&engine, &center, radius),
                [0; 4],
                "d {dim} r {radius}: count / visit_ball / q1 / q1_moments"
            );
        }
        assert_eq!(engine.relation().count(&center, 10.0), 20_000);
    }
}

#[test]
fn a_table_wider_than_the_inline_scratch_pays_one_allocation_a_traversal() {
    let engine = engine(2_000, 40);
    assert_eq!(
        calls_per_aggregate(&engine, &[0.5; 40], 1.5),
        [1; 4],
        "the cell box of a 40-column table spills to one Vec"
    );
}

#[test]
fn a_warm_batch_asks_for_its_visiting_order_and_nothing_else() {
    let mut rng = seeded(9);
    for dim in [2usize, 4] {
        let kd = engine(20_000, dim);
        let scan = ExactEngine::new(kd.relation().dataset().clone(), AccessPathKind::Scan);
        for size in [0usize, 1, 64, 1_000] {
            let centres: Vec<f64> = (0..size * dim)
                .map(|_| rng.random_range(0.0..1.0))
                .collect();
            let radii: Vec<f64> = (0..size).map(|_| rng.random_range(0.0..0.4)).collect();
            let mut out = vec![None; size];
            for (engine, want) in [(&kd, usize::from(size > 0)), (&scan, 0)] {
                let mut calls = 0;
                for _ in 0..2 {
                    calls = counted(|| engine.q1_batch(&centres, &radii, &mut out)).1;
                }
                let path = engine.relation();
                assert_eq!(calls, want, "d {dim}, batch of {size}, {path:?}");
            }
            black_box(&out);
        }
    }
}

/// Allocator calls of a warm `q1_reg_fused` over one ball.
fn fused_calls(engine: &ExactEngine, center: &[f64], radius: f64) -> usize {
    let mut calls = 0;
    for _ in 0..2 {
        calls = counted(|| black_box(engine.q1_reg_fused(center, radius))).1;
    }
    calls
}

/// A fused Q1 + OLS fit asks for the fit's own buffers — two for the
/// Gram state, two for the solve, one for the slope — and nothing for
/// its moments: warm, the targets they are taken over fill a per-thread
/// buffer kept between calls, so a ball of half the table and one of
/// all of it ask for the same. An empty ball stops at the Gram state.
#[test]
fn a_warm_fused_fit_asks_for_its_fit_and_nothing_for_its_moments() {
    const FIT_BUFFERS: usize = 5;
    for dim in [2usize, 4, 32] {
        let engine = engine(20_000, dim);
        let center = vec![0.5; dim];
        for radius in [0.3 * (dim as f64).sqrt(), 10.0] {
            assert!(engine.q1_reg_fused(&center, radius).is_ok());
            assert_eq!(
                fused_calls(&engine, &center, radius),
                FIT_BUFFERS,
                "d {dim} r {radius}"
            );
        }
        assert_eq!(
            fused_calls(&engine, &[9.0; 32][..dim], 0.1),
            2,
            "d {dim}: empty ball"
        );
    }
    // The cell box of a 40-column table spills to one `Vec` more.
    let wide = engine(2_000, 40);
    assert_eq!(fused_calls(&wide, &[0.5; 40], 10.0), FIT_BUFFERS + 1);
}
