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
//! A batch of `AVG`s (`ExactEngine::q1_batch`, the training stream's
//! entry) asks for one buffer over the kd-tree — its visiting order, one
//! key per ball — whatever the batch size, and for nothing over the scan,
//! which keeps input order; an empty batch asks for nothing on either.
//!
//! It is its own test binary because it installs a counting
//! `#[global_allocator]` (the shape of
//! `crates/core/tests/served_allocations.rs`); the count is per thread,
//! so the harness running tests side by side does not disturb it.

use rand::RngExt;
use regq_data::rng::seeded;
use regq_data::Dataset;
use regq_exact::ExactEngine;
use regq_store::AccessPathKind;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::sync::Arc;

thread_local! {
    /// Allocator calls that hand out memory (`alloc`, `alloc_zeroed`,
    /// `realloc`) made by this thread. `const` and without a destructor,
    /// so reading it from inside the allocator allocates nothing.
    static ACQUISITIONS: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting per thread.
struct Counting;

fn count() {
    // A thread being torn down may allocate after its locals are gone;
    // those calls are nobody's to count.
    let _ = ACQUISITIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// `GlobalAlloc` contract is therefore this type's; counting touches only a
// `const`-initialised thread-local `Cell`, which neither allocates nor
// unwinds.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller's `layout` obligations pass straight to `System`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    // SAFETY: as `alloc`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    // SAFETY: `ptr` came from this allocator, which is `System` underneath,
    // with this `layout` — the caller's obligation, passed on unchanged.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    // SAFETY: as `realloc`; releasing memory is not counted.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocator calls `f` made.
fn counted(f: impl FnOnce()) -> usize {
    let before = ACQUISITIONS.with(Cell::get);
    f();
    ACQUISITIONS.with(Cell::get) - before
}

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
            counted(|| {
                black_box(rel.count(center, radius));
            }),
            counted(|| {
                black_box(rel.fold_ball(center, radius, 0.0, |s, id, x, u| {
                    *s += x[0] * u + id as f64;
                }));
            }),
            counted(|| {
                black_box(engine.q1(center, radius));
            }),
            counted(|| {
                black_box(engine.q1_moments(center, radius));
            }),
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
                "d {dim} r {radius}: count / fold_ball / q1 / q1_moments"
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
                    calls = counted(|| engine.q1_batch(&centres, &radii, &mut out));
                }
                let path = engine.relation();
                assert_eq!(calls, want, "d {dim}, batch of {size}, {path:?}");
            }
            black_box(&out);
        }
    }
}
