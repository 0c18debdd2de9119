//! What the SQL front door asks of the allocator, counted.
//!
//! Text in, answer out: [`Session::execute`] parses a statement, binds it
//! to its table and consults the table's shard snapshots. The parse
//! borrows its table name from the text and allocates the centre once, at
//! its final size; the bind moves that centre into the [`Query`]; the
//! router pins its shards' read state in place; the model path beneath
//! allocates only what the answer owns (`served_allocations` in
//! `regq_core`). So, once a thread is warm, at 1 and at 4 shards and for
//! `d ∈ {2, 4, 8}`:
//!
//! * `AVG … USING MODEL`, `VAR … USING MODEL` and `COUNT(*)` make **one**
//!   allocator call: the centre;
//! * `LINREG … USING MODEL` makes **two**: the centre and the answer list;
//! * beneath the session, [`ShardRouter::q1_model`] makes **none** and
//!   [`ShardRouter::q2_model`] **one** (its list).
//!
//! Before the front door stopped allocating, the same warm calls cost 7
//! (`AVG`), 8 (`LINREG`) and 4 (`q1_model`) at one shard and `d ≤ 4`: the
//! parser's table `String` and centre `Vec`, the bind's copy of that
//! centre, three `Vec`s in the router's consultation and a `Box` each time
//! a thread-cached snapshot reader went back into its cache — three more
//! at four shards (one `Box` per shard), one more at `d = 8` (the centre
//! `Vec` grew once). That is what this file would report there.
//!
//! It is its own test binary because it installs a counting
//! `#[global_allocator]`; the count is per thread, so the harness running
//! tests side by side does not disturb it.

use rand::RngExt;
use regq_core::moments::{MomentPair, MomentsModel};
use regq_core::{LlmModel, ModelConfig, Query};
use regq_data::generators::GasSensorSurrogate;
use regq_data::rng::seeded;
use regq_data::{Dataset, SampleOptions};
use regq_exact::ExactEngine;
use regq_serve::ShardRouter;
use regq_sql::Session;
use regq_store::AccessPathKind;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
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

/// Run `f` and return what it returned with the allocator calls it made.
/// The result is handed back so that dropping it is the caller's business.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ACQUISITIONS.with(Cell::get);
    let out = f();
    (out, ACQUISITIONS.with(Cell::get) - before)
}

/// A `d`-dimensional table `t` with a trained model and moments model,
/// served over `shards` shards.
fn session(dim: usize, shards: usize) -> Session {
    let field = GasSensorSurrogate::new(dim, 5);
    let mut rng = seeded(dim as u64);
    let data = Dataset::from_function(&field, 4_000, SampleOptions::default(), &mut rng);
    let engine = ExactEngine::new(Arc::new(data), AccessPathKind::KdTree);
    let cfg = ModelConfig::with_vigilance(dim, 0.15);
    let mut model = LlmModel::new(cfg.clone()).unwrap();
    let mut moments = MomentsModel::new(cfg).unwrap();
    let scale = (dim as f64).sqrt();
    for _ in 0..1_500 {
        let c: Vec<f64> = (0..dim).map(|_| rng.random_range(0.0..1.0)).collect();
        let r = scale * rng.random_range(0.1..0.25);
        if let Some(mo) = engine.q1_moments(&c, r) {
            let q = Query::new_unchecked(c, r);
            model.train_step(&q, mo.mean).unwrap();
            let pair = MomentPair {
                mean: mo.mean,
                variance: mo.variance,
            };
            moments.train_step(&q, pair).unwrap();
        }
    }
    assert!(model.k() > 1, "K = {}", model.k());
    let mut s = Session::new();
    s.register_table("t", engine);
    s.register_model("t", model).unwrap();
    s.register_moments_model("t", moments).unwrap();
    s.execute_command(&format!("SET SHARDS {shards}")).unwrap();
    s
}

/// A ball in the middle of the data, a tight one, and one far outside
/// every prototype (winner fallback).
fn probes(dim: usize) -> [(Vec<f64>, f64); 3] {
    let scale = (dim as f64).sqrt();
    [
        (vec![0.5; dim], 0.2 * scale),
        (vec![0.3; dim], 0.01),
        (vec![9.0; dim], 0.05),
    ]
}

fn sql(aggregate: &str, (center, radius): &(Vec<f64>, f64), mode: &str) -> String {
    let center: Vec<String> = center.iter().map(|c| format!("{c:?}")).collect();
    format!(
        "SELECT {aggregate} FROM t WHERE DIST(x, [{}]) <= {radius:?} USING {mode};",
        center.join(", ")
    )
}

#[test]
fn a_warm_statement_allocates_its_centre_and_what_its_answer_owns() {
    // (aggregate, mode, allocator calls once warm)
    let statements = [
        ("AVG(u)", "MODEL", 1),
        ("VAR(u)", "MODEL", 1),
        ("COUNT(*)", "EXACT", 1),
        ("COUNT(*)", "MODEL", 1),
        ("LINREG(u)", "MODEL", 2),
    ];
    for dim in [2usize, 4, 8] {
        for shards in [1usize, 4] {
            let s = session(dim, shards);
            assert_eq!(s.router("t").unwrap().shards(), shards);
            for pass in 0..3 {
                for probe in &probes(dim) {
                    for (aggregate, mode, want) in statements {
                        let text = sql(aggregate, probe, mode);
                        let (out, calls) = counted(|| s.execute(&text));
                        out.unwrap_or_else(|e| panic!("{text}: {e}"));
                        assert!(
                            pass == 0 || calls == want,
                            "{calls} calls (want {want}) for {aggregate} USING {mode}, \
                             d {dim}, {shards} shards, pass {pass}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn beneath_the_session_the_router_allocates_only_the_answer() {
    for shards in [1usize, 4] {
        let s = session(4, shards);
        let router: &ShardRouter = s.router("t").unwrap();
        for pass in 0..3 {
            for (center, radius) in probes(4) {
                let q = Query::new(center, radius).unwrap();
                let (out, calls) = counted(|| router.q1_model(&q));
                out.unwrap();
                assert!(
                    pass == 0 || calls == 0,
                    "q1_model: {calls} calls, {shards} shards"
                );
                let (out, calls) = counted(|| router.q2_model(&q));
                assert!(!out.unwrap().value.is_empty());
                assert!(
                    pass == 0 || calls == 1,
                    "q2_model: {calls} calls, {shards} shards"
                );
            }
        }
    }
}
