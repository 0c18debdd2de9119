//! Every interleaving of the hazard-slot protocol, walked on the real
//! [`SnapshotCell`] (`docs/INVARIANTS.md`, *The schedule checker*).
//!
//! A memoized DFS enumerates every schedule of `readers` readers, each
//! making `reads` guarded reads, against one writer making `publishes`
//! publishes on top of a pre-loaded epoch. Every transition is a call
//! into `cell.rs`, which builds its read and publish paths from the same
//! step functions. The one thing restated here is the order of the steps:
//!
//! ```text
//! reader  A1 load_candidate → A2 pin_candidate → A3 validate_step
//!         (failed → A1) → D → REL release → A1, or done after `reads`
//! writer  P1 publish_unreclaimed → P2 reclaim, once per publish
//! ```
//!
//! D asks [`SnapshotCell::view`] whether the candidate is still retained.
//! Each edge replays its path on a fresh cell; the memo key is the
//! actors' steps plus the view. This binary's `#[global_allocator]` holds
//! back every free a replay makes on its thread until the replay ends, so
//! no address is reused inside one: the fresh-node assumption of the
//! protocol proof (with reuse, 2×2×1 counts 221,362,544 schedules).

// Unsafe by design: the `#[global_allocator]` that holds back frees.
#![allow(unsafe_code)]

use regq_serve::{CellView, NodeName, ReaderHandle, SnapshotCell};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;

thread_local! {
    /// Set while this thread replays a schedule.
    static HOLDING: Cell<bool> = const { Cell::new(false) };
    /// The frees held back, as address and layout.
    static HELD: RefCell<Vec<(usize, Layout)>> = const { RefCell::new(Vec::new()) };
}

/// The system allocator, holding back this thread's frees while it
/// replays a schedule.
struct NoReuse;

// SAFETY: every method forwards to `System`, whose `GlobalAlloc` contract
// is therefore this type's; a held-back block is freed later, exactly
// once, by `without_reuse`, with the layout it was allocated with.
unsafe impl GlobalAlloc for NoReuse {
    // SAFETY: the caller's `layout` obligations pass straight to `System`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: `layout` meets `alloc`'s contract, the caller's obligation.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: `ptr` came from `System` with this `layout` — the caller's
    // obligation, passed on unchanged. Overridden so that growing `HELD`
    // inside `dealloc` never re-enters `dealloc`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` and `layout` are as the caller guarantees them.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: as `realloc`; a held-back block stays allocated until
    // `without_reuse` frees it.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let held = HOLDING.try_with(Cell::get).unwrap_or(false)
            && HELD
                .try_with(|held| held.borrow_mut().push((ptr as usize, layout)))
                .is_ok();
        if !held {
            // SAFETY: as in `realloc`; a block not held back is freed here, once.
            unsafe { System.dealloc(ptr, layout) }
        }
    }
}

#[global_allocator]
static ALLOCATOR: NoReuse = NoReuse;

/// Run `f` with every free it makes on this thread held back until it
/// returns, so no address is handed out twice inside `f`.
fn without_reuse<R>(f: impl FnOnce() -> R) -> R {
    HOLDING.with(|on| on.set(true));
    let out = f();
    HOLDING.with(|on| on.set(false));
    HELD.with(|held| {
        for (ptr, layout) in held.borrow_mut().drain(..) {
            // SAFETY: `dealloc` held this block back instead of passing it
            // to `System`, which allocated it with this `layout`.
            unsafe { System.dealloc(ptr as *mut u8, layout) }
        }
    });
    out
}

/// The step order the explorer drives: the protocol's, or a deviation
/// from it that must be caught.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Order {
    Correct,
    /// A2 goes straight to D.
    SkipValidate,
    /// A failed A3 goes on to D.
    IgnoreFailedValidate,
    /// REL runs before D.
    ReleaseBeforeDeref,
    /// P2 is a no-op.
    NoReclaim,
}

/// A reader's next step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Pc {
    A1,
    A2,
    A3,
    Deref,
    Rel,
    Done,
}

#[derive(Debug, Clone, Copy)]
struct Config {
    readers: usize,
    publishes: usize,
    reads: usize,
}

/// Who moves on one step of a schedule.
#[derive(Debug, Clone, Copy)]
enum Actor {
    Writer,
    Reader(usize),
}

/// The property a schedule broke.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    UseAfterFree,
    RetentionBound,
    QuiescentRetention,
}

#[derive(Debug)]
struct Violation {
    kind: Kind,
    /// One label per step, ending with the step that broke `kind` (or the
    /// last step before quiescence).
    trace: Vec<String>,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}; schedule: {}", self.kind, self.trace.join(" "))
    }
}

/// The memo key: where every actor stands, and what the cell's pointers
/// name. A candidate is ignored (null) while its reader is at A1 or done,
/// since A1 overwrites it.
#[derive(Clone, PartialEq, Eq, Hash)]
struct Key {
    writer: usize,
    readers: Vec<(Pc, usize)>,
    view: CellView,
}

/// One replay: a fresh cell holding its pre-loaded epoch, its readers'
/// handles, and where every actor stands.
struct Run {
    cell: SnapshotCell<()>,
    handles: Vec<ReaderHandle<()>>,
    /// Writer steps taken: even = P1 next, odd = P2 next.
    writer: usize,
    /// Per reader: next step and reads done.
    readers: Vec<(Pc, usize)>,
}

impl Run {
    fn new(cfg: Config) -> Self {
        let cell = SnapshotCell::with_snapshot(());
        let handles = (0..cfg.readers).map(|_| cell.reader()).collect();
        Run {
            cell,
            handles,
            writer: 0,
            readers: vec![(Pc::A1, 0); cfg.readers],
        }
    }

    /// P2 as `order` runs it.
    fn reclaim(&self, order: Order) {
        if order != Order::NoReclaim {
            self.cell.reclaim();
        }
    }

    /// Take `actor`'s next step: a use-after-free if a D finds its
    /// candidate freed, a broken bound if a P2 leaves more than
    /// `readers + 1` nodes retained.
    fn step(&mut self, actor: Actor, cfg: Config, order: Order) -> Result<(), Kind> {
        let r = match actor {
            Actor::Writer => {
                self.writer += 1;
                if self.writer % 2 == 1 {
                    self.cell.publish_unreclaimed(());
                } else {
                    self.reclaim(order);
                    if self.cell.retained() > cfg.readers + 1 {
                        return Err(Kind::RetentionBound);
                    }
                }
                return Ok(());
            }
            Actor::Reader(r) => r,
        };
        let finish = |done: usize| {
            let next = if done + 1 < cfg.reads {
                Pc::A1
            } else {
                Pc::Done
            };
            (next, done + 1)
        };
        let (pc, done) = self.readers[r];
        let handle = &mut self.handles[r];
        self.readers[r] = match pc {
            Pc::A1 => {
                handle.load_candidate();
                (Pc::A2, done)
            }
            Pc::A2 => {
                handle.pin_candidate();
                match order {
                    Order::SkipValidate => (Pc::Deref, done),
                    _ => (Pc::A3, done),
                }
            }
            Pc::A3 => match (handle.validate_step(), order) {
                (_, Order::IgnoreFailedValidate) => (Pc::Deref, done),
                (true, Order::ReleaseBeforeDeref) => (Pc::Rel, done),
                (true, _) => (Pc::Deref, done),
                (false, _) => (Pc::A1, done),
            },
            Pc::Deref => {
                if self.cell.view(&self.handles).readers[r].0 == NodeName::Freed {
                    return Err(Kind::UseAfterFree);
                }
                match order {
                    Order::ReleaseBeforeDeref => finish(done),
                    _ => (Pc::Rel, done),
                }
            }
            Pc::Rel => {
                handle.release();
                match order {
                    Order::ReleaseBeforeDeref => (Pc::Deref, done),
                    _ => finish(done),
                }
            }
            Pc::Done => unreachable!("a finished reader is never scheduled"),
        };
        Ok(())
    }

    fn quiescent(&self, cfg: Config) -> bool {
        self.writer == 2 * cfg.publishes && self.readers.iter().all(|&(pc, _)| pc == Pc::Done)
    }

    fn key(&self) -> Key {
        let mut view = self.cell.view(&self.handles);
        for (names, &(pc, _)) in view.readers.iter_mut().zip(&self.readers) {
            if matches!(pc, Pc::A1 | Pc::Done) {
                names.0 = NodeName::Null;
            }
        }
        Key {
            writer: self.writer,
            readers: self.readers.clone(),
            view,
        }
    }

    /// A label for the step `actor` just took from `before`.
    fn label(&self, actor: Actor, before: Pc) -> String {
        match actor {
            Actor::Writer => {
                let p = 2 - self.writer % 2;
                format!("w:P{p}[retained={}]", self.cell.retained())
            }
            Actor::Reader(r) => {
                let (candidate, slot) = self.cell.view(&self.handles).readers[r];
                format!("r{r}:{before:?}[candidate={candidate:?}, slot={slot:?}]")
            }
        }
    }
}

struct Explored {
    schedules: u128,
    states: usize,
}

struct Explorer {
    cfg: Config,
    order: Order,
    /// Explored states → maximal schedules from them.
    memo: HashMap<Key, u128>,
    path: Vec<Actor>,
}

/// Walk every schedule of `cfg` under `order`: the exhaustive counts, or
/// the first violation with its schedule.
fn explore(cfg: Config, order: Order) -> Result<Explored, Violation> {
    let mut explorer = Explorer {
        cfg,
        order,
        memo: HashMap::new(),
        path: Vec::new(),
    };
    let start = explorer
        .replay(None)
        .map_err(|kind| explorer.violation(kind))?;
    let schedules = explorer.dfs(start)?;
    Ok(Explored {
        schedules,
        states: explorer.memo.len(),
    })
}

impl Explorer {
    fn dfs(&mut self, key: Key) -> Result<u128, Violation> {
        if let Some(&count) = self.memo.get(&key) {
            return Ok(count);
        }
        let writer = (key.writer < 2 * self.cfg.publishes).then_some(Actor::Writer);
        let readers = (0..self.cfg.readers)
            .filter(|&r| key.readers[r].0 != Pc::Done)
            .map(Actor::Reader);
        let mut total = 0u128;
        let mut enabled = false;
        for actor in writer.into_iter().chain(readers) {
            enabled = true;
            self.path.push(actor);
            let next = self.replay(None).map_err(|kind| self.violation(kind))?;
            total += self.dfs(next)?;
            self.path.pop();
        }
        if !enabled {
            total = 1;
        }
        self.memo.insert(key, total);
        Ok(total)
    }

    /// Replay the path on a fresh cell, labelling each step into `trace`
    /// if given: the state it reaches, or what its last step broke. A path
    /// ending in quiescence also runs the final reclaim.
    fn replay(&self, mut trace: Option<&mut Vec<String>>) -> Result<Key, Kind> {
        without_reuse(|| {
            let mut run = Run::new(self.cfg);
            for &actor in &self.path {
                let before = match actor {
                    Actor::Writer => Pc::Done,
                    Actor::Reader(r) => run.readers[r].0,
                };
                let stepped = run.step(actor, self.cfg, self.order);
                if let Some(trace) = trace.as_deref_mut() {
                    trace.push(run.label(actor, before));
                }
                stepped?;
            }
            if run.quiescent(self.cfg) {
                run.reclaim(self.order);
                if run.cell.retained() != 1 {
                    return Err(Kind::QuiescentRetention);
                }
            }
            Ok(run.key())
        })
    }

    /// The path that broke `kind`, replayed once more with labels.
    fn violation(&self, kind: Kind) -> Violation {
        let mut trace = Vec::new();
        let _ = self.replay(Some(&mut trace));
        Violation { kind, trace }
    }
}

/// readers × publishes × reads, and the exact number of schedules.
const GRID: [(usize, usize, usize, u128); 6] = [
    (2, 2, 1, 226_332_140),
    (2, 2, 2, 1_132_645_805_682),
    (2, 3, 1, 135_379_194_174),
    (3, 2, 1, 35_624_496_079_605_780),
    (3, 3, 1, 4_471_464_990_424_358_412_072),
    (3, 3, 2, 420_448_848_462_612_774_188_589_557_598),
];

#[test]
fn the_real_cell_is_safe_on_every_schedule_of_the_grid() {
    for (readers, publishes, reads, schedules) in GRID {
        let cfg = Config {
            readers,
            publishes,
            reads,
        };
        let out = explore(cfg, Order::Correct).unwrap_or_else(|v| panic!("{cfg:?}: {v}"));
        eprintln!(
            "{readers}r x {publishes}p x {reads}rd: {} schedules over {} states",
            out.schedules, out.states
        );
        assert_eq!(out.schedules, schedules, "{cfg:?}");
    }
}

#[test]
fn every_deviation_from_the_step_order_is_caught_with_its_schedule() {
    let mutants = [
        (Order::SkipValidate, 1, Kind::UseAfterFree),
        (Order::IgnoreFailedValidate, 1, Kind::UseAfterFree),
        (Order::ReleaseBeforeDeref, 1, Kind::UseAfterFree),
        (Order::NoReclaim, 3, Kind::RetentionBound),
    ];
    for (order, publishes, kind) in mutants {
        let cfg = Config {
            readers: 1,
            publishes,
            reads: 1,
        };
        let v = match explore(cfg, order) {
            Ok(_) => panic!("{order:?} was not caught"),
            Err(v) => v,
        };
        eprintln!("{order:?}: caught, {v}");
        assert_eq!(v.kind, kind, "{order:?}: {v}");
        assert!(!v.trace.is_empty(), "{v}");
    }
}
