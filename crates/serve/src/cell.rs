//! The publication point between one trainer and many serving threads.
//!
//! [`SnapshotCell`] is a hazard-slot swap cell specialized to this
//! workload: a single (or occasional) writer publishes immutable values
//! (typically [`ServingSnapshot`]s); any number of readers resolve the
//! current value **lock-free** — no mutex, no reference-count traffic, no
//! spin under a stable writer.
//!
//! # The epoch-slot protocol
//!
//! Each registered reader owns a *slot*: a single atomic pointer only that
//! reader writes. A read is a two-step announce/validate handshake:
//!
//! ```text
//! reader                                writer (publish / reclaim)
//! ------                                --------------------------
//! A1  candidate = current               P1  current = new node
//! A2  slot      = candidate             P2  scan slots; free retained
//! A3  re-read current                       nodes that are neither
//!     == candidate? → deref safely          current nor in any slot
//!     != candidate? → clear slot, retry
//! REL slot      = null (guard drop)
//! ```
//!
//! Each step is one function ([`ReaderHandle::announce`] is A1+A2), and
//! every read and publish path is composed of them. `tests/schedules.rs`
//! calls the same functions to walk every interleaving of a few readers
//! and one writer on a real cell (see `docs/INVARIANTS.md`).
//!
//! All four steps are `SeqCst`, so they embed in one total order that
//! respects per-thread program order. If a reader's validate `A3` still
//! observes its candidate `c`, then any reclaim that could free `c` belongs
//! to a publish whose `P1` replaced `c` — and that `P1` comes *after* `A3`
//! in the total order (otherwise `A3` would have seen the replacement).
//! Since `A2` precedes `A3` and `P2` follows `P1`, every such scan sees the
//! slot protecting `c` and retains it. The slot stays set until the
//! [`ReadGuard`] drops, so later publishes retain `c` too: a validated
//! guard can never observe a freed node.
//!
//! ABA on a reused allocation is benign: if the candidate was freed and its
//! address re-used for a newer node before `A3`, the validate only succeeds
//! when that address is *live and current again* — the guard then serves
//! the newer value at the same address, which is exactly as valid.
//!
//! # Memory bound
//!
//! Reclamation runs inside every `publish` (and on explicit
//! [`SnapshotCell::reclaim`]): after it, the cell retains only the current
//! node plus nodes pinned by reader slots — **retained ≤ active readers +
//! 1**, regardless of how many epochs were ever published (retaining
//! every epoch would grow `O(epochs × dK)` under perpetual training). The
//! only slack in the bound: a thread-cached
//! reader handle ([`SnapshotCell::tls_reader`]) keeps its registration (and
//! whatever its slot pins) alive until the thread touches another cell's
//! cache or exits.
//!
//! # Read-path cost
//!
//! The steady-state read is `A1`–`A3`: two `SeqCst` loads of `current` and
//! one store to a thread-private slot — still wait-free for the reader when
//! the writer is quiet, and never blocking either way. The writer pays for
//! reclamation (a lock + slot scan) only on publish.
//!
//! atomics: audited — every protocol step is `SeqCst` (above). The two
//! `Ordering::Relaxed` sites are the cell-id ticket counter
//! (`next_cell_id`, compared for equality only) and the epoch load under
//! the state lock that alone writes it, each justified where it stands.

// Unsafe by design: readers dereference raw node pointers under the
// hazard-slot protocol documented above.
#![allow(unsafe_code)]

use crate::fault::FaultPlan;
use regq_core::ServingSnapshot;
use std::any::Any;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One published value plus the epoch it was published at.
struct Node<T> {
    value: T,
    epoch: u64,
}

/// A per-reader hazard slot. Only the owning reader stores `protected`
/// (and only the writer scans it); `retired` flips once when the owning
/// handle drops, after which `publish`/`reclaim` prune the slot and
/// [`SnapshotCell::reader`] may re-issue it.
struct Slot<T> {
    protected: AtomicPtr<Node<T>>,
    retired: AtomicBool,
}

impl<T> Slot<T> {
    fn new() -> Self {
        Slot {
            protected: AtomicPtr::new(std::ptr::null_mut()),
            retired: AtomicBool::new(false),
        }
    }

    /// Step REL (and the clear after a failed A3): unpin.
    #[inline]
    fn clear(&self) {
        self.protected.store(std::ptr::null_mut(), Ordering::SeqCst);
    }
}

/// What a node pointer names in a [`CellView`].
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeName {
    /// The null pointer: an empty cell, or a clear slot.
    Null,
    /// The retained node published at this epoch.
    Epoch(u64),
    /// A pointer to no retained node: one the cell has freed.
    Freed,
}

/// [`SnapshotCell::view`]'s snapshot of the protocol state.
#[doc(hidden)]
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CellView {
    /// What `current` points at.
    pub current: NodeName,
    /// Every retained node, in publish order.
    pub retained: Vec<NodeName>,
    /// Per reader handle: its candidate, then its slot.
    pub readers: Vec<(NodeName, NodeName)>,
}

/// Writer-side state, always mutated under the one `Mutex`.
struct CellState<T> {
    /// Nodes not yet freed, in publish order. Raw pointers from
    /// [`Box::into_raw`] (freed in reclaim / `Drop`), not `Box`es: readers
    /// hold aliases into the pointees, and a `Box` value moving would
    /// invalidate those aliases under the `Box` unique-ownership rules.
    retained: Vec<*mut Node<T>>,
    /// Every registered reader slot (including retired ones awaiting
    /// pruning or re-issue).
    slots: Vec<Arc<Slot<T>>>,
    /// Armed fault schedule ([`SnapshotCell::arm_faults`]); `None` (the
    /// default) costs nothing on the publish path.
    fault: Option<FaultPlan>,
}

struct CellInner<T> {
    /// The currently served node; null until the first publish. Always
    /// points into `state.retained`.
    current: AtomicPtr<Node<T>>,
    /// Number of publishes so far.
    epoch: AtomicU64,
    /// Process-unique cell identity (keys the thread-local handle cache).
    id: u64,
    /// Set when the owning [`SnapshotCell`] drops, so cached reader
    /// handles on other threads know to evict themselves.
    closed: AtomicBool,
    state: Mutex<CellState<T>>,
}

/// SAFETY: the raw pointers in `state.retained` are uniquely owned by the
/// cell — created by `Box::into_raw` in `publish` before step P1, freed
/// only by the P2 reclaim scan (under the `state` lock) or in `Drop` —
/// and point to values of `T: Send + Sync`. Cross-thread access is
/// confined to the protocol: readers reach a node only through a
/// validated hazard slot (A1→A2→A3), writers only under the state lock,
/// so moving/sharing the container itself adds no unsynchronized path.
unsafe impl<T: Send + Sync> Send for CellInner<T> {}
/// SAFETY: see the `Send` impl — every shared path is either the state
/// `Mutex` or a SeqCst protocol step.
unsafe impl<T: Send + Sync> Sync for CellInner<T> {}

/// Compile-time guard: the default pointee readers share must itself be
/// freely shareable across threads.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ServingSnapshot>();
};

fn next_cell_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    // RELAXED: a ticket counter — `fetch_add` atomicity alone makes the
    // ids unique, and the id is only ever compared for equality (it keys
    // the thread-local handle cache), never used to order memory.
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Lock-free-read publication cell with per-reader hazard slots and
/// bounded snapshot retention (see module docs for the protocol and the
/// memory bound). Defaults to publishing [`ServingSnapshot`]s but is
/// generic over any `Send + Sync` payload.
pub struct SnapshotCell<T = ServingSnapshot> {
    inner: Arc<CellInner<T>>,
}

impl<T: Send + Sync> SnapshotCell<T> {
    /// An empty cell (readers see `None` until the first publish).
    pub fn new() -> Self {
        SnapshotCell {
            inner: Arc::new(CellInner {
                current: AtomicPtr::new(std::ptr::null_mut()),
                epoch: AtomicU64::new(0),
                id: next_cell_id(),
                closed: AtomicBool::new(false),
                state: Mutex::new(CellState {
                    retained: Vec::new(),
                    slots: Vec::new(),
                    fault: None,
                }),
            }),
        }
    }

    /// A cell pre-loaded with one value (epoch 1).
    pub fn with_snapshot(value: T) -> Self {
        let cell = Self::new();
        cell.publish(value);
        cell
    }

    /// Publish a value: subsequent reads observe it. Returns the new epoch
    /// (1-based). Writer-side: takes the state lock (serializing
    /// concurrent publishers in epoch order) and then reclaims every
    /// retained node that is neither current nor pinned by a reader slot.
    pub fn publish(&self, value: T) -> u64 {
        let mut state = self.lock_state();
        // Injected publish stall ([`FaultKind::PublishStall`]): the writer
        // wedges here *holding the state lock*, before the new epoch is
        // stored — the most adversarial spot. Hazard-slot readers
        // ([`SnapshotCell::tls_reader`] guards) keep serving the previous
        // epoch untouched; only lock-taking paths (`load_owned`,
        // diagnostics, other publishers) wait, which is exactly what the
        // stall battery asserts.
        if let Some(plan) = state.fault.clone() {
            plan.stall_publish();
        }
        let (node, epoch) = self.install_locked(&mut state, value);
        // P2: free everything no longer reachable.
        Self::reclaim_locked(&mut state, node);
        epoch
    }

    /// Step P1 alone: install `value` as current without the P2 scan,
    /// returning the new epoch. The schedule explorer's writer step;
    /// [`SnapshotCell::publish`] is this followed by P2.
    #[doc(hidden)]
    #[inline]
    pub fn publish_unreclaimed(&self, value: T) -> u64 {
        let mut state = self.lock_state();
        self.install_locked(&mut state, value).1
    }

    /// P1 under the held state lock: allocate the node, retain it, make
    /// it current. Returns the node and its epoch.
    #[inline]
    fn install_locked(&self, state: &mut CellState<T>, value: T) -> (*mut Node<T>, u64) {
        // RELAXED: `epoch` is only written here, under the state lock the
        // caller holds, so this load cannot race a writer; readers observe
        // epochs through the SeqCst store below (or the node itself).
        let epoch = self.inner.epoch.load(Ordering::Relaxed) + 1;
        // `into_raw` before anything else: the allocation must never be
        // reachable through a `Box` again once readers can alias it.
        let node = Box::into_raw(Box::new(Node { value, epoch }));
        state.retained.push(node);
        self.inner.current.store(node, Ordering::SeqCst);
        self.inner.epoch.store(epoch, Ordering::SeqCst);
        (node, epoch)
    }

    /// Step P2 of the protocol, and the schedule explorer's writer step:
    /// frees every retained node that is neither current nor pinned by a
    /// reader slot, prunes retired slots, and returns the number of nodes
    /// freed. `publish` already runs it; call it directly to drop pins
    /// eagerly after readers detach.
    pub fn reclaim(&self) -> usize {
        let mut state = self.lock_state();
        let current = self.inner.current.load(Ordering::SeqCst);
        Self::reclaim_locked(&mut state, current)
    }

    fn reclaim_locked(state: &mut CellState<T>, current: *mut Node<T>) -> usize {
        // A retired slot's owner cleared `protected` before retiring and
        // never touches the slot again, so pruning cannot drop a pin.
        state.slots.retain(|s| !s.retired.load(Ordering::SeqCst));
        let CellState {
            retained, slots, ..
        } = state;
        let mut freed = 0usize;
        retained.retain(|&ptr| {
            if ptr == current {
                return true;
            }
            if slots
                .iter()
                .any(|s| s.protected.load(Ordering::SeqCst) == ptr)
            {
                return true;
            }
            // SAFETY: this is step P2. `ptr` came from `Box::into_raw` in
            // `publish`, is not `current` (checked above), and is in no
            // hazard slot (checked above, SeqCst): any reader holding it
            // completed A2 (slot store) before its A3 validate, and A3
            // can only have succeeded while `ptr` was still current —
            // i.e. before this writer's P1 — so its slot entry is visible
            // to this scan. A reader whose A3 will fail re-announces and
            // never dereferences. Frees happen only here and in `Drop`,
            // each pointer exactly once (removed from `retained` as it is
            // freed).
            drop(unsafe { Box::from_raw(ptr) });
            freed += 1;
            false
        });
        freed
    }

    /// Register a reader: allocates (or re-issues a retired) hazard slot.
    /// The handle is the reader's identity for the announce/validate
    /// protocol; drop it to deregister. Most callers want the thread-cached
    /// [`SnapshotCell::tls_reader`] convenience instead.
    pub fn reader(&self) -> ReaderHandle<T> {
        let mut state = self.lock_state();
        let reused = state
            .slots
            .iter()
            .find(|s| s.retired.load(Ordering::SeqCst))
            .cloned();
        let slot = match reused {
            Some(slot) => {
                slot.clear();
                slot.retired.store(false, Ordering::SeqCst);
                slot
            }
            None => {
                let slot = Arc::new(Slot::new());
                state.slots.push(Arc::clone(&slot));
                slot
            }
        };
        drop(state);
        ReaderHandle {
            cell: Arc::clone(&self.inner),
            slot,
            candidate: std::ptr::null_mut(),
        }
    }

    /// Clone out the current value, or `None` before the first publish.
    /// Takes the state lock (which holds off reclamation) instead of a
    /// hazard slot — use it for occasional owned copies, not the hot read
    /// path.
    pub fn load_owned(&self) -> Option<T>
    where
        T: Clone,
    {
        let _state = self.lock_state();
        let p = self.inner.current.load(Ordering::SeqCst);
        if p.is_null() {
            None
        } else {
            // SAFETY: a non-null `current` is always in `retained` (P1
            // stores a pointer pushed there in the same lock scope), and
            // the only frees — P2 reclaim and `Drop` — run under the
            // state lock we hold, so `p` stays live for this clone.
            Some(unsafe { (*p).value.clone() })
        }
    }

    /// Number of publishes so far (the current epoch; 0 = empty cell).
    pub fn epoch(&self) -> u64 {
        self.inner.epoch.load(Ordering::SeqCst)
    }

    /// Number of nodes currently retained (diagnostics for the memory
    /// bound: after any reclaim this is ≤ active readers + 1).
    pub fn retained(&self) -> usize {
        self.lock_state().retained.len()
    }

    /// Number of registered (non-retired) reader slots.
    pub fn reader_slots(&self) -> usize {
        self.lock_state()
            .slots
            .iter()
            .filter(|s| !s.retired.load(Ordering::SeqCst))
            .count()
    }

    /// The schedule explorer's view of the protocol state: the current
    /// node, every retained node, and each of `readers`' candidate and
    /// slot, every pointer named by its node's publish epoch. A pointer
    /// is named by comparing it against `retained` under the state lock;
    /// one that matches no retained node is [`NodeName::Freed`] and is
    /// never dereferenced.
    #[doc(hidden)]
    pub fn view(&self, readers: &[ReaderHandle<T>]) -> CellView {
        let state = self.lock_state();
        let name = |p: *mut Node<T>| {
            if p.is_null() {
                return NodeName::Null;
            }
            match state.retained.iter().find(|&&r| r == p) {
                // SAFETY: `r` is in `retained`, and every free (P2 reclaim
                // and `Drop`) runs under the state lock held here.
                Some(&r) => NodeName::Epoch(unsafe { (*r).epoch }),
                None => NodeName::Freed,
            }
        };
        CellView {
            current: name(self.inner.current.load(Ordering::SeqCst)),
            retained: state.retained.iter().map(|&r| name(r)).collect(),
            readers: readers
                .iter()
                .map(|h| {
                    (
                        name(h.candidate),
                        name(h.slot.protected.load(Ordering::SeqCst)),
                    )
                })
                .collect(),
        }
    }

    /// Arm a fault-injection schedule on this cell's publish path (see
    /// [`crate::fault`]): [`crate::fault::FaultKind::PublishStall`]
    /// occurrences stall the writer mid-publish while readers keep
    /// serving. Engines and routers arm their cells when a plan is
    /// installed on them; direct cell users call this themselves.
    pub fn arm_faults(&self, plan: FaultPlan) {
        self.lock_state().fault = Some(plan);
    }

    fn lock_state(&self) -> std::sync::MutexGuard<'_, CellState<T>> {
        self.inner
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl<T: Send + Sync + 'static> SnapshotCell<T> {
    /// A reader handle drawn from (and returned to) this thread's handle
    /// cache, so repeated reads on one thread reuse one hazard slot
    /// instead of registering anew per call. Take several at once to read
    /// multiple cells coherently.
    pub fn tls_reader(&self) -> TlsReader<T> {
        TlsReader {
            id: self.inner.id,
            handle: Some(take_cached(self)),
        }
    }
}

impl<T: Send + Sync> Default for SnapshotCell<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> std::fmt::Debug for SnapshotCell<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotCell")
            .field("epoch", &self.inner.epoch.load(Ordering::SeqCst))
            .finish_non_exhaustive()
    }
}

impl<T> Drop for SnapshotCell<T> {
    fn drop(&mut self) {
        // Cached reader handles elsewhere keep `inner` alive via their
        // `Arc`s; flag the cell closed so they evict themselves.
        self.inner.closed.store(true, Ordering::SeqCst);
    }
}

impl<T> Drop for CellInner<T> {
    fn drop(&mut self) {
        // Last owner (`&mut self`): no handles or guards can exist
        // anymore, so freeing every retained node is safe.
        let state = self
            .state
            .get_mut()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        for ptr in state.retained.drain(..) {
            // SAFETY: `&mut self` proves no reader can be between A2 and
            // guard drop (handles and guards hold an `Arc` to this
            // `CellInner`), so no hazard slot pins `ptr`. Each pointer is
            // from `Box::into_raw` in `publish` and never freed elsewhere
            // (the P2 scan removes pointers from `retained` as it frees
            // them), so this is the first and only free.
            drop(unsafe { Box::from_raw(ptr) });
        }
    }
}

/// A registered reader's identity: one hazard slot plus the last announced
/// candidate. Obtain via [`SnapshotCell::reader`] (or thread-cached via
/// [`SnapshotCell::tls_reader`]); drop to deregister.
///
/// The stepped protocol is public so tests can drive interleavings
/// deterministically, at two grains: [`ReaderHandle::announce`] (A1+A2)
/// then [`ReaderHandle::validate`] (A3), or the single steps the schedule
/// explorer calls — A1 `load_candidate`, A2 `pin_candidate`, A3
/// `validate_step` and REL `release`, of which every read path is built.
/// [`ReaderHandle::enter`] is the fused form for real readers.
pub struct ReaderHandle<T = ServingSnapshot> {
    cell: Arc<CellInner<T>>,
    slot: Arc<Slot<T>>,
    candidate: *mut Node<T>,
}

/// SAFETY: `candidate` is just a pointer value — it is dereferenced only
/// through a [`ReadGuard`], i.e. only after this same handle's A3
/// validate succeeded, and moving the handle between threads cannot skip
/// that step (announce/validate take `&mut self`, so no round spans the
/// move). The slot/cell internals are `Send + Sync` for `T: Send + Sync`
/// per the `CellInner` impls above.
unsafe impl<T: Send + Sync> Send for ReaderHandle<T> {}

impl<T: Send + Sync> ReaderHandle<T> {
    /// Step A1: load the current pointer as this reader's candidate.
    #[doc(hidden)]
    #[inline]
    pub fn load_candidate(&mut self) {
        self.candidate = self.cell.current.load(Ordering::SeqCst);
    }

    /// Step A2: store the candidate into the hazard slot.
    #[doc(hidden)]
    #[inline]
    pub fn pin_candidate(&mut self) {
        self.slot.protected.store(self.candidate, Ordering::SeqCst);
    }

    /// Step A3: is the candidate still in the slot and still current?
    /// On failure the slot is cleared.
    #[doc(hidden)]
    #[inline]
    pub fn validate_step(&mut self) -> bool {
        let settled = self.slot.protected.load(Ordering::SeqCst) == self.candidate
            && self.cell.current.load(Ordering::SeqCst) == self.candidate;
        if !settled {
            self.release();
        }
        settled
    }

    /// Step REL: clear the hazard slot (what dropping a guard does).
    #[doc(hidden)]
    #[inline]
    pub fn release(&mut self) {
        self.slot.clear();
    }

    /// Steps A1+A2 of the protocol: load the current pointer as this
    /// reader's candidate and store it into the hazard slot.
    pub fn announce(&mut self) {
        self.load_candidate();
        self.pin_candidate();
    }

    /// Step A3: re-check that the announced candidate is still current
    /// (and still in the slot). On success the candidate is pinned for the
    /// guard's lifetime; on failure the slot is cleared and the caller
    /// should re-[`ReaderHandle::announce`].
    pub fn validate(&mut self) -> Option<ReadGuard<'_, T>> {
        if self.validate_step() {
            Some(ReadGuard {
                slot: &self.slot,
                node: self.candidate,
            })
        } else {
            None
        }
    }

    /// Announce/validate until a round succeeds (a handful of iterations
    /// even under a pathological writer; one when the writer is quiet).
    pub fn enter(&mut self) -> ReadGuard<'_, T> {
        loop {
            self.announce();
            if self.validate_step() {
                break;
            }
            std::hint::spin_loop();
        }
        ReadGuard {
            slot: &self.slot,
            node: self.candidate,
        }
    }
}

impl<T> Drop for ReaderHandle<T> {
    fn drop(&mut self) {
        // Clear before retiring: reclaim treats retired slots as prunable
        // and must never prune a live pin.
        self.slot.clear();
        self.slot.retired.store(true, Ordering::SeqCst);
    }
}

/// Proof that one announce/validate round succeeded: while this guard
/// lives, the value it resolves cannot be reclaimed (its pointer sits in
/// the reader's hazard slot). Borrows the [`ReaderHandle`] mutably, so a
/// reader holds at most one guard at a time.
pub struct ReadGuard<'a, T> {
    slot: &'a Slot<T>,
    node: *mut Node<T>,
}

impl<T> ReadGuard<'_, T> {
    /// The pinned value, or `None` if the cell was empty at announce time.
    pub fn get(&self) -> Option<&T> {
        if self.node.is_null() {
            None
        } else {
            // SAFETY: this guard exists only because A3 validated `node`
            // while it sat in the hazard slot (A2), and the slot keeps
            // holding it until the guard drops — so every P2 reclaim scan
            // between now and drop observes the pin (SeqCst) and retains
            // the node. The borrow cannot outlive the guard.
            Some(unsafe { &(*self.node).value })
        }
    }

    /// The pinned value's publish epoch, or `None` for an empty cell.
    pub fn epoch(&self) -> Option<u64> {
        if self.node.is_null() {
            None
        } else {
            // SAFETY: as in `get` — the A2 pin outlives this read.
            Some(unsafe { (*self.node).epoch })
        }
    }
}

impl<T> Drop for ReadGuard<'_, T> {
    fn drop(&mut self) {
        self.slot.clear();
    }
}

/// A [`ReaderHandle`] checked out of the current thread's handle cache;
/// returns itself to the cache on drop. Deref to drive the protocol.
pub struct TlsReader<T: Send + Sync + 'static> {
    id: u64,
    /// Boxed from check-out to check-in: the cache keeps handles boxed,
    /// so moving one in or out of it allocates nothing.
    handle: Option<Box<ReaderHandle<T>>>,
}

impl<T: Send + Sync + 'static> std::ops::Deref for TlsReader<T> {
    type Target = ReaderHandle<T>;
    #[expect(
        clippy::expect_used,
        reason = "`handle` is `Some` from construction in `tls_reader` until `Drop::drop` \
                  takes it; no other code writes the field"
    )]
    fn deref(&self) -> &ReaderHandle<T> {
        self.handle.as_deref().expect("present until drop")
    }
}

impl<T: Send + Sync + 'static> std::ops::DerefMut for TlsReader<T> {
    #[expect(
        clippy::expect_used,
        reason = "as in `deref` — `Some` until `Drop::drop`"
    )]
    fn deref_mut(&mut self) -> &mut ReaderHandle<T> {
        self.handle.as_deref_mut().expect("present until drop")
    }
}

impl<T: Send + Sync + 'static> Drop for TlsReader<T> {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            stash_cached(self.id, handle);
        }
    }
}

/// Type-erased entry in the thread-local handle cache.
trait CachedReader: Any {
    /// `true` once the owning [`SnapshotCell`] dropped — the handle only
    /// pins memory at that point and should be evicted.
    fn cell_closed(&self) -> bool;
    fn into_any(self: Box<Self>) -> Box<dyn Any>;
}

impl<T: Send + Sync + 'static> CachedReader for ReaderHandle<T> {
    fn cell_closed(&self) -> bool {
        self.cell.closed.load(Ordering::SeqCst)
    }
    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

thread_local! {
    /// Per-thread reader-handle cache, keyed by process-unique cell id.
    /// Tiny in practice: one entry per cell this thread reads.
    static HANDLE_CACHE: RefCell<Vec<(u64, Box<dyn CachedReader>)>> =
        const { RefCell::new(Vec::new()) };
}

fn take_cached<T: Send + Sync + 'static>(cell: &SnapshotCell<T>) -> Box<ReaderHandle<T>> {
    let cached = HANDLE_CACHE
        .try_with(|cache| {
            let mut cache = cache.borrow_mut();
            cache
                .iter()
                .position(|(id, _)| *id == cell.inner.id)
                .map(|i| cache.swap_remove(i).1)
        })
        .ok()
        .flatten();
    match cached.and_then(|boxed| boxed.into_any().downcast::<ReaderHandle<T>>().ok()) {
        Some(handle) => handle,
        None => Box::new(cell.reader()),
    }
}

fn stash_cached(id: u64, handle: Box<dyn CachedReader>) {
    // `try_with`: during thread teardown the cache may already be gone —
    // the handle then just drops, retiring its slot.
    let stashed = HANDLE_CACHE.try_with(|cache| {
        let mut cache = cache.borrow_mut();
        // Evict handles whose cells dropped (their Drop retires the slot
        // and releases the last pins).
        cache.retain(|(_, h)| !h.cell_closed());
        cache.push((id, handle));
    });
    // A teardown-phase failure (`try_with`) just lets the handle drop
    // here, which retires its slot — nothing else to do.
    let _ = stashed;
}

#[cfg(test)]
mod tests {
    use super::*;
    use regq_core::{LlmModel, ModelConfig, Query};

    fn snapshot_with_k(k: usize) -> ServingSnapshot {
        let mut cfg = ModelConfig::paper_defaults(2);
        cfg.vigilance_override = Some(1e-12);
        let mut m = LlmModel::new(cfg).unwrap();
        for i in 0..k {
            let x = i as f64 * 10.0;
            m.train_step(&Query::new_unchecked(vec![x, x], 0.1), x)
                .unwrap();
        }
        m.snapshot()
    }

    #[test]
    fn empty_cell_loads_none() {
        let cell: SnapshotCell = SnapshotCell::new();
        assert!(cell.load_owned().is_none());
        assert!(cell.tls_reader().enter().get().is_none());
        assert_eq!(cell.epoch(), 0);
        assert_eq!(cell.retained(), 0);
    }

    #[test]
    fn publish_makes_the_snapshot_visible() {
        let cell = SnapshotCell::new();
        assert_eq!(cell.publish(snapshot_with_k(3)), 1);
        assert_eq!(cell.tls_reader().enter().get().unwrap().k(), 3);
        assert_eq!(cell.epoch(), 1);
        assert_eq!(cell.publish(snapshot_with_k(5)), 2);
        assert_eq!(cell.tls_reader().enter().get().unwrap().k(), 5);
    }

    #[test]
    fn load_owned_pins_a_version_across_publishes() {
        let cell = SnapshotCell::with_snapshot(snapshot_with_k(2));
        let pinned = cell.load_owned().unwrap();
        cell.publish(snapshot_with_k(7));
        assert_eq!(pinned.k(), 2, "pinned version must not move");
        assert_eq!(cell.tls_reader().enter().get().unwrap().k(), 7);
    }

    #[test]
    fn reclamation_bounds_retention_with_no_readers() {
        // The regression the rewrite exists for: the old cell retained
        // every epoch forever.
        let cell: SnapshotCell<u64> = SnapshotCell::new();
        for i in 0..1000 {
            cell.publish(i);
        }
        assert_eq!(cell.epoch(), 1000);
        assert_eq!(cell.retained(), 1, "only the current node survives");
    }

    #[test]
    fn a_guard_pins_exactly_its_epoch() {
        let cell: SnapshotCell<u64> = SnapshotCell::new();
        cell.publish(10);
        let mut reader = cell.reader();
        let guard = reader.enter();
        assert_eq!(guard.get(), Some(&10));
        assert_eq!(guard.epoch(), Some(1));
        cell.publish(20);
        cell.publish(30);
        // Pinned node + current survive; the middle epoch was freed.
        assert_eq!(guard.get(), Some(&10), "guard must not move");
        assert_eq!(cell.retained(), 2);
        drop(guard);
        cell.reclaim();
        assert_eq!(cell.retained(), 1);
        assert_eq!(cell.tls_reader().enter().get(), Some(&30));
    }

    #[test]
    fn failed_validate_clears_the_slot_and_retries_cleanly() {
        let cell: SnapshotCell<u64> = SnapshotCell::new();
        cell.publish(1);
        let mut reader = cell.reader();
        reader.announce();
        cell.publish(2); // invalidates the announced candidate
        assert!(reader.validate().is_none(), "stale candidate must fail");
        let guard = reader.enter();
        assert_eq!(guard.get(), Some(&2));
        drop(guard);
        drop(reader);
        cell.reclaim();
        assert_eq!(cell.reader_slots(), 0, "dropped handle retires its slot");
        assert_eq!(cell.retained(), 1);
    }

    #[test]
    fn retired_slots_are_reissued() {
        let cell: SnapshotCell<u64> = SnapshotCell::new();
        cell.publish(1);
        let r1 = cell.reader();
        assert_eq!(cell.reader_slots(), 1);
        drop(r1);
        let _r2 = cell.reader();
        let _r3 = cell.reader();
        // r2 reused r1's slot, r3 got a fresh one.
        let state = cell.lock_state();
        assert_eq!(state.slots.len(), 2);
    }

    #[test]
    fn tls_readers_reuse_one_slot_per_thread() {
        let cell: SnapshotCell<u64> = SnapshotCell::new();
        cell.publish(5);
        for _ in 0..100 {
            assert_eq!(cell.tls_reader().enter().get(), Some(&5));
        }
        assert_eq!(cell.reader_slots(), 1);
        // Nested reads on one thread (router-style: several cells, or
        // re-entrant use of one cell) must not panic or deadlock.
        let cell2: SnapshotCell<u64> = SnapshotCell::with_snapshot(7);
        let (mut a, mut b) = (cell.tls_reader(), cell2.tls_reader());
        let (a, b) = (a.enter(), b.enter());
        assert_eq!((a.get(), b.get()), (Some(&5), Some(&7)));
    }

    #[test]
    fn concurrent_readers_see_whole_snapshots_during_publishes() {
        // Readers hammer guarded reads while a writer publishes a
        // monotonically growing sequence; every observed snapshot must be
        // internally consistent (K matches its prototype list) and
        // versions must be monotone per reader.
        let cell = SnapshotCell::with_snapshot(snapshot_with_k(1));
        std::thread::scope(|scope| {
            let readers: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        let mut reader = cell.reader();
                        let mut last_k = 0usize;
                        for _ in 0..20_000 {
                            let guard = reader.enter();
                            let snap = guard.get().expect("published");
                            let k = snap.k();
                            assert!(k >= last_k, "readers must see monotone publishes");
                            assert_eq!(snap.prototypes().len(), k);
                            last_k = k;
                        }
                    })
                })
                .collect();
            for k in 2..=32 {
                cell.publish(snapshot_with_k(k));
            }
            for r in readers {
                r.join().unwrap();
            }
        });
        assert_eq!(cell.epoch(), 32);
        // All reader handles dropped: one reclaim collapses to current.
        cell.reclaim();
        assert_eq!(cell.retained(), 1);
    }

    #[test]
    fn a_stalled_publish_never_blocks_hazard_readers() {
        use crate::fault::{FaultKind, FaultPlan};
        let cell: SnapshotCell<u64> = SnapshotCell::new();
        cell.publish(1);
        let (plan, gate) = FaultPlan::new()
            .inject(FaultKind::PublishStall, &[1])
            .with_publish_gate();
        cell.arm_faults(plan.clone());
        // Register before arming the writer: registration takes the state
        // lock, which the stalled publish holds.
        let mut reader = cell.reader();
        std::thread::scope(|scope| {
            let writer = scope.spawn(|| cell.publish(2));
            while plan.fired(FaultKind::PublishStall) == 0 {
                std::hint::spin_loop();
            }
            // The writer is wedged inside `publish` with the state lock
            // held; hazard-slot reads keep serving the previous epoch.
            for _ in 0..100 {
                let guard = reader.enter();
                assert_eq!(guard.get(), Some(&1));
                assert_eq!(guard.epoch(), Some(1));
            }
            gate.release();
            assert_eq!(writer.join().unwrap(), 2);
        });
        assert_eq!(cell.tls_reader().enter().get(), Some(&2));
        assert_eq!(cell.epoch(), 2);
    }

    #[test]
    fn reclamation_stress_bounds_retention_under_n_readers() {
        // Satellite: N reader threads × 1 writer publishing every example;
        // retained epochs stay ≤ readers + 1 after each publish, and no
        // reader ever observes a freed snapshot (asserted indirectly: every
        // guarded value is internally consistent, which a use-after-free
        // of dropped prototype arenas would violate loudly under the
        // growing-K workload; Miri-level checks aside, a freed `u64` node
        // would also fail the monotonicity assertion below).
        const READERS: usize = 6;
        const PUBLISHES: u64 = 4_000;
        let cell: SnapshotCell<(u64, u64)> = SnapshotCell::new();
        cell.publish((0, 0));
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            for _ in 0..READERS {
                scope.spawn(|| {
                    let mut reader = cell.reader();
                    let mut last = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let guard = reader.enter();
                        let &(v, check) = guard.get().expect("published");
                        assert_eq!(check, v * 7919, "torn or freed node observed");
                        assert!(v >= last, "non-monotone read");
                        last = v;
                    }
                });
            }
            for v in 1..=PUBLISHES {
                cell.publish((v, v * 7919));
                let retained = cell.retained();
                assert!(
                    retained <= READERS + 1,
                    "retention unbounded: {retained} nodes for {READERS} readers"
                );
            }
            stop.store(true, Ordering::Relaxed);
        });
        assert_eq!(cell.epoch(), PUBLISHES + 1);
        cell.reclaim();
        assert_eq!(cell.retained(), 1);
    }
}
