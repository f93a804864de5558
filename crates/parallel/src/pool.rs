//! The persistent worker pool behind every parallel region.
//!
//! Through PR 2–4 every parallel region spawned its own OS threads via
//! [`std::thread::scope`] and joined them before returning. That kept the
//! lifetimes trivial (borrowed inputs need no `'static` bound) but charged a
//! full thread spawn + join per region — pure overhead at serving rates,
//! where a single frame batch runs a dozen small regions (eventify, readout,
//! token gather, per-head attention). This module replaces the spawns with a
//! lazily-initialised pool of **persistent workers** that park on a condvar
//! between regions; the `pool_overhead` group in `BENCH_kernels.json` tracks
//! the per-region dispatch saving against a spawn-per-region baseline.
//!
//! # Handoff protocol
//!
//! A parallel region is split into `S` **shares** (one contiguous slice of
//! the fixed work partition each — the partition arithmetic lives in the
//! public primitives and is unchanged from the scoped-thread era, so results
//! stay bit-identical). `run_region` then:
//!
//! 1. stamps the region with a fresh **generation** from a global counter
//!    and builds a `RegionHarness` on the submitting thread's stack: the
//!    lifetime-erased closure pointer, a `remaining` latch initialised to
//!    `S - 1`, a completion condvar and a first-panic slot;
//! 2. enqueues one `Task` per share `1..S` — each task is just
//!    `(harness pointer, monomorphised trampoline, share index, generation)`
//!    — and wakes parked workers;
//! 3. runs share `0` itself (under the serial override, like every worker),
//!    then **helps drain** any of its own still-queued shares so a saturated
//!    pool can never stall a region behind unrelated work;
//! 4. blocks on the latch until `remaining == 0`, then re-raises the first
//!    captured panic (its own share's first, then any worker's).
//!
//! # Safety argument
//!
//! This is the one place in the workspace where a borrow crosses into
//! `'static` threads, so the argument is spelled out in full:
//!
//! * **Liveness of the harness.** A `Task` holds a raw pointer to the
//!   submitter's stack-allocated `RegionHarness`. The submitter cannot
//!   return from `run_region` (and therefore cannot free the harness)
//!   until the `remaining` latch reaches zero, and a share decrements the
//!   latch only *after* its closure call has returned (or been caught
//!   panicking). The decrement-and-notify is the trampoline's final access
//!   to the harness; everything the worker does afterwards touches only the
//!   global pool state. Hence no task can observe a dead harness.
//! * **Aliasing.** The closure behind the pointer is `Fn(usize) + Sync`, so
//!   shared calls from many threads are sound by construction. Mutable
//!   slices are handed out by the *primitives* (not this module) as
//!   provably disjoint ranges of one buffer, reconstructed per share from
//!   the fixed partition arithmetic.
//! * **Generation stamp.** Each task carries its region's generation and the
//!   trampoline asserts it against the harness before running. The queue
//!   discipline above already guarantees a task never outlives its region;
//!   the stamp is a cheap tripwire that turns any future bookkeeping bug
//!   (a stale or duplicated task) into a deterministic panic instead of
//!   silent memory unsafety.
//! * **Panics.** Worker threads wrap every share in `catch_unwind`, so a
//!   panicking kernel closure can neither kill a pool thread nor skip the
//!   latch decrement; the first payload is re-raised on the submitting
//!   thread, preserving the scoped-thread era's contract.
//!
//! Workers are never torn down: the pool grows on demand up to
//! [`MAX_THREADS`]` - 1` helpers (the submitter is the remaining "thread")
//! and parks when idle, so thousands of regions reuse the same few OS
//! threads — the lifecycle suite asserts the count stays put.

// The one crate module allowed to write `unsafe`: the lifetime-erased job
// handoff and the take-once share cells below are the entire unsafe surface
// of the workspace, kept here so the safety argument lives next to the code.
#![allow(unsafe_code)]

use std::any::Any;
use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock};
use std::thread;

use crate::{worker_guard, MAX_THREADS};

/// Monotonic generation stamp; one per region, never reused.
static REGION_GEN: AtomicU64 = AtomicU64::new(1);

/// One share of a region, lifetime-erased for the queue.
///
/// `run` is the monomorphised trampoline `run_share` for the region's
/// closure type; `harness` points at the submitter's `RegionHarness`.
#[derive(Clone, Copy)]
struct Task {
    harness: *const (),
    run: unsafe fn(*const (), usize, u64),
    index: usize,
    gen: u64,
}

// SAFETY: the harness pointer stays valid until the region's latch releases
// the submitter (see the module-level safety argument), and the closure it
// leads to is `Sync`.
unsafe impl Send for Task {}

struct PoolState {
    queue: VecDeque<Task>,
    spawned: usize,
}

struct Pool {
    state: Mutex<PoolState>,
    work: Condvar,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        state: Mutex::new(PoolState {
            queue: VecDeque::with_capacity(2 * MAX_THREADS),
            spawned: 0,
        }),
        work: Condvar::new(),
    })
}

/// Locks the pool state, shrugging off poisoning (no code path panics while
/// holding the lock, but a defensive recovery keeps the pool usable even if
/// one ever does).
fn lock(p: &Pool) -> MutexGuard<'_, PoolState> {
    p.state.lock().unwrap_or_else(|e| e.into_inner())
}

/// Number of persistent worker threads spawned so far in this process.
///
/// Grows on demand, never shrinks, and is bounded by [`MAX_THREADS`]` - 1`;
/// the pool-lifecycle tests assert it stays stable across thousands of
/// regions (no thread or descriptor leaks).
pub fn pool_thread_count() -> usize {
    lock(pool()).spawned
}

/// Take-once cells carrying each share's work item (typically the share's
/// pre-split `&mut` sub-slices plus its first chunk index) across the pool.
///
/// The primitives partition their buffers with safe `split_at_mut` calls on
/// the submitting thread, park the disjoint pieces here, and each share
/// takes exactly its own index from inside the region closure — so the
/// mutable borrows cross threads without any raw-pointer slicing in the
/// primitives themselves. The cells are a fixed array on the submitter's
/// stack (a region has at most [`MAX_THREADS`] shares), so dispatching a
/// region allocates nothing.
pub(crate) struct ShareCells<T> {
    cells: [UnsafeCell<Option<T>>; MAX_THREADS],
    len: usize,
}

// SAFETY: a `ShareCells` is only shared between the threads of one region,
// and `run_region` invokes every share index exactly once, so no two threads
// ever touch the same cell (the `Option` turns any future double-take bug
// into a panic, not a race on the payload — though the cell access itself
// relies on the exactly-once discipline).
unsafe impl<T: Send> Sync for ShareCells<T> {}

impl<T> ShareCells<T> {
    /// An empty set of cells.
    pub(crate) fn new() -> Self {
        ShareCells {
            cells: std::array::from_fn(|_| UnsafeCell::new(None)),
            len: 0,
        }
    }

    /// Parks the next share's work item.
    ///
    /// # Panics
    ///
    /// Panics if [`MAX_THREADS`] items are already parked.
    pub(crate) fn push(&mut self, item: T) {
        assert!(self.len < MAX_THREADS, "more shares than MAX_THREADS");
        *self.cells[self.len].get_mut() = Some(item);
        self.len += 1;
    }

    /// Number of parked shares.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Takes share `w`'s item. Must be called at most once per index, from
    /// the share that owns it (`run_region`'s exactly-once dispatch is the
    /// guarantee).
    ///
    /// # Panics
    ///
    /// Panics if the item was already taken (a pool bookkeeping bug).
    pub(crate) fn take(&self, w: usize) -> T {
        // SAFETY: share `w` is executed exactly once per region, and only
        // that share calls `take(w)`, so this mutable access is unique.
        let slot = unsafe { &mut *self.cells[w].get() };
        slot.take().expect("share item taken exactly once")
    }
}

/// The per-region stack frame shared with the workers.
struct RegionHarness<F> {
    /// Lifetime-erased pointer to the region closure on the submitter side.
    f: *const F,
    /// Generation stamp; must match every task of this region.
    gen: u64,
    /// Shares still running on pool workers (share 0 is not counted — the
    /// submitter runs it inline).
    remaining: Mutex<usize>,
    done: Condvar,
    /// First panic captured from any share.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

/// Trampoline: downcasts the harness, runs one share under the serial
/// override, records panics, and releases the latch.
unsafe fn run_share<F: Fn(usize) + Sync>(harness: *const (), index: usize, gen: u64) {
    // SAFETY: the harness outlives every task of its generation (module-level
    // argument); `F` is the type `run_region` monomorphised this fn for.
    let h = unsafe { &*(harness as *const RegionHarness<F>) };
    assert_eq!(
        h.gen, gen,
        "bliss_parallel: stale task generation (pool bug)"
    );
    let result = catch_unwind(AssertUnwindSafe(|| {
        let _serial = worker_guard();
        // SAFETY: `f` points at a closure the submitter keeps alive until the
        // latch below releases it.
        (unsafe { &*h.f })(index);
    }));
    if let Err(payload) = result {
        let mut slot = h.panic.lock().unwrap_or_else(|e| e.into_inner());
        slot.get_or_insert(payload);
    }
    // Final harness access: decrement the latch and wake the submitter. The
    // guard drops immediately after the notify, and the submitter frees the
    // harness only once it has re-acquired this mutex and seen zero.
    let mut rem = h.remaining.lock().unwrap_or_else(|e| e.into_inner());
    *rem -= 1;
    if *rem == 0 {
        h.done.notify_one();
    }
}

fn worker_loop() {
    let p = pool();
    let mut state = lock(p);
    loop {
        match state.queue.pop_front() {
            Some(task) => {
                drop(state);
                // SAFETY: queue discipline — every queued task's region is
                // still latched open.
                unsafe { (task.run)(task.harness, task.index, task.gen) };
                state = lock(p);
            }
            None => {
                state = p.work.wait(state).unwrap_or_else(|e| e.into_inner());
            }
        }
    }
}

/// Runs `f(0), …, f(shares - 1)` across the pool: share 0 on the calling
/// thread, the rest on persistent workers, all under the nested-serial
/// override. Returns when every share has completed; re-raises the first
/// panic. `shares` must not exceed [`MAX_THREADS`].
pub(crate) fn run_region<F: Fn(usize) + Sync>(shares: usize, f: &F) {
    debug_assert!(shares <= MAX_THREADS, "shares exceed MAX_THREADS");
    if shares <= 1 {
        if shares == 1 {
            let _serial = worker_guard();
            f(0);
        }
        return;
    }
    let harness = RegionHarness {
        f: f as *const F,
        gen: REGION_GEN.fetch_add(1, Ordering::Relaxed),
        remaining: Mutex::new(shares - 1),
        done: Condvar::new(),
        panic: Mutex::new(None),
    };
    let p = pool();
    {
        let mut state = lock(p);
        // Grow the pool on demand; workers persist for the process lifetime.
        while state.spawned < (shares - 1).min(MAX_THREADS - 1) {
            let id = state.spawned;
            thread::Builder::new()
                .name(format!("bliss-pool-{id}"))
                .spawn(worker_loop)
                .expect("failed to spawn bliss_parallel pool worker");
            state.spawned += 1;
        }
        for index in 1..shares {
            state.queue.push_back(Task {
                harness: &harness as *const RegionHarness<F> as *const (),
                run: run_share::<F>,
                index,
                gen: harness.gen,
            });
        }
        if shares == 2 {
            p.work.notify_one();
        } else {
            p.work.notify_all();
        }
    }

    // Share 0 runs here; its panic is re-raised only after the latch, so the
    // harness stays alive for the workers either way.
    let own = catch_unwind(AssertUnwindSafe(|| {
        let _serial = worker_guard();
        f(0);
    }));

    // Help-drain: if the workers are saturated by other regions, execute our
    // own still-queued shares inline so no region waits behind unrelated
    // work (and a region can always finish even on a contended pool).
    loop {
        let task = {
            let mut state = lock(p);
            match state.queue.iter().position(|t| t.gen == harness.gen) {
                Some(i) => state.queue.remove(i),
                None => None,
            }
        };
        match task {
            // SAFETY: our own region's task; the harness is this stack frame.
            Some(t) => unsafe { (t.run)(t.harness, t.index, t.gen) },
            None => break,
        }
    }

    {
        let mut rem = harness.remaining.lock().unwrap_or_else(|e| e.into_inner());
        while *rem > 0 {
            rem = harness.done.wait(rem).unwrap_or_else(|e| e.into_inner());
        }
    }
    if let Err(payload) = own {
        resume_unwind(payload);
    }
    let first = harness
        .panic
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .take();
    if let Some(payload) = first {
        resume_unwind(payload);
    }
}
