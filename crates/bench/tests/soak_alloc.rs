//! Steady-state allocation counting for the **whole serving loop** — the
//! soak harness's allocator-creep claim, pinned at the `step_batch`
//! granularity.
//!
//! `alloc_counter.rs` proves the batched ViT forward is buffer-allocation
//! free; this test drives the full durable-serving hot path instead — batch
//! selection, sensor eventification, sparse readout, RLE MIPI framing, ROI-net
//! staging, batched inference, gaze regression and trace recording — via
//! [`ServeRuntime::step_batch`]. After a warm-up that grows every session's
//! persistent staging buffers and the run's launch buffers to their
//! working set, each further batch must:
//!
//! 1. perform **zero buffer-class allocations** (>= 1 KiB) — the sessions'
//!    staging, the state's launch buffers and the plan arena serve the
//!    entire working set;
//! 2. keep the small-allocation count flat across iterations (scheduler
//!    headers and per-step bookkeeping are bounded and non-growing);
//! 3. keep the compiled-plan cache **exactly stable** — serving runs
//!    through execution plans by default, and once every span layout of
//!    this load has been compiled, neither the plan count nor the total
//!    arena footprint may move again.
//!
//! Single-threaded (`with_thread_count(1)`), so that every allocation of a
//! step is made on the counting thread and the counts do not depend on the
//! machine's core count.

// The counting allocator needs `unsafe` (GlobalAlloc); mirrors
// `alloc_counter.rs`.
#![allow(unsafe_code)]

use bliss_parallel::with_thread_count;
use bliss_serve::{ServeConfig, ServeRuntime};
use bliss_track::{RoiPredictionNet, SparseViT};
use blisscam_core::SystemConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Allocations at or above this size count as "buffer-class".
const BIG: usize = 1024;

struct CountingAllocator;

static ENABLED: AtomicBool = AtomicBool::new(false);
static TOTAL: AtomicU64 = AtomicU64::new(0);
static BIG_ALLOCS: AtomicU64 = AtomicU64::new(0);
static BIG_SIZES: [AtomicU64; 64] = [const { AtomicU64::new(0) }; 64];

// SAFETY: delegates every operation verbatim to `System`; the counters are
// lock-free atomics and never allocate.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ENABLED.load(Ordering::Relaxed) {
            TOTAL.fetch_add(1, Ordering::Relaxed);
            if layout.size() >= BIG {
                let i = BIG_ALLOCS.fetch_add(1, Ordering::Relaxed) as usize;
                if i < 64 {
                    BIG_SIZES[i].store(layout.size() as u64, Ordering::Relaxed);
                }
            }
        }
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ENABLED.load(Ordering::Relaxed) {
            TOTAL.fetch_add(1, Ordering::Relaxed);
            if new_size >= BIG {
                let i = BIG_ALLOCS.fetch_add(1, Ordering::Relaxed) as usize;
                if i < 64 {
                    BIG_SIZES[i].store(new_size as u64, Ordering::Relaxed);
                }
            }
        }
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Runs `f` with counting enabled and returns `(total, buffer_class)`
/// allocation counts.
fn count_allocs(f: impl FnOnce()) -> (u64, u64) {
    TOTAL.store(0, Ordering::SeqCst);
    BIG_ALLOCS.store(0, Ordering::SeqCst);
    ENABLED.store(true, Ordering::SeqCst);
    f();
    ENABLED.store(false, Ordering::SeqCst);
    (
        TOTAL.load(Ordering::SeqCst),
        BIG_ALLOCS.load(Ordering::SeqCst),
    )
}

#[test]
fn steady_state_serving_is_buffer_allocation_free() {
    let mut system = SystemConfig::miniature();
    system.vit.dim = 12;
    system.vit.enc_depth = 1;
    system.vit.dec_depth = 1;
    system.roi_net.hidden = 16;
    // Untrained networks: the scheduling/staging/allocation behaviour under
    // test is identical, and skipping training keeps the test fast.
    let mut rng = StdRng::seed_from_u64(0x50AC11);
    let runtime = ServeRuntime::with_networks(
        system,
        SparseViT::new(&mut rng, system.vit),
        RoiPredictionNet::new(&mut rng, system.roi_net),
    );
    let cfg = ServeConfig::new(3, 400);

    // A steady-state "iteration" spans several fused batches so the
    // deterministic batch-composition rhythm (which varies step to step)
    // averages out and iteration totals are comparable.
    const STEPS_PER_ITER: usize = 16;

    with_thread_count(1, || {
        // Plan warm-up: one complete serve of the *same* deterministic
        // config compiles an execution plan for every span layout this load
        // can produce, so the counted replay below is pure cache hits. (The
        // batch-composition rhythm varies step to step, so a step-count
        // warm-up alone would leave later layouts uncompiled.)
        runtime.serve(&cfg).expect("plan warm-up run succeeds");

        let mut state = runtime.start(&cfg);
        // Warm-up: cold-start full-frame reads, first segmentation
        // feedback and every session's persistent staging buffers reaching
        // their high-water capacity.
        for _ in 0..160 {
            assert!(runtime.step_batch(&cfg, &mut state).expect("step succeeds"));
        }
        let warm_frames = state.frames_served();
        assert!(warm_frames > 3, "warm-up served only {warm_frames} frames");
        let plans_warm = runtime.vit_plan_stats();
        assert!(plans_warm.plans > 0, "planned path never compiled");

        let mut per_iter = Vec::new();
        for _ in 0..4 {
            let before = state.frames_served();
            let (total, big) = count_allocs(|| {
                for _ in 0..STEPS_PER_ITER {
                    assert!(runtime.step_batch(&cfg, &mut state).expect("step succeeds"));
                }
            });
            let frames = state.frames_served() - before;
            if big > 0 {
                let sizes: Vec<u64> = BIG_SIZES
                    .iter()
                    .map(|a| a.load(Ordering::SeqCst))
                    .filter(|&x| x > 0)
                    .collect();
                eprintln!("buffer-class allocation sizes: {sizes:?}");
            }
            assert_eq!(
                big, 0,
                "steady-state serving performed {big} buffer-class (>= {BIG} B) \
                 heap allocations over {STEPS_PER_ITER} batches; the session \
                 staging and launch buffers must serve the entire working \
                 set"
            );
            // Plan-state stability: every span layout this load produces
            // was compiled during warm-up, so steady state neither adds
            // plans nor regrows arenas.
            let plans_now = runtime.vit_plan_stats();
            assert_eq!(plans_now.plans, plans_warm.plans, "plan cache grew");
            assert_eq!(
                plans_now.arena_elems, plans_warm.arena_elems,
                "plan arena footprint moved after warm-up"
            );
            assert!(frames > 0, "steady-state iteration served no frames");
            per_iter.push(total as f64 / frames as f64);
        }
        // Flat small-alloc count per served frame (the autograd tape's node
        // headers and scheduler bookkeeping): iterations serve different
        // batch mixes, so the per-frame rate carries a modest amortisation
        // spread, but a leak would grow it monotonically without bound.
        let lo = per_iter.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = per_iter.iter().cloned().fold(0.0f64, f64::max);
        assert!(
            hi <= lo * 1.5,
            "per-frame allocation counts must stay flat in steady state, \
             got {per_iter:?}"
        );
    });
}
