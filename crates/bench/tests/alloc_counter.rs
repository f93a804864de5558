//! Steady-state allocation counting for the batched inference hot path.
//!
//! A counting global allocator wraps the system allocator and tallies every
//! allocation made by the counting thread (plus, separately, every
//! **buffer-class** allocation of 1 KiB or more). After a short warm-up that
//! populates the `bliss_tensor` scratch pools and the plan cache:
//!
//! 1. a **planned** steady-state iteration
//!    ([`SparseViT::forward_batch_into`] under a compiled execution plan)
//!    must perform **zero heap allocations of any size** — the tentpole
//!    claim of this PR: the arena, the retained [`PlannedBatch`] scratch and
//!    the thread pools serve the entire working set;
//! 2. the **tape** path ([`SparseViT::forward_batch`] outside inference
//!    mode) stays the regression baseline: zero buffer-class allocations
//!    and a flat small-alloc count per iteration — the residue is the
//!    autograd tape's node headers and sub-1-KiB bookkeeping, bounded and
//!    non-growing;
//! 3. the **int8** planned path inherits the planned contract verbatim:
//!    after calibration and one plan compile, a steady-state quantised
//!    iteration performs zero heap allocations — its activation codes live
//!    in the per-thread task workspace, its weight codes in the shared spec.
//!
//! The loop is pinned to one thread (`with_thread_count(1)`) because the
//! scratch pools are thread-local: with workers, buffers would recycle into
//! whichever pool worker dropped them, which is still bounded but makes the
//! per-thread counts machine-dependent.

// The counting allocator needs `unsafe` (GlobalAlloc); this test binary is
// the one place outside `bliss_parallel::pool` that opts in.
#![allow(unsafe_code)]

use bliss_parallel::with_thread_count;
use bliss_track::{PlannedBatch, SparseViT, ViTConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Allocations at or above this size count as "buffer-class".
const BIG: usize = 1024;

struct CountingAllocator;

thread_local! {
    /// Counting is armed per-thread so a strict zero-total assertion cannot
    /// be polluted by allocations on harness or sibling-test threads. The
    /// const initialiser keeps the TLS access itself allocation-free.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

static TOTAL: AtomicU64 = AtomicU64::new(0);
static BIG_ALLOCS: AtomicU64 = AtomicU64::new(0);
static BIG_SIZES: [AtomicU64; 64] = [const { AtomicU64::new(0) }; 64];

fn counting() -> bool {
    // `try_with`: the allocator can be re-entered during TLS teardown.
    COUNTING.try_with(Cell::get).unwrap_or(false)
}

// SAFETY: delegates every operation verbatim to `System`; the counters are
// lock-free atomics, the armed flag is a const-initialised TLS cell, and
// neither allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counting() {
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
        if counting() {
            TOTAL.fetch_add(1, Ordering::Relaxed);
            if new_size >= BIG {
                BIG_ALLOCS.fetch_add(1, Ordering::Relaxed);
            }
        }
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Serialises counting windows: both tests share the global tallies.
static COUNT_WINDOW: Mutex<()> = Mutex::new(());

/// Runs `f` with counting armed on this thread and returns
/// `(total, buffer_class)` allocation counts for `f` alone.
fn count_allocs(f: impl FnOnce()) -> (u64, u64) {
    let _window = COUNT_WINDOW.lock().expect("no poisoned counting window");
    TOTAL.store(0, Ordering::SeqCst);
    BIG_ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    (
        TOTAL.load(Ordering::SeqCst),
        BIG_ALLOCS.load(Ordering::SeqCst),
    )
}

/// A deterministic pseudo-random sparse frame at the miniature sensor scale.
fn synth_frame(seed: u64, pixels: usize, rate: f32) -> (Vec<f32>, Vec<f32>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut image = vec![0.0f32; pixels];
    let mut mask = vec![0.0f32; pixels];
    for i in 0..pixels {
        if rng.gen::<f32>() < rate {
            mask[i] = 1.0;
            image[i] = rng.gen::<f32>();
        }
    }
    (image, mask)
}

#[test]
fn steady_state_forward_batch_is_buffer_allocation_free() {
    let mut rng = StdRng::seed_from_u64(0x5CA7C4);
    let vit = SparseViT::new(&mut rng, ViTConfig::miniature(160, 100));
    // A serving-shaped batch: one loose and one tight sparse frame.
    let a = synth_frame(1, 160 * 100, 0.06);
    let b = synth_frame(2, 160 * 100, 0.02);
    let batch: Vec<(&[f32], &[f32])> = vec![(&a.0, &a.1), (&b.0, &b.1)];

    with_thread_count(1, || {
        // Warm-up: populate the thread's scratch pools with the working set.
        for _ in 0..4 {
            let out = vit.forward_batch(&batch).expect("forward succeeds");
            assert!(out[0].is_some() && out[1].is_some());
        }
        // Steady state: no buffer-class allocation, flat small-alloc count.
        let mut per_iter = Vec::new();
        for _ in 0..4 {
            let (total, big) = count_allocs(|| {
                let out = vit.forward_batch(&batch).expect("forward succeeds");
                std::hint::black_box(&out);
                drop(out);
            });
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
                "steady-state forward_batch performed {big} buffer-class \
                 (>= {BIG} B) heap allocations; the scratch pools must serve \
                 the entire working set"
            );
            per_iter.push(total);
        }
        // Flat small-alloc count: the tape rebuilds the same node headers
        // every iteration, so the count must not drift; a leak or pool miss
        // would add dozens per iteration.
        let lo = *per_iter.iter().min().expect("non-empty");
        let hi = *per_iter.iter().max().expect("non-empty");
        assert!(
            hi - lo <= 8,
            "per-iteration allocation counts must be flat in steady state, \
             got {per_iter:?}"
        );
    });
}

#[test]
fn steady_state_planned_forward_batch_allocates_nothing_at_all() {
    let mut rng = StdRng::seed_from_u64(0x5CA7C4);
    let vit = SparseViT::new(&mut rng, ViTConfig::miniature(160, 100));
    // The same serving-shaped batch as the tape baseline above.
    let a = synth_frame(1, 160 * 100, 0.06);
    let b = synth_frame(2, 160 * 100, 0.02);
    let batch: Vec<(&[f32], &[f32])> = vec![(&a.0, &a.1), (&b.0, &b.1)];

    with_thread_count(1, || {
        let mut out = PlannedBatch::new();
        // Warm-up: compile the execution plan for this batch's span layout
        // and populate the thread's scratch pools with the working set.
        for _ in 0..4 {
            vit.forward_batch_into(&batch, &mut out)
                .expect("forward succeeds");
            assert!(out.frame(0).is_some() && out.frame(1).is_some());
        }
        // Steady state: the compiled plan runs entirely in its arena and the
        // retained batch scratch — zero heap traffic of any size.
        for iter in 0..4 {
            let (total, big) = count_allocs(|| {
                vit.forward_batch_into(&batch, &mut out)
                    .expect("forward succeeds");
                std::hint::black_box(&out);
            });
            if big > 0 {
                let sizes: Vec<u64> = BIG_SIZES
                    .iter()
                    .map(|a| a.load(Ordering::SeqCst))
                    .filter(|&x| x > 0)
                    .collect();
                eprintln!("buffer-class allocation sizes: {sizes:?}");
            }
            assert_eq!(
                total, 0,
                "steady-state planned forward_batch_into performed {total} \
                 heap allocations on iteration {iter} ({big} buffer-class); \
                 the plan arena and retained scratch must serve everything"
            );
        }
        assert!(out.frame(0).is_some() && out.frame(1).is_some());
        assert_eq!(vit.plan_stats().plans, 1, "one span layout, one plan");
    });
}

#[test]
fn steady_state_int8_forward_batch_allocates_nothing_at_all() {
    let mut rng = StdRng::seed_from_u64(0x5CA7C4);
    let vit = SparseViT::new(&mut rng, ViTConfig::miniature(160, 100));
    let a = synth_frame(1, 160 * 100, 0.06);
    let b = synth_frame(2, 160 * 100, 0.02);
    let batch: Vec<(&[f32], &[f32])> = vec![(&a.0, &a.1), (&b.0, &b.1)];

    with_thread_count(1, || {
        // Calibration and the quantised-plan compile happen before counting
        // is armed — they are one-time costs, exactly like f32 plan
        // compilation in the planned baseline above.
        vit.begin_int8_calibration();
        vit.observe_int8_calibration(&batch)
            .expect("calibration observes");
        let sites = vit.finish_int8_calibration().expect("calibration finishes");
        assert!(sites > 0, "calibration found no quantisable sites");
        vit.set_int8(true).expect("int8 enables");

        let mut out = PlannedBatch::new();
        // Warm-up: compile the int8 plan for this span layout and populate
        // the thread's scratch pools and task workspace.
        for _ in 0..4 {
            vit.forward_batch_into(&batch, &mut out)
                .expect("forward succeeds");
            assert!(out.frame(0).is_some() && out.frame(1).is_some());
        }
        // Steady state: the quantised plan's three arenas and the retained
        // batch scratch serve everything — zero heap traffic of any size,
        // the same contract as the f32 planned path.
        for iter in 0..4 {
            let (total, big) = count_allocs(|| {
                vit.forward_batch_into(&batch, &mut out)
                    .expect("forward succeeds");
                std::hint::black_box(&out);
            });
            if big > 0 {
                let sizes: Vec<u64> = BIG_SIZES
                    .iter()
                    .map(|a| a.load(Ordering::SeqCst))
                    .filter(|&x| x > 0)
                    .collect();
                eprintln!("buffer-class allocation sizes: {sizes:?}");
            }
            assert_eq!(
                total, 0,
                "steady-state int8 forward_batch_into performed {total} heap \
                 allocations on iteration {iter} ({big} buffer-class); the \
                 quantised plan's arenas and retained scratch must serve \
                 everything"
            );
        }
        assert!(out.frame(0).is_some() && out.frame(1).is_some());
        assert_eq!(
            vit.quant_plan_stats().plans,
            1,
            "one span layout, one quantised plan"
        );
    });
}

#[test]
fn steady_state_planned_forward_with_tracing_on_allocates_nothing() {
    use bliss_telemetry::{metrics, record_span, SpanRecord, Stage};

    let mut rng = StdRng::seed_from_u64(0x5CA7C4);
    let vit = SparseViT::new(&mut rng, ViTConfig::miniature(160, 100));
    let a = synth_frame(1, 160 * 100, 0.06);
    let b = synth_frame(2, 160 * 100, 0.02);
    let batch: Vec<(&[f32], &[f32])> = vec![(&a.0, &a.1), (&b.0, &b.1)];

    // The ring is the *only* allocation telemetry ever makes — pre-sized
    // here, before counting is armed. The registry is all statics.
    bliss_telemetry::init_spans(4096);
    bliss_telemetry::set_enabled(true);
    with_thread_count(1, || {
        let mut out = PlannedBatch::new();
        for _ in 0..4 {
            vit.forward_batch_into(&batch, &mut out)
                .expect("forward succeeds");
        }
        // Steady state with tracing ON: the planned path's own zero-alloc
        // contract must survive live instrumentation — counter bumps in
        // the plan cache and scratch pools, plus the serve layer's span
        // record pattern (six stages per frame) and histogram samples.
        for iter in 0..4u32 {
            let (total, big) = count_allocs(|| {
                vit.forward_batch_into(&batch, &mut out)
                    .expect("forward succeeds");
                for (i, stage) in Stage::ALL.iter().enumerate() {
                    record_span(SpanRecord {
                        stage: *stage,
                        frame: iter,
                        virt_start_s: f64::from(iter) * 8.3e-3 + i as f64 * 1e-3,
                        virt_dur_s: 1e-3,
                        ..SpanRecord::ZERO
                    });
                }
                metrics::FRAMES_SERVED.add(1);
                metrics::FRAME_LATENCY_S.record(1e-3);
                metrics::BATCH_OCCUPANCY.record(2.0);
                std::hint::black_box(&out);
            });
            assert_eq!(
                total, 0,
                "planned forward with tracing ON performed {total} heap \
                 allocations on iteration {iter} ({big} buffer-class); \
                 span recording must be writes into the pre-sized ring"
            );
        }
    });
    bliss_telemetry::set_enabled(false);
    assert!(
        bliss_telemetry::spans_recorded() >= 24,
        "the ring must have accepted the recorded spans"
    );
    assert_eq!(bliss_telemetry::spans_dropped(), 0);
    bliss_telemetry::clear_spans();
}

#[test]
fn steady_state_planned_forward_on_two_threads_allocates_nothing_at_all() {
    let mut rng = StdRng::seed_from_u64(0x5CA7C4);
    let vit = SparseViT::new(&mut rng, ViTConfig::miniature(160, 100));
    let a = synth_frame(1, 160 * 100, 0.06);
    let b = synth_frame(2, 160 * 100, 0.02);
    let batch: Vec<(&[f32], &[f32])> = vec![(&a.0, &a.1), (&b.0, &b.1)];

    // Two pool shares and a zero work cutoff: every parallel region in the
    // forward (matmuls, softmax, GELU, transposes) dispatches to the pool, so
    // the count covers the region set-up on the submitting thread — the
    // share hand-off must live on its stack, not in a fresh `Vec`.
    with_thread_count(2, || {
        bliss_parallel::with_min_parallel_work(0, || {
            let mut out = PlannedBatch::new();
            for _ in 0..4 {
                vit.forward_batch_into(&batch, &mut out)
                    .expect("forward succeeds");
                assert!(out.frame(0).is_some() && out.frame(1).is_some());
            }
            for iter in 0..4 {
                let (total, big) = count_allocs(|| {
                    vit.forward_batch_into(&batch, &mut out)
                        .expect("forward succeeds");
                    std::hint::black_box(&out);
                });
                assert_eq!(
                    total, 0,
                    "two-thread planned forward_batch_into performed {total} \
                     heap allocations on iteration {iter} ({big} buffer-class); \
                     dispatching a parallel region must not allocate"
                );
            }
        });
    });
}
