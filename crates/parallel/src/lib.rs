//! Deterministic data-parallel primitives on a dependency-free **persistent
//! worker pool**.
//!
//! Every hot kernel in the BlissCam reproduction (matmul, attention,
//! convolution, eventification, rendering, readout) runs on the primitives in
//! this crate. The design contract is:
//!
//! * **Fixed work partitioning.** Chunk and row boundaries depend only on the
//!   input sizes, never on the thread count. A worker owns a contiguous range
//!   of chunks and writes only into its disjoint output slice.
//! * **Bit-identical results.** Because the partitioning is fixed and each
//!   closure is a pure function of its index and slice, a kernel produces the
//!   same bytes whether it runs on 1 or N threads. The per-element floating
//!   point accumulation order therefore never changes with the machine.
//! * **No nested oversubscription.** Worker threads run nested parallel calls
//!   serially, so a parallel attention fan-out whose per-head GEMMs are
//!   themselves parallel kernels does not explode into `heads x rows` threads.
//!
//! Regions execute on the lazily-initialised pool in [`pool`]: workers park
//! on a condvar between regions and receive scoped jobs through a
//! generation-stamped handoff, so a region pays a queue push + wakeup instead
//! of an OS thread spawn + join (see the module docs for the protocol and
//! its safety argument). Worker panics still propagate to the submitting
//! thread, and borrowed inputs still need no `'static` bound.
//!
//! # Thread-count selection
//!
//! [`thread_count`] resolves, in order: a scoped override installed by
//! [`with_thread_count`] (thread-local, used by tests and nested regions), the
//! `BLISS_THREADS` environment variable, and finally
//! [`std::thread::available_parallelism`], capped at 16.
//!
//! # Regions
//!
//! Four region entry points cover every partition shape in the workspace:
//!
//! * [`par_chunks`]: consecutive fixed-length chunks (or rows) of one
//!   mutable buffer;
//! * [`par_zip_rows`]: matching rows of two mutable buffers;
//! * [`par_map_collect`]: `n` owned results, one per index;
//! * [`par_map_mut`]: one result per mutable item.
//!
//! # Small-region cutoff
//!
//! Dispatching a region costs roughly a microsecond even on the persistent
//! pool, which tiny regions (eventification of a miniature frame, a
//! handful-of-rows transpose) can never amortise. [`par_chunks`] and
//! [`par_zip_rows`] therefore estimate their region's total work — element
//! count times the caller's per-element cost hint (e.g. the matmul passes
//! its inner dimension) — and run **serially on the calling thread** when
//! the estimate falls below [`min_parallel_work`]. The cutoff changes only
//! *where* the closures run, never the partition, so results remain
//! bit-identical on both sides of the threshold; scoped
//! [`with_min_parallel_work`] overrides it (the benches and tests force `0`
//! to measure or exercise pure dispatch).
//!
//! [`par_map_collect`] and [`par_map_mut`] fan out *items* (attention heads,
//! serving sessions) rather than elements; they assume every item is at
//! least a threshold's worth of work and always parallelise.
//!
//! # Elementwise kernels
//!
//! [`math`] holds branch-free, bit-exact ports of the libm functions on the
//! hot paths (`tanhf`, `expf`, `logf`, `cosf`, and `f32::round` on
//! non-negative inputs), which vectorise where a libm call cannot.
//! [`normal`] builds the workspace's one Box–Muller sampler on them. They
//! live here, below every other crate, so the tensor ops and the sensor
//! front end share them.
//!
//! # Example
//!
//! ```
//! // Square 10 rows of 4 elements each.
//! let mut data: Vec<f32> = (0..40).map(|x| x as f32).collect();
//! let expected: Vec<f32> = data.iter().map(|x| x * x).collect();
//!
//! bliss_parallel::par_chunks(&mut data, 4, 1, |_row, slice| {
//!     for v in slice.iter_mut() {
//!         *v *= *v;
//!     }
//! });
//! assert_eq!(data, expected);
//!
//! // The same call under any forced thread count produces identical bytes —
//! // whether the region runs serially (below the work cutoff) or on the
//! // pool (forced here with a zero cutoff).
//! let mut again: Vec<f32> = (0..40).map(|x| x as f32).collect();
//! bliss_parallel::with_thread_count(8, || {
//!     bliss_parallel::with_min_parallel_work(0, || {
//!         bliss_parallel::par_chunks(&mut again, 4, 1, |_row, slice| {
//!             for v in slice.iter_mut() {
//!                 *v *= *v;
//!             }
//!         });
//!     });
//! });
//! assert_eq!(again, data);
//! ```

use std::cell::Cell;
use std::sync::OnceLock;
use std::thread;

pub mod gemm;
pub mod math;
pub mod normal;
pub mod pool;

pub use gemm::matmul_i8t_into;
pub use pool::pool_thread_count;

/// Upper bound on the pool width; protects against absurd `BLISS_THREADS`
/// values and bounds the persistent pool's worker count.
pub const MAX_THREADS: usize = 16;

/// Default total-work cutoff below which a region runs serially instead of
/// dispatching to the pool (in elements x per-element cost units). The value
/// matches the register-blocked matmul's historical `32^3` serial cutoff.
pub const DEFAULT_MIN_PARALLEL_WORK: usize = 32 * 32 * 32;

thread_local! {
    /// 0 = no override; otherwise the forced thread count for this thread.
    static THREAD_OVERRIDE: Cell<usize> = const { Cell::new(0) };
    /// `None` = no override; otherwise the forced work cutoff.
    static WORK_CUTOFF_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

fn env_thread_count() -> usize {
    static ENV: OnceLock<usize> = OnceLock::new();
    *ENV.get_or_init(|| {
        if let Some(n) = std::env::var("BLISS_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
        {
            return n.clamp(1, MAX_THREADS);
        }
        thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(MAX_THREADS)
    })
}

/// The number of worker threads a parallel region started on this thread
/// will use.
///
/// Resolution order: [`with_thread_count`] override → `BLISS_THREADS`
/// environment variable → [`std::thread::available_parallelism`], capped at
/// [`MAX_THREADS`].
///
/// ```
/// assert!(bliss_parallel::thread_count() >= 1);
/// assert_eq!(bliss_parallel::with_thread_count(3, bliss_parallel::thread_count), 3);
/// ```
pub fn thread_count() -> usize {
    let o = THREAD_OVERRIDE.with(Cell::get);
    if o > 0 {
        o
    } else {
        env_thread_count()
    }
}

/// The total-work cutoff below which regions run serially: the
/// [`with_min_parallel_work`] override, else [`DEFAULT_MIN_PARALLEL_WORK`].
pub fn min_parallel_work() -> usize {
    WORK_CUTOFF_OVERRIDE
        .with(Cell::get)
        .unwrap_or(DEFAULT_MIN_PARALLEL_WORK)
}

/// Restores the previous override when a scoped override ends, even on panic.
struct OverrideGuard(usize);

impl Drop for OverrideGuard {
    fn drop(&mut self) {
        THREAD_OVERRIDE.with(|c| c.set(self.0));
    }
}

struct CutoffGuard(Option<usize>);

impl Drop for CutoffGuard {
    fn drop(&mut self) {
        WORK_CUTOFF_OVERRIDE.with(|c| c.set(self.0));
    }
}

/// Runs `f` with [`thread_count`] forced to `threads` on the current thread.
///
/// The override is thread-local and scoped: it is restored when `f` returns
/// (or panics), and concurrently running tests do not observe each other's
/// overrides. Results are guaranteed bit-identical across different forced
/// counts; this exists for determinism tests and for callers that want a
/// serial region (`threads = 1`).
///
/// # Panics
///
/// Panics if `threads == 0`.
pub fn with_thread_count<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    assert!(threads > 0, "thread count must be at least 1");
    let prev = THREAD_OVERRIDE.with(|c| c.replace(threads.min(MAX_THREADS)));
    let _guard = OverrideGuard(prev);
    f()
}

/// Runs `f` with [`min_parallel_work`] forced to `work` on the current
/// thread (scoped and panic-safe, like [`with_thread_count`]).
///
/// `0` forces every region onto the pool regardless of size (used by the
/// dispatch-overhead benches and the pool lifecycle tests); a huge value
/// forces everything serial. Results are bit-identical either way.
///
/// ```
/// // Force pool dispatch for a tiny region; the bytes cannot change.
/// let run = || {
///     let mut v = vec![1.0f32; 8];
///     bliss_parallel::par_chunks(&mut v, 2, 1, |r, row| row[0] += r as f32);
///     v
/// };
/// let serial = run();
/// let pooled = bliss_parallel::with_thread_count(4, || {
///     bliss_parallel::with_min_parallel_work(0, run)
/// });
/// assert_eq!(serial, pooled);
/// ```
pub fn with_min_parallel_work<R>(work: usize, f: impl FnOnce() -> R) -> R {
    let prev = WORK_CUTOFF_OVERRIDE.with(|c| c.replace(Some(work)));
    let _guard = CutoffGuard(prev);
    f()
}

/// Installs the serial override on a worker thread so nested parallel calls
/// (for example a parallel matmul inside a parallel per-head fan-out) run
/// inline instead of spawning `outer x inner` threads.
fn worker_guard() -> OverrideGuard {
    let prev = THREAD_OVERRIDE.with(|c| c.replace(1));
    OverrideGuard(prev)
}

/// Applies `f` to consecutive `chunk_len`-sized chunks (or rows) of `data`
/// in parallel.
///
/// The closure receives the chunk index and a mutable slice; the final chunk
/// may be shorter. Chunk boundaries depend only on `data.len()` and
/// `chunk_len`, so for a pure `f` the result is bit-identical for every
/// thread count. Work is distributed as one contiguous run of chunks per
/// worker.
///
/// `cost_per_elem` scales the work estimate (`data.len() * cost_per_elem`)
/// compared against [`min_parallel_work`]; below it the region runs
/// serially on the calling thread (same partition, same bytes). It has **no
/// effect on results**. The matmul passes its inner dimension `k` (each
/// output element costs `k` FMAs); memory-bound kernels pass 1.
///
/// An empty `data` is a no-op. Panics in `f` propagate to the caller.
///
/// # Panics
///
/// Panics if `chunk_len == 0`, or if any worker closure panics.
///
/// # Example
///
/// ```
/// let mut v = vec![1.0f32; 10];
/// bliss_parallel::par_chunks(&mut v, 4, 1, |idx, chunk| {
///     for x in chunk.iter_mut() {
///         *x += idx as f32;
///     }
/// });
/// assert_eq!(v[..4], [1.0; 4]);
/// assert_eq!(v[4..8], [2.0; 4]);
/// assert_eq!(v[8..], [3.0; 2]); // tail chunk is shorter
/// ```
pub fn par_chunks<T, F>(data: &mut [T], chunk_len: usize, cost_per_elem: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk_len > 0, "chunk_len must be positive");
    if data.is_empty() {
        return;
    }
    let n_chunks = data.len().div_ceil(chunk_len);
    let threads = thread_count().min(n_chunks);
    let work = data.len().saturating_mul(cost_per_elem.max(1));
    if threads <= 1 || work < min_parallel_work() {
        for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
            f(i, chunk);
        }
        return;
    }
    // Fixed partition: one contiguous run of chunks per share, split safely
    // on this thread and handed across the pool through take-once cells.
    let chunks_per_share = n_chunks.div_ceil(threads);
    let span = chunks_per_share * chunk_len;
    let mut cells = pool::ShareCells::new();
    let mut rest = data;
    let mut first_chunk = 0usize;
    while !rest.is_empty() {
        let take = span.min(rest.len());
        let (head, tail) = rest.split_at_mut(take);
        cells.push((first_chunk, head));
        first_chunk += chunks_per_share;
        rest = tail;
    }
    let f = &f;
    pool::run_region(cells.len(), &|w: usize| {
        let (first_chunk, slice) = cells.take(w);
        for (i, chunk) in slice.chunks_mut(chunk_len).enumerate() {
            f(first_chunk + i, chunk);
        }
    });
}

/// Applies `f` to matching rows of two parallel buffers.
///
/// `a` is split into `row_len_a`-sized rows and `b` into `row_len_b`-sized
/// rows; both must contain the same number of rows. Used by kernels that
/// produce two per-pixel outputs at once (e.g. the eye renderer's radiance
/// image and class mask). `cost_per_elem` is the cutoff's cost hint, as in
/// [`par_chunks`]; the work estimate covers both buffers. The eye renderer
/// passes a high cost because each output pixel runs full ellipse geometry.
///
/// # Panics
///
/// Panics if either row length is zero, if the row counts disagree, if either
/// buffer is not an exact multiple of its row length, or if any worker
/// closure panics.
///
/// # Example
///
/// ```
/// let mut img = vec![0.0f32; 6];
/// let mut mask = vec![0u8; 3];
/// bliss_parallel::par_zip_rows(&mut img, 2, &mut mask, 1, 1, |row, i, m| {
///     i[0] = row as f32;
///     i[1] = row as f32 + 0.5;
///     m[0] = row as u8;
/// });
/// assert_eq!(img, [0.0, 0.5, 1.0, 1.5, 2.0, 2.5]);
/// assert_eq!(mask, [0, 1, 2]);
/// ```
pub fn par_zip_rows<A, B, F>(
    a: &mut [A],
    row_len_a: usize,
    b: &mut [B],
    row_len_b: usize,
    cost_per_elem: usize,
    f: F,
) where
    A: Send,
    B: Send,
    F: Fn(usize, &mut [A], &mut [B]) + Sync,
{
    assert!(
        row_len_a > 0 && row_len_b > 0,
        "row lengths must be positive"
    );
    assert!(
        a.len().is_multiple_of(row_len_a) && b.len().is_multiple_of(row_len_b),
        "buffers must be whole numbers of rows"
    );
    let rows = a.len() / row_len_a;
    assert_eq!(rows, b.len() / row_len_b, "row counts must match");
    if rows == 0 {
        return;
    }
    let threads = thread_count().min(rows);
    let work = (a.len() + b.len()).saturating_mul(cost_per_elem.max(1));
    if threads <= 1 || work < min_parallel_work() {
        for (row, (ra, rb)) in a
            .chunks_mut(row_len_a)
            .zip(b.chunks_mut(row_len_b))
            .enumerate()
        {
            f(row, ra, rb);
        }
        return;
    }
    let rows_per_share = rows.div_ceil(threads);
    let mut cells = pool::ShareCells::new();
    let mut rest_a = a;
    let mut rest_b = b;
    let mut first_row = 0usize;
    while !rest_a.is_empty() {
        let take_rows = rows_per_share.min(rest_a.len() / row_len_a);
        let (head_a, tail_a) = rest_a.split_at_mut(take_rows * row_len_a);
        let (head_b, tail_b) = rest_b.split_at_mut(take_rows * row_len_b);
        cells.push((first_row, head_a, head_b));
        first_row += take_rows;
        rest_a = tail_a;
        rest_b = tail_b;
    }
    let f = &f;
    pool::run_region(cells.len(), &|w: usize| {
        let (first_row, sa, sb) = cells.take(w);
        for (i, (ra, rb)) in sa
            .chunks_mut(row_len_a)
            .zip(sb.chunks_mut(row_len_b))
            .enumerate()
        {
            f(first_row + i, ra, rb);
        }
    });
}

/// Evaluates `f(0), f(1), …, f(n - 1)` in parallel and collects the results
/// in index order.
///
/// Used for coarse-grained fan-out where each task produces an owned value —
/// e.g. one attention head's output, or one serving session's build. Results
/// are returned in index order regardless of completion order, so the output
/// is independent of the thread count. Items are assumed expensive (the
/// region always dispatches).
///
/// # Panics
///
/// Panics if any worker closure panics.
///
/// # Example
///
/// ```
/// let squares = bliss_parallel::par_map_collect(5, |i| i * i);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16]);
/// assert!(bliss_parallel::par_map_collect(0, |i| i).is_empty());
/// ```
pub fn par_map_collect<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    let threads = thread_count().min(n);
    if threads <= 1 {
        return (0..n).map(f).collect();
    }
    let per_share = n.div_ceil(threads);
    let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
    {
        let mut cells = pool::ShareCells::new();
        for (w, block) in out.chunks_mut(per_share).enumerate() {
            cells.push((w * per_share, block));
        }
        let f = &f;
        pool::run_region(cells.len(), &|w: usize| {
            let (start, slots) = cells.take(w);
            for (i, slot) in slots.iter_mut().enumerate() {
                *slot = Some(f(start + i));
            }
        });
    }
    out.into_iter()
        .map(|slot| slot.expect("every index is assigned to exactly one share"))
        .collect()
}

/// Applies `f` to every item of `items` with mutable access, collecting the
/// returned values in index order.
///
/// The work-source primitive of the serving runtime: each item is an
/// independently mutable unit of per-session state (sensor, RNG, feedback
/// buffers) and `f` advances it one step, returning that step's output.
/// Items are distributed as one contiguous block per worker, so for a pure
/// per-item `f` the outputs — and the per-item state mutations — are
/// bit-identical for every thread count. Items are assumed expensive (the
/// region always dispatches).
///
/// # Panics
///
/// Panics if any worker closure panics.
///
/// # Example
///
/// ```
/// let mut counters = vec![0u32; 5];
/// let doubled = bliss_parallel::par_map_mut(&mut counters, |i, c| {
///     *c += i as u32;
///     *c * 2
/// });
/// assert_eq!(counters, vec![0, 1, 2, 3, 4]);
/// assert_eq!(doubled, vec![0, 2, 4, 6, 8]);
/// ```
pub fn par_map_mut<T, R, F>(items: &mut [T], f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = thread_count().min(n);
    if threads <= 1 {
        return items.iter_mut().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let per_share = n.div_ceil(threads);
    let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
    {
        let mut cells = pool::ShareCells::new();
        for (w, (block, slots)) in items
            .chunks_mut(per_share)
            .zip(out.chunks_mut(per_share))
            .enumerate()
        {
            cells.push((w * per_share, block, slots));
        }
        let f = &f;
        pool::run_region(cells.len(), &|w: usize| {
            let (start, block, slots) = cells.take(w);
            for (i, (item, slot)) in block.iter_mut().zip(slots.iter_mut()).enumerate() {
                *slot = Some(f(start + i, item));
            }
        });
    }
    out.into_iter()
        .map(|slot| slot.expect("every index is assigned to exactly one share"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Forces pool dispatch regardless of region size, so these tests
    /// exercise the persistent-pool path and not the serial cutoff.
    fn pooled<R>(f: impl FnOnce() -> R) -> R {
        with_min_parallel_work(0, f)
    }

    fn fill_squares(len: usize, chunk: usize) -> Vec<f32> {
        let mut v: Vec<f32> = (0..len).map(|x| x as f32).collect();
        par_chunks(&mut v, chunk, 1, |_i, c| {
            for x in c.iter_mut() {
                *x = (*x).sin() * 1e3;
            }
        });
        v
    }

    #[test]
    fn par_chunks_deterministic_across_thread_counts() {
        for &(len, chunk) in &[(0usize, 3usize), (1, 1), (7, 3), (64, 8), (1000, 17)] {
            let serial = with_thread_count(1, || fill_squares(len, chunk));
            for threads in [2, 3, 8] {
                let parallel = with_thread_count(threads, || pooled(|| fill_squares(len, chunk)));
                assert_eq!(serial, parallel, "len={len} chunk={chunk} t={threads}");
            }
        }
    }

    #[test]
    fn results_identical_on_both_sides_of_the_work_cutoff() {
        // The same region, pinned serial (huge cutoff) and pinned pooled
        // (zero cutoff), must produce identical bytes — the cutoff moves
        // execution, never the partition. Covers par_chunks and
        // par_zip_rows, the two primitives with cost-gated dispatch.
        let chunks = |cutoff: usize| {
            with_thread_count(8, || {
                with_min_parallel_work(cutoff, || fill_squares(1000, 17))
            })
        };
        assert_eq!(chunks(usize::MAX), chunks(0));

        let zip = |cutoff: usize| {
            with_thread_count(8, || {
                with_min_parallel_work(cutoff, || {
                    let (mut a, mut b) = (vec![0.0f32; 100 * 3], vec![0u32; 100]);
                    par_zip_rows(&mut a, 3, &mut b, 1, 3, |i, ra, rb| {
                        ra.fill((i as f32).cos());
                        rb[0] = (i as u32).wrapping_mul(2_654_435_761);
                    });
                    (a, b)
                })
            })
        };
        assert_eq!(zip(usize::MAX), zip(0));
    }

    #[test]
    fn small_regions_skip_the_pool_and_large_ones_use_it() {
        let caller = std::thread::current().id();
        with_thread_count(4, || {
            // Tiny region, default cutoff: every chunk runs inline on the
            // calling thread — no dispatch, no pool growth required.
            let mut v = vec![0u8; 64];
            par_chunks(&mut v, 8, 1, |_, _| {
                assert_eq!(std::thread::current().id(), caller);
            });
            // The same region with the cutoff forced to zero dispatches to
            // the pool: workers are spawned (even if, on a single-CPU host,
            // the submitter's help-drain wins the race to execute the
            // shares — which thread runs a share never changes the bytes).
            pooled(|| {
                let mut v = vec![0u8; 64];
                par_chunks(&mut v, 8, 1, |_, _| {});
            });
            assert!(pool_thread_count() >= 1);
        });
    }

    #[test]
    fn par_chunks_visits_every_chunk_exactly_once() {
        let mut v = vec![0u32; 103];
        with_thread_count(8, || {
            pooled(|| {
                par_chunks(&mut v, 10, 1, |i, c| {
                    for x in c.iter_mut() {
                        *x += 1 + i as u32;
                    }
                });
            });
        });
        for (flat, &x) in v.iter().enumerate() {
            assert_eq!(x, 1 + (flat / 10) as u32);
        }
    }

    #[test]
    fn par_chunks_handles_empty_and_odd_inputs() {
        let mut empty: Vec<f32> = Vec::new();
        par_chunks(&mut empty, 4, 1, |_, _| panic!("must not be called"));
        // Odd-sized tail: last chunk shorter than chunk_len.
        let mut v = vec![1u8; 5];
        with_thread_count(4, || {
            pooled(|| {
                par_chunks(&mut v, 2, 1, |i, c| {
                    assert_eq!(c.len(), if i == 2 { 1 } else { 2 });
                });
            });
        });
    }

    #[test]
    #[should_panic(expected = "chunk_len must be positive")]
    fn par_chunks_rejects_zero_chunk() {
        par_chunks(&mut [0u8; 4][..], 0, 1, |_, _| {});
    }

    #[test]
    fn worker_panics_propagate() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            let mut v = vec![0u8; 100];
            with_thread_count(4, || {
                pooled(|| {
                    par_chunks(&mut v, 10, 1, |i, _| {
                        if i == 7 {
                            panic!("worker failure");
                        }
                    });
                });
            });
        }));
        assert!(result.is_err(), "panic must escape the parallel region");
    }

    #[test]
    fn pool_survives_panics_and_stays_usable() {
        // A panicking region must not kill pool workers or wedge the queue:
        // subsequent regions on the same pool still complete correctly.
        with_thread_count(4, || {
            pooled(|| {
                for round in 0..10 {
                    let result = catch_unwind(AssertUnwindSafe(|| {
                        par_map_collect(8, |i| {
                            if i == 5 {
                                panic!("round {round}");
                            }
                            i
                        })
                    }));
                    assert!(result.is_err());
                    let ok = par_map_collect(8, |i| i * 2);
                    assert_eq!(ok, (0..8).map(|i| i * 2).collect::<Vec<_>>());
                }
            });
        });
    }

    #[test]
    fn par_map_collect_preserves_order_and_propagates_panics() {
        for threads in [1, 2, 8] {
            let got = with_thread_count(threads, || par_map_collect(23, |i| i * 3));
            assert_eq!(got, (0..23).map(|i| i * 3).collect::<Vec<_>>());
        }
        let result = catch_unwind(AssertUnwindSafe(|| {
            with_thread_count(4, || {
                par_map_collect(16, |i| if i == 11 { panic!("boom") } else { i })
            })
        }));
        assert!(result.is_err());
    }

    #[test]
    fn par_map_mut_mutates_and_collects_deterministically() {
        let run = || {
            let mut state: Vec<u64> = (0..17).map(|i| i * 7).collect();
            let outs = par_map_mut(&mut state, |i, s| {
                *s = s.wrapping_mul(31).wrapping_add(i as u64);
                *s ^ 0x5A
            });
            (state, outs)
        };
        let serial = with_thread_count(1, run);
        for threads in [2, 3, 8] {
            assert_eq!(serial, with_thread_count(threads, run), "t={threads}");
        }
        assert!(par_map_mut(&mut Vec::<u8>::new(), |_, _| 0u8).is_empty());
    }

    #[test]
    fn par_map_mut_propagates_panics() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            let mut v = vec![0u8; 12];
            with_thread_count(4, || {
                par_map_mut(&mut v, |i, _| if i == 9 { panic!("boom") } else { i })
            })
        }));
        assert!(result.is_err());
    }

    #[test]
    fn par_zip_rows_matches_serial() {
        let run = || {
            let mut a = vec![0.0f32; 9 * 5];
            let mut b = vec![0u8; 9 * 2];
            par_zip_rows(&mut a, 5, &mut b, 2, 1, |row, ra, rb| {
                for (j, x) in ra.iter_mut().enumerate() {
                    *x = (row * 10 + j) as f32;
                }
                rb[0] = row as u8;
                rb[1] = 2 * row as u8;
            });
            (a, b)
        };
        let serial = with_thread_count(1, run);
        for threads in [2, 8] {
            assert_eq!(serial, with_thread_count(threads, || pooled(run)));
        }
    }

    #[test]
    fn nested_regions_run_serially() {
        // A nested par_chunks inside a pool share must not dispatch its own
        // region: shares install the serial override, so thread_count()
        // observed inside is 1.
        let observed = AtomicUsize::new(usize::MAX);
        with_thread_count(4, || {
            par_map_collect(4, |i| {
                if i == 0 {
                    observed.store(thread_count(), Ordering::SeqCst);
                }
            });
        });
        assert_eq!(observed.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn override_is_scoped_and_unwinds() {
        let outer = thread_count();
        let _ = catch_unwind(AssertUnwindSafe(|| {
            with_thread_count(5, || panic!("unwind through override"))
        }));
        assert_eq!(thread_count(), outer, "override must restore on unwind");
        let nested = with_thread_count(2, || with_thread_count(6, thread_count));
        assert_eq!(nested, 6);

        let outer_cutoff = min_parallel_work();
        let _ = catch_unwind(AssertUnwindSafe(|| {
            with_min_parallel_work(7, || panic!("unwind through cutoff override"))
        }));
        assert_eq!(min_parallel_work(), outer_cutoff);
        assert_eq!(with_min_parallel_work(9, min_parallel_work), 9);
    }

    #[test]
    fn pool_reuses_threads_across_thousands_of_small_regions() {
        // Thousands of forced-pool regions must not leak threads: the pool
        // spawns at most MAX_THREADS - 1 persistent workers, and the count
        // stabilises after the first regions. The first region runs at full
        // width, so tests running concurrently in this process cannot grow
        // the shared pool between the two counts.
        with_thread_count(MAX_THREADS, || {
            pooled(|| {
                let mut v = vec![0u64; 256];
                par_chunks(&mut v, 8, 1, |_, c| {
                    for x in c.iter_mut() {
                        *x += 1;
                    }
                });
                let after_first = pool_thread_count();
                assert!((1..MAX_THREADS).contains(&after_first));
                for _ in 0..2_000 {
                    par_chunks(&mut v, 8, 1, |i, c| {
                        for x in c.iter_mut() {
                            *x = x.wrapping_add(i as u64);
                        }
                    });
                }
                let after_storm = pool_thread_count();
                assert_eq!(
                    after_first, after_storm,
                    "pool must not spawn per region (thread leak)"
                );
                assert!(after_storm < MAX_THREADS);
            });
        });
    }

    #[test]
    fn pool_width_follows_demand_and_is_bounded() {
        // An 8-share region needs at most 7 helpers; the pool never exceeds
        // MAX_THREADS - 1 even when asked for the maximum width repeatedly.
        with_thread_count(MAX_THREADS, || {
            pooled(|| {
                for _ in 0..50 {
                    let out = par_map_collect(MAX_THREADS * 3, |i| i as u64 * 3);
                    assert_eq!(out[MAX_THREADS], MAX_THREADS as u64 * 3);
                }
            });
        });
        assert!(pool_thread_count() < MAX_THREADS);
    }

    #[test]
    fn concurrent_submitters_share_the_pool() {
        // Multiple OS threads submitting regions at once must all complete
        // with correct results (the help-drain path guarantees progress even
        // when every worker is busy with another region's shares).
        let handles: Vec<_> = (0..6)
            .map(|t| {
                std::thread::spawn(move || {
                    with_thread_count(4, || {
                        pooled(|| {
                            for round in 0..200usize {
                                let got = par_map_collect(13, move |i| i * 31 + t + round);
                                for (i, &g) in got.iter().enumerate() {
                                    assert_eq!(g, i * 31 + t + round);
                                }
                            }
                        })
                    })
                })
            })
            .collect();
        for h in handles {
            h.join().expect("submitter thread must not die");
        }
    }
}
