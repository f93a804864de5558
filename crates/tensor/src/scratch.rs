//! Thread-local buffer recycling for the inference and autograd hot paths.
//!
//! A training step rebuilds the whole define-by-run graph, and a steady-state
//! serving frame lowers, stacks and segments the same-shaped buffers over and
//! over — so both paths would otherwise hammer the global allocator with the
//! same requests every iteration. This module keeps per-thread free lists of
//! backing stores for each [`Pooled`] element type: [`crate::NdArray`]
//! returns its `f32` buffer here on drop, the array constructors draw from
//! the lists before touching the global allocator, the sparse-ViT lowering
//! stages its `usize` index lists here (kept-patch lists, per-pixel token
//! maps, gather indices).
//!
//! # Reuse contract
//!
//! * **Buckets.** Buffers are binned by power-of-two capacity class. A
//!   request of `len` elements is served from its own class or the one
//!   above, so lookups are O(1) instead of a free-list scan. Slack is
//!   bounded at 4x for pool-allocated buffers (power-of-two capacities);
//!   externally recycled odd capacities file by floor(log2) and can reach
//!   ~8x in the worst case.
//! * **Bounded.** Each pool is capped in buffer count and total retained
//!   elements per thread; overflow simply frees to the global allocator.
//!   Buffers below [`MIN_POOL_LEN`] elements bypass the pool — the
//!   bookkeeping would cost more than the allocation.
//! * **Thread-local first, shelf second.** A buffer recycles to the thread
//!   that dropped it with no synchronisation. Only when the local pool is
//!   full does the buffer overflow onto a bounded global *shelf* (one mutex
//!   lock), and only when a local take misses does the thread probe the
//!   shelf before touching the allocator — so a buffer recycled by worker A
//!   is reusable from worker B, but the steady-state hot path never locks.
//! * **Steady state allocates nothing.** Once the working set has been seen
//!   (a few iterations), every buffer-class request is served from the pool;
//!   `crates/bench/tests/alloc_counter.rs` pins this with a counting global
//!   allocator around a serving-style `forward_batch_into` loop.
//!
//! External crates reuse the pool through [`take_buffer`] /
//! [`recycle_buffer`] for staging buffers whose lifetime does not fit an
//! `NdArray`, or through [`IndexVec`], a pooled `Vec<usize>` that recycles
//! itself on drop exactly like `NdArray` does.

use std::cell::RefCell;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{Mutex, MutexGuard};
use std::thread::LocalKey;

/// Buffers smaller than this stay on the global allocator: the bookkeeping
/// would cost more than the allocation.
const MIN_POOL_LEN: usize = 64;
/// Maximum number of buffers retained per thread per pool.
const MAX_POOL_BUFS: usize = 384;
/// Maximum total capacity retained per thread per pool, in elements
/// (~64 MiB of f32 / ~128 MiB of usize at the cap — the serving working set
/// is far below either).
const MAX_POOL_ELEMS: usize = 16 << 20;
/// Number of power-of-two capacity classes tracked (up to 2^40 elements —
/// effectively unbounded; larger buffers just bypass the pool).
const CLASSES: usize = 41;
/// Maximum number of buffers retained on the cross-thread shelf per pool.
const MAX_SHELF_BUFS: usize = 256;
/// Maximum total capacity retained on the shelf per pool, in elements
/// (~32 MiB of f32 / ~64 MiB of usize at the cap).
const MAX_SHELF_ELEMS: usize = 8 << 20;

/// Class whose buffers all satisfy a request of `len` elements.
fn class_for_request(len: usize) -> usize {
    len.max(1).next_power_of_two().trailing_zeros() as usize
}

/// Class a buffer of capacity `cap` files under (`2^c <= cap`).
fn class_of_capacity(cap: usize) -> usize {
    (usize::BITS - 1 - cap.max(1).leading_zeros()) as usize
}

/// A bounded, class-binned store of empty buffers. Each thread has one per
/// element type (its pool), and each element type has one global store
/// behind a mutex (its shelf), which catches what full thread pools would
/// otherwise free and serves any thread whose pool misses. Steady-state
/// traffic never touches the shelf — it is the hand-off lane between a
/// worker that built a working set and a worker that needs one.
pub struct Bins<T> {
    /// `bins[c]` holds buffers with capacity in `[2^c, 2^(c+1))`.
    bins: [Vec<Vec<T>>; CLASSES],
    bufs: usize,
    elems: usize,
    max_bufs: usize,
    max_elems: usize,
}

impl<T> Bins<T> {
    const fn new(max_bufs: usize, max_elems: usize) -> Self {
        Bins {
            bins: [const { Vec::new() }; CLASSES],
            bufs: 0,
            elems: 0,
            max_bufs,
            max_elems,
        }
    }

    /// Pops a buffer with capacity at least `len`, or `None` on a miss:
    /// the request class, then one above (every buffer in either fits, and
    /// the class bound keeps big buffers from being burned on small
    /// requests — 4x slack for power-of-two capacities, ~8x worst case for
    /// odd recycled ones), then an exact-fit scan of the class below
    /// (externally built vectors recycled via the public API file under
    /// floor(log2(cap)), which is one class below their request class
    /// unless cap is a power of two).
    fn take(&mut self, len: usize) -> Option<Vec<T>> {
        let class = class_for_request(len);
        let buf = (class..(class + 2).min(CLASSES))
            .find_map(|c| self.bins[c].pop())
            .or_else(|| {
                let bin = &mut self.bins[class.checked_sub(1)?];
                let i = bin.iter().rposition(|b| b.capacity() >= len)?;
                Some(bin.swap_remove(i))
            })?;
        self.bufs -= 1;
        self.elems -= buf.capacity();
        Some(buf)
    }

    /// Files `buf` (cleared), or hands it back when the store is full.
    fn put(&mut self, mut buf: Vec<T>) -> Option<Vec<T>> {
        let cap = buf.capacity();
        if self.bufs >= self.max_bufs || self.elems + cap > self.max_elems {
            return Some(buf);
        }
        buf.clear();
        self.bufs += 1;
        self.elems += cap;
        self.bins[class_of_capacity(cap)].push(buf);
        None
    }
}

/// An element type with pooled buffers: names its thread-local pool and its
/// global overflow shelf. Implemented for `f32` and `usize`.
pub trait Pooled: Sized + 'static {
    /// The calling thread's pool of this type's buffers.
    fn pool() -> &'static LocalKey<RefCell<Bins<Self>>>;
    /// The process-wide overflow shelf of this type's buffers.
    fn shelf() -> &'static Mutex<Bins<Self>>;
}

macro_rules! pooled {
    ($t:ty, $pool:ident, $shelf:ident) => {
        static $shelf: Mutex<Bins<$t>> = Mutex::new(Bins::new(MAX_SHELF_BUFS, MAX_SHELF_ELEMS));
        thread_local! {
            static $pool: RefCell<Bins<$t>> =
                const { RefCell::new(Bins::new(MAX_POOL_BUFS, MAX_POOL_ELEMS)) };
        }
        impl Pooled for $t {
            fn pool() -> &'static LocalKey<RefCell<Bins<$t>>> {
                &$pool
            }
            fn shelf() -> &'static Mutex<Bins<$t>> {
                &$shelf
            }
        }
    };
}

pooled!(f32, F32_POOL, F32_SHELF);
pooled!(usize, IDX_POOL, IDX_SHELF);

/// Locks a shelf, shrugging off poisoning (the shelf holds only empty
/// buffers, so a panicking holder cannot leave it inconsistent).
fn lock<T>(shelf: &Mutex<Bins<T>>) -> MutexGuard<'_, Bins<T>> {
    shelf.lock().unwrap_or_else(|e| e.into_inner())
}

/// Takes an empty pooled buffer with capacity at least `len`: from the
/// calling thread's pool, else from the shelf, else freshly allocated.
///
/// The public entry point for staging buffers that outlive an expression but
/// do not live inside an [`crate::NdArray`] (sensor readout images, stacked
/// token data, index lists). Pair with
/// [`recycle_buffer`]; dropping the buffer instead is safe but forfeits the
/// reuse.
pub fn take_buffer<T: Pooled>(len: usize) -> Vec<T> {
    if len < MIN_POOL_LEN {
        return Vec::with_capacity(len);
    }
    T::pool()
        .with(|p| p.borrow_mut().take(len))
        .or_else(|| lock(T::shelf()).take(len))
        // Fresh buffers get power-of-two capacity so they later file in the
        // exact class their own request size maps to — without this, every
        // odd-sized working-set buffer would miss its bin on the next
        // iteration and steady state would keep allocating.
        .unwrap_or_else(|| Vec::with_capacity(len.next_power_of_two()))
}

/// Returns a buffer obtained from [`take_buffer`] (or any `Vec`) to the
/// calling thread's pool, overflowing onto the shelf when the pool is full
/// (and dropping it when the shelf is full too, or when it is too small to
/// be worth keeping).
pub fn recycle_buffer<T: Pooled>(buf: Vec<T>) {
    if buf.capacity() < MIN_POOL_LEN {
        return;
    }
    if let Some(overflow) = T::pool().with(|p| p.borrow_mut().put(buf)) {
        lock(T::shelf()).put(overflow);
    }
}

/// A zero-filled buffer of exactly `len` elements, recycled when possible.
pub(crate) fn take_zeroed(len: usize) -> Vec<f32> {
    let mut buf = take_buffer(len);
    buf.resize(len, 0.0);
    buf
}

/// A buffer of exactly `len` elements filled from `it`, recycled when
/// possible. `it` must yield exactly `len` items.
pub(crate) fn take_from_iter(len: usize, it: impl Iterator<Item = f32>) -> Vec<f32> {
    let mut buf = take_buffer(len);
    buf.extend(it);
    debug_assert_eq!(buf.len(), len, "iterator length must match request");
    buf
}

/// A point-in-time view of the `f32` and `usize` buffers a store retains,
/// for leak/high-water assertions in long-horizon soak tests. For the
/// calling thread's pools ([`pool_stats`]), a steady-state serving loop
/// must show a **flat** retained-elements curve after warmup — monotone
/// growth across epochs means some path leaks buffers into (or past) the
/// pool instead of reusing them. For the process-wide shelf
/// ([`shelf_stats`]), which only ever holds what full thread pools spilled,
/// monotone growth means some thread keeps building buffers it never
/// re-takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Retained `f32` buffers.
    pub f32_bufs: usize,
    /// Total retained `f32` capacity, in elements.
    pub f32_elems: usize,
    /// Retained `usize` buffers.
    pub index_bufs: usize,
    /// Total retained `usize` capacity, in elements.
    pub index_elems: usize,
}

impl PoolStats {
    fn of(f: &Bins<f32>, idx: &Bins<usize>) -> Self {
        PoolStats {
            f32_bufs: f.bufs,
            f32_elems: f.elems,
            index_bufs: idx.bufs,
            index_elems: idx.elems,
        }
    }

    /// Total retained bytes across both element types.
    pub fn retained_bytes(&self) -> usize {
        self.f32_elems * std::mem::size_of::<f32>()
            + self.index_elems * std::mem::size_of::<usize>()
    }
}

/// Snapshots the calling thread's pool occupancy (cheap: four counter
/// reads).
pub fn pool_stats() -> PoolStats {
    F32_POOL.with(|f| IDX_POOL.with(|idx| PoolStats::of(&f.borrow(), &idx.borrow())))
}

/// Snapshots the global overflow shelf's occupancy (two mutex locks).
pub fn shelf_stats() -> PoolStats {
    PoolStats::of(&lock(&F32_SHELF), &lock(&IDX_SHELF))
}

/// A pooled `Vec<usize>`: drawn from the thread-local index pool and
/// returned to it on drop, exactly like an [`crate::NdArray`]'s backing
/// store.
///
/// Used for index lists that escape into results the caller holds across an
/// iteration (e.g. the sparse ViT's per-pixel frame indices inside a
/// segmentation prediction, or the gather indices captured by
/// [`crate::Tensor::gather_rows`]'s backward closure): the steady-state
/// serving loop then performs no allocator round-trips for them.
///
/// Dereferences to `[usize]`; compares transparently against slices and
/// `Vec<usize>`.
///
/// ```
/// use bliss_tensor::IndexVec;
///
/// let mut v = IndexVec::with_capacity(3);
/// v.push(7);
/// v.push(9);
/// assert_eq!(v.len(), 2);
/// assert_eq!(v, vec![7usize, 9]);
/// assert_eq!(IndexVec::from_slice(&[1, 2]).as_slice(), &[1, 2]);
/// ```
#[derive(Default)]
pub struct IndexVec {
    data: Vec<usize>,
}

impl IndexVec {
    /// An empty pooled vector (no buffer drawn until first growth).
    pub fn new() -> Self {
        IndexVec { data: Vec::new() }
    }

    /// An empty pooled vector with capacity at least `cap`.
    pub fn with_capacity(cap: usize) -> Self {
        IndexVec {
            data: take_buffer(cap),
        }
    }

    /// A pooled copy of `slice`.
    pub fn from_slice(slice: &[usize]) -> Self {
        let mut data = take_buffer(slice.len());
        data.extend_from_slice(slice);
        IndexVec { data }
    }

    /// Appends a value.
    pub fn push(&mut self, v: usize) {
        self.data.push(v);
    }

    /// Clears the vector, keeping its pooled capacity.
    pub fn clear(&mut self) {
        self.data.clear();
    }

    /// The indices as a slice.
    pub fn as_slice(&self) -> &[usize] {
        &self.data
    }
}

impl Drop for IndexVec {
    fn drop(&mut self) {
        recycle_buffer(std::mem::take(&mut self.data));
    }
}

impl Clone for IndexVec {
    fn clone(&self) -> Self {
        Self::from_slice(&self.data)
    }
}

impl Deref for IndexVec {
    type Target = [usize];
    fn deref(&self) -> &[usize] {
        &self.data
    }
}

impl DerefMut for IndexVec {
    fn deref_mut(&mut self) -> &mut [usize] {
        &mut self.data
    }
}

impl fmt::Debug for IndexVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.data.fmt(f)
    }
}

impl PartialEq for IndexVec {
    fn eq(&self, other: &Self) -> bool {
        self.data == other.data
    }
}
impl Eq for IndexVec {}

impl PartialEq<Vec<usize>> for IndexVec {
    fn eq(&self, other: &Vec<usize>) -> bool {
        self.data == *other
    }
}

impl PartialEq<[usize]> for IndexVec {
    fn eq(&self, other: &[usize]) -> bool {
        self.data == other
    }
}

impl PartialEq<IndexVec> for Vec<usize> {
    fn eq(&self, other: &IndexVec) -> bool {
        *self == other.data
    }
}

impl FromIterator<usize> for IndexVec {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let it = iter.into_iter();
        let mut data = take_buffer(it.size_hint().0);
        data.extend(it);
        IndexVec { data }
    }
}

impl<'a> IntoIterator for &'a IndexVec {
    type Item = &'a usize;
    type IntoIter = std::slice::Iter<'a, usize>;
    fn into_iter(self) -> Self::IntoIter {
        self.data.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recycles_large_buffers() {
        let buf = take_zeroed(1024);
        let ptr = buf.as_ptr();
        recycle_buffer(buf);
        let again = take_zeroed(512); // class below, served from one above
        assert_eq!(again.len(), 512);
        assert_eq!(again.as_ptr(), ptr, "expected the pooled allocation back");
        assert!(again.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn zeroes_are_fresh_after_reuse() {
        let mut buf = take_zeroed(256);
        buf.iter_mut().for_each(|x| *x = 7.0);
        recycle_buffer(buf);
        assert!(take_zeroed(256).iter().all(|&x| x == 0.0));
    }

    #[test]
    fn take_from_iter_matches_collect() {
        let buf = take_from_iter(100, (0..100).map(|x| x as f32));
        assert_eq!(buf.len(), 100);
        assert_eq!(buf[99], 99.0);
    }

    #[test]
    fn tiny_buffers_bypass_the_pool() {
        let buf = take_zeroed(4);
        assert_eq!(buf.len(), 4);
        recycle_buffer(vec![0.0f32; 4]); // silently ignored
    }

    #[test]
    fn size_classes_do_not_burn_big_buffers_on_small_requests() {
        // A 1 MiB-class buffer must not be handed to a 64-element request.
        let big = take_zeroed(1 << 18);
        let big_ptr = big.as_ptr();
        recycle_buffer(big);
        let small = take_zeroed(64);
        assert_ne!(small.as_ptr(), big_ptr, "class slack bound violated");
        // The big buffer is still there for a big request.
        let big_again = take_zeroed(1 << 18);
        assert_eq!(big_again.as_ptr(), big_ptr);
    }

    #[test]
    fn pool_is_bounded() {
        for _ in 0..(MAX_POOL_BUFS * 2) {
            recycle_buffer(vec![0.0f32; MIN_POOL_LEN]);
        }
        F32_POOL.with(|pool| {
            let pool = pool.borrow();
            assert!(pool.bufs <= MAX_POOL_BUFS);
            assert!(pool.elems <= MAX_POOL_ELEMS);
        });
    }

    #[test]
    fn index_pool_round_trips() {
        let mut buf = take_buffer::<usize>(256);
        buf.extend(0..256);
        let ptr = buf.as_ptr();
        recycle_buffer(buf);
        let again = take_buffer::<usize>(200);
        assert!(again.is_empty());
        assert_eq!(again.as_ptr(), ptr);
    }

    #[test]
    fn index_vec_recycles_on_drop() {
        let v = IndexVec::from_slice(&(0..300).collect::<Vec<_>>());
        let ptr = v.as_slice().as_ptr();
        drop(v);
        let again = IndexVec::with_capacity(256);
        assert_eq!(again.as_slice().as_ptr(), ptr);
    }

    #[test]
    fn overflowing_f32_recycle_crosses_threads_via_the_shelf() {
        // A capacity class no other test uses, so concurrent tests in this
        // binary cannot race us for the shelved buffer.
        const BIG: usize = 5 << 18;
        let ptr = std::thread::spawn(|| {
            let mut marked = take_buffer::<f32>(BIG);
            marked.resize(BIG, 1.0);
            let ptr = marked.as_ptr() as usize;
            // Fill this thread's local pool to its buffer cap so the marked
            // buffer overflows onto the cross-thread shelf.
            for _ in 0..MAX_POOL_BUFS {
                recycle_buffer(vec![0.0f32; MIN_POOL_LEN]);
            }
            recycle_buffer(marked);
            ptr
        })
        .join()
        .unwrap();
        // A different thread — empty local pool — must get worker A's buffer
        // back from the shelf, cleared.
        let got = std::thread::spawn(move || {
            let buf = take_buffer::<f32>(BIG);
            assert!(buf.is_empty(), "shelved buffers must come back cleared");
            buf.as_ptr() as usize
        })
        .join()
        .unwrap();
        assert_eq!(got, ptr, "expected the shelved allocation on thread B");
    }

    #[test]
    fn overflowing_index_recycle_crosses_threads_via_the_shelf() {
        const BIG: usize = 3 << 18; // distinct class from the f32 test's data
        let ptr = std::thread::spawn(|| {
            let mut marked = take_buffer::<usize>(BIG);
            marked.resize(BIG, 7);
            let ptr = marked.as_ptr() as usize;
            for _ in 0..MAX_POOL_BUFS {
                recycle_buffer(vec![0usize; MIN_POOL_LEN]);
            }
            recycle_buffer(marked);
            ptr
        })
        .join()
        .unwrap();
        let got = std::thread::spawn(move || {
            let buf = take_buffer::<usize>(BIG);
            buf.as_ptr() as usize
        })
        .join()
        .unwrap();
        assert_eq!(got, ptr, "expected the shelved allocation on thread B");
    }

    #[test]
    fn shelf_is_bounded_and_reports_occupancy() {
        // Overflow far more small buffers than the shelf admits; its caps
        // must hold no matter what other tests shelve concurrently.
        std::thread::spawn(|| {
            for _ in 0..(MAX_POOL_BUFS + MAX_SHELF_BUFS * 2) {
                recycle_buffer(vec![0.0f32; MIN_POOL_LEN]);
            }
        })
        .join()
        .unwrap();
        let stats = shelf_stats();
        assert!(stats.f32_bufs <= MAX_SHELF_BUFS, "{stats:?}");
        assert!(stats.f32_elems <= MAX_SHELF_ELEMS, "{stats:?}");
        assert!(stats.index_bufs <= MAX_SHELF_BUFS, "{stats:?}");
        assert!(stats.index_elems <= MAX_SHELF_ELEMS, "{stats:?}");
    }

    #[test]
    fn index_vec_behaves_like_a_vec() {
        let mut v = IndexVec::new();
        v.push(3);
        v.push(1);
        assert_eq!(v.len(), 2);
        assert_eq!(v[1], 1);
        assert_eq!(v, vec![3usize, 1]);
        assert_eq!(v.clone(), v);
        assert_eq!(format!("{v:?}"), "[3, 1]");
        let collected: IndexVec = (0..4usize).collect();
        assert_eq!(collected.iter().sum::<usize>(), 6);
        let mut s = 0;
        for &x in &collected {
            s += x;
        }
        assert_eq!(s, 6);
    }
}
