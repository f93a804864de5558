//! Reusable thread-local workspaces for the kernels' private scratch.
//!
//! [`crate::NdArray::matmul_transposed`] feeds the register-blocked matmul a
//! row-major copy of its transposed right operand (the "pack": the kernel
//! streams `b` rows, so `Q K^T`-style products need `K` laid out `[k, p]`).
//! The workspace keeps **one** dedicated buffer per thread, taken and put
//! back around the kernel call, so steady-state packing touches no
//! allocator, instead of building an intermediate `NdArray` on every
//! attention score/gradient product.
//!
//! The planned executor's fused steps keep their per-task scratch in a
//! second slot ([`with_task_buf`]): a `BlockAttention` task's gathered
//! q/k/v, scores, attention and head output, and an int8 linear block's
//! activation codes. Per-thread buffers keep steady-state execution
//! allocation-free without parking per-task memory in every cached plan's
//! arena; each holds the largest task its thread has run.
//!
//! A buffer is *taken* out of its thread-local slot for the duration of the
//! closure (not borrowed), so a re-entrant use — e.g. a nested kernel that
//! also packs — falls back to a fresh allocation instead of a `RefCell`
//! panic; only the outermost use gets the cached buffer, which is exactly
//! the hot case. A task's pack inside a task buffer uses the other slot.

use std::cell::Cell;
use std::thread::LocalKey;

thread_local! {
    static PACK: Cell<Vec<f32>> = const { Cell::new(Vec::new()) };
    static TASK: Cell<Vec<f32>> = const { Cell::new(Vec::new()) };
}

/// Runs `f` over the slot's buffer resized to exactly `len` elements
/// (contents unspecified on entry; `f` must fully overwrite what it reads),
/// returning the buffer to the slot afterwards.
fn with_buf<R>(
    slot: &'static LocalKey<Cell<Vec<f32>>>,
    len: usize,
    f: impl FnOnce(&mut [f32]) -> R,
) -> R {
    let mut buf = slot.with(Cell::take);
    // `resize` over a kept allocation: no-op once the high-water mark is
    // reached (the buffer is always fully overwritten before being read).
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
    let out = f(&mut buf[..len]);
    slot.with(|cell| cell.set(buf));
    out
}

/// The matmul pack buffer (see the module docs).
pub(crate) fn with_pack_buf<R>(len: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
    with_buf(&PACK, len, f)
}

/// The fused plan steps' per-task scratch (see the module docs).
pub(crate) fn with_task_buf<R>(len: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
    with_buf(&TASK, len, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_buffer_is_reused_across_calls() {
        let first = with_pack_buf(4096, |b| {
            b[0] = 1.0;
            b.as_ptr()
        });
        let second = with_pack_buf(1024, |b| b.as_ptr());
        assert_eq!(first, second, "workspace must reuse its buffer");
    }

    #[test]
    fn task_and_pack_buffers_are_separate_slots() {
        with_task_buf(64, |task| {
            task[0] = 4.0;
            with_pack_buf(64, |pack| pack[0] = 5.0);
            assert_eq!(task[0], 4.0, "a pack inside a task must not alias it");
        });
    }

    #[test]
    fn reentrant_use_falls_back_gracefully() {
        with_pack_buf(64, |outer| {
            outer[0] = 2.0;
            with_pack_buf(64, |inner| {
                inner[0] = 3.0;
            });
            assert_eq!(outer[0], 2.0, "nested pack must not alias the outer");
        });
    }
}
