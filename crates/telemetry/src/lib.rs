//! Allocation-free observability for the BlissCam serving stack.
//!
//! The serving layers above this crate hold two hard contracts that any
//! instrumentation must not break:
//!
//! * **determinism** — serving results are bit-identical across thread
//!   counts and across telemetry on/off (pinned by the
//!   `telemetry_neutrality` suite in `bliss_serve`), so nothing recorded
//!   here may ever feed back into scheduling or numerics;
//! * **zero-allocation steady state** — the inference hot path performs no
//!   allocator traffic per frame (pinned by `alloc_counter.rs` in
//!   `bliss_bench`), so recording must be writes into storage that was
//!   pre-sized at init.
//!
//! The crate therefore provides two pieces, both global and safe to call
//! from any layer without threading handles through APIs:
//!
//! * a fixed-capacity **span recorder** ([`record_span`]): per-frame,
//!   per-stage spans (expose → eventify → ROI predict → sparse readout →
//!   batched inference → feedback) carrying virtual *and* wall time plus
//!   session/host/frame/scenario identity, written into a ring pre-sized
//!   by [`init_spans`]. When the ring is full new spans are counted as
//!   dropped rather than reallocating;
//! * **exporters** ([`export`]): Chrome trace-event JSON (loadable in
//!   Perfetto / `chrome://tracing`) and per-stage aggregate breakdowns for
//!   the bench reports.
//!
//! # The disabled path is a branch
//!
//! Telemetry is off by default. [`record_span`] first performs one relaxed
//! atomic load ([`enabled`]) and returns on `false` — a predictable branch,
//! not a dynamic dispatch — so instrumented hot loops cost one test per
//! record site when telemetry is off. [`set_enabled`] flips recording at
//! runtime; the instrumented code never changes shape.
//!
//! # Identity model
//!
//! Spans carry `(host, session, frame, scenario)`. Hosts are a process-wide
//! ambient value ([`set_current_host`]) because the fleet scheduler steps
//! its shards serially on one thread; sessions/frames/scenarios ride on
//! each [`SpanRecord`]. In the Chrome trace export, hosts become `pid`s and
//! sessions become `tid`s, so Perfetto groups tracks the same way the fleet
//! groups work.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod export;
mod histogram;
mod span;

pub use histogram::{StreamingHistogram, HISTOGRAM_BASE_S, HISTOGRAM_BUCKETS, HISTOGRAM_GROWTH};
pub use span::{
    clear_spans, current_host, init_spans, record_span, set_current_host, span_capacity,
    spans_dropped, spans_recorded, take_spans, wall_now_ns, SpanRecord, Stage,
};

use std::sync::atomic::{AtomicBool, Ordering};

/// Global telemetry switch. Off by default; every recording primitive
/// branches on this before touching any storage.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns telemetry recording on or off at runtime.
///
/// Flipping this never changes serving results — the recorder is strictly
/// write-only from the pipeline's point of view.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether telemetry recording is currently enabled.
///
/// One relaxed atomic load; instrumentation sites call this (directly or
/// through [`record_span`], which self-guards) so the disabled path is a
/// branch, not a vtable call.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

#[cfg(test)]
pub(crate) mod test_support {
    //! Tests that toggle the global enable flag or fill the span ring
    //! serialise on this one lock (the unit-test binary is multi-threaded).
    use std::sync::{Mutex, MutexGuard};

    static LOCK: Mutex<()> = Mutex::new(());

    pub fn lock() -> MutexGuard<'static, ()> {
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_enable_flag_is_observable() {
        let _g = test_support::lock();
        set_enabled(false);
        assert!(!enabled());
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
    }
}
