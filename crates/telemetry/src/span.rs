//! The fixed-capacity span recorder.
//!
//! Spans are plain-old-data records written into a ring that is pre-sized
//! once by [`init_spans`]; recording is a mutex-guarded slot write with no
//! allocator traffic, and a full ring counts drops instead of growing.
//! The mutex is uncontended in practice — the virtual-time scheduler that
//! emits spans runs on one thread (worker threads only fan out *inside*
//! kernels, below the instrumentation points) — but keeps the recorder
//! safe if that ever changes.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// The pipeline stage a [`SpanRecord`] measures, in per-frame dataflow
/// order. `Inference` covers the batched ViT segmentation forward;
/// `Feedback` covers the per-frame gaze regression plus result absorption
/// slot that closes the sensor loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Stage {
    /// Photon integration on the sensor (exposure window).
    Expose,
    /// In-sensor event extraction from the exposed frame.
    Eventify,
    /// ROI-prediction network forward on the event map.
    RoiPredict,
    /// Sparse sampling, analog readout and MIPI transfer of the ROI.
    Readout,
    /// Cross-session batched ViT segmentation forward on the host.
    Inference,
    /// Per-frame gaze regression and feedback of the box to the sensor.
    Feedback,
}

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; 6] = [
        Stage::Expose,
        Stage::Eventify,
        Stage::RoiPredict,
        Stage::Readout,
        Stage::Inference,
        Stage::Feedback,
    ];

    /// Stable lower-case label used in exports.
    pub fn label(&self) -> &'static str {
        match self {
            Stage::Expose => "expose",
            Stage::Eventify => "eventify",
            Stage::RoiPredict => "roi_predict",
            Stage::Readout => "readout",
            Stage::Inference => "inference",
            Stage::Feedback => "feedback",
        }
    }

    /// Index of this stage in [`Stage::ALL`].
    pub fn index(&self) -> usize {
        *self as usize
    }
}

/// One recorded per-frame, per-stage span. Plain old data: `Copy`, no heap
/// members, so a pre-sized ring of these is allocation-free to write.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpanRecord {
    /// Which pipeline stage this span measures.
    pub stage: Stage,
    /// Scenario index of the owning session ([`Stage::ALL`]-independent;
    /// matches `bliss_eye::Scenario::index`).
    pub scenario: u8,
    /// Fleet host the span was served on (0 outside a fleet).
    pub host: u32,
    /// Session id within the run.
    pub session: u32,
    /// Frame index within the session.
    pub frame: u32,
    /// Size of the inference batch the frame rode in (1 for per-frame
    /// sensor-side stages).
    pub batch: u32,
    /// Span start in virtual (simulated) seconds.
    pub virt_start_s: f64,
    /// Span duration in virtual seconds.
    pub virt_dur_s: f64,
    /// Span start in wall nanoseconds since [`init_spans`].
    pub wall_start_ns: u64,
    /// Span duration in wall nanoseconds. Sensor-side stages of one batch
    /// are simulated fused, so their members share the region's wall cost.
    pub wall_dur_ns: u64,
}

impl SpanRecord {
    /// The all-zero record used to pre-fill the ring.
    pub const ZERO: SpanRecord = SpanRecord {
        stage: Stage::Expose,
        scenario: 0,
        host: 0,
        session: 0,
        frame: 0,
        batch: 0,
        virt_start_s: 0.0,
        virt_dur_s: 0.0,
        wall_start_ns: 0,
        wall_dur_ns: 0,
    };
}

/// Fixed-capacity span storage: filled front-to-back, drops (and counts)
/// once full. Chronological by construction — the scheduler emits spans in
/// completion order.
struct SpanRing {
    buf: Box<[SpanRecord]>,
    len: usize,
    dropped: u64,
}

static RING: Mutex<Option<SpanRing>> = Mutex::new(None);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static CURRENT_HOST: AtomicU32 = AtomicU32::new(0);

/// Pre-sizes (or re-sizes) the span ring to `capacity` records and resets
/// the drop counter. Call once at process start, before enabling
/// telemetry; this is the only allocation the recorder ever performs.
pub fn init_spans(capacity: usize) {
    let _ = EPOCH.get_or_init(Instant::now);
    let mut ring = RING.lock().expect("span ring poisoned");
    *ring = Some(SpanRing {
        buf: vec![SpanRecord::ZERO; capacity].into_boxed_slice(),
        len: 0,
        dropped: 0,
    });
}

/// Wall-clock nanoseconds since [`init_spans`] first ran (0 before).
pub fn wall_now_ns() -> u64 {
    match EPOCH.get() {
        Some(epoch) => epoch.elapsed().as_nanos() as u64,
        None => 0,
    }
}

/// Sets the ambient fleet host id stamped onto subsequently recorded
/// spans. The fleet scheduler steps shards serially, so a process-wide
/// value is exact; solo serving leaves it at 0.
pub fn set_current_host(host: u32) {
    CURRENT_HOST.store(host, Ordering::Relaxed);
}

/// The ambient fleet host id (see [`set_current_host`]).
pub fn current_host() -> u32 {
    CURRENT_HOST.load(Ordering::Relaxed)
}

/// Records one span. A no-op branch when telemetry is disabled or the ring
/// was never initialised; a slot write when enabled; a counted drop when
/// the ring is full. Never allocates.
#[inline]
pub fn record_span(span: SpanRecord) {
    if !crate::enabled() {
        return;
    }
    let mut guard = RING.lock().expect("span ring poisoned");
    if let Some(ring) = guard.as_mut() {
        if ring.len < ring.buf.len() {
            ring.buf[ring.len] = span;
            ring.len += 1;
        } else {
            ring.dropped += 1;
        }
    }
}

/// Drains every recorded span, in recording order, leaving the ring empty
/// (capacity and drop counter preserved). Returns an empty vec if
/// [`init_spans`] was never called.
pub fn take_spans() -> Vec<SpanRecord> {
    let mut guard = RING.lock().expect("span ring poisoned");
    match guard.as_mut() {
        Some(ring) => {
            let out = ring.buf[..ring.len].to_vec();
            ring.len = 0;
            out
        }
        None => Vec::new(),
    }
}

/// Clears recorded spans and the drop counter without reallocating.
pub fn clear_spans() {
    let mut guard = RING.lock().expect("span ring poisoned");
    if let Some(ring) = guard.as_mut() {
        ring.len = 0;
        ring.dropped = 0;
    }
}

/// Spans currently held in the ring.
pub fn spans_recorded() -> usize {
    let guard = RING.lock().expect("span ring poisoned");
    guard.as_ref().map_or(0, |r| r.len)
}

/// Spans dropped because the ring was full, since the last
/// [`init_spans`] / [`clear_spans`].
pub fn spans_dropped() -> u64 {
    let guard = RING.lock().expect("span ring poisoned");
    guard.as_ref().map_or(0, |r| r.dropped)
}

/// The ring's fixed capacity (0 before [`init_spans`]).
pub fn span_capacity() -> usize {
    let guard = RING.lock().expect("span ring poisoned");
    guard.as_ref().map_or(0, |r| r.buf.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support;

    fn span(frame: u32) -> SpanRecord {
        SpanRecord {
            frame,
            virt_dur_s: 1e-3,
            ..SpanRecord::ZERO
        }
    }

    #[test]
    fn ring_fills_then_counts_drops() {
        let _g = test_support::lock();
        init_spans(4);
        crate::set_enabled(true);
        for i in 0..6 {
            record_span(span(i));
        }
        crate::set_enabled(false);
        assert_eq!(spans_recorded(), 4);
        assert_eq!(spans_dropped(), 2);
        assert_eq!(span_capacity(), 4);
        let spans = take_spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[3].frame, 3);
        assert_eq!(spans_recorded(), 0);
        // Capacity survives a drain; drop counter survives until cleared.
        assert_eq!(span_capacity(), 4);
        assert_eq!(spans_dropped(), 2);
        clear_spans();
        assert_eq!(spans_dropped(), 0);
    }

    #[test]
    fn disabled_recording_is_a_noop() {
        let _g = test_support::lock();
        init_spans(4);
        crate::set_enabled(false);
        record_span(span(0));
        assert_eq!(spans_recorded(), 0);
        assert_eq!(spans_dropped(), 0);
    }

    #[test]
    fn stage_labels_are_unique_and_ordered() {
        let labels: Vec<&str> = Stage::ALL.iter().map(|s| s.label()).collect();
        let mut dedup = labels.clone();
        dedup.dedup();
        assert_eq!(labels.len(), dedup.len());
        for (i, s) in Stage::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
    }
}
