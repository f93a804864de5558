//! Telemetry neutrality: tracing on vs off must be **bit-identical**, and
//! the recorded spans must describe exactly the frames the scheduler
//! served.
//!
//! The telemetry contract is that the recorder is write-only — nothing it
//! stores may feed back into scheduling or numerics. These tests pin that
//! end-to-end on the serving runtime: per scenario (each oculomotor
//! workload exercises a different mix of cold starts, ROI shapes and
//! deadline pressure), across 1/2/8-thread pools with tracing live, and
//! structurally (six stage spans per served frame, identity fields
//! matching the trace).
//!
//! The enable flag and the span ring are process-global, so every test
//! that toggles or drains them serialises on one local mutex; the runtime
//! uses untrained miniature networks (accuracy is meaningless, scheduling
//! is exact) so the whole suite stays fast.

use bliss_serve::{ServeConfig, ServeRuntime, SessionConfig};
use bliss_telemetry::{SpanRecord, Stage};
use bliss_track::{RoiPredictionNet, SparseViT};
use blisscam_core::SystemConfig;
use rand::{rngs::StdRng, SeedableRng};
use std::sync::{Mutex, MutexGuard};

/// Serialises tests that touch the process-global telemetry state.
fn telemetry_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Untrained miniature runtime: `ServeRuntime` holds `Rc` internals, so
/// each test builds its own copy from the same seed (scheduling is exact
/// regardless of training, which is all these tests measure).
fn runtime() -> ServeRuntime {
    let mut system = SystemConfig::miniature();
    system.vit.dim = 12;
    system.vit.enc_depth = 1;
    system.vit.dec_depth = 1;
    system.roi_net.hidden = 16;
    let mut rng = StdRng::seed_from_u64(0x7E1E);
    ServeRuntime::with_networks(
        system,
        SparseViT::new(&mut rng, system.vit),
        RoiPredictionNet::new(&mut rng, system.roi_net),
    )
}

fn load(sessions: usize, frames: usize) -> ServeConfig {
    let mut cfg = ServeConfig::new(sessions, frames);
    cfg.max_batch = 4;
    cfg
}

#[test]
fn tracing_is_bit_neutral_for_every_scenario() {
    let _g = telemetry_lock();
    let rt = runtime();
    bliss_telemetry::init_spans(1 << 14);
    for (i, &scenario) in bliss_eye::Scenario::ALL.iter().enumerate() {
        let cfg = load(2, 4);
        let sessions: Vec<SessionConfig> = (0..2)
            .map(|id| SessionConfig {
                id,
                scenario,
                seed: 0xBEEF + (i * 2 + id) as u64,
                frames: cfg.frames_per_session,
                start_offset_s: id as f64 * cfg.stagger_s,
            })
            .collect();
        bliss_telemetry::set_enabled(false);
        let off = rt.serve_sessions(&cfg, sessions.clone()).expect("serves");
        bliss_telemetry::set_enabled(true);
        let on = rt.serve_sessions(&cfg, sessions).expect("serves");
        bliss_telemetry::set_enabled(false);
        assert_eq!(
            off,
            on,
            "tracing changed serving results for scenario {}",
            scenario.label()
        );
    }
    bliss_telemetry::clear_spans();
}

#[test]
fn tracing_is_bit_neutral_across_thread_counts() {
    let _g = telemetry_lock();
    let rt = runtime();
    bliss_telemetry::init_spans(1 << 14);
    let cfg = load(4, 4);
    bliss_telemetry::set_enabled(false);
    let baseline = rt.serve(&cfg).expect("serves");
    bliss_telemetry::set_enabled(true);
    for threads in [1usize, 2, 8] {
        let traced = bliss_parallel::with_thread_count(threads, || rt.serve(&cfg)).expect("serves");
        assert_eq!(
            baseline, traced,
            "tracing under a {threads}-thread pool diverged from the untraced run"
        );
    }
    bliss_telemetry::set_enabled(false);
    bliss_telemetry::clear_spans();
}

#[test]
fn recorded_spans_describe_every_served_frame() {
    let _g = telemetry_lock();
    let rt = runtime();
    bliss_telemetry::init_spans(1 << 14);
    bliss_telemetry::clear_spans();
    let cfg = load(3, 4);
    bliss_telemetry::set_enabled(true);
    let outcome = rt.serve(&cfg).expect("serves");
    bliss_telemetry::set_enabled(false);
    let spans = bliss_telemetry::take_spans();

    let frames_total: usize = outcome.traces.iter().map(|t| t.records.len()).sum();
    assert_eq!(
        spans.len(),
        frames_total * Stage::ALL.len(),
        "one span per stage per served frame"
    );
    assert_eq!(bliss_telemetry::spans_dropped(), 0);

    // Per frame: all six stages present, on the right session, with the
    // expose span starting at the recorded arrival and the virtual stage
    // chain causally ordered.
    for trace in &outcome.traces {
        for r in &trace.records {
            let frame_spans: Vec<&SpanRecord> = spans
                .iter()
                .filter(|s| s.session as usize == trace.config.id && s.frame as usize == r.index)
                .collect();
            assert_eq!(frame_spans.len(), Stage::ALL.len());
            for (stage, span) in Stage::ALL.iter().zip(&frame_spans) {
                assert_eq!(span.stage, *stage);
                assert_eq!(span.batch as usize, r.batch_size);
                assert_eq!(span.host, 0, "solo serving stays on host 0");
                assert!(span.virt_dur_s >= 0.0);
            }
            let expose = frame_spans[Stage::Expose.index()];
            assert_eq!(expose.virt_start_s, r.arrival_s);
            // The feedback stage ends exactly at the recorded completion.
            let feedback = frame_spans[Stage::Feedback.index()];
            assert!(
                (feedback.virt_start_s + feedback.virt_dur_s - r.completion_s).abs() < 1e-9,
                "feedback span must close at the frame's completion time"
            );
            // Stages never start before the previous stage's region.
            for pair in frame_spans.windows(2) {
                assert!(
                    pair[1].virt_start_s >= pair[0].virt_start_s - 1e-12,
                    "stage starts must be causally ordered"
                );
            }
        }
    }
    bliss_telemetry::clear_spans();
}
