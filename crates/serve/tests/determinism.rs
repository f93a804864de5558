//! Determinism guarantees of the serving runtime:
//!
//! 1. a session served inside an N-session fleet produces **bit-identical**
//!    accuracy/volume/energy outputs to the same session served alone;
//! 2. a full run (including virtual-time latencies and batch compositions)
//!    is bit-identical under 1, 2 and 8 worker threads;
//! 3. schedules are causal, capped and reproducible.
//!
//! The runtime holds `Rc`-backed tensors (thread-bound), so the shared
//! fixture stores the plain-data [`ServeOutcome`]s of one trained model run
//! once — the PR-2 fixture-sharing pattern.

use bliss_serve::{ServeConfig, ServeOutcome, ServeRuntime, SessionConfig};
use blisscam_core::SystemConfig;
use std::sync::OnceLock;

struct Fixture {
    /// 3 sessions x 5 frames, max_batch 4.
    fleet_cfg: ServeConfig,
    fleet: ServeOutcome,
    fleet_sessions: Vec<SessionConfig>,
    /// Each fleet session served alone under the same tuning.
    solos: Vec<ServeOutcome>,
    /// 4 sessions x 4 frames under forced 1/2/8-thread pools.
    threaded: Vec<ServeOutcome>,
    /// The same 2 x 4 load served twice.
    repeat: (ServeOutcome, ServeOutcome),
    /// 5 sessions x 4 frames (scenario coverage + report shape).
    five: ServeOutcome,
    /// 6 sessions x 4 frames with max_batch 3.
    capped: ServeOutcome,
    /// Paper-scale timing: light load (4 sessions), batched.
    paper_light: ServeOutcome,
    /// Paper-scale timing: heavy load (24 sessions), batched.
    paper_heavy_batched: ServeOutcome,
    /// Paper-scale timing: heavy load (24 sessions), sequential launches.
    paper_heavy_sequential: ServeOutcome,
    /// 8 sessions connecting simultaneously (stagger 0), cold starts capped
    /// at 1 per batch.
    cold_capped: ServeOutcome,
    /// The same simultaneous-connect load with the cap disabled.
    cold_uncapped: ServeOutcome,
}

fn load(sessions: usize, frames: usize) -> ServeConfig {
    let mut cfg = ServeConfig::new(sessions, frames);
    cfg.max_batch = 4;
    cfg
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let mut system = SystemConfig::miniature();
        system.train_frames = 30;
        system.vit.dim = 24;
        system.vit.enc_depth = 1;
        system.roi_net.hidden = 32;
        // Train once; both runtimes (miniature and paper-scale timing) share
        // the same networks.
        let train_seq = bliss_eye::render_sequence(&bliss_eye::SequenceConfig {
            width: system.width,
            height: system.height,
            frames: system.train_frames,
            fps: system.fps as f32,
            seed: system.seed,
        });
        let mut trainer =
            bliss_track::JointTrainer::new(system.train_config()).expect("trainer builds");
        trainer.train_on(&train_seq).expect("training succeeds");
        let rt =
            ServeRuntime::with_networks(system, trainer.vit().clone(), trainer.roi_net().clone());
        let paper_rt =
            ServeRuntime::with_networks(system, trainer.vit().clone(), trainer.roi_net().clone())
                .with_paper_scale_timing();

        let fleet_cfg = load(3, 5);
        let fleet = rt.serve(&fleet_cfg).unwrap();
        let fleet_sessions = rt.session_configs(&fleet_cfg);
        let solos = fleet_sessions
            .iter()
            .map(|sc| rt.serve_sessions(&fleet_cfg, vec![*sc]).unwrap())
            .collect();

        let threaded_cfg = load(4, 4);
        let threaded = [1usize, 2, 8]
            .iter()
            .map(|&t| bliss_parallel::with_thread_count(t, || rt.serve(&threaded_cfg).unwrap()))
            .collect();

        let repeat_cfg = load(2, 4);
        let repeat = (
            rt.serve(&repeat_cfg).unwrap(),
            rt.serve(&repeat_cfg).unwrap(),
        );

        let five = rt.serve(&load(5, 4)).unwrap();
        let mut capped_cfg = load(6, 4);
        capped_cfg.max_batch = 3;
        let capped = rt.serve(&capped_cfg).unwrap();

        let mut light_cfg = ServeConfig::new(4, 12);
        light_cfg.max_batch = 16;
        let paper_light = paper_rt.serve(&light_cfg).unwrap();
        let mut heavy_cfg = ServeConfig::new(24, 6);
        heavy_cfg.max_batch = 16;
        let paper_heavy_batched = paper_rt.serve(&heavy_cfg).unwrap();
        heavy_cfg.max_batch = 1;
        let paper_heavy_sequential = paper_rt.serve(&heavy_cfg).unwrap();

        // Simultaneous connects: a reconnect storm the admission ramp cannot
        // spread out.
        let mut storm_cfg = load(8, 3);
        storm_cfg.stagger_s = 0.0;
        storm_cfg.max_batch = 16;
        storm_cfg.max_cold_per_batch = 1;
        let cold_capped = rt.serve(&storm_cfg).unwrap();
        storm_cfg.max_cold_per_batch = usize::MAX;
        let cold_uncapped = rt.serve(&storm_cfg).unwrap();

        Fixture {
            fleet_cfg,
            fleet,
            fleet_sessions,
            solos,
            threaded,
            repeat,
            five,
            capped,
            paper_light,
            paper_heavy_batched,
            paper_heavy_sequential,
            cold_capped,
            cold_uncapped,
        }
    })
}

#[test]
fn cold_start_cap_breaks_connect_convoys_without_changing_outputs() {
    let fx = fixture();
    // Uncapped, 8 simultaneous connects fuse all 8 full-frame cold starts
    // into one convoy batch.
    for trace in &fx.cold_uncapped.traces {
        assert_eq!(trace.records[0].batch_size, 8, "expected a cold convoy");
    }
    // Capped at 1, every cold-start read launches in its own batch (a batch
    // may still contain warm frames, but never a second cold one).
    let mut completions: Vec<f64> = Vec::new();
    for trace in &fx.cold_capped.traces {
        assert_eq!(
            trace.records[0].batch_size, 1,
            "cold start must not share a batch under cap 1"
        );
        completions.push(trace.records[0].completion_s);
    }
    completions.sort_by(|a, b| a.total_cmp(b));
    for pair in completions.windows(2) {
        assert!(pair[0] < pair[1], "cold launches must serialise");
    }
    // Scheduling changes timing only: accuracy, volume and energy stay
    // bit-identical per session.
    for (capped, uncapped) in fx.cold_capped.traces.iter().zip(&fx.cold_uncapped.traces) {
        for (rc, ru) in capped.records.iter().zip(&uncapped.records) {
            assert_eq!(rc.gaze_prediction, ru.gaze_prediction);
            assert_eq!(rc.sampled_pixels, ru.sampled_pixels);
            assert_eq!(rc.tokens, ru.tokens);
            assert_eq!(rc.mipi_bytes, ru.mipi_bytes);
            assert!((rc.energy_j - ru.energy_j).abs() == 0.0);
        }
    }
}

#[test]
fn fleet_outputs_are_bit_identical_to_solo_runs() {
    let fx = fixture();
    assert_eq!(fx.fleet.traces.len(), 3);
    // The fleet actually exercised cross-session batching somewhere.
    let batched_frames = fx
        .fleet
        .traces
        .iter()
        .flat_map(|t| &t.records)
        .filter(|r| r.batch_size > 1)
        .count();
    assert!(batched_frames > 0, "no frame was ever batched");

    for (sc, solo) in fx.fleet_sessions.iter().zip(&fx.solos) {
        let solo_trace = &solo.traces[0];
        let fleet_trace = &fx.fleet.traces[sc.id];
        assert_eq!(fleet_trace.config, solo_trace.config);
        assert_eq!(fleet_trace.records.len(), solo_trace.records.len());
        for (f, s) in fleet_trace.records.iter().zip(&solo_trace.records) {
            // Accuracy, pixel volume and energy must not depend on who else
            // shared the batch — bit-for-bit.
            assert_eq!(f.index, s.index);
            assert_eq!(f.gaze_prediction, s.gaze_prediction, "session {}", sc.id);
            assert_eq!(f.horizontal_error_deg, s.horizontal_error_deg);
            assert_eq!(f.vertical_error_deg, s.vertical_error_deg);
            assert_eq!(f.sampled_pixels, s.sampled_pixels);
            assert_eq!(f.tokens, s.tokens);
            assert_eq!(f.mipi_bytes, s.mipi_bytes);
            assert_eq!(f.energy_j, s.energy_j);
            assert_eq!(f.arrival_s, s.arrival_s);
        }
    }
}

#[test]
fn full_runs_are_bit_identical_across_thread_counts() {
    let fx = fixture();
    let serial = &fx.threaded[0];
    for (i, threads) in [2usize, 8].iter().enumerate() {
        let parallel = &fx.threaded[i + 1];
        // Full equality: traces including virtual-time latencies, batch
        // sizes and the aggregate report.
        assert_eq!(serial.traces, parallel.traces, "t={threads}");
        assert_eq!(serial.report, parallel.report, "t={threads}");
    }
}

#[test]
fn repeated_runs_are_reproducible() {
    let fx = fixture();
    assert_eq!(fx.repeat.0.traces, fx.repeat.1.traces);
}

#[test]
fn report_is_sane_and_serialises() {
    use serde::Serialize as _;
    let fx = fixture();
    let r = &fx.five.report;
    assert_eq!(r.sessions, 5);
    assert_eq!(r.frames_total, 20);
    assert!(r.latency.p50_ms <= r.latency.p95_ms);
    assert!(r.latency.p95_ms <= r.latency.p99_ms);
    assert!(r.latency.p99_ms <= r.latency.max_ms);
    // Latency can never beat the analytic sensor-side floor (the exposure
    // alone is 8.3 ms at 120 FPS).
    assert!(r.latency.p50_ms > 8.0, "p50 {} ms", r.latency.p50_ms);
    assert!((0.0..=1.0).contains(&r.deadline_miss_rate));
    assert!(r.throughput_fps > 0.0);
    assert!(r.mean_batch_size >= 1.0 && r.mean_batch_size <= 4.0);
    assert!(r.mean_energy_uj > 0.0);
    assert_eq!(r.per_session.len(), 5);
    // All five scenarios appear once in a 5-session fleet.
    let mut labels: Vec<&str> = r.per_session.iter().map(|s| s.scenario.as_str()).collect();
    labels.sort_unstable();
    assert_eq!(
        labels,
        [
            "blink-storm",
            "fixation-drift",
            "mixed",
            "saccade-heavy",
            "smooth-pursuit"
        ]
    );
    let json = r.to_json();
    for key in [
        "\"p99_ms\":",
        "\"throughput_fps\":",
        "\"deadline_miss_rate\":",
        "\"mean_batch_size\":",
        "\"per_session\":[{",
        "\"scenario\":\"saccade-heavy\"",
    ] {
        assert!(json.contains(key), "missing {key} in {json}");
    }
    let _ = &fx.fleet_cfg;
}

#[test]
fn paper_scale_host_saturates_under_load_and_batching_helps() {
    let fx = fixture();
    let light = &fx.paper_light.report;
    let heavy = &fx.paper_heavy_batched.report;
    let heavy_seq = &fx.paper_heavy_sequential.report;
    // Queueing degrades service monotonically with load: the 24-session
    // fleet (2 880 f/s demand against a millisecond-class segmenter) sits
    // deeper into saturation than the 4-session one. Absolute miss rates
    // depend on how tightly the smoke-trained ROI net boxes the eye, so the
    // assertions stay relative.
    assert!(
        heavy.deadline_miss_rate >= light.deadline_miss_rate,
        "heavy {} vs light {}",
        heavy.deadline_miss_rate,
        light.deadline_miss_rate
    );
    assert!(
        heavy.latency.p50_ms > light.latency.p50_ms,
        "heavy p50 {} vs light {}",
        heavy.latency.p50_ms,
        light.latency.p50_ms
    );
    // Under saturation the scheduler actually fuses launches, and fusing
    // never loses throughput. How much it *wins* depends on the
    // GEMM-vs-attention balance of the served frames (the smoke model's
    // loose ROI boxes are attention-heavy); the GEMM-bound amortisation
    // claim itself is pinned by `blisscam_core`'s
    // `batched_segmentation_amortises_launch_overheads` at steady-state
    // token counts.
    assert!(heavy.mean_batch_size > 2.0, "batching never engaged");
    assert!(
        heavy.throughput_fps >= 0.98 * heavy_seq.throughput_fps,
        "batched {} f/s vs sequential {} f/s",
        heavy.throughput_fps,
        heavy_seq.throughput_fps
    );
}

#[test]
fn batch_sizes_respect_the_cap_and_schedule_is_causal() {
    let fx = fixture();
    for trace in &fx.capped.traces {
        let mut prev_completion = f64::NEG_INFINITY;
        for r in &trace.records {
            assert!(r.batch_size >= 1 && r.batch_size <= 3);
            assert!(r.completion_s > r.arrival_s, "causality violated");
            assert!(
                r.completion_s > prev_completion,
                "per-session completions must be monotonic"
            );
            prev_completion = r.completion_s;
        }
    }
}

/// A stagger-0 cold storm's batch composition, step by step.
///
/// The identity suites compare runs of the same scheduler with itself, so
/// only a pinned schedule notices when tie order drifts: four sessions
/// connect in the same instant, their cold starts all ready at the same
/// virtual time, and the cold-start cap decides which of them share a
/// launch. Before each step, `next_launch_start_s` must name the instant
/// that step then launches at.
#[test]
fn cold_storm_batch_composition_is_pinned() {
    use bliss_serve::StepOptions;
    use bliss_track::{RoiPredictionNet, SparseViT};
    use rand::{rngs::StdRng, SeedableRng};

    let mut system = SystemConfig::miniature();
    system.vit.dim = 12;
    system.vit.enc_depth = 1;
    system.vit.dec_depth = 1;
    system.roi_net.hidden = 16;
    let mut rng = StdRng::seed_from_u64(0x0057_074D);
    let rt = ServeRuntime::with_networks(
        system,
        SparseViT::new(&mut rng, system.vit),
        RoiPredictionNet::new(&mut rng, system.roi_net),
    );
    // Served session slots, step by step.
    let schedules = [
        (
            1,
            "[[0], [1], [2], [3], [0, 1, 2], [3], [0, 1, 2], [3], [0, 1, 2], [3]]",
        ),
        (
            2,
            "[[0, 1], [2, 3], [0, 1, 2], [3], [0, 1, 2], [3], [0, 1, 2], [3]]",
        ),
    ];
    for (cap, schedule) in schedules {
        let mut cfg = load(4, 4);
        cfg.stagger_s = 0.0;
        cfg.max_batch = 3;
        cfg.max_cold_per_batch = cap;
        let mut state = rt.start(&cfg);
        let mut got: Vec<Vec<usize>> = Vec::new();
        while let Some(start) = rt.next_launch_start_s(&state) {
            let before = state.progress();
            let step = rt
                .step_batch_with(&cfg, &mut state, &StepOptions::default())
                .expect("step succeeds")
                .expect("a frame was waiting");
            assert_eq!(
                start.to_bits(),
                step.host_start_s.to_bits(),
                "cap {cap}, step {}: predicted launch {start} s, launched {} s",
                got.len(),
                step.host_start_s
            );
            let served: Vec<usize> = state
                .progress()
                .iter()
                .zip(&before)
                .enumerate()
                .filter(|(_, (now, was))| now.frames_served > was.frames_served)
                .map(|(slot, _)| slot)
                .collect();
            assert_eq!(served.len(), step.served);
            got.push(served);
        }
        assert_eq!(
            format!("{got:?}"),
            schedule,
            "cap {cap}: batch composition drifted"
        );
    }
}
