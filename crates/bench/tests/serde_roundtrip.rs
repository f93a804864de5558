//! Workspace-wide serde coverage: **every type that derives `Serialize`
//! also round-trips through the JSON layer** — value → `to_json` →
//! `from_json` → equality.
//!
//! The shim's own proptest suite (`shims/serde/tests/roundtrip.rs`) proves
//! the derive surface is sound on arbitrary values; this suite walks the
//! actual workspace types, with values produced by the real pipelines
//! (serve runs, snapshots, soak reports) where state is opaque and by
//! literals/proptest where fields are public. Keeping this exhaustive is
//! what lets any report or snapshot in the workspace be persisted and
//! reloaded without a lossy corner.
//!
//! Documented exceptions — `Serialize`-only by design, checked separately
//! below: the three const-table entry types in `bliss_energy::trends`
//! (`GpuEntry`, `AlgorithmEntry`, `SensorSurveyEntry`) hold `&'static str`
//! names and exist only to be dumped into figure JSON, and the three
//! Chrome-trace export types in `bliss_telemetry::export` (`TraceEvent`,
//! `TraceArgs`, `ChromeTrace`) likewise hold `&'static str` stage labels
//! and target the Perfetto loader, not our own reader.

use bliss_bench::soak::{run_soak, SoakConfig};
use bliss_eye::{
    EyeClass, EyeModelConfig, Gaze, GazeState, MovementPhase, NoiseConfig, Scenario,
    SequenceConfig, TrajectoryConfig,
};
use bliss_fleet::{
    ChaosConfig, DegradationPolicy, FaultMix, FaultPlan, FleetConfig, FleetRuntime, FleetSnapshot,
    PlacementPolicy,
};
use bliss_npu::{GemmShape, RunReport, SystolicArray, WorkloadDesc};
use bliss_sensor::{
    CalibrationLut, EventMap, ReadoutResult, RoiBox, SensorConfig, SensorSnapshot, SnapshotFrame,
    SramRngConfig,
};
use bliss_serve::{ServeConfig, ServeRuntime};
use bliss_timing::{simulate, PipelineConfig, StageDurations, StageKind, StageSpan};
use bliss_track::{
    AngularErrorStats, EstimatorSnapshot, EvalResult, RoiPredictionNet, SamplingStrategy,
    SparseViT, TrainConfig,
};
use blisscam_core::experiments::{
    AccuracyPoint, AccuracySeries, EnergyRow, ExperimentScale, Fig12Result, Fig15Result, Fig16Row,
    Fig17Row, LatencyRow, Tab1Row,
};
use blisscam_core::{EnergyBreakdown, FrameCounts, SystemConfig, SystemVariant};
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Asserts `v` survives value → JSON → value unchanged.
fn rt<T>(v: &T)
where
    T: Serialize + for<'de> Deserialize<'de> + PartialEq + std::fmt::Debug,
{
    let json = v.to_json();
    let back = T::from_json(&json).unwrap_or_else(|e| {
        panic!(
            "{} failed to parse back: {e}\n{json}",
            std::any::type_name::<T>()
        )
    });
    assert_eq!(
        &back,
        v,
        "{} JSON round-trip is lossy",
        std::any::type_name::<T>()
    );
}

/// The tiny untrained runtime the snapshot/outcome tests serve on (restore
/// identity does not depend on trained weights, and serde certainly
/// doesn't).
fn tiny_runtime() -> (SystemConfig, ServeRuntime) {
    let mut system = SystemConfig::miniature();
    system.vit.dim = 12;
    system.vit.enc_depth = 1;
    system.vit.dec_depth = 1;
    system.roi_net.hidden = 16;
    let mut rng = StdRng::seed_from_u64(0x5EDE);
    let rt = ServeRuntime::with_networks(
        system,
        SparseViT::new(&mut rng, system.vit),
        RoiPredictionNet::new(&mut rng, system.roi_net),
    );
    (system, rt)
}

#[test]
fn config_types_round_trip() {
    let system = SystemConfig::miniature();
    rt(&system);
    rt(&SystemConfig::paper());
    rt(&system.vit);
    rt(&system.roi_net);
    rt(&system.cnn);
    rt(&system.energy);
    rt(&system.energy.mipi);
    rt(&system.energy.dram);
    rt(&system.energy.readout);
    rt(&system.analog_node);
    let train: TrainConfig = system.train_config();
    rt(&train);
    rt(&ExperimentScale::quick());
    rt(&SequenceConfig {
        width: 64,
        height: 48,
        frames: 7,
        fps: 120.0,
        seed: 3,
    });
    rt(&TrajectoryConfig::default());
    rt(&EyeModelConfig::paper());
    rt(&NoiseConfig::default());
    rt(&SensorConfig::paper());
    rt(&SramRngConfig::default());
    rt(&ServeConfig::new(3, 8));
    rt(&FleetConfig::new(2, PlacementPolicy::LeastLoaded, 6, 4));
    rt(&SoakConfig::smoke());
    rt(&SoakConfig::standard());
    rt(&PipelineConfig::conventional(
        120.0,
        StageDurations::paper_npu_full(),
    ));
    rt(&StageDurations::paper_blisscam());
}

#[test]
fn enum_types_round_trip_every_variant() {
    for s in [
        Scenario::SaccadeHeavy,
        Scenario::SmoothPursuit,
        Scenario::FixationDrift,
        Scenario::BlinkStorm,
        Scenario::Mixed,
    ] {
        rt(&s);
    }
    for p in [
        MovementPhase::Fixation,
        MovementPhase::Saccade,
        MovementPhase::SmoothPursuit,
        MovementPhase::Blink,
    ] {
        rt(&p);
    }
    for c in [
        EyeClass::Skin,
        EyeClass::Sclera,
        EyeClass::Iris,
        EyeClass::Pupil,
    ] {
        rt(&c);
    }
    for k in [
        StageKind::Exposure,
        StageKind::Eventification,
        StageKind::RoiPrediction,
        StageKind::Sampling,
        StageKind::Readout,
        StageKind::Mipi,
        StageKind::Segmentation,
        StageKind::GazePrediction,
        StageKind::Feedback,
    ] {
        rt(&k);
    }
    for r in [
        bliss_energy::Resolution::R720p,
        bliss_energy::Resolution::R1080p,
        bliss_energy::Resolution::R2k,
        bliss_energy::Resolution::R4k,
    ] {
        rt(&r);
    }
    for v in [
        SystemVariant::NpuFull,
        SystemVariant::NpuRoi,
        SystemVariant::SNpu,
        SystemVariant::BlissCam,
    ] {
        rt(&v);
    }
    for p in PlacementPolicy::ALL {
        rt(&p);
    }
    for s in [
        SamplingStrategy::RoiRandom { rate: 0.3 },
        SamplingStrategy::FullRandom { rate: 0.1 },
        SamplingStrategy::FullDownsample { stride: 4 },
        SamplingStrategy::RoiDownsample { stride: 2 },
        SamplingStrategy::RoiFixed { rate: 0.25 },
        SamplingStrategy::RoiLearned { rate: 0.3 },
        SamplingStrategy::Skip {
            density_threshold: 0.05,
        },
    ] {
        rt(&s);
    }
}

#[test]
fn serve_and_fleet_values_round_trip() {
    bliss_parallel::with_thread_count(1, || {
        let (_, runtime) = tiny_runtime();
        let mut cfg = ServeConfig::new(3, 4);
        cfg.max_batch = 4;
        let outcome = runtime.serve(&cfg).expect("serve succeeds");
        rt(&outcome.report);
        rt(&outcome.report.latency);
        rt(&outcome.report.steady);
        for s in &outcome.report.per_session {
            rt(s);
        }
        for t in &outcome.traces {
            rt(t);
            rt(&t.config);
            for r in &t.records {
                rt(r);
            }
        }

        // Snapshots: the wire format restore identity rides on.
        let mut state = runtime.start(&cfg);
        assert!(runtime.step_batch(&cfg, &mut state).expect("step succeeds"));
        let snap = runtime.snapshot(&cfg, &state);
        rt(&snap);
        rt(&snap.model);
        rt(&snap.shard);
        for s in &snap.shard.sessions {
            rt(s);
            rt(&s.front);
            rt(&s.front.sensor);
            for f in &s.front.sensor.frames {
                rt(f);
            }
            if let Some(est) = &s.front.estimator {
                rt(est);
            }
        }
        for p in snap.model.vit_params.iter().chain(&snap.model.roi_params) {
            rt(p);
        }

        let (fsystem, _) = tiny_runtime();
        let mut rng = StdRng::seed_from_u64(0x5EDE);
        let fleet = FleetRuntime::with_networks(
            fsystem,
            SparseViT::new(&mut rng, fsystem.vit),
            RoiPredictionNet::new(&mut rng, fsystem.roi_net),
        );
        let fcfg = FleetConfig::new(2, PlacementPolicy::RoundRobin, 4, 3);
        let foutcome = fleet.serve(&fcfg).expect("fleet serve succeeds");
        rt(&foutcome.report);
        for h in &foutcome.report.per_host {
            rt(h);
        }
        for e in &foutcome.timeline {
            rt(e);
        }
        let mut fstate = fleet.start(&fcfg);
        assert!(fleet.step(&mut fstate).expect("fleet step succeeds"));
        let fsnap: FleetSnapshot = fleet.snapshot(&fcfg, &fstate);
        rt(&fsnap);
    });
}

#[test]
fn chaos_values_round_trip() {
    // Plan/config literals with every fault variant.
    let mix = FaultMix {
        crashes: 2,
        slow_hosts: 1,
        timeouts: 3,
        corrupt_checkpoints: 1,
    };
    rt(&mix);
    let plan = FaultPlan::generate(0xC4A05, 3, 0.25, &mix);
    rt(&plan);
    for e in &plan.events {
        rt(e);
        rt(&e.kind);
    }
    rt(&FaultPlan::quiet());
    let mut chaos = ChaosConfig::new(plan);
    chaos.degradation = Some(DegradationPolicy::default());
    rt(&chaos);
    rt(&DegradationPolicy::default());

    // A real chaos run's report, so the serialised values come from the
    // actual engine (fault log, survival curve, recovery latencies).
    bliss_parallel::with_thread_count(1, || {
        let (fsystem, _) = tiny_runtime();
        let mut rng = StdRng::seed_from_u64(0x5EDE);
        let fleet = FleetRuntime::with_networks(
            fsystem,
            SparseViT::new(&mut rng, fsystem.vit),
            RoiPredictionNet::new(&mut rng, fsystem.roi_net),
        );
        let fcfg = FleetConfig::new(2, PlacementPolicy::RoundRobin, 4, 3);
        let baseline = fleet.serve(&fcfg).expect("baseline serves");
        let horizon = baseline.timeline.last().expect("nonempty").time_s;
        let run = fleet
            .serve_chaos(
                &fcfg,
                &ChaosConfig::new(FaultPlan::generate(
                    0xA1,
                    fcfg.hosts,
                    horizon,
                    &FaultMix::default(),
                )),
            )
            .expect("chaos serves");
        rt(&run.chaos);
        rt(&run.chaos.faults);
        for p in &run.chaos.survival {
            rt(p);
        }
        for f in &run.log {
            rt(f);
        }
        rt(&run.outcome.report);
    });
}

#[test]
fn soak_values_round_trip() {
    bliss_parallel::with_thread_count(1, || {
        let (_, runtime) = tiny_runtime();
        let cfg = SoakConfig {
            sessions: 2,
            frames_per_session: 6,
            epochs: 2,
            seed: 0x5EDE,
        };
        let report = run_soak(&runtime, &cfg).expect("soak succeeds");
        rt(&report);
        rt(&report.latency);
        for e in &report.per_epoch {
            rt(e);
        }
    });
}

#[test]
fn hardware_model_values_round_trip() {
    rt(&GemmShape::new(64, 128, 256));
    rt(&GemmShape::activation(8, 8, 8));
    let mut w = WorkloadDesc::new("vit-tiny");
    w.push_conv(16, 8, 3, 10, 10)
        .push_transformer_block(49, 96, 3)
        .push_linear(1, 96, 4);
    rt(&w);
    let array = SystolicArray {
        rows: 16,
        cols: 16,
        frequency_hz: 8e8,
        buffer_bytes: 1 << 20,
        bank_bytes: 1 << 14,
        node: bliss_energy::ProcessNode::NM16,
        dispatch_cycles: 1000,
        precision: bliss_npu::Precision::Int8,
    };
    rt(&array);
    let report: RunReport = array.run(&w, &bliss_energy::EnergyParams::default(), true);
    rt(&report);
    rt(&bliss_energy::AreaModel::default());

    let pipeline = PipelineConfig::conventional(120.0, StageDurations::paper_npu_full());
    let timing = simulate(&pipeline, 5);
    rt(&timing);
    for f in &timing.frames {
        rt(f);
        for s in &f.spans {
            rt(s);
        }
    }
    rt(&StageSpan {
        kind: StageKind::Feedback,
        start_s: 0.25,
        end_s: 0.375,
    });
}

#[test]
fn sensor_and_track_values_round_trip() {
    rt(&RoiBox::new(3, 4, 40, 30));
    rt(&EventMap::new(
        4,
        2,
        vec![true, false, true, true, false, false, true, false],
    ));
    rt(&ReadoutResult {
        roi: RoiBox::new(0, 0, 8, 8),
        theta: 9,
        stream: vec![0, 0, 511, 3, 0, 1023],
        conversions: 17,
        sampled: 4,
    });
    rt(&SensorSnapshot {
        frames: vec![
            SnapshotFrame::encode(&[0.5, 0.25, 0.0]),
            SnapshotFrame::encode(&[1.0, 512.0 / 1023.0, 0.0, 3.0 / 1023.0]),
        ],
        held: Some(0),
        current: Some(1),
        sram_rng: [1, 2, 3, 4],
        readouts: 99,
    });
    rt(&CalibrationLut {
        achieved_rate: vec![1.0, 0.93, 0.5, 0.07, 0.0],
    });
    rt(&EstimatorSnapshot {
        last: Gaze {
            horizontal_deg: -3.25,
            vertical_deg: 1.5,
        },
        typical_count: 84.5,
    });
    rt(&GazeState {
        gaze: Gaze {
            horizontal_deg: 12.0,
            vertical_deg: -7.0,
        },
        openness: 0.875,
        pupil_dilation: 0.5,
        phase: MovementPhase::SmoothPursuit,
    });
    let stats = AngularErrorStats {
        mean: 0.51,
        std: 0.125,
    };
    rt(&stats);
    rt(&EvalResult {
        horizontal: stats,
        vertical: stats,
        seg_accuracy: 0.96875,
        mean_compression: 11.5,
        mean_tokens: 40.25,
        frames: 24,
    });
}

#[test]
fn experiment_row_values_round_trip() {
    let stats = AngularErrorStats {
        mean: 1.5,
        std: 0.25,
    };
    let point = AccuracyPoint {
        compression: 10.0,
        horizontal: stats,
        vertical: stats,
        seg_accuracy: 0.9375,
    };
    rt(&point);
    let series = AccuracySeries {
        label: "BlissCam".into(),
        points: vec![point, point],
    };
    rt(&series);
    rt(&Fig12Result {
        series: vec![series.clone()],
        mac_reduction_vs_ritnet: 96.5,
    });
    rt(&Fig15Result {
        series: vec![series],
    });

    let breakdown = EnergyBreakdown {
        analog_readout_j: 1e-6,
        eventification_j: 2e-7,
        analog_hold_j: 3e-8,
        frame_buffer_leak_j: 0.0,
        roi_prediction_j: 4e-7,
        sampling_rng_j: 5e-9,
        rle_j: 6e-9,
        mipi_j: 7e-7,
        feedback_j: 8e-9,
        host_compute_j: 9e-6,
        dram_j: 1e-7,
        rld_j: 2e-9,
    };
    rt(&breakdown);
    rt(&FrameCounts {
        conversions: 2048,
        sampled: 1024,
        mipi_payload_bytes: 4096,
        tokens: 40,
        roi_pixels: 1600,
    });
    rt(&EnergyRow {
        variant: "BlissCam".into(),
        breakdown,
        ratio_vs_blisscam: 1.0,
    });
    rt(&LatencyRow {
        variant: "NPU-Full".into(),
        latency_s: 0.0125,
        achieved_fps: 80.0,
        stages: vec![("exposure".into(), 0.008), ("readout".into(), 0.002)],
    });
    rt(&Fig16Row {
        fps: 120.0,
        horizontal_error_deg: 0.5,
        energy_saving: 0.75,
    });
    rt(&Fig17Row {
        soc_nm: 7,
        logic_nm: 22,
        energy_saving: 0.625,
    });
    rt(&Tab1Row {
        reuse_window: 4,
        vertical: stats,
        energy_saving_fraction: 0.25,
    });
}

#[test]
fn telemetry_values_round_trip() {
    for s in bliss_telemetry::Stage::ALL {
        rt(&s);
    }
    let span = bliss_telemetry::SpanRecord {
        stage: bliss_telemetry::Stage::Inference,
        scenario: 3,
        host: 2,
        session: 17,
        frame: 401,
        batch: 4,
        virt_start_s: 1.25,
        virt_dur_s: 0.0009765625,
        wall_start_ns: 123_456_789,
        wall_dur_ns: 42_000,
    };
    rt(&span);
    for s in bliss_telemetry::export::stage_breakdown(&[span, bliss_telemetry::SpanRecord::ZERO]) {
        rt(&s);
    }
}

#[test]
fn trace_export_types_are_serialize_only_by_design() {
    // `TraceEvent`/`TraceArgs`/`ChromeTrace` carry `&'static str` stage
    // labels and exist to feed Perfetto, which owns the reader side; pin
    // that the export still emits valid JSON with the exact envelope the
    // trace-event format wants.
    let spans = [
        bliss_telemetry::SpanRecord::ZERO,
        bliss_telemetry::SpanRecord {
            stage: bliss_telemetry::Stage::Feedback,
            frame: 7,
            ..bliss_telemetry::SpanRecord::ZERO
        },
    ];
    let json = bliss_telemetry::export::chrome_trace_json(&spans);
    let value = serde::JsonValue::parse(&json).expect("Chrome trace serialises to valid JSON");
    let events = value
        .field("traceEvents")
        .and_then(|v| v.expect_array())
        .expect("trace envelope has a traceEvents array");
    assert_eq!(events.len(), spans.len());
}

#[test]
fn trend_tables_are_serialize_only_by_design() {
    // The three const-table entry types hold `&'static str` names, which
    // cannot deserialize into a borrowed 'static string — they are one-way
    // figure-dump types. Pin that they still serialize to *valid* JSON so
    // the exception stays an exception, not a blind spot.
    for e in bliss_energy::trends::JETSON_GPUS {
        serde::JsonValue::parse(&e.to_json()).expect("GpuEntry serialises to valid JSON");
    }
    for e in bliss_energy::trends::EYE_TRACKING_ALGORITHMS {
        serde::JsonValue::parse(&e.to_json()).expect("AlgorithmEntry serialises to valid JSON");
    }
    for e in bliss_energy::trends::READOUT_POWER_SURVEY {
        serde::JsonValue::parse(&e.to_json()).expect("SensorSurveyEntry serialises to valid JSON");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Leaf record types with public numeric fields get arbitrary values, so
    // coverage is not limited to the magnitudes the pipelines happen to
    // produce.

    #[test]
    fn arbitrary_frame_records_round_trip(
        ints in (0usize..=usize::MAX, 0u64..=u64::MAX, 0usize..1 << 20, 0u64..=u64::MAX),
        times in (-1e6f64..1e6, -1e6f64..1e6, 0f64..1e3, 0f64..1e9),
        gaze in (-90f32..90.0, -90f32..90.0, -90f32..90.0, -90f32..90.0),
        flags in (0u8..2, 1usize..64, 0f32..10.0, 0f32..10.0),
    ) {
        let r = bliss_serve::FrameRecord {
            index: ints.0,
            arrival_s: times.0,
            completion_s: times.1,
            latency_s: times.2,
            deadline_missed: flags.0 == 1,
            batch_size: flags.1,
            gaze_prediction: Gaze { horizontal_deg: gaze.0, vertical_deg: gaze.1 },
            gaze_truth: Gaze { horizontal_deg: gaze.2, vertical_deg: gaze.3 },
            horizontal_error_deg: flags.2,
            vertical_error_deg: flags.3,
            sampled_pixels: ints.2,
            roi_pixels: ints.1,
            tokens: ints.2,
            mipi_bytes: ints.3,
            energy_j: times.3,
            shed: flags.0 == 0,
        };
        let back = bliss_serve::FrameRecord::from_json(&r.to_json()).unwrap();
        prop_assert_eq!(back, r);
    }

    #[test]
    fn arbitrary_gemm_shapes_round_trip(
        m in 0usize..=usize::MAX, k in 0usize..=usize::MAX,
        n in 0usize..=usize::MAX, w in 0u8..2,
    ) {
        let g = GemmShape { m, k, n, has_weights: w == 1 };
        prop_assert_eq!(GemmShape::from_json(&g.to_json()).unwrap(), g);
    }

    #[test]
    fn arbitrary_param_snapshots_round_trip(
        shape in prop::collection::vec(0usize..64, 0..4),
        bits in prop::collection::vec(0u32..=u32::MAX, 0..24),
    ) {
        let data: Vec<f32> = bits
            .into_iter()
            .map(f32::from_bits)
            .filter(|x| x.is_finite())
            .collect();
        let p = bliss_nn::ParamSnapshot { shape, data };
        let back = bliss_nn::ParamSnapshot::from_json(&p.to_json()).unwrap();
        prop_assert_eq!(back.shape, p.shape);
        // Bit-level equality: weight restores must be exact, so the wire
        // format may not round floats.
        let a: Vec<u32> = back.data.iter().map(|x| x.to_bits()).collect();
        let b: Vec<u32> = p.data.iter().map(|x| x.to_bits()).collect();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn arbitrary_latency_stats_round_trip(
        p50 in 0f64..1e6, p95 in 0f64..1e6, p99 in 0f64..1e6, max in 0f64..1e6,
    ) {
        let l = bliss_serve::LatencyStats { p50_ms: p50, p95_ms: p95, p99_ms: p99, max_ms: max };
        prop_assert_eq!(bliss_serve::LatencyStats::from_json(&l.to_json()).unwrap(), l);
    }
}
