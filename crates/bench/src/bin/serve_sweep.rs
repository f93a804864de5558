//! Load sweep of the `bliss_serve` multi-session streaming runtime.
//!
//! Trains one BlissCam model, then serves fleets of 1 → 64 concurrent
//! scenario-diverse sessions twice per load point — once with cross-session
//! **batched** inference (`max_batch = 16`) and once **sequential**
//! (`max_batch = 1`) — recording p50/p95/p99 virtual-time frame latency,
//! deadline-miss rate, throughput, mean batch size and the wall-clock time
//! of the whole run (the batching win on real hardware).
//!
//! Results go to `BENCH_serve.json` at the workspace root (or inside the
//! `BLISS_BENCH_OUT` directory); the file is not committed, and the
//! `serve-smoke` CI job uploads it on every push. `--quick` runs a reduced
//! sweep for CI. `--precision <f32|int8|both>` picks what the load points
//! run at, and `--quant-gate` makes the precision Pareto block a hard gate
//! (the `quant-smoke` CI job).
//!
//! The whole sweep runs with `bliss_telemetry` tracing **on** (after an
//! off/on bit-identity probe): the report gains a per-stage breakdown and
//! the shared ViT's plan-cache counters, and the recorded spans are
//! exported as Perfetto-loadable Chrome trace JSON to `TRACE_serve.json`
//! (validated by re-parsing before it is written).

use bliss_bench::Flag;
use bliss_serve::{Precision, ServeConfig, ServeOutcome, ServeReport, ServeRuntime};
use bliss_telemetry::export::StageSummary;
use blisscam_core::{SparseFrontEnd, SystemConfig};
use serde::Serialize;
use std::time::Instant;

/// Per-scenario ceiling on `mean_gaze_error(int8) - mean_gaze_error(f32)`
/// enforced under `--quant-gate` — the same bound the serve crate's
/// `quant_identity` differential suite pins.
const GAZE_TOLERANCE_DEG: f64 = 0.15;

/// One load point: the same fleet served batched and sequentially.
#[derive(Serialize)]
struct SweepPoint {
    sessions: usize,
    batched: ServeReport,
    sequential: ServeReport,
    batched_wall_ms: f64,
    sequential_wall_ms: f64,
    /// Wall-clock speedup of batched over sequential serving.
    wall_speedup: f64,
    /// Virtual-time p95 latency ratio, sequential / batched.
    virtual_p95_ratio: f64,
}

/// One precision's corner of the accuracy/energy/throughput Pareto front,
/// measured over the same scenario-diverse load point.
#[derive(Serialize)]
struct PrecisionPareto {
    precision: String,
    /// Mean angular gaze error across every served frame, degrees.
    mean_gaze_error_deg: f64,
    /// Mean modelled energy per frame, joules.
    energy_per_frame_j: f64,
    throughput_fps: f64,
    wall_ms: f64,
}

/// The f32↔int8 accuracy differential for one scenario.
#[derive(Serialize)]
struct ScenarioAccuracy {
    scenario: String,
    f32_gaze_error_deg: f64,
    int8_gaze_error_deg: f64,
    /// `int8 - f32`; gated at [`GAZE_TOLERANCE_DEG`] under `--quant-gate`.
    delta_deg: f64,
}

/// Plan-cache counters of the shared ViT cache that served the load points
/// (`ServeRuntime::vit_plan_stats`, the int8 cache under `--precision
/// int8`), read right after the load-point loop.
#[derive(Serialize)]
struct PlanStats {
    hits: u64,
    misses: u64,
    evictions: u64,
    plans: usize,
    /// Length of the arena the cached plans share: the largest plan's.
    arena_elems: usize,
}

#[derive(Serialize)]
struct SweepReport {
    mode: String,
    /// Precision the load sweep's points were served at.
    precision: String,
    frames_per_session: usize,
    max_batch: usize,
    /// Mean steady-state readout-box area over the renderer's ground-truth
    /// ROI area (cold-start full-frame reads excluded). 1.0 would be a
    /// perfectly tight predictor; the PR-3 era miniature predictor sat at
    /// ~2-3x, which kept per-frame attention dominant and the saturation
    /// knee at N≈2-4.
    roi_box_to_gt_area_ratio: f64,
    /// First swept session count whose batched deadline-miss rate reaches
    /// 50% (0 = never): the serving saturation knee.
    knee_sessions: usize,
    /// Per-stage span aggregates over the whole traced sweep (virtual and
    /// wall time), in pipeline order.
    stages: Vec<StageSummary>,
    /// Plan-cache traffic since the runtime was built (the f32 cache also
    /// counts the neutrality probe) and occupancy after the load points.
    vit_plans: PlanStats,
    /// Spans the fixed ring dropped (0 = the trace is complete).
    spans_dropped: u64,
    /// Quantised matmul sites in the shared ViT's int8 spec (0 when the
    /// int8 path never ran).
    int8_sites: usize,
    /// Whether `--quant-gate` gated this run (a written report means the
    /// gate passed).
    quant_gate: bool,
    /// Accuracy/energy/throughput corner per precision (empty under
    /// `--precision f32`).
    pareto: Vec<PrecisionPareto>,
    /// Per-scenario f32↔int8 gaze-error differential (empty under
    /// `--precision f32`).
    pareto_scenarios: Vec<ScenarioAccuracy>,
    points: Vec<SweepPoint>,
}

/// The flags this binary accepts.
const FLAGS: &[Flag] = &[Flag::Quick, Flag::Precision, Flag::QuantGate];

/// Mean per-frame angular gaze error over an outcome's traces, optionally
/// restricted to one scenario label.
fn mean_gaze_error_deg(outcome: &ServeOutcome, scenario: Option<&str>) -> f64 {
    let mut sum = 0f64;
    let mut n = 0usize;
    for t in &outcome.traces {
        if scenario.is_some_and(|s| t.config.scenario.label() != s) {
            continue;
        }
        for r in &t.records {
            let (h, v) = (r.horizontal_error_deg as f64, r.vertical_error_deg as f64);
            sum += (h * h + v * v).sqrt();
            n += 1;
        }
    }
    sum / n.max(1) as f64
}

/// Mean modelled energy per frame over an outcome's traces, joules.
fn mean_energy_j(outcome: &ServeOutcome) -> f64 {
    let mut sum = 0f64;
    let mut n = 0usize;
    for t in &outcome.traces {
        for r in &t.records {
            sum += r.energy_j;
            n += 1;
        }
    }
    sum / n.max(1) as f64
}

/// Serves one session solo and compares its steady-state readout-box areas
/// against the same stream's rendered ground-truth ROI areas.
fn roi_tightness(runtime: &ServeRuntime, frames: usize) -> f64 {
    let cfg = ServeConfig::new(1, frames);
    let outcome = runtime.serve(&cfg).expect("solo probe serve succeeds");
    let sc = runtime.session_configs(&cfg)[0];
    let (seq, _) = SparseFrontEnd::scenario_stream(runtime.system(), sc.scenario, sc.seed, frames);
    let (mut predicted, mut truth) = (0.0f64, 0.0f64);
    for r in &outcome.traces[0].records {
        if r.index == 0 {
            continue; // cold-start full-frame bootstrap read
        }
        predicted += r.roi_pixels as f64;
        truth += seq.frames[r.index + 1].roi.area() as f64;
    }
    if truth > 0.0 {
        predicted / truth
    } else {
        f64::NAN
    }
}

fn main() {
    // `flags` rejects any other `--precision` mode, and `--quant-gate`
    // with `--precision f32`.
    let flags = bliss_bench::flags(FLAGS);
    let (quick, quant_gate) = (flags.quick, flags.quant_gate);
    let precision_mode = flags.precision.unwrap_or_else(|| "both".to_string());
    let sweep_precision = if precision_mode == "int8" {
        Precision::Int8
    } else {
        Precision::F32
    };
    let (session_counts, frames): (&[usize], usize) = if quick {
        (&[1, 4, 16], 6)
    } else {
        (&[1, 2, 4, 8, 16, 32, 64], 24)
    };

    let mut system = SystemConfig::miniature();
    if quick {
        // The gate compares f32 and int8 tracking accuracy, so even the
        // quick profile needs a converged model: an undertrained tracker
        // turns quantisation noise into chaotic trajectory divergence far
        // above the tolerance (see the serve crate's quant_identity suite).
        system.train_frames = if quant_gate { 140 } else { 30 };
        system.vit.dim = 24;
        system.vit.enc_depth = 1;
        system.roi_net.hidden = 32;
    }
    eprintln!("training the shared BlissCam model ...");
    // Executable pipeline at miniature scale; latency accounting at the
    // paper's 640x400 / ViT-S / 7 nm host point, where ~1 ms segmentation
    // launches meet the 8.3 ms frame period and the sweep crosses the
    // saturation knee.
    let runtime = ServeRuntime::new(system)
        .expect("training succeeds")
        .with_paper_scale_timing();

    // Telemetry neutrality probe: the same load point served with tracing
    // off and on must produce bit-identical outcomes (telemetry is
    // write-only — nothing it records feeds back into scheduling or
    // numerics). Only then is tracing left on for the recorded sweep.
    bliss_telemetry::init_spans(1 << 17);
    let neutrality_cfg = ServeConfig::new(2, frames.min(8));
    let outcome_off = runtime.serve(&neutrality_cfg).expect("probe serves");
    bliss_telemetry::set_enabled(true);
    let outcome_on = runtime.serve(&neutrality_cfg).expect("probe serves");
    assert_eq!(
        outcome_off, outcome_on,
        "tracing on/off must not change serving results bit-for-bit"
    );
    println!("telemetry neutrality probe: on/off outcomes bit-identical");
    bliss_telemetry::clear_spans();

    let max_batch = 16;
    let mut points = Vec::new();
    let mut rows = Vec::new();
    for &n in session_counts {
        let mut batched_cfg = ServeConfig::new(n, frames).at_precision(sweep_precision);
        batched_cfg.max_batch = max_batch;
        let mut sequential_cfg = batched_cfg;
        sequential_cfg.max_batch = 1;

        let t0 = Instant::now();
        let batched = runtime.serve(&batched_cfg).expect("serve succeeds").report;
        let batched_wall_ms = t0.elapsed().as_secs_f64() * 1e3;

        let t1 = Instant::now();
        let sequential = runtime
            .serve(&sequential_cfg)
            .expect("serve succeeds")
            .report;
        let sequential_wall_ms = t1.elapsed().as_secs_f64() * 1e3;

        rows.push(vec![
            n.to_string(),
            format!("{:.2}", batched.latency.p50_ms),
            format!("{:.2}", batched.latency.p95_ms),
            format!("{:.2}", batched.latency.p99_ms),
            format!("{:.1}", batched.deadline_miss_rate * 100.0),
            format!("{:.0}", batched.throughput_fps),
            format!("{:.2}", batched.mean_batch_size),
            format!("{:.2}", sequential.latency.p95_ms),
            format!("{:.2}x", sequential_wall_ms / batched_wall_ms.max(1e-9)),
        ]);
        points.push(SweepPoint {
            sessions: n,
            virtual_p95_ratio: sequential.latency.p95_ms / batched.latency.p95_ms.max(1e-12),
            wall_speedup: sequential_wall_ms / batched_wall_ms.max(1e-9),
            batched,
            sequential,
            batched_wall_ms,
            sequential_wall_ms,
        });
    }

    // The cache that served the load points, before the Pareto block adds
    // its own traffic.
    let plans = runtime.vit_plan_stats();

    bliss_bench::print_table(
        "bliss_serve load sweep (batched max_batch=16 vs sequential max_batch=1)",
        &[
            "N",
            "p50 ms",
            "p95 ms",
            "p99 ms",
            "miss %",
            "thr f/s",
            "mean B",
            "seq p95",
            "wall speedup",
        ],
        &rows,
    );

    let roi_ratio = roi_tightness(&runtime, frames.max(12));
    let knee_sessions = points
        .iter()
        .find(|p| p.batched.deadline_miss_rate >= 0.5)
        .map_or(0, |p| p.sessions);
    println!("roi box/gt area ratio {roi_ratio:.2}, saturation knee at N={knee_sessions}");

    // Precision Pareto: the same scenario-diverse load point served at f32
    // and int8, charting accuracy against modelled energy and throughput.
    // Under --quant-gate this block is a hard CI gate: per scenario,
    // int8 may cost at most GAZE_TOLERANCE_DEG of gaze error over f32, and
    // must win on energy per frame — a violation panics before any report
    // is written.
    let mut pareto = Vec::new();
    let mut pareto_scenarios = Vec::new();
    if precision_mode != "f32" {
        // Two long sessions per scenario once the gate is on, so each
        // per-scenario mean averages enough frames that trajectory
        // divergence noise sits well below the tolerance.
        let (p_sessions, p_frames) = if quick && !quant_gate {
            (5, 24)
        } else {
            (10, 150)
        };
        let mut f32_cfg = ServeConfig::new(p_sessions, p_frames);
        f32_cfg.max_batch = max_batch;
        let int8_cfg = f32_cfg.at_precision(Precision::Int8);

        let t = Instant::now();
        let f32_outcome = runtime.serve(&f32_cfg).expect("f32 pareto serve succeeds");
        let f32_wall_ms = t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        let int8_outcome = runtime
            .serve(&int8_cfg)
            .expect("int8 pareto serve succeeds");
        let int8_wall_ms = t.elapsed().as_secs_f64() * 1e3;
        assert_ne!(
            f32_outcome.traces, int8_outcome.traces,
            "int8 serving produced f32-identical traces: the quantised path never ran"
        );

        let mut scenarios: Vec<&str> = f32_outcome
            .traces
            .iter()
            .map(|t| t.config.scenario.label())
            .collect();
        scenarios.sort_unstable();
        scenarios.dedup();
        let mut srows = Vec::new();
        for s in scenarios {
            let f = mean_gaze_error_deg(&f32_outcome, Some(s));
            let q = mean_gaze_error_deg(&int8_outcome, Some(s));
            srows.push(vec![
                s.to_string(),
                format!("{f:.4}"),
                format!("{q:.4}"),
                format!("{:+.4}", q - f),
            ]);
            pareto_scenarios.push(ScenarioAccuracy {
                scenario: s.to_string(),
                f32_gaze_error_deg: f,
                int8_gaze_error_deg: q,
                delta_deg: q - f,
            });
        }
        bliss_bench::print_table(
            "precision differential (mean gaze error per scenario, degrees)",
            &["scenario", "f32", "int8", "delta"],
            &srows,
        );
        for (precision, outcome, wall_ms) in [
            ("f32", &f32_outcome, f32_wall_ms),
            ("int8", &int8_outcome, int8_wall_ms),
        ] {
            pareto.push(PrecisionPareto {
                precision: precision.to_string(),
                mean_gaze_error_deg: mean_gaze_error_deg(outcome, None),
                energy_per_frame_j: mean_energy_j(outcome),
                throughput_fps: outcome.report.throughput_fps,
                wall_ms,
            });
        }
        let (f32_energy, int8_energy) = (mean_energy_j(&f32_outcome), mean_energy_j(&int8_outcome));
        println!(
            "energy/frame f32 {f32_energy:.3e} J vs int8 {int8_energy:.3e} J ({:.1}% saved)",
            (1.0 - int8_energy / f32_energy) * 100.0
        );
        if quant_gate {
            let worst = pareto_scenarios
                .iter()
                .map(|s| s.delta_deg)
                .fold(f64::MIN, f64::max);
            assert!(
                worst <= GAZE_TOLERANCE_DEG,
                "QUANT GATE: int8 gaze error exceeds f32 by {worst:.4} deg \
                 (tolerance {GAZE_TOLERANCE_DEG}); see the table above"
            );
            assert!(
                int8_energy < f32_energy,
                "QUANT GATE: int8 energy/frame {int8_energy:.3e} J is not strictly \
                 below f32 {f32_energy:.3e} J"
            );
            println!(
                "quant gate passed: worst delta {worst:+.4} deg <= {GAZE_TOLERANCE_DEG} deg, \
                 energy win {:.1}%",
                (1.0 - int8_energy / f32_energy) * 100.0
            );
        }
    }
    let int8_sites = runtime.int8_sites();

    let (stages, spans_dropped) = bliss_bench::drain_trace("TRACE_serve.json");

    let report = SweepReport {
        mode: if quick { "quick" } else { "standard" }.to_string(),
        precision: match sweep_precision {
            Precision::Int8 => "int8",
            Precision::F32 => "f32",
        }
        .to_string(),
        frames_per_session: frames,
        max_batch,
        roi_box_to_gt_area_ratio: roi_ratio,
        knee_sessions,
        stages,
        vit_plans: PlanStats {
            hits: plans.hits,
            misses: plans.misses,
            evictions: plans.evictions,
            plans: plans.plans,
            arena_elems: plans.arena_elems,
        },
        spans_dropped,
        int8_sites,
        quant_gate,
        pareto,
        pareto_scenarios,
        points,
    };
    bliss_bench::write_report("BENCH_serve.json", &report);
}
