//! Sharding sweep of the `bliss_fleet` multi-host serving fleet.
//!
//! Trains one BlissCam model, then serves (sessions × hosts × placement
//! policy) load points with latency accounted at the paper's 640x400 /
//! ViT-S / 7 nm host point — where a single host saturates at N≈2–4
//! sessions, so the host axis shows real throughput scaling under the
//! per-launch dispatch-overhead model.
//!
//! Results go to `BENCH_fleet.json` at the workspace root (or inside the
//! `BLISS_BENCH_OUT` directory); the file is not committed, and the
//! `fleet-smoke` CI job uploads it on every push. `--quick` runs a reduced
//! sweep for CI.
//!
//! The whole sweep runs with `bliss_telemetry` tracing **on** (after an
//! off/on bit-identity probe): the report gains a per-stage breakdown and
//! a metrics snapshot (including per-host utilisation gauges), and the
//! spans — `pid` = host, `tid` = session — are exported as
//! Perfetto-loadable Chrome trace JSON to `TRACE_fleet.json`.

use bliss_bench::Flag;
use bliss_fleet::{FleetConfig, FleetReport, FleetRuntime, PlacementPolicy};
use bliss_telemetry::export::{chrome_trace_json, stage_breakdown, StageSummary};
use bliss_telemetry::MetricsSnapshot;
use blisscam_core::SystemConfig;
use serde::json::JsonValue;
use serde::Serialize;
use std::time::Instant;

/// One load point of the sweep.
#[derive(Serialize)]
struct SweepPoint {
    sessions: usize,
    hosts: usize,
    policy: String,
    report: FleetReport,
    wall_ms: f64,
}

#[derive(Serialize)]
struct SweepReport {
    mode: String,
    frames_per_session: usize,
    /// Per-stage span aggregates over the whole traced sweep.
    stages: Vec<StageSummary>,
    /// The telemetry metrics registry frozen at the end of the sweep
    /// (per-host utilisation gauges reflect the last load point).
    metrics: MetricsSnapshot,
    /// Spans the fixed ring dropped (0 = the trace is complete).
    spans_dropped: u64,
    points: Vec<SweepPoint>,
}

fn main() {
    let quick = bliss_bench::flags(&[Flag::Quick]).quick;
    let (session_counts, host_counts, frames): (&[usize], &[usize], usize) = if quick {
        (&[6], &[1, 2], 4)
    } else {
        (&[8, 16, 32], &[1, 2, 4, 8], 24)
    };

    let mut system = SystemConfig::miniature();
    if quick {
        system.train_frames = 30;
        system.vit.dim = 24;
        system.vit.enc_depth = 1;
        system.roi_net.hidden = 32;
    }
    eprintln!("training the shared BlissCam model ...");
    let fleet = FleetRuntime::new(system)
        .expect("training succeeds")
        .with_paper_scale_timing();

    // Telemetry neutrality probe at fleet scale: off vs on must be
    // bit-identical before tracing is left on for the recorded sweep.
    bliss_telemetry::init_spans(1 << 17);
    let probe_cfg = FleetConfig::new(2, PlacementPolicy::RoundRobin, 4, frames.min(4));
    let outcome_off = fleet.serve(&probe_cfg).expect("probe serves");
    bliss_telemetry::set_enabled(true);
    let outcome_on = fleet.serve(&probe_cfg).expect("probe serves");
    assert_eq!(
        outcome_off, outcome_on,
        "tracing on/off must not change fleet results bit-for-bit"
    );
    println!("telemetry neutrality probe: on/off outcomes bit-identical");
    bliss_telemetry::clear_spans();
    bliss_telemetry::reset_metrics();

    let mut points = Vec::new();
    let mut rows = Vec::new();
    for &n in session_counts {
        for &hosts in host_counts {
            for policy in PlacementPolicy::ALL {
                let cfg = FleetConfig::new(hosts, policy, n, frames);
                let t0 = Instant::now();
                let outcome = fleet.serve(&cfg).expect("fleet serves");
                let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
                let r = outcome.report;
                rows.push(vec![
                    n.to_string(),
                    hosts.to_string(),
                    policy.label().to_string(),
                    format!("{:.2}", r.latency.p50_ms),
                    format!("{:.2}", r.latency.p99_ms),
                    format!("{:.1}", r.deadline_miss_rate * 100.0),
                    format!("{:.0}", r.throughput_fps),
                    format!("{:.2}", r.mean_batch_size),
                    format!("{:.0}", r.mean_utilisation * 100.0),
                ]);
                points.push(SweepPoint {
                    sessions: n,
                    hosts,
                    policy: policy.label().to_string(),
                    report: r,
                    wall_ms,
                });
            }
        }
    }

    bliss_bench::print_table(
        "bliss_fleet sharding sweep (paper-scale timing, work-conserving batching per shard)",
        &[
            "N", "hosts", "policy", "p50 ms", "p99 ms", "miss %", "thr f/s", "mean B", "duty %",
        ],
        &rows,
    );

    // Freeze the metrics, then drain the span ring: validate the Chrome
    // trace JSON by re-parsing, then write it next to the bench report.
    bliss_telemetry::set_enabled(false);
    let spans_dropped = bliss_telemetry::spans_dropped();
    let metrics = bliss_telemetry::metrics_snapshot();
    let spans = bliss_telemetry::take_spans();
    assert_eq!(
        metrics.gauge("spans_recorded"),
        spans.len() as f64,
        "the spans_recorded gauge must count the spans drained from the ring"
    );
    let stages = stage_breakdown(&spans);
    let trace_json = chrome_trace_json(&spans);
    let trace_value = JsonValue::parse(&trace_json).expect("trace JSON must parse");
    let event_count = trace_value
        .field("traceEvents")
        .and_then(|v| v.expect_array())
        .expect("traceEvents array")
        .len();
    println!(
        "traced {} spans ({} dropped) into {} Chrome trace events",
        spans.len(),
        spans_dropped,
        event_count
    );
    let trace_path = bliss_bench::report_path("TRACE_fleet.json");
    match std::fs::write(&trace_path, &trace_json) {
        Ok(()) => println!("wrote Perfetto trace to {}", trace_path.display()),
        Err(e) => eprintln!("could not write {}: {e}", trace_path.display()),
    }

    let report = SweepReport {
        mode: if quick { "quick" } else { "standard" }.to_string(),
        frames_per_session: frames,
        stages,
        metrics,
        spans_dropped,
        points,
    };
    let path = bliss_bench::report_path("BENCH_fleet.json");
    match std::fs::write(&path, report.to_json()) {
        Ok(()) => println!("wrote fleet sweep to {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}
