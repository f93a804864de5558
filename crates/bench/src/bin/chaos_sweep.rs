//! Seeded chaos soak of the `bliss_fleet` fault-injection engine.
//!
//! Trains one BlissCam model, then drives (placement policy × fault seed)
//! chaos runs — host crashes with snapshot failover, slow-host windows,
//! batch timeouts, corrupt checkpoints — plus one forced-degradation run
//! per policy, and **hard-gates** the robustness contract on every run:
//!
//! * replay determinism: the same `(FleetConfig, ChaosConfig)` must
//!   reproduce the identical [`bliss_fleet::ChaosOutcome`] (fault log
//!   included);
//! * zero frame loss: every session ends with its full contiguous frame
//!   range, in the traces and in the merged timeline;
//! * recovery identity: with shedding off, every frame's
//!   gaze/volume/energy outputs must be bit-identical to the fault-free
//!   baseline — faults may only move timing;
//! * weight-free checkpoints: every per-host checkpoint must stay smaller
//!   than the model image, so weights creeping back into checkpoints fail.
//!
//! Any gate failure exits non-zero (the `chaos-smoke` CI job fails).
//! Results — per-run fault/recovery counters, recovery-latency samples,
//! survival curves and checkpoint sizes — go to `BENCH_chaos.json` at the
//! workspace root (or inside the `BLISS_BENCH_OUT` directory); the file is
//! not committed. `--quick` runs the reduced CI profile.

use bliss_fleet::{
    ChaosConfig, ChaosReport, DegradationPolicy, FaultMix, FaultPlan, FleetConfig, FleetOutcome,
    FleetRuntime, InjectedFault, PlacementPolicy,
};
use bliss_serve::FrameRecord;
use blisscam_core::SystemConfig;
use serde::Serialize;
use std::collections::BTreeMap;
use std::time::Instant;

/// One chaos run of the sweep.
#[derive(Serialize)]
struct ChaosPoint {
    policy: String,
    /// Fault-plan seed (`0` marks the forced-degradation run).
    seed: u64,
    sessions: usize,
    hosts: usize,
    /// Faults scheduled by the plan.
    scheduled: usize,
    chaos: ChaosReport,
    /// Every fault that actually fired, in trigger order.
    log: Vec<InjectedFault>,
    /// Fleet-wide deadline-miss rate of the chaos run (the degradation run
    /// trades misses for shed frames).
    deadline_miss_rate: f64,
    wall_ms: f64,
}

#[derive(Serialize)]
struct ChaosSweepReport {
    mode: String,
    sessions: usize,
    hosts: usize,
    frames_per_session: usize,
    /// JSON bytes of the shared model image; each run's
    /// `chaos.max_checkpoint_bytes` must stay below it.
    model_image_bytes: usize,
    points: Vec<ChaosPoint>,
}

/// Per-session records with contention-dependent timing zeroed — the view
/// that must survive any fault schedule bit-for-bit.
fn accuracy_records(outcome: &FleetOutcome) -> BTreeMap<usize, Vec<FrameRecord>> {
    let mut by_session = BTreeMap::new();
    for host in &outcome.per_host {
        for trace in &host.traces {
            let mut records = trace.records.clone();
            for r in &mut records {
                r.arrival_s = 0.0;
                r.completion_s = 0.0;
                r.latency_s = 0.0;
                r.deadline_missed = false;
                r.batch_size = 0;
            }
            assert!(
                by_session.insert(trace.config.id, records).is_none(),
                "session {} appears on two hosts",
                trace.config.id
            );
        }
    }
    by_session
}

/// Hard gate: complete, gap-free traces and timeline.
fn gate_zero_frame_loss(
    outcome: &FleetOutcome,
    sessions: usize,
    frames: usize,
) -> Result<(), String> {
    let acc = accuracy_records(outcome);
    if acc.len() != sessions {
        return Err(format!("{} of {sessions} sessions have traces", acc.len()));
    }
    for (id, records) in &acc {
        if records.len() != frames {
            return Err(format!("session {id}: {}/{frames} frames", records.len()));
        }
        for (i, r) in records.iter().enumerate() {
            if r.index != i {
                return Err(format!("session {id}: gap at frame {i}"));
            }
        }
    }
    if outcome.timeline.len() != sessions * frames {
        return Err(format!(
            "timeline holds {} of {} events",
            outcome.timeline.len(),
            sessions * frames
        ));
    }
    for pair in outcome.timeline.windows(2) {
        if pair[1].time_s < pair[0].time_s {
            return Err(format!("timeline goes backward at {:.9}s", pair[1].time_s));
        }
    }
    Ok(())
}

fn main() {
    let quick = bliss_bench::flags(&[bliss_bench::Flag::Quick]).quick;
    let (sessions, hosts, frames, seeds): (usize, usize, usize, &[u64]) = if quick {
        (6, 2, 4, &[0xA1, 0xB2, 0xC3])
    } else {
        (16, 4, 12, &[0xA1, 0xB2, 0xC3, 0xD4, 0xE5])
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

    let model_image_bytes = fleet.serve_runtime().model_image().to_json().len();

    let mut points = Vec::new();
    let mut rows = Vec::new();
    let mut failures = Vec::new();
    for policy in PlacementPolicy::ALL {
        let cfg = FleetConfig::new(hosts, policy, sessions, frames);
        let baseline = fleet.serve(&cfg).expect("fault-free baseline serves");
        let horizon = baseline
            .timeline
            .last()
            .map_or(1e-3, |e| e.time_s)
            .max(1e-3);
        let baseline_acc = accuracy_records(&baseline);

        // Seeded fault runs: crashes, slow windows, timeouts, corrupt
        // checkpoints — shedding off, so recovery identity must be exact.
        for &seed in seeds {
            let plan = FaultPlan::generate(seed, hosts, horizon, &FaultMix::default());
            let mut chaos = ChaosConfig::new(plan);
            chaos.checkpoint_interval = 2;
            let t0 = Instant::now();
            let run = fleet.serve_chaos(&cfg, &chaos).expect("chaos serves");
            let replay = fleet.serve_chaos(&cfg, &chaos).expect("chaos serves");
            let wall_ms = t0.elapsed().as_secs_f64() * 1e3;

            let label = format!("{}/seed {seed:#x}", policy.label());
            if run != replay {
                failures.push(format!("{label}: chaos replay diverged"));
            }
            if let Err(e) = gate_zero_frame_loss(&run.outcome, sessions, frames) {
                failures.push(format!("{label}: frame loss — {e}"));
            }
            if accuracy_records(&run.outcome) != baseline_acc {
                failures.push(format!(
                    "{label}: recovery identity broken — accuracy/volume/energy diverged from the fault-free run"
                ));
            }
            if run.chaos.max_checkpoint_bytes >= model_image_bytes {
                failures.push(format!(
                    "{label}: a {}-byte checkpoint reaches the {model_image_bytes}-byte model image",
                    run.chaos.max_checkpoint_bytes
                ));
            }

            let f = run.chaos.faults;
            rows.push(vec![
                policy.label().to_string(),
                format!("{seed:#x}"),
                format!("{}", f.faults_injected),
                format!("{}", f.failovers),
                format!("{}", f.sessions_recovered),
                format!("{}", f.frames_replayed),
                format!("{}", f.batch_timeouts),
                format!("{}", f.corrupt_checkpoint_reads),
                format!("{:.1}", run.chaos.max_checkpoint_bytes as f64 / 1e3),
                if run.chaos.recovery_latency_s.is_empty() {
                    "-".to_string()
                } else {
                    format!(
                        "{:.2}",
                        run.chaos
                            .recovery_latency_s
                            .iter()
                            .fold(f64::NEG_INFINITY, |a, &b| a.max(b))
                            * 1e3
                    )
                },
            ]);
            points.push(ChaosPoint {
                policy: policy.label().to_string(),
                seed,
                sessions,
                hosts,
                scheduled: chaos.plan.events.len(),
                deadline_miss_rate: run.outcome.report.deadline_miss_rate,
                chaos: run.chaos,
                log: run.log,
                wall_ms,
            });
        }

        // Forced-degradation run: the SLO ladder engages immediately, so
        // the shedding path is exercised every sweep. Shed frames trade
        // host inference for the feedback-ROI fallback — accuracy identity
        // is *not* gated here, frame completeness still is.
        let mut chaos = ChaosConfig::new(FaultPlan::quiet());
        chaos.degradation = Some(DegradationPolicy {
            window_frames: 1,
            enter_miss_rate: 0.0,
            exit_miss_rate: -1.0,
            ..DegradationPolicy::default()
        });
        let t0 = Instant::now();
        let run = fleet.serve_chaos(&cfg, &chaos).expect("degraded serve");
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        let label = format!("{}/degraded", policy.label());
        if let Err(e) = gate_zero_frame_loss(&run.outcome, sessions, frames) {
            failures.push(format!("{label}: frame loss — {e}"));
        }
        if run.chaos.faults.frames_shed == 0 {
            failures.push(format!("{label}: forced degradation shed nothing"));
        }
        if run.chaos.max_checkpoint_bytes >= model_image_bytes {
            failures.push(format!(
                "{label}: a {}-byte checkpoint reaches the {model_image_bytes}-byte model image",
                run.chaos.max_checkpoint_bytes
            ));
        }
        rows.push(vec![
            policy.label().to_string(),
            "degraded".to_string(),
            "0".to_string(),
            "0".to_string(),
            "0".to_string(),
            "0".to_string(),
            "0".to_string(),
            "0".to_string(),
            format!("{:.1}", run.chaos.max_checkpoint_bytes as f64 / 1e3),
            format!("shed {}", run.chaos.faults.frames_shed),
        ]);
        points.push(ChaosPoint {
            policy: policy.label().to_string(),
            seed: 0,
            sessions,
            hosts,
            scheduled: 0,
            deadline_miss_rate: run.outcome.report.deadline_miss_rate,
            chaos: run.chaos,
            log: run.log,
            wall_ms,
        });
    }

    bliss_bench::print_table(
        "bliss_fleet chaos soak (crash/slow/timeout/corrupt faults, snapshot failover)",
        &[
            "policy",
            "seed",
            "inj",
            "fail",
            "recov",
            "replay",
            "t/o",
            "corrupt",
            "ckpt KB",
            "rec p100 ms",
        ],
        &rows,
    );

    let report = ChaosSweepReport {
        mode: if quick { "quick" } else { "standard" }.to_string(),
        sessions,
        hosts,
        frames_per_session: frames,
        model_image_bytes,
        points,
    };
    bliss_bench::write_report("BENCH_chaos.json", &report);

    if !failures.is_empty() {
        eprintln!("chaos gates FAILED:");
        for f in &failures {
            eprintln!("  - {f}");
        }
        std::process::exit(1);
    }
    println!(
        "all chaos gates passed: replay determinism, zero frame loss, recovery identity, weight-free checkpoints ({} runs)",
        report.points.len()
    );
}
