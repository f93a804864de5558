//! One run of one workload: set-up, measured phase, output checks, and the
//! end-to-end (untraced) or per-layer (traced) metrics.

use crate::pass::{
    fleet_shards, fleet_with_snapshots, replay, run_pass, serve_with_snapshots, Layers, Pass, Res,
    Snapshots,
};
use crate::probes;
use crate::setup::{
    mix, set_up, Instance, Kind, SetupTimes, Spec, Warmup, CHAOS_PLAN_SEED, CHECKPOINT_INTERVAL,
};
use crate::stats::{mean, median, quantile, ratio, secs, Clock, Metrics};
use bliss_fleet::{merge_timelines, ChaosConfig, FaultMix, FaultPlan, FleetEvent, FleetOutcome};
use bliss_serve::{FrameRecord, Precision};
use std::collections::BTreeMap;
use std::ops::Range;
use std::time::Instant;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Everything one run reports.
pub struct Outcome {
    /// The metrics of the result line.
    pub metrics: Metrics,
    /// Further numbers printed in the report only.
    pub extra: Metrics,
    /// Output checks, each with whether it held.
    pub checks: Vec<(String, bool)>,
    pub attempted: usize,
    pub failed: usize,
    pub rounds: usize,
    pub canary_ms: f64,
}

impl Outcome {
    fn new() -> Self {
        Outcome {
            metrics: Metrics::default(),
            extra: Metrics::default(),
            checks: Vec::new(),
            attempted: 0,
            failed: 0,
            rounds: 0,
            canary_ms: 0.0,
        }
    }

    fn check(&mut self, what: impl Into<String>, ok: bool) {
        self.checks.push((what.into(), ok));
    }
}

/// Builds `count` set-ups one after another, handing each to `each` as soon
/// as it is ready, and checks that every warm-up pass produced identical
/// outputs.
fn set_ups(
    spec: &Spec,
    count: usize,
    out: &mut Outcome,
    mut each: impl FnMut(usize, Instance, &mut Outcome) -> Res<()>,
) -> Res<Vec<SetupTimes>> {
    let mut times = Vec::new();
    let mut first: Option<Warmup> = None;
    let mut same = true;
    for k in 0..count {
        let (inst, warmup) = set_up(spec)?;
        times.push(inst.times);
        match &first {
            Some(w) => same &= *w == warmup,
            None => first = Some(warmup),
        }
        each(k, inst, out)?;
    }
    out.check(
        format!("{count} set-ups serve the warm-up seed bit-identically"),
        same,
    );
    Ok(times)
}

/// Untraced runs: [`SETUPS`] set-ups, each serving its share of the `rounds`
/// measured rounds right after it is built (then dropped). Spreading the
/// rounds over the whole run keeps one burst of host noise from landing on
/// all of them.
fn measured_set_ups(
    spec: &Spec,
    rounds: usize,
    out: &mut Outcome,
    mut serve: impl FnMut(&Instance, Range<usize>, &mut Outcome) -> Res<()>,
) -> Res<Vec<SetupTimes>> {
    set_ups(spec, SETUPS, out, |k, inst, out| {
        serve(&inst, k * rounds / SETUPS..(k + 1) * rounds / SETUPS, out)
    })
}

/// Traced runs: two set-ups kept side by side (A serves, B replays).
fn traced_set_ups(spec: &Spec, out: &mut Outcome) -> Res<(Instance, Instance, Vec<SetupTimes>)> {
    let mut kept = Vec::new();
    let times = set_ups(spec, 2, out, |_, inst, _| {
        kept.push(inst);
        Ok(())
    })?;
    let b = kept.pop().expect("two set-ups");
    let a = kept.pop().expect("two set-ups");
    Ok((a, b, times))
}

/// Modelled end-to-end metrics over a set of served frames.
fn push_modelled(records: &[&FrameRecord], m: &mut Metrics) {
    let n = records.len();
    let latencies: Vec<f64> = records.iter().map(|r| r.latency_s * 1e3).collect();
    let misses = records.iter().filter(|r| r.deadline_missed).count();
    let energy: Vec<f64> = records.iter().map(|r| r.energy_j * 1e6).collect();
    let gaze: Vec<f64> = records
        .iter()
        .map(|r| {
            let (h, v) = (r.horizontal_error_deg as f64, r.vertical_error_deg as f64);
            (h * h + v * v).sqrt()
        })
        .collect();
    m.push(
        "virt_latency_ms_p99",
        quantile(&latencies, 0.99),
        "ms",
        Clock::Modelled,
        n,
    );
    m.push(
        "deadline_miss_rate",
        ratio(misses as f64, n as f64),
        "ratio",
        Clock::Modelled,
        n,
    );
    m.push(
        "energy_uj_per_frame",
        mean(&energy),
        "uJ",
        Clock::Modelled,
        n,
    );
    m.push("gaze_error_deg", mean(&gaze), "deg", Clock::Modelled, n);
}

/// Per-session records with contention-dependent timing zeroed: the view
/// faults must not change.
fn accuracy_view(outcome: &FleetOutcome) -> BTreeMap<usize, Vec<FrameRecord>> {
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
            by_session.insert(trace.config.id, records);
        }
    }
    by_session
}

/// Frames missing from an outcome: sessions absent, short, or with a gap.
fn lost_frames(outcome: &FleetOutcome, sessions: usize, frames: usize) -> usize {
    let view = accuracy_view(outcome);
    let mut lost = sessions.saturating_sub(view.len()) * frames;
    for records in view.values() {
        let contiguous = records
            .iter()
            .enumerate()
            .take_while(|(i, r)| r.index == *i)
            .count();
        lost += frames.saturating_sub(contiguous);
    }
    lost
}

/// The fixed fault plan, scaled to the fault-free run's virtual span.
fn chaos_config(timeline: &[FleetEvent], hosts: usize) -> ChaosConfig {
    let horizon = timeline.last().map_or(1e-3, |e| e.time_s).max(1e-3);
    let plan = FaultPlan::generate(CHAOS_PLAN_SEED, hosts, horizon, &FaultMix::default());
    let mut chaos = ChaosConfig::new(plan);
    chaos.checkpoint_interval = CHECKPOINT_INTERVAL;
    chaos
}

fn push_setup_s(times: &[SetupTimes], m: &mut Metrics) {
    let totals: Vec<f64> = times.iter().map(SetupTimes::total_s).collect();
    m.push(
        "setup_s",
        median(&totals),
        "s",
        Clock::Measured,
        totals.len(),
    );
}

/// One measured round: frames served, its wall, and each served frame's
/// wall in milliseconds.
struct Round {
    frames: usize,
    wall_s: f64,
    frame_wall_ms: Vec<f64>,
}

/// Wall metrics from the best round. Interference from other tenants of a
/// shared host only ever slows a round, and on a two-vCPU machine it comes
/// in bursts of whole seconds, so the best of several rounds is the steady
/// estimate of the code's own speed (a slowdown of the code slows every
/// round). Each round is still printed to standard error.
fn push_wall(rounds: &[Round], m: &mut Metrics) {
    let best = |f: &dyn Fn(&Round) -> f64| rounds.iter().map(f).fold(f64::INFINITY, f64::min);
    let frames: usize = rounds.iter().map(|r| r.frames).sum();
    let fps = -best(&|r| -ratio(r.frames as f64, r.wall_s));
    let p50 = best(&|r| quantile(&r.frame_wall_ms, 0.5));
    let p90 = best(&|r| quantile(&r.frame_wall_ms, 0.9));
    for r in rounds {
        eprintln!(
            "round: {} frames in {:.3} s, frame wall p50 {:.3} ms, p90 {:.3} ms",
            r.frames,
            r.wall_s,
            quantile(&r.frame_wall_ms, 0.5),
            quantile(&r.frame_wall_ms, 0.9)
        );
    }
    m.push("wall_fps", fps, "frames/s", Clock::Measured, frames);
    m.push("frame_wall_ms_p50", p50, "ms", Clock::Measured, frames);
    m.push("frame_wall_ms_p90", p90, "ms", Clock::Measured, frames);
}

fn push_failed(out: &mut Outcome, served: usize, shed: usize) {
    out.failed = out.attempted.saturating_sub(served) + shed;
    let share = ratio(out.failed as f64, out.attempted as f64);
    out.extra.push(
        "failed_frame_share",
        share,
        "ratio",
        Clock::Count,
        out.attempted,
    );
}

pub fn run(spec: &Spec, seed: u64, seconds: f64, trace: bool) -> Res<Outcome> {
    let mut out = Outcome::new();
    out.rounds = spec.rounds(seconds);
    match (spec.kind, trace) {
        (Kind::Serve, false) => serve_untraced(spec, seed, &mut out)?,
        (Kind::Fleet, false) => fleet_untraced(spec, seed, &mut out)?,
        (Kind::Serve, true) => serve_traced(spec, seed, &mut out)?,
        (Kind::Fleet, true) => fleet_traced(spec, seed, &mut out)?,
    }
    Ok(out)
}

/// Serves the measured rounds: each round a fresh population, stepped batch
/// by batch.
fn serve_rounds(
    inst: &Instance,
    spec: &Spec,
    seed: u64,
    rounds: Range<usize>,
    record: bool,
) -> Res<Vec<Pass>> {
    let rt = inst.runtime();
    rounds
        .map(|r| {
            let cfg = spec.serve_config(mix(seed, r as u64 + 1));
            run_pass(rt, vec![(cfg, rt.session_configs(&cfg))], record)
        })
        .collect()
}

/// Device-int8 must actually serve through the quantised plans.
fn int8_check(spec: &Spec, sites: usize, enabled: bool, lookups: u64, out: &mut Outcome) {
    if spec.precision == Precision::Int8 {
        out.check(
            format!("int8 plans served ({sites} quantised sites, {lookups} int8 plan lookups)"),
            sites > 0 && enabled && lookups > 0,
        );
    }
}

fn serve_untraced(spec: &Spec, seed: u64, out: &mut Outcome) -> Res<()> {
    let mut canary = vec![probes::canary_ms()];
    let mut passes: Vec<Pass> = Vec::new();
    let (mut sites, mut int8_on, mut quant_lookups) = (usize::MAX, true, 0);
    let times = measured_set_ups(spec, out.rounds, out, |inst, rounds, out| {
        let q0 = inst.vit.quant_plan_stats();
        let first = rounds.start == 0 && !rounds.is_empty();
        passes.extend(serve_rounds(inst, spec, seed, rounds, false)?);
        let q1 = inst.vit.quant_plan_stats();
        quant_lookups += (q1.hits + q1.misses) - (q0.hits + q0.misses);
        sites = sites.min(inst.vit.int8_sites());
        int8_on &= inst.vit.int8_enabled();
        if first {
            // Untimed: the first round again must give identical outputs.
            let again = run_pass(inst.runtime(), passes[0].shards.clone(), false)?;
            out.check(
                "a second run of one seed gives identical outputs",
                again.outcomes == passes[0].outcomes,
            );
        }
        Ok(())
    })?;
    canary.push(probes::canary_ms());
    out.canary_ms = median(&canary);
    int8_check(spec, sites, int8_on, quant_lookups, out);

    let rounds: Vec<Round> = passes
        .iter()
        .map(|p| Round {
            frames: p.frames(),
            wall_s: p.wall_s,
            frame_wall_ms: p
                .steps
                .iter()
                .flat_map(|s| std::iter::repeat_n(s.wall_s * 1e3, s.served))
                .collect(),
        })
        .collect();
    let records: Vec<&FrameRecord> = passes
        .iter()
        .flat_map(|p| &p.outcomes)
        .flat_map(|o| &o.traces)
        .flat_map(|t| &t.records)
        .collect();

    let m = &mut out.metrics;
    push_setup_s(&times, m);
    push_wall(&rounds, m);
    m.push(
        "peak_rss_mib",
        probes::peak_rss_mib(),
        "MiB",
        Clock::Measured,
        1,
    );
    push_modelled(&records, m);
    out.attempted = out.rounds * spec.sessions * spec.frames;
    let shed = records.iter().filter(|r| r.shed).count();
    push_failed(out, records.len(), shed);
    Ok(())
}

fn fleet_untraced(spec: &Spec, seed: u64, out: &mut Outcome) -> Res<()> {
    let mut canary = vec![probes::canary_ms()];
    let mut rounds = Vec::new();
    let mut runs = Vec::new();
    let mut lost = 0;
    let mut failovers = Vec::new();
    let mut chaos: Option<ChaosConfig> = None;
    let times = measured_set_ups(spec, out.rounds, out, |inst, share, out| {
        let fleet = inst.fleet();
        for r in share {
            let cfg = spec.fleet_config(mix(seed, r as u64 + 1));
            // Untimed fault-free reference of the first round: the identity
            // baseline, and the horizon every round's fault plan is scaled to.
            let reference = match chaos {
                None => Some(fleet.serve(&cfg)?),
                Some(_) => None,
            };
            let plan = chaos.get_or_insert_with(|| {
                let timeline = &reference.as_ref().expect("first round").timeline;
                chaos_config(timeline, spec.hosts)
            });
            let t = Instant::now();
            let run = fleet.serve_chaos(&cfg, plan)?;
            let wall_s = secs(t);
            if let Some(reference) = reference {
                out.check(
                    "accuracy, volume and energy equal the fault-free run",
                    accuracy_view(&run.outcome) == accuracy_view(&reference),
                );
            }
            if r == 0 {
                // Untimed: the first round again must give identical outputs.
                let again = fleet.serve_chaos(&cfg, plan)?;
                out.check(
                    "a second run of one seed gives identical outputs",
                    again == run,
                );
            }
            lost += lost_frames(&run.outcome, spec.sessions, spec.frames);
            failovers.push(run.chaos.faults.failovers);
            // serve_chaos cannot be stepped from outside: each frame is
            // charged its round's wall divided by the round's frames, so the
            // two frame-wall percentiles coincide on this workload.
            let frames = run.outcome.report.frames_total;
            rounds.push(Round {
                frames,
                wall_s,
                frame_wall_ms: vec![wall_s * 1e3 / frames.max(1) as f64; frames],
            });
            runs.push(run);
        }
        Ok(())
    })?;
    canary.push(probes::canary_ms());
    out.canary_ms = median(&canary);
    out.check(
        format!("no frame lost under faults ({lost} lost)"),
        lost == 0,
    );
    out.check(
        format!("failover happened in every round ({failovers:?} failovers)"),
        failovers.iter().all(|&f| f >= 1),
    );

    let records: Vec<&FrameRecord> = runs
        .iter()
        .flat_map(|run| &run.outcome.per_host)
        .flat_map(|o| &o.traces)
        .flat_map(|t| &t.records)
        .collect();
    let shed: usize = runs.iter().map(|run| run.chaos.faults.frames_shed).sum();

    let m = &mut out.metrics;
    push_setup_s(&times, m);
    push_wall(&rounds, m);
    m.push(
        "peak_rss_mib",
        probes::peak_rss_mib(),
        "MiB",
        Clock::Measured,
        1,
    );
    push_modelled(&records, m);
    out.attempted = out.rounds * spec.sessions * spec.frames;
    push_failed(out, records.len(), shed);
    Ok(())
}

/// Counts from the fault-injection layer.
#[derive(Default)]
struct FaultCounts {
    checkpoints: usize,
    failovers: usize,
    frames_replayed: usize,
    batch_timeouts: usize,
}

fn serve_traced(spec: &Spec, seed: u64, out: &mut Outcome) -> Res<()> {
    let (a, b, times) = traced_set_ups(spec, out)?;
    let (a, b) = (&a, &b);

    // Phase 1: the measured rounds on set-up A, recording each batch.
    let q0 = a.vit.quant_plan_stats();
    let passes = serve_rounds(a, spec, seed, 0..out.rounds, true)?;
    let q1 = a.vit.quant_plan_stats();
    let lookups = (q1.hits + q1.misses) - (q0.hits + q0.misses);
    int8_check(spec, a.vit.int8_sites(), a.vit.int8_enabled(), lookups, out);

    // Phase 2: the same schedule replayed through set-up B's networks,
    // whose plan caches went through the identical warm-up.
    let mut layers = Layers::default();
    let rt = b.runtime();
    for pass in &passes {
        replay(
            rt.system(),
            rt.timing_system(),
            spec.precision,
            &b.vit,
            &b.roi_net,
            pass,
            &mut layers,
        )?;
    }
    out.check(
        format!(
            "replay is bit-identical to the served trace ({} of {} frames differ)",
            layers.mismatches, layers.frames
        ),
        layers.mismatches == 0 && layers.frames > 0,
    );

    // Phase 3: the first round again on A, with checkpoints.
    let mut snaps = Snapshots::default();
    let mut host_step_ms = Vec::new();
    let again = serve_with_snapshots(
        a.runtime(),
        &passes[0].shards[0].0,
        passes[0].steps.len(),
        &mut snaps,
        &mut host_step_ms,
    )?;
    out.check(
        "a second run of one seed gives identical outputs",
        again == passes[0].outcomes[0],
    );

    push_layers(
        spec,
        &times,
        &passes,
        &layers,
        &snaps,
        &host_step_ms,
        &FaultCounts::default(),
        b,
        out,
    );
    Ok(())
}

fn fleet_traced(spec: &Spec, seed: u64, out: &mut Outcome) -> Res<()> {
    let (a, b, times) = traced_set_ups(spec, out)?;
    let (a, b) = (&a, &b);
    let cfg = spec.fleet_config(mix(seed, 1));

    // Phase 1: the fault-free population on A, its host shards stepped
    // exactly as `FleetRuntime::step` steps them, recording each batch.
    let pass = run_pass(a.runtime(), fleet_shards(a.fleet(), &cfg), true)?;

    // Phase 2: replay on B.
    let mut layers = Layers::default();
    let rt = b.runtime();
    replay(
        rt.system(),
        rt.timing_system(),
        spec.precision,
        &b.vit,
        &b.roi_net,
        &pass,
        &mut layers,
    )?;
    out.check(
        format!(
            "replay is bit-identical to the served trace ({} of {} frames differ)",
            layers.mismatches, layers.frames
        ),
        layers.mismatches == 0 && layers.frames > 0,
    );

    // Phase 3: FleetRuntime::start/step on A with fleet checkpoints.
    let mut snaps = Snapshots::default();
    let mut host_step_ms = Vec::new();
    let fleet_run = fleet_with_snapshots(
        a.fleet(),
        &cfg,
        &pass.hosts_per_round,
        &mut snaps,
        &mut host_step_ms,
    )?;
    out.check(
        "FleetRuntime::step gives the outputs of the stepped shards",
        fleet_run.per_host == pass.outcomes,
    );

    // Phase 4: one chaos run for the fault-layer counts.
    let chaos = chaos_config(&merge_timelines(&pass.outcomes), spec.hosts);
    let run = a.fleet().serve_chaos(&cfg, &chaos)?;
    let f = run.chaos.faults;
    let lost = lost_frames(&run.outcome, spec.sessions, spec.frames);
    out.check(
        format!("no frame lost under faults ({lost} lost)"),
        lost == 0,
    );
    out.check(
        format!("failover happened ({} failovers)", f.failovers),
        f.failovers >= 1,
    );
    out.check(
        "accuracy, volume and energy equal the fault-free run",
        accuracy_view(&run.outcome) == accuracy_view(&fleet_run),
    );
    let counts = FaultCounts {
        checkpoints: f.checkpoints_taken,
        failovers: f.failovers,
        frames_replayed: f.frames_replayed,
        batch_timeouts: f.batch_timeouts,
    };
    push_layers(
        spec,
        &times,
        std::slice::from_ref(&pass),
        &layers,
        &snaps,
        &host_step_ms,
        &counts,
        b,
        out,
    );
    Ok(())
}

/// The per-layer metrics of a traced run, in report order.
#[allow(clippy::too_many_arguments)]
fn push_layers(
    spec: &Spec,
    times: &[SetupTimes],
    passes: &[Pass],
    l: &Layers,
    snaps: &Snapshots,
    host_step_ms: &[f64],
    faults: &FaultCounts,
    b: &Instance,
    out: &mut Outcome,
) {
    use Clock::{Count, Measured};
    let step_ms: Vec<f64> = passes
        .iter()
        .flat_map(|p| &p.steps)
        .map(|s| s.wall_s * 1e3)
        .collect();
    let step_wall_s: f64 = step_ms.iter().sum::<f64>() / 1e3;
    let frames = l.frames as f64;
    let launches = l.launch_ms.len();
    let launch_wall_s: f64 = l.launch_ms.iter().sum::<f64>() / 1e3;
    let (f32_stats, q_stats) = (b.vit.plan_stats(), b.vit.quant_plan_stats());

    // GEMM microbenches at the median QKV launch shape: [tokens, dim] x
    // [dim, 3 dim].
    let dim = b.vit.config().dim;
    let m_rows = (median(&l.tokens_per_launch).round() as usize).max(1);
    let gemm_f32 = probes::gemm_f32_gflops(m_rows, dim, 3 * dim);
    let gemm_i8 = probes::gemm_i8_gflops(m_rows, dim, 3 * dim);
    let peak = probes::host_peak_gflops(bliss_parallel::thread_count());
    out.canary_ms = probes::canary_ms();

    let col = |f: fn(&SetupTimes) -> f64| median(&times.iter().map(f).collect::<Vec<_>>());
    let n_setup = times.len();
    let m = &mut out.metrics;
    m.push("setup.train_s", col(|t| t.train_s), "s", Measured, n_setup);
    m.push(
        "setup.int8_calibrate_s",
        col(|t| t.int8_calibrate_s),
        "s",
        Measured,
        n_setup,
    );
    m.push(
        "setup.warmup_s",
        col(|t| t.warmup_s),
        "s",
        Measured,
        n_setup,
    );
    m.push(
        "eye.render_us_per_frame",
        ratio(l.render_s * 1e6, l.render_frames as f64),
        "us",
        Measured,
        l.render_frames,
    );
    m.push(
        "frontend.sense_us",
        median(&l.sense_us),
        "us",
        Measured,
        l.sense_us.len(),
    );
    m.push(
        "frontend.roi_input_us",
        median(&l.roi_input_us),
        "us",
        Measured,
        l.roi_input_us.len(),
    );
    m.push(
        "frontend.readout_us",
        median(&l.readout_us),
        "us",
        Measured,
        l.readout_us.len(),
    );
    m.push(
        "frontend.absorb_us",
        median(&l.absorb_us),
        "us",
        Measured,
        l.absorb_us.len(),
    );
    m.push(
        "frontend.sampled_px_per_frame",
        ratio(l.sampled_px as f64, frames),
        "px",
        Count,
        l.frames,
    );
    m.push(
        "frontend.mipi_bytes_per_frame",
        ratio(l.mipi_bytes as f64, frames),
        "bytes",
        Count,
        l.frames,
    );
    m.push(
        "frontend.cold_frame_share",
        ratio(l.cold_frames as f64, frames),
        "ratio",
        Count,
        l.frames,
    );
    m.push(
        "roi_net.forward_us",
        median(&l.roi_forward_us),
        "us",
        Measured,
        l.roi_forward_us.len(),
    );
    m.push(
        "vit.launch_ms",
        median(&l.launch_ms),
        "ms",
        Measured,
        launches,
    );
    m.push(
        "vit.frames_per_launch",
        mean(&l.frames_per_launch),
        "frames",
        Count,
        launches,
    );
    m.push(
        "vit.tokens_per_launch",
        median(&l.tokens_per_launch),
        "tokens",
        Count,
        launches,
    );
    m.push(
        "vit.gflops",
        ratio(l.launch_flops / 1e9, launch_wall_s),
        "GFLOP/s",
        Measured,
        launches,
    );
    let lookups = (l.plan_hits + l.plan_misses) as f64;
    m.push(
        "vit.plan_hit_ratio",
        ratio(l.plan_hits as f64, lookups),
        "ratio",
        Count,
        launches,
    );
    m.push(
        "vit.plan_misses",
        l.plan_misses as f64,
        "count",
        Count,
        launches,
    );
    m.push(
        "vit.launch_ms_hit",
        median(&l.launch_hit_ms),
        "ms",
        Measured,
        l.launch_hit_ms.len(),
    );
    m.push(
        "vit.launch_ms_miss",
        median(&l.launch_miss_ms),
        "ms",
        Measured,
        l.launch_miss_ms.len(),
    );
    m.push(
        "vit.plans_retained",
        (f32_stats.plans + q_stats.plans) as f64,
        "count",
        Count,
        1,
    );
    let arena_mib = (f32_stats.arena_elems + q_stats.arena_elems) as f64 * 4.0 / (1 << 20) as f64;
    m.push("vit.plan_arena_mib", arena_mib, "MiB", Count, 1);
    m.push(
        "vit.quant_plan_hit_ratio",
        ratio(l.quant_hits as f64, l.quant_lookups as f64),
        "ratio",
        Count,
        l.quant_lookups as usize,
    );
    m.push("parallel.gemm_f32_gflops", gemm_f32, "GFLOP/s", Measured, 5);
    m.push("parallel.gemm_i8_gflops", gemm_i8, "GOP/s", Measured, 5);
    m.push("host.peak_gflops", peak, "GFLOP/s", Measured, 3);
    m.push("host.canary_ms", out.canary_ms, "ms", Measured, 5);
    m.push(
        "model.host_time_us",
        median(&l.host_model_us),
        "us",
        Measured,
        l.host_model_us.len(),
    );
    m.push(
        "model.energy_us",
        median(&l.energy_us),
        "us",
        Measured,
        l.energy_us.len(),
    );
    m.push(
        "serve.step_ms",
        median(&step_ms),
        "ms",
        Measured,
        step_ms.len(),
    );
    m.push(
        "serve.unattributed_share",
        1.0 - ratio(l.attributed_s, step_wall_s),
        "ratio",
        Measured,
        step_ms.len(),
    );
    m.push(
        "snapshot.write_ms",
        median(&snaps.write_ms),
        "ms",
        Measured,
        snaps.write_ms.len(),
    );
    m.push(
        "snapshot.bytes",
        median(&snaps.bytes),
        "bytes",
        Count,
        snaps.bytes.len(),
    );
    m.push(
        "snapshot.restore_ms",
        median(&snaps.restore_ms),
        "ms",
        Measured,
        snaps.restore_ms.len(),
    );
    m.push(
        "fleet.host_step_ms",
        median(host_step_ms),
        "ms",
        Measured,
        host_step_ms.len(),
    );
    m.push(
        "fleet.checkpoints",
        faults.checkpoints as f64,
        "count",
        Count,
        1,
    );
    m.push(
        "fleet.failovers",
        faults.failovers as f64,
        "count",
        Count,
        1,
    );
    m.push(
        "fleet.frames_replayed",
        faults.frames_replayed as f64,
        "count",
        Count,
        1,
    );
    m.push(
        "fleet.batch_timeouts",
        faults.batch_timeouts as f64,
        "count",
        Count,
        1,
    );

    let served: usize = passes.iter().map(Pass::frames).sum();
    out.attempted = passes.len() * spec.sessions * spec.frames;
    push_failed(out, served, 0);
}
