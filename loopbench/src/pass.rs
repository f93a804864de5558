//! Stepping serve shards batch by batch from outside the runtime, replaying
//! the recorded batch schedule through the public per-layer stages, and the
//! snapshot/restore passes of the durability layer.

use crate::setup::CHECKPOINT_INTERVAL;
use crate::stats::secs;
use bliss_eye::EyeSequence;
use bliss_fleet::{FleetConfig, FleetOutcome, FleetRuntime, FleetSnapshot};
use bliss_serve::{
    Precision, ServeConfig, ServeOutcome, ServeRuntime, ServeSnapshot, ServeState, SessionConfig,
};
use bliss_tensor::{inference_mode, PlanCacheStats, TensorError};
use bliss_track::{RoiPredictionNet, SparseViT};
use blisscam_core::{
    energy_breakdown_with_counts_at, host_batched_segmentation_time_s_at, SensedFrame,
    SparseFrontEnd, SystemConfig, SystemVariant,
};
use serde::Serialize;
use std::error::Error;
use std::time::Instant;

pub type Res<T> = Result<T, Box<dyn Error>>;

/// Restores timed per snapshot pass; the rest of the checkpoints are only
/// written, which keeps a traced run short on long passes.
const MAX_RESTORES: usize = 3;

/// One executed `step_batch` call.
#[derive(Debug)]
pub struct Step {
    pub host: usize,
    pub wall_s: f64,
    pub served: usize,
    /// Session slots the batch served, ascending (recorded on traced runs).
    pub members: Vec<usize>,
}

/// A pass over one population: per-host shards stepped in host order, the
/// way `FleetRuntime::step` steps them (a serve workload is one shard).
#[derive(Debug)]
pub struct Pass {
    pub shards: Vec<(ServeConfig, Vec<SessionConfig>)>,
    pub outcomes: Vec<ServeOutcome>,
    pub steps: Vec<Step>,
    /// Hosts that executed a batch in each fleet-wide stepping round.
    pub hosts_per_round: Vec<usize>,
    pub wall_s: f64,
}

impl Pass {
    pub fn frames(&self) -> usize {
        self.steps.iter().map(|s| s.served).sum()
    }
}

/// The shards `FleetRuntime::start` builds for `cfg`.
pub fn fleet_shards(
    fleet: &FleetRuntime,
    cfg: &FleetConfig,
) -> Vec<(ServeConfig, Vec<SessionConfig>)> {
    let sessions = fleet.session_configs(cfg);
    let assignment = cfg.placement.assign(&sessions, cfg.hosts);
    let mut shards = vec![Vec::new(); cfg.hosts];
    for (sc, &host) in sessions.iter().zip(&assignment) {
        shards[host].push(*sc);
    }
    shards
        .into_iter()
        .map(|s| {
            let mut shard_cfg = cfg.serve;
            shard_cfg.sessions = s.len();
            (shard_cfg, s)
        })
        .collect()
}

/// Serves `shards` to completion, timing every `ServeRuntime::step_batch`
/// call; with `record_members`, also records which sessions each batch
/// served (from `ServeState::progress` diffs, outside the timed call).
pub fn run_pass(
    rt: &ServeRuntime,
    shards: Vec<(ServeConfig, Vec<SessionConfig>)>,
    record_members: bool,
) -> Res<Pass> {
    let t0 = Instant::now();
    let mut states: Vec<ServeState> = shards
        .iter()
        .map(|(_, sessions)| rt.start_sessions(sessions.clone()))
        .collect();
    let mut steps = Vec::new();
    let mut hosts_per_round = Vec::new();
    loop {
        let mut advanced = 0;
        for (host, ((cfg, _), state)) in shards.iter().zip(states.iter_mut()).enumerate() {
            let before = if record_members {
                state.progress()
            } else {
                Vec::new()
            };
            let served_before = state.frames_served();
            let t = Instant::now();
            let more = rt.step_batch(cfg, state)?;
            let wall_s = secs(t);
            if !more {
                continue;
            }
            advanced += 1;
            let members = if record_members {
                state
                    .progress()
                    .iter()
                    .zip(&before)
                    .enumerate()
                    .filter(|(_, (now, was))| now.frames_served > was.frames_served)
                    .map(|(slot, _)| slot)
                    .collect()
            } else {
                Vec::new()
            };
            steps.push(Step {
                host,
                wall_s,
                served: state.frames_served() - served_before,
                members,
            });
        }
        if advanced == 0 {
            break;
        }
        hosts_per_round.push(advanced);
    }
    let outcomes = shards
        .iter()
        .zip(states)
        .map(|((cfg, _), state)| rt.finish(cfg, state))
        .collect();
    Ok(Pass {
        shards,
        outcomes,
        steps,
        hosts_per_round,
        wall_s: secs(t0),
    })
}

/// Per-layer timings and counts gathered by [`replay`].
#[derive(Debug, Default)]
pub struct Layers {
    pub render_s: f64,
    pub render_frames: usize,
    pub sense_us: Vec<f64>,
    pub roi_input_us: Vec<f64>,
    pub roi_forward_us: Vec<f64>,
    pub readout_us: Vec<f64>,
    pub absorb_us: Vec<f64>,
    pub frames: usize,
    pub cold_frames: usize,
    pub sampled_px: u64,
    pub mipi_bytes: u64,
    pub launch_ms: Vec<f64>,
    pub launch_hit_ms: Vec<f64>,
    pub launch_miss_ms: Vec<f64>,
    pub frames_per_launch: Vec<f64>,
    pub tokens_per_launch: Vec<f64>,
    pub launch_flops: f64,
    pub plan_hits: u64,
    pub plan_misses: u64,
    pub quant_hits: u64,
    pub quant_lookups: u64,
    pub host_model_us: Vec<f64>,
    pub energy_us: Vec<f64>,
    /// Sum of every timed stage call, seconds.
    pub attributed_s: f64,
    /// Frames whose replayed outputs differ from the served trace.
    pub mismatches: usize,
}

/// One session rebuilt outside the runtime.
struct Replayed {
    seq: EyeSequence,
    front: SparseFrontEnd,
    next_frame: usize,
    events: Vec<f32>,
    sensed: SensedFrame,
}

fn elapsed_us(t: Instant, attributed: &mut f64) -> f64 {
    let s = secs(t);
    *attributed += s;
    s * 1e6
}

/// The plan cache the ViT currently launches through.
fn active_stats(vit: &SparseViT) -> PlanCacheStats {
    if vit.int8_enabled() {
        vit.quant_plan_stats()
    } else {
        vit.plan_stats()
    }
}

/// Replays `pass`'s batch schedule through the public stages —
/// `SparseFrontEnd` stages, `RoiPredictionNet::forward` and
/// `SparseViT::forward_batch` under `inference_mode`, and the latency and
/// energy models — timing each call, and checks every frame's gaze, tokens,
/// sampled pixels, readout box, MIPI bytes and energy against the served
/// trace bit for bit.
pub fn replay(
    system: &SystemConfig,
    timing: &SystemConfig,
    precision: Precision,
    vit: &SparseViT,
    roi_net: &RoiPredictionNet,
    pass: &Pass,
    layers: &mut Layers,
) -> Result<(), TensorError> {
    let roi_cfg = *roi_net.config();
    let mut hosts: Vec<Vec<Replayed>> = Vec::with_capacity(pass.shards.len());
    for (_, sessions) in &pass.shards {
        let mut replayed = Vec::with_capacity(sessions.len());
        for sc in sessions {
            let t = Instant::now();
            let (seq, front) =
                SparseFrontEnd::scenario_stream(system, sc.scenario, sc.seed, sc.frames);
            layers.render_s += secs(t);
            layers.render_frames += seq.frames.len();
            replayed.push(Replayed {
                seq,
                front,
                next_frame: 1,
                events: Vec::new(),
                sensed: SensedFrame::default(),
            });
        }
        hosts.push(replayed);
    }

    let mut attributed = 0.0;
    for step in &pass.steps {
        let sessions = &mut hosts[step.host];
        for &m in &step.members {
            let s = &mut sessions[m];
            let t = Instant::now();
            s.front
                .sense_events_into(&s.seq.frames[s.next_frame].clean, &mut s.events);
            layers.sense_us.push(elapsed_us(t, &mut attributed));
            let t = Instant::now();
            let input = s.front.roi_input(&roi_cfg, &s.events);
            layers.roi_input_us.push(elapsed_us(t, &mut attributed));
            let t = Instant::now();
            let roi_out = inference_mode(|| roi_net.forward(&input))?;
            layers.roi_forward_us.push(elapsed_us(t, &mut attributed));
            layers.cold_frames += usize::from(!s.front.has_feedback());
            let roi_box = s.front.select_box(roi_net, &roi_out);
            let t = Instant::now();
            s.front
                .read_out_into(roi_box, system.sample_rate, &mut s.sensed)?;
            layers.readout_us.push(elapsed_us(t, &mut attributed));
        }

        let frames: Vec<(&[f32], &[f32])> = step
            .members
            .iter()
            .map(|&m| (&sessions[m].sensed.image[..], &sessions[m].sensed.mask[..]))
            .collect();
        let before = active_stats(vit);
        let quant_before = vit.quant_plan_stats();
        let t = Instant::now();
        let predictions = inference_mode(|| vit.forward_batch(&frames))?;
        let launch_ms = elapsed_us(t, &mut attributed) / 1e3;
        let after = active_stats(vit);
        let quant_after = vit.quant_plan_stats();
        drop(frames);
        let hits = after.hits - before.hits;
        let misses = after.misses - before.misses;
        layers.plan_hits += hits;
        layers.plan_misses += misses;
        layers.quant_hits += quant_after.hits - quant_before.hits;
        layers.quant_lookups +=
            (quant_after.hits + quant_after.misses) - (quant_before.hits + quant_before.misses);
        layers.launch_ms.push(launch_ms);
        if misses > 0 {
            layers.launch_miss_ms.push(launch_ms);
        } else if hits > 0 {
            layers.launch_hit_ms.push(launch_ms);
        }

        let shapes: Vec<(usize, usize)> = step
            .members
            .iter()
            .zip(&predictions)
            .map(|(&m, p)| {
                (
                    p.as_ref().map_or(0, |p| p.tokens),
                    sessions[m].sensed.sampled,
                )
            })
            .collect();
        layers.frames_per_launch.push(step.members.len() as f64);
        layers
            .tokens_per_launch
            .push(shapes.iter().map(|&(t, _)| t).sum::<usize>() as f64);
        layers.launch_flops += 2.0 * vit.config().batched_workload(&shapes).total_macs() as f64;
        let t = Instant::now();
        std::hint::black_box(host_batched_segmentation_time_s_at(
            timing, &shapes, precision,
        ));
        layers.host_model_us.push(elapsed_us(t, &mut attributed));

        let trace = &pass.outcomes[step.host].traces;
        for (&m, prediction) in step.members.iter().zip(predictions) {
            let s = &mut sessions[m];
            let t = Instant::now();
            let (gaze, tokens) = s.front.absorb(prediction);
            layers.absorb_us.push(elapsed_us(t, &mut attributed));
            let counts = s.sensed.counts(tokens);
            let t = Instant::now();
            let energy_j = energy_breakdown_with_counts_at(
                system,
                SystemVariant::BlissCam,
                &counts,
                precision,
            )
            .total_j();
            layers.energy_us.push(elapsed_us(t, &mut attributed));

            let served = trace[m].records.get(s.next_frame - 1);
            let same = served.is_some_and(|r| {
                r.gaze_prediction == gaze
                    && r.tokens == tokens
                    && r.sampled_pixels == s.sensed.sampled
                    && r.roi_pixels == s.sensed.roi_pixels
                    && r.mipi_bytes == s.sensed.mipi_bytes
                    && r.energy_j.to_bits() == energy_j.to_bits()
            });
            layers.mismatches += usize::from(!same);
            layers.frames += 1;
            layers.sampled_px += s.sensed.sampled as u64;
            layers.mipi_bytes += s.sensed.mipi_bytes;
            s.next_frame += 1;
        }
    }
    // Every session must have been replayed to its end.
    for (host, sessions) in hosts.iter().enumerate() {
        for (slot, s) in sessions.iter().enumerate() {
            if s.next_frame - 1 != pass.outcomes[host].traces[slot].records.len() {
                layers.mismatches += 1;
            }
        }
    }
    layers.attributed_s += attributed;
    Ok(())
}

/// Durability-layer timings: checkpoint writes and restores.
#[derive(Debug, Default)]
pub struct Snapshots {
    pub write_ms: Vec<f64>,
    pub bytes: Vec<f64>,
    pub restore_ms: Vec<f64>,
}

/// Every how many checkpoints a restore is timed, for a pass of `steps`.
fn restore_stride(steps: usize) -> usize {
    (steps / CHECKPOINT_INTERVAL).div_ceil(MAX_RESTORES).max(1)
}

/// Serves `cfg` on one runtime, writing a `ServeSnapshot` every
/// [`CHECKPOINT_INTERVAL`] batches and timing `ServeSnapshot::parse` +
/// `ServeRuntime::restore` on a spread of them.
pub fn serve_with_snapshots(
    rt: &ServeRuntime,
    cfg: &ServeConfig,
    expected_steps: usize,
    snaps: &mut Snapshots,
    step_ms: &mut Vec<f64>,
) -> Res<ServeOutcome> {
    let stride = restore_stride(expected_steps);
    let mut state = rt.start_sessions(rt.session_configs(cfg));
    let mut steps = 0usize;
    loop {
        let t = Instant::now();
        let more = rt.step_batch(cfg, &mut state)?;
        let wall_s = secs(t);
        if !more {
            break;
        }
        step_ms.push(wall_s * 1e3);
        steps += 1;
        if !steps.is_multiple_of(CHECKPOINT_INTERVAL) {
            continue;
        }
        let t = Instant::now();
        let json = rt.snapshot(cfg, &state).to_json();
        snaps.write_ms.push(secs(t) * 1e3);
        snaps.bytes.push(json.len() as f64);
        if (steps / CHECKPOINT_INTERVAL).is_multiple_of(stride) {
            let t = Instant::now();
            let restored = ServeRuntime::restore(&ServeSnapshot::parse(&json)?)?;
            snaps.restore_ms.push(secs(t) * 1e3);
            drop(restored);
        }
    }
    Ok(rt.finish(cfg, state))
}

/// Steps `cfg` through `FleetRuntime::start`/`step`, timing each step per
/// host that executed a batch (`hosts_per_round`, from an earlier pass over
/// the same population), writing a `FleetSnapshot` every
/// [`CHECKPOINT_INTERVAL`] steps and timing `FleetSnapshot::parse` +
/// `FleetRuntime::restore` on a spread of them.
pub fn fleet_with_snapshots(
    fleet: &FleetRuntime,
    cfg: &FleetConfig,
    hosts_per_round: &[usize],
    snaps: &mut Snapshots,
    host_step_ms: &mut Vec<f64>,
) -> Res<FleetOutcome> {
    let stride = restore_stride(hosts_per_round.len());
    let mut state = fleet.start(cfg);
    let mut steps = 0usize;
    loop {
        let t = Instant::now();
        let more = fleet.step(&mut state)?;
        let wall_s = secs(t);
        if !more {
            break;
        }
        let hosts = hosts_per_round.get(steps).copied().unwrap_or(cfg.hosts);
        host_step_ms.push(wall_s * 1e3 / hosts.max(1) as f64);
        steps += 1;
        if !steps.is_multiple_of(CHECKPOINT_INTERVAL) {
            continue;
        }
        let t = Instant::now();
        let json = fleet.snapshot(cfg, &state).to_json();
        snaps.write_ms.push(secs(t) * 1e3);
        snaps.bytes.push(json.len() as f64);
        if (steps / CHECKPOINT_INTERVAL).is_multiple_of(stride) {
            let t = Instant::now();
            let restored = FleetRuntime::restore(&FleetSnapshot::parse(&json)?)?;
            snaps.restore_ms.push(secs(t) * 1e3);
            drop(restored);
        }
    }
    Ok(fleet.finish(cfg, state))
}
