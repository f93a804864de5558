//! Deterministic fault injection and recovery for the fleet.
//!
//! A seeded [`FaultPlan`] schedules host crashes, transient slow-host
//! windows, batch timeouts and corrupt-checkpoint reads in **virtual
//! time**. The chaos engine ([`FleetRuntime::serve_chaos`]) steps the fleet
//! exactly like [`FleetRuntime::serve`] does, but consults the plan at
//! every per-host batch boundary — the only instants the serve layer's
//! snapshot machinery can capture — and perturbs the run accordingly:
//!
//! * **Crash**: the host's shard is discarded and its sessions are restored
//!   from the host's newest parseable checkpoint, re-placed across the
//!   surviving hosts by the fleet's [`PlacementPolicy`](crate::PlacementPolicy)
//!   (or restarted in place when no other host survives — the "rejoin"
//!   case). Progress past the checkpoint is **replayed**, not lost.
//! * **Slow**: a multiplicative cycle-budget dilation on the host's
//!   inference launches for a virtual-time window (the latency model's
//!   [`StepOptions::time_dilation`](bliss_serve::StepOptions) path).
//! * **Timeout**: the next launch attempt occupies the host for the stall
//!   (plus exponential-ish per-consecutive-timeout backoff) and executes
//!   nothing; the retry is the next ordinary step, so every frame still
//!   executes exactly once.
//! * **CorruptCheckpoint**: the host's checkpoint medium goes bad — every
//!   periodic checkpoint written from the scheduled time on is truncated,
//!   so a later failover genuinely fails to parse them (surfacing the
//!   host/session-context [`SnapshotError`]) and falls back to the newest
//!   intact checkpoint. A replaced or rejoined host gets a fresh medium.
//!
//! Checkpoints are weight-free [`ShardCheckpoint`]s naming the shared model
//! by digest, computed once per run. A failover counts a checkpoint as
//! readable only when it parses, names that digest and rebuilds every one
//! of its sessions; otherwise it falls back to the next older one.
//!
//! Under a sustained SLO breach a [`DegradationPolicy`] deterministically
//! sheds load — selected warm frames skip host inference and fall back to
//! the feedback ROI — instead of letting the deadline-miss queue collapse
//! the host.
//!
//! **Determinism.** Every decision above is a pure function of virtual
//! time, the plan and per-session state; no wall clock, no ambient RNG.
//! Replaying the same `(FleetConfig, ChaosConfig)` reproduces the entire
//! [`ChaosOutcome`] — injected-fault log, timelines, reports — bit for
//! bit, on any thread pool. And because a session's accuracy/volume/energy
//! outputs never depend on scheduling, a chaos run **without shedding**
//! produces per-session gaze/volume/energy streams bit-identical to the
//! fault-free run: faults can only move timing.

use crate::report::FaultStats;
use crate::runtime::{FleetConfig, FleetOutcome, FleetRuntime, FleetState};
use bliss_serve::{
    RestoredSession, SessionConfig, SessionProgress, ShardCheckpoint, SnapshotError, StepOptions,
};
use bliss_tensor::TensorError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// One kind of injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// The host dies at the next batch boundary at or after the scheduled
    /// time; its sessions fail over from its newest good checkpoint.
    Crash,
    /// The host's inference launches run `factor`× slower for a virtual
    /// window of `duration_s` starting at the scheduled time.
    Slow {
        /// Cycle-budget multiplier (≥ 1).
        factor: f64,
        /// Window length in virtual seconds.
        duration_s: f64,
    },
    /// The host's next launch attempt stalls for `stall_s` (plus
    /// per-consecutive-timeout backoff) without executing; the batch
    /// retries on the following step.
    Timeout {
        /// Stall charged to the host clock, in virtual seconds.
        stall_s: f64,
    },
    /// The host's checkpoint medium goes bad: every periodic checkpoint
    /// written from the scheduled time on is truncated, forcing a later
    /// failover back onto the newest intact checkpoint. Replacing (or
    /// rejoining) the host restores a fresh medium.
    CorruptCheckpoint,
}

impl FaultKind {
    fn rank(&self) -> u8 {
        match self {
            FaultKind::Crash => 0,
            FaultKind::Slow { .. } => 1,
            FaultKind::Timeout { .. } => 2,
            FaultKind::CorruptCheckpoint => 3,
        }
    }

    /// Display label (appears in `BENCH_chaos.json`).
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::Crash => "crash",
            FaultKind::Slow { .. } => "slow",
            FaultKind::Timeout { .. } => "timeout",
            FaultKind::CorruptCheckpoint => "corrupt-checkpoint",
        }
    }
}

/// One scheduled fault: a kind aimed at a host at a virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Virtual time the fault comes due.
    pub at_s: f64,
    /// Target host.
    pub host: usize,
    /// What happens.
    pub kind: FaultKind,
}

/// How many faults of each kind [`FaultPlan::generate`] schedules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultMix {
    /// Host crashes.
    pub crashes: usize,
    /// Transient slow-host windows.
    pub slow_hosts: usize,
    /// Batch timeouts.
    pub timeouts: usize,
    /// Corrupt periodic checkpoints.
    pub corrupt_checkpoints: usize,
}

impl Default for FaultMix {
    fn default() -> Self {
        FaultMix {
            crashes: 1,
            slow_hosts: 1,
            timeouts: 1,
            corrupt_checkpoints: 1,
        }
    }
}

/// A seeded, replayable fault schedule.
///
/// The plan is *data*: generating it twice from the same arguments yields
/// identical events, and running it twice through
/// [`FleetRuntime::serve_chaos`] yields identical outcomes — the proptest
/// suite pins both.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// The seed the schedule was generated from (recorded for reports).
    pub seed: u64,
    /// Scheduled faults, sorted by `(at_s, host, kind)`.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// A plan with no faults (chaos plumbing, nominal behaviour).
    pub fn quiet() -> Self {
        FaultPlan {
            seed: 0,
            events: Vec::new(),
        }
    }

    /// Generates a deterministic schedule: `mix` faults spread over
    /// `(0.1..0.9) * horizon_s` across `hosts` hosts, from `seed` alone.
    ///
    /// `horizon_s` should approximate the fault-free run's virtual span so
    /// faults land while the fleet is busy; a fault scheduled after a host
    /// drains is a no-op (recorded as never triggered).
    pub fn generate(seed: u64, hosts: usize, horizon_s: f64, mix: &FaultMix) -> Self {
        assert!(hosts > 0, "a fault plan needs at least one host");
        assert!(
            horizon_s.is_finite() && horizon_s > 0.0,
            "horizon must be positive"
        );
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC4A0_5EED_F417_0000);
        let mut events = Vec::new();
        for _ in 0..mix.crashes {
            events.push(FaultEvent {
                at_s: rng.gen_range(0.15..0.75) * horizon_s,
                host: rng.gen_range(0..hosts),
                kind: FaultKind::Crash,
            });
        }
        for _ in 0..mix.slow_hosts {
            events.push(FaultEvent {
                at_s: rng.gen_range(0.1..0.6) * horizon_s,
                host: rng.gen_range(0..hosts),
                kind: FaultKind::Slow {
                    factor: 1.5 + rng.gen_range(0.0..2.5),
                    duration_s: rng.gen_range(0.1..0.3) * horizon_s,
                },
            });
        }
        for _ in 0..mix.timeouts {
            events.push(FaultEvent {
                at_s: rng.gen_range(0.1..0.8) * horizon_s,
                host: rng.gen_range(0..hosts),
                kind: FaultKind::Timeout {
                    stall_s: rng.gen_range(0.02..0.08) * horizon_s,
                },
            });
        }
        for _ in 0..mix.corrupt_checkpoints {
            events.push(FaultEvent {
                at_s: rng.gen_range(0.05..0.5) * horizon_s,
                host: rng.gen_range(0..hosts),
                kind: FaultKind::CorruptCheckpoint,
            });
        }
        // A total order so the schedule is independent of generation
        // bookkeeping: time, then host, then kind rank (stable sort keeps
        // same-key events in generation order, which is itself seeded).
        events.sort_by(|a, b| {
            a.at_s
                .total_cmp(&b.at_s)
                .then(a.host.cmp(&b.host))
                .then(a.kind.rank().cmp(&b.kind.rank()))
        });
        FaultPlan { seed, events }
    }

    /// Checks that every event can be injected into a fleet of `hosts`
    /// hosts: its host must exist, a slow factor must be a finite slowdown
    /// of at least 1 and a timeout stall finite and non-negative.
    /// [`FaultPlan::generate`] only schedules such events; a plan read from
    /// JSON may hold anything.
    fn check(&self, hosts: usize) -> Result<(), TensorError> {
        for (i, ev) in self.events.iter().enumerate() {
            let problem = match ev.kind {
                _ if ev.host >= hosts => format!("the fleet has {hosts} hosts"),
                FaultKind::Slow { factor, .. } if !(factor.is_finite() && factor >= 1.0) => {
                    format!("slow factor {factor} is not a finite slowdown >= 1")
                }
                FaultKind::Timeout { stall_s } if !(stall_s.is_finite() && stall_s >= 0.0) => {
                    format!("timeout stall {stall_s} s is not finite and non-negative")
                }
                _ => continue,
            };
            return Err(TensorError::InvalidArgument {
                op: "serve_chaos",
                message: format!("fault event {i} on host {}: {problem}", ev.host),
            });
        }
        Ok(())
    }
}

/// SLO-aware graceful degradation: when a host's recent deadline-miss rate
/// crosses `enter_miss_rate`, the host sheds load deterministically
/// ([`StepOptions::shed_period`](bliss_serve::StepOptions) — selected warm
/// frames skip host inference and hold the feedback-ROI gaze) until the
/// rate falls back to `exit_miss_rate` (hysteresis, so the ladder does not
/// flap).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DegradationPolicy {
    /// Sliding window of recently served frames the SLO is evaluated over.
    pub window_frames: usize,
    /// Miss-rate at/above which the host enters degraded mode.
    pub enter_miss_rate: f64,
    /// Miss-rate at/below which a degraded host recovers.
    pub exit_miss_rate: f64,
    /// Shed period while degraded: a warm frame whose
    /// `session id + frame index` is a multiple of this is shed.
    pub shed_period: usize,
}

impl Default for DegradationPolicy {
    fn default() -> Self {
        DegradationPolicy {
            window_frames: 16,
            enter_miss_rate: 0.5,
            exit_miss_rate: 0.125,
            shed_period: 2,
        }
    }
}

/// Virtual crash-detection + restore latency: a failed-over session's
/// replayed frames cannot complete before `crash + FAILOVER_DELAY_S`.
const FAILOVER_DELAY_S: f64 = 5e-3;
/// Extra stall added per consecutive timeout on the same host (retry
/// backoff).
const TIMEOUT_BACKOFF_S: f64 = 1e-3;

/// Everything one chaos run is parameterised by, beyond the fleet config.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosConfig {
    /// The seeded fault schedule.
    pub plan: FaultPlan,
    /// Batches between periodic per-host checkpoints (`0` disables the
    /// cadence; the initial state and post-failover handoffs are always
    /// checkpointed, so every host stays recoverable).
    pub checkpoint_interval: usize,
    /// SLO-aware load shedding; `None` never sheds (and makes the chaos
    /// run's accuracy outputs bit-identical to the fault-free run).
    pub degradation: Option<DegradationPolicy>,
}

impl ChaosConfig {
    /// A chaos run under `plan` with the default recovery parameters:
    /// checkpoint every 4 batches, 5 ms failover delay, 1 ms timeout
    /// backoff, no load shedding.
    pub fn new(plan: FaultPlan) -> Self {
        ChaosConfig {
            plan,
            checkpoint_interval: 4,
            degradation: None,
        }
    }
}

/// One fault the engine actually triggered, in trigger order — the replay
/// log two runs of the same plan must agree on bit-for-bit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InjectedFault {
    /// When the plan scheduled it.
    pub scheduled_s: f64,
    /// The batch-boundary virtual time it actually fired at.
    pub triggered_s: f64,
    /// Target host.
    pub host: usize,
    /// What fired.
    pub kind: FaultKind,
    /// Deterministic context (checkpoint used, sessions moved, parse
    /// errors swallowed during fallback, …).
    pub detail: String,
}

/// One point on the survival curve: fleet progress at a fault or terminal
/// boundary.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SurvivalPoint {
    /// Virtual time of the observation.
    pub t_s: f64,
    /// Frames recorded fleet-wide by then (replayed frames count once —
    /// they live in the recovered sessions' records).
    pub frames_done: usize,
    /// Hosts still alive.
    pub alive_hosts: usize,
}

/// The chaos-specific half of a [`ChaosOutcome`] — the `BENCH_chaos.json`
/// payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosReport {
    /// Seed of the fault plan that ran.
    pub plan_seed: u64,
    /// Fault/recovery counters.
    pub faults: FaultStats,
    /// Times a host entered degraded (shedding) mode.
    pub degraded_enters: usize,
    /// Per recovered session: virtual seconds from the crash to its first
    /// replayed frame's completion on the adoptive host (chronological by
    /// failover, then session id).
    pub recovery_latency_s: Vec<f64>,
    /// Fleet progress at start, at every crash, and at drain.
    pub survival: Vec<SurvivalPoint>,
    /// JSON bytes of the largest per-host checkpoint written (initial,
    /// periodic or handoff; a corrupt write counts at its full size).
    /// Checkpoints carry no weights, so this stays far below the model
    /// image's size.
    pub max_checkpoint_bytes: usize,
}

/// Everything a chaos run produces: the ordinary fleet outcome, the chaos
/// report (with the run's [`FaultStats`]) and the injected-fault log.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosOutcome {
    /// The fleet outcome (merged timeline, per-host outcomes, report).
    pub outcome: FleetOutcome,
    /// Fault/recovery/survival statistics.
    pub chaos: ChaosReport,
    /// Every fault that actually fired, in trigger order.
    pub log: Vec<InjectedFault>,
}

/// A stored per-host checkpoint.
struct Checkpoint {
    seq: usize,
    taken_s: f64,
    json: String,
    intact: bool,
}

/// Per-host engine state.
struct HostChaos {
    alive: bool,
    /// Pending faults for this host, front = next due.
    faults: std::collections::VecDeque<FaultEvent>,
    /// Active slow windows: (until_s, factor).
    slow_windows: Vec<(f64, f64)>,
    /// Stored checkpoints, oldest → newest.
    checkpoints: Vec<Checkpoint>,
    next_checkpoint_seq: usize,
    /// JSON bytes of the largest checkpoint written.
    max_checkpoint_bytes: usize,
    /// Checkpoint medium gone bad: periodic writes truncate until the host
    /// is replaced or rejoins.
    corrupt_writes: bool,
    batches_since_checkpoint: usize,
    consecutive_timeouts: usize,
    /// Sliding deadline-outcome window for the SLO ladder.
    slo_window: std::collections::VecDeque<bool>,
    degraded: bool,
}

impl HostChaos {
    /// A live host with a fresh checkpoint medium and `faults` pending.
    fn new(faults: std::collections::VecDeque<FaultEvent>) -> Self {
        HostChaos {
            alive: true,
            faults,
            slow_windows: Vec::new(),
            checkpoints: Vec::new(),
            next_checkpoint_seq: 0,
            max_checkpoint_bytes: 0,
            corrupt_writes: false,
            batches_since_checkpoint: 0,
            consecutive_timeouts: 0,
            slo_window: std::collections::VecDeque::new(),
            degraded: false,
        }
    }

    /// Keeps the checkpoint store small without ever dropping
    /// recoverability: corrupt entries older than the newest intact one are
    /// useless (a fallback scan would skip past them to the intact one),
    /// and intact entries beyond the newest three only lengthen the replay
    /// window.
    fn trim_checkpoints(&mut self) {
        if let Some(newest_intact_seq) = self
            .checkpoints
            .iter()
            .rev()
            .find(|c| c.intact)
            .map(|c| c.seq)
        {
            self.checkpoints
                .retain(|c| c.intact || c.seq > newest_intact_seq);
        }
        // A bad medium writes corrupt checkpoints every interval; keeping
        // the newest two is enough to prove the fallback path fired.
        while self.checkpoints.iter().filter(|c| !c.intact).count() > 2 {
            let oldest = self
                .checkpoints
                .iter()
                .position(|c| !c.intact)
                .expect("counted above");
            self.checkpoints.remove(oldest);
        }
        while self.checkpoints.iter().filter(|c| c.intact).count() > 3 {
            let oldest = self
                .checkpoints
                .iter()
                .position(|c| c.intact)
                .expect("counted above");
            self.checkpoints.remove(oldest);
        }
    }
}

/// A pending recovery-latency observation: resolved post-hoc against the
/// final traces (the replayed frame completes some batches after the
/// failover that scheduled it).
struct PendingRecovery {
    crash_s: f64,
    /// (session id, first frame index to replay).
    sessions: Vec<(usize, usize)>,
}

impl FleetRuntime {
    /// Serves [`FleetRuntime::session_configs`] under a fault plan:
    /// deterministic chaos with periodic checkpoints, snapshot-based
    /// failover, timeout retry/backoff and (optionally) SLO-aware load
    /// shedding. See `ARCHITECTURE.md` ("Fault model & recovery") for the
    /// fault taxonomy and the determinism argument.
    ///
    /// # Errors
    ///
    /// As [`FleetRuntime::serve_chaos_sessions`].
    pub fn serve_chaos(
        &self,
        cfg: &FleetConfig,
        chaos: &ChaosConfig,
    ) -> Result<ChaosOutcome, TensorError> {
        self.serve_chaos_sessions(cfg, chaos, self.session_configs(cfg))
    }

    /// [`FleetRuntime::serve_chaos`] over an explicit session population.
    ///
    /// # Errors
    ///
    /// [`TensorError::InvalidArgument`] before anything is served if the
    /// plan aims a fault at a host the fleet does not have, or holds a slow
    /// factor below 1 or a negative stall (or either non-finite); otherwise
    /// propagates tensor errors from inference.
    pub fn serve_chaos_sessions(
        &self,
        cfg: &FleetConfig,
        chaos: &ChaosConfig,
        sessions: Vec<SessionConfig>,
    ) -> Result<ChaosOutcome, TensorError> {
        chaos.plan.check(cfg.hosts)?;
        let mut state = self.start_sessions(cfg, sessions);
        // Every checkpoint names the shared model; hash it once.
        let digest = self.runtime.model_digest();
        let mut hosts: Vec<HostChaos> = (0..cfg.hosts)
            .map(|h| {
                let faults = chaos.plan.events.iter().filter(|e| e.host == h);
                HostChaos::new(faults.copied().collect())
            })
            .collect();
        // Checkpoint 0: the initial state, always intact — every host is
        // recoverable from the start.
        for h in 0..cfg.hosts {
            self.take_checkpoint(&state, digest, &mut hosts[h], h, 0.0, false);
        }

        let mut faults = FaultStats {
            checkpoints_taken: cfg.hosts,
            ..FaultStats::default()
        };
        let mut log: Vec<InjectedFault> = Vec::new();
        let mut pending_recoveries: Vec<PendingRecovery> = Vec::new();
        let mut degraded_enters = 0usize;
        let mut survival = vec![SurvivalPoint {
            t_s: 0.0,
            frames_done: 0,
            alive_hosts: cfg.hosts,
        }];

        loop {
            let mut advanced = false;
            for host in 0..cfg.hosts {
                if !hosts[host].alive {
                    continue;
                }
                let Some(start) = self.runtime.next_launch_start_s(&state.shards[host]) else {
                    continue;
                };
                // Consume due faults in schedule order. Slow/corrupt are
                // passive (the step still runs); a timeout consumes the
                // step; a crash consumes the host.
                let mut consumed_step = false;
                while let Some(&ev) = hosts[host].faults.front() {
                    if ev.at_s > start {
                        break;
                    }
                    hosts[host].faults.pop_front();
                    faults.faults_injected += 1;
                    match ev.kind {
                        FaultKind::Crash => {
                            let detail = self.fail_over(
                                cfg,
                                digest,
                                &mut state,
                                &mut hosts,
                                host,
                                start,
                                &mut faults,
                                &mut pending_recoveries,
                            );
                            log.push(InjectedFault {
                                scheduled_s: ev.at_s,
                                triggered_s: start,
                                host,
                                kind: ev.kind,
                                detail,
                            });
                            survival.push(SurvivalPoint {
                                t_s: start,
                                frames_done: state.frames_served(),
                                alive_hosts: hosts.iter().filter(|h| h.alive).count(),
                            });
                            consumed_step = true;
                            break;
                        }
                        FaultKind::Slow { factor, duration_s } => {
                            hosts[host]
                                .slow_windows
                                .push((ev.at_s + duration_s, factor));
                            log.push(InjectedFault {
                                scheduled_s: ev.at_s,
                                triggered_s: start,
                                host,
                                kind: ev.kind,
                                detail: format!("{factor:.3}x until {:.6}s", ev.at_s + duration_s),
                            });
                        }
                        FaultKind::Timeout { stall_s } => {
                            let backoff =
                                TIMEOUT_BACKOFF_S * hosts[host].consecutive_timeouts as f64;
                            let stall = stall_s + backoff;
                            hosts[host].consecutive_timeouts += 1;
                            faults.batch_timeouts += 1;
                            let free = self
                                .runtime
                                .stall_host(&mut state.shards[host], stall)
                                .expect("peeked above");
                            log.push(InjectedFault {
                                scheduled_s: ev.at_s,
                                triggered_s: start,
                                host,
                                kind: ev.kind,
                                detail: format!("stalled {stall:.6}s, retry at {free:.6}s"),
                            });
                            consumed_step = true;
                            break;
                        }
                        FaultKind::CorruptCheckpoint => {
                            hosts[host].corrupt_writes = true;
                            log.push(InjectedFault {
                                scheduled_s: ev.at_s,
                                triggered_s: start,
                                host,
                                kind: ev.kind,
                                detail: "periodic checkpoints truncate until host replacement"
                                    .into(),
                            });
                        }
                    }
                }
                if consumed_step {
                    advanced = true;
                    continue;
                }

                // Prune expired slow windows; dilate by the rest.
                hosts[host].slow_windows.retain(|&(until, _)| until > start);
                let dilation = hosts[host]
                    .slow_windows
                    .iter()
                    .fold(1.0, |d, &(_, f)| d * f);
                let shed_period = match (&chaos.degradation, hosts[host].degraded) {
                    (Some(p), true) => p.shed_period,
                    _ => 0,
                };
                let opts = StepOptions {
                    time_dilation: dilation,
                    shed_period,
                };
                bliss_telemetry::set_current_host(host as u32);
                let stats = self
                    .runtime
                    .step_batch_with(&state.serve, &mut state.shards[host], &opts)?
                    .expect("peeked a ready frame above");
                bliss_telemetry::set_current_host(0);
                advanced = true;
                hosts[host].consecutive_timeouts = 0;
                faults.frames_shed += stats.shed;

                // SLO ladder bookkeeping.
                if let Some(policy) = &chaos.degradation {
                    let hc = &mut hosts[host];
                    for i in 0..stats.served {
                        hc.slo_window.push_back(i < stats.deadline_misses);
                        while hc.slo_window.len() > policy.window_frames.max(1) {
                            hc.slo_window.pop_front();
                        }
                    }
                    let misses = hc.slo_window.iter().filter(|&&m| m).count();
                    let rate = misses as f64 / hc.slo_window.len().max(1) as f64;
                    if !hc.degraded
                        && hc.slo_window.len() >= policy.window_frames.max(1)
                        && rate >= policy.enter_miss_rate
                    {
                        hc.degraded = true;
                        degraded_enters += 1;
                    } else if hc.degraded && rate <= policy.exit_miss_rate {
                        hc.degraded = false;
                    }
                }

                // Periodic checkpoint cadence.
                hosts[host].batches_since_checkpoint += 1;
                if chaos.checkpoint_interval > 0
                    && hosts[host].batches_since_checkpoint >= chaos.checkpoint_interval
                {
                    let corrupt = hosts[host].corrupt_writes;
                    self.take_checkpoint(
                        &state,
                        digest,
                        &mut hosts[host],
                        host,
                        stats.host_free_s,
                        corrupt,
                    );
                    faults.checkpoints_taken += 1;
                }
            }
            if !advanced {
                break;
            }
        }

        // Resolve recovery latencies against the final traces.
        let outcome = self.finish(cfg, state);
        let mut recovery_latency_s = Vec::new();
        for pr in &pending_recoveries {
            for &(id, first_replay) in &pr.sessions {
                let completion = outcome.per_host.iter().find_map(|h| {
                    h.traces
                        .iter()
                        .find(|t| t.config.id == id)
                        .and_then(|t| t.records.get(first_replay))
                        .map(|r| r.completion_s)
                });
                if let Some(c) = completion {
                    recovery_latency_s.push((c - pr.crash_s).max(0.0));
                }
            }
        }

        let end_t = outcome.timeline.last().map_or(0.0, |e| e.time_s);
        survival.push(SurvivalPoint {
            t_s: end_t,
            frames_done: outcome.report.frames_total,
            alive_hosts: hosts.iter().filter(|h| h.alive).count(),
        });

        Ok(ChaosOutcome {
            chaos: ChaosReport {
                plan_seed: chaos.plan.seed,
                faults,
                degraded_enters,
                recovery_latency_s,
                survival,
                max_checkpoint_bytes: hosts
                    .iter()
                    .map(|h| h.max_checkpoint_bytes)
                    .max()
                    .unwrap_or(0),
            },
            log,
            outcome,
        })
    }

    /// Captures one host's shard as a checkpoint naming the model `digest`.
    /// A corrupt write truncates the payload so a later read genuinely
    /// fails to parse.
    fn take_checkpoint(
        &self,
        state: &FleetState,
        digest: u64,
        hc: &mut HostChaos,
        host: usize,
        taken_s: f64,
        corrupt: bool,
    ) {
        let mut json = self
            .runtime
            .checkpoint(&state.serve, &state.shards[host], digest)
            .to_json();
        hc.max_checkpoint_bytes = hc.max_checkpoint_bytes.max(json.len());
        if corrupt {
            json.truncate(json.len() / 2);
        }
        hc.checkpoints.push(Checkpoint {
            seq: hc.next_checkpoint_seq,
            taken_s,
            json,
            intact: !corrupt,
        });
        hc.next_checkpoint_seq += 1;
        hc.batches_since_checkpoint = 0;
        hc.trim_checkpoints();
    }

    /// Reads one stored checkpoint for failover: parses it, checks its
    /// version and that it names the model `digest`, and rebuilds every one
    /// of its sessions with feedback gates at `not_before_s`. Any failure
    /// makes the whole checkpoint unreadable.
    fn read_checkpoint(
        &self,
        json: &str,
        digest: u64,
        not_before_s: f64,
    ) -> Result<(ShardCheckpoint, Vec<RestoredSession>), SnapshotError> {
        let checkpoint = ShardCheckpoint::parse(json)?;
        checkpoint.verify(digest)?;
        let sessions = self
            .runtime
            .restore_sessions(&checkpoint.sessions, not_before_s)?;
        Ok((checkpoint, sessions))
    }

    /// Crash + failover: restore the dead host's sessions from its newest
    /// readable checkpoint, discard its live shard, re-place the sessions
    /// across the survivors (in place when none survive), and checkpoint
    /// every adopting host so the handoff is durable. Returns the
    /// deterministic detail string for the fault log.
    #[allow(clippy::too_many_arguments)]
    fn fail_over(
        &self,
        cfg: &FleetConfig,
        digest: u64,
        state: &mut FleetState,
        hosts: &mut [HostChaos],
        host: usize,
        crash_s: f64,
        faults: &mut FaultStats,
        pending: &mut Vec<PendingRecovery>,
    ) -> String {
        faults.failovers += 1;
        let live_progress: Vec<SessionProgress> = state.shards[host].progress();
        let not_before = crash_s + FAILOVER_DELAY_S;

        // Newest → oldest: the first checkpoint whose sessions all rebuild
        // wins, before anything of the live shard is touched. Unreadable
        // ones surface the host-context SnapshotError and fall through.
        let mut detail = String::new();
        let mut restored = None;
        for ck in hosts[host].checkpoints.iter().rev() {
            match self.read_checkpoint(&ck.json, digest, not_before) {
                Ok((snap, sessions)) => {
                    restored = Some((snap, sessions, ck.seq, ck.taken_s));
                    break;
                }
                Err(e) => {
                    faults.corrupt_checkpoint_reads += 1;
                    let err = SnapshotError::for_host(host, e);
                    detail.push_str(&format!("checkpoint {} unreadable ({err}); ", ck.seq));
                }
            }
        }
        let (snap, sessions, ck_seq, ck_taken) = restored.expect(
            "a readable checkpoint always exists (checkpoint 0 is never corrupted or trimmed)",
        );

        // Replay accounting: progress recorded live minus progress in the
        // checkpoint is re-served on the adoptive hosts.
        let mut replayed = 0usize;
        for ss in &snap.sessions {
            let live = live_progress
                .iter()
                .find(|p| p.id == ss.config.id)
                .map_or(0, |p| p.frames_served);
            replayed += live.saturating_sub(ss.records.len());
        }
        faults.frames_replayed += replayed;
        faults.sessions_recovered += snap.sessions.len();

        // Kill the shard. The dead host keeps an empty state so host
        // indices stay aligned; `alive` gates it out of stepping and
        // future fault targeting (a fault on a dead host is a no-op).
        let survivors: Vec<usize> = (0..cfg.hosts)
            .filter(|&h| h != host && hosts[h].alive)
            .collect();
        state.shards[host] = self.runtime.start_sessions(Vec::new());

        // Re-place the recovered sessions. With no survivors the host
        // restarts in place from its checkpoint — the "rejoin" case. Either
        // way the replacement hardware brings a fresh checkpoint medium.
        hosts[host].corrupt_writes = false;
        let targets: Vec<usize> = if survivors.is_empty() {
            vec![host]
        } else {
            hosts[host].alive = false;
            survivors
        };
        let configs: Vec<SessionConfig> = snap.sessions.iter().map(|s| s.config).collect();
        let routed = cfg.placement.assign(&configs, targets.len());
        let mut groups: Vec<Vec<RestoredSession>> = targets.iter().map(|_| Vec::new()).collect();
        let mut moved: Vec<(usize, usize)> = Vec::new(); // (session id, first replay frame)
        for ((session, ss), &ti) in sessions.into_iter().zip(&snap.sessions).zip(&routed) {
            // `records.len()` is the index of the next frame this session
            // will record — the first replayed frame.
            moved.push((ss.config.id, ss.records.len()));
            groups[ti].push(session);
        }
        for (&target, group) in targets.iter().zip(groups) {
            if group.is_empty() {
                continue;
            }
            self.runtime
                .adopt_sessions(&mut state.shards[target], group);
            // Handoff durability: the adoptive host checkpoints immediately
            // (always intact), so a second crash cannot lose the adopted
            // sessions.
            self.take_checkpoint(state, digest, &mut hosts[target], target, not_before, false);
            faults.checkpoints_taken += 1;
        }
        moved.sort_unstable();
        detail.push_str(&format!(
            "restored checkpoint {ck_seq} (taken {ck_taken:.6}s), {} sessions -> hosts {:?}, {replayed} frames to replay",
            moved.len(),
            targets
        ));
        pending.push(PendingRecovery {
            crash_s,
            sessions: moved,
        });
        detail
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PlacementPolicy;
    use bliss_sensor::PackedCodes;
    use bliss_track::{RoiPredictionNet, SparseViT};
    use blisscam_core::SystemConfig;

    fn fleet() -> FleetRuntime {
        let mut system = SystemConfig::miniature();
        system.vit.dim = 12;
        system.vit.enc_depth = 1;
        system.vit.dec_depth = 1;
        system.roi_net.hidden = 16;
        let mut rng = StdRng::seed_from_u64(0xC4EC);
        FleetRuntime::with_networks(
            system,
            SparseViT::new(&mut rng, system.vit),
            RoiPredictionNet::new(&mut rng, system.roi_net),
        )
    }

    #[test]
    fn failover_falls_back_past_a_checkpoint_that_parses_but_does_not_restore() {
        let fleet = fleet();
        let cfg = FleetConfig::new(2, PlacementPolicy::RoundRobin, 4, 4);
        let digest = fleet.serve_runtime().model_digest();
        type Breakage = fn(&mut ShardCheckpoint);
        let breakages: [(&str, Breakage); 2] = [
            ("checkpoint was taken on model", |ck| ck.model_digest ^= 1),
            ("feedback map", |ck| {
                let seg = &mut ck.sessions[1].front.prev_seg;
                *seg = PackedCodes::new(seg.codes()[1..].to_vec());
            }),
        ];
        for (needle, breakage) in breakages {
            let mut state = fleet.start(&cfg);
            let mut hosts: Vec<HostChaos> = (0..cfg.hosts)
                .map(|_| HostChaos::new(Default::default()))
                .collect();
            fleet.take_checkpoint(&state, digest, &mut hosts[0], 0, 0.0, false);
            assert!(fleet.step(&mut state).expect("step succeeds"));
            fleet.take_checkpoint(&state, digest, &mut hosts[0], 0, 1e-3, false);
            assert!(fleet.step(&mut state).expect("step succeeds"));
            // The newest entry parses but names another model or holds a
            // session that cannot restore.
            let mut bad = fleet
                .serve_runtime()
                .checkpoint(&state.serve, &state.shards[0], digest);
            breakage(&mut bad);
            let hc = &mut hosts[0];
            hc.checkpoints.push(Checkpoint {
                seq: hc.next_checkpoint_seq,
                taken_s: 2e-3,
                json: bad.to_json(),
                intact: true,
            });

            let mut faults = FaultStats::default();
            let mut pending = Vec::new();
            let detail = fleet.fail_over(
                &cfg,
                digest,
                &mut state,
                &mut hosts,
                0,
                3e-3,
                &mut faults,
                &mut pending,
            );
            assert_eq!(faults.corrupt_checkpoint_reads, 1, "{detail}");
            assert!(
                detail.starts_with("checkpoint 2 unreadable (host 0: ") && detail.contains(needle),
                "{detail}"
            );
            assert!(detail.contains("restored checkpoint 1"), "{detail}");
            // Host 0's two sessions moved to host 1 from checkpoint 1, one
            // batch behind: their second batch is replayed.
            assert_eq!(faults.sessions_recovered, 2);
            assert!(faults.frames_replayed > 0);
            assert_eq!(state.shards[0].progress().len(), 0);
            assert_eq!(state.shards[1].progress().len(), 4);
            assert!(!hosts[0].alive);
            while fleet.step(&mut state).expect("step succeeds") {}
            assert_eq!(state.frames_served(), 4 * 4);
        }
    }
}
