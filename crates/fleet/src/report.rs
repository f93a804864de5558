use crate::runtime::FleetConfig;
use bliss_serve::{LatencyStats, ServeOutcome, ServeReport};
use serde::{Deserialize, Serialize};

/// One gaze-output event in the fleet-wide merged timeline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FleetEvent {
    /// Completion (gaze-output) time in virtual seconds.
    pub time_s: f64,
    /// Host NPU that served the frame.
    pub host: usize,
    /// Owning session id.
    pub session: usize,
    /// Frame index within the session.
    pub frame: usize,
    /// End-to-end latency of the frame, seconds.
    pub latency_s: f64,
    /// Whether the frame missed its deadline.
    pub deadline_missed: bool,
}

/// One host shard's aggregate results.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HostReport {
    /// Host index within the fleet.
    pub host: usize,
    /// Sessions the placement policy routed here.
    pub sessions: usize,
    /// The shard's full serving report (latency percentiles, miss rate,
    /// throughput, energy, NPU utilisation).
    pub report: ServeReport,
}

/// Fault-injection and recovery counters of one fleet run. All-zero for a
/// fault-free run ([`FleetRuntime::serve`](crate::FleetRuntime::serve));
/// the chaos engine ([`crate::FleetRuntime::serve_chaos`]) fills them in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FaultStats {
    /// Faults the plan actually triggered (a fault aimed at an
    /// already-drained host is a no-op and does not count).
    pub faults_injected: usize,
    /// Host crashes recovered by snapshot-based failover.
    pub failovers: usize,
    /// Sessions moved onto surviving hosts by failover.
    pub sessions_recovered: usize,
    /// Frames re-served after failover (progress lost between the dead
    /// host's last good checkpoint and its crash).
    pub frames_replayed: usize,
    /// Frames shed by graceful degradation (served without host inference).
    pub frames_shed: usize,
    /// Batch launches that timed out and were retried with backoff.
    pub batch_timeouts: usize,
    /// Checkpoint reads during failover that failed to parse, named another
    /// model or held a session that would not restore.
    pub corrupt_checkpoint_reads: usize,
    /// Periodic per-host checkpoints taken.
    pub checkpoints_taken: usize,
}

impl FaultStats {
    /// Adds the counters to the telemetry registry's fault counters — the
    /// one place the two are matched up.
    pub fn record_telemetry(&self) {
        use bliss_telemetry::metrics as m;
        // Destructured in full, so a new counter must be matched up here.
        let FaultStats {
            faults_injected,
            failovers,
            sessions_recovered,
            frames_replayed,
            // The serve layer counts shed frames as it sheds them.
            frames_shed: _,
            batch_timeouts,
            corrupt_checkpoint_reads,
            checkpoints_taken,
        } = *self;
        for (counter, value) in [
            (&m::FAULTS_INJECTED, faults_injected),
            (&m::FAILOVERS, failovers),
            (&m::SESSIONS_RECOVERED, sessions_recovered),
            (&m::FRAMES_REPLAYED, frames_replayed),
            (&m::BATCH_TIMEOUTS, batch_timeouts),
            (&m::CORRUPT_CHECKPOINT_READS, corrupt_checkpoint_reads),
            (&m::CHECKPOINTS_TAKEN, checkpoints_taken),
        ] {
            counter.add(value as u64);
        }
    }
}

/// Aggregate results of one fleet run — the `BENCH_fleet.json` payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetReport {
    /// Host NPUs in the fleet.
    pub hosts: usize,
    /// Placement policy label (see [`crate::PlacementPolicy::label`]).
    pub policy: String,
    /// Sessions served fleet-wide.
    pub sessions: usize,
    /// Frames served fleet-wide.
    pub frames_total: usize,
    /// Latency percentiles across every frame of every host.
    pub latency: LatencyStats,
    /// Fraction of frames past their deadline, fleet-wide.
    pub deadline_miss_rate: f64,
    /// Served frames per virtual second over the fleet span (first arrival
    /// anywhere to last completion anywhere).
    pub throughput_fps: f64,
    /// Mean frames fused per host launch, fleet-wide.
    pub mean_batch_size: f64,
    /// Mean per-frame energy in microjoules.
    pub mean_energy_uj: f64,
    /// Mean host-NPU duty cycle across shards that served frames.
    pub mean_utilisation: f64,
    /// Per-host breakdowns (empty shards included, so host indices align).
    pub per_host: Vec<HostReport>,
    /// Fault-injection and recovery counters (all zero without chaos).
    pub faults: FaultStats,
}

impl FleetReport {
    /// Aggregates the per-host outcomes of one fleet run.
    ///
    /// `assignment` is the placement result (host index per admitted
    /// session); `timeline` is the merged event queue from
    /// [`merge_timelines`].
    pub fn from_hosts(
        cfg: &FleetConfig,
        assignment: &[usize],
        per_host: &[ServeOutcome],
        timeline: &[FleetEvent],
    ) -> Self {
        let mut all_latencies = Vec::new();
        let mut misses = 0usize;
        let mut frames_total = 0usize;
        let mut energy_j = 0.0f64;
        let mut inv_batch = 0.0f64;
        let mut first_arrival = f64::INFINITY;
        for outcome in per_host {
            for trace in &outcome.traces {
                for r in &trace.records {
                    all_latencies.push(r.latency_s);
                    misses += usize::from(r.deadline_missed);
                    frames_total += 1;
                    energy_j += r.energy_j;
                    inv_batch += 1.0 / r.batch_size as f64;
                    first_arrival = first_arrival.min(r.arrival_s);
                }
            }
        }
        let last_completion = timeline.last().map_or(f64::NEG_INFINITY, |e| e.time_s);
        let span_s = (last_completion - first_arrival).max(f64::MIN_POSITIVE);

        let per_host: Vec<HostReport> = per_host
            .iter()
            .enumerate()
            .map(|(host, outcome)| HostReport {
                host,
                sessions: outcome.traces.len(),
                report: outcome.report.clone(),
            })
            .collect();
        let busy: Vec<&HostReport> = per_host
            .iter()
            .filter(|h| h.report.frames_total > 0)
            .collect();
        let mean_utilisation =
            busy.iter().map(|h| h.report.utilisation).sum::<f64>() / busy.len().max(1) as f64;

        FleetReport {
            hosts: cfg.hosts,
            policy: cfg.placement.label().to_string(),
            sessions: assignment.len(),
            frames_total,
            latency: LatencyStats::from_latencies_s(&all_latencies),
            deadline_miss_rate: misses as f64 / frames_total.max(1) as f64,
            throughput_fps: if frames_total == 0 {
                0.0
            } else {
                frames_total as f64 / span_s
            },
            mean_batch_size: if inv_batch > 0.0 {
                frames_total as f64 / inv_batch
            } else {
                0.0
            },
            mean_energy_uj: energy_j / frames_total.max(1) as f64 * 1e6,
            mean_utilisation,
            per_host,
            faults: FaultStats::default(),
        }
    }
}

/// Merges the per-host completion records into one fleet-wide,
/// virtual-time-ordered stream.
///
/// Events are ordered by completion time, then host index, then session id,
/// then frame index — a total order, so simultaneous completions never
/// reorder between runs. The result is deterministic for a fixed fleet
/// configuration regardless of host count, thread pool or traversal order.
pub fn merge_timelines(per_host: &[ServeOutcome]) -> Vec<FleetEvent> {
    let mut events: Vec<FleetEvent> = per_host
        .iter()
        .enumerate()
        .flat_map(|(host, outcome)| {
            outcome.traces.iter().flat_map(move |t| {
                t.records.iter().map(move |r| FleetEvent {
                    time_s: r.completion_s,
                    host,
                    session: t.config.id,
                    frame: r.index,
                    latency_s: r.latency_s,
                    deadline_missed: r.deadline_missed,
                })
            })
        })
        .collect();
    events.sort_by(|a, b| {
        a.time_s
            .total_cmp(&b.time_s)
            .then(a.host.cmp(&b.host))
            .then(a.session.cmp(&b.session))
            .then(a.frame.cmp(&b.frame))
    });
    events
}
