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
    /// session). The fleet-wide statistics are one
    /// [`ServeReport::from_traces`] pass over every host's traces.
    pub fn from_hosts(cfg: &FleetConfig, assignment: &[usize], per_host: &[ServeOutcome]) -> Self {
        // Utilisation is a per-host quantity (averaged below), so the
        // fleet-wide pass gets no busy time.
        let fleet =
            ServeReport::from_traces(&cfg.serve, per_host.iter().flat_map(|o| &o.traces), 0.0);
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
            frames_total: fleet.frames_total,
            latency: fleet.latency,
            deadline_miss_rate: fleet.deadline_miss_rate,
            throughput_fps: fleet.throughput_fps,
            mean_batch_size: fleet.mean_batch_size,
            mean_energy_uj: fleet.mean_energy_uj,
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
