use crate::placement::PlacementPolicy;
use crate::report::{merge_timelines, FleetEvent, FleetReport};
use bliss_serve::{ServeConfig, ServeOutcome, ServeRuntime, ServeState, SessionConfig};
use bliss_tensor::TensorError;
use bliss_track::{RoiPredictionNet, SparseViT};
use blisscam_core::SystemConfig;
use serde::{Deserialize, Serialize};

/// Load, sharding and scheduling parameters of one fleet run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FleetConfig {
    /// Host NPUs behind the load balancer.
    pub hosts: usize,
    /// How sessions map onto hosts.
    pub placement: PlacementPolicy,
    /// Per-shard serving parameters; `serve.sessions` is the **fleet-wide**
    /// session count (the placement policy decides who lands where).
    pub serve: ServeConfig,
}

impl FleetConfig {
    /// A fleet load point at the paper's 120 FPS tracking rate: `sessions`
    /// concurrent sessions of `frames` frames each, sharded across `hosts`
    /// hosts by `placement`, with each shard running the serve layer's
    /// default work-conserving batching.
    pub fn new(hosts: usize, placement: PlacementPolicy, sessions: usize, frames: usize) -> Self {
        FleetConfig {
            hosts,
            placement,
            serve: ServeConfig::new(sessions, frames),
        }
    }
}

/// Resumable state of one in-flight fleet run: every host shard's scheduler
/// state plus the session→host assignment.
///
/// Produced by [`FleetRuntime::start`], advanced by [`FleetRuntime::step`]
/// (one fused batch on every unfinished host per call — hosts are
/// independent hardware, so the relative stepping order cannot affect any
/// shard's results), and folded into the final [`FleetOutcome`] by
/// [`FleetRuntime::finish`]. Between steps the fleet sits at a batch
/// boundary on every host — the instants [`FleetRuntime::snapshot`]
/// captures.
#[derive(Debug)]
pub struct FleetState {
    pub(crate) assignment: Vec<usize>,
    pub(crate) shard_cfgs: Vec<ServeConfig>,
    pub(crate) shards: Vec<ServeState>,
}

impl FleetState {
    /// Total frames served so far across every host.
    pub fn frames_served(&self) -> usize {
        self.shards.iter().map(|s| s.frames_served()).sum()
    }

    /// Whether every host's shard has drained.
    pub fn is_done(&self) -> bool {
        self.shards.iter().all(|s| s.is_done())
    }
}

/// Everything a fleet run produces.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetOutcome {
    /// Aggregate + per-host statistics.
    pub report: FleetReport,
    /// Each host shard's full serving outcome, indexed by host.
    pub per_host: Vec<ServeOutcome>,
    /// The fleet-wide merged completion-event timeline (see
    /// [`merge_timelines`]).
    pub timeline: Vec<FleetEvent>,
}

/// The multi-host sharded serving fleet.
///
/// One trained BlissCam model replica is shared by `M` simulated host NPUs
/// behind a load balancer: a [`PlacementPolicy`] routes each admitted
/// session to a host, every host runs the full [`ServeRuntime`]
/// virtual-time scheduler over its shard (cross-session batching included),
/// and the per-host event queues are k-way merged into one deterministic
/// fleet timeline. Hosts are independent NPUs — no virtual time flows
/// between shards — so fleet throughput scales with `M` until the per-host
/// shard drops below the single-host saturation knee.
///
/// Determinism inherits from the serve layer: every session's
/// accuracy/volume/energy outputs are bit-identical to a solo run, and the
/// whole [`FleetOutcome`] is bit-identical for a fixed
/// `(sessions, hosts, policy, seed)` on any thread pool.
///
/// Compiled inference plans are **shared across hosts**: every shard serves
/// through the same model replica, whose plan cache is keyed only by batch
/// span layout — so a plan compiled while serving host 0's shard is a pure
/// cache hit when host 5 sees the same layout, and fleet-wide compilation
/// cost stays that of a single host (see
/// [`ServeRuntime::vit_plan_stats`]).
#[derive(Debug)]
pub struct FleetRuntime {
    pub(crate) runtime: ServeRuntime,
}

impl FleetRuntime {
    /// Trains the shared networks for `system` (seconds at miniature scale)
    /// and prepares the fleet.
    ///
    /// # Errors
    ///
    /// Propagates tensor errors from training.
    pub fn new(system: SystemConfig) -> Result<Self, TensorError> {
        Ok(FleetRuntime {
            runtime: ServeRuntime::new(system)?,
        })
    }

    /// Wraps already-trained networks (shares parameters, no copy).
    ///
    /// # Examples
    ///
    /// A runnable smoke-scale fleet — untrained miniature networks (accuracy
    /// is meaningless, scheduling is exact), 4 sessions on 2 hosts:
    ///
    /// ```
    /// use bliss_fleet::{FleetConfig, FleetRuntime, PlacementPolicy};
    /// use bliss_track::{RoiPredictionNet, SparseViT};
    /// use blisscam_core::SystemConfig;
    /// use rand::{rngs::StdRng, SeedableRng};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut system = SystemConfig::miniature();
    /// system.vit.dim = 12;
    /// system.vit.enc_depth = 1;
    /// system.vit.dec_depth = 1;
    /// system.roi_net.hidden = 16;
    /// let mut rng = StdRng::seed_from_u64(7);
    /// let fleet = FleetRuntime::with_networks(
    ///     system,
    ///     SparseViT::new(&mut rng, system.vit),
    ///     RoiPredictionNet::new(&mut rng, system.roi_net),
    /// );
    /// let cfg = FleetConfig::new(2, PlacementPolicy::RoundRobin, 4, 2);
    /// let outcome = fleet.serve(&cfg)?;
    /// assert_eq!(outcome.report.hosts, 2);
    /// assert_eq!(outcome.report.frames_total, 4 * 2);
    /// assert_eq!(outcome.timeline.len(), 4 * 2);
    /// # Ok(())
    /// # }
    /// ```
    pub fn with_networks(system: SystemConfig, vit: SparseViT, roi_net: RoiPredictionNet) -> Self {
        FleetRuntime {
            runtime: ServeRuntime::with_networks(system, vit, roi_net),
        }
    }

    /// Switches every host's latency accounting to the paper's hardware
    /// point (640x400 @ 120 FPS, ViT-S host on a 7 nm NPU); see
    /// `ServeRuntime::with_paper_scale_timing`.
    pub fn with_paper_scale_timing(mut self) -> Self {
        self.runtime = self.runtime.with_paper_scale_timing();
        self
    }

    /// The per-host serving runtime (all hosts are identical replicas).
    pub fn serve_runtime(&self) -> &ServeRuntime {
        &self.runtime
    }

    /// The deterministic fleet-wide session population for a load point
    /// (scenarios round-robin, seeds and arrival offsets derived per id) —
    /// the same population a single [`ServeRuntime`] would admit, so
    /// single-host and fleet runs are directly comparable.
    pub fn session_configs(&self, cfg: &FleetConfig) -> Vec<SessionConfig> {
        self.runtime.session_configs(&cfg.serve)
    }

    /// Serves the full fleet of [`FleetRuntime::session_configs`].
    ///
    /// # Errors
    ///
    /// Propagates tensor errors from inference.
    pub fn serve(&self, cfg: &FleetConfig) -> Result<FleetOutcome, TensorError> {
        self.serve_sessions(cfg, self.session_configs(cfg))
    }

    /// Shards an explicit session population across the fleet's hosts and
    /// serves every shard.
    ///
    /// # Errors
    ///
    /// Propagates tensor errors from inference.
    pub fn serve_sessions(
        &self,
        cfg: &FleetConfig,
        sessions: Vec<SessionConfig>,
    ) -> Result<FleetOutcome, TensorError> {
        let mut state = self.start_sessions(cfg, sessions);
        while self.step(&mut state)? {}
        Ok(self.finish(cfg, state))
    }

    /// Starts a resumable fleet run over [`FleetRuntime::session_configs`].
    pub fn start(&self, cfg: &FleetConfig) -> FleetState {
        self.start_sessions(cfg, self.session_configs(cfg))
    }

    /// Starts a resumable run over an explicit session population: routes
    /// every session to its host and primes each shard's scheduler.
    ///
    /// Each host runs its shard under the shard-sized serve config. Hosts
    /// are independent hardware; the shared model parameters are read-only,
    /// so shard order cannot affect results — the determinism suite pins
    /// this.
    pub fn start_sessions(&self, cfg: &FleetConfig, sessions: Vec<SessionConfig>) -> FleetState {
        // One shared model serves every shard, so the precision state (and
        // any int8 calibration it needs) is established once fleet-wide; an
        // int8 precision error surfaces at the first step instead of here.
        let _ = self.runtime.apply_precision(&cfg.serve);
        let assignment = cfg.placement.assign(&sessions, cfg.hosts);
        let mut shards: Vec<Vec<SessionConfig>> = vec![Vec::new(); cfg.hosts];
        for (sc, &host) in sessions.iter().zip(&assignment) {
            shards[host].push(*sc);
        }
        let mut shard_cfgs = Vec::with_capacity(cfg.hosts);
        let mut states = Vec::with_capacity(cfg.hosts);
        for shard in shards {
            let mut shard_cfg = cfg.serve;
            shard_cfg.sessions = shard.len();
            states.push(self.runtime.start_sessions(shard));
            shard_cfgs.push(shard_cfg);
        }
        FleetState {
            assignment,
            shard_cfgs,
            shards: states,
        }
    }

    /// Advances every unfinished host shard by one fused batch. Returns
    /// `false` once the whole fleet has drained (nothing was executed).
    ///
    /// # Errors
    ///
    /// Propagates tensor errors from inference.
    pub fn step(&self, state: &mut FleetState) -> Result<bool, TensorError> {
        let mut advanced = false;
        for (host, (shard_cfg, shard)) in state
            .shard_cfgs
            .iter()
            .zip(state.shards.iter_mut())
            .enumerate()
        {
            // Shards step serially on this thread, so the ambient host id
            // tags every span the shard's batch emits. Telemetry-only: the
            // scheduler never reads it back.
            bliss_telemetry::set_current_host(host as u32);
            advanced |= self.runtime.step_batch(shard_cfg, shard)?;
        }
        bliss_telemetry::set_current_host(0);
        Ok(advanced)
    }

    /// Folds a drained (or deliberately abandoned) fleet run into its
    /// outcome.
    pub fn finish(&self, cfg: &FleetConfig, state: FleetState) -> FleetOutcome {
        let per_host: Vec<ServeOutcome> = state
            .shard_cfgs
            .iter()
            .zip(state.shards)
            .map(|(shard_cfg, shard)| self.runtime.finish(shard_cfg, shard))
            .collect();
        let timeline = merge_timelines(&per_host);
        let report = FleetReport::from_hosts(cfg, &state.assignment, &per_host);
        FleetOutcome {
            report,
            per_host,
            timeline,
        }
    }
}
