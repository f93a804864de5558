//! Whole-fleet durable-serving snapshots.
//!
//! A [`FleetSnapshot`] freezes every host shard at a batch boundary. All
//! hosts are replicas of one model, so it holds that model once, as a
//! [`ModelImage`], plus one weight-free [`ShardCheckpoint`] per host and the
//! fleet's session→host assignment and placement policy.
//! [`FleetRuntime::restore`] rebuilds the shared runtime from the image and
//! restores every shard against it, checking that each shard names the
//! image's digest. The restored fleet continues bit-identically to the
//! uninterrupted run — the same guarantee the serve layer makes, lifted
//! over the k-way shard composition (hosts are independent, so per-shard
//! bit-identity composes).
//!
//! The version field is checked before full deserialisation, exactly like
//! the serve layer's ([`bliss_serve::parse_versioned`];
//! [`bliss_serve::SNAPSHOT_VERSION`] governs both — each shard embeds its
//! own version, checked again when it is restored).

use crate::placement::PlacementPolicy;
use crate::runtime::{FleetConfig, FleetRuntime, FleetState};
use bliss_serve::{
    parse_versioned, ModelImage, ServeRuntime, ShardCheckpoint, SnapshotError, SNAPSHOT_VERSION,
};
use serde::{Deserialize, Serialize};

/// A whole fleet frozen at a batch boundary on every host.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetSnapshot {
    /// Wire-format version ([`SNAPSHOT_VERSION`]); checked before anything
    /// else on restore.
    pub version: u32,
    /// Host NPUs behind the load balancer.
    pub hosts: usize,
    /// How sessions map onto hosts.
    pub placement: PlacementPolicy,
    /// Session→host routing of the frozen run.
    pub assignment: Vec<usize>,
    /// The one model every host serves.
    pub model: ModelImage,
    /// Each host shard's checkpoint, indexed by host.
    pub per_host: Vec<ShardCheckpoint>,
}

impl FleetSnapshot {
    /// Parses a fleet snapshot from JSON, checking the envelope version
    /// **before** deserialising the rest.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Version`] on a version mismatch,
    /// [`SnapshotError::Json`] on malformed JSON.
    pub fn parse(json: &str) -> Result<Self, SnapshotError> {
        parse_versioned(json)
    }
}

impl FleetRuntime {
    /// Captures the fleet at its current batch boundaries.
    ///
    /// `cfg` must be the fleet configuration the run is stepping under.
    pub fn snapshot(&self, cfg: &FleetConfig, state: &FleetState) -> FleetSnapshot {
        let model = self.runtime.model_image();
        let digest = model.digest();
        FleetSnapshot {
            version: SNAPSHOT_VERSION,
            hosts: cfg.hosts,
            placement: cfg.placement,
            assignment: state.assignment.clone(),
            model,
            per_host: state
                .shard_cfgs
                .iter()
                .zip(&state.shards)
                .map(|(shard_cfg, shard)| self.runtime.checkpoint(shard_cfg, shard, digest))
                .collect(),
        }
    }

    /// Rebuilds a fleet and its in-flight state from a snapshot.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Corrupt`] on an empty host list, a `hosts` count
    /// other than the number of shards, an assignment that names a host
    /// past `hosts` or routes to a host other than the number of sessions
    /// its shard holds, or weight shapes that do not match the recorded
    /// system configuration. Shard-level errors — a shard naming another
    /// model ([`SnapshotError::ModelMismatch`]) or a corrupt session — are
    /// wrapped in [`SnapshotError::Host`] with the offending host id (and,
    /// for per-session corruption, the session id inside), so a corrupt
    /// shard is diagnosable from the message alone.
    pub fn restore(
        snapshot: &FleetSnapshot,
    ) -> Result<(FleetRuntime, FleetConfig, FleetState), SnapshotError> {
        let first = snapshot.per_host.first().ok_or_else(|| {
            SnapshotError::Corrupt("fleet snapshot contains no host shards".into())
        })?;
        let shards = snapshot.per_host.len();
        if snapshot.hosts != shards {
            return Err(SnapshotError::Corrupt(format!(
                "fleet snapshot names {} hosts but holds {shards} shards",
                snapshot.hosts
            )));
        }
        // Each host's shard holds exactly the sessions routed to it.
        let mut routed = vec![0usize; shards];
        for &host in &snapshot.assignment {
            *routed.get_mut(host).ok_or_else(|| {
                SnapshotError::Corrupt(format!("fleet assignment names host {host} of {shards}"))
            })? += 1;
        }
        for (host, (&n, shard)) in routed.iter().zip(&snapshot.per_host).enumerate() {
            if n != shard.sessions.len() {
                return Err(SnapshotError::Corrupt(format!(
                    "fleet assignment routes {n} sessions to host {host}, whose shard holds {}",
                    shard.sessions.len()
                )));
            }
        }
        // All hosts are replicas of one model: build the shared runtime once
        // (its precision from host 0's settings, which every shard shares),
        // then restore every shard's scheduler state against it.
        let runtime = ServeRuntime::restore_runtime(&snapshot.model, &first.serve)?;
        let digest = snapshot.model.digest();
        let mut shard_cfgs = Vec::with_capacity(snapshot.per_host.len());
        let mut shards = Vec::with_capacity(snapshot.per_host.len());
        for (host_id, host) in snapshot.per_host.iter().enumerate() {
            let shard = runtime
                .restore_state(host, digest)
                .map_err(|e| SnapshotError::for_host(host_id, e))?;
            shard_cfgs.push(host.serve);
            shards.push(shard);
        }
        let fleet = FleetRuntime { runtime };
        // The fleet-wide config: per-shard settings are identical except for
        // the session count, which is fleet-wide at this level.
        let mut serve = first.serve;
        serve.sessions = snapshot.assignment.len();
        let cfg = FleetConfig {
            hosts: snapshot.hosts,
            placement: snapshot.placement,
            serve,
        };
        let state = FleetState {
            assignment: snapshot.assignment.clone(),
            shard_cfgs,
            shards,
        };
        Ok((fleet, cfg, state))
    }
}
