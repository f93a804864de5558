//! Whole-fleet durable-serving snapshots.
//!
//! A [`FleetSnapshot`] freezes every host shard at a batch boundary by
//! composing one [`ServeSnapshot`] per host with the fleet's
//! session→host assignment and placement policy. All hosts are replicas of
//! one model, so [`FleetRuntime::restore`] rebuilds the shared runtime from
//! host 0's snapshot and only the per-shard scheduler/session states differ
//! between hosts. The restored fleet continues bit-identically to the
//! uninterrupted run — the same guarantee the serve layer makes, lifted
//! over the k-way shard composition (hosts are independent, so per-shard
//! bit-identity composes).
//!
//! The version field is checked before full deserialisation, exactly like
//! the serve layer's ([`bliss_serve::SNAPSHOT_VERSION`] governs both — the
//! per-host payloads embed their own version, and the fleet envelope
//! re-checks it at the top level so a stale file fails loudly at the door).

use crate::placement::PlacementPolicy;
use crate::runtime::{FleetConfig, FleetRuntime, FleetState};
use bliss_serve::{ServeSnapshot, SnapshotError, SNAPSHOT_VERSION};
use serde::{Deserialize, JsonValue, Serialize};

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
    /// Each host shard's full serving snapshot, indexed by host.
    pub per_host: Vec<ServeSnapshot>,
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
        let value = JsonValue::parse(json).map_err(SnapshotError::Json)?;
        let version_field = value.field("version").map_err(SnapshotError::Json)?;
        let version = u32::from_json_value(version_field).map_err(SnapshotError::Json)?;
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::Version {
                found: version,
                supported: SNAPSHOT_VERSION,
            });
        }
        Self::from_json_value(&value).map_err(SnapshotError::Json)
    }
}

impl FleetRuntime {
    /// Captures the fleet at its current batch boundaries.
    ///
    /// `cfg` must be the fleet configuration the run is stepping under.
    pub fn snapshot(&self, cfg: &FleetConfig, state: &FleetState) -> FleetSnapshot {
        FleetSnapshot {
            version: SNAPSHOT_VERSION,
            hosts: cfg.hosts,
            placement: cfg.placement,
            assignment: state.assignment.clone(),
            per_host: state
                .shard_cfgs
                .iter()
                .zip(&state.shards)
                .map(|(shard_cfg, shard)| self.serve_runtime().snapshot(shard_cfg, shard))
                .collect(),
        }
    }

    /// Rebuilds a fleet and its in-flight state from a snapshot.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Corrupt`] on an empty host list or weight shapes
    /// that do not match the recorded system configuration. Shard-level
    /// errors are wrapped in [`SnapshotError::Host`] with the offending
    /// host id (and, for per-session corruption, the session id inside),
    /// so a corrupt shard is diagnosable from the message alone.
    pub fn restore(
        snapshot: &FleetSnapshot,
    ) -> Result<(FleetRuntime, FleetConfig, FleetState), SnapshotError> {
        let first = snapshot.per_host.first().ok_or_else(|| {
            SnapshotError::Corrupt("fleet snapshot contains no host shards".into())
        })?;
        // All hosts are replicas of one model: build the shared runtime once
        // from host 0, then restore every shard's scheduler state against it.
        let runtime = bliss_serve::ServeRuntime::restore_runtime(first)
            .map_err(|e| SnapshotError::for_host(0, e))?;
        let mut shard_cfgs = Vec::with_capacity(snapshot.per_host.len());
        let mut shards = Vec::with_capacity(snapshot.per_host.len());
        for (host_id, host) in snapshot.per_host.iter().enumerate() {
            let shard = runtime
                .restore_state(host)
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
