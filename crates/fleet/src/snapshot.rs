//! Whole-fleet durable-serving snapshots.
//!
//! A [`FleetSnapshot`] freezes every host shard at a batch boundary. All
//! hosts are replicas of one model, so it holds that model once, as a
//! [`ModelImage`], plus one weight-free [`ShardCheckpoint`] per host and the
//! fleet's placement policy. Everything else is read off the shards: the
//! host count is the number of checkpoints, a session's host is the
//! checkpoint that holds it, and the fleet-wide session count is their sum.
//! [`FleetRuntime::restore`] rebuilds the shared runtime from the image and
//! restores every shard against it, checking that each shard names the
//! image's digest and shares host 0's scheduling parameters. The restored
//! fleet continues bit-identically to the uninterrupted run — the same
//! guarantee the serve layer makes, lifted over the k-way shard
//! composition (hosts are independent, so per-shard bit-identity
//! composes).
//!
//! The version field is checked before full deserialisation, exactly like
//! the serve layer's ([`bliss_serve::parse_versioned`];
//! [`bliss_serve::SNAPSHOT_VERSION`] governs both — each shard embeds its
//! own version, checked again when it is restored).

use crate::placement::PlacementPolicy;
use crate::runtime::{FleetConfig, FleetRuntime, FleetState};
use bliss_serve::{
    parse_versioned, ModelImage, ServeConfig, ServeRuntime, ShardCheckpoint, SnapshotError,
    SNAPSHOT_VERSION,
};
use serde::{Deserialize, Serialize};

/// A whole fleet frozen at a batch boundary on every host.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetSnapshot {
    /// Wire-format version ([`SNAPSHOT_VERSION`]); checked before anything
    /// else on restore.
    pub version: u32,
    /// How sessions map onto hosts.
    pub placement: PlacementPolicy,
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
            placement: cfg.placement,
            model,
            per_host: state
                .shards
                .iter()
                .map(|shard| self.runtime.checkpoint(&state.serve, shard, digest))
                .collect(),
        }
    }

    /// Rebuilds a fleet and its in-flight state from a snapshot.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Corrupt`] on an empty host list, a shard whose
    /// scheduling parameters (every [`ServeConfig`] field but `sessions`)
    /// differ from host 0's, or weight shapes that do not match the
    /// recorded system configuration. Shard-level errors — a shard naming
    /// another model ([`SnapshotError::ModelMismatch`]) or a corrupt
    /// session — are wrapped in [`SnapshotError::Host`] with the offending
    /// host id (and, for per-session corruption, the session id inside), so
    /// a corrupt shard is diagnosable from the message alone.
    pub fn restore(
        snapshot: &FleetSnapshot,
    ) -> Result<(FleetRuntime, FleetConfig, FleetState), SnapshotError> {
        let first = snapshot.per_host.first().ok_or_else(|| {
            SnapshotError::Corrupt("fleet snapshot contains no host shards".into())
        })?;
        // One config steps every shard, so every shard must have been
        // stepped under host 0's; only the session count is the shard's own.
        let serve = ServeConfig {
            sessions: snapshot.per_host.iter().map(|h| h.sessions.len()).sum(),
            ..first.serve
        };
        for (host, shard) in snapshot.per_host.iter().enumerate().skip(1) {
            let own = ServeConfig {
                sessions: serve.sessions,
                ..shard.serve
            };
            if own != serve {
                return Err(SnapshotError::Corrupt(format!(
                    "host {host} was stepped under {:?}, host 0 under {:?}",
                    shard.serve, first.serve
                )));
            }
        }
        // All hosts are replicas of one model: build the shared runtime once,
        // then restore every shard's scheduler state against it.
        let runtime = ServeRuntime::restore_runtime(&snapshot.model, &serve)?;
        let digest = snapshot.model.digest();
        let shards = snapshot
            .per_host
            .iter()
            .enumerate()
            .map(|(host, shard)| {
                runtime
                    .restore_state(shard, digest)
                    .map_err(|e| SnapshotError::for_host(host, e))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let cfg = FleetConfig {
            hosts: shards.len(),
            placement: snapshot.placement,
            serve,
        };
        let fleet = FleetRuntime { runtime };
        Ok((fleet, cfg, FleetState { serve, shards }))
    }
}
