//! Durable-serving snapshots: capture a run at a batch boundary, restore it
//! into a fresh process, continue bit-identically.
//!
//! A [`ServeSnapshot`] serialises only state that cannot be re-derived:
//!
//! * the trained network weights (as [`ParamSnapshot`]s in the stable
//!   [`bliss_nn::Module::parameters`] order) — the architectures themselves
//!   are rebuilt from the [`SystemConfig`];
//! * per-session dynamic state ([`SessionSnapshot`]): the front end's sensor
//!   memory/entropy and RNG position, scheduler progress, and the records
//!   served so far. The rendered eye sequence is **not** serialised — it is
//!   a pure function of `(system geometry, scenario, seed, frames)` and is
//!   re-rendered on restore;
//! * the scheduler clock (`host_free_s`/`host_busy_s`). The event queue is
//!   *not* serialised: at a batch boundary every entry is exactly
//!   `next_ready(session)`, so the restore rebuilds it.
//!
//! The wire format is the workspace `serde` layer's JSON; numbers round-trip
//! bit-exactly (raw-token parsing), which is what makes
//! restore-vs-uninterrupted **byte-identical**, not merely approximately
//! equal. A [`SNAPSHOT_VERSION`] field is checked *before* full
//! deserialisation so an incompatible snapshot fails loudly with
//! [`SnapshotError::Version`] instead of a confusing field error.

use crate::runtime::{ServeConfig, ServeRuntime, ServeState};
use crate::session::{FrameRecord, Session, SessionConfig};
use bliss_nn::{restore_params, snapshot_params, ParamSnapshot};
use bliss_track::{RoiPredictionNet, SparseViT};
use blisscam_core::{FrontEndSnapshot, SystemConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, JsonError, JsonValue, Serialize};
use std::error::Error;
use std::fmt;

/// The snapshot wire-format version this build writes and accepts.
///
/// Version history: `1` — the original durable-serving format; `2` —
/// [`crate::ServeConfig`] (embedded in every snapshot) gained
/// `warmup_frames`, changing the wire shape of the `serve` field; `3` —
/// `ServeConfig` gained `precision` (f32/int8). The int8 quantisation spec
/// itself is **never** serialised: restore re-derives it deterministically
/// from the restored weights and the fixed scenario-library calibration
/// set, which keeps the snapshot format independent of the quantiser's
/// internals; `4` — [`crate::FrameRecord`] (embedded per session) gained
/// `shed`, the graceful-degradation marker; `5` — `ServeConfig` lost its
/// batching-window field (batches gate on the host becoming free).
pub const SNAPSHOT_VERSION: u32 = 5;

/// Errors from restoring a serving snapshot.
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotError {
    /// The snapshot was written by an incompatible format version.
    Version {
        /// The version recorded in the snapshot.
        found: u32,
        /// The version this build supports.
        supported: u32,
    },
    /// The snapshot JSON failed to parse or deserialise.
    Json(JsonError),
    /// The snapshot parsed but its contents are inconsistent (e.g. weight
    /// shapes that do not match the recorded system configuration).
    Corrupt(String),
    /// The error arose restoring a specific fleet host's shard — the fleet
    /// layer wraps the shard's underlying error with the host id so a
    /// corrupt shard is diagnosable from the message alone.
    Host {
        /// The host whose shard failed to restore.
        host: usize,
        /// The shard-level error.
        source: Box<SnapshotError>,
    },
}

impl SnapshotError {
    /// Wraps an error with the fleet host whose shard it arose in.
    pub fn for_host(host: usize, source: SnapshotError) -> Self {
        SnapshotError::Host {
            host,
            source: Box::new(source),
        }
    }
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Version { found, supported } => write!(
                f,
                "unsupported snapshot version {found} (this build supports {supported})"
            ),
            SnapshotError::Json(e) => write!(f, "snapshot JSON error: {e}"),
            SnapshotError::Corrupt(msg) => write!(f, "corrupt snapshot: {msg}"),
            SnapshotError::Host { host, source } => write!(f, "host {host}: {source}"),
        }
    }
}

impl Error for SnapshotError {}

/// One session's dynamic state at a batch boundary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionSnapshot {
    /// The session's identity/workload (re-renders the trace on restore).
    pub config: SessionConfig,
    /// The sparse front end's dynamic state.
    pub front: FrontEndSnapshot,
    /// Next sequence frame to sense.
    pub next_frame: usize,
    /// Completion time of the previously served frame (feedback gate), or
    /// `None` when the session has not served one yet. Optional because the
    /// live sentinel is `-inf`, which JSON cannot carry.
    pub prev_completion_s: Option<f64>,
    /// Frames served so far, verbatim.
    pub records: Vec<FrameRecord>,
}

/// A whole serving run frozen at a batch boundary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeSnapshot {
    /// Wire-format version ([`SNAPSHOT_VERSION`] when written by this
    /// build); checked before anything else on restore.
    pub version: u32,
    /// The executable-scale system configuration.
    pub system: SystemConfig,
    /// Whether the runtime accounted latency at the paper's hardware point.
    pub paper_scale_timing: bool,
    /// The run's scheduling parameters.
    pub serve: ServeConfig,
    /// Sparse-ViT weights in stable parameter order.
    pub vit_params: Vec<ParamSnapshot>,
    /// ROI-net weights in stable parameter order.
    pub roi_params: Vec<ParamSnapshot>,
    /// Virtual time at which the host NPU next becomes free.
    pub host_free_s: f64,
    /// Cumulative virtual time the host has spent executing launches.
    pub host_busy_s: f64,
    /// Per-session dynamic state.
    pub sessions: Vec<SessionSnapshot>,
}

impl ServeSnapshot {
    /// Parses a snapshot from JSON, checking the version field **before**
    /// deserialising the rest.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Version`] on a version mismatch,
    /// [`SnapshotError::Json`] on malformed JSON or a shape that does not
    /// deserialise.
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

impl ServeRuntime {
    /// Captures the run at its current batch boundary.
    ///
    /// `cfg` must be the same scheduling configuration the run is stepping
    /// under — it is recorded so [`ServeRuntime::restore`] can resume with
    /// identical batching decisions.
    pub fn snapshot(&self, cfg: &ServeConfig, state: &ServeState) -> ServeSnapshot {
        ServeSnapshot {
            version: SNAPSHOT_VERSION,
            system: self.system,
            paper_scale_timing: self.scaled_timing,
            serve: *cfg,
            vit_params: snapshot_params(&self.vit),
            roi_params: snapshot_params(&self.roi_net),
            host_free_s: state.host_free_s,
            host_busy_s: state.host_busy_s,
            sessions: state
                .sessions
                .iter()
                .map(|s| SessionSnapshot {
                    config: s.config,
                    front: s.front.snapshot(),
                    next_frame: s.next_frame,
                    prev_completion_s: s
                        .prev_completion_s
                        .is_finite()
                        .then_some(s.prev_completion_s),
                    records: s.records.clone(),
                })
                .collect(),
        }
    }

    /// Rebuilds a runtime and its in-flight state from a snapshot:
    /// [`ServeRuntime::restore_runtime`] followed by
    /// [`ServeRuntime::restore_state`]. Stepping the result produces
    /// bit-identical traces to the uninterrupted run.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Corrupt`] if the weight shapes or the session states
    /// do not match the recorded system configuration.
    pub fn restore(
        snapshot: &ServeSnapshot,
    ) -> Result<(ServeRuntime, ServeConfig, ServeState), SnapshotError> {
        let runtime = Self::restore_runtime(snapshot)?;
        let state = runtime.restore_state(snapshot)?;
        Ok((runtime, snapshot.serve, state))
    }

    /// Rebuilds the runtime a snapshot was taken on, without its sessions.
    ///
    /// The networks are reconstructed at the recorded [`SystemConfig`]'s
    /// architecture and overwritten with the snapshotted weights; timing
    /// scale and precision state (including the int8 spec) are re-derived.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Corrupt`] if the weight shapes do not match the
    /// recorded system configuration.
    pub fn restore_runtime(snapshot: &ServeSnapshot) -> Result<ServeRuntime, SnapshotError> {
        // Architectures from config; weights from the snapshot. The seed
        // only initialises weights that are immediately overwritten.
        let mut rng = StdRng::seed_from_u64(snapshot.system.seed);
        let vit = SparseViT::new(&mut rng, snapshot.system.vit);
        let roi_net = RoiPredictionNet::new(&mut rng, snapshot.system.roi_net);
        restore_params(&vit, &snapshot.vit_params)
            .map_err(|e| SnapshotError::Corrupt(format!("sparse-ViT weights: {e}")))?;
        restore_params(&roi_net, &snapshot.roi_params)
            .map_err(|e| SnapshotError::Corrupt(format!("ROI-net weights: {e}")))?;
        let mut runtime = ServeRuntime::with_networks(snapshot.system, vit, roi_net);
        if snapshot.paper_scale_timing {
            runtime = runtime.with_paper_scale_timing();
        }
        // Re-derive the precision state (including the int8 calibration
        // spec, when configured) from the restored weights — deterministic,
        // so the restored runtime's plans are bit-identical to the
        // interrupted one's.
        runtime
            .apply_precision(&snapshot.serve)
            .map_err(|e| SnapshotError::Corrupt(format!("precision restore: {e}")))?;
        Ok(runtime)
    }

    /// Restores a snapshot's in-flight state against this runtime: each
    /// session re-renders its trace from its config (pure function of the
    /// seeds), sessions in parallel, and then overwrites the front end's
    /// dynamic state; the event queue is rebuilt from per-session progress.
    ///
    /// The snapshot's weights are not read: the caller guarantees this
    /// runtime serves them (it came from [`ServeRuntime::restore_runtime`]
    /// on this snapshot, or on a replica host's snapshot of the same run).
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Corrupt`] if the snapshot was taken on a different
    /// system or timing scale, or a session's state does not match this
    /// runtime's geometry.
    pub fn restore_state(&self, snapshot: &ServeSnapshot) -> Result<ServeState, SnapshotError> {
        if snapshot.system != self.system || snapshot.paper_scale_timing != self.scaled_timing {
            return Err(SnapshotError::Corrupt(
                "snapshot was taken on a different system configuration".into(),
            ));
        }
        let mut state = ServeState {
            sessions: self.restore_sessions(&snapshot.sessions, f64::NEG_INFINITY)?,
            heap: std::collections::BinaryHeap::new(),
            host_free_s: snapshot.host_free_s,
            host_busy_s: snapshot.host_busy_s,
        };
        self.rebuild_heap(&mut state);
        Ok(state)
    }

    /// Adopts sessions frozen in another runtime's snapshot into a live
    /// state — the failover primitive: a crashed host's sessions, restored
    /// from its last checkpoint, resume on a surviving host.
    ///
    /// Each adopted session re-renders its trace, restores its front-end
    /// state and keeps its pre-checkpoint records verbatim (so the merged
    /// fleet timeline stays complete); its feedback gate is pushed to at
    /// least `not_before_s` — the crash detection + restore latency — so
    /// replayed frames cannot complete before the failover that caused
    /// them. The event queue is rebuilt to include the newcomers.
    ///
    /// The caller must guarantee the snapshots came from a runtime serving
    /// the **same system and weights** (in this workspace, every fleet host
    /// shares one model replica); only per-session geometry is validated
    /// here.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Corrupt`] naming the offending session when its
    /// front-end state does not match this runtime's geometry.
    pub fn adopt_sessions(
        &self,
        state: &mut ServeState,
        snaps: &[SessionSnapshot],
        not_before_s: f64,
    ) -> Result<(), SnapshotError> {
        let adopted = self.restore_sessions(snaps, not_before_s)?;
        state.sessions.extend(adopted);
        self.rebuild_heap(state);
        Ok(())
    }

    /// Rebuilds `snaps` as live sessions in parallel on the pool (in
    /// snapshot order, so the result is the same for any thread count),
    /// with each feedback gate pushed to at least `not_before_s`. The first
    /// invalid snapshot in order decides the error.
    fn restore_sessions(
        &self,
        snaps: &[SessionSnapshot],
        not_before_s: f64,
    ) -> Result<Vec<Session>, SnapshotError> {
        let system = &self.system;
        bliss_parallel::par_map_collect(snaps.len(), |i| {
            let mut session = restore_session(&snaps[i], system)?;
            session.prev_completion_s = session.prev_completion_s.max(not_before_s);
            Ok(session)
        })
        .into_iter()
        .collect()
    }
}

/// Rebuilds one live session from its snapshot: re-renders the trace,
/// primes the front end exactly as the original run did, then overwrites
/// the dynamic state. Validates the snapshot against the system geometry
/// first, naming the session in any error.
fn restore_session(
    snap: &SessionSnapshot,
    system: &SystemConfig,
) -> Result<Session, SnapshotError> {
    let pixels = system.pixels();
    if snap.front.prev_seg.len() != pixels {
        return Err(SnapshotError::Corrupt(format!(
            "session {} ({:?}): feedback map holds {} pixels, system expects {}",
            snap.config.id,
            snap.config.scenario,
            snap.front.prev_seg.len(),
            pixels
        )));
    }
    // The rendered sequence holds `frames + 1` entries (frame 0 primes the
    // sensor), so a drained session sits at `next_frame == frames + 1`.
    if snap.next_frame == 0 || snap.next_frame > snap.config.frames + 1 {
        return Err(SnapshotError::Corrupt(format!(
            "session {}: next_frame {} outside 1..={}",
            snap.config.id,
            snap.next_frame,
            snap.config.frames + 1
        )));
    }
    if snap.records.len() != snap.next_frame - 1 {
        return Err(SnapshotError::Corrupt(format!(
            "session {}: {} records but {} frames served",
            snap.config.id,
            snap.records.len(),
            snap.next_frame - 1
        )));
    }
    // The sensor and front end assert these on restore; a snapshot from
    // outside the process must fail with a typed error instead.
    let sensor = &snap.front.sensor;
    for (name, buf) in [("held", &sensor.held), ("current", &sensor.current)] {
        if let Some(buf) = buf.as_ref().filter(|b| b.len() != pixels) {
            return Err(SnapshotError::Corrupt(format!(
                "session {}: sensor {name} frame holds {} pixels, system expects {pixels}",
                snap.config.id,
                buf.len()
            )));
        }
    }
    for (name, state) in [("SRAM", sensor.sram_rng), ("imaging-noise", snap.front.rng)] {
        if state == [0; 4] {
            return Err(SnapshotError::Corrupt(format!(
                "session {}: all-zero {name} RNG state",
                snap.config.id
            )));
        }
    }
    let mut session = Session::new(snap.config, system);
    session.front.restore(&snap.front);
    session.next_frame = snap.next_frame;
    session.prev_completion_s = snap.prev_completion_s.unwrap_or(f64::NEG_INFINITY);
    session.records = snap.records.clone();
    Ok(session)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runtime(system: SystemConfig) -> ServeRuntime {
        let mut rng = StdRng::seed_from_u64(system.seed);
        let vit = SparseViT::new(&mut rng, system.vit);
        let roi_net = RoiPredictionNet::new(&mut rng, system.roi_net);
        ServeRuntime::with_networks(system, vit, roi_net)
    }

    /// A small runtime and a snapshot of it after one served batch.
    fn stepped_snapshot() -> (ServeRuntime, ServeSnapshot) {
        let mut system = SystemConfig::miniature();
        system.vit.dim = 12;
        system.vit.enc_depth = 1;
        system.vit.dec_depth = 1;
        system.roi_net.hidden = 16;
        let rt = runtime(system);
        let cfg = ServeConfig::new(3, 3);
        let mut state = rt.start(&cfg);
        assert!(rt.step_batch(&cfg, &mut state).expect("step succeeds"));
        let snap = rt.snapshot(&cfg, &state);
        (rt, snap)
    }

    fn assert_corrupt(rt: &ServeRuntime, snap: &ServeSnapshot, needle: &str) {
        match rt.restore_state(snap) {
            Err(SnapshotError::Corrupt(msg)) => assert!(msg.contains(needle), "{msg}"),
            other => panic!("expected a Corrupt error naming {needle:?}, got {other:?}"),
        }
    }

    #[test]
    fn restore_rejects_a_sensor_frame_of_the_wrong_length() {
        let (rt, snap) = stepped_snapshot();
        for held in [true, false] {
            let mut bad = snap.clone();
            let sensor = &mut bad.sessions[1].front.sensor;
            let buf = if held {
                &mut sensor.held
            } else {
                &mut sensor.current
            };
            buf.as_mut().expect("a stepped session holds frames").pop();
            assert_corrupt(&rt, &bad, if held { "held" } else { "current" });
        }
    }

    #[test]
    fn restore_rejects_an_all_zero_rng_state() {
        let (rt, snap) = stepped_snapshot();
        let mut bad = snap.clone();
        bad.sessions[0].front.sensor.sram_rng = [0; 4];
        assert_corrupt(&rt, &bad, "SRAM");
        let mut bad = snap;
        bad.sessions[2].front.rng = [0; 4];
        assert_corrupt(&rt, &bad, "imaging-noise");
    }

    #[test]
    fn restore_state_round_trips_and_rejects_another_system() {
        let (rt, snap) = stepped_snapshot();
        let cfg = snap.serve;

        let restored = rt.restore_state(&snap).expect("same system restores");
        assert_eq!(rt.snapshot(&cfg, &restored), snap);

        let mut other = snap.system;
        other.seed ^= 1;
        let err = runtime(other)
            .restore_state(&snap)
            .expect_err("another system's snapshot must not restore");
        assert!(matches!(err, SnapshotError::Corrupt(_)), "{err:?}");
    }
}
