//! Durable-serving snapshots: capture a run at a batch boundary, restore it
//! into a fresh process, continue bit-identically.
//!
//! The wire format has two parts, because every host of a fleet serves one
//! model while each holds its own sessions:
//!
//! * a [`ModelImage`]: the [`SystemConfig`], the timing scale and the
//!   trained weights (as [`ParamSnapshot`]s in the stable
//!   [`bliss_nn::Module::parameters`] order). The architectures are rebuilt
//!   from the configuration. The image is named by its content digest
//!   ([`ModelImage::digest`], FNV-1a 64), computed in this crate;
//! * a [`ShardCheckpoint`]: one host's session state, naming the model it
//!   was taken on by digest. It holds the scheduling configuration, the
//!   host clock (`host_free_s`/`host_busy_s`) and each session's dynamic
//!   state ([`SessionSnapshot`]): the front end's sensor memory, entropy
//!   and RNG positions, scheduler progress and the records served so far.
//!   It holds no weights, so a periodic per-host checkpoint costs only the
//!   sessions. Sensor frames are stored once each, as 10-bit ADC codes
//!   when on the ADC grid ([`bliss_sensor::SnapshotFrame`]); the feedback
//!   map is bit-packed ([`bliss_sensor::PackedCodes`]).
//!
//! A [`ServeSnapshot`] is one image plus one checkpoint; a fleet snapshot is
//! one image plus a checkpoint per host. Restoring a checkpoint checks its
//! digest against the serving model and fails with
//! [`SnapshotError::ModelMismatch`] on a difference.
//!
//! What is **not** serialised is re-derived: the rendered eye sequence is a
//! pure function of `(system geometry, scenario, seed, frames)` and is
//! re-rendered on restore; the event queue is rebuilt, because at a batch
//! boundary every entry is exactly `next_ready(session)`; the int8
//! quantisation spec is re-calibrated from the restored weights.
//!
//! The wire format is the workspace `serde` layer's JSON; numbers round-trip
//! bit-exactly (raw-token parsing), which is what makes
//! restore-vs-uninterrupted **byte-identical**, not merely approximately
//! equal. Every document carries a [`SNAPSHOT_VERSION`] field, checked
//! *before* full deserialisation ([`parse_versioned`]) so an incompatible
//! snapshot fails loudly with [`SnapshotError::Version`] instead of a
//! confusing field error.

use crate::runtime::{ServeConfig, ServeRuntime, ServeState};
use crate::session::{FrameRecord, Session, SessionConfig};
use bliss_nn::{restore_params, snapshot_params, Module, ParamSnapshot};
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
/// batching-window field (batches gate on the host becoming free); `6` —
/// the format split into a digest-named [`ModelImage`] and weight-free
/// [`ShardCheckpoint`]s, sensor frames became deduplicated ADC codes and
/// the feedback map became bit-packed classes; `7` — `ServeConfig` lost
/// `warmup_frames` (the virtual-time `warmup_s` window remains).
pub const SNAPSHOT_VERSION: u32 = 7;

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
    /// A checkpoint names a model other than the one restoring it.
    ModelMismatch {
        /// Digest of the model the restoring runtime serves.
        expected: u64,
        /// Digest the checkpoint was taken on.
        found: u64,
    },
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
            SnapshotError::ModelMismatch { expected, found } => write!(
                f,
                "checkpoint was taken on model {found:016x}, this runtime serves {expected:016x}"
            ),
            SnapshotError::Host { host, source } => write!(f, "host {host}: {source}"),
        }
    }
}

impl Error for SnapshotError {}

/// Parses a versioned snapshot document, checking its top-level `version`
/// field **before** deserialising the rest.
///
/// # Errors
///
/// [`SnapshotError::Version`] on a version mismatch,
/// [`SnapshotError::Json`] on malformed JSON or a shape that does not
/// deserialise.
pub fn parse_versioned<T: for<'de> Deserialize<'de>>(json: &str) -> Result<T, SnapshotError> {
    let value = JsonValue::parse(json).map_err(SnapshotError::Json)?;
    let version_field = value.field("version").map_err(SnapshotError::Json)?;
    let version = u32::from_json_value(version_field).map_err(SnapshotError::Json)?;
    check_version(version)?;
    T::from_json_value(&value).map_err(SnapshotError::Json)
}

fn check_version(found: u32) -> Result<(), SnapshotError> {
    if found == SNAPSHOT_VERSION {
        Ok(())
    } else {
        Err(SnapshotError::Version {
            found,
            supported: SNAPSHOT_VERSION,
        })
    }
}

/// FNV-1a 64 offset basis and prime.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The content digest of a model: FNV-1a 64 over 64-bit words — the system
/// configuration's JSON bytes, the timing scale, then each parameter's
/// rank, dimensions and f32 bits in [`Module::parameters`] order. Each step
/// is a bijection of the running state, so changing any one word always
/// changes the digest.
fn model_digest<'a>(
    system: &SystemConfig,
    paper_scale_timing: bool,
    params: impl Iterator<Item = (&'a [usize], &'a [f32])>,
) -> u64 {
    let mut h = FNV_OFFSET;
    let mut word = |w: u64| h = (h ^ w).wrapping_mul(FNV_PRIME);
    for &b in system.to_json().as_bytes() {
        word(u64::from(b));
    }
    word(u64::from(paper_scale_timing));
    for (shape, data) in params {
        word(shape.len() as u64);
        for &d in shape {
            word(d as u64);
        }
        for &v in data {
            word(u64::from(v.to_bits()));
        }
    }
    h
}

/// The served model: everything a host needs before it can take sessions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelImage {
    /// The executable-scale system configuration.
    pub system: SystemConfig,
    /// Whether the runtime accounted latency at the paper's hardware point.
    pub paper_scale_timing: bool,
    /// Sparse-ViT weights in stable parameter order.
    pub vit_params: Vec<ParamSnapshot>,
    /// ROI-net weights in stable parameter order.
    pub roi_params: Vec<ParamSnapshot>,
}

impl ModelImage {
    /// The image's content digest, the name checkpoints refer to it by.
    /// Equal to [`ServeRuntime::model_digest`] of a runtime serving it.
    pub fn digest(&self) -> u64 {
        let params = self.vit_params.iter().chain(&self.roi_params);
        model_digest(
            &self.system,
            self.paper_scale_timing,
            params.map(|p| (&p.shape[..], &p.data[..])),
        )
    }
}

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

/// One host shard frozen at a batch boundary: the per-host checkpoint. It
/// names its model by digest and carries no weights.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardCheckpoint {
    /// Wire-format version ([`SNAPSHOT_VERSION`] when written by this
    /// build); checked before anything else on restore.
    pub version: u32,
    /// [`ModelImage::digest`] of the model the shard was served by.
    pub model_digest: u64,
    /// The shard's scheduling parameters.
    pub serve: ServeConfig,
    /// Virtual time at which the host NPU next becomes free.
    pub host_free_s: f64,
    /// Cumulative virtual time the host has spent executing launches.
    pub host_busy_s: f64,
    /// Per-session dynamic state.
    pub sessions: Vec<SessionSnapshot>,
}

impl ShardCheckpoint {
    /// Parses a checkpoint from JSON (see [`parse_versioned`]).
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Version`] on a version mismatch,
    /// [`SnapshotError::Json`] on malformed JSON.
    pub fn parse(json: &str) -> Result<Self, SnapshotError> {
        parse_versioned(json)
    }

    /// Checks that the checkpoint was written by this format version, taken
    /// on the model named `model_digest`, and that its scheduling
    /// parameters can be stepped.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Version`], [`SnapshotError::ModelMismatch`], or
    /// [`SnapshotError::Corrupt`] on a zero `max_batch`.
    pub fn verify(&self, model_digest: u64) -> Result<(), SnapshotError> {
        check_version(self.version)?;
        if self.model_digest != model_digest {
            return Err(SnapshotError::ModelMismatch {
                expected: model_digest,
                found: self.model_digest,
            });
        }
        if self.serve.max_batch == 0 {
            return Err(SnapshotError::Corrupt(
                "serve.max_batch is 0; a batch needs at least one frame".into(),
            ));
        }
        Ok(())
    }
}

/// A whole serving run frozen at a batch boundary: the model and its one
/// shard.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeSnapshot {
    /// Wire-format version ([`SNAPSHOT_VERSION`] when written by this
    /// build); checked before anything else on restore.
    pub version: u32,
    /// The served model.
    pub model: ModelImage,
    /// The run's session state.
    pub shard: ShardCheckpoint,
}

impl ServeSnapshot {
    /// Parses a snapshot from JSON (see [`parse_versioned`]).
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Version`] on a version mismatch,
    /// [`SnapshotError::Json`] on malformed JSON or a shape that does not
    /// deserialise.
    pub fn parse(json: &str) -> Result<Self, SnapshotError> {
        parse_versioned(json)
    }
}

/// A session rebuilt from its snapshot, not yet part of any shard (see
/// [`ServeRuntime::restore_sessions`]).
#[derive(Debug)]
pub struct RestoredSession(Session);

impl ServeRuntime {
    /// Copies out the served model.
    pub fn model_image(&self) -> ModelImage {
        ModelImage {
            system: self.system,
            paper_scale_timing: self.scaled_timing,
            vit_params: snapshot_params(&self.vit),
            roi_params: snapshot_params(&self.roi_net),
        }
    }

    /// The served model's content digest, computed from the live weights:
    /// equal to [`ModelImage::digest`] of [`ServeRuntime::model_image`].
    pub fn model_digest(&self) -> u64 {
        let params: Vec<_> = self
            .vit
            .parameters()
            .into_iter()
            .chain(self.roi_net.parameters())
            .collect();
        let values: Vec<_> = params.iter().map(|p| p.value()).collect();
        model_digest(
            &self.system,
            self.scaled_timing,
            values.iter().map(|v| (v.shape(), v.data())),
        )
    }

    /// Captures one shard's session state at its current batch boundary,
    /// naming the model by `model_digest` (this runtime's
    /// [`ServeRuntime::model_digest`]).
    ///
    /// `cfg` must be the same scheduling configuration the run is stepping
    /// under — it is recorded so a restore resumes with identical batching
    /// decisions.
    pub fn checkpoint(
        &self,
        cfg: &ServeConfig,
        state: &ServeState,
        model_digest: u64,
    ) -> ShardCheckpoint {
        ShardCheckpoint {
            version: SNAPSHOT_VERSION,
            model_digest,
            serve: *cfg,
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

    /// Captures the run at its current batch boundary: the model image and
    /// the shard's checkpoint.
    ///
    /// `cfg` must be the same scheduling configuration the run is stepping
    /// under — it is recorded so [`ServeRuntime::restore`] can resume with
    /// identical batching decisions.
    pub fn snapshot(&self, cfg: &ServeConfig, state: &ServeState) -> ServeSnapshot {
        let model = self.model_image();
        let shard = self.checkpoint(cfg, state, model.digest());
        ServeSnapshot {
            version: SNAPSHOT_VERSION,
            model,
            shard,
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
    /// do not match the recorded system configuration,
    /// [`SnapshotError::ModelMismatch`] if the shard was taken on another
    /// model.
    pub fn restore(
        snapshot: &ServeSnapshot,
    ) -> Result<(ServeRuntime, ServeConfig, ServeState), SnapshotError> {
        let runtime = Self::restore_runtime(&snapshot.model, &snapshot.shard.serve)?;
        let state = runtime.restore_state(&snapshot.shard, snapshot.model.digest())?;
        Ok((runtime, snapshot.shard.serve, state))
    }

    /// Rebuilds the runtime serving a model image, without sessions.
    ///
    /// The networks are reconstructed at the image's [`SystemConfig`]
    /// architecture and overwritten with its weights; the timing scale is
    /// re-applied and the precision state `serve` asks for (including the
    /// int8 spec) is re-derived.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Corrupt`] if the weight shapes do not match the
    /// image's system configuration.
    pub fn restore_runtime(
        model: &ModelImage,
        serve: &ServeConfig,
    ) -> Result<ServeRuntime, SnapshotError> {
        // Architectures from config; weights from the image. The seed only
        // initialises weights that are immediately overwritten.
        let mut rng = StdRng::seed_from_u64(model.system.seed);
        let vit = SparseViT::new(&mut rng, model.system.vit);
        let roi_net = RoiPredictionNet::new(&mut rng, model.system.roi_net);
        restore_params(&vit, &model.vit_params)
            .map_err(|e| SnapshotError::Corrupt(format!("sparse-ViT weights: {e}")))?;
        restore_params(&roi_net, &model.roi_params)
            .map_err(|e| SnapshotError::Corrupt(format!("ROI-net weights: {e}")))?;
        let mut runtime = ServeRuntime::with_networks(model.system, vit, roi_net);
        if model.paper_scale_timing {
            runtime = runtime.with_paper_scale_timing();
        }
        // Re-derive the precision state (including the int8 calibration
        // spec, when configured) from the restored weights — deterministic,
        // so the restored runtime's plans are bit-identical to the
        // interrupted one's.
        runtime
            .apply_precision(serve)
            .map_err(|e| SnapshotError::Corrupt(format!("precision restore: {e}")))?;
        Ok(runtime)
    }

    /// Restores a shard checkpoint's in-flight state against this runtime:
    /// each session re-renders its trace from its config (pure function of
    /// the seeds), sessions in parallel, and then overwrites the front end's
    /// dynamic state; the event queue is rebuilt from per-session progress.
    ///
    /// `model_digest` names the model this runtime serves
    /// ([`ModelImage::digest`] of the image it was restored from, or
    /// [`ServeRuntime::model_digest`]); the checkpoint must name the same.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Version`] or [`SnapshotError::ModelMismatch`] from
    /// [`ShardCheckpoint::verify`]; [`SnapshotError::Corrupt`] if a
    /// session's state does not match this runtime's geometry.
    pub fn restore_state(
        &self,
        checkpoint: &ShardCheckpoint,
        model_digest: u64,
    ) -> Result<ServeState, SnapshotError> {
        checkpoint.verify(model_digest)?;
        let sessions = self.restore_sessions(&checkpoint.sessions, f64::NEG_INFINITY)?;
        let mut state = ServeState {
            sessions: sessions.into_iter().map(|s| s.0).collect(),
            heap: std::collections::BinaryHeap::new(),
            host_free_s: checkpoint.host_free_s,
            host_busy_s: checkpoint.host_busy_s,
        };
        self.rebuild_heap(&mut state);
        Ok(state)
    }

    /// Rebuilds `snaps` as live sessions in parallel on the pool (in
    /// snapshot order, so the result is the same for any thread count),
    /// with each feedback gate pushed to at least `not_before_s` — for
    /// failover, the crash detection + restore latency, so replayed frames
    /// cannot complete before the failover that caused them.
    ///
    /// Each session re-renders its trace, restores its front-end state and
    /// keeps its pre-checkpoint records verbatim. The caller must guarantee
    /// the snapshots came from a runtime serving the **same model**
    /// ([`ShardCheckpoint::verify`]); only per-session state is validated
    /// here.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Corrupt`] naming the first invalid session in
    /// order.
    pub fn restore_sessions(
        &self,
        snaps: &[SessionSnapshot],
        not_before_s: f64,
    ) -> Result<Vec<RestoredSession>, SnapshotError> {
        let system = &self.system;
        bliss_parallel::par_map_collect(snaps.len(), |i| {
            let mut session = restore_session(&snaps[i], system)?;
            session.prev_completion_s = session.prev_completion_s.max(not_before_s);
            Ok(RestoredSession(session))
        })
        .into_iter()
        .collect()
    }

    /// Adopts restored sessions into a live state — the failover
    /// primitive: a crashed host's sessions, rebuilt from its last
    /// checkpoint by [`ServeRuntime::restore_sessions`], resume on a
    /// surviving host. The event queue is rebuilt to include the newcomers.
    pub fn adopt_sessions(&self, state: &mut ServeState, sessions: Vec<RestoredSession>) {
        state.sessions.extend(sessions.into_iter().map(|s| s.0));
        self.rebuild_heap(state);
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
    let corrupt = |msg: String| {
        SnapshotError::Corrupt(format!(
            "session {} ({:?}): {msg}",
            snap.config.id, snap.config.scenario
        ))
    };
    // The rendered sequence holds `frames + 1` entries (frame 0 primes the
    // sensor), so a drained session sits at `next_frame == frames + 1`.
    if snap.next_frame == 0 || snap.next_frame > snap.config.frames + 1 {
        return Err(corrupt(format!(
            "next_frame {} outside 1..={}",
            snap.next_frame,
            snap.config.frames + 1
        )));
    }
    if snap.records.len() != snap.next_frame - 1 {
        return Err(corrupt(format!(
            "{} records but {} frames served",
            snap.records.len(),
            snap.next_frame - 1
        )));
    }
    // The front end asserts this on restore; a snapshot from outside the
    // process must fail with a typed error instead.
    snap.front.check(system.pixels()).map_err(corrupt)?;
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
    use bliss_sensor::{PackedCodes, SnapshotFrame};

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
        match rt.restore_state(&snap.shard, snap.model.digest()) {
            Err(SnapshotError::Corrupt(msg)) => assert!(msg.contains(needle), "{msg}"),
            other => panic!("expected a Corrupt error naming {needle:?}, got {other:?}"),
        }
    }

    #[test]
    fn restore_rejects_a_sensor_frame_of_the_wrong_length() {
        let (rt, snap) = stepped_snapshot();
        for name in ["held", "current"] {
            let mut bad = snap.clone();
            let sensor = &mut bad.shard.sessions[1].front.sensor;
            sensor.frames.push(SnapshotFrame::encode(&[0.0; 7]));
            let short = Some(sensor.frames.len() - 1);
            if name == "held" {
                sensor.held = short;
            } else {
                sensor.current = short;
            }
            assert_corrupt(&rt, &bad, name);
            // So are an index past the stored frames and codes wider than
            // the ADC's.
            let sensor = &mut bad.shard.sessions[1].front.sensor;
            sensor.frames.pop();
            assert_corrupt(&rt, &bad, name);
            let wide = PackedCodes::new(vec![1024; rt.system().pixels()]);
            bad.shard.sessions[1]
                .front
                .sensor
                .frames
                .push(SnapshotFrame::Codes(wide));
            assert_corrupt(&rt, &bad, "11 bits");
        }
    }

    #[test]
    fn restore_rejects_a_feedback_map_of_the_wrong_size() {
        let (rt, snap) = stepped_snapshot();
        let mut bad = snap;
        let pixels = rt.system().pixels();
        for (classes, needle) in [
            (vec![1; pixels - 1], "feedback map"),
            (vec![256; pixels], "classes"),
        ] {
            bad.shard.sessions[2].front.prev_seg = PackedCodes::new(classes);
            assert_corrupt(&rt, &bad, needle);
        }
    }

    #[test]
    fn restore_rejects_an_all_zero_rng_state() {
        let (rt, snap) = stepped_snapshot();
        let mut bad = snap.clone();
        bad.shard.sessions[0].front.sensor.sram_rng = [0; 4];
        assert_corrupt(&rt, &bad, "SRAM");
        let mut bad = snap;
        bad.shard.sessions[2].front.rng = [0; 4];
        assert_corrupt(&rt, &bad, "imaging-noise");
    }

    #[test]
    fn restore_rejects_a_zero_max_batch_from_json() {
        let (_, snap) = stepped_snapshot();
        let json = snap.to_json();
        let key = format!("\"max_batch\":{}", snap.shard.serve.max_batch);
        assert_eq!(json.matches(&key).count(), 1, "{key} appears once");
        let bad = ServeSnapshot::parse(&json.replace(&key, "\"max_batch\":0"))
            .expect("the edited snapshot still parses");
        match ServeRuntime::restore(&bad) {
            Err(SnapshotError::Corrupt(msg)) => assert!(msg.contains("max_batch"), "{msg}"),
            Err(e) => panic!("expected a Corrupt error, got {e:?}"),
            Ok((rt, cfg, mut state)) => {
                let stepped = rt.step_batch(&cfg, &mut state);
                panic!("a zero max_batch restored and stepped to {stepped:?}");
            }
        }
    }

    #[test]
    fn restore_state_round_trips_and_rejects_another_model() {
        let (rt, snap) = stepped_snapshot();
        let cfg = snap.shard.serve;
        let digest = rt.model_digest();
        assert_eq!(digest, snap.model.digest());

        let restored = rt
            .restore_state(&snap.shard, digest)
            .expect("same model restores");
        assert_eq!(rt.snapshot(&cfg, &restored), snap);

        let mut other = snap.model.system;
        other.seed ^= 1;
        let other = runtime(other);
        let err = other
            .restore_state(&snap.shard, other.model_digest())
            .expect_err("another model's checkpoint must not restore");
        assert_eq!(
            err,
            SnapshotError::ModelMismatch {
                expected: other.model_digest(),
                found: digest,
            }
        );
    }

    #[test]
    fn the_digest_names_every_weight_bit_and_the_configuration() {
        let (rt, snap) = stepped_snapshot();
        let digest = rt.model_digest();
        let mut image = snap.model.clone();
        image.vit_params[3].data[5] = f32::from_bits(image.vit_params[3].data[5].to_bits() ^ 1);
        assert_ne!(image.digest(), digest);
        let mut image = snap.model.clone();
        image.roi_params[0].shape.push(1);
        assert_ne!(image.digest(), digest);
        let mut image = snap.model;
        image.paper_scale_timing = !image.paper_scale_timing;
        assert_ne!(image.digest(), digest);

        // A checkpoint naming another model fails typed, before any session
        // is rebuilt; so does a checkpoint from another format version.
        let mut shard = snap.shard;
        shard.model_digest ^= 1 << 40;
        assert!(matches!(
            rt.restore_state(&shard, digest),
            Err(SnapshotError::ModelMismatch { .. })
        ));
        shard.model_digest = digest;
        shard.version = SNAPSHOT_VERSION - 1;
        assert!(matches!(
            rt.restore_state(&shard, digest),
            Err(SnapshotError::Version { .. })
        ));
    }
}
