//! Durable serving: restore-vs-uninterrupted **bit-identity**.
//!
//! The headline guarantee of the snapshot layer: serve a fleet to
//! completion; separately, serve the same fleet to batch `k`, freeze it
//! with [`ServeRuntime::snapshot`], push the snapshot through its real JSON
//! wire format, [`ServeRuntime::restore`] into a **fresh** runtime, and
//! drain it. The two complete outcomes — every per-frame latency, batch
//! composition, gaze, energy and report byte — must be identical, for every
//! scenario in the session mix, at every snapshot point tried, under 1-, 2-
//! and 8-thread pools.
//!
//! This holds because snapshots only happen at batch boundaries (the event
//! heap is a pure function of per-session progress there) and everything
//! not captured is re-derived deterministically from recorded config seeds.
//!
//! Like `determinism.rs`, the trained model is built once; here the
//! fixture stores the **weights** (plain-data [`ParamSnapshot`]s, so the
//! `Rc`-backed networks can be rebuilt inside any thread pool) instead of
//! outcomes, because these tests need live runtimes.

use bliss_nn::{restore_params, snapshot_params, ParamSnapshot};
use bliss_sensor::SnapshotFrame;
use bliss_serve::{
    FrameRecord, ServeConfig, ServeRuntime, ServeSnapshot, SessionConfig, ShardCheckpoint,
    SnapshotError, SNAPSHOT_VERSION,
};
use bliss_track::{EstimatorSnapshot, JointTrainer, RoiPredictionNet, SparseViT};
use blisscam_core::SystemConfig;
use rand::{rngs::StdRng, SeedableRng};
use serde::Serialize;
use std::sync::OnceLock;

struct Fixture {
    system: SystemConfig,
    vit_params: Vec<ParamSnapshot>,
    roi_params: Vec<ParamSnapshot>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let mut system = SystemConfig::miniature();
        system.train_frames = 30;
        system.vit.dim = 24;
        system.vit.enc_depth = 1;
        system.roi_net.hidden = 32;
        let train_seq = bliss_eye::render_sequence(&bliss_eye::SequenceConfig {
            width: system.width,
            height: system.height,
            frames: system.train_frames,
            fps: system.fps as f32,
            seed: system.seed,
        });
        let mut trainer = JointTrainer::new(system.train_config()).expect("trainer builds");
        trainer.train_on(&train_seq).expect("training succeeds");
        Fixture {
            system,
            vit_params: snapshot_params(trainer.vit()),
            roi_params: snapshot_params(trainer.roi_net()),
        }
    })
}

/// Rebuilds the fixture's trained runtime on the current thread (networks
/// are `Rc`-backed and thread-bound, so each test materialises its own).
fn runtime(fx: &Fixture) -> ServeRuntime {
    let mut rng = StdRng::seed_from_u64(fx.system.seed);
    let vit = SparseViT::new(&mut rng, fx.system.vit);
    let roi_net = RoiPredictionNet::new(&mut rng, fx.system.roi_net);
    restore_params(&vit, &fx.vit_params).expect("vit weights restore");
    restore_params(&roi_net, &fx.roi_params).expect("roi weights restore");
    ServeRuntime::with_networks(fx.system, vit, roi_net)
}

/// A 5-session load point: one session per [`bliss_eye::Scenario`]
/// (sessions are assigned scenarios round-robin), so every scenario's
/// sensor/estimator/RNG state crosses the snapshot boundary.
fn load() -> ServeConfig {
    let mut cfg = ServeConfig::new(5, 6);
    cfg.max_batch = 4;
    cfg
}

/// Serves `cfg` to completion with an interruption after `interrupt_after`
/// batches: snapshot -> JSON -> parse -> restore into a fresh runtime ->
/// drain, and returns the completed outcome.
fn serve_interrupted(
    rt: &ServeRuntime,
    cfg: &ServeConfig,
    interrupt_after: usize,
) -> bliss_serve::ServeOutcome {
    let mut state = rt.start(cfg);
    for _ in 0..interrupt_after {
        assert!(
            rt.step_batch(cfg, &mut state).expect("step succeeds"),
            "load drained before the chosen snapshot point"
        );
    }
    let json = rt.snapshot(cfg, &state).to_json();
    // From here on, only the JSON survives: fresh runtime, fresh state.
    let snap = ServeSnapshot::parse(&json).expect("snapshot parses");
    let (rt2, cfg2, mut state2) = ServeRuntime::restore(&snap).expect("snapshot restores");
    assert_eq!(cfg2, *cfg, "restored serve config drifted");
    while rt2.step_batch(&cfg2, &mut state2).expect("step succeeds") {}
    rt2.finish(&cfg2, state2)
}

/// Worker-pool sizes the headline test sweeps: 1/2/8 by default, or the
/// whitespace-separated list in `BLISS_RESTORE_THREADS` (the CI smoke job
/// runs the 1- and 2-thread legs; the full test job runs all three).
fn thread_counts() -> Vec<usize> {
    match std::env::var("BLISS_RESTORE_THREADS") {
        Ok(v) => v
            .split_whitespace()
            .map(|t| t.parse().expect("BLISS_RESTORE_THREADS: integers only"))
            .collect(),
        Err(_) => vec![1, 2, 8],
    }
}

#[test]
fn restore_is_bit_identical_across_scenarios_and_thread_counts() {
    let fx = fixture();
    let cfg = load();
    for threads in thread_counts() {
        bliss_parallel::with_thread_count(threads, || {
            let rt = runtime(fx);
            let uninterrupted = rt.serve(&cfg).expect("serve succeeds");
            // Scenario coverage sanity: all 5 scenarios are in the mix.
            let labels: std::collections::BTreeSet<&str> = uninterrupted
                .traces
                .iter()
                .map(|t| t.config.scenario.label())
                .collect();
            assert_eq!(labels.len(), 5, "expected 5 distinct scenarios");

            let resumed = serve_interrupted(&rt, &cfg, 3);
            assert_eq!(
                resumed.traces, uninterrupted.traces,
                "restored traces diverged at {threads} threads"
            );
            assert_eq!(
                resumed.report, uninterrupted.report,
                "restored report diverged at {threads} threads"
            );
        });
    }
}

#[test]
fn restore_is_bit_identical_at_every_snapshot_point() {
    let fx = fixture();
    let cfg = load();
    bliss_parallel::with_thread_count(1, || {
        let rt = runtime(fx);
        let uninterrupted = rt.serve(&cfg).expect("serve succeeds");
        // k = 0 is the degenerate "snapshot before anything ran" case;
        // larger k cross the cold-start convoy and warm steady state.
        for k in [0usize, 1, 2, 5, 9] {
            let resumed = serve_interrupted(&rt, &cfg, k);
            assert_eq!(
                resumed.traces, uninterrupted.traces,
                "restored traces diverged when snapshotting after batch {k}"
            );
        }
    });
}

#[test]
fn double_restore_is_still_bit_identical() {
    // A snapshot of a restored run must behave like a snapshot of the
    // original: restore -> step -> snapshot -> restore -> drain.
    let fx = fixture();
    let cfg = load();
    bliss_parallel::with_thread_count(1, || {
        let rt = runtime(fx);
        let uninterrupted = rt.serve(&cfg).expect("serve succeeds");

        let mut state = rt.start(&cfg);
        for _ in 0..2 {
            assert!(rt.step_batch(&cfg, &mut state).expect("step succeeds"));
        }
        let first = rt.snapshot(&cfg, &state).to_json();
        let snap = ServeSnapshot::parse(&first).expect("snapshot parses");
        let (rt2, cfg2, mut state2) = ServeRuntime::restore(&snap).expect("snapshot restores");
        for _ in 0..2 {
            assert!(rt2.step_batch(&cfg2, &mut state2).expect("step succeeds"));
        }
        let second = rt2.snapshot(&cfg2, &state2).to_json();
        let snap2 = ServeSnapshot::parse(&second).expect("re-snapshot parses");
        let (rt3, cfg3, mut state3) = ServeRuntime::restore(&snap2).expect("re-restore succeeds");
        while rt3.step_batch(&cfg3, &mut state3).expect("step succeeds") {}
        let resumed = rt3.finish(&cfg3, state3);
        assert_eq!(resumed.traces, uninterrupted.traces);
    });
}

#[test]
fn serve_snapshot_round_trips_through_json() {
    // Stronger than restore identity: the parsed snapshot must equal the
    // captured one field-for-field, including sessions that have not served
    // a frame yet (whose feedback gate is the non-JSON `-inf` sentinel).
    let fx = fixture();
    let cfg = load();
    bliss_parallel::with_thread_count(1, || {
        let rt = runtime(fx);
        for k in [0usize, 1, 4] {
            let mut state = rt.start(&cfg);
            for _ in 0..k {
                assert!(rt.step_batch(&cfg, &mut state).expect("step succeeds"));
            }
            let snap = rt.snapshot(&cfg, &state);
            let back = ServeSnapshot::parse(&snap.to_json()).expect("round-trip parses");
            assert_eq!(back, snap, "snapshot JSON round-trip lossy at batch {k}");
        }
    });
}

#[test]
fn unknown_snapshot_version_fails_loudly_before_deserialisation() {
    let fx = fixture();
    let cfg = load();
    bliss_parallel::with_thread_count(1, || {
        let rt = runtime(fx);
        let mut state = rt.start(&cfg);
        assert!(rt.step_batch(&cfg, &mut state).expect("step succeeds"));
        let mut snap = rt.snapshot(&cfg, &state);
        snap.version = SNAPSHOT_VERSION + 41;
        let err = ServeSnapshot::parse(&snap.to_json()).expect_err("stale version must fail");
        assert_eq!(
            err,
            SnapshotError::Version {
                found: SNAPSHOT_VERSION + 41,
                supported: SNAPSHOT_VERSION,
            }
        );
        // The error message names both versions, so the failure is
        // actionable from a log line alone.
        let msg = err.to_string();
        assert!(msg.contains(&(SNAPSHOT_VERSION + 41).to_string()), "{msg}");
        assert!(msg.contains(&SNAPSHOT_VERSION.to_string()), "{msg}");
    });
}

#[test]
fn corrupt_weights_fail_loudly() {
    let fx = fixture();
    let cfg = load();
    bliss_parallel::with_thread_count(1, || {
        let rt = runtime(fx);
        let mut state = rt.start(&cfg);
        assert!(rt.step_batch(&cfg, &mut state).expect("step succeeds"));
        let mut snap = rt.snapshot(&cfg, &state);
        snap.model.vit_params.pop();
        let err = ServeRuntime::restore(&snap).expect_err("truncated weights must fail");
        assert!(
            matches!(err, SnapshotError::Corrupt(_)),
            "expected Corrupt, got {err:?}"
        );
    });
}

#[test]
fn malformed_snapshot_json_is_rejected() {
    let err = ServeSnapshot::parse("{\"version\": 1,").expect_err("truncated JSON must fail");
    assert!(matches!(err, SnapshotError::Json(_)), "got {err:?}");
    let err = ServeSnapshot::parse("{}").expect_err("missing version must fail");
    assert!(matches!(err, SnapshotError::Json(_)), "got {err:?}");
}

#[test]
fn corrupted_snapshot_json_fails_typed_and_never_panics() {
    let fx = fixture();
    let cfg = load();
    let json = bliss_parallel::with_thread_count(1, || {
        let rt = runtime(fx);
        let mut state = rt.start(&cfg);
        for _ in 0..2 {
            assert!(rt.step_batch(&cfg, &mut state).expect("step succeeds"));
        }
        rt.snapshot(&cfg, &state).to_json()
    });
    // Every proper prefix of the top-level object is malformed JSON.
    let step = (json.len() / 128).max(1);
    for cut in (0..json.len()).step_by(step) {
        if json.is_char_boundary(cut) {
            let err = ServeSnapshot::parse(&json[..cut]).expect_err("truncated snapshot parsed");
            assert!(matches!(err, SnapshotError::Json(_)), "cut {cut}: {err:?}");
        }
    }
    // One flipped bit anywhere (structure, keys, numbers, strings) parses
    // to some snapshot or fails with a typed error. Flipping a bit below
    // 0x80 keeps ASCII input valid UTF-8.
    let mut bytes = json.into_bytes();
    for (k, pos) in (0..bytes.len()).step_by(step).enumerate() {
        let original = bytes[pos];
        bytes[pos] ^= [0x01, 0x02, 0x20, 0x40][k % 4];
        if let Ok(text) = std::str::from_utf8(&bytes) {
            let _: Result<ServeSnapshot, SnapshotError> = ServeSnapshot::parse(text);
        }
        bytes[pos] = original;
    }
}

/// The version-5 wire shape of a [`ServeSnapshot`]: the weights in every
/// snapshot, both sensor frames as f32, the feedback map pixel by pixel.
/// Kept to size the weight-free checkpoints against.
#[derive(Serialize)]
struct V5Snapshot {
    version: u32,
    system: SystemConfig,
    paper_scale_timing: bool,
    serve: ServeConfig,
    vit_params: Vec<ParamSnapshot>,
    roi_params: Vec<ParamSnapshot>,
    host_free_s: f64,
    host_busy_s: f64,
    sessions: Vec<V5Session>,
}

#[derive(Serialize)]
struct V5Session {
    config: SessionConfig,
    front: V5Front,
    next_frame: usize,
    prev_completion_s: Option<f64>,
    records: Vec<FrameRecord>,
}

#[derive(Serialize)]
struct V5Front {
    sensor: V5Sensor,
    rng: [u64; 4],
    estimator: Option<EstimatorSnapshot>,
    prev_seg: Vec<u8>,
    have_seg: bool,
}

#[derive(Serialize)]
struct V5Sensor {
    held: Option<Vec<f32>>,
    current: Option<Vec<f32>>,
    sram_rng: [u64; 4],
    readouts: u64,
}

impl V5Snapshot {
    fn of(snap: &ServeSnapshot) -> Self {
        let shard = &snap.shard;
        let sessions = shard.sessions.iter().map(|s| {
            let sensor = &s.front.sensor;
            let frame = |index: Option<usize>| {
                index.map(|i| {
                    let mut out = Vec::new();
                    sensor.frames[i].decode_into(&mut out);
                    out
                })
            };
            V5Session {
                config: s.config,
                front: V5Front {
                    sensor: V5Sensor {
                        held: frame(sensor.held),
                        current: frame(sensor.current),
                        sram_rng: sensor.sram_rng,
                        readouts: sensor.readouts,
                    },
                    rng: s.front.rng,
                    estimator: s.front.estimator,
                    prev_seg: s.front.prev_seg.codes().iter().map(|&c| c as u8).collect(),
                    have_seg: s.front.have_seg,
                },
                next_frame: s.next_frame,
                prev_completion_s: s.prev_completion_s,
                records: s.records.clone(),
            }
        });
        V5Snapshot {
            version: 5,
            system: snap.model.system,
            paper_scale_timing: snap.model.paper_scale_timing,
            serve: shard.serve,
            vit_params: snap.model.vit_params.clone(),
            roi_params: snap.model.roi_params.clone(),
            host_free_s: shard.host_free_s,
            host_busy_s: shard.host_busy_s,
            sessions: sessions.collect(),
        }
    }
}

#[test]
fn shard_checkpoint_holds_no_weights_and_a_tenth_of_the_v5_bytes() {
    let fx = fixture();
    // Half the fleet-chaos load point: one host's six sessions.
    let mut cfg = ServeConfig::new(6, 12);
    cfg.max_batch = 16;
    bliss_parallel::with_thread_count(1, || {
        let rt = runtime(fx);
        let mut state = rt.start(&cfg);
        for batch in 0..6 {
            assert!(rt.step_batch(&cfg, &mut state).expect("step succeeds"));
            let snap = rt.snapshot(&cfg, &state);
            let checkpoint = snap.shard.to_json();
            let v5 = V5Snapshot::of(&snap).to_json();
            assert!(!checkpoint.contains("params"), "weights in a checkpoint");
            assert!(
                10 * checkpoint.len() <= v5.len(),
                "batch {batch}: checkpoint {} bytes against {} in v5",
                checkpoint.len(),
                v5.len()
            );
            // Every sensor frame the noise model exposed is on the ADC grid:
            // written once, as codes.
            for s in &snap.shard.sessions {
                let sensor = &s.front.sensor;
                assert_eq!((sensor.held, sensor.current), (Some(0), Some(0)));
                assert!(matches!(sensor.frames[..], [SnapshotFrame::Codes(_)]));
            }
            // The shard restores against the model it names, bit for bit.
            let back = ShardCheckpoint::parse(&checkpoint).expect("checkpoint parses");
            assert_eq!(back, snap.shard);
            let restored = rt
                .restore_state(&back, rt.model_digest())
                .expect("checkpoint restores");
            assert_eq!(rt.snapshot(&cfg, &restored), snap);
        }
    });
}

#[test]
fn corrupted_shard_checkpoint_json_fails_typed_and_never_panics() {
    let fx = fixture();
    let cfg = load();
    bliss_parallel::with_thread_count(1, || {
        let rt = runtime(fx);
        let digest = rt.model_digest();
        let mut state = rt.start(&cfg);
        for _ in 0..2 {
            assert!(rt.step_batch(&cfg, &mut state).expect("step succeeds"));
        }
        let json = rt.checkpoint(&cfg, &state, digest).to_json();
        // Every proper prefix of the top-level object is malformed JSON.
        let step = (json.len() / 128).max(1);
        for cut in (0..json.len()).step_by(step) {
            if json.is_char_boundary(cut) {
                let err =
                    ShardCheckpoint::parse(&json[..cut]).expect_err("truncated checkpoint parsed");
                assert!(matches!(err, SnapshotError::Json(_)), "cut {cut}: {err:?}");
            }
        }
        // One flipped bit anywhere parses to some checkpoint or fails with a
        // typed error, and so does restoring what parsed — the failover
        // path. Flipping a bit below 0x80 keeps ASCII input valid UTF-8.
        let mut bytes = json.into_bytes();
        for (k, pos) in (0..bytes.len()).step_by(step).enumerate() {
            let original = bytes[pos];
            bytes[pos] ^= [0x01, 0x02, 0x20, 0x40][k % 4];
            if let Ok(text) = std::str::from_utf8(&bytes) {
                if let Ok(checkpoint) = ShardCheckpoint::parse(text) {
                    let _ = rt.restore_state(&checkpoint, digest);
                }
            }
            bytes[pos] = original;
        }
    });
}
