//! Fleet-level restore-vs-uninterrupted bit-identity.
//!
//! The serve layer proves per-shard restores are bit-identical
//! (`bliss_serve`'s `restore_identity.rs`); this suite lifts the guarantee
//! over the k-way shard composition: freeze **every host** of a sharded
//! fleet at a batch boundary, push the [`FleetSnapshot`] through its JSON
//! wire format, restore into a fresh fleet and drain it. Reports, per-host
//! outcomes and the merged timeline must match the uninterrupted run
//! byte-for-byte, under every placement policy.
//!
//! Untrained networks: restore identity is a scheduling/state property and
//! does not depend on the weights being good, only on them being carried
//! across bit-exactly (which the corrupt/version tests in the serve suite
//! already police).

use bliss_fleet::{FleetConfig, FleetRuntime, FleetSnapshot, PlacementPolicy};
use bliss_serve::{SnapshotError, SNAPSHOT_VERSION};
use bliss_track::{RoiPredictionNet, SparseViT};
use blisscam_core::SystemConfig;
use rand::{rngs::StdRng, SeedableRng};
use serde::Serialize;

fn runtime() -> FleetRuntime {
    let mut system = SystemConfig::miniature();
    system.vit.dim = 12;
    system.vit.enc_depth = 1;
    system.vit.dec_depth = 1;
    system.roi_net.hidden = 16;
    let mut rng = StdRng::seed_from_u64(0x50AC_F1EE);
    FleetRuntime::with_networks(
        system,
        SparseViT::new(&mut rng, system.vit),
        RoiPredictionNet::new(&mut rng, system.roi_net),
    )
}

fn load(policy: PlacementPolicy) -> FleetConfig {
    let mut cfg = FleetConfig::new(2, policy, 5, 4);
    cfg.serve.max_batch = 4;
    cfg
}

#[test]
fn fleet_restore_is_bit_identical_under_every_policy() {
    bliss_parallel::with_thread_count(1, || {
        let fleet = runtime();
        for policy in [
            PlacementPolicy::RoundRobin,
            PlacementPolicy::LeastLoaded,
            PlacementPolicy::ScenarioAffinity,
        ] {
            let cfg = load(policy);
            let uninterrupted = fleet.serve(&cfg).expect("serve succeeds");

            let mut state = fleet.start(&cfg);
            for _ in 0..2 {
                assert!(fleet.step(&mut state).expect("step succeeds"));
            }
            let json = fleet.snapshot(&cfg, &state).to_json();
            // Only the JSON crosses the interruption.
            let snap = FleetSnapshot::parse(&json).expect("snapshot parses");
            let (fleet2, cfg2, mut state2) =
                FleetRuntime::restore(&snap).expect("snapshot restores");
            assert_eq!(cfg2, cfg, "restored fleet config drifted ({policy:?})");
            while fleet2.step(&mut state2).expect("step succeeds") {}
            let resumed = fleet2.finish(&cfg2, state2);

            assert_eq!(
                resumed.per_host, uninterrupted.per_host,
                "restored per-host outcomes diverged ({policy:?})"
            );
            assert_eq!(
                resumed.timeline, uninterrupted.timeline,
                "restored merged timeline diverged ({policy:?})"
            );
            assert_eq!(
                resumed.report, uninterrupted.report,
                "restored fleet report diverged ({policy:?})"
            );
        }
    });
}

#[test]
fn fleet_snapshot_round_trips_through_json() {
    bliss_parallel::with_thread_count(1, || {
        let fleet = runtime();
        let cfg = load(PlacementPolicy::RoundRobin);
        let mut state = fleet.start(&cfg);
        assert!(fleet.step(&mut state).expect("step succeeds"));
        let snap = fleet.snapshot(&cfg, &state);
        let back = FleetSnapshot::parse(&snap.to_json()).expect("round-trip parses");
        assert_eq!(back, snap, "fleet snapshot JSON round-trip is lossy");
    });
}

#[test]
fn stale_fleet_snapshot_version_fails_loudly() {
    bliss_parallel::with_thread_count(1, || {
        let fleet = runtime();
        let cfg = load(PlacementPolicy::RoundRobin);
        let mut state = fleet.start(&cfg);
        assert!(fleet.step(&mut state).expect("step succeeds"));
        let mut snap = fleet.snapshot(&cfg, &state);
        snap.version = SNAPSHOT_VERSION + 7;
        let err = FleetSnapshot::parse(&snap.to_json()).expect_err("stale version must fail");
        assert_eq!(
            err,
            SnapshotError::Version {
                found: SNAPSHOT_VERSION + 7,
                supported: SNAPSHOT_VERSION,
            }
        );
    });
}

#[test]
fn empty_fleet_snapshot_is_corrupt() {
    bliss_parallel::with_thread_count(1, || {
        let fleet = runtime();
        let cfg = load(PlacementPolicy::RoundRobin);
        let mut state = fleet.start(&cfg);
        assert!(fleet.step(&mut state).expect("step succeeds"));
        let mut snap = fleet.snapshot(&cfg, &state);
        snap.per_host.clear();
        let err = FleetRuntime::restore(&snap).expect_err("hostless snapshot must fail");
        assert!(
            matches!(err, SnapshotError::Corrupt(_)),
            "expected Corrupt, got {err:?}"
        );
    });
}

#[test]
fn inconsistent_fleet_snapshot_json_is_corrupt() {
    bliss_parallel::with_thread_count(1, || {
        let fleet = runtime();
        let cfg = load(PlacementPolicy::RoundRobin);
        let mut state = fleet.start(&cfg);
        assert!(fleet.step(&mut state).expect("step succeeds"));
        let mut json = fleet.snapshot(&cfg, &state).to_json();
        // One config steps every host, so a host whose `max_batch` differs
        // from host 0's cannot be restored.
        let key = format!("\"max_batch\":{}", cfg.serve.max_batch);
        assert_eq!(json.matches(&key).count(), 2, "{key}: one per host");
        let at = json.rfind(&key).expect("host 1 records max_batch");
        let other = format!("\"max_batch\":{}", cfg.serve.max_batch + 1);
        json.replace_range(at..at + key.len(), &other);
        let edited = FleetSnapshot::parse(&json).expect("edited JSON must parse");
        let err = FleetRuntime::restore(&edited).expect_err("max_batch differs across hosts");
        assert!(
            matches!(err, SnapshotError::Corrupt(_)),
            "expected Corrupt, got {err:?}"
        );
    });
}

#[test]
fn a_shard_naming_another_model_fails_typed_with_its_host() {
    bliss_parallel::with_thread_count(1, || {
        let fleet = runtime();
        let cfg = load(PlacementPolicy::RoundRobin);
        let mut state = fleet.start(&cfg);
        assert!(fleet.step(&mut state).expect("step succeeds"));
        let snap = fleet.snapshot(&cfg, &state);
        let digest = snap.model.digest();
        assert_eq!(digest, fleet.serve_runtime().model_digest());

        // One shard names another model.
        let mut bad = snap.clone();
        bad.per_host[1].model_digest ^= 1;
        let err = FleetRuntime::restore(&bad).expect_err("a foreign shard must not restore");
        assert_eq!(
            err,
            SnapshotError::for_host(
                1,
                SnapshotError::ModelMismatch {
                    expected: digest,
                    found: digest ^ 1,
                }
            )
        );

        // One weight bit of the image changes: no shard names it any more.
        let mut bad = snap;
        let w = &mut bad.model.vit_params[0].data[0];
        *w = f32::from_bits(w.to_bits() ^ 1);
        let err = FleetRuntime::restore(&bad).expect_err("a changed image must not restore");
        assert!(
            matches!(
                &err,
                SnapshotError::Host { host: 0, source }
                    if matches!(**source, SnapshotError::ModelMismatch { found, .. } if found == digest)
            ),
            "{err:?}"
        );
        assert!(err.to_string().contains("host 0"), "{err}");
    });
}

/// Deepest `[`/`{` nesting in a JSON document, ignoring string contents.
fn nesting_depth(json: &str) -> usize {
    let (mut depth, mut deepest) = (0usize, 0usize);
    let (mut in_string, mut escaped) = (false, false);
    for b in json.bytes() {
        if in_string {
            match (escaped, b) {
                (true, _) => escaped = false,
                (false, b'\\') => escaped = true,
                (false, b'"') => in_string = false,
                _ => {}
            }
            continue;
        }
        match b {
            b'"' => in_string = true,
            b'[' | b'{' => {
                depth += 1;
                deepest = deepest.max(depth);
            }
            b']' | b'}' => depth -= 1,
            _ => {}
        }
    }
    deepest
}

#[test]
fn corrupted_fleet_snapshot_json_fails_typed_and_never_panics() {
    let json = bliss_parallel::with_thread_count(1, || {
        let fleet = runtime();
        let cfg = load(PlacementPolicy::LeastLoaded);
        let mut state = fleet.start(&cfg);
        for _ in 0..2 {
            assert!(fleet.step(&mut state).expect("step succeeds"));
        }
        fleet.snapshot(&cfg, &state).to_json()
    });
    // The parser's nesting cap sits far above anything the fleet writes.
    let depth = nesting_depth(&json);
    assert!(
        4 * depth < serde::json::MAX_DEPTH,
        "fleet snapshot nests {depth} deep"
    );
    // Every proper prefix of the top-level object is malformed JSON.
    let step = (json.len() / 128).max(1);
    for cut in (0..json.len()).step_by(step) {
        if json.is_char_boundary(cut) {
            let err = FleetSnapshot::parse(&json[..cut]).expect_err("truncated snapshot parsed");
            assert!(matches!(err, SnapshotError::Json(_)), "cut {cut}: {err:?}");
        }
    }
    // One flipped bit anywhere parses to some snapshot or fails with a
    // typed error. Flipping a bit below 0x80 keeps ASCII input valid UTF-8.
    let mut bytes = json.into_bytes();
    for (k, pos) in (0..bytes.len()).step_by(step).enumerate() {
        let original = bytes[pos];
        bytes[pos] ^= [0x01, 0x02, 0x20, 0x40][k % 4];
        if let Ok(text) = std::str::from_utf8(&bytes) {
            let _: Result<FleetSnapshot, SnapshotError> = FleetSnapshot::parse(text);
        }
        bytes[pos] = original;
    }
}
