//! Property-based chaos guarantees.
//!
//! * Any [`FaultPlan`] is pure data: generating it twice from the same
//!   `(seed, hosts, horizon, mix)` yields the identical event sequence, the
//!   sequence is totally ordered, and it survives the JSON wire format.
//! * Any chaos run replays bit-for-bit: the full [`ChaosOutcome`] —
//!   injected-fault log included — is identical across repeated runs.
//! * The merged timeline stays totally ordered and gap-free when hosts drop
//!   out and rejoin mid-run.
//! * A truncated or bit-flipped plan file fails with a typed
//!   [`serde::JsonError`] (or parses to some plan); it never panics.

use bliss_fleet::{ChaosConfig, FaultMix, FaultPlan, FleetConfig, FleetRuntime, PlacementPolicy};
use bliss_track::{RoiPredictionNet, SparseViT};
use blisscam_core::SystemConfig;
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use serde::{Deserialize as _, JsonError, Serialize as _};
use std::collections::BTreeMap;

fn fleet() -> FleetRuntime {
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

fn arb_mix() -> impl Strategy<Value = FaultMix> {
    (0usize..3, 0usize..3, 0usize..3, 0usize..3).prop_map(
        |(crashes, slow_hosts, timeouts, corrupt_checkpoints)| FaultMix {
            crashes,
            slow_hosts,
            timeouts,
            corrupt_checkpoints,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn fault_plans_replay_to_identical_event_sequences(
        seed in 0u64..u64::MAX,
        hosts in 1usize..6,
        horizon in 1e-3f64..10.0,
        mix in arb_mix(),
    ) {
        let a = FaultPlan::generate(seed, hosts, horizon, &mix);
        let b = FaultPlan::generate(seed, hosts, horizon, &mix);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(
            a.events.len(),
            mix.crashes + mix.slow_hosts + mix.timeouts + mix.corrupt_checkpoints
        );
        for e in &a.events {
            prop_assert!(e.host < hosts);
            prop_assert!(e.at_s.is_finite() && e.at_s >= 0.0 && e.at_s <= horizon);
        }
        for pair in a.events.windows(2) {
            prop_assert!(pair[1].at_s >= pair[0].at_s, "plan must be time-ordered");
        }
        // The plan is wire-safe: JSON round-trip is lossless.
        let back = FaultPlan::from_json(&a.to_json()).expect("plan round-trips");
        prop_assert_eq!(back, a);
    }
}

proptest! {
    // Each case runs the full engine three times; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn chaos_runs_replay_bit_for_bit_with_ordered_gap_free_timelines(
        seed in 0u64..u64::MAX,
        policy_idx in 0usize..3,
    ) {
        bliss_parallel::with_thread_count(1, || -> Result<(), TestCaseError> {
            let fleet = &fleet();
            let cfg = {
                let mut cfg =
                    FleetConfig::new(2, PlacementPolicy::ALL[policy_idx], 4, 3);
                cfg.serve.max_batch = 4;
                cfg
            };
            let baseline = fleet.serve(&cfg).expect("serve succeeds");
            let horizon = baseline.timeline.last().expect("nonempty").time_s;
            let plan = FaultPlan::generate(seed, cfg.hosts, horizon, &FaultMix::default());
            let mut chaos = ChaosConfig::new(plan);
            chaos.checkpoint_interval = 2;

            let a = fleet.serve_chaos(&cfg, &chaos).expect("chaos succeeds");
            let b = fleet.serve_chaos(&cfg, &chaos).expect("chaos succeeds");
            prop_assert_eq!(&a, &b);
            prop_assert_eq!(&a.log, &b.log);

            // Timeline totally ordered under the engine's merge key and
            // gap-free per session, even when a host dropped out mid-run.
            for pair in a.outcome.timeline.windows(2) {
                prop_assert!(pair[1].time_s >= pair[0].time_s);
            }
            let mut frames: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
            for e in &a.outcome.timeline {
                frames.entry(e.session).or_default().push(e.frame);
            }
            prop_assert_eq!(frames.len(), cfg.serve.sessions);
            for (id, mut seen) in frames {
                seen.sort_unstable();
                let expected: Vec<usize> = (0..cfg.serve.frames_per_session).collect();
                prop_assert_eq!(seen, expected);
                let _ = id;
            }
            Ok(())
        })?;
    }
}

#[test]
fn corrupted_fault_plan_json_fails_typed_and_never_panics() {
    let mixes = [
        FaultMix::default(),
        FaultMix {
            crashes: 2,
            slow_hosts: 2,
            timeouts: 2,
            corrupt_checkpoints: 1,
        },
        FaultMix {
            crashes: 0,
            slow_hosts: 0,
            timeouts: 0,
            corrupt_checkpoints: 0,
        },
    ];
    for (i, mix) in mixes.iter().enumerate() {
        let json = FaultPlan::generate(0xFA17 + i as u64, 3, 2.5, mix).to_json();
        // Every proper prefix of the top-level object is malformed JSON.
        for cut in 0..json.len() {
            let err: Result<FaultPlan, JsonError> = FaultPlan::from_json(&json[..cut]);
            assert!(err.is_err(), "plan {i}: prefix of {cut} bytes parsed");
        }
        // One flipped bit anywhere parses to some plan or fails with a
        // typed error. Flipping a bit below 0x80 keeps ASCII input valid
        // UTF-8.
        let step = (json.len() / 128).max(1);
        let mut bytes = json.into_bytes();
        for (k, pos) in (0..bytes.len()).step_by(step).enumerate() {
            let original = bytes[pos];
            bytes[pos] ^= [0x01, 0x02, 0x20, 0x40][k % 4];
            let text = std::str::from_utf8(&bytes).expect("ASCII stays UTF-8");
            let _: Result<FaultPlan, JsonError> = FaultPlan::from_json(text);
            bytes[pos] = original;
        }
    }
}
