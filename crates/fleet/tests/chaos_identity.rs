//! Crash-recovery bit-identity under deterministic chaos.
//!
//! The ISSUE-level guarantee: a fleet that crashes and fails over must
//! produce, for **every session and every frame**, the exact
//! gaze/volume/energy outputs of the uninterrupted run (faults can only
//! move timing), a complete gap-free merged timeline, and the identical
//! [`ChaosOutcome`] on 1/2/8-thread pools — for every placement policy and
//! several fault seeds. Untrained networks: recovery identity is a
//! scheduling/state property, not an accuracy property.

use bliss_fleet::{
    ChaosConfig, ChaosOutcome, DegradationPolicy, FaultEvent, FaultKind, FaultMix, FaultPlan,
    FleetConfig, FleetOutcome, FleetRuntime, PlacementPolicy,
};
use bliss_serve::FrameRecord;
use bliss_tensor::TensorError;
use bliss_track::{RoiPredictionNet, SparseViT};
use blisscam_core::SystemConfig;
use rand::{rngs::StdRng, SeedableRng};
use std::collections::BTreeMap;

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

/// Per-session records with the contention-dependent timing fields zeroed:
/// what must survive any fault schedule bit-for-bit.
fn accuracy_records(outcome: &FleetOutcome) -> BTreeMap<usize, Vec<FrameRecord>> {
    let mut by_session = BTreeMap::new();
    for host in &outcome.per_host {
        for trace in &host.traces {
            let mut records = trace.records.clone();
            for r in &mut records {
                r.arrival_s = 0.0;
                r.completion_s = 0.0;
                r.latency_s = 0.0;
                r.deadline_missed = false;
                r.batch_size = 0;
            }
            let prev = by_session.insert(trace.config.id, records);
            assert!(
                prev.is_none(),
                "session {} appears on two hosts",
                trace.config.id
            );
        }
    }
    by_session
}

/// Complete and gap-free: every admitted session contributes exactly
/// `frames` records with contiguous indices, both in the traces and in the
/// merged (totally ordered) timeline.
fn assert_complete(outcome: &FleetOutcome, sessions: usize, frames: usize) {
    let acc = accuracy_records(outcome);
    assert_eq!(acc.len(), sessions, "a session lost its trace entirely");
    for (id, records) in &acc {
        assert_eq!(records.len(), frames, "session {id} lost frames");
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.index, i, "session {id} has a gap at frame {i}");
        }
    }
    let timeline = &outcome.timeline;
    assert_eq!(timeline.len(), sessions * frames, "timeline is incomplete");
    for pair in timeline.windows(2) {
        assert!(
            pair[1].time_s >= pair[0].time_s,
            "timeline went backward at {:.9}s",
            pair[1].time_s
        );
    }
    let mut seen: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for e in timeline {
        seen.entry(e.session).or_default().push(e.frame);
    }
    for (id, mut frames_seen) in seen {
        frames_seen.sort_unstable();
        assert_eq!(
            frames_seen,
            (0..frames).collect::<Vec<_>>(),
            "session {id} timeline has gaps or duplicates"
        );
    }
}

#[test]
fn crash_recovery_is_bit_identical_for_every_policy_seed_and_thread_count() {
    let fleet = runtime();
    for policy in PlacementPolicy::ALL {
        let cfg = load(policy);
        let baseline = bliss_parallel::with_thread_count(1, || fleet.serve(&cfg))
            .expect("fault-free serve succeeds");
        let horizon = baseline.timeline.last().expect("nonempty run").time_s;
        let baseline_acc = accuracy_records(&baseline);

        let mut any_failover = false;
        for seed in [0xA1u64, 0xB2, 0xC3] {
            let plan = FaultPlan::generate(seed, cfg.hosts, horizon, &FaultMix::default());
            let mut chaos = ChaosConfig::new(plan);
            chaos.checkpoint_interval = 2;

            let outcomes: Vec<ChaosOutcome> = [1usize, 2, 8]
                .iter()
                .map(|&threads| {
                    bliss_parallel::with_thread_count(threads, || fleet.serve_chaos(&cfg, &chaos))
                        .expect("chaos serve succeeds")
                })
                .collect();
            assert_eq!(
                outcomes[0], outcomes[1],
                "{policy:?}/seed {seed:#x}: 1 vs 2 threads diverged"
            );
            assert_eq!(
                outcomes[0], outcomes[2],
                "{policy:?}/seed {seed:#x}: 1 vs 8 threads diverged"
            );

            let run = &outcomes[0];
            any_failover |= run.chaos.faults.failovers > 0;
            assert_complete(&run.outcome, 5, cfg.serve.frames_per_session);
            // Shedding is off, so EVERY frame (pre-crash and replayed) must
            // carry the fault-free accuracy/volume/energy outputs.
            assert_eq!(
                accuracy_records(&run.outcome),
                baseline_acc,
                "{policy:?}/seed {seed:#x}: chaos run perturbed accuracy/volume/energy"
            );
            assert_eq!(run.outcome.report.faults, run.chaos.faults);
            assert_eq!(run.chaos.plan_seed, seed);
            // Recovery latencies exist for every failover and are positive
            // virtual durations.
            assert!(run.chaos.recovery_latency_s.iter().all(|&r| r >= 0.0));
            // Survival curve brackets the run: starts at 0 frames with every
            // host alive, ends with all frames done.
            let first = run.chaos.survival.first().expect("survival has points");
            let last = run.chaos.survival.last().expect("survival has points");
            assert_eq!((first.frames_done, first.alive_hosts), (0, cfg.hosts));
            assert_eq!(last.frames_done, 5 * cfg.serve.frames_per_session);
        }
        assert!(
            any_failover,
            "{policy:?}: no crash landed across 3 seeds — the horizon tuning broke this suite"
        );
    }
}

#[test]
fn failover_from_initial_checkpoint_replays_everything() {
    // checkpoint_interval = 0 disables the periodic cadence, so the only
    // pre-crash checkpoint is the initial one: the failover must replay
    // every frame host 0 had served, and the outputs must still match.
    bliss_parallel::with_thread_count(1, || {
        let fleet = runtime();
        let cfg = load(PlacementPolicy::RoundRobin);
        let baseline = fleet.serve(&cfg).expect("serve succeeds");
        let horizon = baseline.timeline.last().expect("nonempty").time_s;

        let plan = FaultPlan {
            seed: 7,
            events: vec![FaultEvent {
                at_s: 0.55 * horizon,
                host: 0,
                kind: FaultKind::Crash,
            }],
        };
        let mut chaos = ChaosConfig::new(plan);
        chaos.checkpoint_interval = 0;
        let run = fleet.serve_chaos(&cfg, &chaos).expect("chaos succeeds");
        assert_eq!(run.chaos.faults.failovers, 1);
        assert!(
            run.chaos.faults.frames_replayed > 0,
            "a mid-run crash with only the initial checkpoint must replay frames"
        );
        assert_complete(&run.outcome, 5, cfg.serve.frames_per_session);
        assert_eq!(accuracy_records(&run.outcome), accuracy_records(&baseline));
    });
}

#[test]
fn corrupt_checkpoints_fall_back_to_newest_intact() {
    // A bad checkpoint medium from t=0 truncates every periodic checkpoint
    // on host 0; the crash later must hit >=1 unreadable checkpoint, fall
    // back to the (intact) initial one, and still lose nothing.
    bliss_parallel::with_thread_count(1, || {
        let fleet = runtime();
        let cfg = load(PlacementPolicy::LeastLoaded);
        let baseline = fleet.serve(&cfg).expect("serve succeeds");
        let horizon = baseline.timeline.last().expect("nonempty").time_s;

        let plan = FaultPlan {
            seed: 8,
            events: vec![
                FaultEvent {
                    at_s: 0.0,
                    host: 0,
                    kind: FaultKind::CorruptCheckpoint,
                },
                FaultEvent {
                    at_s: 0.6 * horizon,
                    host: 0,
                    kind: FaultKind::Crash,
                },
            ],
        };
        let mut chaos = ChaosConfig::new(plan);
        chaos.checkpoint_interval = 1;
        let run = fleet.serve_chaos(&cfg, &chaos).expect("chaos succeeds");
        assert_eq!(run.chaos.faults.failovers, 1);
        assert!(
            run.chaos.faults.corrupt_checkpoint_reads > 0,
            "the failover never hit a corrupt checkpoint: {:?}",
            run.chaos.faults
        );
        let crash = run
            .log
            .iter()
            .find(|f| f.kind == FaultKind::Crash)
            .expect("crash logged");
        assert!(
            crash.detail.contains("unreadable") && crash.detail.contains("host 0"),
            "corrupt fallback must surface the host-context parse error: {}",
            crash.detail
        );
        assert_complete(&run.outcome, 5, cfg.serve.frames_per_session);
        assert_eq!(accuracy_records(&run.outcome), accuracy_records(&baseline));
    });
}

#[test]
fn single_host_crash_rejoins_in_place() {
    // With no survivors the crashed host restarts from its checkpoint: the
    // rejoin case. Nothing may be lost and outputs must still match.
    bliss_parallel::with_thread_count(1, || {
        let fleet = runtime();
        let mut cfg = load(PlacementPolicy::RoundRobin);
        cfg.hosts = 1;
        let baseline = fleet.serve(&cfg).expect("serve succeeds");
        let horizon = baseline.timeline.last().expect("nonempty").time_s;

        let plan = FaultPlan {
            seed: 9,
            events: vec![FaultEvent {
                at_s: 0.5 * horizon,
                host: 0,
                kind: FaultKind::Crash,
            }],
        };
        let run = fleet
            .serve_chaos(&cfg, &ChaosConfig::new(plan))
            .expect("chaos succeeds");
        assert_eq!(run.chaos.faults.failovers, 1);
        assert_complete(&run.outcome, 5, cfg.serve.frames_per_session);
        assert_eq!(accuracy_records(&run.outcome), accuracy_records(&baseline));
        // The rejoined host served the whole fleet, so it stays "alive" in
        // the survival curve's terminal point.
        assert_eq!(run.chaos.survival.last().unwrap().alive_hosts, 1);
    });
}

#[test]
fn degradation_sheds_deterministically_and_loses_no_frames() {
    bliss_parallel::with_thread_count(1, || {
        let fleet = runtime();
        let cfg = load(PlacementPolicy::RoundRobin);
        let mut chaos = ChaosConfig::new(FaultPlan::quiet());
        // Enter degraded mode as soon as the window fills, regardless of
        // misses, so shedding definitely engages.
        chaos.degradation = Some(DegradationPolicy {
            window_frames: 1,
            enter_miss_rate: 0.0,
            exit_miss_rate: -1.0,
            shed_period: 2,
        });
        let a = fleet.serve_chaos(&cfg, &chaos).expect("chaos succeeds");
        let b = fleet.serve_chaos(&cfg, &chaos).expect("chaos succeeds");
        assert_eq!(a, b, "shedding must replay bit-identically");
        assert!(a.chaos.degraded_enters > 0, "ladder never engaged");
        assert!(a.chaos.faults.frames_shed > 0, "no frame was shed");
        // Shed frames still serve (gap-free), marked and without host
        // inference tokens.
        assert_complete(&a.outcome, 5, cfg.serve.frames_per_session);
        let mut shed_seen = 0usize;
        for host in &a.outcome.per_host {
            for trace in &host.traces {
                for r in &trace.records {
                    if r.shed {
                        shed_seen += 1;
                        assert_eq!(r.tokens, 0, "shed frame ran host inference");
                    }
                }
            }
        }
        assert_eq!(shed_seen, a.chaos.faults.frames_shed);
    });
}

#[test]
fn fault_plans_that_cannot_be_injected_fail_typed() {
    let fleet = runtime();
    let cfg = load(PlacementPolicy::RoundRobin);
    let slow = |factor: f64| FaultKind::Slow {
        factor,
        duration_s: 1.0,
    };
    for kind in [
        slow(0.5),
        slow(f64::NAN),
        slow(f64::INFINITY),
        FaultKind::Timeout { stall_s: -1.0 },
    ] {
        let plan = FaultPlan {
            seed: 1,
            events: vec![FaultEvent {
                at_s: 0.0,
                host: 0,
                kind,
            }],
        };
        let err = fleet
            .serve_chaos(&cfg, &ChaosConfig::new(plan))
            .expect_err("an uninjectable fault must be rejected");
        assert!(
            matches!(err, TensorError::InvalidArgument { .. }),
            "{kind:?}: expected InvalidArgument, got {err:?}"
        );
    }
}
