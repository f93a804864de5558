//! Compiled execution plans at the serving level.
//!
//! Serving runs every inference through compiled execution plans
//! (`bliss_tensor::exec`): for every scenario in the session mix, under 1-,
//! 2- and 8-thread pools, both networks compile plans (misses) and reuse
//! them across batches (hits). That planned serving is bit-identical to the
//! autograd tape is pinned by the `equivalence` suite, which compares every
//! served record with a replay of the same front-end stages on the tape.
//!
//! Snapshots extend the guarantee across restarts: compiled plans are
//! deliberately **not** serialised (they are pure derived state), so a
//! restored runtime starts with an empty plan cache, rebuilds plans lazily
//! on first forward, and still drains to the bit-identical outcome.
//!
//! Fixture pattern follows `restore_identity.rs`: weights stored as
//! plain-data [`ParamSnapshot`]s so each test can materialise live
//! `Rc`-backed runtimes on its own thread.

use bliss_nn::{restore_params, snapshot_params, ParamSnapshot};
use bliss_serve::{ServeConfig, ServeRuntime, ServeSnapshot};
use bliss_track::{JointTrainer, RoiPredictionNet, SparseViT};
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

/// Rebuilds the fixture's trained runtime on the current thread.
fn runtime(fx: &Fixture) -> ServeRuntime {
    let mut rng = StdRng::seed_from_u64(fx.system.seed);
    let vit = SparseViT::new(&mut rng, fx.system.vit);
    let roi_net = RoiPredictionNet::new(&mut rng, fx.system.roi_net);
    restore_params(&vit, &fx.vit_params).expect("vit weights restore");
    restore_params(&roi_net, &fx.roi_params).expect("roi weights restore");
    ServeRuntime::with_networks(fx.system, vit, roi_net)
}

/// A 5-session load point: one session per [`bliss_eye::Scenario`]
/// (round-robin assignment), so every scenario's token-count rhythm — and
/// hence every plan shape class — is compiled.
fn load() -> ServeConfig {
    let mut cfg = ServeConfig::new(5, 6);
    cfg.max_batch = 4;
    cfg
}

#[test]
fn planned_serving_compiles_and_reuses_plans_across_scenarios_and_thread_counts() {
    let fx = fixture();
    let cfg = load();
    for threads in [1usize, 2, 8] {
        bliss_parallel::with_thread_count(threads, || {
            let rt = runtime(fx);
            let planned = rt.serve(&cfg).expect("planned serve succeeds");
            // The planned path actually ran: shape classes compiled (misses)
            // and were reused across batches (hits), for both networks.
            let vit_stats = rt.vit_plan_stats();
            assert!(vit_stats.misses > 0, "ViT never compiled a plan");
            assert!(vit_stats.hits > 0, "ViT plans never reused");
            assert!(rt.roi_plan_stats().hits > 0, "ROI-net plans never reused");

            // Scenario coverage sanity: all 5 scenarios are in the mix.
            let labels: std::collections::BTreeSet<&str> = planned
                .traces
                .iter()
                .map(|t| t.config.scenario.label())
                .collect();
            assert_eq!(labels.len(), 5, "expected 5 distinct scenarios");
        });
    }
}

#[test]
fn restored_runtime_rebuilds_plans_lazily_and_stays_bit_identical() {
    let fx = fixture();
    let cfg = load();
    bliss_parallel::with_thread_count(1, || {
        let rt = runtime(fx);
        let uninterrupted = rt.serve(&cfg).expect("serve succeeds");
        assert!(rt.vit_plan_stats().plans > 0, "planned path never compiled");

        // Interrupt mid-run: snapshot -> JSON -> restore into a fresh
        // runtime, exactly as `restore_identity.rs` does.
        let mut state = rt.start(&cfg);
        for _ in 0..3 {
            assert!(rt.step_batch(&cfg, &mut state).expect("step succeeds"));
        }
        let json = rt.snapshot(&cfg, &state).to_json();
        let snap = ServeSnapshot::parse(&json).expect("snapshot parses");
        let (rt2, cfg2, mut state2) = ServeRuntime::restore(&snap).expect("snapshot restores");

        // Plans are derived state and not part of the wire format: the
        // restored runtime starts cold.
        let cold = rt2.vit_plan_stats();
        assert_eq!((cold.plans, cold.misses, cold.hits), (0, 0, 0));

        while rt2.step_batch(&cfg2, &mut state2).expect("step succeeds") {}
        let resumed = rt2.finish(&cfg2, state2);

        // Draining recompiled lazily ...
        let warm = rt2.vit_plan_stats();
        assert!(warm.misses > 0, "restored runtime never rebuilt a plan");
        assert!(warm.plans > 0);
        // ... and restore identity still holds bit-for-bit.
        assert_eq!(resumed.traces, uninterrupted.traces);
        assert_eq!(resumed.report, uninterrupted.report);
    });
}
