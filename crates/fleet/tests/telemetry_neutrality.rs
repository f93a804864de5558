//! Telemetry neutrality at fleet scale: tracing on vs off must be
//! **bit-identical** under every placement policy, and every recorded span
//! must carry the id of the host shard that actually served its frame
//! (the fleet sets the ambient host id around each shard's batch step, so
//! a mis-scoped `set_current_host` would show up here as a span filed
//! under the wrong `pid` in the exported Perfetto trace).
//!
//! The enable flag and the span ring are process-global, so the tests
//! serialise on one local mutex; the runtime uses untrained miniature
//! networks (scheduling and placement are exact regardless of training).

use bliss_fleet::{FleetConfig, FleetRuntime, PlacementPolicy};
use bliss_track::{RoiPredictionNet, SparseViT};
use blisscam_core::SystemConfig;
use rand::{rngs::StdRng, SeedableRng};
use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard};

/// Serialises tests that touch the process-global telemetry state.
fn telemetry_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Untrained miniature fleet (`Rc` internals keep it off statics; each
/// test rebuilds from the same seed).
fn fleet() -> FleetRuntime {
    let mut system = SystemConfig::miniature();
    system.vit.dim = 12;
    system.vit.enc_depth = 1;
    system.vit.dec_depth = 1;
    system.roi_net.hidden = 16;
    let mut rng = StdRng::seed_from_u64(0xF1EE7);
    FleetRuntime::with_networks(
        system,
        SparseViT::new(&mut rng, system.vit),
        RoiPredictionNet::new(&mut rng, system.roi_net),
    )
}

#[test]
fn tracing_is_bit_neutral_for_every_placement_policy() {
    let _g = telemetry_lock();
    let rt = fleet();
    bliss_telemetry::init_spans(1 << 14);
    for policy in PlacementPolicy::ALL {
        let mut cfg = FleetConfig::new(2, policy, 5, 3);
        cfg.serve.max_batch = 4;
        bliss_telemetry::set_enabled(false);
        let off = rt.serve(&cfg).expect("fleet serves");
        bliss_telemetry::set_enabled(true);
        let on = rt.serve(&cfg).expect("fleet serves");
        bliss_telemetry::set_enabled(false);
        assert_eq!(
            off,
            on,
            "tracing changed fleet results under {} placement",
            policy.label()
        );
    }
    bliss_telemetry::clear_spans();
}

#[test]
fn spans_carry_the_owning_host_id() {
    let _g = telemetry_lock();
    let rt = fleet();
    bliss_telemetry::init_spans(1 << 14);
    bliss_telemetry::clear_spans();
    let mut cfg = FleetConfig::new(3, PlacementPolicy::RoundRobin, 6, 3);
    cfg.serve.max_batch = 4;
    bliss_telemetry::set_enabled(true);
    let outcome = rt.serve(&cfg).expect("fleet serves");
    bliss_telemetry::set_enabled(false);
    let spans = bliss_telemetry::take_spans();

    // Placement ground truth: which host served which session.
    let mut owner: HashMap<u32, u32> = HashMap::new();
    let mut frames_total = 0usize;
    for (host, shard) in outcome.per_host.iter().enumerate() {
        for trace in &shard.traces {
            owner.insert(trace.config.id as u32, host as u32);
            frames_total += trace.records.len();
        }
    }
    assert!(owner.len() == 6, "every session was placed");
    assert_eq!(
        spans.len(),
        frames_total * bliss_telemetry::Stage::ALL.len()
    );
    assert_eq!(bliss_telemetry::spans_dropped(), 0);
    for span in &spans {
        assert_eq!(
            Some(&span.host),
            owner.get(&span.session),
            "span for session {} filed under host {}, but placement sent it to host {:?}",
            span.session,
            span.host,
            owner.get(&span.session)
        );
    }
    // All three hosts actually show up in the trace, and the ambient host
    // id is restored to 0 after the run.
    let hosts: std::collections::HashSet<u32> = spans.iter().map(|s| s.host).collect();
    assert_eq!(hosts.len(), 3);
    assert_eq!(bliss_telemetry::current_host(), 0);
    bliss_telemetry::clear_spans();
}
