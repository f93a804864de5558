//! Serve-vs-`EyeTrackingSystem` equivalence: both execution paths drive the
//! ONE shared per-frame front-end (`blisscam_core::SparseFrontEnd`), so for
//! the same `(scenario, seed)` the streaming runtime and the lock-step
//! simulator must produce **bit-identical** gaze, pixel-volume and energy
//! outputs. Before the front-end existed the two paths were duplicated
//! stage lists that could silently diverge — this suite makes that
//! impossible to reintroduce.
//!
//! It is also the serving-level planned-vs-tape gate: serving runs every
//! inference through compiled execution plans, while the lock-step
//! simulator runs the same shared networks on the autograd tape. The two
//! must agree bit for bit for every scenario under 1-, 2- and 8-thread
//! pools.

use bliss_eye::Scenario;
use bliss_serve::{ServeConfig, ServeRuntime, SessionConfig};
use blisscam_core::{EyeTrackingSystem, SystemConfig, SystemVariant};

fn smoke_system() -> SystemConfig {
    let mut system = SystemConfig::miniature();
    system.train_frames = 30;
    system.vit.dim = 24;
    system.vit.enc_depth = 1;
    system.roi_net.hidden = 32;
    system
}

/// One session seed per [`Scenario::ALL`] entry.
const SEEDS: [u64; 5] = [0xF1EE7, 0x5E55_1011, 0xD81F7, 77, 424242];

#[test]
fn serve_and_lockstep_paths_are_bit_identical() {
    let system = smoke_system();
    // Train ONCE through the lock-step system, then serve the very same
    // networks (shared parameters, no copy).
    let mut sys = EyeTrackingSystem::new(SystemVariant::BlissCam, system).expect("system builds");
    let runtime = ServeRuntime::with_networks(system, sys.vit().clone(), sys.roi_net().clone());
    let mut serve_cfg = ServeConfig::new(1, 6);
    serve_cfg.max_batch = 4;

    for threads in [1usize, 2, 8] {
        bliss_parallel::with_thread_count(threads, || {
            for (&scenario, &seed) in Scenario::ALL.iter().zip(&SEEDS) {
                let sc = SessionConfig {
                    id: 0,
                    scenario,
                    seed,
                    frames: 6,
                    start_offset_s: 0.0,
                };
                let before = runtime.vit_plan_stats();
                let streamed = runtime
                    .serve_sessions(&serve_cfg, vec![sc])
                    .expect("serve succeeds");
                let served = runtime.vit_plan_stats();
                let lockstep = sys
                    .run_scenario_frames(scenario, seed, 6)
                    .expect("lock-step run succeeds");
                // Serving ran its launches through plans; the lock-step
                // simulator never touched the plan cache.
                assert_eq!(
                    served.hits + served.misses - before.hits - before.misses,
                    6,
                    "{scenario:?}: not every served launch ran planned"
                );
                assert_eq!(runtime.vit_plan_stats(), served, "{scenario:?}");

                let at = format!("{scenario:?}/{seed} at {threads} threads");
                let records = &streamed.traces[0].records;
                assert_eq!(records.len(), lockstep.frames.len(), "{at}");
                for (r, f) in records.iter().zip(&lockstep.frames) {
                    assert_eq!(r.index, f.index, "{at}");
                    assert_eq!(r.gaze_prediction, f.gaze_prediction, "{at}");
                    assert_eq!(r.gaze_truth, f.gaze_truth, "{at}");
                    assert_eq!(r.horizontal_error_deg, f.horizontal_error_deg, "{at}");
                    assert_eq!(r.vertical_error_deg, f.vertical_error_deg, "{at}");
                    assert_eq!(r.sampled_pixels, f.sampled_pixels, "{at}");
                    assert_eq!(r.tokens, f.tokens, "{at}");
                    assert_eq!(r.mipi_bytes, f.mipi_bytes, "{at}");
                    assert_eq!(r.energy_j, f.energy.total_j(), "{at}");
                }
                // The cold-start bootstrap reads the full frame: at the 20 %
                // in-ROI rate that is far more pixels than any predicted box
                // yields later.
                let pixels = system.pixels();
                assert!(
                    records[0].sampled_pixels as f64 > 0.15 * pixels as f64,
                    "{at}: cold start sampled only {}",
                    records[0].sampled_pixels
                );
                assert!(
                    records[0].sampled_pixels >= records[2].sampled_pixels,
                    "{at}: cold start not the widest read"
                );
            }
        });
    }
}
