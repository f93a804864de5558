//! The serving-level planned-vs-tape gate.
//!
//! Serving runs every inference through compiled execution plans. The
//! reference below replays the same stream one frame at a time through the
//! shared front-end stages (`blisscam_core::SparseFrontEnd`), with both
//! networks on the autograd tape: sense → ROI input → tape ROI net → box →
//! readout → tape ViT → feedback. For every scenario, under 1-, 2- and
//! 8-thread pools, each served record must equal its replayed frame bit for
//! bit in gaze, pixel volume and energy, and every served launch must have
//! run planned.

use bliss_eye::{Gaze, Scenario};
use bliss_serve::{FrameRecord, Precision, ServeConfig, ServeRuntime, SessionConfig};
use bliss_track::{JointTrainer, RoiPredictionNet, SparseViT};
use blisscam_core::{
    energy_breakdown_with_counts_at, SensedFrame, SparseFrontEnd, SystemConfig, SystemVariant,
};

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

/// The per-frame outputs a served record and the tape replay must share.
#[derive(Debug, PartialEq)]
struct FrameOutputs {
    index: usize,
    gaze_prediction: Gaze,
    gaze_truth: Gaze,
    horizontal_error_deg: f32,
    vertical_error_deg: f32,
    sampled_pixels: usize,
    roi_pixels: u64,
    tokens: usize,
    mipi_bytes: u64,
    energy_j: f64,
}

impl From<&FrameRecord> for FrameOutputs {
    fn from(r: &FrameRecord) -> Self {
        FrameOutputs {
            index: r.index,
            gaze_prediction: r.gaze_prediction,
            gaze_truth: r.gaze_truth,
            horizontal_error_deg: r.horizontal_error_deg,
            vertical_error_deg: r.vertical_error_deg,
            sampled_pixels: r.sampled_pixels,
            roi_pixels: r.roi_pixels,
            tokens: r.tokens,
            mipi_bytes: r.mipi_bytes,
            energy_j: r.energy_j,
        }
    }
}

/// Replays `sc`'s stream lock-step, both networks on the tape, and prices
/// each frame as serving does (BlissCam at f32).
fn tape_replay(
    system: &SystemConfig,
    sc: &SessionConfig,
    roi_net: &RoiPredictionNet,
    vit: &SparseViT,
) -> Vec<FrameOutputs> {
    let (seq, mut front) = SparseFrontEnd::scenario_stream(system, sc.scenario, sc.seed, sc.frames);
    let mut events = Vec::new();
    let mut sensed = SensedFrame::default();
    let mut out = Vec::with_capacity(sc.frames);
    for (index, frame) in seq.frames.iter().skip(1).enumerate() {
        front.sense_events_into(&frame.clean, &mut events);
        let input = front.roi_input(roi_net.config(), &events);
        let roi_out = roi_net.forward(&input).expect("tape ROI forward");
        let roi = front.select_box(roi_net, &roi_out);
        front
            .read_out_into(roi, system.sample_rate, &mut sensed)
            .expect("readout round-trips");
        let prediction = vit
            .forward(&sensed.image, &sensed.mask)
            .expect("tape ViT forward");
        let (gaze, tokens) = front.absorb(prediction);
        let energy = energy_breakdown_with_counts_at(
            system,
            SystemVariant::BlissCam,
            &sensed.counts(tokens),
            Precision::F32,
        );
        out.push(FrameOutputs {
            index,
            gaze_prediction: gaze,
            gaze_truth: frame.gaze,
            horizontal_error_deg: (gaze.horizontal_deg - frame.gaze.horizontal_deg).abs(),
            vertical_error_deg: (gaze.vertical_deg - frame.gaze.vertical_deg).abs(),
            sampled_pixels: sensed.sampled,
            roi_pixels: sensed.roi_pixels,
            tokens,
            mipi_bytes: sensed.mipi_bytes,
            energy_j: energy.total_j(),
        });
    }
    out
}

#[test]
fn serve_and_lockstep_paths_are_bit_identical() {
    let system = smoke_system();
    // Train once, then serve the very same networks (shared parameters, no
    // copy) and replay them on the tape.
    let train_seq = bliss_eye::render_sequence(&bliss_eye::SequenceConfig {
        width: system.width,
        height: system.height,
        frames: system.train_frames,
        fps: system.fps as f32,
        seed: system.seed,
    });
    let mut trainer = JointTrainer::new(system.train_config()).expect("trainer builds");
    trainer.train_on(&train_seq).expect("training succeeds");
    let (vit, roi_net) = (trainer.vit(), trainer.roi_net());
    let runtime = ServeRuntime::with_networks(system, vit.clone(), roi_net.clone());
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
                let replayed = tape_replay(&system, &sc, roi_net, vit);
                // Serving ran its launches through plans; the tape replay
                // never touched the plan cache.
                assert_eq!(
                    served.hits + served.misses - before.hits - before.misses,
                    6,
                    "{scenario:?}: not every served launch ran planned"
                );
                assert_eq!(runtime.vit_plan_stats(), served, "{scenario:?}");

                let at = format!("{scenario:?}/{seed} at {threads} threads");
                let records = &streamed.traces[0].records;
                let served_outputs: Vec<FrameOutputs> = records.iter().map(Into::into).collect();
                assert_eq!(served_outputs, replayed, "{at}");
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
