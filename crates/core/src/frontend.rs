//! The shared per-frame sensor/feedback front-end of the sparse pipeline.
//!
//! Exactly one implementation of BlissCam's closed loop — noise → exposure →
//! analog eventification → ROI-net input assembly → cold-start full-frame
//! fallback → SRAM-sampled sparse readout → RLE over MIPI → host decode →
//! segmentation feedback → geometric gaze — shared by the lock-step
//! simulator ([`crate::EyeTrackingSystem`]) and the streaming runtime
//! (`bliss_serve`). Before this module existed the stages were duplicated in
//! both crates, and a change to one could silently miss the other; the
//! serve-vs-system equivalence suite now pins the two paths to the same
//! bits.
//!
//! # Contract
//!
//! A [`SparseFrontEnd`] owns every piece of per-stream mutable state (the
//! sensor's analog memory and entropy, the imaging-noise RNG, the fed-back
//! segmentation map, the gaze estimator), so N front ends advance
//! independently — and deterministically — on any thread pool. Per frame,
//! the stages must run in this order:
//!
//! 1. [`SparseFrontEnd::sense_events`] — one imaging-noise draw, exposure,
//!    analog eventification against the held previous frame;
//! 2. [`SparseFrontEnd::roi_input`] — assemble the 2-channel ROI-net input
//!    from the event map and the fed-back segmentation;
//! 3. [`SparseFrontEnd::select_box`] — the predicted box, or the full-frame
//!    cold-start bootstrap before the first segmentation feedback arrives;
//! 4. [`SparseFrontEnd::read_out`] — SRAM-metastability sampling inside the
//!    box, RLE encode, modelled MIPI transfer, host-side decode into the
//!    sparse image + mask;
//! 5. the host ViT (solo `forward` or cross-session `forward_batch` — the
//!    front end does not care which);
//! 6. [`SparseFrontEnd::absorb`] — adopt the segmentation as the next
//!    frame's feedback cue and regress the gaze.
//!
//! [`SparseFrontEnd::run_frame`] is the lock-step composition of those
//! stages for callers that do not interleave other sessions in between.
//!
//! The RNG streams are seeded as `seed ^ 0xD5` (sensor) and `seed ^ 0xE7A1`
//! (imaging noise), and both advance exactly once per
//! [`SparseFrontEnd::begin_stream`]/[`SparseFrontEnd::sense_events`] call —
//! so a stream's outputs depend only on `(seed, frame sequence)`, never on
//! batching or scheduling.

use crate::config::SystemConfig;
use crate::energy_model::FrameCounts;
use bliss_eye::{
    render_sequence_with, EyeModel, EyeSequence, Gaze, ImagingNoise, Scenario, SequenceConfig,
};
use bliss_sensor::{
    rle, sparse_image_into, DigitalPixelSensor, EventMap, PackedCodes, ReadoutResult, RoiBox,
    SensorConfig, SensorSnapshot,
};
use bliss_tensor::{NdArray, Tensor, TensorError};
use bliss_track::{
    EstimatorSnapshot, GazeEstimator, RoiNetConfig, RoiPredictionNet, SegPrediction, SparseViT,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// The sensor-side product of one frame, as handed to the host network:
/// the decoded sparse image plus the occupancy/traffic counters the energy
/// and timing models bill.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SensedFrame {
    /// Sparse reconstruction of the frame (unsampled pixels are zero).
    pub image: Vec<f32>,
    /// Per-pixel occupancy mask (`1.0` where a sample landed).
    pub mask: Vec<f32>,
    /// Pixels transmitted to the host.
    pub sampled: usize,
    /// ADC conversions performed.
    pub conversions: u64,
    /// Bytes on the MIPI link (RLE-compressed).
    pub mipi_bytes: u64,
    /// Area of the ROI box that was read out, in pixels.
    pub roi_pixels: u64,
}

impl SensedFrame {
    /// The energy-model counters for this frame, given the host's occupied
    /// token count.
    pub fn counts(&self, tokens: usize) -> FrameCounts {
        FrameCounts {
            conversions: self.conversions,
            sampled: self.sampled as u64,
            mipi_payload_bytes: self.mipi_bytes,
            tokens,
            roi_pixels: self.roi_pixels,
        }
    }
}

/// One frame's complete front-end outcome under the lock-step composition
/// ([`SparseFrontEnd::run_frame`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ServedFrame {
    /// The sensor-side stage outputs.
    pub sensed: SensedFrame,
    /// The regressed gaze.
    pub gaze: Gaze,
    /// Occupied ViT tokens this frame contributed to the host launch.
    pub tokens: usize,
}

/// The dynamic state of a [`SparseFrontEnd`] for durable-serving snapshots.
///
/// Only state that evolves while streaming is captured: the sensor's analog
/// memory and entropy, the imaging-noise RNG position, the gaze estimator's
/// held estimate, and the fed-back segmentation map. Geometry, seeds and the
/// staging buffers are re-derived when the front end is rebuilt (staging
/// buffers hold no information across frames — every user overwrites them
/// in full).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrontEndSnapshot {
    /// The sensor's serving-time state (held/current frames, SRAM RNG,
    /// readout counter).
    pub sensor: SensorSnapshot,
    /// The imaging-noise RNG's xoshiro256** word state.
    pub rng: [u64; 4],
    /// The gaze estimator's dynamic state, if a stream has begun.
    pub estimator: Option<EstimatorSnapshot>,
    /// The fed-back segmentation map from the last absorbed prediction,
    /// one class per pixel. The map holds classes only where the host saw
    /// tokens, so it has thousands of short runs; packed, it costs a fixed
    /// two bits per pixel at four classes.
    pub prev_seg: PackedCodes,
    /// Whether the feedback map has been adopted yet (cold-start flag).
    pub have_seg: bool,
}

impl FrontEndSnapshot {
    /// Checks that the snapshot fits a front end of `pixels` pixels: the
    /// feedback map covers exactly the frame with byte-sized classes, the
    /// sensor state fits ([`SensorSnapshot::check`]) and the imaging-noise
    /// RNG state is not all zeros. The error names the offending field.
    ///
    /// # Errors
    ///
    /// A description of the first mismatch found.
    pub fn check(&self, pixels: usize) -> Result<(), String> {
        let seg = self.prev_seg.codes().len();
        if seg != pixels {
            return Err(format!(
                "feedback map holds {seg} pixels, system expects {pixels}"
            ));
        }
        if self.prev_seg.width() > u8::BITS {
            return Err(format!(
                "feedback map classes take {} bits, at most {} fit",
                self.prev_seg.width(),
                u8::BITS
            ));
        }
        self.sensor.check(pixels)?;
        if self.rng == [0; 4] {
            return Err("all-zero imaging-noise RNG state".into());
        }
        Ok(())
    }
}

/// Per-stream state of the sparse per-frame pipeline (see the module docs
/// for the stage contract).
#[derive(Debug)]
pub struct SparseFrontEnd {
    width: usize,
    height: usize,
    sensor: DigitalPixelSensor,
    noise: ImagingNoise,
    rng: StdRng,
    estimator: Option<GazeEstimator>,
    prev_seg: Vec<u8>,
    have_seg: bool,
    /// Per-stream staging buffers, reused across frames so the steady-state
    /// front end performs no per-frame allocations for these stages.
    noisy_buf: Vec<f32>,
    events_buf: Vec<f32>,
    seg_buf: Vec<u8>,
    classes_buf: Vec<(usize, u8)>,
    events_map: EventMap,
    readout_buf: ReadoutResult,
    mipi_buf: Vec<u8>,
    decode_buf: Vec<u16>,
}

impl SparseFrontEnd {
    /// Builds the front end's sensor and RNG streams for `seed`.
    ///
    /// The stream is not usable until [`SparseFrontEnd::begin_stream`]
    /// primes the sensor's analog memory with a sequence's frame 0.
    pub fn new(width: usize, height: usize, seed: u64) -> Self {
        let mut sensor_cfg = SensorConfig::miniature(width, height);
        sensor_cfg.seed = seed ^ 0xD5;
        SparseFrontEnd {
            width,
            height,
            sensor: DigitalPixelSensor::new(sensor_cfg),
            noise: ImagingNoise::default(),
            rng: StdRng::seed_from_u64(seed ^ 0xE7A1),
            estimator: None,
            prev_seg: vec![0u8; width * height],
            have_seg: false,
            noisy_buf: Vec::new(),
            events_buf: Vec::new(),
            seg_buf: Vec::new(),
            classes_buf: Vec::new(),
            events_map: EventMap::empty(0, 0),
            readout_buf: ReadoutResult::empty(),
            mipi_buf: Vec::new(),
            decode_buf: Vec::new(),
        }
    }

    /// Captures the front end's dynamic state for a durable-serving
    /// snapshot. Staging buffers are deliberately excluded — they carry no
    /// information across frames.
    pub fn snapshot(&self) -> FrontEndSnapshot {
        FrontEndSnapshot {
            sensor: self.sensor.snapshot(),
            rng: self.rng.state(),
            estimator: self.estimator.as_ref().map(|e| e.snapshot()),
            prev_seg: PackedCodes::new(self.prev_seg.iter().map(|&c| u16::from(c)).collect()),
            have_seg: self.have_seg,
        }
    }

    /// Overwrites the dynamic state from a snapshot taken on a front end
    /// with the same geometry and seed. After [`SparseFrontEnd::begin_stream`]
    /// has primed this front end for the same sequence, the restored stream
    /// continues bit-identically to the uninterrupted one. The sensor die
    /// this front end already built is restored in place
    /// ([`DigitalPixelSensor::restore`]), not built and calibrated again.
    ///
    /// # Panics
    ///
    /// Panics if [`FrontEndSnapshot::check`] rejects the snapshot for this
    /// front end's geometry, or if it carries an estimator state but
    /// [`SparseFrontEnd::begin_stream`] has not yet installed an estimator
    /// (the eye model is re-derived from the sequence, not serialised).
    pub fn restore(&mut self, snapshot: &FrontEndSnapshot) {
        if let Err(e) = snapshot.check(self.width * self.height) {
            panic!("front-end snapshot does not fit this front end: {e}");
        }
        self.sensor.restore(&snapshot.sensor);
        self.rng = StdRng::from_state(snapshot.rng);
        match (&mut self.estimator, &snapshot.estimator) {
            (Some(est), Some(snap)) => est.restore(snap),
            (_, None) => self.estimator = None,
            (None, Some(_)) => {
                panic!("begin_stream must run before restoring an estimator snapshot")
            }
        }
        self.prev_seg.clear();
        // `check` bounded every class to a byte.
        let classes = snapshot.prev_seg.codes().iter().map(|&c| c as u8);
        self.prev_seg.extend(classes);
        self.have_seg = snapshot.have_seg;
    }

    /// Whether a segmentation feedback map has been adopted yet. `false`
    /// means the next readout is a **cold-start** full-frame bootstrap read
    /// (the expensive launches the serving scheduler's
    /// `max_cold_per_batch` cap spreads out).
    pub fn has_feedback(&self) -> bool {
        self.have_seg
    }

    /// Starts a stream: resets the feedback state, installs the gaze
    /// estimator for `model`'s geometry and primes the sensor's analog
    /// memory with the sequence's frame 0 (which is sensed but never
    /// served — eventification needs a held previous frame).
    pub fn begin_stream(&mut self, model: EyeModel, first_clean: &[f32]) {
        self.estimator = Some(GazeEstimator::new(model));
        self.prev_seg.fill(0);
        self.have_seg = false;
        self.noise
            .apply_into(first_clean, 1.0, &mut self.rng, &mut self.noisy_buf);
        self.sensor.expose(&self.noisy_buf);
        self.sensor.eventify_into(&mut self.events_map);
    }

    /// Renders a [`Scenario`]-parameterised stream of `frames` servable
    /// frames for `seed` and builds + primes its front end — THE single
    /// recipe behind both execution paths (`bliss_serve` sessions and
    /// [`crate::EyeTrackingSystem::run_scenario_frames`]), so a stream's
    /// identity is `(system geometry, scenario, seed, frames)` everywhere
    /// and the serve-vs-lockstep equivalence holds by construction.
    ///
    /// The sequence gets one extra leading frame: frame 0 primes the
    /// sensor's analog memory and is never served.
    pub fn scenario_stream(
        system: &SystemConfig,
        scenario: Scenario,
        seed: u64,
        frames: usize,
    ) -> (EyeSequence, SparseFrontEnd) {
        let seq_cfg = SequenceConfig {
            width: system.width,
            height: system.height,
            frames: frames + 1,
            fps: system.fps as f32,
            seed,
        };
        let trajectory = scenario.trajectory_config(seq_cfg.fps);
        let seq = render_sequence_with(&seq_cfg, trajectory);
        let mut front = SparseFrontEnd::new(system.width, system.height, seed);
        front.begin_stream(seq.model.clone(), &seq.frames[0].clean);
        (seq, front)
    }

    /// Stage 1: exposes `clean` through the imaging-noise model and
    /// eventifies it against the held previous frame, returning the
    /// full-resolution event map.
    pub fn sense_events(&mut self, clean: &[f32]) -> Vec<f32> {
        let mut out = Vec::new();
        self.sense_events_into(clean, &mut out);
        out
    }

    /// [`SparseFrontEnd::sense_events`] into a caller-owned buffer (cleared
    /// first). Bit-identical to the allocating form; streaming sessions keep
    /// one event buffer per stream and reuse it every frame.
    pub fn sense_events_into(&mut self, clean: &[f32], out: &mut Vec<f32>) {
        self.noise
            .apply_into(clean, 1.0, &mut self.rng, &mut self.noisy_buf);
        self.sensor.expose(&self.noisy_buf);
        self.sensor.eventify_into(&mut self.events_map);
        self.events_map.to_f32_into(out);
    }

    /// Stage 2: assembles the 2-channel in-sensor ROI-net input from the
    /// event map and the fed-back segmentation map (pure buffer math, safe
    /// to fan out across sessions).
    pub fn roi_input(&self, cfg: &RoiNetConfig, events: &[f32]) -> NdArray {
        cfg.make_input(events, &self.prev_seg)
    }

    /// Stage 3: the readout box for this frame — the ROI net's prediction
    /// once segmentation feedback exists, otherwise the hardware's
    /// cold-start full-frame bootstrap read.
    pub fn select_box(&self, roi_net: &RoiPredictionNet, roi_out: &Tensor) -> RoiBox {
        if self.have_seg {
            roi_net.predict_box(roi_out)
        } else {
            RoiBox::full(self.width, self.height)
        }
    }

    /// Stage 4: sparse readout through the SRAM-metastability sampler
    /// inside `roi`, RLE encode over the modelled MIPI link, and host-side
    /// decode into the sparse image + mask the segmenter consumes.
    ///
    /// # Errors
    ///
    /// Returns an error if the RLE stream fails to round-trip (a modelling
    /// bug, not an input condition).
    pub fn read_out(&mut self, roi: RoiBox, sample_rate: f32) -> Result<SensedFrame, TensorError> {
        let mut out = SensedFrame::default();
        self.read_out_into(roi, sample_rate, &mut out)?;
        Ok(out)
    }

    /// [`SparseFrontEnd::read_out`] into a caller-owned frame: the sparse
    /// image and mask buffers are resized and fully overwritten, so a
    /// streaming session reuses one [`SensedFrame`] per stream instead of
    /// rebuilding both full-frame buffers every frame. Bit-identical to the
    /// allocating form.
    ///
    /// # Errors
    ///
    /// Returns an error if the RLE stream fails to round-trip (a modelling
    /// bug, not an input condition).
    pub fn read_out_into(
        &mut self,
        roi: RoiBox,
        sample_rate: f32,
        out: &mut SensedFrame,
    ) -> Result<(), TensorError> {
        self.sensor
            .sparse_readout_into(roi, sample_rate, &mut self.readout_buf);
        let readout = &self.readout_buf;
        rle::encode_into(&readout.stream, &mut self.mipi_buf);
        rle::decode_into(&self.mipi_buf, readout.stream.len(), &mut self.decode_buf).map_err(
            |e| TensorError::InvalidArgument {
                op: "rle_decode",
                message: e.to_string(),
            },
        )?;
        debug_assert_eq!(self.decode_buf, readout.stream);
        sparse_image_into(
            readout.roi,
            &self.decode_buf,
            self.width,
            self.height,
            self.sensor.config().adc_bits,
            &mut out.image,
            &mut out.mask,
        );
        out.sampled = readout.sampled;
        out.conversions = readout.conversions;
        out.mipi_bytes = self.mipi_buf.len() as u64;
        out.roi_pixels = readout.roi.area() as u64;
        Ok(())
    }

    /// Stage 6: closes the loop on a host prediction — adopts the
    /// segmentation as the next frame's feedback cue if it actually found
    /// the eye, and regresses the gaze (holding the last estimate when the
    /// launch produced nothing).
    ///
    /// # Panics
    ///
    /// Panics if called before [`SparseFrontEnd::begin_stream`].
    pub fn absorb(&mut self, prediction: Option<SegPrediction>) -> (Gaze, usize) {
        assert!(
            self.estimator.is_some(),
            "begin_stream must run before absorb"
        );
        match prediction {
            Some(pred) => {
                // Decode once into the per-stream scratch buffers (the seg
                // map is scattered from the already-computed class pairs, as
                // `SegPrediction::seg_map` historically did), then swap the
                // segmentation in — same bits as rebuilding both per frame,
                // with zero steady-state allocations and one argmax pass.
                pred.classes_into(&mut self.classes_buf);
                self.seg_buf.clear();
                self.seg_buf.resize(self.width * self.height, 0u8);
                for &(i, c) in &self.classes_buf {
                    if i < self.seg_buf.len() {
                        self.seg_buf[i] = c;
                    }
                }
                if self.seg_buf.iter().any(|&c| c != 0) {
                    std::mem::swap(&mut self.prev_seg, &mut self.seg_buf);
                    self.have_seg = true;
                }
                let width = self.width;
                let estimator = self.estimator.as_mut().expect("checked above");
                (
                    estimator.estimate_from_pairs(&self.classes_buf, width),
                    pred.tokens,
                )
            }
            None => (self.estimator.as_mut().expect("checked above").last(), 0),
        }
    }

    /// The lock-step composition of stages 1–6 with a solo host launch in
    /// the middle — one frame end-to-end. The streaming runtime runs the
    /// same stages individually so that stage 5 can batch across sessions;
    /// the equivalence suite pins both compositions to identical bits.
    ///
    /// # Errors
    ///
    /// Propagates tensor errors from the networks.
    pub fn run_frame(
        &mut self,
        clean: &[f32],
        roi_net: &RoiPredictionNet,
        vit: &SparseViT,
        sample_rate: f32,
    ) -> Result<ServedFrame, TensorError> {
        let mut events = std::mem::take(&mut self.events_buf);
        self.sense_events_into(clean, &mut events);
        let input = self.roi_input(roi_net.config(), &events);
        self.events_buf = events;
        let roi_out = roi_net.forward(&input)?;
        let roi = self.select_box(roi_net, &roi_out);
        let sensed = self.read_out(roi, sample_rate)?;
        let prediction = vit.forward(&sensed.image, &sensed.mask)?;
        let (gaze, tokens) = self.absorb(prediction);
        Ok(ServedFrame {
            sensed,
            gaze,
            tokens,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bliss_eye::{render_sequence, SequenceConfig};

    #[test]
    fn cold_start_reads_the_full_frame_then_shrinks() {
        // Structural check without trained networks: before any feedback the
        // selected box must be the full frame, independent of the ROI
        // prediction.
        let seq = render_sequence(&SequenceConfig {
            width: 80,
            height: 50,
            frames: 3,
            fps: 120.0,
            seed: 9,
        });
        let mut fe = SparseFrontEnd::new(80, 50, 9);
        fe.begin_stream(seq.model.clone(), &seq.frames[0].clean);
        assert!(!fe.have_seg);
        let events = fe.sense_events(&seq.frames[1].clean);
        assert_eq!(events.len(), 80 * 50);
        let sensed = fe.read_out(RoiBox::full(80, 50), 0.2).unwrap();
        assert_eq!(sensed.image.len(), 80 * 50);
        assert_eq!(sensed.roi_pixels, 80 * 50);
        assert!(sensed.sampled > 0 && sensed.sampled <= 80 * 50);
        assert_eq!(sensed.counts(7).tokens, 7);
        assert_eq!(sensed.counts(7).sampled, sensed.sampled as u64);
    }

    #[test]
    fn snapshot_restores_stream_bit_identically_through_json() {
        use serde::{Deserialize, Serialize};
        let seq = render_sequence(&SequenceConfig {
            width: 80,
            height: 50,
            frames: 6,
            fps: 120.0,
            seed: 31,
        });
        // Uninterrupted reference: sense + read every servable frame.
        let mut reference = SparseFrontEnd::new(80, 50, 31);
        reference.begin_stream(seq.model.clone(), &seq.frames[0].clean);
        let mut ref_out = Vec::new();
        for f in &seq.frames[1..] {
            let e = reference.sense_events(&f.clean);
            let s = reference.read_out(RoiBox::full(80, 50), 0.2).unwrap();
            ref_out.push((e, s));
        }
        // Interrupted run: snapshot after 2 frames, restore into a freshly
        // primed front end, continue.
        let mut first = SparseFrontEnd::new(80, 50, 31);
        first.begin_stream(seq.model.clone(), &seq.frames[0].clean);
        let mut out = Vec::new();
        for f in &seq.frames[1..3] {
            let e = first.sense_events(&f.clean);
            let s = first.read_out(RoiBox::full(80, 50), 0.2).unwrap();
            out.push((e, s));
        }
        let json = first.snapshot().to_json();
        let snap = FrontEndSnapshot::from_json(&json).unwrap();
        let mut second = SparseFrontEnd::new(80, 50, 31);
        second.begin_stream(seq.model.clone(), &seq.frames[0].clean);
        second.restore(&snap);
        for f in &seq.frames[3..] {
            let e = second.sense_events(&f.clean);
            let s = second.read_out(RoiBox::full(80, 50), 0.2).unwrap();
            out.push((e, s));
        }
        assert_eq!(out, ref_out);
    }

    #[test]
    fn streams_with_the_same_seed_sense_identically() {
        let seq = render_sequence(&SequenceConfig {
            width: 80,
            height: 50,
            frames: 4,
            fps: 120.0,
            seed: 5,
        });
        let run = || {
            let mut fe = SparseFrontEnd::new(80, 50, 123);
            fe.begin_stream(seq.model.clone(), &seq.frames[0].clean);
            let e1 = fe.sense_events(&seq.frames[1].clean);
            let s1 = fe.read_out(RoiBox::full(80, 50), 0.2).unwrap();
            (e1, s1)
        };
        let (ea, sa) = run();
        let (eb, sb) = run();
        assert_eq!(ea, eb);
        assert_eq!(sa, sb);
    }
}
