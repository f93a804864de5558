use crate::config::{SystemConfig, SystemVariant};
use crate::energy_model::{energy_breakdown_with_counts_at, EnergyBreakdown, FrameCounts};
use crate::frontend::SparseFrontEnd;
use crate::latency_model::simulate_pipeline;
use bliss_eye::{render_sequence, EyeSequence, Gaze, ImagingNoise, Scenario, SequenceConfig};
use bliss_npu::Precision;
use bliss_sensor::{sparse_image_into, DigitalPixelSensor, RoiBox, SensorConfig};
use bliss_tensor::TensorError;
use bliss_timing::PipelineReport;
use bliss_track::{
    util::frame_difference_events, DenseTrainer, GazeEstimator, JointTrainer, RoiPredictionNet,
    SparseViT,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Per-frame outcome of the executable simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrameResult {
    /// Frame index within the run.
    pub index: usize,
    /// Predicted gaze.
    pub gaze_prediction: Gaze,
    /// Ground-truth gaze.
    pub gaze_truth: Gaze,
    /// Absolute horizontal error in degrees.
    pub horizontal_error_deg: f32,
    /// Absolute vertical error in degrees.
    pub vertical_error_deg: f32,
    /// Pixels transmitted to the host.
    pub sampled_pixels: usize,
    /// ADC conversions performed.
    pub conversions: u64,
    /// Bytes on the MIPI link (RLE output for sparse variants).
    pub mipi_bytes: u64,
    /// Occupied ViT tokens (0 for CNN variants).
    pub tokens: usize,
    /// Per-frame energy under this variant's hardware model.
    pub energy: EnergyBreakdown,
}

/// Summary of an executable run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemReport {
    /// Which variant ran.
    pub variant: SystemVariant,
    /// Per-frame results.
    pub frames: Vec<FrameResult>,
    /// The Fig. 8 pipeline schedule for this variant.
    pub latency: PipelineReport,
    /// Sensor pixels per frame (for compression accounting).
    pub pixels: usize,
}

/// Mean per-axis angular error of a run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MeanAngularError {
    /// Mean absolute horizontal error in degrees.
    pub horizontal: f32,
    /// Mean absolute vertical error in degrees.
    pub vertical: f32,
}

impl SystemReport {
    /// Mean per-axis angular error across frames.
    pub fn mean_angular_error(&self) -> MeanAngularError {
        let n = self.frames.len().max(1) as f32;
        MeanAngularError {
            horizontal: self
                .frames
                .iter()
                .map(|f| f.horizontal_error_deg)
                .sum::<f32>()
                / n,
            vertical: self
                .frames
                .iter()
                .map(|f| f.vertical_error_deg)
                .sum::<f32>()
                / n,
        }
    }

    /// Mean per-frame energy in microjoules.
    pub fn mean_energy_uj(&self) -> f64 {
        let n = self.frames.len().max(1) as f64;
        self.frames.iter().map(|f| f.energy.total_j()).sum::<f64>() / n * 1e6
    }

    /// Mean pixel-volume compression rate versus the full frame.
    pub fn mean_compression(&self) -> f32 {
        let total: usize = self.frames.iter().map(|f| f.sampled_pixels).sum();
        let full = self.frames.len().max(1) * self.pixels;
        full as f32 / total.max(1) as f32
    }

    fn new(variant: SystemVariant, latency: PipelineReport, pixels: usize) -> Self {
        SystemReport {
            variant,
            frames: Vec::new(),
            latency,
            pixels,
        }
    }
}

/// The assembled, executable BlissCam system at miniature scale.
///
/// `EyeTrackingSystem` wires the full hardware path: rendered frames pass
/// through the imaging-noise model into the [`DigitalPixelSensor`]
/// (exposure → eventification → ROI → SRAM-metastability sampling → sparse
/// readout → RLE), across the modelled MIPI link, and into the trained
/// networks on the host (run-length decode → sparse ViT → geometric gaze).
/// Dense variants (`NpuFull`, `NpuRoi`) run the dense readout path with a
/// trained CNN baseline instead.
///
/// Construction renders a training sequence and trains the variant's
/// networks (seconds at miniature scale).
#[derive(Debug)]
pub struct EyeTrackingSystem {
    variant: SystemVariant,
    config: SystemConfig,
    pipeline: HostPipeline,
}

/// The trained host networks plus the per-stream sensor-side state each
/// pipeline flavour owns. The sparse arm's sensor/noise/RNG state lives
/// inside the shared [`SparseFrontEnd`] — the same component `bliss_serve`
/// drives — so the two execution paths cannot drift apart.
#[derive(Debug)]
enum HostPipeline {
    Sparse {
        trainer: Box<JointTrainer>,
        front: Box<SparseFrontEnd>,
    },
    Dense {
        trainer: Box<DenseTrainer>,
        sensor: Box<DigitalPixelSensor>,
        noise: ImagingNoise,
        rng: StdRng,
    },
}

impl EyeTrackingSystem {
    /// Builds and trains the system for `variant`.
    ///
    /// # Errors
    ///
    /// Propagates tensor errors from training.
    pub fn new(variant: SystemVariant, config: SystemConfig) -> Result<Self, TensorError> {
        let train_seq = render_sequence(&SequenceConfig {
            width: config.width,
            height: config.height,
            frames: config.train_frames.max(8),
            fps: config.fps as f32,
            seed: config.seed,
        });
        let pipeline = if variant.in_sensor_sampling() {
            let mut trainer = JointTrainer::new(config.train_config())?;
            trainer.train_on(&train_seq)?;
            HostPipeline::Sparse {
                trainer: Box::new(trainer),
                front: Box::new(SparseFrontEnd::new(
                    config.width,
                    config.height,
                    config.seed,
                )),
            }
        } else {
            let mut trainer = DenseTrainer::new(
                config.width,
                config.height,
                1,
                variant.host_roi(),
                config.seed,
            );
            trainer.set_epochs(config.train_epochs.max(1));
            trainer.train_on(&train_seq)?;
            let mut sensor_cfg = SensorConfig::miniature(config.width, config.height);
            sensor_cfg.seed = config.seed ^ 0xD5;
            HostPipeline::Dense {
                trainer: Box::new(trainer),
                sensor: Box::new(DigitalPixelSensor::new(sensor_cfg)),
                noise: ImagingNoise::default(),
                rng: StdRng::seed_from_u64(config.seed ^ 0xE7A1),
            }
        };
        Ok(EyeTrackingSystem {
            variant,
            config,
            pipeline,
        })
    }

    /// The variant being simulated.
    pub fn variant(&self) -> SystemVariant {
        self.variant
    }

    /// The configuration in use.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// The trained sparse ViT segmenter (`None` for dense variants). The
    /// serving layers wrap these shared networks via
    /// `ServeRuntime::with_networks`-style constructors.
    pub fn vit(&self) -> Option<&SparseViT> {
        match &self.pipeline {
            HostPipeline::Sparse { trainer, .. } => Some(trainer.vit()),
            HostPipeline::Dense { .. } => None,
        }
    }

    /// The trained in-sensor ROI-prediction network (`None` for dense
    /// variants).
    pub fn roi_net(&self) -> Option<&RoiPredictionNet> {
        match &self.pipeline {
            HostPipeline::Sparse { trainer, .. } => Some(trainer.roi_net()),
            HostPipeline::Dense { .. } => None,
        }
    }

    /// Runs `n` frames of a fresh evaluation sequence end-to-end.
    ///
    /// # Errors
    ///
    /// Propagates tensor errors from the networks.
    pub fn run_frames(&mut self, n: usize) -> Result<SystemReport, TensorError> {
        let seq = render_sequence(&SequenceConfig {
            width: self.config.width,
            height: self.config.height,
            frames: n + 1,
            fps: self.config.fps as f32,
            seed: self.config.seed + 1,
        });
        let latency = simulate_pipeline(&self.config, self.variant, n.max(4));
        let mut report = SystemReport::new(self.variant, latency, self.config.pixels());
        match &mut self.pipeline {
            HostPipeline::Sparse { trainer, front } => {
                front.begin_stream(seq.model.clone(), &seq.frames[0].clean);
                run_sparse(
                    &mut report,
                    &self.config,
                    self.variant,
                    front,
                    trainer,
                    &seq,
                )?;
            }
            HostPipeline::Dense {
                trainer,
                sensor,
                noise,
                rng,
            } => {
                run_dense(
                    &mut report,
                    &self.config,
                    self.variant,
                    sensor,
                    trainer,
                    &seq,
                    noise,
                    rng,
                )?;
            }
        }
        Ok(report)
    }

    /// Runs `n` frames of a [`Scenario`]-parameterised sequence identified
    /// by `seed`, through a **fresh** front-end stream seeded exactly like a
    /// `bliss_serve` session with the same `(scenario, seed)` — which is what
    /// makes the lock-step and streaming paths comparable bit-for-bit (the
    /// serve equivalence suite pins this).
    ///
    /// # Errors
    ///
    /// Returns an error for dense variants (the streaming runtime serves the
    /// sparse pipeline only) and propagates tensor errors from the networks.
    pub fn run_scenario_frames(
        &mut self,
        scenario: Scenario,
        seed: u64,
        n: usize,
    ) -> Result<SystemReport, TensorError> {
        let latency = simulate_pipeline(&self.config, self.variant, n.max(4));
        let mut report = SystemReport::new(self.variant, latency, self.config.pixels());
        match &mut self.pipeline {
            HostPipeline::Sparse { trainer, .. } => {
                // The one shared stream recipe — identical to a serve
                // session's — already primed with frame 0.
                let (seq, mut front) =
                    SparseFrontEnd::scenario_stream(&self.config, scenario, seed, n);
                run_sparse(
                    &mut report,
                    &self.config,
                    self.variant,
                    &mut front,
                    trainer,
                    &seq,
                )?;
            }
            HostPipeline::Dense { .. } => {
                return Err(TensorError::InvalidArgument {
                    op: "run_scenario_frames",
                    message: format!(
                        "scenario replay drives the sparse front-end; {} is a dense variant",
                        self.variant.label()
                    ),
                });
            }
        }
        Ok(report)
    }
}

/// Drives the shared [`SparseFrontEnd`] lock-step over a rendered sequence —
/// the same stages `bliss_serve` schedules asynchronously, composed by
/// [`SparseFrontEnd::run_frame`]. The caller has already begun the stream
/// (frame 0 primed) so that priming happens exactly once per stream on
/// every path.
fn run_sparse(
    report: &mut SystemReport,
    cfg: &SystemConfig,
    variant: SystemVariant,
    front: &mut SparseFrontEnd,
    trainer: &JointTrainer,
    seq: &EyeSequence,
) -> Result<(), TensorError> {
    for (t, frame) in seq.frames.iter().enumerate().skip(1) {
        let served = front.run_frame(
            &frame.clean,
            trainer.roi_net(),
            trainer.vit(),
            cfg.sample_rate,
        )?;
        let counts = served.sensed.counts(served.tokens);
        let gaze = served.gaze;
        report.frames.push(FrameResult {
            index: t - 1,
            gaze_prediction: gaze,
            gaze_truth: frame.gaze,
            horizontal_error_deg: (gaze.horizontal_deg - frame.gaze.horizontal_deg).abs(),
            vertical_error_deg: (gaze.vertical_deg - frame.gaze.vertical_deg).abs(),
            sampled_pixels: served.sensed.sampled,
            conversions: served.sensed.conversions,
            mipi_bytes: served.sensed.mipi_bytes,
            tokens: served.tokens,
            energy: energy_breakdown_with_counts_at(cfg, variant, &counts, Precision::F32),
        });
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn run_dense(
    report: &mut SystemReport,
    cfg: &SystemConfig,
    variant: SystemVariant,
    sensor: &mut DigitalPixelSensor,
    trainer: &mut DenseTrainer,
    seq: &EyeSequence,
    noise: &ImagingNoise,
    rng: &mut StdRng,
) -> Result<(), TensorError> {
    let (w, h) = (cfg.width, cfg.height);
    let mut estimator = GazeEstimator::new(seq.model.clone());
    let mut prev_noisy = noise.apply(&seq.frames[0].clean, 1.0, rng);
    let adc_bits = sensor.config().adc_bits;
    let (mut image, mut mask) = (Vec::new(), Vec::new());

    for (t, frame) in seq.frames.iter().enumerate().skip(1) {
        let noisy = noise.apply(&frame.clean, 1.0, rng);
        sensor.expose(&noisy);
        let readout = sensor.dense_readout(RoiBox::full(w, h));
        sparse_image_into(
            readout.roi,
            &readout.stream,
            w,
            h,
            adc_bits,
            &mut image,
            &mut mask,
        );

        // NPU-ROI masks everything outside the (host-derived) ROI before
        // segmentation; the ROI comes from frame differencing on the host.
        let transmitted = if variant.host_roi() {
            let events = frame_difference_events(&image, &prev_noisy, 15.0 / 255.0);
            let boxed = event_bbox(&events, w, h).unwrap_or(RoiBox::full(w, h));
            for y in 0..h {
                for x in 0..w {
                    if !boxed.contains(x, y) {
                        image[y * w + x] = 0.0;
                    }
                }
            }
            boxed.area()
        } else {
            w * h
        };

        let logits = trainer.network().forward_dense(&image)?;
        let arg = logits.value().argmax_rows().expect("rank-2 logits");
        let seg: Vec<u8> = arg.iter().map(|&c| c as u8).collect();
        let gaze = estimator.estimate_from_map(&seg, w, 1.0);

        let counts = FrameCounts {
            conversions: readout.conversions,
            sampled: transmitted as u64,
            mipi_payload_bytes: cfg.energy.mipi.frame_bytes(w * h),
            tokens: 0,
            roi_pixels: transmitted as u64,
        };
        report.frames.push(FrameResult {
            index: t - 1,
            gaze_prediction: gaze,
            gaze_truth: frame.gaze,
            horizontal_error_deg: (gaze.horizontal_deg - frame.gaze.horizontal_deg).abs(),
            vertical_error_deg: (gaze.vertical_deg - frame.gaze.vertical_deg).abs(),
            sampled_pixels: transmitted,
            conversions: readout.conversions,
            mipi_bytes: cfg.energy.mipi.frame_bytes(w * h),
            tokens: 0,
            energy: energy_breakdown_with_counts_at(cfg, variant, &counts, Precision::F32),
        });
        prev_noisy = noisy;
    }
    Ok(())
}

fn event_bbox(events: &[f32], w: usize, h: usize) -> Option<RoiBox> {
    let mut x1 = w;
    let mut y1 = h;
    let mut x2 = 0usize;
    let mut y2 = 0usize;
    for (i, &e) in events.iter().enumerate() {
        if e > 0.0 {
            let x = i % w;
            let y = i / w;
            x1 = x1.min(x);
            y1 = y1.min(y);
            x2 = x2.max(x + 1);
            y2 = y2.max(y + 1);
        }
    }
    if x2 > x1 && y2 > y1 {
        Some(RoiBox::new(x1, y1, x2, y2).expand(4, w, h))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_config() -> SystemConfig {
        let mut cfg = SystemConfig::miniature();
        cfg.train_frames = 30;
        cfg.vit.dim = 24;
        cfg.vit.enc_depth = 1;
        cfg.roi_net.hidden = 32;
        cfg
    }

    #[test]
    fn blisscam_system_runs_end_to_end() {
        let mut sys = EyeTrackingSystem::new(SystemVariant::BlissCam, fast_config()).unwrap();
        let report = sys.run_frames(8).unwrap();
        assert_eq!(report.frames.len(), 8);
        let err = report.mean_angular_error();
        assert!(err.horizontal.is_finite() && err.vertical.is_finite());
        assert!(report.mean_energy_uj() > 0.0);
        assert!(report.mean_compression() > 3.0);
        // Every frame actually moved fewer pixels than the frame size.
        for f in &report.frames {
            assert!(f.sampled_pixels < 160 * 100);
            assert!(f.mipi_bytes < (160 * 100 * 10 / 8) as u64);
        }
    }

    #[test]
    fn system_report_serialises_to_json() {
        use serde::Serialize as _;
        let cfg = fast_config();
        let latency = simulate_pipeline(&cfg, SystemVariant::BlissCam, 4);
        let mut report = SystemReport::new(SystemVariant::BlissCam, latency, cfg.pixels());
        report.frames.push(FrameResult {
            index: 0,
            gaze_prediction: Gaze::new(1.0, -2.0),
            gaze_truth: Gaze::new(1.5, -2.0),
            horizontal_error_deg: 0.5,
            vertical_error_deg: 0.0,
            sampled_pixels: 800,
            conversions: 800,
            mipi_bytes: 1000,
            tokens: 12,
            energy: energy_breakdown_with_counts_at(
                &cfg,
                SystemVariant::BlissCam,
                &FrameCounts {
                    conversions: 800,
                    sampled: 800,
                    mipi_payload_bytes: 1000,
                    tokens: 12,
                    roi_pixels: 4000,
                },
                Precision::F32,
            ),
        });
        let json = report.to_json();
        for key in [
            "\"variant\":\"BlissCam\"",
            "\"frames\":[{\"index\":0",
            "\"horizontal_deg\":1",
            "\"latency\":{",
            "\"achieved_fps\":",
            "\"pixels\":16000",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn npu_full_system_runs_end_to_end() {
        let mut sys = EyeTrackingSystem::new(SystemVariant::NpuFull, fast_config()).unwrap();
        let report = sys.run_frames(4).unwrap();
        assert_eq!(report.frames.len(), 4);
        for f in &report.frames {
            assert_eq!(f.sampled_pixels, 160 * 100);
            assert_eq!(f.conversions, 160 * 100);
        }
    }

    #[test]
    fn blisscam_moves_fewer_bytes_and_joules_than_npu_full() {
        let cfg = fast_config();
        let mut bliss = EyeTrackingSystem::new(SystemVariant::BlissCam, cfg).unwrap();
        let rb = bliss.run_frames(10).unwrap();
        let mut full = EyeTrackingSystem::new(SystemVariant::NpuFull, cfg).unwrap();
        let rf = full.run_frames(10).unwrap();
        assert!(rb.mean_energy_uj() < rf.mean_energy_uj());
        // Skip the cold-start bootstrap frames (full-frame readout) when
        // comparing steady-state traffic.
        let bytes_b: u64 = rb.frames.iter().skip(3).map(|f| f.mipi_bytes).sum();
        let bytes_f: u64 = rf.frames.iter().skip(3).map(|f| f.mipi_bytes).sum();
        assert!(
            bytes_b * 2 < bytes_f,
            "bliss {bytes_b} B vs full {bytes_f} B"
        );
        assert!(rb.latency.mean_latency_s <= rf.latency.mean_latency_s * 1.02);
    }
}
