use crate::config::{SystemConfig, SystemVariant};
use crate::energy_model::{energy_breakdown_with_counts_at, EnergyBreakdown};
use crate::frontend::SparseFrontEnd;
use crate::latency_model::simulate_pipeline;
use bliss_eye::{render_sequence, EyeSequence, Gaze, Scenario, SequenceConfig};
use bliss_npu::Precision;
use bliss_tensor::TensorError;
use bliss_timing::PipelineReport;
use bliss_track::{JointTrainer, RoiPredictionNet, SparseViT};
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
/// `EyeTrackingSystem` is the lock-step runner of the in-sensor variants
/// (`BlissCam`, `SNpu`). It wires the full hardware path: rendered frames
/// pass through the imaging-noise model into the [`DigitalPixelSensor`]
/// (exposure → eventification → ROI → SRAM-metastability sampling → sparse
/// readout → RLE), across the modelled MIPI link, and into the trained
/// networks on the host (run-length decode → sparse ViT → geometric gaze).
/// The dense baselines (`NpuFull`, `NpuRoi`) have no executable pipeline
/// here: their accuracy is [`bliss_track::DenseTrainer`]'s (Fig. 12) and
/// their energy and latency are the analytic models' (Figs. 13–14).
///
/// Construction renders a training sequence and trains the networks
/// (seconds at miniature scale).
///
/// [`DigitalPixelSensor`]: bliss_sensor::DigitalPixelSensor
#[derive(Debug)]
pub struct EyeTrackingSystem {
    variant: SystemVariant,
    config: SystemConfig,
    trainer: JointTrainer,
    /// Per-stream sensor, noise and RNG state: the same component
    /// `bliss_serve` drives, so the two execution paths cannot drift apart.
    front: SparseFrontEnd,
}

impl EyeTrackingSystem {
    /// Builds and trains the system for `variant`.
    ///
    /// # Errors
    ///
    /// [`TensorError::InvalidArgument`] for a dense variant (`NpuFull`,
    /// `NpuRoi`); propagates tensor errors from training.
    pub fn new(variant: SystemVariant, config: SystemConfig) -> Result<Self, TensorError> {
        if !variant.in_sensor_sampling() {
            return Err(TensorError::InvalidArgument {
                op: "EyeTrackingSystem::new",
                message: format!(
                    "{} is a dense baseline with no in-sensor pipeline: its accuracy is \
                     DenseTrainer's (Fig. 12), its energy and latency the analytic \
                     models' (energy_breakdown, simulate_pipeline; Figs. 13-14)",
                    variant.label()
                ),
            });
        }
        let train_seq = render_sequence(&SequenceConfig {
            width: config.width,
            height: config.height,
            frames: config.train_frames.max(8),
            fps: config.fps as f32,
            seed: config.seed,
        });
        let mut trainer = JointTrainer::new(config.train_config())?;
        trainer.train_on(&train_seq)?;
        Ok(EyeTrackingSystem {
            variant,
            config,
            trainer,
            front: SparseFrontEnd::new(config.width, config.height, config.seed),
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

    /// The trained sparse ViT segmenter. The serving layers wrap these
    /// shared networks via `ServeRuntime::with_networks`-style constructors.
    pub fn vit(&self) -> &SparseViT {
        self.trainer.vit()
    }

    /// The trained in-sensor ROI-prediction network.
    pub fn roi_net(&self) -> &RoiPredictionNet {
        self.trainer.roi_net()
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
        self.front
            .begin_stream(seq.model.clone(), &seq.frames[0].clean);
        run_sparse(
            &self.config,
            self.variant,
            &mut self.front,
            &self.trainer,
            &seq,
            n,
        )
    }

    /// Runs `n` frames of a [`Scenario`]-parameterised sequence identified
    /// by `seed`, through a **fresh** front-end stream seeded exactly like a
    /// `bliss_serve` session with the same `(scenario, seed)` — which is what
    /// makes the lock-step and streaming paths comparable bit-for-bit (the
    /// serve equivalence suite pins this).
    ///
    /// # Errors
    ///
    /// Propagates tensor errors from the networks.
    pub fn run_scenario_frames(
        &mut self,
        scenario: Scenario,
        seed: u64,
        n: usize,
    ) -> Result<SystemReport, TensorError> {
        // The one shared stream recipe — identical to a serve session's —
        // already primed with frame 0.
        let (seq, mut front) = SparseFrontEnd::scenario_stream(&self.config, scenario, seed, n);
        run_sparse(
            &self.config,
            self.variant,
            &mut front,
            &self.trainer,
            &seq,
            n,
        )
    }
}

/// Drives the shared [`SparseFrontEnd`] lock-step over a rendered sequence —
/// the same stages `bliss_serve` schedules asynchronously, composed by
/// [`SparseFrontEnd::run_frame`] — and reports the `n`-frame run. The
/// caller has already begun the stream (frame 0 primed) so that priming
/// happens exactly once per stream on every path.
fn run_sparse(
    cfg: &SystemConfig,
    variant: SystemVariant,
    front: &mut SparseFrontEnd,
    trainer: &JointTrainer,
    seq: &EyeSequence,
    n: usize,
) -> Result<SystemReport, TensorError> {
    let latency = simulate_pipeline(cfg, variant, n.max(4));
    let mut report = SystemReport::new(variant, latency, cfg.pixels());
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
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::energy_model::{energy_breakdown, FrameCounts};

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
    fn dense_variants_are_refused_at_construction() {
        // Refused before any training, with a pointer to where the dense
        // baselines live.
        for variant in [SystemVariant::NpuFull, SystemVariant::NpuRoi] {
            match EyeTrackingSystem::new(variant, fast_config()) {
                Err(TensorError::InvalidArgument { op, message }) => {
                    assert_eq!(op, "EyeTrackingSystem::new");
                    assert!(message.contains(variant.label()), "{message}");
                    assert!(message.contains("DenseTrainer"), "{message}");
                    assert!(message.contains("Figs. 13-14"), "{message}");
                }
                other => panic!("{variant:?}: expected InvalidArgument, got {other:?}"),
            }
        }
    }

    #[test]
    fn blisscam_moves_fewer_bytes_and_joules_than_npu_full() {
        // NPU-Full has no executable pipeline: the measured BlissCam run is
        // held against its analytic energy, full-frame MIPI payload and
        // pipeline schedule at the same configuration.
        let cfg = fast_config();
        let mut bliss = EyeTrackingSystem::new(SystemVariant::BlissCam, cfg).unwrap();
        let rb = bliss.run_frames(10).unwrap();
        let full_uj = energy_breakdown(&cfg, SystemVariant::NpuFull).total_j() * 1e6;
        assert!(rb.mean_energy_uj() < full_uj);
        // Skip the cold-start bootstrap frames (full-frame readout) when
        // comparing steady-state traffic.
        let steady = &rb.frames[3..];
        let bytes_b: u64 = steady.iter().map(|f| f.mipi_bytes).sum();
        let bytes_f = cfg.energy.mipi.frame_bytes(cfg.pixels()) * steady.len() as u64;
        assert!(
            bytes_b * 2 < bytes_f,
            "bliss {bytes_b} B vs full {bytes_f} B"
        );
        let full_latency = simulate_pipeline(&cfg, SystemVariant::NpuFull, 10);
        assert!(rb.latency.mean_latency_s <= full_latency.mean_latency_s * 1.02);
    }
}
