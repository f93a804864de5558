//! Regeneration of every table and figure in the paper's evaluation
//! (§VI). Each function returns a serialisable result; the `bliss-bench`
//! binaries print them in the paper's row/series format.
//!
//! Accuracy experiments (Figs. 12, 15, 16, Tbl. I) run the miniature
//! executable pipeline — training included — so they take seconds to a few
//! minutes depending on [`ExperimentScale`]. Hardware experiments (Figs. 13,
//! 14, 16-energy, 17) use the analytic paper-scale models and are instant.

use crate::config::{SystemConfig, SystemVariant};
use crate::energy_model::{energy_breakdown, EnergyBreakdown};
use crate::latency_model::simulate_pipeline;
use bliss_energy::ProcessNode;
use bliss_eye::{render_sequence, EyeClass, EyeSequence, SequenceConfig};
use bliss_tensor::TensorError;
use bliss_timing::StageKind;
use bliss_track::{
    AngularErrorStats, DenseTrainer, EvalResult, JointTrainer, SamplingStrategy, TrainConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Workload size of the accuracy experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExperimentScale {
    /// Frames in the training sequence.
    pub train_frames: usize,
    /// Frames in the held-out evaluation sequence.
    pub eval_frames: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Master seed.
    pub seed: u64,
}

impl ExperimentScale {
    /// Fast setting for CI and smoke runs (~seconds per point).
    pub fn quick() -> Self {
        ExperimentScale {
            train_frames: 90,
            eval_frames: 48,
            epochs: 1,
            seed: 21,
        }
    }

    /// The default setting used by the benchmark harness.
    pub fn standard() -> Self {
        ExperimentScale {
            train_frames: 220,
            eval_frames: 96,
            epochs: 2,
            seed: 21,
        }
    }

    fn train_seq(&self, cfg: &SystemConfig) -> EyeSequence {
        render_sequence(&SequenceConfig {
            width: cfg.width,
            height: cfg.height,
            frames: self.train_frames,
            fps: cfg.fps as f32,
            seed: self.seed,
        })
    }

    fn eval_seq(&self, cfg: &SystemConfig) -> EyeSequence {
        render_sequence(&SequenceConfig {
            width: cfg.width,
            height: cfg.height,
            frames: self.eval_frames,
            fps: cfg.fps as f32,
            seed: self.seed ^ 0xEEE,
        })
    }

    fn train_config(&self, cfg: &SystemConfig) -> TrainConfig {
        let mut t = cfg.train_config();
        t.epochs = self.epochs;
        t.seed = self.seed;
        t
    }
}

/// One accuracy-vs-compression point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AccuracyPoint {
    /// Measured pixel-volume compression rate.
    pub compression: f32,
    /// Horizontal angular error.
    pub horizontal: AngularErrorStats,
    /// Vertical angular error.
    pub vertical: AngularErrorStats,
    /// Mean segmentation accuracy over evaluated pixels.
    pub seg_accuracy: f32,
}

impl AccuracyPoint {
    fn from_eval(eval: &EvalResult) -> Self {
        AccuracyPoint {
            compression: eval.mean_compression,
            horizontal: eval.horizontal,
            vertical: eval.vertical,
            seg_accuracy: eval.seg_accuracy,
        }
    }
}

/// A named accuracy-vs-compression series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AccuracySeries {
    /// Series label (matches the paper's legends).
    pub label: String,
    /// Points in increasing compression order.
    pub points: Vec<AccuracyPoint>,
}

/// Fig. 12: end-to-end gaze error vs compression rate for NPU-Full,
/// NPU-ROI and ours (NPU-ROI-Sample).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig12Result {
    /// The three series.
    pub series: Vec<AccuracySeries>,
    /// MAC reduction of our sparse ViT versus the RITnet-class baseline at
    /// the default operating point (paper §VI-A quotes 4x).
    pub mac_reduction_vs_ritnet: f64,
}

/// Runs the Fig. 12 experiment.
///
/// The NPU-ROI series uses an **oracle ROI**: [`DenseTrainer`] zeroes the
/// pixels outside the renderer's ground-truth `frame.roi`, and counts the
/// series' compression from `frame.roi.area()`. The paper's NPU-ROI
/// predicts its ROI on the host, so this series is an upper bound on that
/// baseline's accuracy at each compression rate.
///
/// # Errors
///
/// Propagates tensor errors from training/evaluation.
pub fn fig12_accuracy(scale: &ExperimentScale) -> Result<Fig12Result, TensorError> {
    let cfg = SystemConfig::miniature();
    let train = scale.train_seq(&cfg);
    let eval = scale.eval_seq(&cfg);

    // Ours: sweep the in-ROI sampling rate.
    let mut ours = AccuracySeries {
        label: "NPU-ROI-Sample (ours)".into(),
        points: Vec::new(),
    };
    for &rate in &[1.0f32, 0.5, 0.25, 0.12, 0.06] {
        let mut tc = scale.train_config(&cfg);
        tc.sample_rate = rate;
        let mut trainer = JointTrainer::new(tc)?;
        trainer.train_on(&train)?;
        let result = trainer.evaluate(&eval)?;
        ours.points.push(AccuracyPoint::from_eval(&result));
    }

    // Dense baselines: compression through image downsampling.
    let mut npu_full = AccuracySeries {
        label: "NPU-Full".into(),
        points: Vec::new(),
    };
    let mut npu_roi = AccuracySeries {
        label: "NPU-ROI".into(),
        points: Vec::new(),
    };
    for &(ds, roi_only) in &[
        (1usize, false),
        (2, false),
        (3, false),
        (4, false),
        (5, false),
        (1, true),
        (2, true),
        (3, true),
    ] {
        let mut trainer = DenseTrainer::new(cfg.width, cfg.height, ds, roi_only, scale.seed);
        trainer.set_epochs(scale.epochs);
        trainer.train_on(&train)?;
        let result = trainer.evaluate(&eval)?;
        let point = AccuracyPoint::from_eval(&result);
        if roi_only {
            npu_roi.points.push(point);
        } else {
            npu_full.points.push(point);
        }
    }

    // MAC comparison at paper scale (§VI-A).
    let paper = SystemConfig::paper();
    let sparse = paper
        .vit
        .workload(
            crate::energy_model::sparse_tokens(&paper),
            paper.expected_sampled_pixels() as usize,
        )
        .total_macs() as f64;
    let ritnet = paper.cnn.workload().total_macs() as f64;

    Ok(Fig12Result {
        series: vec![ours, npu_full, npu_roi],
        mac_reduction_vs_ritnet: ritnet / sparse,
    })
}

/// Fig. 15: horizontal gaze error under the seven sampling alternatives.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig15Result {
    /// One series per strategy.
    pub series: Vec<AccuracySeries>,
}

/// Runs the Fig. 15 experiment.
///
/// A joint pipeline is trained once per compression point with our in-ROI
/// random sampling; every strategy is then evaluated with those weights —
/// strategies whose sample distribution diverges from the training
/// distribution degrade, which is exactly the robustness the figure probes.
///
/// # Errors
///
/// Propagates tensor errors from training/evaluation.
pub fn fig15_sampling(scale: &ExperimentScale) -> Result<Fig15Result, TensorError> {
    let cfg = SystemConfig::miniature();
    let train = scale.train_seq(&cfg);
    let eval = scale.eval_seq(&cfg);
    let importance = foreground_importance(&train);
    let pixels = cfg.pixels() as f32;

    // (our in-ROI rate, matched full-frame rate) pairs per compression point.
    let rates = [0.5f32, 0.25, 0.12, 0.06];
    let mut series: Vec<AccuracySeries> = Vec::new();

    for &rate in &rates {
        let mut tc = scale.train_config(&cfg);
        tc.sample_rate = rate;
        let mut trainer = JointTrainer::new(tc)?;
        trainer.train_on(&train)?;

        // Match every strategy's pixel budget to ours for this point.
        let ours_eval = trainer.evaluate(&eval)?;
        let budget = pixels / ours_eval.mean_compression; // pixels per frame
        let full_rate = budget / pixels;
        let stride = (pixels / budget).sqrt().round().max(1.0) as usize;
        let strategies: Vec<(SamplingStrategy, Option<&[f32]>)> = vec![
            (SamplingStrategy::RoiRandom { rate }, None),
            (SamplingStrategy::FullRandom { rate: full_rate }, None),
            (SamplingStrategy::FullDownsample { stride }, None),
            (
                SamplingStrategy::RoiDownsample {
                    stride: (1.0 / rate).sqrt().round().max(1.0) as usize,
                },
                None,
            ),
            (SamplingStrategy::RoiFixed { rate }, Some(&importance)),
            (SamplingStrategy::RoiLearned { rate }, Some(&importance)),
            (
                SamplingStrategy::Skip {
                    density_threshold: (rate * 0.12).min(0.05),
                },
                None,
            ),
        ];

        for (strategy, imp) in strategies {
            let result = if matches!(strategy, SamplingStrategy::RoiRandom { .. }) {
                ours_eval
            } else {
                trainer.evaluate_with_strategy(&eval, &strategy, imp)?
            };
            let label = strategy.label().to_string();
            let point = AccuracyPoint::from_eval(&result);
            match series.iter_mut().find(|s| s.label == label) {
                Some(s) => s.points.push(point),
                None => series.push(AccuracySeries {
                    label,
                    points: vec![point],
                }),
            }
        }
    }
    Ok(Fig15Result { series })
}

/// Per-pixel foreground frequency over a sequence — the "dataset statistics"
/// importance map for the ROI+Fixed / ROI+Learned baselines.
pub fn foreground_importance(seq: &EyeSequence) -> Vec<f32> {
    let mut imp = vec![0.0f32; seq.pixels()];
    for frame in &seq.frames {
        for (i, &c) in frame.mask.iter().enumerate() {
            if c != EyeClass::Skin as u8 {
                imp[i] += 1.0;
            }
        }
    }
    let n = seq.frames.len().max(1) as f32;
    for v in &mut imp {
        *v /= n;
    }
    imp
}

/// One row of the Fig. 13 energy comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnergyRow {
    /// Variant label.
    pub variant: String,
    /// Component breakdown.
    pub breakdown: EnergyBreakdown,
    /// Energy relative to BlissCam (the paper's headline ratios).
    pub ratio_vs_blisscam: f64,
}

/// Fig. 13: per-frame energy of the four variants at 120 FPS, paper scale.
pub fn fig13_energy(cfg: &SystemConfig) -> Vec<EnergyRow> {
    let bliss = energy_breakdown(cfg, SystemVariant::BlissCam).total_j();
    SystemVariant::ALL
        .iter()
        .map(|&v| {
            let breakdown = energy_breakdown(cfg, v);
            EnergyRow {
                variant: v.label().to_string(),
                ratio_vs_blisscam: breakdown.total_j() / bliss,
                breakdown,
            }
        })
        .collect()
}

/// One row of the Fig. 14 latency comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencyRow {
    /// Variant label.
    pub variant: String,
    /// Mean end-to-end tracking latency in seconds.
    pub latency_s: f64,
    /// Achieved tracking rate.
    pub achieved_fps: f64,
    /// Mean time per stage `(label, seconds)`.
    pub stages: Vec<(String, f64)>,
}

/// Fig. 14: end-to-end latency of the four variants at 120 FPS, paper scale.
pub fn fig14_latency(cfg: &SystemConfig) -> Vec<LatencyRow> {
    SystemVariant::ALL
        .iter()
        .map(|&v| {
            let report = simulate_pipeline(cfg, v, 32);
            let stages = [
                StageKind::Exposure,
                StageKind::Eventification,
                StageKind::RoiPrediction,
                StageKind::Sampling,
                StageKind::Readout,
                StageKind::Mipi,
                StageKind::Segmentation,
                StageKind::GazePrediction,
                StageKind::Feedback,
            ]
            .iter()
            .map(|&k| (format!("{k:?}"), report.mean_stage_s(k)))
            .collect();
            LatencyRow {
                variant: v.label().to_string(),
                latency_s: report.mean_latency_s,
                achieved_fps: report.achieved_fps,
                stages,
            }
        })
        .collect()
}

/// One row of the Fig. 16 frame-rate sensitivity study.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Fig16Row {
    /// Frame rate swept.
    pub fps: f64,
    /// Horizontal gaze error at this frame rate's exposure (miniature run).
    pub horizontal_error_deg: f32,
    /// Analytic energy saving over NPU-Full at paper scale.
    pub energy_saving: f64,
}

/// Runs the Fig. 16 experiment (30–500 FPS).
///
/// # Errors
///
/// Propagates tensor errors from training/evaluation.
pub fn fig16_framerate(scale: &ExperimentScale) -> Result<Vec<Fig16Row>, TensorError> {
    let cfg = SystemConfig::miniature();
    let train = scale.train_seq(&cfg);
    let eval = scale.eval_seq(&cfg);
    let mut trainer = JointTrainer::new(scale.train_config(&cfg))?;
    trainer.train_on(&train)?;

    let mut rows = Vec::new();
    for &fps in &[30.0f64, 60.0, 120.0, 240.0, 500.0] {
        // Accuracy: exposure (and therefore SNR) shrinks with frame rate.
        let exposure_scale = (1.0 / fps) / (1.0 / 120.0);
        trainer.set_exposure_scale(exposure_scale as f32);
        let result = trainer.evaluate(&eval)?;
        // Energy: analytic, paper scale.
        let mut paper = SystemConfig::paper();
        paper.fps = fps;
        let saving = energy_breakdown(&paper, SystemVariant::NpuFull).total_j()
            / energy_breakdown(&paper, SystemVariant::BlissCam).total_j();
        rows.push(Fig16Row {
            fps,
            horizontal_error_deg: result.horizontal.mean,
            energy_saving: saving,
        });
    }
    trainer.set_exposure_scale(1.0);
    Ok(rows)
}

/// One point of the Fig. 17 process-node sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Fig17Row {
    /// Host SoC node.
    pub soc_nm: u32,
    /// Sensor logic-layer node.
    pub logic_nm: u32,
    /// Energy saving over NPU-Full.
    pub energy_saving: f64,
}

/// Fig. 17: energy saving as the sensor logic node sweeps 65→16 nm under a
/// 7 nm and a 22 nm host SoC.
pub fn fig17_process_node() -> Vec<Fig17Row> {
    let mut rows = Vec::new();
    for &soc in &[7u32, 22] {
        for &logic in &[65u32, 40, 22, 16] {
            let mut cfg = SystemConfig::paper();
            cfg.host_node = ProcessNode::new(soc).expect("valid soc node");
            cfg.sensor_logic_node = ProcessNode::new(logic).expect("valid logic node");
            let saving = energy_breakdown(&cfg, SystemVariant::NpuFull).total_j()
                / energy_breakdown(&cfg, SystemVariant::BlissCam).total_j();
            rows.push(Fig17Row {
                soc_nm: soc,
                logic_nm: logic,
                energy_saving: saving,
            });
        }
    }
    rows
}

/// One row of the Table I ROI-reuse study.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Tab1Row {
    /// ROI reuse window (1 = predict every frame).
    pub reuse_window: usize,
    /// Vertical angular error.
    pub vertical: AngularErrorStats,
    /// Energy saving relative to window 1, as a fraction.
    pub energy_saving_fraction: f64,
}

/// Runs the Table I experiment: reuse a predicted ROI for `window` frames.
///
/// # Errors
///
/// Propagates tensor errors from training/evaluation.
pub fn tab1_roi_reuse(scale: &ExperimentScale) -> Result<Vec<Tab1Row>, TensorError> {
    let cfg = SystemConfig::miniature();
    let train = scale.train_seq(&cfg);
    let eval = scale.eval_seq(&cfg);
    let mut trainer = JointTrainer::new(scale.train_config(&cfg))?;
    trainer.train_on(&train)?;

    // Energy: the only saving is skipping the ROI-prediction inferences.
    let paper = SystemConfig::paper();
    let base = energy_breakdown(&paper, SystemVariant::BlissCam);
    let seed = trainer.config().seed ^ 0x0F0F;
    let mut rows = Vec::new();
    for &window in &[1usize, 4, 16] {
        let mut rng = StdRng::seed_from_u64(seed);
        let result = trainer.evaluate_with_roi_reuse(&eval, window, &mut rng)?;
        let saved = base.roi_prediction_j * (1.0 - 1.0 / window as f64);
        rows.push(Tab1Row {
            reuse_window: window,
            vertical: result.vertical,
            energy_saving_fraction: saved / base.total_j(),
        });
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_scale() -> ExperimentScale {
        ExperimentScale {
            train_frames: 24,
            eval_frames: 12,
            epochs: 1,
            seed: 5,
        }
    }

    #[test]
    fn fig13_rows_cover_all_variants() {
        let rows = fig13_energy(&SystemConfig::paper());
        assert_eq!(rows.len(), 4);
        let bliss = rows.iter().find(|r| r.variant == "BlissCam").unwrap();
        assert!((bliss.ratio_vs_blisscam - 1.0).abs() < 1e-9);
        let full = rows.iter().find(|r| r.variant == "NPU-Full").unwrap();
        assert!(full.ratio_vs_blisscam > 3.0);
    }

    #[test]
    fn fig14_rows_have_stages() {
        let rows = fig14_latency(&SystemConfig::paper());
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert!(r.latency_s > 0.0);
            assert!(!r.stages.is_empty());
        }
    }

    #[test]
    fn fig17_sweep_shape() {
        let rows = fig17_process_node();
        assert_eq!(rows.len(), 8);
        // Saving improves monotonically as the logic layer shrinks, for
        // both SoC nodes.
        for soc in [7u32, 22] {
            let series: Vec<f64> = rows
                .iter()
                .filter(|r| r.soc_nm == soc)
                .map(|r| r.energy_saving)
                .collect();
            for w in series.windows(2) {
                assert!(
                    w[1] >= w[0] - 1e-9,
                    "non-monotonic at soc {soc}: {series:?}"
                );
            }
        }
    }

    #[test]
    fn fig16_energy_trend_is_increasing() {
        let rows = fig16_framerate(&tiny_scale()).unwrap();
        assert_eq!(rows.len(), 5);
        assert!(rows.last().unwrap().energy_saving > rows[0].energy_saving);
    }

    #[test]
    fn tab1_reuse_degrades_accuracy() {
        let rows = tab1_roi_reuse(&tiny_scale()).unwrap();
        assert_eq!(rows.len(), 3);
        // Energy saving from reuse is tiny (paper: <0.05 %).
        for r in &rows {
            assert!(r.energy_saving_fraction < 0.2);
        }
        assert!(rows[2].energy_saving_fraction > rows[0].energy_saving_fraction);
    }

    #[test]
    fn foreground_importance_highlights_eye() {
        let seq = render_sequence(&SequenceConfig::miniature(6, 3));
        let imp = foreground_importance(&seq);
        let center = imp[50 * 160 + 80];
        let corner = imp[0];
        assert!(center > corner);
    }
}
