use crate::config::{SystemConfig, SystemVariant};
use crate::energy_model::RLE_BYTES_PER_SAMPLE;
use bliss_npu::{Precision, SystolicArray};
use bliss_timing::{PipelineConfig, PipelineReport, StageDurations};

/// Per-pixel single-slope ramp time: a 10-bit conversion shared by all
/// pixels in parallel (per-pixel ADC, global shutter).
const ADC_RAMP_S: f64 = 10e-6;
/// Column-scan time per active column when draining the ROI to the output
/// buffer.
const COLUMN_SCAN_S: f64 = 50e-9;
/// Analog eventification time (two comparator decisions, paper: ~5 us).
const EVENTIFY_ANALOG_S: f64 = 5e-6;
/// Digital eventification time (S+NPU reads/writes the frame buffer).
const EVENTIFY_DIGITAL_S: f64 = 20e-6;
/// SRAM power-up/sampling-decision time.
const SAMPLING_S: f64 = 2e-6;
/// Geometric gaze regression on the host.
const GAZE_S: f64 = 100e-6;

/// Derives each pipeline stage's duration for `variant` under `cfg`,
/// feeding the Fig. 8 scheduler. The exposure absorbs whatever part of the
/// frame period the sensor-side stages do not use.
pub fn stage_durations(cfg: &SystemConfig, variant: SystemVariant) -> StageDurations {
    let period = cfg.frame_period_s();
    let host = SystolicArray::host().at_node(cfg.host_node);
    let in_sensor = SystolicArray::in_sensor().at_node(cfg.sensor_logic_node);
    let sampled = cfg.expected_sampled_pixels();
    let roi_cols = (cfg.width as f64 * cfg.roi_fraction.sqrt()).ceil();
    let full_frame_bytes = cfg.energy.mipi.frame_bytes(cfg.pixels());
    let sparse_bytes = (sampled as f64 * RLE_BYTES_PER_SAMPLE) as u64 + 8;
    let feedback_bytes = cfg.expected_roi_pixels().div_ceil(4);

    let (eventify_s, roi_pred_s, sampling_s, readout_s, mipi_s, segmentation_s, feedback_s) =
        match variant {
            SystemVariant::NpuFull => {
                let seg = host.run(&cfg.cnn.workload(), &cfg.energy, true);
                (
                    0.0,
                    0.0,
                    0.0,
                    ADC_RAMP_S + cfg.width as f64 * COLUMN_SCAN_S,
                    cfg.energy.mipi.transfer_time_s(full_frame_bytes),
                    seg.time_s,
                    0.0,
                )
            }
            SystemVariant::NpuRoi => {
                let roi_pred = host.run(&cfg.roi_net.workload(), &cfg.energy, true);
                let roi_cnn = crate::energy_model::cnn_on_roi(&cfg.cnn, cfg.roi_fraction);
                let seg = host.run(&roi_cnn.workload(), &cfg.energy, true);
                (
                    0.0,
                    roi_pred.time_s,
                    0.0,
                    ADC_RAMP_S + cfg.width as f64 * COLUMN_SCAN_S,
                    cfg.energy.mipi.transfer_time_s(full_frame_bytes),
                    seg.time_s,
                    0.0,
                )
            }
            SystemVariant::SNpu | SystemVariant::BlissCam => {
                let roi_pred = in_sensor.run(&cfg.roi_net.workload(), &cfg.energy, true);
                let tokens = crate::energy_model::sparse_tokens(cfg);
                let seg = host.run(
                    &cfg.vit.workload(tokens, sampled as usize),
                    &cfg.energy,
                    true,
                );
                let eventify = if variant == SystemVariant::SNpu {
                    EVENTIFY_DIGITAL_S
                } else {
                    EVENTIFY_ANALOG_S
                };
                (
                    eventify,
                    roi_pred.time_s,
                    SAMPLING_S,
                    ADC_RAMP_S + roi_cols * COLUMN_SCAN_S,
                    cfg.energy.mipi.transfer_time_s(sparse_bytes),
                    seg.time_s,
                    cfg.energy.mipi.transfer_time_s(feedback_bytes),
                )
            }
        };

    // The exposure fills the remainder of the frame period after the other
    // sensor-serialised stages (the paper reports BlissCam trims exposure by
    // only ~2 %).
    let sensor_overhead =
        eventify_s + if variant.host_roi() { 0.0 } else { roi_pred_s } + sampling_s + readout_s;
    let exposure_s = (period - sensor_overhead).max(period * 0.5);

    StageDurations {
        exposure_s,
        eventify_s,
        roi_pred_s,
        sampling_s,
        readout_s,
        mipi_s,
        segmentation_s,
        gaze_s: GAZE_S,
        feedback_s,
    }
}

/// Host-NPU time for one solo f32 sparse-segmentation launch of `tokens`
/// occupied patches and `pixels` classification queries under `cfg`'s host
/// model.
///
/// Serving does not use this: it prices its cross-session batched launches
/// with [`host_batched_segmentation_time_s_at`], where one launch over K
/// frames costs less than K of these solo launches.
pub fn host_segmentation_time_s(cfg: &SystemConfig, tokens: usize, pixels: usize) -> f64 {
    let host = SystolicArray::host().at_node(cfg.host_node);
    host.run(&cfg.vit.workload(tokens, pixels), &cfg.energy, true)
        .time_s
}

/// Host-NPU time for one **cross-session batched** segmentation launch over
/// `frames` of `(tokens, pixels)` each.
///
/// Models the block-diagonal batched forward
/// ([`bliss_track::ViTConfig::batched_workload`]): weight GEMMs fuse across
/// the batch and amortise fill/drain bubbles and partial row tiles, while
/// the quadratic attention products stay per-frame — so one launch over K
/// frames costs less than K solo launches but never pays a `(K*t)^2`
/// attention. The launch executes at `precision`: int8 streams the
/// reduction dimension in half the cycles.
pub fn host_batched_segmentation_time_s_at(
    cfg: &SystemConfig,
    frames: &[(usize, usize)],
    precision: Precision,
) -> f64 {
    let host = SystolicArray::host()
        .at_node(cfg.host_node)
        .at_precision(precision);
    host.run(&cfg.vit.batched_workload(frames), &cfg.energy, true)
        .time_s
}

/// Runs the Fig. 8 pipeline scheduler for `variant` over `frames` frames.
pub fn simulate_pipeline(
    cfg: &SystemConfig,
    variant: SystemVariant,
    frames: usize,
) -> PipelineReport {
    let stages = stage_durations(cfg, variant);
    let pipeline = if variant.in_sensor_sampling() {
        PipelineConfig::in_sensor(cfg.fps, stages)
    } else if variant.host_roi() {
        PipelineConfig::host_roi(cfg.fps, stages)
    } else {
        PipelineConfig::conventional(cfg.fps, stages)
    };
    bliss_timing::simulate(&pipeline, frames)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blisscam_latency_reduction_matches_fig14() {
        let cfg = SystemConfig::paper();
        let full = simulate_pipeline(&cfg, SystemVariant::NpuFull, 24);
        let bliss = simulate_pipeline(&cfg, SystemVariant::BlissCam, 24);
        let ratio = full.mean_latency_s / bliss.mean_latency_s;
        // Paper: 1.4x latency reduction; our dense baseline's lower NPU
        // utilisation stretches the dense segmentation somewhat further.
        assert!((1.2..1.95).contains(&ratio), "latency ratio {ratio:.2}");
        assert!(bliss.mean_latency_s < 15e-3, "budget exceeded");
    }

    #[test]
    fn all_variants_hold_120fps() {
        let cfg = SystemConfig::paper();
        for v in SystemVariant::ALL {
            let report = simulate_pipeline(&cfg, v, 48);
            assert!(
                (report.achieved_fps - 120.0).abs() < 3.0,
                "{} achieved {:.1} fps",
                v.label(),
                report.achieved_fps
            );
        }
    }

    #[test]
    fn exposure_reduction_is_modest() {
        // Paper: in-sensor ops reduce exposure by only 1.8 %; our in-sensor
        // ROI network is slower on the 8x8 NPU, but the reduction must stay
        // below ~15 % of the period.
        let cfg = SystemConfig::paper();
        let full = stage_durations(&cfg, SystemVariant::NpuFull);
        let bliss = stage_durations(&cfg, SystemVariant::BlissCam);
        let reduction = (full.exposure_s - bliss.exposure_s) / full.exposure_s;
        assert!(
            (0.0..0.15).contains(&reduction),
            "exposure reduction {reduction:.3}"
        );
    }

    #[test]
    fn segmentation_speedup_from_sparsity() {
        // Paper: segmentation accelerates 7.7x operating on 10.8 % of the
        // pixels; our model lands in the same regime.
        let cfg = SystemConfig::paper();
        let full = stage_durations(&cfg, SystemVariant::NpuFull);
        let bliss = stage_durations(&cfg, SystemVariant::BlissCam);
        let speedup = full.segmentation_s / bliss.segmentation_s;
        assert!((2.0..12.0).contains(&speedup), "seg speedup {speedup:.1}");
        // Sparse segmentation should be ~1 ms (paper: 0.87 ms ± 0.48).
        assert!(
            (0.2e-3..3.0e-3).contains(&bliss.segmentation_s),
            "sparse seg {:.3} ms",
            bliss.segmentation_s * 1e3
        );
    }

    #[test]
    fn in_sensor_ops_are_orders_below_exposure() {
        let cfg = SystemConfig::paper();
        let bliss = stage_durations(&cfg, SystemVariant::BlissCam);
        assert!(bliss.eventify_s < bliss.exposure_s / 100.0);
        assert!(bliss.sampling_s < bliss.exposure_s / 100.0);
    }

    #[test]
    fn batched_segmentation_amortises_launch_overheads() {
        // One block-diagonal launch over 8 sessions' frames must cost less
        // than eight solo launches (fused weight GEMMs, fewer partial row
        // tiles and fill/drain bubbles), but at least as much as one.
        let cfg = SystemConfig::paper();
        let (tokens, pixels) = (108, 6851);
        let solo = host_segmentation_time_s(&cfg, tokens, pixels);
        let frames: Vec<(usize, usize)> = (0..8).map(|_| (tokens, pixels)).collect();
        let batched = host_batched_segmentation_time_s_at(&cfg, &frames, Precision::F32);
        assert!(solo > 0.0);
        assert!(batched > solo);
        assert!(
            batched < 8.0 * solo,
            "batched {batched:.6} vs 8x solo {:.6}",
            8.0 * solo
        );
    }

    #[test]
    fn per_frame_batched_cost_falls_with_batch_size() {
        // The launch-overhead model credits cross-session batching: a
        // batched launch fuses its weight GEMMs across frames, so the
        // per-frame dispatch bill shrinks as the batch grows. Pin the
        // amortisation trend at steady-state occupancy.
        let cfg = SystemConfig::paper();
        let frame = (108usize, 6851usize);
        let per_frame = |k: usize| {
            let frames = vec![frame; k];
            host_batched_segmentation_time_s_at(&cfg, &frames, Precision::F32) / k as f64
        };
        let (c1, c4, c16) = (per_frame(1), per_frame(4), per_frame(16));
        assert!(c4 < c1, "batch 4 per-frame {c4} vs solo {c1}");
        assert!(c16 < c4, "batch 16 per-frame {c16} vs batch 4 {c4}");
        // The fused weight launches save a meaningful share, not noise.
        assert!(
            c16 < 0.97 * c1,
            "per-frame cost only fell {c1:.6} -> {c16:.6}"
        );
    }

    #[test]
    fn int8_batched_segmentation_is_faster_and_f32_is_exact() {
        let cfg = SystemConfig::paper();
        let frames: Vec<(usize, usize)> = (0..4).map(|_| (108usize, 6851usize)).collect();
        // At f32 the launch is exactly the default-precision host array's
        // run of the batched workload.
        let default = SystolicArray::host()
            .at_node(cfg.host_node)
            .run(&cfg.vit.batched_workload(&frames), &cfg.energy, true)
            .time_s;
        let f32 = host_batched_segmentation_time_s_at(&cfg, &frames, Precision::F32);
        let i8 = host_batched_segmentation_time_s_at(&cfg, &frames, Precision::Int8);
        assert_eq!(default.to_bits(), f32.to_bits());
        assert!(i8 < f32, "int8 {i8} must beat f32 {f32}");
    }

    #[test]
    fn sparse_mipi_is_much_faster() {
        let cfg = SystemConfig::paper();
        let full = stage_durations(&cfg, SystemVariant::NpuFull);
        let bliss = stage_durations(&cfg, SystemVariant::BlissCam);
        assert!(full.mipi_s / bliss.mipi_s > 8.0);
    }
}
