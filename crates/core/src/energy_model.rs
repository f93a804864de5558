use crate::config::{SystemConfig, SystemVariant};
use bliss_npu::{Precision, SystolicArray};
use bliss_track::CnnSegConfig;
use serde::{Deserialize, Serialize};

/// Bytes-on-the-wire estimate for a run-length-encoded sparse stream
/// (2 bytes per literal plus token overhead).
pub(crate) const RLE_BYTES_PER_SAMPLE: f64 = 3.2;

/// Per-frame energy of one system variant, split by hardware component
/// (the stacked bars of the paper's Fig. 13).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct EnergyBreakdown {
    /// Analog readout chain (single-slope ADC conversions), joules.
    pub analog_readout_j: f64,
    /// Eventification (analog for BlissCam, digital for S+NPU), joules.
    pub eventification_j: f64,
    /// Analog-memory retention over the frame interval (BlissCam), joules.
    pub analog_hold_j: f64,
    /// Digital frame-buffer leakage (S+NPU only — cannot be power-gated
    /// because it must retain the previous frame), joules.
    pub frame_buffer_leak_j: f64,
    /// In-sensor ROI-prediction NPU (S+NPU, BlissCam), joules.
    pub roi_prediction_j: f64,
    /// SRAM power-up random-bit generation, joules.
    pub sampling_rng_j: f64,
    /// Run-length encoder, joules.
    pub rle_j: f64,
    /// Forward MIPI transfer, joules.
    pub mipi_j: f64,
    /// Segmentation-map feedback transfer, joules.
    pub feedback_j: f64,
    /// Host NPU compute (MAC array + buffers), incl. host-side ROI
    /// prediction for NPU-ROI, joules.
    pub host_compute_j: f64,
    /// DRAM traffic (weights that exceed the buffer + frame staging), joules.
    pub dram_j: f64,
    /// Host run-length decoder, joules.
    pub rld_j: f64,
}

impl EnergyBreakdown {
    /// Total frame energy in joules.
    pub fn total_j(&self) -> f64 {
        self.analog_readout_j
            + self.eventification_j
            + self.analog_hold_j
            + self.frame_buffer_leak_j
            + self.roi_prediction_j
            + self.sampling_rng_j
            + self.rle_j
            + self.mipi_j
            + self.feedback_j
            + self.host_compute_j
            + self.dram_j
            + self.rld_j
    }

    /// Sensor-side energy (everything on the sensor die).
    pub fn sensor_j(&self) -> f64 {
        self.analog_readout_j
            + self.eventification_j
            + self.analog_hold_j
            + self.frame_buffer_leak_j
            + self.roi_prediction_j
            + self.sampling_rng_j
            + self.rle_j
    }

    /// Communication energy (MIPI both directions).
    pub fn communication_j(&self) -> f64 {
        self.mipi_j + self.feedback_j
    }

    /// Host-side (off-sensor) energy.
    pub fn off_sensor_j(&self) -> f64 {
        self.host_compute_j + self.dram_j + self.rld_j
    }

    /// Component rows as `(label, joules)` for tabular output.
    pub fn components(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("analog readout", self.analog_readout_j),
            ("eventification", self.eventification_j),
            ("analog hold", self.analog_hold_j),
            ("frame buffer leak", self.frame_buffer_leak_j),
            ("ROI prediction", self.roi_prediction_j),
            ("sampling RNG", self.sampling_rng_j),
            ("RLE", self.rle_j),
            ("MIPI", self.mipi_j),
            ("feedback", self.feedback_j),
            ("host compute", self.host_compute_j),
            ("DRAM", self.dram_j),
            ("RLD", self.rld_j),
        ]
    }
}

/// Dense CNN configuration covering only the ROI (area-scaled resolution).
pub(crate) fn cnn_on_roi(cnn: &CnnSegConfig, roi_fraction: f64) -> CnnSegConfig {
    let scale = roi_fraction.sqrt();
    CnnSegConfig {
        width: ((cnn.width as f64 * scale).round() as usize).max(8),
        height: ((cnn.height as f64 * scale).round() as usize).max(8),
        channels: cnn.channels,
        num_classes: cnn.num_classes,
    }
}

/// Number of ViT tokens (occupied patches) for the sparse variants: all
/// patches intersecting the ROI, since at ≈20 % in-ROI sampling every ROI
/// patch receives samples.
pub(crate) fn sparse_tokens(cfg: &SystemConfig) -> usize {
    ((cfg.vit.num_patches() as f64 * cfg.roi_fraction).ceil() as usize).max(1)
}

/// Measured (or expected) per-frame activity counts driving the energy model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FrameCounts {
    /// ADC conversions actually performed.
    pub conversions: u64,
    /// Pixels transmitted (sampled).
    pub sampled: u64,
    /// MIPI payload bytes for the sparse variants (RLE output).
    pub mipi_payload_bytes: u64,
    /// Occupied ViT patch tokens.
    pub tokens: usize,
    /// ROI pixel count (feedback map size).
    pub roi_pixels: u64,
}

impl FrameCounts {
    /// Expected counts under the configuration's `roi_fraction` and
    /// `sample_rate` (used by the analytic Fig. 13 model).
    pub fn expected(cfg: &SystemConfig) -> Self {
        let sampled = cfg.expected_sampled_pixels();
        FrameCounts {
            conversions: sampled,
            sampled,
            mipi_payload_bytes: (sampled as f64 * RLE_BYTES_PER_SAMPLE) as u64 + 8,
            tokens: sparse_tokens(cfg),
            roi_pixels: cfg.expected_roi_pixels(),
        }
    }
}

/// Analytic per-frame energy of `variant` under `cfg` (paper Fig. 13),
/// using the expected ROI size and sampling rate.
pub fn energy_breakdown(cfg: &SystemConfig, variant: SystemVariant) -> EnergyBreakdown {
    energy_breakdown_with_counts_at(cfg, variant, &FrameCounts::expected(cfg), Precision::F32)
}

/// Per-frame energy of `variant` under `cfg` with *measured* activity
/// counts (used by the executable simulation, which knows the real ROI
/// size, sample count and RLE payload of every frame), with the host
/// **segmentation** network executed at `precision` (the serving stack's
/// f32/int8 switch).
///
/// Precision applies to the segmentation GEMMs only: the ROI-prediction net
/// and every sensor-side analog/digital component are precision-independent
/// in this model.
pub fn energy_breakdown_with_counts_at(
    cfg: &SystemConfig,
    variant: SystemVariant,
    counts: &FrameCounts,
    precision: Precision,
) -> EnergyBreakdown {
    let p = &cfg.energy;
    let pixels = cfg.pixels() as u64;
    let period = cfg.frame_period_s();
    let sampled = counts.sampled;
    let host = SystolicArray::host().at_node(cfg.host_node);
    let seg_host = host.at_precision(precision);
    let in_sensor = SystolicArray::in_sensor().at_node(cfg.sensor_logic_node);
    let full_frame_bytes = p.mipi.frame_bytes(cfg.pixels());
    let feedback_bytes = counts.roi_pixels.div_ceil(4); // 2-bit class map
    let sparse_bytes = counts.mipi_payload_bytes;

    let mut e = EnergyBreakdown::default();
    match variant {
        SystemVariant::NpuFull => {
            e.analog_readout_j = p.readout.adc_energy_j(pixels, cfg.analog_node);
            e.mipi_j = p.mipi.transfer_energy_j(full_frame_bytes);
            let seg = seg_host.run(&cfg.cnn.workload(), p, true);
            e.host_compute_j = seg.mac_energy_j + seg.sram_energy_j;
            // Frame staged through DRAM on its way into the NPU buffer.
            e.dram_j = seg.dram_energy_j + p.dram.traffic_energy_j(2 * full_frame_bytes);
        }
        SystemVariant::NpuRoi => {
            e.analog_readout_j = p.readout.adc_energy_j(pixels, cfg.analog_node);
            e.mipi_j = p.mipi.transfer_energy_j(full_frame_bytes);
            let roi_pred = host.run(&cfg.roi_net.workload(), p, true);
            let seg = seg_host.run(&cnn_on_roi(&cfg.cnn, cfg.roi_fraction).workload(), p, true);
            e.host_compute_j = roi_pred.mac_energy_j
                + roi_pred.sram_energy_j
                + seg.mac_energy_j
                + seg.sram_energy_j;
            e.dram_j = roi_pred.dram_energy_j
                + seg.dram_energy_j
                + p.dram.traffic_energy_j(2 * full_frame_bytes);
        }
        SystemVariant::SNpu | SystemVariant::BlissCam => {
            e.analog_readout_j = p.readout.adc_energy_j(counts.conversions, cfg.analog_node);
            if variant == SystemVariant::SNpu {
                e.eventification_j = p
                    .readout
                    .digital_event_energy_j(pixels, cfg.sensor_logic_node);
                // Digital frame buffer: 10 bits/pixel retained all frame.
                let buffer_bytes = (pixels * 10).div_ceil(8);
                e.frame_buffer_leak_j =
                    p.sram_leakage_energy_j(buffer_bytes, period, cfg.sensor_logic_node);
            } else {
                e.eventification_j = p.readout.analog_event_energy_j(pixels, cfg.analog_node);
                e.analog_hold_j = p
                    .readout
                    .analog_hold_energy_j(pixels, period, cfg.analog_node);
            }
            let roi_pred = in_sensor.run(&cfg.roi_net.workload(), p, true);
            e.roi_prediction_j =
                roi_pred.mac_energy_j + roi_pred.sram_energy_j + roi_pred.dram_energy_j;
            e.sampling_rng_j = p.sram_rng_energy_j(pixels, cfg.sensor_logic_node);
            e.rle_j = p.rle_energy_j(sparse_bytes, cfg.sensor_logic_node);
            e.mipi_j = p.mipi.transfer_energy_j(sparse_bytes);
            e.feedback_j = p.mipi.transfer_energy_j(feedback_bytes);
            let seg = seg_host.run(&cfg.vit.workload(counts.tokens, sampled as usize), p, true);
            e.host_compute_j = seg.mac_energy_j + seg.sram_energy_j;
            e.dram_j = seg.dram_energy_j;
            e.rld_j = p.rld_energy_j(sparse_bytes, cfg.host_node);
        }
    }
    e
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_breakdowns() -> [(SystemVariant, EnergyBreakdown); 4] {
        let cfg = SystemConfig::paper();
        SystemVariant::ALL.map(|v| (v, energy_breakdown(&cfg, v)))
    }

    #[test]
    fn blisscam_vs_npu_full_matches_fig13_ratio() {
        let cfg = SystemConfig::paper();
        let full = energy_breakdown(&cfg, SystemVariant::NpuFull).total_j();
        let bliss = energy_breakdown(&cfg, SystemVariant::BlissCam).total_j();
        let ratio = full / bliss;
        // Paper Fig. 13: 4.0x at 120 FPS (we accept a band around it).
        assert!(
            (3.0..5.5).contains(&ratio),
            "NPU-Full/BlissCam = {ratio:.2}"
        );
    }

    #[test]
    fn blisscam_vs_snpu_matches_fig13_ratio() {
        let cfg = SystemConfig::paper();
        let snpu = energy_breakdown(&cfg, SystemVariant::SNpu).total_j();
        let bliss = energy_breakdown(&cfg, SystemVariant::BlissCam).total_j();
        let ratio = snpu / bliss;
        // Paper: 1.7x.
        assert!((1.3..2.2).contains(&ratio), "S+NPU/BlissCam = {ratio:.2}");
    }

    #[test]
    fn blisscam_vs_npu_roi_matches_fig13_ratio() {
        let cfg = SystemConfig::paper();
        let roi = energy_breakdown(&cfg, SystemVariant::NpuRoi).total_j();
        let bliss = energy_breakdown(&cfg, SystemVariant::BlissCam).total_j();
        let ratio = roi / bliss;
        // Paper: 1.6x.
        assert!((1.3..2.3).contains(&ratio), "NPU-ROI/BlissCam = {ratio:.2}");
    }

    #[test]
    fn snpu_worse_than_npu_roi_due_to_leakage() {
        // Paper: S+NPU increases energy 1.1x over NPU-ROI — the digital
        // frame buffer's leakage outweighs the readout/MIPI savings.
        let cfg = SystemConfig::paper();
        let snpu = energy_breakdown(&cfg, SystemVariant::SNpu);
        let roi = energy_breakdown(&cfg, SystemVariant::NpuRoi);
        let ratio = snpu.total_j() / roi.total_j();
        assert!((0.85..1.4).contains(&ratio), "S+NPU/NPU-ROI = {ratio:.2}");
        assert!(snpu.frame_buffer_leak_j > 0.3 * snpu.total_j() * 0.5);
    }

    #[test]
    fn off_sensor_share_of_npu_full_matches_paper() {
        // Paper §VI-B: off-sensor work is 60.1 % of NPU-Full energy.
        let cfg = SystemConfig::paper();
        let full = energy_breakdown(&cfg, SystemVariant::NpuFull);
        let share = full.off_sensor_j() / full.total_j();
        assert!((0.50..0.75).contains(&share), "off-sensor share {share:.3}");
    }

    #[test]
    fn overheads_are_negligible() {
        // Paper §VI-B: feedback 0.6 %, RLE 0.04 % of total energy.
        let cfg = SystemConfig::paper();
        let bliss = energy_breakdown(&cfg, SystemVariant::BlissCam);
        assert!(bliss.feedback_j / bliss.total_j() < 0.02);
        assert!(bliss.rle_j / bliss.total_j() < 0.005);
        assert!(bliss.rld_j / bliss.total_j() < 0.005);
    }

    #[test]
    fn components_sum_to_total() {
        for (v, e) in all_breakdowns() {
            let sum: f64 = e.components().iter().map(|(_, j)| j).sum();
            assert!(
                (sum - e.total_j()).abs() < 1e-12,
                "{}: components {} != total {}",
                v.label(),
                sum,
                e.total_j()
            );
        }
    }

    #[test]
    fn f32_precision_variant_is_bit_exact() {
        // At f32 the segmentation arm is exactly the default-precision host
        // array's run of the sparse ViT.
        let cfg = SystemConfig::paper();
        let counts = FrameCounts::expected(&cfg);
        let e =
            energy_breakdown_with_counts_at(&cfg, SystemVariant::BlissCam, &counts, Precision::F32);
        let seg = SystolicArray::host().at_node(cfg.host_node).run(
            &cfg.vit.workload(counts.tokens, counts.sampled as usize),
            &cfg.energy,
            true,
        );
        assert_eq!(
            e.host_compute_j.to_bits(),
            (seg.mac_energy_j + seg.sram_energy_j).to_bits()
        );
        assert_eq!(e.dram_j.to_bits(), seg.dram_energy_j.to_bits());
        assert_eq!(energy_breakdown(&cfg, SystemVariant::BlissCam), e);
    }

    #[test]
    fn int8_strictly_cuts_blisscam_frame_energy() {
        let cfg = SystemConfig::paper();
        let counts = FrameCounts::expected(&cfg);
        let f32 =
            energy_breakdown_with_counts_at(&cfg, SystemVariant::BlissCam, &counts, Precision::F32);
        let i8 = energy_breakdown_with_counts_at(
            &cfg,
            SystemVariant::BlissCam,
            &counts,
            Precision::Int8,
        );
        assert!(i8.host_compute_j < f32.host_compute_j);
        assert!(i8.total_j() < f32.total_j());
        // Only the host segmentation arm moves; the sensor side is
        // precision-independent.
        assert_eq!(i8.sensor_j(), f32.sensor_j());
        assert_eq!(i8.communication_j(), f32.communication_j());
    }

    #[test]
    fn blisscam_readout_energy_drops_with_pixel_volume() {
        let cfg = SystemConfig::paper();
        let full = energy_breakdown(&cfg, SystemVariant::NpuFull);
        let bliss = energy_breakdown(&cfg, SystemVariant::BlissCam);
        // ~95 % fewer conversions -> ~20x less readout energy.
        let ratio = full.analog_readout_j / bliss.analog_readout_j;
        assert!((15.0..50.0).contains(&ratio), "readout ratio {ratio:.1}");
        let mipi_ratio = full.mipi_j / bliss.mipi_j;
        assert!(mipi_ratio > 8.0, "MIPI ratio {mipi_ratio:.1}");
    }

    #[test]
    fn higher_fps_increases_blisscam_savings() {
        // Paper Fig. 16: savings grow from ~3.6x at 30 FPS to ~6.7x at 500.
        let mut lo = SystemConfig::paper();
        lo.fps = 30.0;
        let mut hi = SystemConfig::paper();
        hi.fps = 500.0;
        let saving = |c: &SystemConfig| {
            energy_breakdown(c, SystemVariant::NpuFull).total_j()
                / energy_breakdown(c, SystemVariant::BlissCam).total_j()
        };
        let s_lo = saving(&lo);
        let s_hi = saving(&hi);
        assert!(
            s_hi > s_lo + 0.5,
            "saving at 30fps {s_lo:.2}, at 500fps {s_hi:.2}"
        );
        assert!((2.0..4.2).contains(&s_lo), "30 FPS saving {s_lo:.2}");
        assert!((3.2..8.5).contains(&s_hi), "500 FPS saving {s_hi:.2}");
    }

    #[test]
    fn older_logic_node_erodes_savings() {
        // Paper Fig. 17 trend: moving the sensor logic layer to an older
        // node raises BlissCam's in-sensor cost and lowers the saving.
        use bliss_energy::ProcessNode;
        let saving_at = |node: ProcessNode| {
            let mut c = SystemConfig::paper();
            c.sensor_logic_node = node;
            energy_breakdown(&c, SystemVariant::NpuFull).total_j()
                / energy_breakdown(&c, SystemVariant::BlissCam).total_j()
        };
        assert!(saving_at(ProcessNode::NM16) > saving_at(ProcessNode::NM65));
    }
}
