//! Cross-crate consistency checks: the network configurations
//! (`bliss-track`) lower to GEMM workloads (`bliss-npu`) that the cost
//! models price, so their MAC counts and weight footprints must land where
//! the paper puts them. The `WorkloadDesc` formulas themselves are pinned
//! by `bliss_npu::workload`'s unit tests.

use blisscam::nn::{Conv2d, Linear, Module};
use blisscam::track::{CnnSegConfig, RoiNetConfig, ViTConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn roi_net_instance_matches_config_workload() {
    // The energy model prices the config's lowering. Paper §III-A: the
    // paper-scale network is ~2.1e7 MACs.
    let paper = RoiNetConfig::paper().workload().total_macs() as f64;
    assert!(
        (1.0e7..4.0e7).contains(&paper),
        "paper ROI net = {paper} MACs"
    );
}

#[test]
fn paper_roi_net_weights_fit_in_sensor_sram() {
    // §V: the in-sensor NPU has 512 KB of SRAM; the ROI network must fit.
    let bytes = RoiNetConfig::paper().workload().total_weight_bytes();
    assert!(
        bytes <= 512 * 1024,
        "ROI net weights {bytes} B exceed 512 KB"
    );
}

#[test]
fn sparse_vit_macs_shrink_with_sampling() {
    // §VI-A: the sparse ViT needs ~4x fewer MACs than the RITnet-class
    // dense baseline at the paper's operating point.
    let vit = ViTConfig::paper();
    let cnn = CnnSegConfig::paper();
    let sparse = vit.workload(134, 12_500).total_macs() as f64;
    let dense_cnn = cnn.workload().total_macs() as f64;
    let reduction = dense_cnn / sparse;
    assert!(
        (2.5..8.0).contains(&reduction),
        "MAC reduction {reduction:.1}x (paper ~4x)"
    );
}

#[test]
fn vit_workload_scales_superlinearly_in_tokens() {
    let vit = ViTConfig::paper();
    let quarter = vit.workload(250, 60_000).total_macs();
    let full = vit.workload(1000, 240_000).total_macs();
    assert!(
        full > 4 * quarter,
        "attention must be superlinear in tokens"
    );
}

#[test]
fn module_parameter_counts_are_consistent() {
    let mut rng = StdRng::seed_from_u64(2);
    let lin = Linear::new(&mut rng, 10, 5);
    assert_eq!(lin.num_parameters(), 10 * 5 + 5);
    let conv = Conv2d::new(&mut rng, 3, 7, 3, 1, 1);
    assert_eq!(conv.num_parameters(), 7 * 3 * 9 + 7);
}
