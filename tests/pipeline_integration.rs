//! End-to-end integration tests across the whole workspace: renderer →
//! sensor → networks → gaze, for every in-sensor system variant. The dense
//! baselines have no executable pipeline; the ordering test holds the
//! measured runs against their analytic energy instead.
//!
//! Building an [`EyeTrackingSystem`] trains its networks, which dominates
//! this suite's wall clock — so all read-only assertions share one
//! `OnceLock` fixture of per-variant reports (seed 7, 8 frames) instead of
//! re-training per test. Only the determinism test builds fresh systems,
//! with a trimmed training budget.

use blisscam::core::{
    energy_breakdown, EyeTrackingSystem, SystemConfig, SystemReport, SystemVariant,
};
use std::collections::HashMap;
use std::sync::OnceLock;

fn fast_config(seed: u64) -> SystemConfig {
    let mut cfg = SystemConfig::miniature();
    cfg.train_frames = 40;
    cfg.vit.dim = 24;
    cfg.vit.enc_depth = 1;
    cfg.roi_net.hidden = 32;
    cfg.seed = seed;
    cfg
}

/// One trained-and-run report per in-sensor variant, shared by every
/// read-only test.
fn shared_reports() -> &'static HashMap<&'static str, SystemReport> {
    static REPORTS: OnceLock<HashMap<&'static str, SystemReport>> = OnceLock::new();
    REPORTS.get_or_init(|| {
        SystemVariant::ALL
            .into_iter()
            .filter(SystemVariant::in_sensor_sampling)
            .map(|variant| {
                let mut system =
                    EyeTrackingSystem::new(variant, fast_config(7)).expect("system builds");
                let report = system.run_frames(8).expect("frames run");
                (variant.label(), report)
            })
            .collect()
    })
}

#[test]
fn every_variant_runs_end_to_end() {
    let reports = shared_reports();
    assert_eq!(reports.len(), 2);
    for (label, report) in reports {
        assert_eq!(report.frames.len(), 8, "{label}");
        let err = report.mean_angular_error();
        assert!(
            err.horizontal.is_finite() && err.vertical.is_finite(),
            "{label} produced NaN errors"
        );
        assert!(report.mean_energy_uj() > 0.0);
        assert!(report.latency.mean_latency_s > 0.0);
    }
}

#[test]
fn energy_ordering_holds_in_executable_runs() {
    // The executable (measured-counts) energy must preserve the paper's
    // ordering against the dense baselines' analytic energy at the same
    // configuration: BlissCam < S+NPU and BlissCam < NPU-ROI < NPU-Full.
    let cfg = fast_config(7);
    let mut totals: HashMap<&str, f64> = shared_reports()
        .iter()
        .map(|(&label, report)| (label, report.mean_energy_uj()))
        .collect();
    for variant in [SystemVariant::NpuRoi, SystemVariant::NpuFull] {
        totals.insert(
            variant.label(),
            energy_breakdown(&cfg, variant).total_j() * 1e6,
        );
    }
    assert!(totals["BlissCam"] < totals["S+NPU"], "{totals:?}");
    assert!(totals["BlissCam"] < totals["NPU-ROI"], "{totals:?}");
    assert!(totals["NPU-ROI"] < totals["NPU-Full"], "{totals:?}");
}

#[test]
fn sparse_variants_compress_dense_variants_do_not() {
    // In-sensor sampling: far fewer pixels cross the link than the frame
    // holds.
    let reports = shared_reports();
    for label in ["BlissCam", "S+NPU"] {
        let compression = reports[label].mean_compression();
        assert!(compression > 4.0, "{label} compression {compression}");
    }
    // The dense baselines have no executable pipeline: their analytic model
    // converts and ships every pixel of the frame.
    let cfg = fast_config(7);
    let p = &cfg.energy;
    let full_adc_j = p.readout.adc_energy_j(cfg.pixels() as u64, cfg.analog_node);
    let full_mipi_j = p.mipi.transfer_energy_j(p.mipi.frame_bytes(cfg.pixels()));
    for variant in [SystemVariant::NpuRoi, SystemVariant::NpuFull] {
        let e = energy_breakdown(&cfg, variant);
        assert_eq!(e.analog_readout_j, full_adc_j, "{}", variant.label());
        assert_eq!(e.mipi_j, full_mipi_j, "{}", variant.label());
    }
}

#[test]
fn runs_are_deterministic_for_a_seed() {
    // Determinism does not depend on training quality, so these fresh
    // builds use a reduced training budget.
    let run = |seed: u64| {
        let mut cfg = fast_config(seed);
        cfg.train_frames = 12;
        let mut sys = EyeTrackingSystem::new(SystemVariant::BlissCam, cfg).unwrap();
        sys.run_frames(5).unwrap()
    };
    let a = run(11);
    let b = run(11);
    assert_eq!(a.frames.len(), b.frames.len());
    for (fa, fb) in a.frames.iter().zip(b.frames.iter()) {
        assert_eq!(fa.gaze_prediction, fb.gaze_prediction);
        assert_eq!(fa.sampled_pixels, fb.sampled_pixels);
        assert_eq!(fa.mipi_bytes, fb.mipi_bytes);
    }
    let c = run(12);
    assert_ne!(
        a.frames[4].sampled_pixels, c.frames[4].sampled_pixels,
        "different seeds should sample differently"
    );
}

#[test]
fn blisscam_tokens_track_roi_occupancy() {
    // The number of ViT tokens must stay well below the total patch count —
    // that is where the compute savings come from.
    let total_patches = fast_config(7).vit.num_patches();
    let report = &shared_reports()["BlissCam"];
    // The cold-start bootstrap reads the full frame, so early frames may
    // occupy every patch; steady state must not.
    let steady: Vec<_> = report.frames.iter().skip(3).collect();
    let below = steady.iter().filter(|f| f.tokens < total_patches).count();
    assert!(
        below * 2 > steady.len(),
        "steady-state frames mostly at full occupancy: {:?}",
        steady.iter().map(|f| f.tokens).collect::<Vec<_>>()
    );
}
