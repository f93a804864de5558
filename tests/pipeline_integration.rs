//! End-to-end integration tests across the whole workspace: renderer →
//! sensor → networks → gaze, served as one session by `ServeRuntime`. S+NPU
//! runs the same in-sensor pipeline as BlissCam and differs only in its
//! energy model, so its run is the served records priced as S+NPU. The
//! dense baselines have no executable pipeline; the ordering tests hold the
//! measured run against their analytic energy instead.
//!
//! Building a runtime trains its networks, which dominates this suite's
//! wall clock — so all read-only assertions share one `OnceLock` fixture
//! (seed 7, 8 frames) instead of re-training per test. Only the determinism
//! test builds fresh runtimes, with a trimmed training budget.

use blisscam::core::{
    energy_breakdown, energy_breakdown_with_counts_at, simulate_pipeline, FrameCounts, Precision,
    SystemConfig, SystemVariant,
};
use blisscam::serve::{FrameRecord, ServeConfig, ServeOutcome, ServeRuntime};
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

/// Trains a runtime for `cfg` and serves one session of `frames` frames,
/// its stream seeded by the system seed.
fn serve_one(cfg: SystemConfig, frames: usize) -> ServeOutcome {
    let mut load = ServeConfig::new(1, frames);
    load.seed = cfg.seed;
    ServeRuntime::new(cfg)
        .expect("runtime trains")
        .serve(&load)
        .expect("frames serve")
}

/// The served run every read-only test shares.
fn shared_run() -> &'static ServeOutcome {
    static RUN: OnceLock<ServeOutcome> = OnceLock::new();
    RUN.get_or_init(|| serve_one(fast_config(7), 8))
}

fn shared_records() -> &'static [FrameRecord] {
    &shared_run().traces[0].records
}

/// The energy-model counters of a served frame. A sparse readout converts
/// exactly the pixels it samples (pinned by `sparse_readout_respects_rate`
/// in `bliss_sensor`).
fn counts(r: &FrameRecord) -> FrameCounts {
    FrameCounts {
        conversions: r.sampled_pixels as u64,
        sampled: r.sampled_pixels as u64,
        mipi_payload_bytes: r.mipi_bytes,
        tokens: r.tokens,
        roi_pixels: r.roi_pixels,
    }
}

/// Mean per-frame energy of the shared run priced as `variant`, in µJ.
fn priced_uj(cfg: &SystemConfig, variant: SystemVariant) -> f64 {
    let records = shared_records();
    let total_j: f64 = records
        .iter()
        .map(|r| {
            energy_breakdown_with_counts_at(cfg, variant, &counts(r), Precision::F32).total_j()
        })
        .sum();
    total_j / records.len() as f64 * 1e6
}

#[test]
fn every_variant_runs_end_to_end() {
    let cfg = fast_config(7);
    let outcome = shared_run();
    let records = shared_records();
    assert_eq!(records.len(), 8);
    let session = &outcome.report.per_session[0];
    assert!(
        session.mean_horizontal_error_deg.is_finite()
            && session.mean_vertical_error_deg.is_finite(),
        "NaN gaze errors: {session:?}"
    );
    assert!(outcome.report.latency.p50_ms > 0.0);
    for variant in [SystemVariant::BlissCam, SystemVariant::SNpu] {
        assert!(priced_uj(&cfg, variant) > 0.0, "{}", variant.label());
        assert!(simulate_pipeline(&cfg, variant, records.len()).mean_latency_s > 0.0);
    }
    // Every frame, the cold start included, moved fewer pixels and bytes
    // than a dense 10-bit readout of the frame.
    for r in records {
        assert!(r.sampled_pixels < cfg.pixels(), "frame {}", r.index);
        assert!(
            r.mipi_bytes < (cfg.pixels() * 10 / 8) as u64,
            "frame {}",
            r.index
        );
    }
}

#[test]
fn blisscam_system_runs_end_to_end() {
    // The BlissCam session on its own: finite gaze errors, a positive
    // billed energy, a compressed readout, and no frame as large as a dense
    // one.
    let cfg = fast_config(7);
    let outcome = shared_run();
    let records = shared_records();
    assert_eq!(records.len(), 8);
    for r in records {
        assert!(
            r.horizontal_error_deg.is_finite() && r.vertical_error_deg.is_finite(),
            "frame {}",
            r.index
        );
    }
    assert!(outcome.report.mean_energy_uj > 0.0);
    let sampled: usize = records.iter().map(|r| r.sampled_pixels).sum();
    let compression = (records.len() * cfg.pixels()) as f32 / sampled.max(1) as f32;
    assert!(compression > 3.0, "compression {compression}");
    for r in records {
        assert!(r.sampled_pixels < 160 * 100, "frame {}", r.index);
        assert!(
            r.mipi_bytes < (160 * 100 * 10 / 8) as u64,
            "frame {}",
            r.index
        );
    }
}

#[test]
fn energy_ordering_holds_in_executable_runs() {
    // The executable (measured-counts) energy must preserve the paper's
    // ordering against the dense baselines' analytic energy at the same
    // configuration: BlissCam < S+NPU and BlissCam < NPU-ROI < NPU-Full.
    let cfg = fast_config(7);
    // The counts are the ones serving billed: priced as BlissCam, they give
    // every record's energy back bit for bit.
    for r in shared_records() {
        let e = energy_breakdown_with_counts_at(
            &cfg,
            SystemVariant::BlissCam,
            &counts(r),
            Precision::F32,
        );
        assert_eq!(e.total_j(), r.energy_j, "frame {}", r.index);
    }
    let mut totals: HashMap<&str, f64> = [SystemVariant::BlissCam, SystemVariant::SNpu]
        .into_iter()
        .map(|variant| (variant.label(), priced_uj(&cfg, variant)))
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
fn blisscam_moves_fewer_bytes_and_joules_than_npu_full() {
    // NPU-Full has no executable pipeline: the served BlissCam run is held
    // against its analytic energy, full-frame MIPI payload and pipeline
    // schedule at the same configuration.
    let cfg = fast_config(7);
    let records = shared_records();
    let full_uj = energy_breakdown(&cfg, SystemVariant::NpuFull).total_j() * 1e6;
    assert!(shared_run().report.mean_energy_uj < full_uj);
    // Skip the cold-start bootstrap frames (full-frame readout) when
    // comparing steady-state traffic.
    let steady = &records[3..];
    let bytes_b: u64 = steady.iter().map(|r| r.mipi_bytes).sum();
    let bytes_f = cfg.energy.mipi.frame_bytes(cfg.pixels()) * steady.len() as u64;
    assert!(
        bytes_b * 2 < bytes_f,
        "bliss {bytes_b} B vs full {bytes_f} B"
    );
    let n = records.len();
    let bliss_latency = simulate_pipeline(&cfg, SystemVariant::BlissCam, n);
    let full_latency = simulate_pipeline(&cfg, SystemVariant::NpuFull, n);
    assert!(bliss_latency.mean_latency_s <= full_latency.mean_latency_s * 1.02);
}

#[test]
fn sparse_variants_compress_dense_variants_do_not() {
    // In-sensor sampling: far fewer pixels cross the link than the frame
    // holds. S+NPU samples the same pixels as BlissCam, so one measured
    // compression covers both in-sensor variants.
    let cfg = fast_config(7);
    let records = shared_records();
    let sampled: usize = records.iter().map(|r| r.sampled_pixels).sum();
    let compression = (records.len() * cfg.pixels()) as f32 / sampled.max(1) as f32;
    assert!(compression > 4.0, "compression {compression}");
    // The dense baselines have no executable pipeline: their analytic model
    // converts and ships every pixel of the frame.
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
        serve_one(cfg, 5).traces.remove(0).records
    };
    let a = run(11);
    let b = run(11);
    assert_eq!(a, b);
    let c = run(12);
    assert_ne!(
        a[4].sampled_pixels, c[4].sampled_pixels,
        "different seeds should sample differently"
    );
}

#[test]
fn blisscam_tokens_track_roi_occupancy() {
    // The number of ViT tokens must stay well below the total patch count —
    // that is where the compute savings come from.
    let total_patches = fast_config(7).vit.num_patches();
    // The cold-start bootstrap reads the full frame, so early frames may
    // occupy every patch; steady state must not.
    let steady = &shared_records()[3..];
    let below = steady.iter().filter(|r| r.tokens < total_patches).count();
    assert!(
        below * 2 > steady.len(),
        "steady-state frames mostly at full occupancy: {:?}",
        steady.iter().map(|r| r.tokens).collect::<Vec<_>>()
    );
}
