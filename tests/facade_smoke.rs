//! Smoke tests of the `blisscam` facade: the exact flow the README and
//! `src/lib.rs` quickstart advertise must keep working, and every re-exported
//! sub-crate must stay reachable through the facade paths.

use blisscam::core::SystemConfig;
use blisscam::serve::{ServeConfig, ServeRuntime};

#[test]
fn quickstart_flow_runs_and_reports_sane_numbers() {
    let config = SystemConfig::miniature();
    let runtime = ServeRuntime::new(config).expect("runtime trains");
    let outcome = runtime
        .serve(&ServeConfig::new(1, 12))
        .expect("12-frame serve");

    let records = &outcome.traces[0].records;
    assert_eq!(records.len(), 12);
    let session = &outcome.report.per_session[0];
    assert_eq!(session.frames, 12);

    let (h, v) = (
        session.mean_horizontal_error_deg,
        session.mean_vertical_error_deg,
    );
    assert!(h.is_finite() && h >= 0.0, "horizontal error {h:?}");
    assert!(v.is_finite() && v >= 0.0, "vertical error {v:?}");

    let energy = session.mean_energy_uj;
    assert!(energy > 0.0 && energy.is_finite(), "energy {energy} uJ");

    // The whole point of BlissCam: far fewer pixels leave the sensor than a
    // dense readout would ship.
    let sampled: usize = records.iter().map(|r| r.sampled_pixels).sum();
    let compression = (records.len() * config.pixels()) as f32 / sampled.max(1) as f32;
    assert!(compression > 1.0, "compression {compression}");
}

#[test]
fn facade_reexports_every_subsystem() {
    // One cheap touch per re-exported crate, through the facade paths only.
    let a = blisscam::tensor::NdArray::zeros(&[2, 3]);
    assert_eq!(a.shape(), &[2, 3]);

    let roi = blisscam::sensor::RoiBox::new(0, 0, 4, 4);
    assert_eq!(roi.area(), 16);

    let node = blisscam::energy::ProcessNode::new(65).expect("65 nm is a valid node");
    assert!(node.energy_factor() > 0.0);

    let link = blisscam::energy::MipiLink::default();
    assert!(link.transfer_time_s(1_000) > 0.0);

    let host = blisscam::npu::SystolicArray::host();
    let mut wl = blisscam::npu::WorkloadDesc::new("smoke");
    wl.push_transformer_block(16, 32, 1);
    let run = host.run(&wl, &blisscam::energy::EnergyParams::default(), false);
    assert!(run.cycles > 0);

    let stages = blisscam::timing::StageDurations::paper_npu_full();
    let timing = blisscam::timing::simulate(
        &blisscam::timing::PipelineConfig::conventional(120.0, stages),
        4,
    );
    assert_eq!(timing.frames.len(), 4);

    let seq = blisscam::eye::render_sequence(&blisscam::eye::SequenceConfig::miniature(2, 1));
    assert_eq!(seq.frames.len(), 2);
}
