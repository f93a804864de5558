//! Quickstart: train a BlissCam eye tracker, serve one user's frames
//! end-to-end, and print what the co-designed sensor+algorithm stack
//! delivers.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use blisscam::core::SystemConfig;
use blisscam::serve::{ServeConfig, ServeRuntime};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A miniature configuration trains its networks in seconds on a CPU.
    let config = SystemConfig::miniature();
    println!(
        "building BlissCam system: {}x{} sensor @ {:.0} FPS, {:.0} % in-ROI sampling",
        config.width,
        config.height,
        config.fps,
        config.sample_rate * 100.0
    );
    println!("training the ROI predictor and sparse ViT jointly...");
    let runtime = ServeRuntime::new(config)?;

    println!("serving one user for 24 frames through the full hardware path:");
    println!("  render -> noise -> expose -> eventify -> ROI -> SRAM sampling");
    println!("  -> sparse readout -> RLE -> MIPI -> decode -> sparse ViT -> gaze\n");
    let outcome = runtime.serve(&ServeConfig::new(1, 24))?;
    let records = &outcome.traces[0].records;

    for frame in records.iter().take(6) {
        println!(
            "frame {:>2}: gaze ({:+6.1}°, {:+6.1}°) truth ({:+6.1}°, {:+6.1}°)  \
             {:>5} px sampled, {:>5} B on MIPI, {:>3} tokens",
            frame.index,
            frame.gaze_prediction.horizontal_deg,
            frame.gaze_prediction.vertical_deg,
            frame.gaze_truth.horizontal_deg,
            frame.gaze_truth.vertical_deg,
            frame.sampled_pixels,
            frame.mipi_bytes,
            frame.tokens,
        );
    }
    println!("  ... ({} frames total)\n", records.len());

    let report = &outcome.report;
    let session = &report.per_session[0];
    println!(
        "mean gaze error      : {:.2}° horizontal, {:.2}° vertical",
        session.mean_horizontal_error_deg, session.mean_vertical_error_deg
    );
    let sampled: usize = records.iter().map(|r| r.sampled_pixels).sum();
    println!(
        "pixel compression    : {:.1}x (paper: 20.6x at paper scale)",
        (records.len() * config.pixels()) as f64 / sampled.max(1) as f64
    );
    println!(
        "energy per frame     : {:.1} uJ (miniature-scale hardware model)",
        report.mean_energy_uj
    );
    println!(
        "tracking latency     : {:.2} ms p50, {:.2} ms p99 at {:.0} FPS (budget: 15 ms)",
        report.latency.p50_ms, report.latency.p99_ms, report.throughput_fps
    );
    Ok(())
}
