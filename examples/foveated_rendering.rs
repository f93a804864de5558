//! Gaze-contingent foveated rendering — the AR/VR workload that motivates
//! the paper's introduction.
//!
//! A foveated renderer shades the display at full resolution only inside a
//! foveal circle around the user's gaze and progressively coarser outside.
//! Two things decide whether this works: tracking **latency** (a stale gaze
//! point puts the fovea in the wrong place during saccades) and tracking
//! **error** (a small fovea can be used only if the gaze point is accurate).
//!
//! This example drives a simulated foveated renderer from the BlissCam gaze
//! stream and reports the shading savings plus how often the true gaze fell
//! outside the rendered fovea.
//!
//! ```sh
//! cargo run --release --example foveated_rendering
//! ```

use blisscam::core::SystemConfig;
use blisscam::serve::{ServeConfig, ServeRuntime};

/// Display parameters of a simulated HMD panel.
const DISPLAY_W: usize = 1440;
const DISPLAY_H: usize = 1600;
const DEGREES_PER_PANEL: f32 = 90.0; // simple linear eye-space mapping

fn shading_cost(fovea_deg: f32) -> f64 {
    // Full-rate pixels inside the fovea, quarter rate in the mid ring (2x
    // radius), 1/16 rate outside.
    let px_per_deg = DISPLAY_W as f32 / DEGREES_PER_PANEL;
    let r1 = (fovea_deg * px_per_deg) as f64;
    let r2 = 2.0 * r1;
    let total = (DISPLAY_W * DISPLAY_H) as f64;
    let inner = (std::f64::consts::PI * r1 * r1).min(total);
    let mid = (std::f64::consts::PI * (r2 * r2 - r1 * r1))
        .max(0.0)
        .min(total - inner);
    let outer = total - inner - mid;
    inner + 0.25 * mid + 0.0625 * outer
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("training the BlissCam tracker...");
    let outcome = ServeRuntime::new(SystemConfig::miniature())?.serve(&ServeConfig::new(1, 48))?;
    let report = &outcome.report;
    let frames = &outcome.traces[0].records;
    let session = &report.per_session[0];

    let latency_ms = report.latency.p50_ms;
    // The fovea must cover: rendering margin + tracking error + how far the
    // eye can travel during one tracking latency (saccades up to 700 deg/s).
    let saccade_slip = 700.0 * (latency_ms / 1e3) as f32;
    let p95_err = {
        let mut errs: Vec<f32> = frames
            .iter()
            .map(|f| f.horizontal_error_deg.max(f.vertical_error_deg))
            .collect();
        errs.sort_by(f32::total_cmp);
        errs[(errs.len() as f32 * 0.95) as usize % errs.len()]
    };
    let fovea = 5.0 + p95_err; // 5 deg physiological fovea + tracking error

    println!("\ntracker characteristics:");
    println!("  latency (p50)      : {latency_ms:.2} ms");
    println!(
        "  mean error         : {:.2}°/{:.2}° (h/v)",
        session.mean_horizontal_error_deg, session.mean_vertical_error_deg
    );
    println!("  p95 error          : {p95_err:.2}°");
    println!("  saccade slip/frame : {saccade_slip:.1}° (eye travel during one latency)");

    // Render the sequence: place the fovea at the *predicted* gaze and check
    // whether the *true* gaze stayed within it.
    let full_cost = (DISPLAY_W * DISPLAY_H) as f64;
    let fov_cost = shading_cost(fovea);
    let mut misses = 0usize;
    for frame in frames {
        let miss = frame.gaze_prediction.angular_distance(&frame.gaze_truth) > fovea;
        if miss {
            misses += 1;
        }
    }
    println!("\nfoveated rendering with a {fovea:.1}° fovea:");
    println!(
        "  shading work       : {:.1} % of full-resolution ({}x{} panel)",
        fov_cost / full_cost * 100.0,
        DISPLAY_W,
        DISPLAY_H
    );
    println!(
        "  fovea misses       : {misses}/{} frames ({:.1} %)",
        frames.len(),
        misses as f64 / frames.len() as f64 * 100.0
    );
    println!(
        "  tracker energy     : {:.1} uJ/frame on top of the saved GPU work",
        report.mean_energy_uj
    );
    println!("\nThe latency budget is why the paper targets sub-10 ms tracking: at 15+ ms a");
    println!("700°/s saccade moves the eye >10° before the fovea catches up.");
    Ok(())
}
