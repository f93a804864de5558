//! The assembled BlissCam system: sensor/algorithm co-simulation, system
//! variants, and the paper's experiments.
//!
//! Three layers:
//!
//! * **Analytic models** — [`energy_breakdown`] and [`simulate_pipeline`]
//!   compute per-frame energy (Fig. 13) and pipeline timing (Figs. 8/14) for
//!   any [`SystemConfig`] x [`SystemVariant`] point, at paper scale.
//! * **Executable front end** — [`SparseFrontEnd`] is the closed loop of
//!   the in-sensor pipeline at miniature scale, one instance per stream:
//!   renderer → noise → DPS sensor (eventify/ROI/sample/readout/RLE) → MIPI
//!   → host decode, with the sparse ViT's segmentation fed back as the next
//!   frame's ROI cue and regressed to a gaze. Its measured per-frame counts
//!   ([`SensedFrame::counts`]) are priced by the analytic energy model
//!   ([`energy_breakdown_with_counts_at`]). `bliss_serve::ServeRuntime`
//!   drives it; a one-session serve is the executable system. S+NPU runs
//!   the same pipeline as BlissCam and differs only in how it is priced.
//!   The dense baselines' accuracy comes from `bliss_track::DenseTrainer`
//!   and their cost from the analytic models.
//! * **Experiments** — [`experiments`] regenerates every table and figure of
//!   the paper's evaluation section.
//!
//! # Example
//!
//! ```no_run
//! use blisscam_core::experiments::{fig12_accuracy, fig13_energy, ExperimentScale};
//! use blisscam_core::SystemConfig;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Analytic: per-variant energy at the paper's hardware point.
//! for row in fig13_energy(&SystemConfig::paper()) {
//!     println!("{}: {:.1} uJ/frame", row.variant, row.breakdown.total_j() * 1e6);
//! }
//! // Executable: trains the networks, then measures gaze error against
//! // pixel compression for each series of Fig. 12.
//! let fig12 = fig12_accuracy(&ExperimentScale::quick())?;
//! for series in &fig12.series {
//!     for point in &series.points {
//!         println!(
//!             "{}: {:.1}x compression, {:.2}° horizontal error",
//!             series.label, point.compression, point.horizontal.mean
//!         );
//!     }
//! }
//! # Ok(())
//! # }
//! ```

mod config;
mod energy_model;
pub mod experiments;
pub mod frontend;
mod latency_model;

pub use bliss_npu::Precision;
pub use config::{SystemConfig, SystemVariant};
pub use energy_model::{
    energy_breakdown, energy_breakdown_with_counts_at, EnergyBreakdown, FrameCounts,
};
pub use frontend::{FrontEndSnapshot, SensedFrame, SparseFrontEnd};
pub use latency_model::{
    host_batched_segmentation_time_s_at, host_segmentation_time_s, simulate_pipeline,
    stage_durations,
};
