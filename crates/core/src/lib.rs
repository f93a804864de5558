//! The assembled BlissCam system: sensor/algorithm co-simulation, system
//! variants, and the paper's experiments.
//!
//! Three layers:
//!
//! * **Analytic models** — [`energy_breakdown`] and [`simulate_pipeline`]
//!   compute per-frame energy (Fig. 13) and pipeline timing (Figs. 8/14) for
//!   any [`SystemConfig`] x [`SystemVariant`] point, at paper scale.
//! * **Executable simulation** — [`EyeTrackingSystem`] runs the full
//!   hardware path of the in-sensor variants (BlissCam, S+NPU) at miniature
//!   scale: renderer → noise → DPS sensor (eventify/ROI/sample/readout/RLE)
//!   → MIPI → sparse ViT → gaze, with per-frame measured energy. The dense
//!   baselines' accuracy comes from `bliss_track::DenseTrainer` and their
//!   cost from the analytic models.
//! * **Experiments** — [`experiments`] regenerates every table and figure of
//!   the paper's evaluation section.
//!
//! # Example
//!
//! ```no_run
//! use blisscam_core::{EyeTrackingSystem, SystemConfig, SystemVariant};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut system = EyeTrackingSystem::new(SystemVariant::BlissCam, SystemConfig::miniature())?;
//! let report = system.run_frames(24)?;
//! println!(
//!     "gaze error {:.2}°/{:.2}°, {:.1} uJ/frame, {:.1}x compression",
//!     report.mean_angular_error().horizontal,
//!     report.mean_angular_error().vertical,
//!     report.mean_energy_uj(),
//!     report.mean_compression(),
//! );
//! # Ok(())
//! # }
//! ```

mod config;
mod energy_model;
pub mod experiments;
pub mod frontend;
mod latency_model;
mod system;

pub use bliss_npu::Precision;
pub use config::{SystemConfig, SystemVariant};
pub use energy_model::{
    energy_breakdown, energy_breakdown_with_counts_at, EnergyBreakdown, FrameCounts,
};
pub use frontend::{FrontEndSnapshot, SensedFrame, ServedFrame, SparseFrontEnd};
pub use latency_model::{
    host_batched_segmentation_time_s_at, host_segmentation_time_s, simulate_pipeline,
    stage_durations,
};
pub use system::{EyeTrackingSystem, FrameResult, MeanAngularError, SystemReport};
