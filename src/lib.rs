//! # BlissCam
//!
//! A full-system reproduction of **"BlissCam: Boosting Eye Tracking Efficiency
//! with Learned In-Sensor Sparse Sampling"** (ISCA 2024).
//!
//! BlissCam co-designs a stacked digital-pixel image sensor with a sparse
//! eye-tracking algorithm: frames are *eventified* in the analog domain, a tiny
//! in-sensor CNN predicts an eye region-of-interest, and only ~5 % of the
//! pixels are quantized and shipped to the host, where a sparse-robust Vision
//! Transformer segments the eye and a geometric model regresses the gaze.
//!
//! This crate re-exports the whole workspace:
//!
//! * [`parallel`] — deterministic data-parallel primitives (scoped thread pool)
//! * [`tensor`] — n-d tensors with reverse-mode autograd
//! * [`nn`] — neural-network layers, losses and optimizers
//! * [`eye`] — synthetic near-eye renderer and gaze trajectories
//! * [`sensor`] — behavioural digital-pixel-sensor simulator
//! * [`npu`] — analytical systolic-array simulator
//! * [`energy`] — process scaling, MIPI/DRAM/readout energy and area models
//! * [`timing`] — frame-pipeline timing simulator
//! * [`track`] — ROI prediction, sparse ViT segmentation, sampling strategies
//! * [`core`] — system variants, the shared per-frame front end, the
//!   analytic models and the paper experiments
//! * [`serve`] — the runtime that runs the closed loop: one session is the
//!   eye tracker, N sessions share batched inference
//! * [`fleet`] — multi-host sharded serving with pluggable placement policies
//!
//! # Quickstart
//!
//! ```
//! use blisscam::core::SystemConfig;
//! use blisscam::serve::{ServeConfig, ServeRuntime};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Train the networks (seconds at miniature scale), then track one user
//! // for 12 frames.
//! let runtime = ServeRuntime::new(SystemConfig::miniature())?;
//! let outcome = runtime.serve(&ServeConfig::new(1, 12))?;
//! let session = &outcome.report.per_session[0];
//! println!("mean gaze error: {:.2} deg", session.mean_horizontal_error_deg);
//! println!("energy per frame: {:.1} uJ", session.mean_energy_uj);
//! # assert_eq!(session.frames, 12);
//! # assert!(session.mean_horizontal_error_deg.is_finite());
//! # assert!(session.mean_energy_uj > 0.0);
//! # Ok(())
//! # }
//! ```

pub use bliss_energy as energy;
pub use bliss_eye as eye;
pub use bliss_fleet as fleet;
pub use bliss_nn as nn;
pub use bliss_npu as npu;
pub use bliss_parallel as parallel;
pub use bliss_sensor as sensor;
pub use bliss_serve as serve;
pub use bliss_tensor as tensor;
pub use bliss_timing as timing;
pub use bliss_track as track;
pub use blisscam_core as core;
