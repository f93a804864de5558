//! The BlissCam eye-tracking algorithms (paper §III).
//!
//! This crate implements the full learned pipeline:
//!
//! * [`RoiPredictionNet`] — the lightweight in-sensor ROI predictor: three
//!   convolutions + two fully-connected layers over the event map, with the
//!   previous frame's segmentation map as a corrective input (§III-A);
//! * [`SparseViT`] — the sparse-robust Vision Transformer segmenter:
//!   patch-token encoder, Segmenter-style mask decoder with class
//!   embeddings, and a per-pixel refinement head. Patches with no sampled
//!   pixels are dropped, so compute scales down with pixel volume (§III-B);
//! * [`RitnetLike`] — the dense CNN baseline, a convolutional
//!   encoder-decoder (§V);
//! * [`SamplingStrategy`] — the seven sampling alternatives compared in the
//!   paper's Fig. 15;
//! * [`GazeEstimator`] — geometric gaze regression from the predicted pupil;
//! * [`JointTrainer`] — end-to-end joint training with differentiable ROI
//!   gating and gradient masking of unsampled pixels (§III-C).
//!
//! # Example
//!
//! ```
//! use bliss_track::{JointTrainer, TrainConfig};
//! use bliss_eye::{render_sequence, SequenceConfig};
//!
//! # fn main() -> Result<(), bliss_tensor::TensorError> {
//! let seq = render_sequence(&SequenceConfig::miniature(12, 3));
//! let mut trainer = JointTrainer::new(TrainConfig::smoke_test())?;
//! let losses = trainer.train_on(&seq)?;
//! assert!(losses.iter().all(|l| l.is_finite()));
//! let eval = trainer.evaluate(&seq)?;
//! assert!(eval.horizontal.mean.is_finite());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod baselines;
mod gaze;
mod metrics;
mod roi_net;
mod sampling;
mod train;
pub mod util;
mod vit;

pub use baselines::{CnnSegConfig, RitnetLike};
pub use gaze::{EstimatorSnapshot, GazeEstimator};
pub use metrics::{seg_accuracy, AngularErrorStats, EvalResult};
pub use roi_net::{RoiNetConfig, RoiPredictionNet};
pub use sampling::{apply_strategy, SampledFrame, SamplingStrategy};
pub use train::{DenseTrainer, JointTrainer, TrainConfig};
pub use vit::{PlannedBatch, PlannedFrameView, SegPrediction, SparseViT, ViTConfig};
