//! Neural-network building blocks for the BlissCam reproduction.
//!
//! Layers are thin, explicitly-parameterised wrappers that own their
//! parameter tensors. Each forward pass is written once, generic over the
//! op [`Recorder`]: the autograd [`Tape`] for training, or a
//! [`bliss_tensor::GraphBuilder`] for compiled, bit-identical inference.
//!
//! The crate provides everything the paper's networks need:
//!
//! * [`Linear`], [`Conv2d`] — the ROI-prediction CNN (3 Conv + 2 FC,
//!   §III-A) and the RITnet-style dense baseline.
//! * [`MultiHeadAttention`], [`TransformerBlock`], [`LayerNormLayer`] — the
//!   sparse ViT segmenter (12-block encoder + 2-block decoder, §III-B).
//! * [`Adam`], [`Sgd`] — the joint-training optimizers (§III-C).
//!
//! The layers count no MACs: the cost models price the networks from their
//! configurations (`ViTConfig`, `RoiNetConfig`, `CnnSegConfig` in
//! `bliss-track`), lowered to the GEMM workloads of `bliss-npu`.
//!
//! # Example
//!
//! ```
//! use bliss_nn::{Linear, Module, Sgd, Tape};
//! use bliss_tensor::{NdArray, Tensor};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! # fn main() -> Result<(), bliss_tensor::TensorError> {
//! let mut rng = StdRng::seed_from_u64(0);
//! let layer = Linear::new(&mut rng, 4, 2);
//! let mut opt = Sgd::new(layer.parameters(), 0.1);
//! for _ in 0..10 {
//!     let x = Tensor::constant(NdArray::ones(&[3, 4]));
//!     let loss = layer.forward(&mut Tape, &x)?.mse_loss(&NdArray::zeros(&[3, 2]))?;
//!     opt.zero_grad();
//!     loss.backward()?;
//!     opt.step();
//! }
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod attention;
mod init;
mod layers;
mod optim;
mod recorder;
mod snapshot;

pub use attention::{MultiHeadAttention, TransformerBlock};
pub use init::{kaiming_normal, xavier_uniform};
pub use layers::{Conv2d, LayerNormLayer, Linear, Mlp};
pub use optim::{clip_global_norm, Adam, Sgd};
pub use recorder::{Op, Recorder, Tape};
pub use snapshot::{restore_params, snapshot_params, ParamSnapshot};

use bliss_tensor::Tensor;

/// A set of trainable parameters.
///
/// Every layer implements `Module`; composite networks collect the parameters
/// of their sub-layers. Forward signatures differ per layer (image vs token
/// inputs), so `Module` intentionally only standardises parameter access.
pub trait Module {
    /// All trainable parameter tensors of this module, in a stable order.
    fn parameters(&self) -> Vec<Tensor>;

    /// Total number of scalar parameters.
    fn num_parameters(&self) -> usize {
        self.parameters().iter().map(|p| p.value().len()).sum()
    }
}
