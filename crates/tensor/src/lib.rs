//! N-dimensional tensors and reverse-mode automatic differentiation.
//!
//! This crate is the numerical substrate of the BlissCam reproduction. It
//! provides two layers:
//!
//! * [`NdArray`] — a plain row-major `f32` array with shape-checked linear
//!   algebra (matmul, im2col convolution helpers, reductions, softmax…). This
//!   is used directly by the non-learned parts of the system (sensor
//!   simulation, renderer).
//! * [`Tensor`] — a define-by-run autograd wrapper around [`NdArray`]. Every
//!   operation records a backward closure; [`Tensor::backward`] walks the tape
//!   in reverse topological order and accumulates gradients. This powers the
//!   joint training of the ROI-prediction network and the sparse ViT
//!   segmenter (paper §III-C).
//!
//! # Buffers and workspaces
//!
//! Every [`NdArray`] owns its backing store and frees it through the global
//! allocator; there is no process-wide buffer pool. Hot paths that must not
//! allocate per frame keep their buffers with an owner instead: a
//! [`PlanCache`] shares one arena among its plans, and callers such as the
//! sparse ViT's planned batch keep their staging buffers across calls,
//! grown to the largest request seen. The register-blocked matmul keeps a
//! dedicated per-thread operand-packing workspace for
//! [`NdArray::matmul_transposed`], and the planned executor's fused steps
//! keep their per-task scratch in per-thread workspaces.
//!
//! # Planned inference (trace → plan → execute)
//!
//! The tape is the right tool for training but pays per-op machinery —
//! `Rc` node headers, parents vectors, boxed backward closures — that
//! steady-state inference re-creates identically every frame. The
//! [`GraphBuilder`] / [`ExecPlan`] layer removes it: record the forward
//! pass once as a typed, shape-checked DAG; compile it into a
//! lifetime-planned single-arena schedule; then execute the plan each frame
//! with **zero heap allocations** and no refcount traffic, dispatching to
//! the *same* slice-level kernels as the tape ops (which is what makes
//! planned and taped execution bit-identical at any thread count). Plans
//! are cached per shape class in a [`PlanCache`], whose plans share one
//! arena sized to the largest of them; [`inference_mode`] is the
//! thread-local switch network forwards use to choose the planned path when
//! no gradient is required.
//!
//! # Example
//!
//! ```
//! use bliss_tensor::{NdArray, Tensor};
//!
//! # fn main() -> Result<(), bliss_tensor::TensorError> {
//! let w = Tensor::parameter(NdArray::from_vec(vec![2.0, -1.0], &[1, 2])?);
//! let x = Tensor::constant(NdArray::from_vec(vec![3.0, 4.0], &[2, 1])?);
//! let y = w.matmul(&x)?; // 2*3 - 1*4 = 2
//! y.backward()?;
//! assert_eq!(y.value().data()[0], 2.0);
//! assert_eq!(w.grad().unwrap().data(), &[3.0, 4.0]);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod array;
mod autograd;
mod error;
mod exec;
mod gradcheck;
mod graph;
mod plan;
pub mod quant;
mod workspace;

pub use array::{validate_spans, NdArray};
pub use autograd::Tensor;
pub use error::TensorError;
pub use exec::{
    in_inference_mode, inference_mode, ExecPlan, PlanCache, PlanCacheStats, MAX_CACHED_PLANS,
};
pub use gradcheck::{check_gradients, GradCheckReport};
pub use graph::{GraphBuilder, IndexSlot, NodeId};
pub use quant::{CalTap, QuantCalibration, QuantEntry, QuantSpec, QuantizedWeights};

/// Slice-level kernel entry points shared by the tape ops and the planned
/// executor.
///
/// These operate on caller-provided buffers with **zero allocations**, so
/// hot paths that stage data in their own buffers (e.g. the sparse ViT's
/// per-pixel refinement tail, whose row count changes every frame and so
/// cannot live inside a shape-keyed [`ExecPlan`]) can run the exact same
/// arithmetic as the corresponding [`NdArray`] / [`Tensor`] ops —
/// bit-identical results at any thread count.
pub mod kernels {
    pub use crate::array::{
        add_row_assign, attention_head_into, gather_rows_into, gelu_into, matmul_into,
        softmax_rows_into,
    };
    pub use bliss_parallel::math::{exp_f32, exp_f32_in_place, tanh_f32};
}
