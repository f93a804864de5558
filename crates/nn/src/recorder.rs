//! The op recorder every network forward is written against: one generic
//! body records the same [`Op`]s, in the same order, on the [`Tape`] and on a
//! [`GraphBuilder`], so a compiled plan is bit-identical to the tape.

use crate::{Module, MultiHeadAttention};
use bliss_tensor::{GraphBuilder, IndexSlot, NodeId, Tensor, TensorError};

/// One forward-pass operation over recorder nodes `N` and gather indices
/// `I`.
///
/// Each variant mirrors the [`Tensor`] op of the same name and fails with
/// the same [`TensorError`]. `Conv2d` and `BlockAttention` are the two ops
/// the tape fuses with a hand-written backward. A graph records `Conv2d` as
/// its primitive decomposition, and `BlockAttention` as the fused QKV GEMM
/// plus one `GraphBuilder::block_attention` op; either way the same kernels
/// run in the same order.
#[derive(Debug)]
pub enum Op<'a, N, I: ?Sized> {
    /// Matrix product `a x b`.
    MatMul(&'a N, &'a N),
    /// Elementwise sum.
    Add(&'a N, &'a N),
    /// Adds a `[n]` row to every row of an `[m, n]` value.
    AddRow(&'a N, &'a N),
    /// Elementwise multiply by a constant.
    Scale(&'a N, f32),
    /// Rectified linear unit.
    Relu(&'a N),
    /// Logistic sigmoid.
    Sigmoid(&'a N),
    /// Tanh-approximated GELU.
    Gelu(&'a N),
    /// Per-row layer normalisation: value, scale, shift, epsilon.
    LayerNorm(&'a N, &'a N, &'a N, f32),
    /// Same elements under a new shape.
    Reshape(&'a N, &'a [usize]),
    /// Matrix transpose.
    Transpose(&'a N),
    /// Rows `start..end` of a matrix.
    SliceRows(&'a N, usize, usize),
    /// Vertical stack of same-width matrices.
    ConcatRows(&'a [N]),
    /// Rows of a matrix selected by index.
    GatherRows(&'a N, &'a I),
    /// Convolution of a `[ic, h, w]` value with a `[oc, ic, k, k]` weight
    /// and an `[oc]` bias, at a stride and padding.
    Conv2d(&'a N, &'a Tensor, &'a Tensor, usize, usize),
    /// The head core of an attention module (everything before its output
    /// projection) over validated block-diagonal spans: the fused
    /// `[dim, 3*dim]` QKV projection, then per head and per span
    /// `softmax(q k^T / sqrt(head_dim)) v`, heads concatenated column-wise.
    BlockAttention(&'a MultiHeadAttention, &'a N, &'a [(usize, usize)]),
}

/// A sink for forward-pass operations.
pub trait Recorder {
    /// Handle to a recorded value.
    type Node: Clone;
    /// Row indices for [`Op::GatherRows`]: a slice on the tape, a runtime
    /// index slot in a graph.
    type Indices: ?Sized;

    /// Shape of a recorded value.
    fn shape(&self, a: &Self::Node) -> Vec<usize>;
    /// A trainable parameter, read live on every use.
    fn param(&mut self, t: &Tensor) -> Self::Node;
    /// Records one op (evaluating it, on the tape).
    ///
    /// # Errors
    ///
    /// The shape errors of the corresponding [`Tensor`] op.
    fn op(&mut self, op: Op<'_, Self::Node, Self::Indices>) -> Result<Self::Node, TensorError>;
}

/// The autograd tape as a [`Recorder`]: every op evaluates eagerly on
/// [`Tensor`]s and records its backward closure.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tape;

impl Recorder for Tape {
    type Node = Tensor;
    type Indices = [usize];

    fn shape(&self, a: &Tensor) -> Vec<usize> {
        a.shape()
    }

    fn param(&mut self, t: &Tensor) -> Tensor {
        t.clone()
    }

    fn op(&mut self, op: Op<'_, Tensor, [usize]>) -> Result<Tensor, TensorError> {
        match op {
            Op::MatMul(a, b) => a.matmul(b),
            Op::Add(a, b) => a.add(b),
            Op::AddRow(a, row) => a.add_row(row),
            Op::Scale(a, factor) => Ok(a.scale(factor)),
            Op::Relu(a) => Ok(a.relu()),
            Op::Sigmoid(a) => Ok(a.sigmoid()),
            Op::Gelu(a) => Ok(a.gelu()),
            Op::LayerNorm(a, gamma, beta, eps) => a.layer_norm(gamma, beta, eps),
            Op::Reshape(a, shape) => a.reshape(shape),
            Op::Transpose(a) => a.transpose(),
            Op::SliceRows(a, start, end) => a.slice_rows(start, end),
            Op::ConcatRows(parts) => Tensor::concat_rows(parts),
            Op::GatherRows(a, indices) => a.gather_rows(indices),
            Op::Conv2d(x, w, b, stride, pad) => x.conv2d(w, Some(b), stride, pad),
            Op::BlockAttention(mha, x, spans) => mha.fused_heads(x, spans),
        }
    }
}

/// A planned-inference graph as a [`Recorder`]: every op is recorded, not
/// evaluated.
impl Recorder for GraphBuilder {
    type Node = NodeId;
    type Indices = IndexSlot;

    fn shape(&self, a: &NodeId) -> Vec<usize> {
        GraphBuilder::shape(self, *a).to_vec()
    }

    fn param(&mut self, t: &Tensor) -> NodeId {
        GraphBuilder::param(self, t)
    }

    fn op(&mut self, op: Op<'_, NodeId, IndexSlot>) -> Result<NodeId, TensorError> {
        match op {
            Op::MatMul(a, b) => self.matmul(*a, *b),
            Op::Add(a, b) => self.add(*a, *b),
            Op::AddRow(a, row) => self.add_row(*a, *row),
            Op::Scale(a, factor) => Ok(self.scale(*a, factor)),
            Op::Relu(a) => Ok(self.relu(*a)),
            Op::Sigmoid(a) => Ok(self.sigmoid(*a)),
            Op::Gelu(a) => Ok(self.gelu(*a)),
            Op::LayerNorm(a, gamma, beta, eps) => self.layer_norm(*a, *gamma, *beta, eps),
            Op::Reshape(a, shape) => self.reshape(*a, shape),
            Op::Transpose(a) => self.transpose(*a),
            Op::SliceRows(a, start, end) => self.slice_rows(*a, start, end),
            Op::ConcatRows(parts) => self.concat_rows(parts),
            Op::GatherRows(a, indices) => self.gather_rows(*a, *indices),
            Op::Conv2d(x, w, b, stride, pad) => lower_conv2d(self, *x, w, b, stride, pad),
            Op::BlockAttention(mha, x, spans) => lower_block_attention(self, mha, *x, spans),
        }
    }
}

/// The tape's conv lowering as graph ops: im2col, the weight viewed as a
/// `[oc, ic*k*k]` matmul operand, a per-channel bias add, and a reshape
/// (which compiles away as an alias). im2col rejects a non-`[c, h, w]`
/// input and the matmul a channel mismatch.
fn lower_conv2d(
    g: &mut GraphBuilder,
    x: NodeId,
    weight: &Tensor,
    bias: &Tensor,
    stride: usize,
    pad: usize,
) -> Result<NodeId, TensorError> {
    let (ws, xs) = (weight.shape(), g.shape(x).to_vec());
    let cols = g.im2col(x, ws[2], ws[3], stride, pad)?;
    let w2 = g.param_view(weight, &[ws[0], ws[1] * ws[2] * ws[3]])?;
    let prod = g.matmul(w2, cols)?;
    let b = g.param(bias);
    let biased = g.add_col_bias(prod, b)?;
    let oh = (xs[1] + 2 * pad - ws[2]) / stride + 1;
    let ow = (xs[2] + 2 * pad - ws[3]) / stride + 1;
    g.reshape(biased, &[ws[0], oh, ow])
}

/// The tape's fused attention op as graph ops: the same fused QKV GEMM
/// (columns `[q_0..q_H | k_0..k_H | v_0..v_H]`), then one block-attention
/// op whose plan step runs the tape's per-head kernel on every (span, head)
/// pair.
fn lower_block_attention(
    g: &mut GraphBuilder,
    mha: &MultiHeadAttention,
    x: NodeId,
    spans: &[(usize, usize)],
) -> Result<NodeId, TensorError> {
    let scale = 1.0 / (mha.head_dim as f32).sqrt();

    let mut wcols = Vec::with_capacity(3 * mha.heads());
    let mut bparts = Vec::with_capacity(3 * mha.heads());
    for proj in mha.query.iter().chain(&mha.key).chain(&mha.value) {
        let params = proj.parameters();
        wcols.push(g.param(&params[0]));
        bparts.push(g.param(&params[1]));
    }
    let wqkv = g.concat_cols(&wcols)?;
    let bqkv = g.concat_flat(&bparts)?;
    let mm = g.matmul(x, wqkv)?;
    let qkv = g.add_row(mm, bqkv)?;
    g.block_attention(qkv, spans, mha.heads(), scale)
}
