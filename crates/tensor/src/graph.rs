//! Static graph IR for planned inference execution.
//!
//! The autograd [`crate::Tensor`] builds a define-by-run tape: every op
//! allocates an `Rc` node, a parents vector and a boxed backward closure,
//! and steady-state serving rebuilds that identical machinery every frame.
//! This module is the first stage of the replacement pipeline
//! (trace → plan → execute): a [`GraphBuilder`] captures the *structure* of
//! a forward pass once — op kind, operand ids, shapes — with no `Rc`, no
//! closures and no values. Shapes are checked at build time with the same
//! rules (and the same [`TensorError`] variants) as the corresponding
//! `NdArray`/`Tensor` operations, so a graph that builds cleanly cannot
//! shape-fault during planning.
//!
//! Values enter a graph three ways:
//!
//! * **Inputs** ([`GraphBuilder::input`]): per-execution `f32` slices, bound
//!   positionally at execute time.
//! * **Index inputs** ([`GraphBuilder::index_input`]): per-execution `usize`
//!   slices feeding [`GraphBuilder::gather_rows`].
//! * **Parameters** ([`GraphBuilder::param`]): live [`Tensor`] weights,
//!   captured by reference and re-read on every execution — mutating a
//!   weight (training, snapshot restore into the same tensors) is picked up
//!   without replanning because the plan stores the tensor, not a copy.
//!
//! Two graph ops are fused kernels rather than primitives:
//! [`GraphBuilder::block_attention`] (the head core of an attention module,
//! one plan step sharing its per-head kernel with the tape) and the int8
//! linear op that the quantisation pass (see the `quant` module) writes
//! over each calibrated weight GEMM.
//!
//! The graph is consumed by `ExecPlan::compile` (see the `exec` module),
//! which walks it in creation order (already topological — operands must
//! exist before the node that uses them), drops the nodes no output reads,
//! lays out buffer lifetimes into one arena, and produces a reusable
//! execution plan whose steps run the graph's own `Op`s over resolved
//! operands.
#![warn(missing_docs)]

use crate::quant::QuantizedWeights;
use crate::{Tensor, TensorError};
use std::collections::HashMap;
use std::rc::Rc;

/// Handle to a node in a [`GraphBuilder`] DAG.
///
/// Only meaningful for the builder that issued it; ids are dense indices in
/// creation order (which is therefore also a topological order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(pub(crate) usize);

/// Handle to a runtime index-input slot (gather indices), issued by
/// [`GraphBuilder::index_input`]. Slots are bound positionally at execute
/// time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexSlot(pub(crate) usize);

/// One operation, generic over its operand handle: a graph node holds an
/// `Op<NodeId>` (operands are node ids, shapes validated at build time) and
/// a plan step holds the same op over resolved operands (see the `plan`
/// module). [`Op::map`] is the one place that lists every variant's
/// operands.
#[derive(Debug, Clone)]
pub(crate) enum Op<N> {
    /// Runtime `f32` input bound positionally at execute time.
    Input { slot: usize },
    /// A live parameter tensor (possibly viewed under a different shape via
    /// [`GraphBuilder::param_view`]); `slot` indexes the builder's deduped
    /// parameter list.
    Param { slot: usize },
    /// `a x b` for `a: [m, k]`, `b: [k, n]`.
    MatMul { a: N, b: N },
    /// Elementwise sum of same-shaped operands.
    Add { a: N, b: N },
    /// Row-broadcast sum: `a: [m, n]` plus `row: [n]`.
    AddRow { a: N, row: N },
    /// Per-row scalar bias: `a: [r, w]` plus `bias: [r]` added to every
    /// element of row `r` (convolution bias over flattened spatial dims).
    AddColBias { a: N, bias: N },
    /// Elementwise multiply by a compile-time constant.
    Scale { a: N, factor: f32 },
    /// Rectified linear unit.
    Relu { a: N },
    /// Logistic sigmoid.
    Sigmoid { a: N },
    /// Tanh-approximated GELU.
    Gelu { a: N },
    /// Per-row layer normalisation with learnable scale/shift.
    LayerNorm { a: N, gamma: N, beta: N, eps: f32 },
    /// Matrix transpose.
    Transpose { a: N },
    /// Same elements, different shape — resolved as an alias (no copy, no
    /// execution step).
    Reshape { a: N },
    /// Contiguous row range of an `[m, n]` operand — resolved as an alias
    /// (the range length is the node's own row count).
    SliceRows { a: N, start: usize },
    /// Vertical stack of same-width matrices.
    ConcatRows { parts: Vec<N> },
    /// Horizontal stack of same-height matrices.
    ConcatCols { parts: Vec<N> },
    /// Flat concatenation of arbitrary operands into a vector.
    ConcatFlat { parts: Vec<N> },
    /// Convolution lowering of a `[c, h, w]` operand to columns.
    Im2Col {
        a: N,
        kh: usize,
        kw: usize,
        stride: usize,
        pad: usize,
    },
    /// Row gather from `a: [m, n]` by a runtime index input.
    GatherRows { a: N, indices: IndexSlot },
    /// Block-diagonal multi-head attention over a fused `[rows, 3*dim]`
    /// QKV operand (columns `[q_0..q_H | k_0..k_H | v_0..v_H]`): per span
    /// and head, `softmax(q k^T * scale) v`, heads side by side in a
    /// `[rows, dim]` output.
    BlockAttention {
        qkv: N,
        spans: Vec<(usize, usize)>,
        heads: usize,
        scale: f32,
    },
    /// One calibrated int8 weight GEMM, `a: [m, k]` against `weights`
    /// (`[k, n]`): quantise `a` under the static activation scale
    /// (`inv_scale = 1/scale`), multiply the integer codes exactly, and
    /// scale column `j` by `scales[j]`. Written over a `MatMul` node by the
    /// quantisation pass.
    QuantLinear {
        a: N,
        inv_scale: f32,
        weights: Rc<QuantizedWeights>,
        scales: Rc<Vec<f32>>,
    },
}

impl<N> Op<N> {
    /// The same op over new operand handles: `f` maps each operand, in
    /// tape order. Also the operand visitor (`op.map(|a| ...)`).
    pub(crate) fn map<M>(&self, mut f: impl FnMut(&N) -> M) -> Op<M> {
        match self {
            Op::Input { slot } => Op::Input { slot: *slot },
            Op::Param { slot } => Op::Param { slot: *slot },
            Op::MatMul { a, b } => Op::MatMul { a: f(a), b: f(b) },
            Op::Add { a, b } => Op::Add { a: f(a), b: f(b) },
            Op::AddRow { a, row } => Op::AddRow {
                a: f(a),
                row: f(row),
            },
            Op::AddColBias { a, bias } => Op::AddColBias {
                a: f(a),
                bias: f(bias),
            },
            Op::Scale { a, factor } => Op::Scale {
                a: f(a),
                factor: *factor,
            },
            Op::Relu { a } => Op::Relu { a: f(a) },
            Op::Sigmoid { a } => Op::Sigmoid { a: f(a) },
            Op::Gelu { a } => Op::Gelu { a: f(a) },
            Op::LayerNorm {
                a,
                gamma,
                beta,
                eps,
            } => Op::LayerNorm {
                a: f(a),
                gamma: f(gamma),
                beta: f(beta),
                eps: *eps,
            },
            Op::Transpose { a } => Op::Transpose { a: f(a) },
            Op::Reshape { a } => Op::Reshape { a: f(a) },
            Op::SliceRows { a, start } => Op::SliceRows {
                a: f(a),
                start: *start,
            },
            Op::ConcatRows { parts } => Op::ConcatRows {
                parts: parts.iter().map(f).collect(),
            },
            Op::ConcatCols { parts } => Op::ConcatCols {
                parts: parts.iter().map(f).collect(),
            },
            Op::ConcatFlat { parts } => Op::ConcatFlat {
                parts: parts.iter().map(f).collect(),
            },
            Op::Im2Col {
                a,
                kh,
                kw,
                stride,
                pad,
            } => Op::Im2Col {
                a: f(a),
                kh: *kh,
                kw: *kw,
                stride: *stride,
                pad: *pad,
            },
            Op::GatherRows { a, indices } => Op::GatherRows {
                a: f(a),
                indices: *indices,
            },
            Op::BlockAttention {
                qkv,
                spans,
                heads,
                scale,
            } => Op::BlockAttention {
                qkv: f(qkv),
                spans: spans.clone(),
                heads: *heads,
                scale: *scale,
            },
            Op::QuantLinear {
                a,
                inv_scale,
                weights,
                scales,
            } => Op::QuantLinear {
                a: f(a),
                inv_scale: *inv_scale,
                weights: Rc::clone(weights),
                scales: Rc::clone(scales),
            },
        }
    }

    /// The primary operand of an elementwise op (`Add` … `Gelu`), which its
    /// plan step updates in place in its output interval.
    pub(crate) fn elementwise_operand(&self) -> Option<&N> {
        match self {
            Op::Add { a, .. }
            | Op::AddRow { a, .. }
            | Op::AddColBias { a, .. }
            | Op::Scale { a, .. }
            | Op::Relu { a }
            | Op::Sigmoid { a }
            | Op::Gelu { a } => Some(a),
            _ => None,
        }
    }

    /// Whether the op computes nothing: a source (`Input`, `Param`) or an
    /// alias of its operand's storage (`Reshape`, `SliceRows`).
    pub(crate) fn is_storage(&self) -> bool {
        matches!(
            self,
            Op::Input { .. } | Op::Param { .. } | Op::Reshape { .. } | Op::SliceRows { .. }
        )
    }
}

/// A node: its operation plus its (build-time validated) output shape.
#[derive(Debug, Clone)]
pub(crate) struct Node {
    pub(crate) op: Op<NodeId>,
    pub(crate) shape: Vec<usize>,
}

impl Node {
    pub(crate) fn numel(&self) -> usize {
        self.shape.iter().product()
    }
}

/// Records a typed operation DAG with build-time shape checking.
///
/// Creation order is the topological order; every method that consumes
/// operand nodes validates their shapes with the same rules as the
/// corresponding tape operation and returns the new node's id. Call
/// [`GraphBuilder::mark_output`] on the nodes whose values the caller needs,
/// then hand the builder to `ExecPlan::compile`.
#[derive(Default)]
pub struct GraphBuilder {
    pub(crate) nodes: Vec<Node>,
    /// Parameter tensors, deduplicated by tensor identity.
    pub(crate) params: Vec<Tensor>,
    pub(crate) param_slots: HashMap<u64, usize>,
    pub(crate) param_nodes: HashMap<u64, NodeId>,
    pub(crate) input_shapes: Vec<Vec<usize>>,
    pub(crate) index_input_lens: Vec<usize>,
    pub(crate) outputs: Vec<NodeId>,
}

impl GraphBuilder {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// The build-time shape of a node.
    pub fn shape(&self, id: NodeId) -> &[usize] {
        &self.nodes[id.0].shape
    }

    fn push(&mut self, op: Op<NodeId>, shape: Vec<usize>) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node { op, shape });
        id
    }

    fn require_matrix(&self, id: NodeId, op: &'static str) -> Result<(usize, usize), TensorError> {
        let shape = self.shape(id);
        if shape.len() != 2 {
            return Err(TensorError::RankMismatch {
                op,
                expected: 2,
                actual: shape.len(),
            });
        }
        Ok((shape[0], shape[1]))
    }

    // ------------------------------------------------------------------
    // Sources
    // ------------------------------------------------------------------

    /// Declares a runtime `f32` input of fixed `shape`. Inputs are bound
    /// positionally (in declaration order) at execute time.
    pub fn input(&mut self, shape: &[usize]) -> NodeId {
        self.input_shapes.push(shape.to_vec());
        self.push(
            Op::Input {
                slot: self.input_shapes.len() - 1,
            },
            shape.to_vec(),
        )
    }

    /// Declares a runtime index input of exactly `len` indices, for
    /// [`GraphBuilder::gather_rows`]. Bound positionally at execute time.
    pub fn index_input(&mut self, len: usize) -> IndexSlot {
        self.index_input_lens.push(len);
        IndexSlot(self.index_input_lens.len() - 1)
    }

    /// Captures a parameter tensor. The same tensor (by identity) always
    /// maps to the same node, so repeated captures are free; its *current*
    /// value is re-read on every plan execution.
    pub fn param(&mut self, t: &Tensor) -> NodeId {
        if let Some(&node) = self.param_nodes.get(&t.id()) {
            return node;
        }
        let slot = self.param_slot(t);
        let shape = t.value().shape().to_vec();
        let node = self.push(Op::Param { slot }, shape);
        self.param_nodes.insert(t.id(), node);
        node
    }

    /// Captures a parameter tensor viewed under a different shape with the
    /// same element count (e.g. a conv weight `[oc, ic, kh, kw]` viewed as
    /// the matmul operand `[oc, ic*kh*kw]`).
    ///
    /// # Errors
    ///
    /// [`TensorError::ShapeDataMismatch`] if the element counts differ.
    pub fn param_view(&mut self, t: &Tensor, shape: &[usize]) -> Result<NodeId, TensorError> {
        let numel = t.value().data().len();
        if shape.iter().product::<usize>() != numel {
            return Err(TensorError::ShapeDataMismatch {
                shape: shape.to_vec(),
                data_len: numel,
            });
        }
        let slot = self.param_slot(t);
        Ok(self.push(Op::Param { slot }, shape.to_vec()))
    }

    fn param_slot(&mut self, t: &Tensor) -> usize {
        if let Some(&slot) = self.param_slots.get(&t.id()) {
            return slot;
        }
        self.params.push(t.clone());
        let slot = self.params.len() - 1;
        self.param_slots.insert(t.id(), slot);
        slot
    }

    // ------------------------------------------------------------------
    // Linear algebra
    // ------------------------------------------------------------------

    /// Matrix product `a x b`; see [`crate::NdArray::matmul`].
    ///
    /// # Errors
    ///
    /// Rank/shape errors exactly as the tape op raises them.
    pub fn matmul(&mut self, a: NodeId, b: NodeId) -> Result<NodeId, TensorError> {
        let (m, k) = self.require_matrix(a, "matmul")?;
        let (k2, n) = self.require_matrix(b, "matmul")?;
        if k != k2 {
            return Err(TensorError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape(a).to_vec(),
                rhs: self.shape(b).to_vec(),
            });
        }
        Ok(self.push(Op::MatMul { a, b }, vec![m, n]))
    }

    /// Matrix transpose of an `[m, n]` node.
    ///
    /// # Errors
    ///
    /// [`TensorError::RankMismatch`] for non-matrix operands.
    pub fn transpose(&mut self, a: NodeId) -> Result<NodeId, TensorError> {
        let (m, n) = self.require_matrix(a, "transpose")?;
        Ok(self.push(Op::Transpose { a }, vec![n, m]))
    }

    // ------------------------------------------------------------------
    // Elementwise / broadcast
    // ------------------------------------------------------------------

    /// Elementwise sum of two same-shaped nodes.
    ///
    /// # Errors
    ///
    /// [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn add(&mut self, a: NodeId, b: NodeId) -> Result<NodeId, TensorError> {
        if self.shape(a) != self.shape(b) {
            return Err(TensorError::ShapeMismatch {
                op: "add",
                lhs: self.shape(a).to_vec(),
                rhs: self.shape(b).to_vec(),
            });
        }
        let shape = self.shape(a).to_vec();
        Ok(self.push(Op::Add { a, b }, shape))
    }

    /// Adds a `[n]` row vector to every row of an `[m, n]` node.
    ///
    /// # Errors
    ///
    /// Rank/shape errors exactly as [`crate::NdArray::add_row`] raises them.
    pub fn add_row(&mut self, a: NodeId, row: NodeId) -> Result<NodeId, TensorError> {
        let (m, n) = self.require_matrix(a, "add_row")?;
        if self.shape(row) != [n] {
            return Err(TensorError::ShapeMismatch {
                op: "add_row",
                lhs: self.shape(a).to_vec(),
                rhs: self.shape(row).to_vec(),
            });
        }
        Ok(self.push(Op::AddRow { a, row }, vec![m, n]))
    }

    /// Adds `bias[r]` to every element of row `r` of an `[r, w]` node — the
    /// convolution bias broadcast over flattened spatial dimensions.
    ///
    /// # Errors
    ///
    /// [`TensorError::ShapeMismatch`] if `bias` is not `[r]`.
    pub fn add_col_bias(&mut self, a: NodeId, bias: NodeId) -> Result<NodeId, TensorError> {
        let (r, w) = self.require_matrix(a, "add_col_bias")?;
        if self.shape(bias) != [r] {
            return Err(TensorError::ShapeMismatch {
                op: "add_col_bias",
                lhs: self.shape(a).to_vec(),
                rhs: self.shape(bias).to_vec(),
            });
        }
        Ok(self.push(Op::AddColBias { a, bias }, vec![r, w]))
    }

    /// Elementwise multiply by a compile-time constant.
    pub fn scale(&mut self, a: NodeId, factor: f32) -> NodeId {
        let shape = self.shape(a).to_vec();
        self.push(Op::Scale { a, factor }, shape)
    }

    /// Rectified linear unit, elementwise.
    pub fn relu(&mut self, a: NodeId) -> NodeId {
        let shape = self.shape(a).to_vec();
        self.push(Op::Relu { a }, shape)
    }

    /// Logistic sigmoid, elementwise.
    pub fn sigmoid(&mut self, a: NodeId) -> NodeId {
        let shape = self.shape(a).to_vec();
        self.push(Op::Sigmoid { a }, shape)
    }

    /// Tanh-approximated GELU, elementwise.
    pub fn gelu(&mut self, a: NodeId) -> NodeId {
        let shape = self.shape(a).to_vec();
        self.push(Op::Gelu { a }, shape)
    }

    // ------------------------------------------------------------------
    // Normalisation
    // ------------------------------------------------------------------

    /// Per-row layer normalisation; `a: [m, n]`, `gamma`/`beta: [n]`.
    ///
    /// # Errors
    ///
    /// Rank/shape errors exactly as [`crate::Tensor::layer_norm`] raises
    /// them.
    pub fn layer_norm(
        &mut self,
        a: NodeId,
        gamma: NodeId,
        beta: NodeId,
        eps: f32,
    ) -> Result<NodeId, TensorError> {
        let (m, n) = self.require_matrix(a, "layer_norm")?;
        if self.shape(gamma) != [n] || self.shape(beta) != [n] {
            return Err(TensorError::ShapeMismatch {
                op: "layer_norm",
                lhs: self.shape(a).to_vec(),
                rhs: self.shape(gamma).to_vec(),
            });
        }
        Ok(self.push(
            Op::LayerNorm {
                a,
                gamma,
                beta,
                eps,
            },
            vec![m, n],
        ))
    }

    // ------------------------------------------------------------------
    // Shape manipulation
    // ------------------------------------------------------------------

    /// Same elements under a new shape. Compiles to an alias of the
    /// operand's storage — no copy, no execution step.
    ///
    /// # Errors
    ///
    /// [`TensorError::ShapeDataMismatch`] if element counts differ.
    pub fn reshape(&mut self, a: NodeId, shape: &[usize]) -> Result<NodeId, TensorError> {
        let numel = self.nodes[a.0].numel();
        if shape.iter().product::<usize>() != numel {
            return Err(TensorError::ShapeDataMismatch {
                shape: shape.to_vec(),
                data_len: numel,
            });
        }
        Ok(self.push(Op::Reshape { a }, shape.to_vec()))
    }

    /// Rows `start..end` of an `[m, n]` node. Row-major rows are
    /// contiguous, so this compiles to an alias — no copy, no step.
    ///
    /// # Errors
    ///
    /// Bounds errors exactly as [`crate::NdArray::slice_rows`] raises them.
    pub fn slice_rows(
        &mut self,
        a: NodeId,
        start: usize,
        end: usize,
    ) -> Result<NodeId, TensorError> {
        let (m, n) = self.require_matrix(a, "slice_rows")?;
        if start > end || end > m {
            return Err(TensorError::IndexOutOfBounds {
                op: "slice_rows",
                index: end,
                bound: m + 1,
            });
        }
        Ok(self.push(Op::SliceRows { a, start }, vec![end - start, n]))
    }

    /// Vertical stack of same-width matrices.
    ///
    /// # Errors
    ///
    /// [`TensorError::InvalidArgument`] for an empty part list,
    /// [`TensorError::ShapeMismatch`] on width disagreement.
    pub fn concat_rows(&mut self, parts: &[NodeId]) -> Result<NodeId, TensorError> {
        let (rows, cols) = self.concat_check(parts, "concat_rows", 1)?;
        Ok(self.push(
            Op::ConcatRows {
                parts: parts.to_vec(),
            },
            vec![rows, cols],
        ))
    }

    /// Horizontal stack of same-height matrices.
    ///
    /// # Errors
    ///
    /// [`TensorError::InvalidArgument`] for an empty part list,
    /// [`TensorError::ShapeMismatch`] on height disagreement.
    pub fn concat_cols(&mut self, parts: &[NodeId]) -> Result<NodeId, TensorError> {
        let (rows, cols) = self.concat_check(parts, "concat_cols", 0)?;
        Ok(self.push(
            Op::ConcatCols {
                parts: parts.to_vec(),
            },
            vec![rows, cols],
        ))
    }

    /// Shared/concat validation; `fixed_axis` is the axis all parts must
    /// agree on (0 = rows for concat_cols, 1 = cols for concat_rows).
    fn concat_check(
        &self,
        parts: &[NodeId],
        op: &'static str,
        fixed_axis: usize,
    ) -> Result<(usize, usize), TensorError> {
        let first = *parts.first().ok_or_else(|| TensorError::InvalidArgument {
            op,
            message: "need at least one part".to_string(),
        })?;
        let (mut rows, mut cols) = self.require_matrix(first, op)?;
        for &p in &parts[1..] {
            let (r, c) = self.require_matrix(p, op)?;
            let agrees = if fixed_axis == 0 {
                r == rows
            } else {
                c == cols
            };
            if !agrees {
                return Err(TensorError::ShapeMismatch {
                    op,
                    lhs: self.shape(first).to_vec(),
                    rhs: self.shape(p).to_vec(),
                });
            }
            if fixed_axis == 0 {
                cols += c;
            } else {
                rows += r;
            }
        }
        Ok((rows, cols))
    }

    /// Flat concatenation of arbitrary nodes into a `[total]` vector (used
    /// to mirror fused bias assembly).
    ///
    /// # Errors
    ///
    /// [`TensorError::InvalidArgument`] for an empty part list.
    pub fn concat_flat(&mut self, parts: &[NodeId]) -> Result<NodeId, TensorError> {
        if parts.is_empty() {
            return Err(TensorError::InvalidArgument {
                op: "concat_flat",
                message: "need at least one part".to_string(),
            });
        }
        let total: usize = parts.iter().map(|&p| self.nodes[p.0].numel()).sum();
        Ok(self.push(
            Op::ConcatFlat {
                parts: parts.to_vec(),
            },
            vec![total],
        ))
    }

    // ------------------------------------------------------------------
    // Convolution lowering / gather
    // ------------------------------------------------------------------

    /// Lowers a `[c, h, w]` node to convolution columns
    /// `[c*kh*kw, oh*ow]`; see [`crate::NdArray::im2col`].
    ///
    /// # Errors
    ///
    /// Rank/geometry errors exactly as the tape op raises them.
    pub fn im2col(
        &mut self,
        a: NodeId,
        kh: usize,
        kw: usize,
        stride: usize,
        pad: usize,
    ) -> Result<NodeId, TensorError> {
        let shape = self.shape(a);
        if shape.len() != 3 {
            return Err(TensorError::RankMismatch {
                op: "im2col",
                expected: 3,
                actual: shape.len(),
            });
        }
        let (c, h, w) = (shape[0], shape[1], shape[2]);
        let (oh, ow) = crate::array::conv_out_dims(h, w, kh, kw, stride, pad)?;
        Ok(self.push(
            Op::Im2Col {
                a,
                kh,
                kw,
                stride,
                pad,
            },
            vec![c * kh * kw, oh * ow],
        ))
    }

    /// Gathers rows of an `[m, n]` node by a runtime index input. Index
    /// values are bounds-checked against `m` at execute time (the slice
    /// length was fixed by [`GraphBuilder::index_input`]).
    ///
    /// # Errors
    ///
    /// [`TensorError::RankMismatch`] for non-matrix operands.
    pub fn gather_rows(&mut self, a: NodeId, indices: IndexSlot) -> Result<NodeId, TensorError> {
        let (_m, n) = self.require_matrix(a, "gather_rows")?;
        let rows = self.index_input_lens[indices.0];
        Ok(self.push(Op::GatherRows { a, indices }, vec![rows, n]))
    }

    // ------------------------------------------------------------------
    // Attention
    // ------------------------------------------------------------------

    /// Block-diagonal multi-head attention over a fused `[rows, 3*dim]` QKV
    /// node: rows within each `(start, end)` span attend only to rows of
    /// the same span, and head `h` reads its query, key and value columns
    /// at `h*head_dim`, `dim + h*head_dim` and `2*dim + h*head_dim`. The
    /// `[rows, dim]` result holds each head's `softmax(q k^T * scale) v` in
    /// its own columns; the plan runs it as one step on the kernel the
    /// tape's attention op calls.
    ///
    /// # Errors
    ///
    /// [`TensorError::RankMismatch`] for a non-matrix operand,
    /// [`TensorError::InvalidArgument`] if the width is not `3 * heads *
    /// head_dim` for some positive `head_dim`, or if `spans` is not an
    /// in-order, gap-free cover of the rows by non-empty spans (see
    /// [`crate::validate_spans`]).
    pub fn block_attention(
        &mut self,
        qkv: NodeId,
        spans: &[(usize, usize)],
        heads: usize,
        scale: f32,
    ) -> Result<NodeId, TensorError> {
        let (rows, width) = self.require_matrix(qkv, "block_attention")?;
        if heads == 0 || width == 0 || !width.is_multiple_of(3 * heads) {
            return Err(TensorError::InvalidArgument {
                op: "block_attention",
                message: format!("width {width} is not 3 x {heads} heads x head_dim"),
            });
        }
        crate::validate_spans(spans, rows, "block_attention")?;
        Ok(self.push(
            Op::BlockAttention {
                qkv,
                spans: spans.to_vec(),
                heads,
                scale,
            },
            vec![rows, width / 3],
        ))
    }

    // ------------------------------------------------------------------
    // Outputs
    // ------------------------------------------------------------------

    /// Marks a node as a plan output: its buffer is pinned for the whole
    /// execution (never reused in place) and readable afterwards through
    /// the compiled plan's output accessors, in `mark_output` order.
    pub fn mark_output(&mut self, id: NodeId) {
        self.outputs.push(id);
    }
}
