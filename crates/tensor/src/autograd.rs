use crate::array::conv_out_dims;
use crate::{NdArray, TensorError};
use std::cell::{Ref, RefCell};
use std::collections::HashSet;
use std::fmt;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

type BackwardFn = Box<dyn Fn(&NdArray, &[Tensor])>;

struct TensorNode {
    id: u64,
    value: RefCell<NdArray>,
    grad: RefCell<Option<NdArray>>,
    requires_grad: bool,
    parents: Vec<Tensor>,
    backward_fn: Option<BackwardFn>,
}

/// A node in a define-by-run autograd graph.
///
/// `Tensor` wraps an [`NdArray`] value together with the backward closure
/// that produced it. Cloning a `Tensor` is cheap (reference-counted); the
/// graph lives as long as any tensor referencing it.
///
/// Graphs are rebuilt on every forward pass; parameters (created with
/// [`Tensor::parameter`]) persist across passes and accumulate gradients
/// until [`Tensor::zero_grad`] is called.
///
/// `Tensor` is intentionally **not** `Send`: each training thread owns its
/// own graph, built on its own copy of the parameters. Threads exchange
/// plain [`NdArray`] values (weights in, gradients out), never tensors.
#[derive(Clone)]
pub struct Tensor {
    node: Rc<TensorNode>,
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Tensor(id={}, shape={:?}, requires_grad={})",
            self.node.id,
            self.node.value.borrow().shape(),
            self.node.requires_grad
        )
    }
}

impl Tensor {
    // ------------------------------------------------------------------
    // Construction
    // ------------------------------------------------------------------

    /// Creates a trainable leaf tensor (gradients will be accumulated).
    pub fn parameter(value: NdArray) -> Self {
        Self::leaf(value, true)
    }

    /// Creates a non-trainable leaf tensor (no gradients flow into it).
    pub fn constant(value: NdArray) -> Self {
        Self::leaf(value, false)
    }

    fn leaf(value: NdArray, requires_grad: bool) -> Self {
        Tensor {
            node: Rc::new(TensorNode {
                id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
                value: RefCell::new(value),
                grad: RefCell::new(None),
                requires_grad,
                parents: Vec::new(),
                backward_fn: None,
            }),
        }
    }

    /// Creates a graph node from an externally computed value and a custom
    /// backward closure — the extension point for fused operators defined
    /// outside this crate (e.g. `bliss_nn`'s parallel multi-head attention).
    ///
    /// `backward` receives the node's output gradient and its parents in the
    /// order given here; it must push gradients into the parents with
    /// [`Tensor::add_grad`] (which silently ignores constants). The closure is
    /// only retained when at least one parent requires gradients.
    ///
    /// # Example
    ///
    /// ```
    /// use bliss_tensor::{NdArray, Tensor};
    ///
    /// // A custom "times four" op: forward computes 4x, backward scales the
    /// // incoming gradient by 4.
    /// let x = Tensor::parameter(NdArray::from_vec(vec![1.5], &[1]).unwrap());
    /// let y = Tensor::from_custom_op(
    ///     x.value().scale(4.0),
    ///     vec![x.clone()],
    ///     |grad, parents| {
    ///         parents[0].add_grad(&grad.scale(4.0)).expect("shape matches");
    ///     },
    /// );
    /// y.backward().unwrap();
    /// assert_eq!(y.value().data(), &[6.0]);
    /// assert_eq!(x.grad().unwrap().data(), &[4.0]);
    /// ```
    pub fn from_custom_op(
        value: NdArray,
        parents: Vec<Tensor>,
        backward: impl Fn(&NdArray, &[Tensor]) + 'static,
    ) -> Self {
        Self::from_op(value, parents, Box::new(backward))
    }

    fn from_op(value: NdArray, parents: Vec<Tensor>, backward_fn: BackwardFn) -> Self {
        let requires_grad = parents.iter().any(|p| p.requires_grad());
        Tensor {
            node: Rc::new(TensorNode {
                id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
                value: RefCell::new(value),
                grad: RefCell::new(None),
                requires_grad,
                parents,
                backward_fn: if requires_grad {
                    Some(backward_fn)
                } else {
                    None
                },
            }),
        }
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// Unique identifier of this node within the process.
    pub fn id(&self) -> u64 {
        self.node.id
    }

    /// Borrow of the current value.
    ///
    /// # Panics
    ///
    /// Panics if the value is concurrently borrowed mutably (only possible
    /// from within an optimizer update closure).
    pub fn value(&self) -> Ref<'_, NdArray> {
        self.node.value.borrow()
    }

    /// Shape of the current value (cloned to avoid borrow lifetimes).
    pub fn shape(&self) -> Vec<usize> {
        self.node.value.borrow().shape().to_vec()
    }

    /// Whether gradients flow into this tensor.
    pub fn requires_grad(&self) -> bool {
        self.node.requires_grad
    }

    /// A clone of the accumulated gradient, if any.
    pub fn grad(&self) -> Option<NdArray> {
        self.node.grad.borrow().clone()
    }

    /// Borrow of the accumulated gradient, if any.
    ///
    /// # Panics
    ///
    /// Panics if the gradient is concurrently borrowed mutably (only possible
    /// from within an [`Tensor::update_grad`] closure).
    pub fn grad_ref(&self) -> Option<Ref<'_, NdArray>> {
        Ref::filter_map(self.node.grad.borrow(), Option::as_ref).ok()
    }

    /// Applies an in-place mutation to the accumulated gradient, if any
    /// (used by gradient clipping).
    pub fn update_grad(&self, f: impl FnOnce(&mut NdArray)) {
        if let Some(g) = self.node.grad.borrow_mut().as_mut() {
            f(g);
        }
    }

    /// Moves the accumulated gradient out, leaving none behind.
    pub fn take_grad(&self) -> Option<NdArray> {
        self.node.grad.borrow_mut().take()
    }

    /// Clears the accumulated gradient.
    pub fn zero_grad(&self) {
        *self.node.grad.borrow_mut() = None;
    }

    /// Replaces the stored value (used by optimizers).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the new value's shape differs
    /// from the current one.
    pub fn set_value(&self, value: NdArray) -> Result<(), TensorError> {
        let current = self.node.value.borrow().shape().to_vec();
        if current != value.shape() {
            return Err(TensorError::ShapeMismatch {
                op: "set_value",
                lhs: current,
                rhs: value.shape().to_vec(),
            });
        }
        *self.node.value.borrow_mut() = value;
        Ok(())
    }

    /// Applies an in-place mutation to the stored value (used by optimizers).
    pub fn update_value(&self, f: impl FnOnce(&mut NdArray)) {
        f(&mut self.node.value.borrow_mut());
    }

    /// Accumulates an externally computed gradient into this tensor.
    ///
    /// Intended for optimizers and gradient surgery (clipping, masking).
    /// Ignored for tensors that do not require gradients.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `g` has a different shape
    /// from the tensor's value.
    pub fn add_grad(&self, g: &NdArray) -> Result<(), TensorError> {
        let shape = self.node.value.borrow().shape().to_vec();
        if shape != g.shape() {
            return Err(TensorError::ShapeMismatch {
                op: "add_grad",
                lhs: shape,
                rhs: g.shape().to_vec(),
            });
        }
        self.accumulate_grad(g);
        Ok(())
    }

    fn accumulate_grad(&self, g: &NdArray) {
        if !self.node.requires_grad {
            return;
        }
        let mut slot = self.node.grad.borrow_mut();
        match slot.as_mut() {
            Some(existing) => {
                existing
                    .add_assign(g)
                    .expect("gradient shape must match value shape");
            }
            None => *slot = Some(g.clone()),
        }
    }

    // ------------------------------------------------------------------
    // Backward pass
    // ------------------------------------------------------------------

    /// Runs reverse-mode differentiation from this tensor.
    ///
    /// The seed gradient is all-ones (for scalar losses this is the usual
    /// `dL/dL = 1`). Gradients accumulate into every reachable leaf with
    /// `requires_grad`.
    ///
    /// Each interior node's gradient is moved into its backward closure, so
    /// after this returns an interior node's [`Tensor::grad`] (this tensor's
    /// included) is `None`; only leaves keep theirs.
    ///
    /// # Errors
    ///
    /// Currently infallible, but returns `Result` to keep the signature
    /// stable if graph validation is added.
    pub fn backward(&self) -> Result<(), TensorError> {
        let topo = self.topo_order();
        self.accumulate_seed();
        for node in topo.iter().rev() {
            let Some(f) = node.node.backward_fn.as_ref() else {
                continue;
            };
            if let Some(grad) = node.take_grad() {
                f(&grad, &node.node.parents);
            }
        }
        Ok(())
    }

    fn accumulate_seed(&self) {
        let seed = NdArray::ones(self.node.value.borrow().shape());
        // The seed bypasses requires_grad so constants can seed their parents.
        let mut slot = self.node.grad.borrow_mut();
        match slot.as_mut() {
            Some(existing) => existing.add_assign(&seed).expect("seed shape"),
            None => *slot = Some(seed),
        }
    }

    fn topo_order(&self) -> Vec<Tensor> {
        let mut order = Vec::new();
        let mut visited = HashSet::new();
        // Iterative post-order DFS to avoid stack overflow on deep graphs.
        enum Frame {
            Enter(Tensor),
            Exit(Tensor),
        }
        let mut stack = vec![Frame::Enter(self.clone())];
        while let Some(frame) = stack.pop() {
            match frame {
                Frame::Enter(t) => {
                    if !visited.insert(t.id()) {
                        continue;
                    }
                    stack.push(Frame::Exit(t.clone()));
                    for p in &t.node.parents {
                        if !visited.contains(&p.id()) {
                            stack.push(Frame::Enter(p.clone()));
                        }
                    }
                }
                Frame::Exit(t) => order.push(t),
            }
        }
        order
    }

    // ------------------------------------------------------------------
    // Elementwise ops
    // ------------------------------------------------------------------

    /// Elementwise sum. See [`NdArray::add`] for shape requirements.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn add(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        let value = self.value().add(&other.value())?;
        Ok(Tensor::from_op(
            value,
            vec![self.clone(), other.clone()],
            Box::new(|g, parents| {
                parents[0].accumulate_grad(g);
                parents[1].accumulate_grad(g);
            }),
        ))
    }

    /// Elementwise difference.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn sub(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        let value = self.value().sub(&other.value())?;
        Ok(Tensor::from_op(
            value,
            vec![self.clone(), other.clone()],
            Box::new(|g, parents| {
                parents[0].accumulate_grad(g);
                parents[1].accumulate_grad(&g.neg());
            }),
        ))
    }

    /// Elementwise product.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn mul(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        let value = self.value().mul(&other.value())?;
        // Operand values never change before backward, so the closure reads
        // them from the parents instead of keeping copies.
        Ok(Tensor::from_op(
            value,
            vec![self.clone(), other.clone()],
            Box::new(|g, parents| {
                let da = g.mul(&parents[1].value()).expect("mul grad shape");
                parents[0].accumulate_grad(&da);
                let db = g.mul(&parents[0].value()).expect("mul grad shape");
                parents[1].accumulate_grad(&db);
            }),
        ))
    }

    /// Multiplies by a scalar constant.
    pub fn scale(&self, c: f32) -> Tensor {
        let value = self.value().scale(c);
        Tensor::from_op(
            value,
            vec![self.clone()],
            Box::new(move |g, parents| parents[0].accumulate_grad(&g.scale(c))),
        )
    }

    /// Adds a scalar constant.
    pub fn add_scalar(&self, c: f32) -> Tensor {
        let value = self.value().add_scalar(c);
        Tensor::from_op(
            value,
            vec![self.clone()],
            Box::new(|g, parents| parents[0].accumulate_grad(g)),
        )
    }

    /// Elementwise product with a constant mask (no gradient to the mask).
    ///
    /// This implements the paper's gradient masking (§III-C): gradients at
    /// un-sampled pixels are zeroed by the mask on the way back.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the mask shape differs.
    pub fn mul_mask(&self, mask: &NdArray) -> Result<Tensor, TensorError> {
        let value = self.value().mul(mask)?;
        let m = mask.clone();
        Ok(Tensor::from_op(
            value,
            vec![self.clone()],
            Box::new(move |g, parents| {
                parents[0].accumulate_grad(&g.mul(&m).expect("mask grad shape"));
            }),
        ))
    }

    /// Broadcasts a single-element tensor to an arbitrary shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] if `self` has more than one
    /// element.
    pub fn broadcast_to(&self, shape: &[usize]) -> Result<Tensor, TensorError> {
        if self.value().len() != 1 {
            return Err(TensorError::InvalidArgument {
                op: "broadcast_to",
                message: format!("expected single element, got {:?}", self.shape()),
            });
        }
        let v = self.value().data()[0];
        let value = NdArray::full(shape, v);
        Ok(Tensor::from_op(
            value,
            vec![self.clone()],
            Box::new(|g, parents| {
                let total = NdArray::from_vec(vec![g.sum()], &[1]).expect("scalar");
                let pshape = parents[0].shape();
                parents[0].accumulate_grad(&total.reshape(&pshape).expect("reshape scalar"));
            }),
        ))
    }

    /// Adds a length-`n` bias row to every row of an `[m, n]` tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] on rank/length mismatch.
    pub fn add_row(&self, row: &Tensor) -> Result<Tensor, TensorError> {
        let value = self.value().add_row(&row.value())?;
        Ok(Tensor::from_op(
            value,
            vec![self.clone(), row.clone()],
            Box::new(|g, parents| {
                parents[0].accumulate_grad(g);
                parents[1].accumulate_grad(&g.sum_rows().expect("bias grad"));
            }),
        ))
    }

    // ------------------------------------------------------------------
    // Activations
    // ------------------------------------------------------------------

    /// Rectified linear unit.
    pub fn relu(&self) -> Tensor {
        let x = self.value().clone();
        let value = x.map(|v| v.max(0.0));
        Tensor::from_op(
            value,
            vec![self.clone()],
            Box::new(move |g, parents| {
                let dg = g.zip_with(&x, |gv, xv| if xv > 0.0 { gv } else { 0.0 });
                parents[0].accumulate_grad(&dg);
            }),
        )
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&self) -> Tensor {
        let value = self.value().map(crate::array::sigmoid_scalar);
        let y = value.clone();
        Tensor::from_op(
            value,
            vec![self.clone()],
            Box::new(move |g, parents| {
                let dg = g.zip_with(&y, |gv, yv| gv * yv * (1.0 - yv));
                parents[0].accumulate_grad(&dg);
            }),
        )
    }

    /// Hyperbolic tangent.
    pub fn tanh(&self) -> Tensor {
        let value = self.value().map(bliss_parallel::math::tanh_f32);
        let y = value.clone();
        Tensor::from_op(
            value,
            vec![self.clone()],
            Box::new(move |g, parents| {
                let dg = g.zip_with(&y, |gv, yv| gv * (1.0 - yv * yv));
                parents[0].accumulate_grad(&dg);
            }),
        )
    }

    /// Gaussian error linear unit (tanh approximation), as used in ViT MLPs.
    ///
    /// The forward pass keeps the derivative instead of the input, so
    /// backward is one multiply per element.
    pub fn gelu(&self) -> Tensor {
        let x = self.value();
        let mut value = NdArray::zeros(x.shape());
        let mut d = NdArray::zeros(x.shape());
        crate::array::gelu_with_derivative_into(x.data(), value.data_mut(), d.data_mut());
        Tensor::from_op(
            value,
            vec![self.clone()],
            Box::new(move |g, parents| {
                parents[0].accumulate_grad(&g.zip_with(&d, |gv, dv| gv * dv));
            }),
        )
    }

    // ------------------------------------------------------------------
    // Linear algebra
    // ------------------------------------------------------------------

    /// Matrix product; see [`NdArray::matmul`].
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the underlying matmul.
    pub fn matmul(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        let value = self.value().matmul(&other.value())?;
        // Like `mul`, backward reads the operands from the parents.
        Ok(Tensor::from_op(
            value,
            vec![self.clone(), other.clone()],
            Box::new(|g, parents| {
                if parents[0].requires_grad() {
                    // dA = g B^T, without materialising the transpose.
                    let da = g
                        .matmul_transposed(&parents[1].value())
                        .expect("matmul grad a");
                    parents[0].accumulate_grad(&da);
                }
                if parents[1].requires_grad() {
                    let at = parents[0]
                        .value()
                        .transpose()
                        .expect("matmul grad transpose");
                    parents[1].accumulate_grad(&at.matmul(g).expect("matmul grad b"));
                }
            }),
        ))
    }

    /// Matrix transpose.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrix tensors.
    pub fn transpose(&self) -> Result<Tensor, TensorError> {
        let value = self.value().transpose()?;
        Ok(Tensor::from_op(
            value,
            vec![self.clone()],
            Box::new(|g, parents| {
                parents[0].accumulate_grad(&g.transpose().expect("transpose grad"));
            }),
        ))
    }

    /// Reshape preserving element order.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeDataMismatch`] if element counts differ.
    pub fn reshape(&self, shape: &[usize]) -> Result<Tensor, TensorError> {
        let value = self.value().reshape(shape)?;
        let original = self.shape();
        Ok(Tensor::from_op(
            value,
            vec![self.clone()],
            Box::new(move |g, parents| {
                parents[0].accumulate_grad(&g.reshape(&original).expect("reshape grad"));
            }),
        ))
    }

    // ------------------------------------------------------------------
    // Normalisation
    // ------------------------------------------------------------------

    /// Per-row layer normalisation with learnable scale and shift.
    ///
    /// `self` is `[m, n]`; `gamma` and `beta` are `[n]`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] on rank/length mismatch.
    pub fn layer_norm(
        &self,
        gamma: &Tensor,
        beta: &Tensor,
        eps: f32,
    ) -> Result<Tensor, TensorError> {
        let x = self.value().clone();
        if x.ndim() != 2 {
            return Err(TensorError::RankMismatch {
                op: "layer_norm",
                expected: 2,
                actual: x.ndim(),
            });
        }
        let (m, n) = (x.shape()[0], x.shape()[1]);
        let gv = gamma.value().clone();
        let bv = beta.value().clone();
        if gv.shape() != [n] || bv.shape() != [n] {
            return Err(TensorError::ShapeMismatch {
                op: "layer_norm",
                lhs: x.shape().to_vec(),
                rhs: gv.shape().to_vec(),
            });
        }
        let mut out = crate::scratch::take_zeroed(m * n);
        let mut xhat = crate::scratch::take_zeroed(m * n);
        let mut inv_std = crate::scratch::take_zeroed(m);
        for i in 0..m {
            let row = &x.data()[i * n..(i + 1) * n];
            let (mu, istd) = crate::array::layer_norm_row_stats(row, eps);
            inv_std[i] = istd;
            for j in 0..n {
                let xh = (row[j] - mu) * istd;
                xhat[i * n + j] = xh;
                out[i * n + j] = xh * gv.data()[j] + bv.data()[j];
            }
        }
        let value = NdArray::from_vec(out, &[m, n])?;
        let xhat = NdArray::from_vec(xhat, &[m, n])?;
        let inv_std = NdArray::from_vec(inv_std, &[m])?;
        Ok(Tensor::from_op(
            value,
            vec![self.clone(), gamma.clone(), beta.clone()],
            Box::new(move |g, parents| {
                let mut dx = vec![0.0f32; m * n];
                let mut dgamma = vec![0.0f32; n];
                let mut dbeta = vec![0.0f32; n];
                for i in 0..m {
                    let grow = &g.data()[i * n..(i + 1) * n];
                    let xrow = &xhat.data()[i * n..(i + 1) * n];
                    // dL/dxhat = g * gamma
                    let dxhat: Vec<f32> = (0..n).map(|j| grow[j] * gv.data()[j]).collect();
                    let sum_dxhat: f32 = dxhat.iter().sum();
                    let sum_dxhat_xhat: f32 =
                        dxhat.iter().zip(xrow.iter()).map(|(&a, &b)| a * b).sum();
                    for j in 0..n {
                        dgamma[j] += grow[j] * xrow[j];
                        dbeta[j] += grow[j];
                        dx[i * n + j] = inv_std.data()[i] / n as f32
                            * (n as f32 * dxhat[j] - sum_dxhat - xrow[j] * sum_dxhat_xhat);
                    }
                }
                parents[0]
                    .accumulate_grad(&NdArray::from_vec(dx, &[m, n]).expect("layer_norm dx shape"));
                parents[1]
                    .accumulate_grad(&NdArray::from_vec(dgamma, &[n]).expect("layer_norm dgamma"));
                parents[2]
                    .accumulate_grad(&NdArray::from_vec(dbeta, &[n]).expect("layer_norm dbeta"));
            }),
        ))
    }

    // ------------------------------------------------------------------
    // Convolution
    // ------------------------------------------------------------------

    /// 2-D convolution of a `[ic, h, w]` input with weights `[oc, ic, kh, kw]`
    /// and optional bias `[oc]`, producing `[oc, oh, ow]`.
    ///
    /// # Errors
    ///
    /// Returns shape errors if the operands do not line up.
    pub fn conv2d(
        &self,
        weight: &Tensor,
        bias: Option<&Tensor>,
        stride: usize,
        pad: usize,
    ) -> Result<Tensor, TensorError> {
        let x = self.value().clone();
        let w = weight.value().clone();
        if x.ndim() != 3 {
            return Err(TensorError::RankMismatch {
                op: "conv2d",
                expected: 3,
                actual: x.ndim(),
            });
        }
        if w.ndim() != 4 || w.shape()[1] != x.shape()[0] {
            return Err(TensorError::ShapeMismatch {
                op: "conv2d",
                lhs: x.shape().to_vec(),
                rhs: w.shape().to_vec(),
            });
        }
        let (ic, h, win) = (x.shape()[0], x.shape()[1], x.shape()[2]);
        let (oc, kh, kw) = (w.shape()[0], w.shape()[2], w.shape()[3]);
        let (oh, ow) = conv_out_dims(h, win, kh, kw, stride, pad)?;
        let cols = x.im2col(kh, kw, stride, pad)?;
        let w2 = w.reshape(&[oc, ic * kh * kw])?;
        let mut out2 = w2.matmul(&cols)?;
        if let Some(b) = bias {
            let bv = b.value().clone();
            if bv.shape() != [oc] {
                return Err(TensorError::ShapeMismatch {
                    op: "conv2d bias",
                    lhs: vec![oc],
                    rhs: bv.shape().to_vec(),
                });
            }
            for c in 0..oc {
                for v in &mut out2.data_mut()[c * oh * ow..(c + 1) * oh * ow] {
                    *v += bv.data()[c];
                }
            }
        }
        let value = out2.reshape(&[oc, oh, ow])?;
        let mut parents = vec![self.clone(), weight.clone()];
        if let Some(b) = bias {
            parents.push(b.clone());
        }
        let has_bias = bias.is_some();
        Ok(Tensor::from_op(
            value,
            parents,
            Box::new(move |g, parents| {
                let g2 = g.reshape(&[oc, oh * ow]).expect("conv grad reshape");
                if parents[0].requires_grad() {
                    let w2t = w2.transpose().expect("conv w2 transpose");
                    let dcols = w2t.matmul(&g2).expect("conv dcols");
                    let dx = dcols
                        .col2im(ic, h, win, kh, kw, stride, pad)
                        .expect("conv col2im");
                    parents[0].accumulate_grad(&dx);
                }
                if parents[1].requires_grad() {
                    let colst = cols.transpose().expect("conv cols transpose");
                    let dw2 = g2.matmul(&colst).expect("conv dw");
                    let dw = dw2.reshape(&[oc, ic, kh, kw]).expect("conv dw reshape");
                    parents[1].accumulate_grad(&dw);
                }
                if has_bias && parents[2].requires_grad() {
                    let mut db = vec![0.0f32; oc];
                    for c in 0..oc {
                        db[c] = g2.data()[c * oh * ow..(c + 1) * oh * ow].iter().sum();
                    }
                    parents[2]
                        .accumulate_grad(&NdArray::from_vec(db, &[oc]).expect("conv db shape"));
                }
            }),
        ))
    }

    /// Nearest-neighbour 2x upsampling of a `[c, h, w]` tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-CHW tensors.
    pub fn upsample2x(&self) -> Result<Tensor, TensorError> {
        let value = self.value().upsample2x()?;
        Ok(Tensor::from_op(
            value,
            vec![self.clone()],
            Box::new(|g, parents| {
                parents[0].accumulate_grad(&g.block_sum2x().expect("upsample grad"));
            }),
        ))
    }

    // ------------------------------------------------------------------
    // Structural ops
    // ------------------------------------------------------------------

    /// Concatenates rank-2 tensors along the row axis.
    ///
    /// # Errors
    ///
    /// Same conditions as [`NdArray::concat_rows`].
    pub fn concat_rows(parts: &[Tensor]) -> Result<Tensor, TensorError> {
        let values: Vec<_> = parts.iter().map(|p| p.value().clone()).collect();
        let refs: Vec<&NdArray> = values.iter().collect();
        let value = NdArray::concat_rows(&refs)?;
        let row_counts: Vec<usize> = values.iter().map(|v| v.shape()[0]).collect();
        Ok(Tensor::from_op(
            value,
            parts.to_vec(),
            Box::new(move |g, parents| {
                let mut start = 0;
                for (p, &rows) in parents.iter().zip(row_counts.iter()) {
                    let part = g.slice_rows(start, start + rows).expect("concat grad");
                    p.accumulate_grad(&part);
                    start += rows;
                }
            }),
        ))
    }

    /// Gathers rows of a rank-2 tensor by index (duplicates allowed).
    ///
    /// # Errors
    ///
    /// Same conditions as [`NdArray::gather_rows`].
    pub fn gather_rows(&self, indices: &[usize]) -> Result<Tensor, TensorError> {
        let value = self.value().gather_rows(indices)?;
        // Pooled copy: the backward closure holds the indices for the life
        // of the graph, and recycles them when the graph drops.
        let idx = crate::scratch::IndexVec::from_slice(indices);
        let parent_shape = self.shape();
        Ok(Tensor::from_op(
            value,
            vec![self.clone()],
            Box::new(move |g, parents| {
                let n = parent_shape[1];
                let mut dg = NdArray::zeros(&parent_shape);
                for (r, &i) in idx.iter().enumerate() {
                    for j in 0..n {
                        dg.data_mut()[i * n + j] += g.data()[r * n + j];
                    }
                }
                parents[0].accumulate_grad(&dg);
            }),
        ))
    }

    /// Copies rows `[start, end)` of a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Same conditions as [`NdArray::slice_rows`].
    pub fn slice_rows(&self, start: usize, end: usize) -> Result<Tensor, TensorError> {
        let value = self.value().slice_rows(start, end)?;
        let parent_shape = self.shape();
        Ok(Tensor::from_op(
            value,
            vec![self.clone()],
            Box::new(move |g, parents| {
                let n = parent_shape[1];
                let mut dg = NdArray::zeros(&parent_shape);
                dg.data_mut()[start * n..start * n + g.len()].copy_from_slice(g.data());
                parents[0].accumulate_grad(&dg);
            }),
        ))
    }

    // ------------------------------------------------------------------
    // Reductions & losses
    // ------------------------------------------------------------------

    /// Sum of all elements, producing a `[1]` tensor.
    pub fn sum_all(&self) -> Tensor {
        let value = NdArray::from_vec(vec![self.value().sum()], &[1]).expect("scalar");
        let shape = self.shape();
        Tensor::from_op(
            value,
            vec![self.clone()],
            Box::new(move |g, parents| {
                parents[0].accumulate_grad(&NdArray::full(&shape, g.data()[0]));
            }),
        )
    }

    /// Mean of all elements, producing a `[1]` tensor.
    pub fn mean_all(&self) -> Tensor {
        let n = self.value().len().max(1) as f32;
        self.sum_all().scale(1.0 / n)
    }

    /// Mean squared error against a constant target, producing `[1]`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn mse_loss(&self, target: &NdArray) -> Result<Tensor, TensorError> {
        let diff = self.value().sub(target)?;
        let n = diff.len().max(1) as f32;
        let value = NdArray::from_vec(vec![diff.map(|v| v * v).sum() / n], &[1])?;
        let d = diff;
        Ok(Tensor::from_op(
            value,
            vec![self.clone()],
            Box::new(move |g, parents| {
                let c = 2.0 * g.data()[0] / n;
                parents[0].accumulate_grad(&d.scale(c));
            }),
        ))
    }

    /// Weighted softmax cross-entropy over rows of an `[n, c]` logit tensor,
    /// with a per-row weight tensor of shape `[n]`.
    ///
    /// `targets[i]` is the class index of row `i`. The loss is the weighted
    /// mean `L = sum_i w_i * ce_i / C` with `C = max(sum_i w_i, eps)`, a `[1]`
    /// tensor; a row with weight 0 adds nothing to the loss or to the
    /// logits' gradient. Gradients flow into
    /// the logits (scaled by `w_i / C`) and, when the weights require grad,
    /// into the weights (`dL/dw_i = (ce_i - L) / C`, the exact quotient
    /// rule).
    ///
    /// This one op is every segmentation loss in the workspace. With
    /// constant weights it is the plain (all ones) or class-weighted dense
    /// loss. With `w` a soft, differentiable ROI gate it is the paper's
    /// joint-training gradient path (§III-C, Fig. 5): the segmentation loss
    /// back-propagates into the ROI-prediction network, while pixels outside
    /// the random-sampling mask carry zero weight — the "gradient masking"
    /// of unsampled pixels.
    ///
    /// # Errors
    ///
    /// Returns shape errors if `targets`/`weights` do not match the rows, or
    /// [`TensorError::IndexOutOfBounds`] for an out-of-range class index.
    pub fn cross_entropy_rows_gated(
        &self,
        targets: &[usize],
        weights: &Tensor,
    ) -> Result<Tensor, TensorError> {
        let x = self.value().clone();
        if x.ndim() != 2 {
            return Err(TensorError::RankMismatch {
                op: "cross_entropy_rows_gated",
                expected: 2,
                actual: x.ndim(),
            });
        }
        let (n, c) = (x.shape()[0], x.shape()[1]);
        let w = weights.value().clone();
        if targets.len() != n || w.len() != n {
            return Err(TensorError::ShapeMismatch {
                op: "cross_entropy_rows_gated",
                lhs: vec![n],
                rhs: vec![targets.len().max(w.len())],
            });
        }
        for &t in targets {
            if t >= c {
                return Err(TensorError::IndexOutOfBounds {
                    op: "cross_entropy_rows_gated",
                    index: t,
                    bound: c,
                });
            }
        }
        let probs = x.softmax_rows()?;
        let denom = w.data().iter().sum::<f32>().max(1e-6);
        let mut ce = vec![0.0f32; n];
        let mut loss = 0.0f32;
        for (i, &t) in targets.iter().enumerate() {
            ce[i] = -probs.data()[i * c + t].max(1e-12).ln();
            loss += w.data()[i] * ce[i];
        }
        let loss_value = loss / denom;
        let value = NdArray::from_vec(vec![loss_value], &[1])?;
        let tgt = targets.to_vec();
        let w_shape = w.shape().to_vec();
        Ok(Tensor::from_op(
            value,
            vec![self.clone(), weights.clone()],
            Box::new(move |g, parents| {
                let gs = g.data()[0] / denom;
                if parents[0].requires_grad() {
                    let mut dx = probs.clone();
                    for (i, &t) in tgt.iter().enumerate() {
                        let row = &mut dx.data_mut()[i * c..(i + 1) * c];
                        row[t] -= 1.0;
                        for v in row.iter_mut() {
                            *v *= w.data()[i] * gs;
                        }
                    }
                    parents[0].accumulate_grad(&dx);
                }
                if parents[1].requires_grad() {
                    let dw: Vec<f32> = ce.iter().map(|&e| (e - loss_value) * gs).collect();
                    parents[1].accumulate_grad(
                        &NdArray::from_vec(dw, &w_shape).expect("gated ce dw shape"),
                    );
                }
            }),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn arr(data: Vec<f32>, shape: &[usize]) -> NdArray {
        NdArray::from_vec(data, shape).unwrap()
    }

    #[test]
    fn add_backward_accumulates_to_both_parents() {
        let a = Tensor::parameter(arr(vec![1.0, 2.0], &[2]));
        let b = Tensor::parameter(arr(vec![3.0, 4.0], &[2]));
        let c = a.add(&b).unwrap();
        c.backward().unwrap();
        assert_eq!(a.grad().unwrap().data(), &[1.0, 1.0]);
        assert_eq!(b.grad().unwrap().data(), &[1.0, 1.0]);
    }

    #[test]
    fn sub_backward_negates_rhs() {
        let a = Tensor::parameter(arr(vec![1.0], &[1]));
        let b = Tensor::parameter(arr(vec![2.0], &[1]));
        let c = a.sub(&b).unwrap();
        c.backward().unwrap();
        assert_eq!(a.grad().unwrap().data(), &[1.0]);
        assert_eq!(b.grad().unwrap().data(), &[-1.0]);
    }

    #[test]
    fn mul_backward_cross_terms() {
        let a = Tensor::parameter(arr(vec![2.0], &[1]));
        let b = Tensor::parameter(arr(vec![5.0], &[1]));
        a.mul(&b).unwrap().backward().unwrap();
        assert_eq!(a.grad().unwrap().data(), &[5.0]);
        assert_eq!(b.grad().unwrap().data(), &[2.0]);
    }

    #[test]
    fn matmul_gradients_match_manual() {
        // f = sum(A @ B); dA = ones @ B^T, dB = A^T @ ones
        let a = Tensor::parameter(arr(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]));
        let b = Tensor::parameter(arr(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]));
        let f = a.matmul(&b).unwrap().sum_all();
        f.backward().unwrap();
        assert_eq!(a.grad().unwrap().data(), &[11.0, 15.0, 11.0, 15.0]);
        assert_eq!(b.grad().unwrap().data(), &[4.0, 4.0, 6.0, 6.0]);
    }

    #[test]
    fn grad_reuse_accumulates() {
        // y = x + x => dy/dx = 2
        let x = Tensor::parameter(arr(vec![3.0], &[1]));
        let y = x.add(&x).unwrap();
        y.backward().unwrap();
        assert_eq!(x.grad().unwrap().data(), &[2.0]);
    }

    #[test]
    fn diamond_graph_single_visit() {
        // z = (x*x) + (x*x) using two separate mul nodes
        let x = Tensor::parameter(arr(vec![3.0], &[1]));
        let a = x.mul(&x).unwrap();
        let b = x.mul(&x).unwrap();
        let z = a.add(&b).unwrap();
        z.backward().unwrap();
        // dz/dx = 2*2x = 12
        assert_eq!(x.grad().unwrap().data(), &[12.0]);
    }

    #[test]
    fn constants_do_not_accumulate() {
        let x = Tensor::constant(arr(vec![1.0], &[1]));
        let y = x.scale(3.0);
        y.backward().unwrap();
        assert!(x.grad().is_none());
    }

    #[test]
    fn relu_gates_gradient() {
        let x = Tensor::parameter(arr(vec![-1.0, 2.0], &[2]));
        x.relu().sum_all().backward().unwrap();
        assert_eq!(x.grad().unwrap().data(), &[0.0, 1.0]);
    }

    #[test]
    fn sigmoid_value_and_grad() {
        let x = Tensor::parameter(arr(vec![0.0], &[1]));
        let y = x.sigmoid();
        assert!((y.value().data()[0] - 0.5).abs() < 1e-6);
        y.backward().unwrap();
        assert!((x.grad().unwrap().data()[0] - 0.25).abs() < 1e-6);
    }

    #[test]
    fn cross_entropy_matches_manual() {
        // Uniform logits over 4 classes: loss = ln(4)
        let x = Tensor::parameter(NdArray::zeros(&[2, 4]));
        let ones = Tensor::constant(NdArray::ones(&[2]));
        let loss = x.cross_entropy_rows_gated(&[1, 2], &ones).unwrap();
        assert!((loss.value().data()[0] - 4.0f32.ln()).abs() < 1e-5);
        loss.backward().unwrap();
        let g = x.grad().unwrap();
        // gradient: (softmax - onehot)/n = (0.25 - [0|1])/2
        assert!((g.at(0, 0) - 0.125).abs() < 1e-6);
        assert!((g.at(0, 1) + 0.375).abs() < 1e-6);
    }

    #[test]
    fn cross_entropy_zero_weight_rows_are_ignored() {
        let x = Tensor::parameter(arr(vec![5.0, 0.0, 0.0, 5.0], &[2, 2]));
        let w = Tensor::constant(arr(vec![1.0, 0.0], &[2]));
        let loss = x.cross_entropy_rows_gated(&[0, 0], &w).unwrap();
        loss.backward().unwrap();
        let g = x.grad().unwrap();
        assert_eq!(g.at(1, 0), 0.0);
        assert_eq!(g.at(1, 1), 0.0);
        assert!(g.at(0, 1) != 0.0);
    }

    #[test]
    fn cross_entropy_rejects_bad_target() {
        let x = Tensor::parameter(NdArray::zeros(&[1, 3]));
        let ones = Tensor::constant(NdArray::ones(&[1]));
        assert!(x.cross_entropy_rows_gated(&[3], &ones).is_err());
    }

    #[test]
    fn gated_cross_entropy_weight_gradient_quotient_rule() {
        // Two rows with different ce: dL/dw_i = (ce_i - L)/C.
        // Row 0: uniform over 4 -> ce = ln 4. Row 1: confident correct.
        let logits = arr(vec![0.0, 0.0, 0.0, 0.0, 10.0, 0.0, 0.0, 0.0], &[2, 4]);
        let x = Tensor::constant(logits);
        let w = Tensor::parameter(arr(vec![1.0, 1.0], &[2]));
        let loss = x.cross_entropy_rows_gated(&[2, 0], &w).unwrap();
        let l = loss.value().data()[0];
        loss.backward().unwrap();
        let g = w.grad().unwrap();
        let ce0 = (4.0f32).ln();
        assert!((g.data()[0] - (ce0 - l) / 2.0).abs() < 1e-5);
        // increasing weight on the well-classified row lowers the loss
        assert!(g.data()[1] < 0.0);
    }

    #[test]
    fn gated_cross_entropy_gradcheck() {
        let mut rng = StdRng::seed_from_u64(21);
        let logits = NdArray::randn(&mut rng, &[4, 3], 1.0);
        let x = Tensor::parameter(logits);
        let w = Tensor::parameter(arr(vec![0.9, 0.1, 0.5, 1.4], &[4]));
        let report = crate::check_gradients(
            &[x.clone(), w.clone()],
            || x.cross_entropy_rows_gated(&[0, 2, 1, 0], &w),
            1e-3,
            16,
        )
        .unwrap();
        assert!(report.passes(2e-2), "max rel err {}", report.max_rel_error);
    }

    #[test]
    fn mse_loss_value_and_grad() {
        let x = Tensor::parameter(arr(vec![1.0, 3.0], &[2]));
        let t = arr(vec![0.0, 1.0], &[2]);
        let loss = x.mse_loss(&t).unwrap();
        // ((1)^2 + (2)^2)/2 = 2.5
        assert!((loss.value().data()[0] - 2.5).abs() < 1e-6);
        loss.backward().unwrap();
        assert_eq!(x.grad().unwrap().data(), &[1.0, 2.0]);
    }

    #[test]
    fn conv2d_known_output() {
        // 1x1 input channel, 2x2 image, identity-ish kernel
        let x = Tensor::parameter(arr(vec![1.0, 2.0, 3.0, 4.0], &[1, 2, 2]));
        let w = Tensor::parameter(arr(vec![1.0, 0.0, 0.0, 1.0], &[1, 1, 2, 2]));
        let y = x.conv2d(&w, None, 1, 0).unwrap();
        assert_eq!(y.shape(), vec![1, 1, 1]);
        assert_eq!(y.value().data()[0], 5.0); // 1*1 + 4*1
        y.backward().unwrap();
        assert_eq!(x.grad().unwrap().data(), &[1.0, 0.0, 0.0, 1.0]);
        assert_eq!(w.grad().unwrap().data(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn conv2d_bias_grad_is_spatial_sum() {
        let x = Tensor::constant(NdArray::ones(&[1, 3, 3]));
        let w = Tensor::constant(NdArray::zeros(&[2, 1, 1, 1]));
        let b = Tensor::parameter(NdArray::zeros(&[2]));
        let y = x.conv2d(&w, Some(&b), 1, 0).unwrap();
        y.sum_all().backward().unwrap();
        assert_eq!(b.grad().unwrap().data(), &[9.0, 9.0]);
    }

    #[test]
    fn gather_rows_backward_scatters() {
        let x = Tensor::parameter(arr(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]));
        // Row 0 gathered twice: its gradient should be 2.
        let y = x.gather_rows(&[0, 0, 1]).unwrap();
        y.sum_all().backward().unwrap();
        assert_eq!(x.grad().unwrap().data(), &[2.0, 2.0, 1.0, 1.0]);
    }

    #[test]
    fn concat_rows_splits_gradient() {
        let a = Tensor::parameter(NdArray::ones(&[1, 2]));
        let b = Tensor::parameter(NdArray::ones(&[2, 2]));
        let c = Tensor::concat_rows(&[a.clone(), b.clone()]).unwrap();
        assert_eq!(c.shape(), vec![3, 2]);
        c.scale(3.0).sum_all().backward().unwrap();
        assert_eq!(a.grad().unwrap().data(), &[3.0, 3.0]);
        assert_eq!(b.grad().unwrap().shape(), &[2, 2]);
    }

    #[test]
    fn slice_rows_backward_zero_pads() {
        let x = Tensor::parameter(NdArray::ones(&[3, 2]));
        let y = x.slice_rows(1, 2).unwrap();
        y.sum_all().backward().unwrap();
        assert_eq!(x.grad().unwrap().data(), &[0.0, 0.0, 1.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn mul_mask_blocks_gradient() {
        let x = Tensor::parameter(arr(vec![1.0, 2.0], &[2]));
        let mask = arr(vec![0.0, 1.0], &[2]);
        x.mul_mask(&mask).unwrap().sum_all().backward().unwrap();
        assert_eq!(x.grad().unwrap().data(), &[0.0, 1.0]);
    }

    #[test]
    fn broadcast_to_sums_gradient() {
        let x = Tensor::parameter(arr(vec![2.0], &[1]));
        let y = x.broadcast_to(&[2, 3]).unwrap();
        assert_eq!(y.value().data(), &[2.0; 6]);
        y.sum_all().backward().unwrap();
        assert_eq!(x.grad().unwrap().data(), &[6.0]);
    }

    #[test]
    fn layer_norm_output_is_normalised() {
        let x = Tensor::parameter(arr(vec![1.0, 2.0, 3.0, 4.0], &[1, 4]));
        let g = Tensor::parameter(NdArray::ones(&[4]));
        let b = Tensor::parameter(NdArray::zeros(&[4]));
        let y = x.layer_norm(&g, &b, 1e-5).unwrap();
        let v = y.value();
        let mean: f32 = v.data().iter().sum::<f32>() / 4.0;
        let var: f32 = v
            .data()
            .iter()
            .map(|&a| (a - mean) * (a - mean))
            .sum::<f32>()
            / 4.0;
        assert!(mean.abs() < 1e-5);
        assert!((var - 1.0).abs() < 1e-3);
    }

    #[test]
    fn upsample2x_backward_is_block_sum() {
        let x = Tensor::parameter(NdArray::ones(&[1, 2, 2]));
        let y = x.upsample2x().unwrap();
        assert_eq!(y.shape(), vec![1, 4, 4]);
        y.sum_all().backward().unwrap();
        assert_eq!(x.grad().unwrap().data(), &[4.0; 4]);
    }

    #[test]
    fn set_value_validates_shape() {
        let x = Tensor::parameter(NdArray::zeros(&[2]));
        assert!(x.set_value(NdArray::zeros(&[3])).is_err());
        assert!(x.set_value(NdArray::ones(&[2])).is_ok());
        assert_eq!(x.value().data(), &[1.0, 1.0]);
    }

    #[test]
    fn zero_grad_clears() {
        let x = Tensor::parameter(arr(vec![1.0], &[1]));
        x.scale(2.0).backward().unwrap();
        assert!(x.grad().is_some());
        x.zero_grad();
        assert!(x.grad().is_none());
    }

    #[test]
    fn deep_chain_does_not_overflow() {
        let x = Tensor::parameter(arr(vec![1.0], &[1]));
        let mut y = x.clone();
        for _ in 0..5000 {
            y = y.add_scalar(0.0);
        }
        y.backward().unwrap();
        assert_eq!(x.grad().unwrap().data(), &[1.0]);
    }

    #[test]
    fn tensor_debug_nonempty() {
        let x = Tensor::parameter(arr(vec![1.0], &[1]));
        assert!(format!("{x:?}").contains("Tensor"));
    }
}
