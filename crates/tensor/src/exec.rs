//! Arena executor: runs a compiled plan with zero per-call allocations.
//!
//! The final stage of the trace → plan → execute pipeline. An [`ExecPlan`]
//! owns the planner's step schedule, the captured parameter tensors and one
//! flat `f32` arena sized to the plan's working set. [`ExecPlan::execute`]
//! walks the steps, dispatching each to the *same* slice-level kernels the
//! tape ops call (`matmul_into`, `attention_head_into`, `layer_norm_row_stats`
//! …), reading and writing arena offsets — no `NdArray` construction, no
//! `Rc` traffic, no pool lookups, no heap allocation of any size once the
//! plan exists. Sharing the kernel cores (rather than reimplementing them)
//! is what makes planned execution bit-identical to the tape at any thread
//! count: both paths run the exact same floating-point expression trees in
//! the exact same order.
//!
//! # Safety
//!
//! Each step needs `&mut` to its output interval and `&` to its read
//! intervals, all inside the one arena — which safe Rust cannot express.
//! The slices are derived from raw pointers instead; soundness rests on the
//! planner's build-time `assert_disjoint` proof that no step's read interval
//! — an elementwise step's copy source included — overlaps its output
//! interval. Elementwise steps run in place: they read their primary
//! operand from the output slice itself (after the copy source, if any, has
//! been copied into it) and read nothing else from the output range. The
//! `BlockAttention` step additionally hands its output to tasks on several
//! threads; each task writes only its own (span rows, head columns) block,
//! and the builder's span validation makes those blocks disjoint.
//!
//! # Stale-plan protection
//!
//! A plan is only valid for the exact input shapes, index lengths and
//! parameter lengths it was compiled against. [`ExecPlan::execute`]
//! re-validates all three on every call and fails with a loud
//! [`TensorError`] — never undefined behaviour — if a caller (or a cache
//! bug) presents mismatched data. Gather indices are additionally
//! bounds-checked at execution time because their *values* are per-call.
#![allow(unsafe_code)]
#![warn(missing_docs)]

use crate::array::{
    add_row_assign, attention_head_into, conv_out_dims, gather_rows_into, gelu_assign, im2col_into,
    layer_norm_row_stats, matmul_into, sigmoid_scalar, transpose_into,
};
use crate::graph::{GraphBuilder, Op};
use crate::plan::{plan_graph, Operand, Plan, SrcLoc};
use crate::quant::{quant_linear_into, quantize_graph, QuantSpec};
use crate::{Tensor, TensorError};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

/// A compiled, reusable execution plan: step schedule, captured parameters
/// and a pre-sized arena.
///
/// Compile once per (model, shape class) with [`ExecPlan::compile`], then
/// [`ExecPlan::execute`] any number of times. Parameters are captured as
/// live [`Tensor`] references — weight updates (training between serving
/// phases, snapshot restore into the same tensors) are picked up on the
/// next execution without recompiling.
pub struct ExecPlan {
    plan: Plan,
    params: Vec<Tensor>,
    arena: RefCell<Vec<f32>>,
}

impl std::fmt::Debug for ExecPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecPlan")
            .field("steps", &self.plan.steps.len())
            .field("arena_len", &self.plan.arena_len)
            .field("params", &self.params.len())
            .field("outputs", &self.plan.outputs.len())
            .finish()
    }
}

impl ExecPlan {
    /// Compiles a finished graph: plans buffer lifetimes into an arena
    /// layout and allocates the arena (the last allocation this plan ever
    /// performs).
    ///
    /// # Errors
    ///
    /// Propagates planner shape errors; [`TensorError::InvalidArgument`] if
    /// a marked output is a raw input or parameter.
    pub fn compile(graph: GraphBuilder) -> Result<ExecPlan, TensorError> {
        let plan = plan_graph(&graph)?;
        let arena = RefCell::new(vec![0.0; plan.arena_len]);
        Ok(ExecPlan {
            plan,
            params: graph.params,
            arena,
        })
    }

    /// Rewrites the graph under a calibrated [`QuantSpec`] (see
    /// [`crate::quant`]) and compiles the quantised result: every calibrated
    /// weight GEMM runs as one int8 linear step (quantise, exact integer
    /// GEMM, dequantise), everything else — and the training tape — is
    /// untouched.
    ///
    /// # Errors
    ///
    /// Propagates rewrite and planner errors.
    pub fn compile_quantized(
        mut graph: GraphBuilder,
        spec: &QuantSpec,
    ) -> Result<ExecPlan, TensorError> {
        quantize_graph(&mut graph, spec)?;
        Self::compile(graph)
    }

    /// Arena size in `f32` elements — the plan's entire per-execution
    /// working set (soak tests gate on this staying constant).
    pub fn arena_len(&self) -> usize {
        self.plan.arena_len
    }

    /// Number of fused int8 linear steps in the plan (0 for pure-f32
    /// plans) — the differential harness uses this to prove the int8 path
    /// actually runs quantised.
    pub fn num_quantized_matmuls(&self) -> usize {
        self.plan
            .steps
            .iter()
            .filter(|s| matches!(s.op, Op::QuantLinear { .. }))
            .count()
    }

    /// Number of execution steps (aliases compile away and do not count).
    pub fn num_steps(&self) -> usize {
        self.plan.steps.len()
    }

    /// Reads output `i` after an [`ExecPlan::execute`] call. The slice
    /// borrows the arena, so the closure must not re-enter `execute`.
    pub fn with_output<R>(&self, i: usize, f: impl FnOnce(&[f32]) -> R) -> R {
        let arena = self.arena.borrow();
        let o = &self.plan.outputs[i];
        f(&arena[o.off..o.off + o.len])
    }

    /// Validates the call against the plan's compile-time contract; every
    /// failure is a loud error (stale-plan protection, never UB).
    fn validate(&self, inputs: &[&[f32]], index_inputs: &[&[usize]]) -> Result<(), TensorError> {
        if inputs.len() != self.plan.input_shapes.len() {
            return Err(TensorError::InvalidArgument {
                op: "exec_plan",
                message: format!(
                    "plan expects {} inputs, got {}",
                    self.plan.input_shapes.len(),
                    inputs.len()
                ),
            });
        }
        for (slot, (input, shape)) in inputs.iter().zip(&self.plan.input_shapes).enumerate() {
            let want: usize = shape.iter().product();
            if input.len() != want {
                return Err(TensorError::InvalidArgument {
                    op: "exec_plan",
                    message: format!(
                        "input {slot}: plan was compiled for shape {shape:?} ({want} elements), \
                         got {} elements — stale plan for this shape class",
                        input.len()
                    ),
                });
            }
        }
        if index_inputs.len() != self.plan.index_input_lens.len() {
            return Err(TensorError::InvalidArgument {
                op: "exec_plan",
                message: format!(
                    "plan expects {} index inputs, got {}",
                    self.plan.index_input_lens.len(),
                    index_inputs.len()
                ),
            });
        }
        for (slot, (idx, &want)) in index_inputs
            .iter()
            .zip(&self.plan.index_input_lens)
            .enumerate()
        {
            if idx.len() != want {
                return Err(TensorError::InvalidArgument {
                    op: "exec_plan",
                    message: format!(
                        "index input {slot}: plan was compiled for {want} indices, got {} — \
                         stale plan for this shape class",
                        idx.len()
                    ),
                });
            }
        }
        for (slot, (param, &want)) in self.params.iter().zip(&self.plan.param_lens).enumerate() {
            let got = param.value().data().len();
            if got != want {
                return Err(TensorError::InvalidArgument {
                    op: "exec_plan",
                    message: format!(
                        "parameter {slot}: plan was compiled for {want} elements, got {got}"
                    ),
                });
            }
        }
        Ok(())
    }

    /// Resolves a read operand to a slice for the duration of `f`.
    ///
    /// `arena` is the borrowed arena's base pointer; parameter operands
    /// borrow the tensor's value cell for the closure's duration only.
    fn with_src<R>(
        &self,
        o: &Operand,
        inputs: &[&[f32]],
        arena: *const f32,
        f: impl FnOnce(&[f32]) -> R,
    ) -> R {
        let len = o.len();
        match o.loc {
            SrcLoc::Arena(off) => {
                // SAFETY: `off + len` lies within the arena (planner
                // layout), and the planner asserted at build time that this
                // read interval is disjoint from the step's output interval,
                // the only `&mut` slice alive here.
                let s = unsafe { std::slice::from_raw_parts(arena.add(off), len) };
                f(s)
            }
            SrcLoc::Input { slot, off } => f(&inputs[slot][off..off + len]),
            SrcLoc::Param { slot, off } => {
                let v = self.params[slot].value();
                f(&v.data()[off..off + len])
            }
        }
    }

    /// Executes the plan: `inputs` and `index_inputs` bind positionally to
    /// the graph's declarations; outputs are then readable through
    /// [`ExecPlan::with_output`]. Performs **zero** heap allocations.
    ///
    /// # Errors
    ///
    /// [`TensorError::InvalidArgument`] when the call does not match the
    /// plan's compiled shapes (see the module docs on stale-plan
    /// protection); [`TensorError::IndexOutOfBounds`] for out-of-range
    /// gather indices.
    ///
    /// # Panics
    ///
    /// Panics (`RefCell` borrow) if called re-entrantly from a
    /// [`ExecPlan::with_output`] closure.
    pub fn execute(&self, inputs: &[&[f32]], index_inputs: &[&[usize]]) -> Result<(), TensorError> {
        self.validate(inputs, index_inputs)?;
        let mut arena_ref = self.arena.borrow_mut();
        let arena = &mut **arena_ref;
        let base = arena.as_mut_ptr();

        for step in &self.plan.steps {
            // SAFETY: the output interval lies within the arena (planner
            // layout); all read slices derived below are build-time-proved
            // disjoint from it, and `arena` itself is not touched while
            // these raw-derived slices are alive.
            let out =
                unsafe { std::slice::from_raw_parts_mut(base.add(step.out_off), step.out_len) };
            if let Some(src) = step.copy_source() {
                self.with_src(src, inputs, base, |s| out.copy_from_slice(s));
            }
            match &step.op {
                Op::Input { .. } | Op::Param { .. } | Op::Reshape { .. } | Op::SliceRows { .. } => {
                    unreachable!("sources and aliases emit no step")
                }
                Op::MatMul { a, b } => {
                    let (k, n) = (a.shape[1], b.shape[1]);
                    self.with_src(a, inputs, base, |av| {
                        self.with_src(b, inputs, base, |bv| matmul_into(av, bv, k, n, out))
                    });
                }
                Op::Add { b, .. } => {
                    self.with_src(b, inputs, base, |bv| {
                        for (o, &y) in out.iter_mut().zip(bv) {
                            *o += y;
                        }
                    });
                }
                Op::AddRow { row, .. } => {
                    self.with_src(row, inputs, base, |rv| add_row_assign(out, rv));
                }
                Op::AddColBias { bias, .. } => {
                    self.with_src(bias, inputs, base, |bv| add_col_bias(out, bv));
                }
                Op::Scale { factor, .. } => {
                    for o in out.iter_mut() {
                        *o *= factor;
                    }
                }
                Op::Relu { .. } => {
                    for o in out.iter_mut() {
                        *o = o.max(0.0);
                    }
                }
                Op::Sigmoid { .. } => {
                    for o in out.iter_mut() {
                        *o = sigmoid_scalar(*o);
                    }
                }
                Op::Gelu { .. } => gelu_assign(out),
                Op::LayerNorm {
                    a,
                    gamma,
                    beta,
                    eps,
                } => {
                    let n = a.shape[1];
                    self.with_src(a, inputs, base, |av| {
                        self.with_src(gamma, inputs, base, |gv| {
                            self.with_src(beta, inputs, base, |bv| {
                                for i in 0..av.len() / n.max(1) {
                                    let row = &av[i * n..(i + 1) * n];
                                    let (mu, istd) = layer_norm_row_stats(row, *eps);
                                    let orow = &mut out[i * n..(i + 1) * n];
                                    for j in 0..n {
                                        let xh = (row[j] - mu) * istd;
                                        orow[j] = xh * gv[j] + bv[j];
                                    }
                                }
                            })
                        })
                    });
                }
                Op::Transpose { a } => {
                    let (rows, cols) = (a.shape[0], a.shape[1]);
                    self.with_src(a, inputs, base, |av| transpose_into(av, rows, cols, out));
                }
                Op::ConcatRows { parts } | Op::ConcatFlat { parts } => {
                    let mut cursor = 0;
                    for p in parts {
                        self.with_src(p, inputs, base, |s| {
                            out[cursor..cursor + s.len()].copy_from_slice(s);
                            cursor += s.len();
                        });
                    }
                }
                Op::ConcatCols { parts } => {
                    let rows = parts[0].shape[0];
                    let total = out.len().checked_div(rows).unwrap_or(0);
                    let mut col = 0;
                    for p in parts {
                        let cols = p.shape[1];
                        self.with_src(p, inputs, base, |s| {
                            for r in 0..rows {
                                out[r * total + col..r * total + col + cols]
                                    .copy_from_slice(&s[r * cols..(r + 1) * cols]);
                            }
                        });
                        col += cols;
                    }
                }
                Op::Im2Col {
                    a,
                    kh,
                    kw,
                    stride,
                    pad,
                } => {
                    let (h, w) = (a.shape[1], a.shape[2]);
                    let (oh, ow) = conv_out_dims(h, w, *kh, *kw, *stride, *pad)?;
                    self.with_src(a, inputs, base, |av| {
                        im2col_into(av, h, w, *kh, *kw, *stride, *pad, oh, ow, out);
                    });
                }
                Op::GatherRows { a, indices } => {
                    let (rows, cols) = (a.shape[0], a.shape[1]);
                    self.with_src(a, inputs, base, |av| {
                        gather_rows_into(av, rows, cols, index_inputs[indices.0], out)
                    })?;
                }
                Op::BlockAttention {
                    qkv,
                    spans,
                    heads,
                    scale,
                } => {
                    let dim = qkv.shape[1] / 3;
                    self.with_src(qkv, inputs, base, |qv| {
                        block_attention(qv, dim, spans, *heads, *scale, out)
                    });
                }
                Op::QuantLinear {
                    a,
                    inv_scale,
                    weights,
                    scales,
                } => {
                    self.with_src(a, inputs, base, |av| {
                        quant_linear_into(av, *inv_scale, weights, scales, out)
                    });
                }
            }
        }
        Ok(())
    }
}

/// A `BlockAttention` step's output, shared by its tasks as a raw pointer
/// because each task writes a strided block (its span's rows, its head's
/// columns) that no safe slice split can hand out.
#[derive(Clone, Copy)]
struct HeadBlocks<'a> {
    ptr: *mut f32,
    len: usize,
    _out: std::marker::PhantomData<&'a mut [f32]>,
}

impl<'a> HeadBlocks<'a> {
    fn new(out: &'a mut [f32]) -> Self {
        HeadBlocks {
            ptr: out.as_mut_ptr(),
            len: out.len(),
            _out: std::marker::PhantomData,
        }
    }

    /// The `len` output elements from `off`.
    ///
    /// # Safety
    ///
    /// No other live reference may touch them while the slice lives.
    unsafe fn slice(self, off: usize, len: usize) -> &'a mut [f32] {
        assert!(off + len <= self.len, "attention output out of range");
        // SAFETY: in bounds by the assert, within the buffer borrowed for
        // 'a; exclusive by the caller's contract.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(off), len) }
    }
}

// SAFETY: the tasks sharing a `HeadBlocks` write pairwise disjoint element
// sets (see `block_attention`), and the buffer stays mutably borrowed, so
// untouched by anyone else, until the region has joined.
unsafe impl Sync for HeadBlocks<'_> {}

/// Runs block-diagonal attention: `qkv` is `[rows, 3*dim]` with columns
/// `[q_0..q_H | k_0..k_H | v_0..v_H]`, `out` is `[rows, dim]`.
///
/// One task per (head, span) pair, spread over the pool head-major so a
/// share of consecutive tasks mixes span sizes. A task gathers its head's
/// q/k/v columns for its span into the thread's task workspace, runs
/// [`attention_head_into`] on them serially (the tape's per-head kernel,
/// so the bits match the tape), and copies the result into its head's
/// columns of the span's rows.
fn block_attention(
    qkv: &[f32],
    dim: usize,
    spans: &[(usize, usize)],
    heads: usize,
    scale: f32,
    out: &mut [f32],
) {
    let hd = dim / heads;
    let width = 3 * dim;
    let blocks = HeadBlocks::new(out);
    // Average per-task work: two GEMMs and a softmax over n x n scores.
    let work: usize = spans
        .iter()
        .map(|&(s, e)| (e - s) * (e - s) * (2 * hd + 8))
        .sum();
    let cost = work / spans.len().max(1);
    // Zero-sized task slots: a `Vec<()>` never allocates.
    let mut tasks = vec![(); heads * spans.len()];
    bliss_parallel::par_chunks(&mut tasks, 1, cost, |t, _| {
        let (h, (s, e)) = (t / spans.len(), spans[t % spans.len()]);
        let n = e - s;
        let blk = n * hd;
        crate::workspace::with_task_buf(4 * blk + 2 * n * n, |ws| {
            let (q, ws) = ws.split_at_mut(blk);
            let (k, ws) = ws.split_at_mut(blk);
            let (v, ws) = ws.split_at_mut(blk);
            let (o, ws) = ws.split_at_mut(blk);
            let (scores, attn) = ws.split_at_mut(n * n);
            for r in 0..n {
                let row = &qkv[(s + r) * width..(s + r + 1) * width];
                let c = h * hd;
                q[r * hd..(r + 1) * hd].copy_from_slice(&row[c..c + hd]);
                k[r * hd..(r + 1) * hd].copy_from_slice(&row[dim + c..dim + c + hd]);
                v[r * hd..(r + 1) * hd].copy_from_slice(&row[2 * dim + c..2 * dim + c + hd]);
            }
            attention_head_into(q, k, v, hd, scale, scores, attn, o);
            for r in 0..n {
                // SAFETY: row `s + r` lies in span `(s, e)` and columns
                // `h*hd..(h+1)*hd` belong to head `h`; spans are disjoint
                // (validated when the op was built), so no other task
                // writes these elements, and no one reads `out` until every
                // task has finished.
                let dst = unsafe { blocks.slice((s + r) * dim + h * hd, hd) };
                dst.copy_from_slice(&o[r * hd..(r + 1) * hd]);
            }
        });
    });
}

/// Per-row scalar bias add of the conv-bias arm (one bias per row of
/// `out`); matches the tape's serial per-channel loop exactly.
fn add_col_bias(out: &mut [f32], bias: &[f32]) {
    if bias.is_empty() {
        return;
    }
    let w = out.len() / bias.len();
    for (c, &bv) in bias.iter().enumerate() {
        for v in &mut out[c * w..(c + 1) * w] {
            *v += bv;
        }
    }
}

// ----------------------------------------------------------------------
// Inference mode
// ----------------------------------------------------------------------

thread_local! {
    static INFERENCE: Cell<bool> = const { Cell::new(false) };
}

/// Runs `f` with planned-inference mode enabled on this thread.
///
/// Network forward passes that support planned execution (the sparse ViT's
/// batched forward, the ROI net's inference call) check
/// [`in_inference_mode`] and route through their compiled plan instead of
/// the autograd tape. The flag is thread-local and restored on exit (also
/// on panic), so training code on the same thread — or other threads — is
/// unaffected.
pub fn inference_mode<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            INFERENCE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(INFERENCE.with(|c| c.replace(true)));
    f()
}

/// Whether the current thread is inside an [`inference_mode`] scope.
pub fn in_inference_mode() -> bool {
    INFERENCE.with(Cell::get)
}

// ----------------------------------------------------------------------
// Plan cache
// ----------------------------------------------------------------------

/// Point-in-time [`PlanCache`] occupancy and traffic counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanCacheStats {
    /// Lookups served by an existing plan.
    pub hits: u64,
    /// Lookups that compiled a new plan.
    pub misses: u64,
    /// Plans evicted by the FIFO bound since the cache was created.
    pub evictions: u64,
    /// Plans currently cached.
    pub plans: usize,
    /// Total arena elements retained across cached plans — the soak gauge
    /// for arena growth (must go flat once the shape classes have been
    /// seen).
    pub arena_elems: usize,
}

/// Maximum plans a [`PlanCache`] retains before evicting the oldest.
pub const MAX_CACHED_PLANS: usize = 1024;
/// Maximum total arena elements a [`PlanCache`] retains across its plans
/// (~256 MiB of `f32` at the cap) before evicting the oldest.
pub const MAX_CACHED_ARENA_ELEMS: usize = 64 << 20;

/// Cache of compiled plans keyed by shape class.
///
/// The key is the caller's shape-class fingerprint (for the sparse ViT: the
/// batch's per-frame token counts). A key seen before returns the cached
/// plan without allocating — the probe borrows the caller's key slice; a
/// new key compiles, stores and returns a fresh plan ("invalidation" is
/// therefore per shape class: old plans stay valid for their own class and
/// are never executed against another, which [`ExecPlan::execute`]'s
/// validation enforces independently).
///
/// The cache is **bounded**: at most [`MAX_CACHED_PLANS`] plans and
/// [`MAX_CACHED_ARENA_ELEMS`] total arena elements, enforced by
/// deterministic FIFO eviction (insertion order, so results cannot depend
/// on timing or thread count). Long-horizon serving under layout-rotating
/// load therefore holds plan memory flat; an evicted layout simply
/// recompiles on next sight. Plans handed out earlier stay alive through
/// their own `Rc` until their users drop them.
#[derive(Default)]
pub struct PlanCache {
    plans: HashMap<Vec<usize>, Rc<ExecPlan>>,
    /// Insertion order of the keys in `plans` (the FIFO eviction queue).
    order: std::collections::VecDeque<Vec<usize>>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanCache")
            .field("stats", &self.stats())
            .finish()
    }
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the plan for `key`, compiling it with `build` on first
    /// sight. The hot path (hit) performs no allocation.
    ///
    /// # Errors
    ///
    /// Propagates `build` errors; nothing is cached on failure.
    pub fn get_or_build(
        &mut self,
        key: &[usize],
        build: impl FnOnce() -> Result<ExecPlan, TensorError>,
    ) -> Result<Rc<ExecPlan>, TensorError> {
        if let Some(plan) = self.plans.get(key) {
            self.hits += 1;
            return Ok(plan.clone());
        }
        self.misses += 1;
        let plan = Rc::new(build()?);
        // Bound the cache before admitting the new plan: FIFO over the
        // insertion order, so eviction is deterministic and independent of
        // hit patterns, timing or thread count. Misses are already the
        // slow (compiling) path, so the O(plans) arena sum is immaterial.
        let mut arena_total: usize =
            self.plans.values().map(|p| p.arena_len()).sum::<usize>() + plan.arena_len();
        while !self.plans.is_empty()
            && (self.plans.len() >= MAX_CACHED_PLANS || arena_total > MAX_CACHED_ARENA_ELEMS)
        {
            let oldest = self.order.pop_front().expect("order mirrors plans");
            let evicted = self.plans.remove(&oldest).expect("order mirrors plans");
            arena_total -= evicted.arena_len();
            self.evictions += 1;
        }
        self.order.push_back(key.to_vec());
        self.plans.insert(key.to_vec(), plan.clone());
        Ok(plan)
    }

    /// Drops every cached plan (used on weight-shape changes; weight
    /// *value* changes need no invalidation — plans read live tensors).
    pub fn clear(&mut self) {
        self.plans.clear();
        self.order.clear();
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.plans.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.plans.is_empty()
    }

    /// Traffic and occupancy counters.
    pub fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            plans: self.plans.len(),
            arena_elems: self.plans.values().map(|p| p.arena_len()).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::NodeId;
    use crate::NdArray;

    fn nd(data: &[f32], shape: &[usize]) -> NdArray {
        NdArray::from_vec(data.to_vec(), shape).unwrap()
    }

    #[test]
    fn linear_relu_graph_matches_tape_bitwise() {
        let x = nd(&[0.5, -1.0, 2.0, 0.25, 3.0, -0.75], &[2, 3]);
        let w = Tensor::parameter(nd(
            &[
                0.1, -0.2, 0.3, 0.4, -0.5, 0.6, 0.7, -0.8, 0.9, 1.0, -1.1, 1.2,
            ],
            &[3, 4],
        ));
        let bias = Tensor::parameter(nd(&[0.01, -0.02, 0.03, -0.04], &[4]));

        let mut g = GraphBuilder::new();
        let xi = g.input(&[2, 3]);
        let wn = g.param(&w);
        let bn = g.param(&bias);
        let mm = g.matmul(xi, wn).unwrap();
        let biased = g.add_row(mm, bn).unwrap();
        let out = g.relu(biased);
        g.mark_output(out);
        let plan = ExecPlan::compile(g).unwrap();

        let xt = Tensor::constant(x.clone());
        let tape = xt.matmul(&w).unwrap().add_row(&bias).unwrap().relu();

        plan.execute(&[x.data()], &[]).unwrap();
        plan.with_output(0, |planned| {
            assert_eq!(planned, tape.value().data(), "planned != tape bitwise");
        });
        plan.with_output(0, |planned| assert_eq!(planned.len(), 2 * 4));
    }

    #[test]
    fn attention_style_graph_matches_ndarray_reference() {
        // q k^t -> scale -> softmax -> *v as one block-attention step over a
        // row-slice alias of the fused [q | k | v] input.
        let q = nd(
            &(0..12).map(|i| i as f32 * 0.3 - 1.0).collect::<Vec<_>>(),
            &[4, 3],
        );
        let k = nd(
            &(0..12).map(|i| (i as f32).sin()).collect::<Vec<_>>(),
            &[4, 3],
        );
        let v = nd(
            &(0..12).map(|i| (i as f32).cos()).collect::<Vec<_>>(),
            &[4, 3],
        );
        let qkv = NdArray::concat_cols(&[&q, &k, &v]).unwrap();

        let mut g = GraphBuilder::new();
        let qkv_in = g.input(&[4, 9]);
        let rows = g.slice_rows(qkv_in, 1, 3).unwrap();
        let out = g.block_attention(rows, &[(0, 2)], 1, 0.57735).unwrap();
        g.mark_output(out);
        let plan = ExecPlan::compile(g).unwrap();
        plan.execute(&[qkv.data()], &[]).unwrap();

        let qs = q.slice_rows(1, 3).unwrap();
        let ks = k.slice_rows(1, 3).unwrap();
        let vs = v.slice_rows(1, 3).unwrap();
        let reference = qs
            .matmul_transposed(&ks)
            .unwrap()
            .scale(0.57735)
            .softmax_rows()
            .unwrap()
            .matmul(&vs)
            .unwrap();
        plan.with_output(0, |planned| {
            assert_eq!(planned, reference.data());
        });
    }

    #[test]
    fn aliases_compile_away_and_in_place_reuses_buffers() {
        let mut g = GraphBuilder::new();
        let x = g.input(&[2, 4]);
        let a = g.scale(x, 2.0); // copies its input operand in first
        let b = g.relu(a); // in place: a dies here
        let c = g.reshape(b, &[4, 2]).unwrap(); // alias: no step
        let d = g.gelu(c); // in place again
        g.mark_output(d);
        let plan = ExecPlan::compile(g).unwrap();
        assert_eq!(plan.num_steps(), 3, "reshape must not emit a step");
        assert_eq!(
            plan.arena_len(),
            8,
            "chain of dying elementwise ops must reuse one buffer"
        );

        let x = nd(&[-1.0, 0.5, 2.0, -0.25, 1.5, -3.0, 0.0, 4.0], &[2, 4]);
        plan.execute(&[x.data()], &[]).unwrap();
        let reference = x
            .scale(2.0)
            .map(|v| v.max(0.0))
            .map(crate::array::gelu_scalar);
        plan.with_output(0, |planned| assert_eq!(planned, reference.data()));
    }

    #[test]
    fn elementwise_steps_match_reference_when_taken_over_or_copied() {
        let x = nd(&[-1.5, 0.5, 2.0, -0.25, 1.5, -3.0, 0.0, 4.0], &[2, 4]);
        let other = Tensor::parameter(nd(&[0.1, -0.2, 0.3, -0.4, 0.5, -0.6, 0.7, -0.8], &[2, 4]));
        let row = Tensor::parameter(nd(&[0.25, -0.5, 0.75, -1.0], &[4]));
        let bias = Tensor::parameter(nd(&[-0.125, 0.375], &[2]));
        let x_param = Tensor::parameter(x.clone());

        // Each elementwise graph op on `a`, and its NdArray reference.
        let apply = |g: &mut GraphBuilder, name: &str, a: NodeId, side: [NodeId; 3]| match name {
            "add" => g.add(a, side[0]).unwrap(),
            "add_row" => g.add_row(a, side[1]).unwrap(),
            "add_col_bias" => g.add_col_bias(a, side[2]).unwrap(),
            "scale" => g.scale(a, -0.75),
            "relu" => g.relu(a),
            "sigmoid" => g.sigmoid(a),
            "gelu" => g.gelu(a),
            _ => unreachable!(),
        };
        let reference = |name: &str, a: &NdArray| -> NdArray {
            match name {
                "add" => a.add(&other.value()).unwrap(),
                "add_row" => a.add_row(&row.value()).unwrap(),
                "add_col_bias" => a
                    .transpose()
                    .unwrap()
                    .add_row(&bias.value())
                    .unwrap()
                    .transpose()
                    .unwrap(),
                "scale" => a.scale(-0.75),
                "relu" => a.map(|v| v.max(0.0)),
                "sigmoid" => a.map(crate::array::sigmoid_scalar),
                "gelu" => a.map(crate::array::gelu_scalar),
                _ => unreachable!(),
            }
        };

        // (placement, steps, arena_len, copy source on the op's step)
        let placements = [
            ("dying node", 2, 8, false),
            ("graph input", 1, 8, true),
            ("parameter", 1, 8, true),
            ("node used later", 3, 16, true),
        ];
        let ops = [
            "add",
            "add_row",
            "add_col_bias",
            "scale",
            "relu",
            "sigmoid",
            "gelu",
        ];
        for name in ops {
            for (placement, steps, arena_len, copied) in placements {
                let mut g = GraphBuilder::new();
                let xi = g.input(&[2, 4]);
                let side = [g.param(&other), g.param(&row), g.param(&bias)];
                let (out, op_step) = match placement {
                    "dying node" => {
                        let a = g.concat_rows(&[xi]).unwrap();
                        (apply(&mut g, name, a, side), 1)
                    }
                    "graph input" => (apply(&mut g, name, xi, side), 0),
                    "parameter" => {
                        let a = g.param(&x_param);
                        (apply(&mut g, name, a, side), 0)
                    }
                    _ => {
                        let a = g.concat_rows(&[xi]).unwrap();
                        let y = apply(&mut g, name, a, side);
                        (g.add(y, a).unwrap(), 1)
                    }
                };
                g.mark_output(out);
                let plan = ExecPlan::compile(g).unwrap();
                let what = format!("{name} on a {placement}");
                assert_eq!(plan.num_steps(), steps, "{what}");
                assert_eq!(plan.arena_len(), arena_len, "{what}");
                assert_eq!(
                    plan.plan.steps[op_step].copy_source().is_some(),
                    copied,
                    "{what}"
                );

                plan.execute(&[x.data()], &[]).unwrap();
                let mut want = reference(name, &x);
                if placement == "node used later" {
                    want = want.add(&x).unwrap();
                }
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                plan.with_output(0, |got| assert_eq!(bits(got), bits(want.data()), "{what}"));
            }
        }
    }

    #[test]
    fn multi_use_operand_is_not_overwritten() {
        // x feeds both branches; the residual add must see the original x.
        let mut g = GraphBuilder::new();
        let x = g.input(&[2, 2]);
        let a = g.scale(x, 3.0);
        let r = g.relu(a); // a dies -> in place is fine
        let out = g.add(x, r).unwrap();
        g.mark_output(out);
        let plan = ExecPlan::compile(g).unwrap();

        let x = nd(&[1.0, -2.0, 3.0, -4.0], &[2, 2]);
        plan.execute(&[x.data()], &[]).unwrap();
        let reference = x.add(&x.scale(3.0).map(|v| v.max(0.0))).unwrap();
        plan.with_output(0, |planned| assert_eq!(planned, reference.data()));
    }

    #[test]
    fn gather_and_concats_match_reference() {
        let table = Tensor::parameter(nd(
            &(0..15).map(|i| i as f32 * 0.5).collect::<Vec<_>>(),
            &[5, 3],
        ));
        let mut g = GraphBuilder::new();
        let t = g.param(&table);
        let idx = g.index_input(4);
        let gathered = g.gather_rows(t, idx).unwrap(); // [4, 3]
        let top = g.slice_rows(t, 0, 4).unwrap(); // [4, 3], an alias
        let joined = g.concat_cols(&[gathered, top]).unwrap(); // [4, 6]
        let stacked = g.concat_rows(&[joined, joined]).unwrap(); // [8, 6]
        g.mark_output(stacked);
        let plan = ExecPlan::compile(g).unwrap();

        let indices = [4usize, 0, 2, 2];
        plan.execute(&[], &[&indices]).unwrap();

        let gath = table.value().gather_rows(&indices).unwrap();
        let top = table.value().slice_rows(0, 4).unwrap();
        let joined = NdArray::concat_cols(&[&gath, &top]).unwrap();
        let reference = NdArray::concat_rows(&[&joined, &joined]).unwrap();
        plan.with_output(0, |planned| assert_eq!(planned, reference.data()));
    }

    #[test]
    fn nodes_no_output_reads_plan_no_step_and_no_arena() {
        let w = Tensor::parameter(nd(&[0.5, -1.0, 0.25, 2.0, -0.75, 1.5], &[3, 2]));
        let build = |dead_branch: bool| {
            let mut g = GraphBuilder::new();
            let x = g.input(&[4, 3]);
            let wn = g.param(&w);
            let y = g.matmul(x, wn).unwrap();
            if dead_branch {
                // Reads live buffers but feeds no output.
                let t = g.transpose(y).unwrap();
                let big = g.concat_rows(&[x, x, x]).unwrap();
                let _ = g.matmul(big, wn).unwrap();
                let _ = g.relu(t);
            }
            let out = g.gelu(y);
            g.mark_output(out);
            ExecPlan::compile(g).unwrap()
        };
        let (lean, with_dead) = (build(false), build(true));
        assert_eq!(with_dead.num_steps(), lean.num_steps());
        assert_eq!(with_dead.num_steps(), 2);
        assert_eq!(with_dead.arena_len(), lean.arena_len());
        assert_eq!(with_dead.arena_len(), 4 * 2);

        let x: Vec<f32> = (0..12).map(|i| (i as f32 * 0.7).sin() * 2.0).collect();
        let bits = |plan: &ExecPlan| {
            plan.execute(&[&x], &[]).unwrap();
            plan.with_output(0, |o| o.iter().map(|v| v.to_bits()).collect::<Vec<_>>())
        };
        assert_eq!(bits(&with_dead), bits(&lean));
    }

    #[test]
    fn stale_shapes_fail_loudly() {
        let mut g = GraphBuilder::new();
        let x = g.input(&[2, 3]);
        let y = g.scale(x, 1.0);
        g.mark_output(y);
        let plan = ExecPlan::compile(g).unwrap();

        let wrong = [0.0f32; 4];
        let err = plan.execute(&[&wrong], &[]).unwrap_err();
        assert!(matches!(err, TensorError::InvalidArgument { .. }));
        assert!(err.to_string().contains("stale plan"), "{err}");

        let err = plan.execute(&[], &[]).unwrap_err();
        assert!(matches!(err, TensorError::InvalidArgument { .. }));
    }

    #[test]
    fn gather_indices_are_bounds_checked_per_call() {
        let table = Tensor::parameter(nd(&[1.0, 2.0, 3.0, 4.0], &[2, 2]));
        let mut g = GraphBuilder::new();
        let t = g.param(&table);
        let idx = g.index_input(1);
        let out = g.gather_rows(t, idx).unwrap();
        g.mark_output(out);
        let plan = ExecPlan::compile(g).unwrap();

        plan.execute(&[], &[&[1usize]]).unwrap();
        let err = plan.execute(&[], &[&[2usize]]).unwrap_err();
        assert!(matches!(err, TensorError::IndexOutOfBounds { .. }));
    }

    #[test]
    fn raw_outputs_are_rejected_at_compile_time() {
        let w = Tensor::parameter(nd(&[1.0], &[1, 1]));
        let mut g = GraphBuilder::new();
        let p = g.param(&w);
        g.mark_output(p);
        let err = ExecPlan::compile(g).unwrap_err();
        assert!(matches!(err, TensorError::InvalidArgument { .. }));
    }

    #[test]
    fn parameter_updates_flow_into_existing_plans() {
        let w = Tensor::parameter(nd(&[2.0, 0.0, 0.0, 2.0], &[2, 2]));
        let mut g = GraphBuilder::new();
        let x = g.input(&[1, 2]);
        let wn = g.param(&w);
        let y = g.matmul(x, wn).unwrap();
        g.mark_output(y);
        let plan = ExecPlan::compile(g).unwrap();

        let x = [1.0f32, 1.0];
        plan.execute(&[&x], &[]).unwrap();
        plan.with_output(0, |o| assert_eq!(o, &[2.0, 2.0]));

        w.set_value(nd(&[3.0, 0.0, 0.0, 3.0], &[2, 2])).unwrap();
        plan.execute(&[&x], &[]).unwrap();
        plan.with_output(0, |o| assert_eq!(o, &[3.0, 3.0]));
    }

    #[test]
    fn plan_cache_hits_do_not_rebuild() {
        let mut cache = PlanCache::new();
        let build = || {
            let mut g = GraphBuilder::new();
            let x = g.input(&[1, 2]);
            let y = g.scale(x, 2.0);
            g.mark_output(y);
            ExecPlan::compile(g)
        };
        let p1 = cache.get_or_build(&[2], build).unwrap();
        let p2 = cache.get_or_build(&[2], build).unwrap();
        assert!(Rc::ptr_eq(&p1, &p2), "second lookup must hit");
        let _p3 = cache.get_or_build(&[3], build).unwrap();
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.plans), (1, 2, 2));
        assert_eq!(stats.evictions, 0, "under-cap cache must never evict");
        assert_eq!(stats.arena_elems, p1.arena_len() + _p3.arena_len());
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn plan_cache_evicts_oldest_when_full() {
        let mut cache = PlanCache::new();
        let build = || {
            let mut g = GraphBuilder::new();
            let x = g.input(&[1, 2]);
            let y = g.scale(x, 2.0);
            g.mark_output(y);
            ExecPlan::compile(g)
        };
        // Fill past the plan-count cap: occupancy must stay bounded and the
        // survivors must be the newest keys.
        for key in 0..MAX_CACHED_PLANS + 8 {
            cache.get_or_build(&[key], build).unwrap();
        }
        let stats = cache.stats();
        assert_eq!(stats.plans, MAX_CACHED_PLANS, "cache exceeded its bound");
        assert_eq!(stats.misses, (MAX_CACHED_PLANS + 8) as u64);
        assert_eq!(stats.evictions, 8, "one eviction per plan past the cap");
        // The eight oldest keys were evicted in insertion order ...
        for evicted in 0..8 {
            let before = cache.stats().misses;
            cache.get_or_build(&[evicted], build).unwrap();
            assert_eq!(
                cache.stats().misses,
                before + 1,
                "evicted key must recompile"
            );
        }
        // ... while the newest keys are still hits.
        let before = cache.stats().hits;
        cache.get_or_build(&[MAX_CACHED_PLANS + 7], build).unwrap();
        assert_eq!(
            cache.stats().hits,
            before + 1,
            "newest key must remain cached"
        );
        assert_eq!(cache.stats().plans, MAX_CACHED_PLANS);
    }

    #[test]
    fn inference_mode_is_scoped_and_panic_safe() {
        assert!(!in_inference_mode());
        inference_mode(|| {
            assert!(in_inference_mode());
            inference_mode(|| assert!(in_inference_mode()));
            assert!(in_inference_mode());
        });
        assert!(!in_inference_mode());
        let _ = std::panic::catch_unwind(|| inference_mode(|| panic!("boom")));
        assert!(!in_inference_mode(), "mode must reset after a panic");
    }
}
