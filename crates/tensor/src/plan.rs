//! Lifetime planning: from a traced graph to an arena execution schedule.
//!
//! This is the middle stage of the trace → plan → execute pipeline. The
//! planner walks a [`GraphBuilder`]'s nodes in creation order (already
//! topological) and produces a [`Plan`]:
//!
//! * **Aliases first.** `Reshape` and `SliceRows` never move data in
//!   row-major storage, so they compile to *views*: the node resolves to a
//!   sub-range of its root's storage and emits no step. Uses of an alias
//!   count as uses of its root.
//! * **Lifetimes.** Every computed node's buffer is live from its defining
//!   step to its last use (a simple reference count, since the walk order is
//!   the execution order). Output nodes are pinned — their intervals extend
//!   to the end of the plan so results survive execution.
//! * **Arena layout.** Buffers are placed by a best-fit free-list allocator
//!   with coalescing over one flat `f32` arena; a freed interval is
//!   immediately reusable by later nodes, and a request no hole fits grows
//!   the arena from the free interval at its end, if there is one. The
//!   resulting `arena_len` is the plan's entire per-execution working set.
//! * **In-place elementwise steps.** Every elementwise step (`Add`,
//!   `AddRow`, `AddColBias`, `Scale`, `Relu`, `Sigmoid`, `Gelu`) runs in
//!   place on its output interval, with one executor arm per op. When the
//!   primary operand is a full (non-aliased) arena buffer that *dies at that
//!   node*, the output takes over the operand's interval; otherwise the
//!   output gets a fresh interval and the step carries the operand as its
//!   copy source (`init`), which the executor copies in before the arm
//!   runs. Both placements compute each element with the same
//!   expression, so they return the same bits.
//! * **Fused steps.** `BlockAttention` and the int8 `QuantLinear` each run
//!   as one step that reads plain `f32` operands and writes a fresh output
//!   interval; their per-task scratch lives in per-thread workspaces, not
//!   in the arena, so cached plans do not retain it.
//!
//! The planner asserts, at build time, that every emitted step's read
//! operands — the copy source included — are disjoint from its output
//! interval (an in-place arm reads its primary operand from the output
//! slice itself, never through an operand). The executor's `unsafe` slice
//! derivation leans on exactly this invariant.
#![warn(missing_docs)]

use crate::graph::{GraphBuilder, Op};
use crate::quant::QuantizedWeights;
use crate::TensorError;
use std::rc::Rc;

/// Where a step operand's data lives.
#[derive(Debug, Clone, Copy)]
pub(crate) enum SrcLoc {
    /// Offset into the plan's arena.
    Arena(usize),
    /// Offset into a positionally bound runtime input.
    Input { slot: usize, off: usize },
    /// Offset into a captured parameter's current value.
    Param { slot: usize, off: usize },
}

/// A resolved read operand: location plus element count.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Operand {
    pub(crate) loc: SrcLoc,
    pub(crate) len: usize,
}

/// One executable step, with all shapes/offsets resolved at plan time.
///
/// The elementwise variants (`Add` … `Gelu`) run in place: their primary
/// operand is the output slice itself, taken over from a dying buffer or,
/// when `init` is set, first copied in from that operand.
#[derive(Debug, Clone)]
pub(crate) enum StepOp {
    MatMul {
        a: Operand,
        b: Operand,
        k: usize,
        n: usize,
    },
    Add {
        init: Option<Operand>,
        b: Operand,
    },
    AddRow {
        init: Option<Operand>,
        row: Operand,
    },
    AddColBias {
        init: Option<Operand>,
        bias: Operand,
        rows: usize,
    },
    Scale {
        init: Option<Operand>,
        factor: f32,
    },
    Relu {
        init: Option<Operand>,
    },
    Sigmoid {
        init: Option<Operand>,
    },
    Gelu {
        init: Option<Operand>,
    },
    LayerNorm {
        a: Operand,
        gamma: Operand,
        beta: Operand,
        cols: usize,
        eps: f32,
    },
    Transpose {
        a: Operand,
        rows: usize,
        cols: usize,
    },
    SliceCols {
        a: Operand,
        a_cols: usize,
        start: usize,
        end: usize,
        rows: usize,
    },
    /// Sequential copy of parts into the output (also covers `ConcatFlat`).
    ConcatRows {
        parts: Vec<Operand>,
    },
    /// Interleaved per-row copy; each part carries its column count.
    ConcatCols {
        parts: Vec<(Operand, usize)>,
        rows: usize,
    },
    Im2Col {
        a: Operand,
        h: usize,
        w: usize,
        kh: usize,
        kw: usize,
        stride: usize,
        pad: usize,
        oh: usize,
        ow: usize,
    },
    GatherRows {
        a: Operand,
        a_rows: usize,
        cols: usize,
        slot: usize,
    },
    /// One task per (span, head), each writing its head's columns of the
    /// span's output rows.
    BlockAttention {
        qkv: Operand,
        dim: usize,
        spans: Vec<(usize, usize)>,
        heads: usize,
        scale: f32,
    },
    /// Quantise, exact integer GEMM on the f32 kernel, dequantise.
    QuantLinear {
        a: Operand,
        inv_scale: f32,
        weights: Rc<QuantizedWeights>,
        scales: Rc<Vec<f32>>,
    },
}

/// A step: the op plus its output interval in the arena.
#[derive(Debug, Clone)]
pub(crate) struct Step {
    pub(crate) op: StepOp,
    pub(crate) out_off: usize,
    pub(crate) out_len: usize,
}

/// A plan output: pinned arena interval plus the node's build-time shape.
#[derive(Debug, Clone)]
pub(crate) struct PlanOutput {
    pub(crate) off: usize,
    pub(crate) len: usize,
    pub(crate) shape: Vec<usize>,
}

/// The schedule produced by [`plan_graph`]: steps in execution order, the
/// arena size, and the validation contract (expected input shapes, index
/// input lengths and parameter lengths) the executor re-checks on every
/// call so a stale plan fails loudly instead of reading garbage.
#[derive(Debug)]
pub(crate) struct Plan {
    pub(crate) steps: Vec<Step>,
    pub(crate) arena_len: usize,
    pub(crate) input_shapes: Vec<Vec<usize>>,
    pub(crate) index_input_lens: Vec<usize>,
    pub(crate) param_lens: Vec<usize>,
    pub(crate) outputs: Vec<PlanOutput>,
}

/// Storage root of a node after alias resolution.
#[derive(Debug, Clone, Copy)]
enum Base {
    /// Computed node index (arena storage).
    Node(usize),
    /// Runtime input slot.
    Input(usize),
    /// Parameter slot.
    Param(usize),
}

/// A node resolved to (root storage, element offset, element count).
#[derive(Debug, Clone, Copy)]
struct Res {
    base: Base,
    off: usize,
    len: usize,
}

/// Best-fit free-list allocator with coalescing over a growable arena.
#[derive(Debug, Default)]
struct ArenaAlloc {
    /// Free intervals `(off, len)`, kept sorted by offset and coalesced.
    free: Vec<(usize, usize)>,
    high: usize,
}

impl ArenaAlloc {
    fn alloc(&mut self, len: usize) -> usize {
        if len == 0 {
            return 0;
        }
        // Best fit: the smallest free interval that satisfies the request
        // (ties to the lowest offset, since the scan is in offset order).
        let mut best: Option<usize> = None;
        for (i, &(_, flen)) in self.free.iter().enumerate() {
            if flen >= len && best.is_none_or(|b| flen < self.free[b].1) {
                best = Some(i);
            }
        }
        if let Some(i) = best {
            let (off, flen) = self.free[i];
            if flen == len {
                self.free.remove(i);
            } else {
                self.free[i] = (off + len, flen - len);
            }
            return off;
        }
        // No hole fits: grow the arena, starting inside a free interval
        // that reaches its end rather than past it.
        let off = match self.free.last() {
            Some(&(off, flen)) if off + flen == self.high => {
                self.free.pop();
                off
            }
            _ => self.high,
        };
        self.high = off + len;
        off
    }

    fn free(&mut self, off: usize, len: usize) {
        if len == 0 {
            return;
        }
        let i = self.free.partition_point(|&(o, _)| o < off);
        self.free.insert(i, (off, len));
        // Coalesce with the successor, then the predecessor.
        if i + 1 < self.free.len() && self.free[i].0 + self.free[i].1 == self.free[i + 1].0 {
            self.free[i].1 += self.free[i + 1].1;
            self.free.remove(i + 1);
        }
        if i > 0 && self.free[i - 1].0 + self.free[i - 1].1 == self.free[i].0 {
            self.free[i - 1].1 += self.free[i].1;
            self.free.remove(i);
        }
    }
}

/// Panics if a read operand's arena interval overlaps the output interval —
/// the planner invariant the executor's raw-slice derivation relies on.
fn assert_disjoint(out_off: usize, out_len: usize, o: &Operand) {
    if let SrcLoc::Arena(off) = o.loc {
        let disjoint = off + o.len <= out_off || out_off + out_len <= off;
        assert!(
            disjoint || o.len == 0 || out_len == 0,
            "planner bug: read interval [{off}, {}) overlaps output [{out_off}, {})",
            off + o.len,
            out_off + out_len,
        );
    }
}

/// Compiles a finished graph into an executable [`Plan`].
pub(crate) fn plan_graph(b: &GraphBuilder) -> Result<Plan, TensorError> {
    let n = b.nodes.len();

    // Pass 1: alias resolution. Creation order guarantees operands resolve
    // before their consumers.
    let mut res: Vec<Res> = Vec::with_capacity(n);
    for (idx, node) in b.nodes.iter().enumerate() {
        let len = node.numel();
        let r = match &node.op {
            Op::Input { slot } => Res {
                base: Base::Input(*slot),
                off: 0,
                len,
            },
            Op::Param { slot } => Res {
                base: Base::Param(*slot),
                off: 0,
                len,
            },
            Op::Reshape { a } => Res { len, ..res[a.0] },
            Op::SliceRows { a, start, .. } => {
                let cols = b.nodes[a.0].shape[1];
                let ar = res[a.0];
                Res {
                    base: ar.base,
                    off: ar.off + start * cols,
                    len,
                }
            }
            _ => Res {
                base: Base::Node(idx),
                off: 0,
                len,
            },
        };
        res.push(r);
    }

    // Pass 2: use counts per computed root, and output pinning. Aliases
    // (reshape, row slices) never read their operand — only the compute
    // nodes that consume them do, and those resolve through to the root —
    // so counting them would inflate lifetimes and block in-place reuse.
    let mut uses = vec![0usize; n];
    let mut pinned = vec![false; n];
    for node in &b.nodes {
        if matches!(node.op, Op::Reshape { .. } | Op::SliceRows { .. }) {
            continue;
        }
        node.op.for_each_operand(|a| {
            if let Base::Node(r) = res[a].base {
                uses[r] += 1;
            }
        });
    }
    let mut outputs_meta = Vec::with_capacity(b.outputs.len());
    for &out in &b.outputs {
        match res[out.0].base {
            Base::Node(r) => pinned[r] = true,
            _ => {
                return Err(TensorError::InvalidArgument {
                    op: "plan_graph",
                    message: "graph output must be a computed node, not a raw input or parameter"
                        .to_string(),
                })
            }
        }
        outputs_meta.push(out);
    }

    // Pass 3: allocation sweep in execution order.
    let mut alloc = ArenaAlloc::default();
    // Arena offset of each computed root's buffer (usize::MAX = not placed).
    let mut arena_off = vec![usize::MAX; n];
    let mut steps = Vec::new();

    let operand_of = |res: &[Res], arena_off: &[usize], a: usize| -> Operand {
        let r = res[a];
        let loc = match r.base {
            Base::Node(root) => SrcLoc::Arena(arena_off[root] + r.off),
            Base::Input(slot) => SrcLoc::Input { slot, off: r.off },
            Base::Param(slot) => SrcLoc::Param { slot, off: r.off },
        };
        Operand { loc, len: r.len }
    };

    for (idx, node) in b.nodes.iter().enumerate() {
        let out_len = node.numel();
        // `stolen` is the root whose buffer this node takes over in place;
        // its interval must not be freed by the decrement pass below.
        let mut stolen: Option<usize> = None;
        // An elementwise step runs in place on its output. It takes over its
        // primary operand `a` when that is the *entire* live buffer of a
        // computed, unpinned root dying at this node (a second operand of
        // the step in that buffer would count as another use, so the arm
        // never reads what it writes). Otherwise it gets a fresh interval
        // and `a` becomes its copy source.
        let mut init_from = |a: usize| -> Option<Operand> {
            match res[a].base {
                Base::Node(root)
                    if res[a].off == 0
                        && res[a].len == res[root].len
                        && uses[root] == 1
                        && !pinned[root] =>
                {
                    stolen = Some(root);
                    None
                }
                _ => Some(operand_of(&res, &arena_off, a)),
            }
        };

        let step_op = match &node.op {
            Op::Input { .. } | Op::Param { .. } | Op::Reshape { .. } | Op::SliceRows { .. } => None,
            Op::MatMul { a, b: rhs } => {
                let k = b.nodes[a.0].shape[1];
                let nn = b.nodes[rhs.0].shape[1];
                Some(StepOp::MatMul {
                    a: operand_of(&res, &arena_off, a.0),
                    b: operand_of(&res, &arena_off, rhs.0),
                    k,
                    n: nn,
                })
            }
            Op::Add { a, b: rhs } => Some(StepOp::Add {
                init: init_from(a.0),
                b: operand_of(&res, &arena_off, rhs.0),
            }),
            Op::AddRow { a, row } => Some(StepOp::AddRow {
                init: init_from(a.0),
                row: operand_of(&res, &arena_off, row.0),
            }),
            Op::AddColBias { a, bias } => Some(StepOp::AddColBias {
                init: init_from(a.0),
                bias: operand_of(&res, &arena_off, bias.0),
                rows: node.shape[0],
            }),
            Op::Scale { a, factor } => Some(StepOp::Scale {
                init: init_from(a.0),
                factor: *factor,
            }),
            Op::Relu { a } => Some(StepOp::Relu {
                init: init_from(a.0),
            }),
            Op::Sigmoid { a } => Some(StepOp::Sigmoid {
                init: init_from(a.0),
            }),
            Op::Gelu { a } => Some(StepOp::Gelu {
                init: init_from(a.0),
            }),
            Op::LayerNorm {
                a,
                gamma,
                beta,
                eps,
            } => Some(StepOp::LayerNorm {
                a: operand_of(&res, &arena_off, a.0),
                gamma: operand_of(&res, &arena_off, gamma.0),
                beta: operand_of(&res, &arena_off, beta.0),
                cols: node.shape[1],
                eps: *eps,
            }),
            Op::Transpose { a } => Some(StepOp::Transpose {
                a: operand_of(&res, &arena_off, a.0),
                rows: b.nodes[a.0].shape[0],
                cols: b.nodes[a.0].shape[1],
            }),
            Op::SliceCols { a, start, end } => Some(StepOp::SliceCols {
                a: operand_of(&res, &arena_off, a.0),
                a_cols: b.nodes[a.0].shape[1],
                start: *start,
                end: *end,
                rows: node.shape[0],
            }),
            Op::ConcatRows { parts } | Op::ConcatFlat { parts } => Some(StepOp::ConcatRows {
                parts: parts
                    .iter()
                    .map(|p| operand_of(&res, &arena_off, p.0))
                    .collect(),
            }),
            Op::ConcatCols { parts } => Some(StepOp::ConcatCols {
                parts: parts
                    .iter()
                    .map(|p| (operand_of(&res, &arena_off, p.0), b.nodes[p.0].shape[1]))
                    .collect(),
                rows: node.shape[0],
            }),
            Op::Im2Col {
                a,
                kh,
                kw,
                stride,
                pad,
            } => {
                let (h, w) = (b.nodes[a.0].shape[1], b.nodes[a.0].shape[2]);
                let (oh, ow) = crate::array::conv_out_dims(h, w, *kh, *kw, *stride, *pad)?;
                Some(StepOp::Im2Col {
                    a: operand_of(&res, &arena_off, a.0),
                    h,
                    w,
                    kh: *kh,
                    kw: *kw,
                    stride: *stride,
                    pad: *pad,
                    oh,
                    ow,
                })
            }
            Op::GatherRows { a, indices } => Some(StepOp::GatherRows {
                a: operand_of(&res, &arena_off, a.0),
                a_rows: b.nodes[a.0].shape[0],
                cols: node.shape[1],
                slot: indices.0,
            }),
            Op::BlockAttention {
                qkv,
                spans,
                heads,
                scale,
            } => Some(StepOp::BlockAttention {
                qkv: operand_of(&res, &arena_off, qkv.0),
                dim: node.shape[1],
                spans: spans.clone(),
                heads: *heads,
                scale: *scale,
            }),
            Op::QuantLinear {
                a,
                inv_scale,
                weights,
                scales,
            } => Some(StepOp::QuantLinear {
                a: operand_of(&res, &arena_off, a.0),
                inv_scale: *inv_scale,
                weights: Rc::clone(weights),
                scales: Rc::clone(scales),
            }),
        };

        let Some(step_op) = step_op else {
            continue;
        };

        // Place the output: steal the dying operand's interval (in place)
        // or allocate while all operands are still live, so the allocator
        // cannot hand back an interval overlapping any of them.
        let out_off = match stolen {
            Some(root) => {
                uses[root] = 0;
                arena_off[root]
            }
            None => alloc.alloc(out_len),
        };
        arena_off[idx] = out_off;

        // Build-time proof of the executor's aliasing contract.
        step_op.for_each_read_operand(|o| assert_disjoint(out_off, out_len, o));

        steps.push(Step {
            op: step_op,
            out_off,
            out_len,
        });

        // Retire this step's operands; a root whose last use this was gives
        // its interval back (unless pinned as an output or stolen above).
        node.op.for_each_operand(|a| {
            if let Base::Node(r) = res[a].base {
                if Some(r) == stolen {
                    return;
                }
                uses[r] -= 1;
                if uses[r] == 0 && !pinned[r] {
                    alloc.free(arena_off[r], res[r].len);
                }
            }
        });
    }

    let outputs = outputs_meta
        .iter()
        .map(|&out| {
            let r = res[out.0];
            let root = match r.base {
                Base::Node(root) => root,
                _ => unreachable!("outputs validated as computed nodes above"),
            };
            PlanOutput {
                off: arena_off[root] + r.off,
                len: r.len,
                shape: b.nodes[out.0].shape.clone(),
            }
        })
        .collect();

    bliss_telemetry::metrics::PLANS_COMPILED.add(1);
    Ok(Plan {
        steps,
        arena_len: alloc.high,
        input_shapes: b.input_shapes.clone(),
        index_input_lens: b.index_input_lens.clone(),
        param_lens: b.params.iter().map(|p| p.value().data().len()).collect(),
        outputs,
    })
}

impl Op {
    /// Visits every operand node index (aliases included, in tape order).
    pub(crate) fn for_each_operand(&self, mut f: impl FnMut(usize)) {
        match self {
            Op::Input { .. } | Op::Param { .. } => {}
            Op::MatMul { a, b } | Op::Add { a, b } => {
                f(a.0);
                f(b.0);
            }
            Op::AddRow { a, row } => {
                f(a.0);
                f(row.0);
            }
            Op::AddColBias { a, bias } => {
                f(a.0);
                f(bias.0);
            }
            Op::Scale { a, .. }
            | Op::Relu { a }
            | Op::Sigmoid { a }
            | Op::Gelu { a }
            | Op::Transpose { a }
            | Op::Reshape { a }
            | Op::SliceRows { a, .. }
            | Op::SliceCols { a, .. }
            | Op::Im2Col { a, .. }
            | Op::GatherRows { a, .. }
            | Op::BlockAttention { qkv: a, .. }
            | Op::QuantLinear { a, .. } => f(a.0),
            Op::LayerNorm { a, gamma, beta, .. } => {
                f(a.0);
                f(gamma.0);
                f(beta.0);
            }
            Op::ConcatRows { parts } | Op::ConcatCols { parts } | Op::ConcatFlat { parts } => {
                for p in parts {
                    f(p.0);
                }
            }
        }
    }
}

impl StepOp {
    /// The copy source of an elementwise step whose output could not take
    /// over its primary operand's buffer (`None` for every other step).
    pub(crate) fn init(&self) -> Option<&Operand> {
        match self {
            StepOp::Add { init, .. }
            | StepOp::AddRow { init, .. }
            | StepOp::AddColBias { init, .. }
            | StepOp::Scale { init, .. }
            | StepOp::Relu { init }
            | StepOp::Sigmoid { init }
            | StepOp::Gelu { init } => init.as_ref(),
            _ => None,
        }
    }

    /// Visits every operand this step *reads*: its copy source, then its
    /// own operands (an elementwise op's primary operand is the output
    /// slice, not a read).
    fn for_each_read_operand(&self, mut f: impl FnMut(&Operand)) {
        if let Some(init) = self.init() {
            f(init);
        }
        match self {
            StepOp::MatMul { a, b, .. } => {
                f(a);
                f(b);
            }
            StepOp::Add { b: o, .. }
            | StepOp::AddRow { row: o, .. }
            | StepOp::AddColBias { bias: o, .. } => f(o),
            StepOp::Transpose { a, .. }
            | StepOp::SliceCols { a, .. }
            | StepOp::Im2Col { a, .. }
            | StepOp::GatherRows { a, .. }
            | StepOp::BlockAttention { qkv: a, .. }
            | StepOp::QuantLinear { a, .. } => f(a),
            StepOp::Scale { .. }
            | StepOp::Relu { .. }
            | StepOp::Sigmoid { .. }
            | StepOp::Gelu { .. } => {}
            StepOp::LayerNorm { a, gamma, beta, .. } => {
                f(a);
                f(gamma);
                f(beta);
            }
            StepOp::ConcatRows { parts } => {
                for p in parts {
                    f(p);
                }
            }
            StepOp::ConcatCols { parts, .. } => {
                for (p, _) in parts {
                    f(p);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_fit_prefers_smallest_adequate_hole() {
        let mut a = ArenaAlloc::default();
        let big = a.alloc(100);
        let _guard1 = a.alloc(1); // keeps the two holes from coalescing
        let small = a.alloc(10);
        let _guard2 = a.alloc(5);
        a.free(big, 100);
        a.free(small, 10);
        // A 10-element request must take the 10-hole, not carve the 100-hole.
        assert_eq!(a.alloc(10), small);
        assert_eq!(a.alloc(100), big);
    }

    #[test]
    fn growth_starts_in_the_trailing_hole() {
        let mut a = ArenaAlloc::default();
        let x = a.alloc(10);
        let y = a.alloc(30);
        a.free(y, 30);
        // 40 fits no hole; it starts where the trailing hole does.
        assert_eq!(a.alloc(40), y);
        assert_eq!(a.high, x + 50);
        assert!(a.free.is_empty());
    }

    #[test]
    fn freeing_coalesces_neighbours() {
        let mut a = ArenaAlloc::default();
        let x = a.alloc(10);
        let y = a.alloc(10);
        let z = a.alloc(10);
        let high = a.high;
        a.free(x, 10);
        a.free(z, 10);
        a.free(y, 10);
        assert_eq!(a.free.len(), 1, "three adjacent frees must coalesce");
        assert_eq!(a.free[0], (x, 30));
        // The coalesced hole satisfies a request that none of the pieces
        // could have; the arena does not grow.
        assert_eq!(a.alloc(30), x);
        assert_eq!(a.high, high);
    }
}
