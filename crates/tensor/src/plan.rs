//! Lifetime planning: from a traced graph to an arena execution schedule.
//!
//! This is the middle stage of the trace → plan → execute pipeline. The
//! planner walks a [`GraphBuilder`]'s nodes in creation order (already
//! topological) and produces a [`Plan`] whose steps are the graph's own ops
//! with every operand resolved to an [`Operand`] (location, length and the
//! operand node's shape, from which the executor derives `k`, `n`, rows and
//! columns):
//!
//! * **Dead nodes.** A node that no output reaches emits no step and takes
//!   no arena, and its reads do not extend any lifetime.
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
//!   node*, the output takes over the operand's interval, so the step's
//!   primary operand *is* its output interval; otherwise the output gets a
//!   fresh interval and the primary operand is a copy source, which the
//!   executor copies in before the arm runs. Both placements compute each
//!   element with the same expression, so they return the same bits.
//! * **Fused steps.** `BlockAttention` and the int8 `QuantLinear` each run
//!   as one step that reads plain `f32` operands and writes a fresh output
//!   interval; their per-task scratch lives in per-thread workspaces, not
//!   in the arena, so cached plans do not retain it.
//!
//! The planner asserts, at build time, that every emitted step's operands —
//! a copy source included — are disjoint from its output interval, except a
//! taken-over primary operand, which is that interval exactly (an in-place
//! arm reads it from the output slice itself). The executor's `unsafe`
//! slice derivation leans on exactly this invariant.
#![warn(missing_docs)]

use crate::graph::{GraphBuilder, Op};
use crate::TensorError;

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

/// A resolved operand: location plus the operand node's build-time shape.
#[derive(Debug, Clone)]
pub(crate) struct Operand {
    pub(crate) loc: SrcLoc,
    pub(crate) shape: Box<[usize]>,
}

impl Operand {
    /// Element count.
    pub(crate) fn len(&self) -> usize {
        self.shape.iter().product()
    }
}

/// A step: a graph op over resolved operands plus its output interval in
/// the arena.
#[derive(Debug, Clone)]
pub(crate) struct Step {
    pub(crate) op: Op<Operand>,
    pub(crate) out_off: usize,
    pub(crate) out_len: usize,
}

impl Step {
    /// The operand an elementwise step copies into its output before running
    /// in place: its primary operand, unless the output took that buffer
    /// over (then the operand is the output interval itself).
    pub(crate) fn copy_source(&self) -> Option<&Operand> {
        self.op
            .elementwise_operand()
            .filter(|a| !matches!(a.loc, SrcLoc::Arena(off) if off == self.out_off))
    }
}

/// A plan output: its pinned arena interval.
#[derive(Debug, Clone)]
pub(crate) struct PlanOutput {
    pub(crate) off: usize,
    pub(crate) len: usize,
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
        let len = o.len();
        let disjoint = off + len <= out_off || out_off + out_len <= off;
        assert!(
            disjoint || len == 0 || out_len == 0,
            "planner bug: read interval [{off}, {}) overlaps output [{out_off}, {})",
            off + len,
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

    // Pass 2: liveness. A node is live when an output reaches it; nothing
    // else is planned.
    let mut live = vec![false; n];
    for &out in &b.outputs {
        live[out.0] = true;
    }
    for idx in (0..n).rev() {
        if live[idx] {
            b.nodes[idx].op.map(|a| live[a.0] = true);
        }
    }

    // Pass 3: use counts per computed root, and output pinning. Aliases
    // (reshape, row slices) never read their operand — only the compute
    // nodes that consume them do, and those resolve through to the root —
    // so counting them would inflate lifetimes and block in-place reuse.
    let mut uses = vec![0usize; n];
    let mut pinned = vec![false; n];
    for (idx, node) in b.nodes.iter().enumerate() {
        if !live[idx] || node.op.is_storage() {
            continue;
        }
        node.op.map(|a| {
            if let Base::Node(r) = res[a.0].base {
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

    // Pass 4: allocation sweep in execution order.
    let mut alloc = ArenaAlloc::default();
    // Arena offset of each computed root's buffer (usize::MAX = not placed).
    let mut arena_off = vec![usize::MAX; n];
    let mut steps = Vec::new();

    for (idx, node) in b.nodes.iter().enumerate() {
        if !live[idx] || node.op.is_storage() {
            continue;
        }
        let out_len = node.numel();
        // An elementwise step runs in place on its output. It takes over its
        // primary operand when that is the *entire* live buffer of a
        // computed, unpinned root dying at this node (a second operand of
        // the step in that buffer would count as another use, so the arm
        // never reads what it writes); `stolen` is that root, whose interval
        // the decrement pass below must not free. Otherwise the output gets
        // a fresh interval and the primary operand is a copy source.
        let stolen = node
            .op
            .elementwise_operand()
            .and_then(|a| match res[a.0].base {
                Base::Node(root)
                    if res[a.0].off == 0
                        && res[a.0].len == res[root].len
                        && uses[root] == 1
                        && !pinned[root] =>
                {
                    Some(root)
                }
                _ => None,
            });

        let op = node.op.map(|a| {
            let r = res[a.0];
            let loc = match r.base {
                Base::Node(root) => SrcLoc::Arena(arena_off[root] + r.off),
                Base::Input(slot) => SrcLoc::Input { slot, off: r.off },
                Base::Param(slot) => SrcLoc::Param { slot, off: r.off },
            };
            Operand {
                loc,
                shape: b.nodes[a.0].shape.as_slice().into(),
            }
        });

        // Place the output: take over the dying operand's interval or
        // allocate while all operands are still live, so the allocator
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
        let taken_over = stolen.and(op.elementwise_operand());
        op.map(|o| {
            if !taken_over.is_some_and(|t| std::ptr::eq(t, o)) {
                assert_disjoint(out_off, out_len, o);
            }
        });

        steps.push(Step {
            op,
            out_off,
            out_len,
        });

        // Retire this step's operands; a root whose last use this was gives
        // its interval back (unless pinned as an output or taken over above).
        node.op.map(|a| {
            if let Base::Node(r) = res[a.0].base {
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
            }
        })
        .collect();

    Ok(Plan {
        steps,
        arena_len: alloc.high,
        input_shapes: b.input_shapes.clone(),
        index_input_lens: b.index_input_lens.clone(),
        param_lens: b.params.iter().map(|p| p.value().data().len()).collect(),
        outputs,
    })
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
