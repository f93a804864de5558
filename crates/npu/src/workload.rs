use serde::{Deserialize, Serialize};
use std::cell::RefCell;

/// Work description of a single network layer as seen by a systolic array.
///
/// All layers are described post-lowering (im2col), i.e. as a GEMM of
/// `[m, k] x [k, n]`. Operands are int8 (1 byte/element), the standard
/// deployment precision for mobile NPUs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GemmShape {
    /// Output rows (e.g. output channels).
    pub m: usize,
    /// Reduction dimension (e.g. `ic * kh * kw`).
    pub k: usize,
    /// Output columns (e.g. output pixels, or tokens).
    pub n: usize,
    /// Whether the `[m, k]` operand is a trained weight matrix (false for
    /// activation-activation products such as attention's `QK^T` and `AV`,
    /// which never touch DRAM-resident weights).
    pub has_weights: bool,
}

impl GemmShape {
    /// Creates a GEMM shape whose `[m, k]` operand is a weight matrix.
    pub fn new(m: usize, k: usize, n: usize) -> Self {
        GemmShape {
            m,
            k,
            n,
            has_weights: true,
        }
    }

    /// Creates an activation-activation GEMM (no weight operand).
    pub fn activation(m: usize, k: usize, n: usize) -> Self {
        GemmShape {
            m,
            k,
            n,
            has_weights: false,
        }
    }

    /// Multiply-accumulate count.
    pub fn macs(&self) -> u64 {
        self.m as u64 * self.k as u64 * self.n as u64
    }

    /// Bytes of weight data (0 for activation-activation GEMMs).
    pub fn weight_bytes(&self) -> u64 {
        if self.has_weights {
            self.m as u64 * self.k as u64
        } else {
            0
        }
    }

    /// Bytes of input activations.
    pub fn input_bytes(&self) -> u64 {
        self.k as u64 * self.n as u64
    }

    /// Bytes of output activations.
    pub fn output_bytes(&self) -> u64 {
        self.m as u64 * self.n as u64
    }
}

// Workload descriptors are rebuilt from scratch on every analytic timing or
// energy evaluation — once per fused batch and twice per served frame in the
// streaming runtime's hot path. A small thread-local freelist recycles the
// layer storage between descriptors so steady-state serving performs no
// buffer-class heap allocation here (the contract the data plane keeps with
// buffers its callers own).
thread_local! {
    static GEMM_FREELIST: RefCell<Vec<Vec<GemmShape>>> = const { RefCell::new(Vec::new()) };
}

/// Recycled layer vectors retained per thread — only a handful of workload
/// descriptors are ever alive at once.
const GEMM_FREELIST_CAP: usize = 8;

/// A whole network lowered into a sequence of GEMMs.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkloadDesc {
    /// Human-readable network name (appears in experiment output).
    pub name: String,
    /// Lowered layers in execution order.
    pub gemms: Vec<GemmShape>,
}

impl Drop for WorkloadDesc {
    fn drop(&mut self) {
        if self.gemms.capacity() == 0 {
            return;
        }
        let mut gemms = std::mem::take(&mut self.gemms);
        gemms.clear();
        // Defensive accessors: drops can run during thread teardown, and a
        // recycling failure must never turn into a panic.
        let _ = GEMM_FREELIST.try_with(|fl| {
            if let Ok(mut fl) = fl.try_borrow_mut() {
                if fl.len() < GEMM_FREELIST_CAP {
                    fl.push(gemms);
                }
            }
        });
    }
}

impl WorkloadDesc {
    /// Creates an empty workload, reusing recycled layer storage from this
    /// thread's freelist when available (descriptors return their storage
    /// on drop).
    pub fn new(name: impl Into<String>) -> Self {
        let gemms = GEMM_FREELIST
            .with(|fl| fl.borrow_mut().pop())
            .unwrap_or_default();
        WorkloadDesc {
            name: name.into(),
            gemms,
        }
    }

    /// Appends a lowered convolution: `[oc, ic*kh*kw] x [ic*kh*kw, oh*ow]`.
    pub fn push_conv(
        &mut self,
        oc: usize,
        ic: usize,
        kernel: usize,
        oh: usize,
        ow: usize,
    ) -> &mut Self {
        self.gemms
            .push(GemmShape::new(oc, ic * kernel * kernel, oh * ow));
        self
    }

    /// Appends a fully-connected layer over `tokens` rows, lowered with the
    /// weight matrix as the stationary `[out, in]` operand.
    pub fn push_linear(&mut self, tokens: usize, in_f: usize, out_f: usize) -> &mut Self {
        self.gemms.push(GemmShape::new(out_f, in_f, tokens));
        self
    }

    /// Appends one multi-head self-attention module over `tokens` tokens.
    pub fn push_attention(&mut self, tokens: usize, dim: usize, heads: usize) -> &mut Self {
        let hd = dim / heads.max(1);
        for _ in 0..heads {
            self.push_linear(tokens, dim, hd); // Q
            self.push_linear(tokens, dim, hd); // K
            self.push_linear(tokens, dim, hd); // V
            self.gemms.push(GemmShape::activation(tokens, hd, tokens)); // QK^T
            self.gemms.push(GemmShape::activation(tokens, tokens, hd)); // AV
        }
        self.push_linear(tokens, dim, dim) // output projection
    }

    /// Appends a full transformer block (attention + 4x-expansion MLP).
    pub fn push_transformer_block(&mut self, tokens: usize, dim: usize, heads: usize) -> &mut Self {
        self.push_transformer_block_ratio(tokens, dim, heads, 4)
    }

    /// Appends a transformer block with an explicit MLP expansion ratio.
    pub fn push_transformer_block_ratio(
        &mut self,
        tokens: usize,
        dim: usize,
        heads: usize,
        mlp_ratio: usize,
    ) -> &mut Self {
        self.push_attention(tokens, dim, heads);
        self.push_linear(tokens, dim, dim * mlp_ratio);
        self.push_linear(tokens, dim * mlp_ratio, dim)
    }

    /// Total multiply-accumulate count.
    pub fn total_macs(&self) -> u64 {
        self.gemms.iter().map(GemmShape::macs).sum()
    }

    /// Number of kernel launches this workload dispatches (one per lowered
    /// GEMM). Each pays [`crate::SystolicArray::dispatch_cycles`], which is
    /// what cross-session batching amortises: a batched workload fuses its
    /// weight GEMMs across frames and therefore launches fewer kernels than
    /// the per-frame workloads it replaces.
    pub fn launches(&self) -> usize {
        self.gemms.len()
    }

    /// Total weight bytes (int8).
    pub fn total_weight_bytes(&self) -> u64 {
        self.gemms.iter().map(GemmShape::weight_bytes).sum()
    }

    /// Concatenates another workload after this one.
    pub fn extend(&mut self, other: &WorkloadDesc) -> &mut Self {
        self.gemms.extend(other.gemms.iter().copied());
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gemm_counts() {
        let g = GemmShape::new(2, 3, 4);
        assert_eq!(g.macs(), 24);
        assert_eq!(g.weight_bytes(), 6);
        assert_eq!(g.input_bytes(), 12);
        assert_eq!(g.output_bytes(), 8);
    }

    #[test]
    fn conv_lowering() {
        let mut w = WorkloadDesc::new("c");
        w.push_conv(16, 8, 3, 10, 10);
        assert_eq!(w.total_macs(), 16 * 72 * 100);
        assert_eq!(w.total_weight_bytes(), 16 * 72);
    }

    #[test]
    fn attention_macs_formula() {
        let mut w = WorkloadDesc::new("a");
        let (t, d, h) = (9usize, 12usize, 3usize);
        w.push_attention(t, d, h);
        let hd = d / h;
        let expected = (3 * h * t * d * hd) + (2 * h * t * t * hd) + t * d * d;
        assert_eq!(w.total_macs(), expected as u64);
    }

    #[test]
    fn attention_macs_shrink_superlinearly_with_tokens() {
        let mk = |t: usize| {
            let mut w = WorkloadDesc::new("a");
            w.push_attention(t, 192, 3);
            w.total_macs()
        };
        // Dropping half the tokens (sparse sampling!) removes MORE than half
        // the attention compute.
        assert!(mk(100) * 2 < mk(200));
    }

    #[test]
    fn extend_concatenates() {
        let mut a = WorkloadDesc::new("a");
        a.push_linear(1, 2, 3);
        let mut b = WorkloadDesc::new("b");
        b.push_linear(4, 5, 6);
        a.extend(&b);
        assert_eq!(a.gemms.len(), 2);
        assert_eq!(a.total_macs(), 6 + 120);
    }
}
