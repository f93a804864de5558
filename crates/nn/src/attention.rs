use crate::layers::{LayerNormLayer, Linear, Mlp};
use crate::{Module, Op, Recorder};
use bliss_parallel::par_map_collect;
use bliss_tensor::kernels::attention_head_into;
use bliss_tensor::{validate_spans, NdArray, Tensor, TensorError};
use rand::Rng;

/// Saved forward activations of one attention head, reused by the fused
/// backward pass. (The head's output itself is not saved — backward only
/// needs the projections and the per-span attention matrices.)
struct HeadForward {
    q: NdArray,
    k: NdArray,
    v: NdArray,
    /// One attention matrix per row span (block-diagonal attention).
    attns: Vec<NdArray>,
}

/// Shared references to one head's `[wq, bq, wk, bk, wv, bv]` parameter
/// values, extracted from borrow guards on the calling thread so the
/// parallel workers never clone parameter data.
fn head_param_refs<'a>(
    guards: &'a [std::cell::Ref<'_, NdArray>],
    heads: usize,
) -> Vec<[&'a NdArray; 6]> {
    (0..heads)
        .map(|h| {
            let s = &guards[1 + 6 * h..1 + 6 * (h + 1)];
            [&*s[0], &*s[1], &*s[2], &*s[3], &*s[4], &*s[5]]
        })
        .collect()
}

/// Gradients produced by one attention head's backward pass, in the same
/// order the head's parameters appear in the fused op's parent list.
struct HeadGradients {
    dx: NdArray,
    dwq: NdArray,
    dbq: NdArray,
    dwk: NdArray,
    dbk: NdArray,
    dwv: NdArray,
    dbv: NdArray,
}

/// `dS` of a row-wise softmax `A = softmax(S)` given `A` and `dA`:
/// `dS_ij = A_ij * (dA_ij - sum_j A_ij * dA_ij)`.
fn softmax_rows_backward(attn: &NdArray, dattn: &NdArray) -> NdArray {
    let (m, n) = (attn.shape()[0], attn.shape()[1]);
    let mut out = NdArray::zeros(&[m, n]);
    for i in 0..m {
        let arow = &attn.data()[i * n..(i + 1) * n];
        let grow = &dattn.data()[i * n..(i + 1) * n];
        let dot: f32 = arow.iter().zip(grow.iter()).map(|(&a, &g)| a * g).sum();
        for j in 0..n {
            out.data_mut()[i * n + j] = arow[j] * (grow[j] - dot);
        }
    }
    out
}

/// Multi-head self-attention over `[tokens, dim]` inputs.
///
/// Each head owns its own query/key/value projections of size
/// `dim -> dim/heads`; head outputs are concatenated and passed through an
/// output projection. This mirrors the paper's MHA modules (3 heads,
/// channel size 192 at paper scale, §III-B).
#[derive(Debug, Clone)]
pub struct MultiHeadAttention {
    pub(crate) query: Vec<Linear>,
    pub(crate) key: Vec<Linear>,
    pub(crate) value: Vec<Linear>,
    proj: Linear,
    dim: usize,
    pub(crate) head_dim: usize,
}

impl MultiHeadAttention {
    /// Creates an MHA module with `heads` heads over `dim` channels.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is not divisible by `heads`.
    pub fn new<R: Rng + ?Sized>(rng: &mut R, dim: usize, heads: usize) -> Self {
        assert!(
            heads > 0 && dim.is_multiple_of(heads),
            "dim must divide by heads"
        );
        let head_dim = dim / heads;
        let mk = |rng: &mut R| -> Vec<Linear> {
            (0..heads)
                .map(|_| Linear::new(rng, dim, head_dim))
                .collect()
        };
        MultiHeadAttention {
            query: mk(rng),
            key: mk(rng),
            value: mk(rng),
            proj: Linear::new(rng, dim, dim),
            dim,
            head_dim,
        }
    }

    /// Number of attention heads.
    pub fn heads(&self) -> usize {
        self.query.len()
    }

    /// Channel dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Applies *block-diagonal* self-attention on recorder `r`: rows within
    /// each `(start, end)` span attend only to rows of the same span.
    ///
    /// This is the batched-inference primitive of the serving runtime: K
    /// sessions' token sets are stacked into one `[T, dim]` matrix and the
    /// QKV projections, the output projection and (in
    /// [`TransformerBlock::forward`]) the MLP run as *one* GEMM each
    /// instead of K, while the quadratic score/softmax/AV chain stays
    /// per-span so sessions never mix. Because every kernel's per-row
    /// accumulation order is independent of the row count, each span's rows
    /// are **bit-identical** to running that span alone with the single span
    /// `[(0, rows)]`.
    ///
    /// The head core is one [`Op::BlockAttention`]: on the tape a single
    /// fused autograd op, on a graph the QKV GEMM plus one block-attention
    /// op; both run [`attention_head_into`] per (span, head).
    ///
    /// # Errors
    ///
    /// Returns a shape error if the input's channel dimension is not `dim`,
    /// or [`TensorError::InvalidArgument`] if `spans` is empty, overlapping,
    /// out of order, or does not exactly cover the input rows.
    pub fn forward<R: Recorder>(
        &self,
        r: &mut R,
        x: &R::Node,
        spans: &[(usize, usize)],
    ) -> Result<R::Node, TensorError> {
        validate_spans(spans, r.shape(x)[0], "mha_forward")?;
        let heads = r.op(Op::BlockAttention(self, x, spans))?;
        self.proj.forward(r, &heads)
    }

    /// The tape's fused [`Op::BlockAttention`] for pre-validated
    /// `spans`. The QKV projections of every head are evaluated as a single
    /// `[dim, 3*dim]` GEMM against the concatenated weights (three launches
    /// fused into one); the per-head, per-span `scores -> softmax -> AV`
    /// chains ([`attention_head_into`], the planned step's kernel too) then
    /// fan out across the `bliss_parallel` pool in both the forward and the
    /// backward pass (head index order is fixed, so gradients accumulate
    /// identically for every thread count).
    pub(crate) fn fused_heads(
        &self,
        x: &Tensor,
        spans: &[(usize, usize)],
    ) -> Result<Tensor, TensorError> {
        let scale = 1.0 / (self.head_dim as f32).sqrt();
        let heads = self.heads();
        let head_dim = self.head_dim;
        let dim = self.dim;
        let spans: Vec<(usize, usize)> = spans.to_vec();

        // Parent order: x, then per head the q/k/v weight and bias tensors.
        // Parameter values are read through borrow guards (here and again in
        // backward) rather than cloned into the graph node.
        let mut parents = Vec::with_capacity(1 + 6 * heads);
        parents.push(x.clone());
        for h in 0..heads {
            parents.extend(self.query[h].parameters());
            parents.extend(self.key[h].parameters());
            parents.extend(self.value[h].parameters());
        }

        let (forwards, concat) = {
            let guards: Vec<std::cell::Ref<'_, NdArray>> =
                parents.iter().map(|p| p.value()).collect();
            let xv: &NdArray = &guards[0];
            let params = head_param_refs(&guards, heads);
            // Fused QKV: all heads' projections as one [dim, 3*dim] GEMM.
            // Column layout [q_0..q_H | k_0..k_H | v_0..v_H]; per-element
            // accumulation order (ascending k) matches the unfused GEMMs, so
            // the slices below are bit-identical to per-head projections.
            let qkv = {
                let mut cols: Vec<&NdArray> = Vec::with_capacity(3 * heads);
                for proj in 0..3 {
                    for p in params.iter() {
                        cols.push(p[2 * proj]);
                    }
                }
                let wqkv = NdArray::concat_cols(&cols)?;
                let mut bias = Vec::with_capacity(3 * dim);
                for proj in 0..3 {
                    for p in params.iter() {
                        bias.extend_from_slice(p[2 * proj + 1].data());
                    }
                }
                let bqkv = NdArray::from_vec(bias, &[3 * dim])?;
                xv.matmul(&wqkv)?.add_row(&bqkv)?
            };
            let spans_f = &spans;
            let results: Result<Vec<(HeadForward, NdArray)>, TensorError> =
                par_map_collect(heads, |h| -> Result<(HeadForward, NdArray), TensorError> {
                    let q = qkv.slice_cols(h * head_dim, (h + 1) * head_dim)?;
                    let k = qkv.slice_cols(dim + h * head_dim, dim + (h + 1) * head_dim)?;
                    let v = qkv.slice_cols(2 * dim + h * head_dim, 2 * dim + (h + 1) * head_dim)?;
                    let mut attns = Vec::with_capacity(spans_f.len());
                    let mut out = NdArray::zeros(&[q.shape()[0], head_dim]);
                    for &(s, e) in spans_f {
                        let n = e - s;
                        let rows = s * head_dim..e * head_dim;
                        let mut scores = NdArray::zeros(&[n, n]);
                        let mut attn = NdArray::zeros(&[n, n]);
                        attention_head_into(
                            &q.data()[rows.clone()],
                            &k.data()[rows.clone()],
                            &v.data()[rows.clone()],
                            head_dim,
                            scale,
                            scores.data_mut(),
                            attn.data_mut(),
                            &mut out.data_mut()[rows],
                        );
                        attns.push(attn);
                    }
                    Ok((HeadForward { q, k, v, attns }, out))
                })
                .into_iter()
                .collect();
            let mut forwards = Vec::with_capacity(heads);
            let mut outs = Vec::with_capacity(heads);
            for (f, o) in results? {
                forwards.push(f);
                outs.push(o);
            }
            let concat = NdArray::concat_cols(&outs.iter().collect::<Vec<_>>())?;
            (forwards, concat)
        };

        let fused = Tensor::from_custom_op(concat, parents, move |g, parents| {
            let e = "head shapes fixed by forward";
            let grads: Vec<HeadGradients> = {
                let guards: Vec<std::cell::Ref<'_, NdArray>> =
                    parents.iter().map(|p| p.value()).collect();
                let xv: &NdArray = &guards[0];
                let params = head_param_refs(&guards, heads);
                // Shared by every head's projection gradients.
                let xt = xv.transpose().expect(e);
                let spans_b = &spans;
                par_map_collect(heads, |h| {
                    let f = &forwards[h];
                    let [wq, _, wk, _, wv, _] = params[h];
                    let gh = g
                        .slice_cols(h * head_dim, (h + 1) * head_dim)
                        .expect("gradient columns per head");
                    let mut dqs = Vec::with_capacity(spans_b.len());
                    let mut dks = Vec::with_capacity(spans_b.len());
                    let mut dvs = Vec::with_capacity(spans_b.len());
                    for (si, &(s, en)) in spans_b.iter().enumerate() {
                        let attn = &f.attns[si];
                        let ghs = gh.slice_rows(s, en).expect(e);
                        let dv = attn.transpose().expect(e).matmul(&ghs).expect(e);
                        let dattn = ghs
                            .matmul_transposed(&f.v.slice_rows(s, en).expect(e))
                            .expect(e);
                        let dscores = softmax_rows_backward(attn, &dattn).scale(scale);
                        dqs.push(dscores.matmul(&f.k.slice_rows(s, en).expect(e)).expect(e));
                        dks.push(
                            dscores
                                .transpose()
                                .expect(e)
                                .matmul(&f.q.slice_rows(s, en).expect(e))
                                .expect(e),
                        );
                        dvs.push(dv);
                    }
                    let dq = NdArray::concat_rows(&dqs.iter().collect::<Vec<_>>()).expect(e);
                    let dk = NdArray::concat_rows(&dks.iter().collect::<Vec<_>>()).expect(e);
                    let dv = NdArray::concat_rows(&dvs.iter().collect::<Vec<_>>()).expect(e);
                    let dx = dq
                        .matmul_transposed(wq)
                        .expect(e)
                        .add(&dk.matmul_transposed(wk).expect(e))
                        .expect(e)
                        .add(&dv.matmul_transposed(wv).expect(e))
                        .expect(e);
                    HeadGradients {
                        dx,
                        dwq: xt.matmul(&dq).expect(e),
                        dbq: dq.sum_rows().expect(e),
                        dwk: xt.matmul(&dk).expect(e),
                        dbk: dk.sum_rows().expect(e),
                        dwv: xt.matmul(&dv).expect(e),
                        dbv: dv.sum_rows().expect(e),
                    }
                })
            };
            // Accumulate in fixed head order so results never depend on the
            // thread count.
            let e = "gradient shapes match parameters";
            let mut dx = NdArray::zeros(&parents[0].shape());
            for hg in &grads {
                dx.add_assign(&hg.dx).expect(e);
            }
            parents[0].add_grad(&dx).expect(e);
            for (h, hg) in grads.iter().enumerate() {
                let p = &parents[1 + 6 * h..1 + 6 * (h + 1)];
                p[0].add_grad(&hg.dwq).expect(e);
                p[1].add_grad(&hg.dbq).expect(e);
                p[2].add_grad(&hg.dwk).expect(e);
                p[3].add_grad(&hg.dbk).expect(e);
                p[4].add_grad(&hg.dwv).expect(e);
                p[5].add_grad(&hg.dbv).expect(e);
            }
        });
        Ok(fused)
    }
}

impl Module for MultiHeadAttention {
    fn parameters(&self) -> Vec<Tensor> {
        let mut p = Vec::new();
        for h in 0..self.heads() {
            p.extend(self.query[h].parameters());
            p.extend(self.key[h].parameters());
            p.extend(self.value[h].parameters());
        }
        p.extend(self.proj.parameters());
        p
    }
}

/// A pre-norm transformer block: `x + MHA(LN(x))` then `x + MLP(LN(x))`.
#[derive(Debug, Clone)]
pub struct TransformerBlock {
    norm1: LayerNormLayer,
    attn: MultiHeadAttention,
    norm2: LayerNormLayer,
    mlp: Mlp,
}

impl TransformerBlock {
    /// Creates a block with `dim` channels, `heads` attention heads and a
    /// 4x MLP expansion (the Segmenter default).
    ///
    /// # Panics
    ///
    /// Panics if `dim` is not divisible by `heads`.
    pub fn new<R: Rng + ?Sized>(rng: &mut R, dim: usize, heads: usize) -> Self {
        Self::with_mlp_ratio(rng, dim, heads, 4)
    }

    /// Creates a block with an explicit MLP expansion ratio.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is not divisible by `heads` or `mlp_ratio == 0`.
    pub fn with_mlp_ratio<R: Rng + ?Sized>(
        rng: &mut R,
        dim: usize,
        heads: usize,
        mlp_ratio: usize,
    ) -> Self {
        assert!(mlp_ratio > 0, "mlp_ratio must be positive");
        TransformerBlock {
            norm1: LayerNormLayer::new(dim),
            attn: MultiHeadAttention::new(rng, dim, heads),
            norm2: LayerNormLayer::new(dim),
            mlp: Mlp::new(rng, dim, dim * mlp_ratio),
        }
    }

    /// Applies the block to a `[tokens, dim]` value on recorder `r` with
    /// block-diagonal attention over `spans` (see
    /// [`MultiHeadAttention::forward`]): layer norms, the fused QKV/output
    /// projections and the MLP run as single cross-span GEMMs, while
    /// attention never crosses a span boundary. Each span's rows are
    /// bit-identical to running that span alone.
    ///
    /// # Errors
    ///
    /// Returns a shape error if the channel dimension differs, or an
    /// invalid-argument error for a malformed `spans` (see
    /// [`MultiHeadAttention::forward`]).
    pub fn forward<R: Recorder>(
        &self,
        r: &mut R,
        x: &R::Node,
        spans: &[(usize, usize)],
    ) -> Result<R::Node, TensorError> {
        let n1 = self.norm1.forward(r, x)?;
        let attn_out = self.attn.forward(r, &n1, spans)?;
        let x1 = r.op(Op::Add(x, &attn_out))?;
        let n2 = self.norm2.forward(r, &x1)?;
        let mlp_out = self.mlp.forward(r, &n2)?;
        r.op(Op::Add(&x1, &mlp_out))
    }
}

impl Module for TransformerBlock {
    fn parameters(&self) -> Vec<Tensor> {
        let mut p = self.norm1.parameters();
        p.extend(self.attn.parameters());
        p.extend(self.norm2.parameters());
        p.extend(self.mlp.parameters());
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tape;
    use bliss_tensor::GraphBuilder;
    use bliss_tensor::NdArray;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn mha_preserves_shape() {
        let mut rng = StdRng::seed_from_u64(0);
        let mha = MultiHeadAttention::new(&mut rng, 12, 3);
        let x = Tensor::constant(NdArray::ones(&[7, 12]));
        let y = mha.forward(&mut Tape, &x, &[(0, 7)]).unwrap();
        assert_eq!(y.shape(), vec![7, 12]);
    }

    #[test]
    #[should_panic(expected = "dim must divide")]
    fn mha_requires_divisible_heads() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = MultiHeadAttention::new(&mut rng, 10, 3);
    }

    #[test]
    fn transformer_block_trains() {
        let mut rng = StdRng::seed_from_u64(1);
        let block = TransformerBlock::new(&mut rng, 8, 2);
        let x = Tensor::constant(NdArray::randn(&mut rng, &[5, 8], 1.0));
        let y = block.forward(&mut Tape, &x, &[(0, 5)]).unwrap();
        assert_eq!(y.shape(), vec![5, 8]);
        y.mean_all().backward().unwrap();
        let grads_present = block
            .parameters()
            .iter()
            .filter(|p| p.grad().is_some())
            .count();
        assert_eq!(grads_present, block.parameters().len());
    }

    #[test]
    fn attention_gradcheck() {
        let mut rng = StdRng::seed_from_u64(4);
        let mha = MultiHeadAttention::new(&mut rng, 4, 2);
        let x = NdArray::randn(&mut rng, &[3, 4], 1.0);
        let params = mha.parameters();
        let report = bliss_tensor::check_gradients(
            &params,
            || {
                let xin = Tensor::constant(x.clone());
                let y = |r: &mut Tape| mha.forward(r, &xin, &[(0, 3)]);
                Ok(y(&mut Tape)?.mul(&y(&mut Tape)?)?.mean_all())
            },
            1e-2,
            4,
        )
        .unwrap();
        assert!(report.passes(5e-2), "max rel err {}", report.max_rel_error);
    }

    /// Reference unfused forward: per-head q/k/v GEMMs as three separate
    /// launches, exactly the pre-fusion formulation.
    fn unfused_reference(mha: &MultiHeadAttention, x: &NdArray) -> NdArray {
        let params = mha.parameters();
        let heads = mha.heads();
        let head_dim = mha.dim() / heads;
        let scale = 1.0 / (head_dim as f32).sqrt();
        let mut outs = Vec::new();
        for h in 0..heads {
            let p = &params[6 * h..6 * (h + 1)];
            let q = x
                .matmul(&p[0].value())
                .unwrap()
                .add_row(&p[1].value())
                .unwrap();
            let k = x
                .matmul(&p[2].value())
                .unwrap()
                .add_row(&p[3].value())
                .unwrap();
            let v = x
                .matmul(&p[4].value())
                .unwrap()
                .add_row(&p[5].value())
                .unwrap();
            let attn = q
                .matmul_transposed(&k)
                .unwrap()
                .scale(scale)
                .softmax_rows()
                .unwrap();
            outs.push(attn.matmul(&v).unwrap());
        }
        let concat = NdArray::concat_cols(&outs.iter().collect::<Vec<_>>()).unwrap();
        let wp = params[6 * heads].value().clone();
        let bp = params[6 * heads + 1].value().clone();
        concat.matmul(&wp).unwrap().add_row(&bp).unwrap()
    }

    #[test]
    fn fused_qkv_matches_unfused_reference() {
        let mut rng = StdRng::seed_from_u64(9);
        let mha = MultiHeadAttention::new(&mut rng, 24, 3);
        let x = NdArray::randn(&mut rng, &[11, 24], 1.0);
        let fused = mha
            .forward(&mut Tape, &Tensor::constant(x.clone()), &[(0, 11)])
            .unwrap();
        let reference = unfused_reference(&mha, &x);
        assert!(
            fused.value().approx_eq(&reference, 1e-5),
            "fused QKV output diverged from the unfused formulation"
        );
    }

    #[test]
    fn forward_spans_matches_independent_forwards_bitwise() {
        let mut rng = StdRng::seed_from_u64(10);
        let mha = MultiHeadAttention::new(&mut rng, 12, 3);
        let a = NdArray::randn(&mut rng, &[5, 12], 1.0);
        let b = NdArray::randn(&mut rng, &[3, 12], 1.0);
        let ya = mha
            .forward(&mut Tape, &Tensor::constant(a.clone()), &[(0, 5)])
            .unwrap();
        let yb = mha
            .forward(&mut Tape, &Tensor::constant(b.clone()), &[(0, 3)])
            .unwrap();
        let stacked = NdArray::concat_rows(&[&a, &b]).unwrap();
        let y = mha
            .forward(&mut Tape, &Tensor::constant(stacked), &[(0, 5), (5, 8)])
            .unwrap();
        let yv = y.value();
        assert_eq!(&yv.data()[..5 * 12], ya.value().data());
        assert_eq!(&yv.data()[5 * 12..], yb.value().data());
    }

    #[test]
    fn transformer_block_spans_match_solo_blocks_bitwise() {
        let mut rng = StdRng::seed_from_u64(11);
        let block = TransformerBlock::new(&mut rng, 8, 2);
        let a = NdArray::randn(&mut rng, &[4, 8], 1.0);
        let b = NdArray::randn(&mut rng, &[6, 8], 1.0);
        let ya = block
            .forward(&mut Tape, &Tensor::constant(a.clone()), &[(0, 4)])
            .unwrap();
        let yb = block
            .forward(&mut Tape, &Tensor::constant(b.clone()), &[(0, 6)])
            .unwrap();
        let stacked = NdArray::concat_rows(&[&a, &b]).unwrap();
        let y = block
            .forward(&mut Tape, &Tensor::constant(stacked), &[(0, 4), (4, 10)])
            .unwrap();
        let yv = y.value();
        assert_eq!(&yv.data()[..4 * 8], ya.value().data());
        assert_eq!(&yv.data()[4 * 8..], yb.value().data());
    }

    #[test]
    fn malformed_spans_are_rejected() {
        let mut rng = StdRng::seed_from_u64(12);
        let mha = MultiHeadAttention::new(&mut rng, 8, 2);
        let x = Tensor::constant(NdArray::ones(&[6, 8]));
        for bad in [
            &[][..],
            &[(0, 3)][..],                 // does not cover all rows
            &[(0, 3), (4, 6)][..],         // gap
            &[(0, 4), (3, 6)][..],         // overlap
            &[(0, 3), (3, 3), (3, 6)][..], // empty span
            &[(3, 6), (0, 3)][..],         // out of order
        ] {
            assert!(mha.forward(&mut Tape, &x, bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn spanned_attention_gradcheck() {
        let mut rng = StdRng::seed_from_u64(13);
        let mha = MultiHeadAttention::new(&mut rng, 4, 2);
        let x = NdArray::randn(&mut rng, &[5, 4], 1.0);
        let params = mha.parameters();
        let report = bliss_tensor::check_gradients(
            &params,
            || {
                let xin = Tensor::constant(x.clone());
                Ok(mha.forward(&mut Tape, &xin, &[(0, 2), (2, 5)])?.mean_all())
            },
            1e-2,
            4,
        )
        .unwrap();
        assert!(report.passes(5e-2), "max rel err {}", report.max_rel_error);
    }

    #[test]
    fn parameter_count_matches_formula() {
        let mut rng = StdRng::seed_from_u64(0);
        let mha = MultiHeadAttention::new(&mut rng, 12, 3);
        // 3 heads * 3 projections * (12*4 + 4) + proj (12*12 + 12)
        let expected = 3 * 3 * (12 * 4 + 4) + 12 * 12 + 12;
        assert_eq!(mha.num_parameters(), expected);
    }

    #[test]
    fn recorded_mha_spans_match_forward_bitwise() {
        let mut rng = StdRng::seed_from_u64(20);
        let mha = MultiHeadAttention::new(&mut rng, 12, 3);
        let x = NdArray::randn(&mut rng, &[9, 12], 1.0);
        let spans = [(0, 4), (4, 9)];
        let taped = mha
            .forward(&mut Tape, &Tensor::constant(x.clone()), &spans)
            .unwrap();

        let mut g = GraphBuilder::default();
        let xin = g.input(&[9, 12]);
        let out = mha.forward(&mut g, &xin, &spans).unwrap();
        g.mark_output(out);
        let plan = bliss_tensor::ExecPlan::compile(g).unwrap();
        plan.execute(&[x.data()], &[]).unwrap();
        plan.with_output(0, |data| assert_eq!(data, taped.value().data()));
    }

    #[test]
    fn recorded_transformer_block_matches_forward_bitwise() {
        let mut rng = StdRng::seed_from_u64(21);
        let block = TransformerBlock::new(&mut rng, 8, 2);
        let x = NdArray::randn(&mut rng, &[10, 8], 1.0);
        let spans = [(0, 7), (7, 10)];
        let taped = block
            .forward(&mut Tape, &Tensor::constant(x.clone()), &spans)
            .unwrap();

        let mut g = GraphBuilder::default();
        let xin = g.input(&[10, 8]);
        let out = block.forward(&mut g, &xin, &spans).unwrap();
        g.mark_output(out);
        let plan = bliss_tensor::ExecPlan::compile(g).unwrap();
        plan.execute(&[x.data()], &[]).unwrap();
        plan.with_output(0, |data| assert_eq!(data, taped.value().data()));
    }

    #[test]
    fn planned_block_attention_matches_the_tape_at_any_thread_count() {
        let mut rng = StdRng::seed_from_u64(23);
        let mha = MultiHeadAttention::new(&mut rng, 48, 3);
        let mix = [1usize, 2, 3, 5, 8, 13, 21, 34, 1, 84, 7, 16, 30, 2, 60, 9];
        let mut mixed = Vec::new();
        let mut at = 0;
        for len in mix {
            mixed.push((at, at + len));
            at += len;
        }
        let layouts: [Vec<(usize, usize)>; 5] = [
            vec![(0, 1)],
            vec![(0, 2)],
            vec![(0, 84)],
            vec![(0, 160)],
            mixed,
        ];
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for spans in &layouts {
            let rows = spans.last().unwrap().1;
            let x = NdArray::randn(&mut rng, &[rows, 48], 1.0);
            let taped = mha
                .forward(&mut Tape, &Tensor::constant(x.clone()), spans)
                .unwrap();
            let mut g = GraphBuilder::default();
            let xin = g.input(&[rows, 48]);
            let out = mha.forward(&mut g, &xin, spans).unwrap();
            g.mark_output(out);
            let plan = bliss_tensor::ExecPlan::compile(g).unwrap();
            for threads in [1usize, 2, 8] {
                let planned = bliss_parallel::with_thread_count(threads, || {
                    bliss_parallel::with_min_parallel_work(0, || {
                        plan.execute(&[x.data()], &[]).unwrap();
                        plan.with_output(0, |d| d.to_vec())
                    })
                });
                assert_eq!(
                    bits(&planned),
                    bits(taped.value().data()),
                    "{} spans of {rows} rows, threads = {threads}",
                    spans.len()
                );
            }
        }
    }

    #[test]
    fn recorded_mha_rejects_malformed_spans() {
        let mut rng = StdRng::seed_from_u64(22);
        let mha = MultiHeadAttention::new(&mut rng, 8, 2);
        let mut g = GraphBuilder::default();
        let xin = g.input(&[6, 8]);
        assert!(mha.forward(&mut g, &xin, &[(0, 3)]).is_err());
        assert!(mha.forward(&mut g, &xin, &[(0, 4), (3, 6)]).is_err());
    }
}
