//! Post-training static symmetric int8 quantisation as a graph compile pass.
//!
//! The pipeline has three phases, all operating on the same [`GraphBuilder`]
//! IR the f32 planner consumes (the tape/training path is untouched):
//!
//! 1. **Calibration** ([`QuantCalibration`]): [`QuantCalibration::instrument`]
//!    marks the activation input of every quantisable matmul as an extra plan
//!    output; the caller executes the instrumented plan over a representative
//!    batch set and feeds each tap back through
//!    [`QuantCalibration::observe_plan`], which folds running absolute maxima
//!    per weight site.
//! 2. **Spec build** ([`QuantCalibration::finish`]): per-output-channel
//!    symmetric weight scales (`absmax / 127`, degenerate all-zero channels
//!    fall back to scale 1.0 so nothing divides by zero) and a per-tensor
//!    static activation scale per site, packaged as a [`QuantSpec`].
//! 3. **Graph rewrite** ([`quantize_graph`], exposed through
//!    `ExecPlan::compile_quantized`): every matmul whose right operand is a
//!    parameter (or a column-concatenation of parameters, the fused-QKV
//!    layout) and whose site is in the spec is overwritten in place by one
//!    int8 linear op. The f32 weight nodes it read (the fused layout's
//!    column concatenation included) are then read by nothing, so the
//!    planner, which plans only what an output reaches, never lays them
//!    out.
//!
//! # The int8 linear step
//!
//! The step quantises each row block of its activation into a per-thread
//! buffer of integer-valued `f32` codes, multiplies them by the weight codes
//! on the register-blocked `f32` GEMM kernel, and scales column `j` of the
//! product by `act_scale * weight_scale[j]`. The `f32` GEMM is an exact
//! integer GEMM here: codes lie in `[-127, 127]`, so every product is an
//! integer of magnitude at most `127^2 = 16129`, and every partial sum of
//! `k <= MAX_EXACT_K = 1040` of them stays below `2^24`, where every
//! integer is an `f32`. Each multiply and add is therefore exact, in any
//! order, and the product equals the `i32` accumulator of
//! `quantize_sym_into → bliss_parallel::matmul_i8t_into`; `acc as f32 *
//! scale` then gives the same bits. [`quantize_graph`] rejects a site with
//! a longer reduction. The largest `k` in the paper-scale ViT is 768 (the
//! MLP's down projection, `4 * 192`).
//!
//! Only weight GEMMs quantise. Attention score/value products (activation ×
//! activation), softmax, layer norm and GELU stay f32 — that is the standard
//! post-training-quantisation split and keeps the error budget in the parts
//! the differential harness can actually bound.
//!
//! Determinism: quantisation and dequantisation are elementwise and the
//! GEMM is exact, so a quantised plan is bit-identical across thread counts
//! (whatever the row blocking) and across snapshot/restore as long as the spec is re-derived from the same weights
//! and calibration stream — which is exactly how the serving layer uses it.
#![warn(missing_docs)]

use crate::exec::ExecPlan;
use crate::graph::{GraphBuilder, NodeId, Op};
use crate::TensorError;
use bliss_parallel::math::round_non_negative;
use std::collections::HashMap;
use std::rc::Rc;

/// Largest representable magnitude of the symmetric i8 grid. `-128` is
/// deliberately unused so the grid is symmetric and negation is exact.
pub const QMAX: f32 = 127.0;

/// Symmetric scale for a value range with absolute maximum `absmax`.
///
/// Degenerate ranges (all-zero channels, non-finite maxima) map to `1.0`
/// so downstream `1/scale` never divides by zero.
pub fn symmetric_scale(absmax: f32) -> f32 {
    if absmax.is_finite() && absmax > 0.0 {
        absmax / QMAX
    } else {
        1.0
    }
}

/// Quantises one value: round-to-nearest on the `1/scale` grid, saturating
/// at `±127`.
#[inline]
pub fn quantize_one(x: f32, inv_scale: f32) -> i8 {
    (x * inv_scale).round().clamp(-QMAX, QMAX) as i8
}

/// Symmetric quantisation of a slice under a fixed scale (as `inv_scale =
/// 1/scale`) — the reference the int8 linear step's quantiser is pinned
/// against.
pub fn quantize_sym_into(src: &[f32], inv_scale: f32, out: &mut [i8]) {
    assert_eq!(src.len(), out.len(), "quantize_sym_into length mismatch");
    for (o, &x) in out.iter_mut().zip(src) {
        *o = quantize_one(x, inv_scale);
    }
}

/// [`quantize_one`] as an integer-valued `f32`, branch-free so a loop over
/// it vectorises: a signed round half away from zero,
/// `copysign(trunc(|y| + pred(0.5)), y)` with `y = x * inv_scale`, then the
/// clamp to `±127`. NaN codes to 0, as the `i8` cast saturates it, ±inf to
/// ±127, and `-0.0` to `+0.0`, so the code is `quantize_one(x, inv_scale)
/// as f32` on every input.
#[inline(always)]
pub(crate) fn quantize_code(x: f32, inv_scale: f32) -> f32 {
    let y = x * inv_scale;
    let q = round_non_negative(y.abs()).copysign(y).clamp(-QMAX, QMAX);
    // `+ 0.0` turns a -0 code into +0, the value of `0i8 as f32`.
    if q.is_nan() {
        0.0
    } else {
        q + 0.0
    }
}

/// Largest reduction length for which the int8 linear step's `f32` GEMM is
/// exact: `1040 * 127^2 < 2^24` (see the module docs).
pub const MAX_EXACT_K: usize = 1040;

/// The int8 linear step: `out = dequant(quant(a) x codes)` for `a: [m, k]`,
/// `out: [m, n]`, with `scales[j] = act_scale * weight_scale[j]`.
///
/// Row blocks run on the pool in the `f32` GEMM's 32-row blocks (the result
/// does not depend on the split: the GEMM is exact). An even split measured
/// slower: it puts a parked worker's wake-up on the critical path, where
/// the 32-row blocks leave the submitting thread the larger share. Each
/// block quantises its rows with [`quantize_code`] into the thread's task
/// workspace, runs the `f32` micro-kernel against the weight codes and
/// scales the columns.
pub(crate) fn quant_linear_into(
    a: &[f32],
    inv_scale: f32,
    w: &QuantizedWeights,
    scales: &[f32],
    out: &mut [f32],
) {
    let (k, n) = (w.in_features, w.out_features);
    if out.is_empty() {
        return;
    }
    let block_rows = crate::array::MATMUL_ROW_BLOCK;
    bliss_parallel::par_chunks(out, block_rows * n, k.max(1), |b, out_block| {
        let rows = out_block.len() / n;
        let src = &a[b * block_rows * k..][..rows * k];
        crate::workspace::with_task_buf(rows * k, |codes| {
            for (c, &x) in codes.iter_mut().zip(src) {
                *c = quantize_code(x, inv_scale);
            }
            // Dense kernel: zero codes add exact zeros either way.
            crate::array::matmul_block(codes, &w.codes, k, n, 0, out_block, false);
        });
        for row in out_block.chunks_exact_mut(n) {
            for (o, &s) in row.iter_mut().zip(scales) {
                *o *= s;
            }
        }
    });
}

/// A weight matrix quantised per output channel, its integer codes held as
/// `f32` in the `[in_features, out_features]` row-major layout of the
/// `matmul` right operand, so the int8 linear step runs them on the `f32`
/// micro-kernel. Every plan compiled from one spec shares one copy.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedWeights {
    codes: Vec<f32>,
    in_features: usize,
    out_features: usize,
    scales: Vec<f32>,
}

impl QuantizedWeights {
    /// Quantises a `[k, n]` row-major f32 weight matrix (the `matmul` right
    /// operand layout) with one symmetric scale per output channel (column).
    pub fn from_cols(w: &[f32], k: usize, n: usize) -> Self {
        Self::from_col_blocks(k, &[(w, n)])
    }

    /// Quantises a horizontal concatenation of `[k, n_i]` blocks (the fused
    /// QKV layout: per-head weight columns stacked left to right) without
    /// materialising the concatenated f32 matrix.
    ///
    /// # Panics
    ///
    /// Panics if any block's data length is not `k * n_i`.
    pub fn from_col_blocks(k: usize, blocks: &[(&[f32], usize)]) -> Self {
        let out_features: usize = blocks.iter().map(|&(_, n)| n).sum();
        let mut codes = vec![0f32; k * out_features];
        let mut scales = Vec::with_capacity(out_features);
        let mut col = 0;
        for &(w, n) in blocks {
            assert_eq!(w.len(), k * n, "weight block length must be k * n");
            for oc in 0..n {
                let mut absmax = 0f32;
                for i in 0..k {
                    absmax = absmax.max(w[i * n + oc].abs());
                }
                let scale = symmetric_scale(absmax);
                let inv = 1.0 / scale;
                for i in 0..k {
                    codes[i * out_features + col] = f32::from(quantize_one(w[i * n + oc], inv));
                }
                scales.push(scale);
                col += 1;
            }
        }
        Self {
            codes,
            in_features: k,
            out_features,
            scales,
        }
    }

    /// The integer codes in `[-127, 127]` as `f32`, row-major
    /// `[in_features, out_features]`.
    pub fn codes(&self) -> &[f32] {
        &self.codes
    }

    /// Reduction dimension (`k`).
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output channels (`n`).
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Per-output-channel symmetric scales.
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Reconstructs the f32 weight matrix in `[k, n]` layout — test support
    /// for round-trip error bounds.
    pub fn dequantize(&self) -> Vec<f32> {
        let (k, n) = (self.in_features, self.out_features);
        let mut out = vec![0f32; k * n];
        for oc in 0..n {
            let s = self.scales[oc];
            for i in 0..k {
                out[i * n + oc] = self.codes[i * n + oc] * s;
            }
        }
        out
    }
}

/// One quantised weight site: the quantised block, the static activation
/// scale calibrated for its input, and the pre-multiplied per-column
/// dequantisation scales.
#[derive(Debug, Clone)]
pub struct QuantEntry {
    pub(crate) weights: Rc<QuantizedWeights>,
    pub(crate) act_scale: f32,
    pub(crate) dequant_scales: Rc<Vec<f32>>,
}

impl QuantEntry {
    /// The static activation scale for this site.
    pub fn act_scale(&self) -> f32 {
        self.act_scale
    }

    /// The quantised weight block.
    pub fn weights(&self) -> &QuantizedWeights {
        &self.weights
    }
}

/// Calibrated quantisation parameters for a network, keyed by the identity
/// (`Tensor::id`) of each site's first weight tensor. Because keys are
/// weight identities, one spec built from any batch layout applies to every
/// plan recorded from the same live parameters.
#[derive(Debug, Clone, Default)]
pub struct QuantSpec {
    entries: HashMap<u64, QuantEntry>,
}

impl QuantSpec {
    /// Number of quantised weight sites.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the spec quantises nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entry for a weight-site key, if calibrated.
    pub fn get(&self, key: u64) -> Option<&QuantEntry> {
        self.entries.get(&key)
    }

    pub(crate) fn insert(&mut self, key: u64, entry: QuantEntry) {
        self.entries.insert(key, entry);
    }

    /// Drops a weight site from the spec, returning whether it was present.
    /// Matmuls against that weight then stay in f32 — the standard escape
    /// hatch for precision-critical layers (e.g. a network's input
    /// embedding, whose activation range is dominated by rare bright frames
    /// while its typical inputs are dim).
    pub fn remove(&mut self, key: u64) -> bool {
        self.entries.remove(&key).is_some()
    }
}

/// Where a calibration tap reads its activation from after executing the
/// instrumented plan.
#[derive(Debug, Clone, Copy)]
enum TapSource {
    /// Extra plan output at this index (activation is a computed node).
    Output(usize),
    /// The raw input slot (activation is a graph input, which cannot be
    /// marked as an output; its absolute maximum is read from the bound
    /// input slice directly).
    Input(usize),
}

/// A single instrumented activation: which weight site it calibrates and
/// where to read it.
#[derive(Debug, Clone, Copy)]
pub struct CalTap {
    key: u64,
    source: TapSource,
}

/// A quantisable matmul site discovered in a graph.
struct QuantSite {
    /// Node index of the `MatMul`.
    matmul: usize,
    /// Spec key: identity of the first weight tensor.
    key: u64,
    /// The activation operand.
    a: NodeId,
}

/// Finds every matmul whose right operand is a parameter matrix or a
/// column-concatenation of parameter matrices (fused QKV).
fn find_sites(g: &GraphBuilder) -> Vec<QuantSite> {
    let mut sites = Vec::new();
    for (idx, node) in g.nodes.iter().enumerate() {
        let Op::MatMul { a, b } = node.op else {
            continue;
        };
        let Some(key) = site_key(g, b) else { continue };
        sites.push(QuantSite {
            matmul: idx,
            key,
            a,
        });
    }
    sites
}

/// The spec key for a matmul right operand, if it is quantisable: the
/// identity of its (first) parameter tensor.
fn site_key(g: &GraphBuilder, b: NodeId) -> Option<u64> {
    let param_id = |id: NodeId| -> Option<u64> {
        if let Op::Param { slot } = g.nodes[id.0].op {
            if g.nodes[id.0].shape.len() == 2 {
                return Some(g.params[slot].id());
            }
        }
        None
    };
    match &g.nodes[b.0].op {
        Op::Param { .. } => param_id(b),
        Op::ConcatCols { parts } => {
            if parts.iter().all(|&p| param_id(p).is_some()) {
                param_id(parts[0])
            } else {
                None
            }
        }
        _ => None,
    }
}

/// Resolves a node through alias ops (`Reshape`, `SliceRows`) to its
/// computed/source root.
fn alias_root(g: &GraphBuilder, mut id: NodeId) -> NodeId {
    loop {
        match g.nodes[id.0].op {
            Op::Reshape { a } | Op::SliceRows { a, .. } => id = a,
            _ => return id,
        }
    }
}

/// Running per-site activation ranges, folded over calibration batches.
#[derive(Debug, Clone, Default)]
pub struct QuantCalibration {
    ranges: HashMap<u64, f32>,
}

impl QuantCalibration {
    /// An empty calibration (no sites observed yet).
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks the activation of every quantisable matmul in `g` as an extra
    /// plan output and returns the taps to read back after execution.
    /// Activations that *are* graph inputs are tapped from the bound input
    /// slice instead (inputs cannot be plan outputs).
    ///
    /// Call once per batch layout, compile the instrumented builder, execute
    /// it over representative data, then feed each execution through
    /// [`QuantCalibration::observe_plan`].
    pub fn instrument(g: &mut GraphBuilder) -> Vec<CalTap> {
        let mut taps = Vec::new();
        for site in find_sites(g) {
            let root = alias_root(g, site.a);
            let source = match g.nodes[root.0].op {
                Op::Input { slot } => TapSource::Input(slot),
                // A parameter activation cannot occur in a real forward pass;
                // skip rather than pin a weight as an output.
                Op::Param { .. } => continue,
                _ => {
                    let idx = g.outputs.len();
                    g.mark_output(site.a);
                    TapSource::Output(idx)
                }
            };
            taps.push(CalTap {
                key: site.key,
                source,
            });
        }
        taps
    }

    /// Folds one value slice into the running range for a site key.
    pub fn observe(&mut self, key: u64, data: &[f32]) {
        let absmax = data.iter().fold(0f32, |m, &x| m.max(x.abs()));
        let entry = self.ranges.entry(key).or_insert(0.0);
        *entry = entry.max(absmax);
    }

    /// Reads every tap of one executed instrumented plan (with the inputs it
    /// was executed on) into the running ranges.
    pub fn observe_plan(&mut self, plan: &ExecPlan, inputs: &[&[f32]], taps: &[CalTap]) {
        for tap in taps {
            match tap.source {
                TapSource::Output(i) => {
                    let key = tap.key;
                    plan.with_output(i, |data| self.observe(key, data));
                }
                TapSource::Input(slot) => self.observe(tap.key, inputs[slot]),
            }
        }
    }

    /// Number of distinct sites observed so far.
    pub fn observed_sites(&self) -> usize {
        self.ranges.len()
    }

    /// Builds the quantisation spec for a graph from the folded ranges:
    /// per-output-channel weight scales from the live parameter values,
    /// activation scale per site from the observed absolute maximum. Sites
    /// never observed (no calibration data reached them) are left
    /// unquantised.
    pub fn finish(&self, g: &GraphBuilder) -> QuantSpec {
        let mut spec = QuantSpec::default();
        for site in find_sites(g) {
            if spec.get(site.key).is_some() {
                continue;
            }
            let Some(&absmax) = self.ranges.get(&site.key) else {
                continue;
            };
            let Op::MatMul { b, .. } = g.nodes[site.matmul].op else {
                unreachable!("find_sites only returns matmuls");
            };
            let weights = match &g.nodes[b.0].op {
                Op::Param { slot } => {
                    let shape = &g.nodes[b.0].shape;
                    let (k, n) = (shape[0], shape[1]);
                    let v = g.params[*slot].value();
                    Rc::new(QuantizedWeights::from_cols(v.data(), k, n))
                }
                Op::ConcatCols { parts } => {
                    let k = g.nodes[parts[0].0].shape[0];
                    let values: Vec<_> = parts
                        .iter()
                        .map(|&p| {
                            let Op::Param { slot } = g.nodes[p.0].op else {
                                unreachable!("site_key verified all parts are params");
                            };
                            (g.params[slot].value(), g.nodes[p.0].shape[1])
                        })
                        .collect();
                    let blocks: Vec<(&[f32], usize)> =
                        values.iter().map(|(v, n)| (v.data(), *n)).collect();
                    Rc::new(QuantizedWeights::from_col_blocks(k, &blocks))
                }
                _ => unreachable!("site_key only accepts Param/ConcatCols"),
            };
            let act_scale = symmetric_scale(absmax);
            let dequant_scales = Rc::new(weights.scales().iter().map(|&s| s * act_scale).collect());
            spec.insert(
                site.key,
                QuantEntry {
                    weights,
                    act_scale,
                    dequant_scales,
                },
            );
        }
        spec
    }
}

/// Rewrites a graph in place under a [`QuantSpec`]: every calibrated
/// weight GEMM node becomes one int8 linear op (see the module docs) with
/// the same activation operand and shape. Node ids, input/index slots,
/// parameter slots and outputs are untouched, so the rewritten plan executes
/// on exactly the same bound data as the original; the f32 weight nodes the
/// rewrite leaves unread are dropped by the planner.
///
/// # Errors
///
/// [`TensorError::InvalidArgument`] for a calibrated site whose reduction
/// length exceeds [`MAX_EXACT_K`], where the `f32` GEMM would stop being
/// exact (the graph may then be partly rewritten).
pub fn quantize_graph(g: &mut GraphBuilder, spec: &QuantSpec) -> Result<(), TensorError> {
    for site in find_sites(g) {
        let Some(entry) = spec.get(site.key) else {
            continue;
        };
        let k = g.nodes[site.a.0].shape[1];
        if entry.weights.in_features() != k {
            continue;
        }
        if k > MAX_EXACT_K {
            return Err(TensorError::InvalidArgument {
                op: "quantize_graph",
                message: format!(
                    "int8 site with k = {k} > {MAX_EXACT_K}: its f32 GEMM would not be exact"
                ),
            });
        }
        g.nodes[site.matmul].op = Op::QuantLinear {
            a: site.a,
            inv_scale: 1.0 / entry.act_scale,
            weights: Rc::clone(&entry.weights),
            scales: Rc::clone(&entry.dequant_scales),
        };
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NdArray, Tensor};

    fn param(shape: &[usize], data: Vec<f32>) -> Tensor {
        Tensor::parameter(NdArray::from_vec(data, shape).unwrap())
    }

    fn absmax(v: &[f32]) -> f32 {
        v.iter().fold(0f32, |m, &x| m.max(x.abs()))
    }

    #[test]
    fn weight_round_trip_error_bounded_by_half_scale() {
        let (k, n) = (13, 5);
        let w: Vec<f32> = (0..k * n)
            .map(|i| ((i as f32 * 0.731).sin()) * (1.0 + i as f32 * 0.01))
            .collect();
        let q = QuantizedWeights::from_cols(&w, k, n);
        let back = q.dequantize();
        for oc in 0..n {
            let bound = q.scales()[oc] / 2.0 + 1e-6;
            for i in 0..k {
                let err = (w[i * n + oc] - back[i * n + oc]).abs();
                assert!(err <= bound, "channel {oc} err {err} > {bound}");
            }
        }
    }

    #[test]
    fn zero_maps_to_zero_and_degenerate_channels_do_not_divide_by_zero() {
        // Channel 1 is all zeros: scale falls back to 1.0, values stay 0.
        let w = [0.5f32, 0.0, -0.25, 0.0, 1.0, 0.0];
        let q = QuantizedWeights::from_cols(&w, 3, 2);
        assert_eq!(q.scales()[1], 1.0);
        for i in 0..3 {
            assert_eq!(q.codes()[i * 2 + 1], 0.0);
        }
        assert_eq!(quantize_one(0.0, 123.0), 0);
    }

    #[test]
    fn saturation_clamps_to_i8_extremes() {
        assert_eq!(quantize_one(1e30, 1.0), 127);
        assert_eq!(quantize_one(-1e30, 1.0), -127);
        let s = symmetric_scale(2.0);
        assert_eq!(quantize_one(2.0, 1.0 / s), 127);
        assert_eq!(quantize_one(-2.0, 1.0 / s), -127);
    }

    #[test]
    fn calibration_and_rewrite_match_f32_within_quant_error() {
        // x [4,6] -> matmul param w [6,3] -> add_row bias -> relu
        let w: Vec<f32> = (0..18).map(|i| ((i * 7 % 13) as f32 - 6.0) / 6.0).collect();
        let bias = [0.05f32, -0.1, 0.2];
        let wt = param(&[6, 3], w.clone());
        let bt = param(&[3], bias.to_vec());
        let x: Vec<f32> = (0..24).map(|i| ((i * 5 % 17) as f32 - 8.0) / 4.0).collect();

        let build = |mark: bool| {
            let mut g = GraphBuilder::new();
            let xi = g.input(&[4, 6]);
            let wp = g.param(&wt);
            let bp = g.param(&bt);
            let mm = g.matmul(xi, wp).unwrap();
            let ad = g.add_row(mm, bp).unwrap();
            let out = g.relu(ad);
            if mark {
                g.mark_output(out);
            }
            g
        };

        // f32 reference.
        let plan = ExecPlan::compile(build(true)).unwrap();
        plan.execute(&[&x], &[]).unwrap();
        let reference = plan.with_output(0, |d| d.to_vec());

        // Calibrate (input-slot tap: the activation is the graph input).
        let mut cal = QuantCalibration::new();
        let mut gi = build(true);
        let taps = QuantCalibration::instrument(&mut gi);
        assert_eq!(taps.len(), 1);
        let iplan = ExecPlan::compile(gi).unwrap();
        iplan.execute(&[&x], &[]).unwrap();
        cal.observe_plan(&iplan, &[&x], &taps);
        assert_eq!(cal.observed_sites(), 1);

        let gq = build(true);
        let spec = cal.finish(&gq);
        assert_eq!(spec.len(), 1);
        let qplan = ExecPlan::compile_quantized(build(true), &spec).unwrap();
        qplan.execute(&[&x], &[]).unwrap();
        let quantised = qplan.with_output(0, |d| d.to_vec());

        // Error bound: k * (act_err * |w| + w_err * |x|) per element, loose.
        let entry = spec.get(wt.id()).unwrap();
        let bound = 6.0
            * (entry.act_scale() / 2.0 * absmax(&w)
                + entry
                    .weights()
                    .scales()
                    .iter()
                    .cloned()
                    .fold(0f32, f32::max)
                    / 2.0
                    * absmax(&x))
            + 1e-4;
        assert_eq!(reference.len(), quantised.len());
        for (r, q) in reference.iter().zip(&quantised) {
            assert!((r - q).abs() <= bound, "f32 {r} vs int8 {q}, bound {bound}");
        }
    }

    #[test]
    fn quantize_code_is_quantize_one_on_every_edge() {
        let mut xs = vec![
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            f32::from_bits(1),
            f32::MAX,
            f32::MIN,
            1e30,
            -1e30,
        ];
        // Exact halves after scaling by 16, both signs, saturating ones too.
        for j in -140..140 {
            let half = (j as f32 + 0.5) / 16.0;
            xs.extend([
                half,
                f32::from_bits(half.to_bits() + 1),
                f32::from_bits(half.to_bits() - 1),
            ]);
        }
        for inv_scale in [16.0f32, 1.0 / 3.0, 127.0, 1e-3] {
            for &x in &xs {
                let (code, want) = (quantize_code(x, inv_scale), quantize_one(x, inv_scale));
                assert_eq!(code.to_bits(), f32::from(want).to_bits(), "x = {x:e}");
            }
        }
        // A strided sweep over every bit pattern.
        for i in 0..(1u64 << 32) / 65_537 {
            let x = f32::from_bits((i * 65_537) as u32);
            let (code, want) = (quantize_code(x, 16.0), quantize_one(x, 16.0));
            assert_eq!(code.to_bits(), f32::from(want).to_bits(), "x = {x:e}");
        }
    }

    /// The integer chain the int8 linear step replaces: `quantize_sym_into`,
    /// `matmul_i8t_into` on the transposed `i8` codes, `acc as f32 * scale`.
    fn integer_reference(x: &[f32], entry: &QuantEntry, k: usize, n: usize) -> Vec<f32> {
        let mut qx = vec![0i8; x.len()];
        quantize_sym_into(x, 1.0 / entry.act_scale, &mut qx);
        let codes = entry.weights.codes();
        let mut wt = vec![0i8; k * n];
        for i in 0..k {
            for j in 0..n {
                wt[j * k + i] = codes[i * n + j] as i8;
            }
        }
        let mut acc = vec![0i32; x.len() / k * n];
        bliss_parallel::matmul_i8t_into(&qx, &wt, k, n, &mut acc);
        acc.iter()
            .enumerate()
            .map(|(i, &a)| a as f32 * entry.dequant_scales[i % n])
            .collect()
    }

    /// `x: [m, k]` through a calibrated int8 site with weights `[k, n]`.
    fn int8_site(k: usize, n: usize) -> (Tensor, impl Fn() -> GraphBuilder, QuantSpec) {
        let m = 37;
        let w: Vec<f32> = (0..k * n)
            .map(|i| match i % n {
                // An all-zero channel (scale 1) and a constant-magnitude one
                // (every code ±127, the largest partial sums).
                0 => 0.0,
                1 => {
                    if i % 3 == 0 {
                        -0.5
                    } else {
                        0.5
                    }
                }
                _ => ((i as f32 * 0.618).sin() * 1.7).powi(3),
            })
            .collect();
        let wt = param(&[k, n], w);
        let build = {
            let wt = wt.clone();
            move || {
                let mut g = GraphBuilder::new();
                let xi = g.input(&[m, k]);
                let wp = g.param(&wt);
                let y = g.matmul(xi, wp).unwrap();
                g.mark_output(y);
                g
            }
        };
        // absmax 127/16: the activation scale is exactly 1/16.
        let mut cal = QuantCalibration::new();
        cal.observe(wt.id(), &[127.0 / 16.0]);
        let spec = cal.finish(&build());
        assert_eq!(spec.get(wt.id()).unwrap().act_scale(), 1.0 / 16.0);
        (wt, build, spec)
    }

    #[test]
    fn fused_int8_step_matches_the_integer_chain_bit_for_bit() {
        let n = 19;
        for k in [1usize, 47, 48, 192, 768, 1040] {
            let (wt, build, spec) = int8_site(k, n);
            let m = 37;
            let mut x: Vec<f32> = (0..m * k).map(|i| (i as f32 * 0.377).cos() * 9.0).collect();
            let edges = [
                f32::NAN,
                f32::INFINITY,
                f32::NEG_INFINITY,
                0.0,
                -0.0,
                2.5 / 16.0,
                -2.5 / 16.0,
                126.5 / 16.0,
                -0.5 / 16.0,
                1e30,
                -1e30,
            ];
            for (i, &e) in edges.iter().enumerate() {
                x[(i * 7) % (m * k)] = e;
            }
            // Saturated rows: every code ±127.
            for v in &mut x[k..3 * k] {
                *v = if v.is_sign_negative() { -1e3 } else { 1e3 };
            }
            let plan = ExecPlan::compile_quantized(build(), &spec).unwrap();
            assert_eq!(plan.num_quantized_matmuls(), 1);
            let want = integer_reference(&x, spec.get(wt.id()).unwrap(), k, n);
            for threads in [1usize, 2, 8] {
                let got = bliss_parallel::with_thread_count(threads, || {
                    bliss_parallel::with_min_parallel_work(0, || {
                        plan.execute(&[&x], &[]).unwrap();
                        plan.with_output(0, |d| d.to_vec())
                    })
                });
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "k = {k}, threads = {threads}");
            }
        }
    }

    #[test]
    fn sites_past_the_exact_reduction_length_are_rejected() {
        let (_, build, spec) = int8_site(MAX_EXACT_K + 1, 3);
        let Err(err) = quantize_graph(&mut build(), &spec) else {
            panic!("a k = {} site must be rejected", MAX_EXACT_K + 1);
        };
        assert!(
            matches!(
                err,
                TensorError::InvalidArgument {
                    op: "quantize_graph",
                    ..
                }
            ),
            "{err}"
        );
        assert!(ExecPlan::compile_quantized(build(), &spec).is_err());
    }

    #[test]
    fn rewrite_prunes_dead_weight_nodes_and_handles_fused_qkv() {
        // Fused layout: matmul(x, concat_cols(w0, w1)) like the attention
        // QKV assembly. After the rewrite the Param/ConcatCols weight nodes
        // feed nothing, so the plan holds the int8 linear step alone, and it
        // must still match f32 closely.
        let w0 = param(&[4, 2], (0..8).map(|i| i as f32 / 8.0 - 0.4).collect());
        let w1 = param(&[4, 3], (0..12).map(|i| 0.3 - i as f32 / 11.0).collect());
        let x: Vec<f32> = (0..12).map(|i| (i as f32 - 5.0) / 3.0).collect();

        let build = || {
            let mut g = GraphBuilder::new();
            let xi = g.input(&[3, 4]);
            let p0 = g.param(&w0);
            let p1 = g.param(&w1);
            let wc = g.concat_cols(&[p0, p1]).unwrap();
            let mm = g.matmul(xi, wc).unwrap();
            g.mark_output(mm);
            g
        };

        let plan = ExecPlan::compile(build()).unwrap();
        // f32: the weight concatenation and the matmul.
        assert_eq!(plan.num_steps(), 2);
        plan.execute(&[&x], &[]).unwrap();
        let reference = plan.with_output(0, |d| d.to_vec());

        let mut cal = QuantCalibration::new();
        cal.observe(w0.id(), &x);
        let spec = cal.finish(&build());
        assert_eq!(spec.len(), 1);

        let qplan = ExecPlan::compile_quantized(build(), &spec).unwrap();
        // The ConcatCols weight node yields no step and no arena.
        assert_eq!(qplan.num_quantized_matmuls(), 1);
        assert_eq!(qplan.num_steps(), 1);
        assert_eq!(qplan.arena_len(), 3 * 5);
        qplan.execute(&[&x], &[]).unwrap();
        let quantised = qplan.with_output(0, |d| d.to_vec());
        let entry = spec.get(w0.id()).unwrap();
        let wmax = entry
            .weights()
            .scales()
            .iter()
            .cloned()
            .fold(0f32, f32::max);
        let bound = 4.0 * (entry.act_scale() / 2.0 * 0.5 + wmax / 2.0 * absmax(&x)) + 1e-4;
        for (r, q) in reference.iter().zip(&quantised) {
            assert!((r - q).abs() <= bound, "f32 {r} vs int8 {q}, bound {bound}");
        }
    }
}
