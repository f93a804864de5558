use bliss_nn::{Linear, Module, Op, Recorder, Tape, TransformerBlock};
use bliss_npu::{GemmShape, WorkloadDesc};
use bliss_tensor::{
    kernels, ExecPlan, GraphBuilder, NdArray, PlanCache, PlanCacheStats, QuantCalibration,
    QuantSpec, Tensor, TensorError,
};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::rc::Rc;

/// Configuration of the sparse ViT segmenter (paper §III-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ViTConfig {
    /// Frame width the model segments.
    pub frame_width: usize,
    /// Frame height.
    pub frame_height: usize,
    /// Square patch side in pixels.
    pub patch: usize,
    /// Token channel width.
    pub dim: usize,
    /// Attention heads per MHA module.
    pub heads: usize,
    /// Encoder depth (paper: 12 MHA modules).
    pub enc_depth: usize,
    /// Decoder depth (paper: 2 MHA modules).
    pub dec_depth: usize,
    /// MLP expansion ratio inside each block.
    pub mlp_ratio: usize,
    /// Segmentation classes (OpenEDS: 4).
    pub num_classes: usize,
}

impl ViTConfig {
    /// Paper-scale model: 640x400 frames, 16-pixel patches, 12+2 MHA blocks
    /// with 3 heads and channel size 192 (Strudel et al. Segmenter layout).
    pub fn paper() -> Self {
        ViTConfig {
            frame_width: 640,
            frame_height: 400,
            patch: 16,
            dim: 192,
            heads: 3,
            enc_depth: 12,
            dec_depth: 2,
            // A 2x expansion keeps the sparse ViT ~4x below RITnet-class
            // MACs, matching the paper's §VI-A efficiency quote.
            mlp_ratio: 2,
            num_classes: 4,
        }
    }

    /// Miniature model trainable on a laptop CPU in seconds.
    pub fn miniature(frame_width: usize, frame_height: usize) -> Self {
        ViTConfig {
            frame_width,
            frame_height,
            patch: 10,
            dim: 48,
            heads: 3,
            enc_depth: 2,
            dec_depth: 1,
            mlp_ratio: 4,
            num_classes: 4,
        }
    }

    /// Patch-grid dimensions (partial border patches are zero-padded).
    pub fn grid_dims(&self) -> (usize, usize) {
        (
            self.frame_width.div_ceil(self.patch),
            self.frame_height.div_ceil(self.patch),
        )
    }

    /// Total patches in the grid.
    pub fn num_patches(&self) -> usize {
        let (gw, gh) = self.grid_dims();
        gw * gh
    }

    /// Lowered workload of one **cross-frame batched** inference launch over
    /// `frames` of `(tokens, pixels)` each — the timing model of
    /// [`SparseViT::forward_batch`].
    ///
    /// Every weight GEMM (patch embedding, the fused `[dim, 3*dim]` QKV
    /// projection, output projection, MLP, pixel head) runs *once* over the
    /// summed token rows, amortising array fill/drain and partial row tiles;
    /// the quadratic score/AV products stay per-frame because attention is
    /// block-diagonal and never crosses a frame boundary. For a single frame
    /// the total MAC count equals [`ViTConfig::workload`].
    pub fn batched_workload(&self, frames: &[(usize, usize)]) -> WorkloadDesc {
        let p2 = self.patch * self.patch;
        let hd = self.dim / self.heads.max(1);
        let total_t: usize = frames.iter().map(|&(t, _)| t).sum();
        let total_pixels: usize = frames.iter().map(|&(_, p)| p).sum();
        let mut w = WorkloadDesc::new("sparse-vit-batched");
        w.push_linear(total_t, 2 * p2, self.dim);
        for _ in 0..self.enc_depth {
            w.push_linear(total_t, self.dim, 3 * self.dim);
            for &(t, _) in frames {
                for _ in 0..self.heads {
                    w.gemms.push(GemmShape::activation(t, hd, t));
                    w.gemms.push(GemmShape::activation(t, t, hd));
                }
            }
            w.push_linear(total_t, self.dim, self.dim);
            w.push_linear(total_t, self.dim, self.dim * self.mlp_ratio);
            w.push_linear(total_t, self.dim * self.mlp_ratio, self.dim);
        }
        let total_dec: usize = frames.iter().map(|&(t, _)| t + self.num_classes).sum();
        for _ in 0..self.dec_depth {
            w.push_linear(total_dec, self.dim, 3 * self.dim);
            for &(t, _) in frames {
                let dt = t + self.num_classes;
                for _ in 0..self.heads {
                    w.gemms.push(GemmShape::activation(dt, hd, dt));
                    w.gemms.push(GemmShape::activation(dt, dt, hd));
                }
            }
            w.push_linear(total_dec, self.dim, self.dim);
            w.push_linear(total_dec, self.dim, self.dim * self.mlp_ratio);
            w.push_linear(total_dec, self.dim * self.mlp_ratio, self.dim);
        }
        for &(t, _) in frames {
            w.gemms
                .push(GemmShape::activation(t, self.dim, self.num_classes));
        }
        w.push_linear(total_pixels, 2, self.num_classes);
        w
    }

    /// Lowered workload for `tokens` occupied patches and `pixels`
    /// classification queries (pure shape math — no parameters allocated).
    pub fn workload(&self, tokens: usize, pixels: usize) -> WorkloadDesc {
        let p2 = self.patch * self.patch;
        let mut w = WorkloadDesc::new("sparse-vit");
        w.push_linear(tokens, 2 * p2, self.dim);
        for _ in 0..self.enc_depth {
            w.push_transformer_block_ratio(tokens, self.dim, self.heads, self.mlp_ratio);
        }
        let dec_tokens = tokens + self.num_classes;
        for _ in 0..self.dec_depth {
            w.push_transformer_block_ratio(dec_tokens, self.dim, self.heads, self.mlp_ratio);
        }
        w.gemms
            .push(GemmShape::activation(tokens, self.dim, self.num_classes));
        w.push_linear(pixels, 2, self.num_classes);
        w
    }
}

/// A batch's frames lowered to their transformer inputs and stacked for one
/// launch: every active frame's occupied-patch tokens and per-pixel
/// classification queries, back to back in frame order.
///
/// [`SparseViT::lower`] clears and refills every buffer, so a holder kept
/// across launches grows each buffer to the largest launch it has seen and
/// then allocates nothing.
#[derive(Default)]
struct Lowered {
    /// Per-patch occupancy flags of the frame being lowered.
    occupancy: Vec<f32>,
    /// Per input frame: `None` where no pixel is sampled, else the frame's
    /// slice of the stacked queries.
    frames: Vec<Option<FrameSlice>>,
    /// Active frames' token counts: the span layout and plan-cache key.
    token_counts: Vec<usize>,
    /// `(values, sample-mask)` rows of every kept patch, `[T, 2*p^2]` flat.
    token_data: Vec<f32>,
    /// Patch-grid index of every kept patch, `[T]`.
    kept: Vec<usize>,
    /// Frame-flat index of every sampled pixel, `[S]`.
    pixel_indices: Vec<usize>,
    /// Frame-local token index owning each sampled pixel, `[S]`.
    pixel_token: Vec<usize>,
    /// `(value, 1)` features of the pixel refinement head, `[S, 2]` flat.
    pixel_feats: Vec<f32>,
}

/// One active frame's pixel-query rows and token count in a [`Lowered`]
/// batch.
#[derive(Debug, Clone, Copy)]
struct FrameSlice {
    /// First pixel-query row.
    row: usize,
    /// Pixel-query rows: the frame's sampled pixels.
    rows: usize,
    /// Occupied patch tokens.
    tokens: usize,
}

impl FrameSlice {
    fn rows(&self) -> std::ops::Range<usize> {
        self.row..self.row + self.rows
    }
}

/// Output of one sparse segmentation forward pass.
#[derive(Debug)]
pub struct SegPrediction {
    /// Frame-flat pixel index of every logits row (the sampled pixels).
    pub pixel_indices: Vec<usize>,
    /// Per-pixel class logits, `[S, num_classes]`.
    pub logits: Tensor,
    /// Number of occupied patch tokens the transformer processed — the
    /// quantity that shrinks with sparse sampling and drives compute savings.
    pub tokens: usize,
}

/// First index of the row maximum (ties break low, matching
/// [`NdArray::argmax_rows`]) — shared by every per-pixel class decode so a
/// tie-breaking change cannot silently diverge between them.
fn argmax_row(row: &[f32]) -> usize {
    let mut best = 0usize;
    for (j, &v) in row.iter().enumerate() {
        if v > row[best] {
            best = j;
        }
    }
    best
}

impl SegPrediction {
    /// Per-pixel argmax classes as `(frame_index, class)` pairs.
    pub fn classes(&self) -> Vec<(usize, u8)> {
        let mut out = Vec::new();
        self.classes_into(&mut out);
        out
    }

    /// Writes the per-pixel argmax classes into `out` (cleared first); see
    /// [`PlannedFrameView::classes_into`].
    pub fn classes_into(&self, out: &mut Vec<(usize, u8)>) {
        self.with_view(|view| view.classes_into(out));
    }

    /// Runs `f` on this prediction seen as a [`PlannedFrameView`], the form
    /// of a planned launch's results, so one decode serves both.
    pub fn with_view<T>(&self, f: impl FnOnce(PlannedFrameView<'_>) -> T) -> T {
        let logits = self.logits.value();
        assert_eq!(logits.ndim(), 2, "logits are rank 2");
        f(PlannedFrameView {
            pixel_indices: &self.pixel_indices,
            logits: logits.data(),
            classes: logits.shape()[1],
            tokens: self.tokens,
        })
    }

    /// Expands the sparse classification into a full-frame mask
    /// (background class 0 everywhere else).
    pub fn seg_map(&self, width: usize, height: usize) -> Vec<u8> {
        let mut map = Vec::new();
        self.seg_map_into(width, height, &mut map);
        map
    }

    /// Writes the full-frame mask into `map` (resized and zeroed first), so
    /// a per-stream buffer can be reused across frames.
    pub fn seg_map_into(&self, width: usize, height: usize, map: &mut Vec<u8>) {
        map.clear();
        map.resize(width * height, 0u8);
        let logits = self.logits.value();
        let n = logits.shape()[1];
        for (r, &i) in self.pixel_indices.iter().enumerate() {
            if i < map.len() {
                let row = &logits.data()[r * n..(r + 1) * n];
                map[i] = argmax_row(row) as u8;
            }
        }
    }
}

/// Cached planned-inference state shared by every clone of a [`SparseViT`]
/// (fleet hosts clone the network, so one compiled plan serves all of them).
struct VitPlans {
    /// Compiled execution plans keyed by the batch's token span layout
    /// `[t_1..t_k]` (active frames only).
    cache: PlanCache,
    /// Quantised (int8) plans, same key space as `cache`. Kept separate so
    /// switching precision never mixes plan kinds for one layout.
    qcache: PlanCache,
    /// Calibrated int8 quantisation parameters (weight-site keyed), present
    /// after [`SparseViT::finish_int8_calibration`].
    quant: Option<Rc<QuantSpec>>,
    /// In-progress activation-range calibration.
    calib: Option<QuantCalibration>,
    /// Whether planned inference routes through the quantised plans.
    use_int8: bool,
    /// Pixel-head weight/bias handles cached once so the per-frame
    /// refinement tail reads them without re-collecting parameter vectors.
    pixel_params: Option<(Tensor, Tensor)>,
    /// The planned [`SparseViT::forward_batch`] wrapper's batch holder.
    batch: Option<PlannedBatch>,
}

impl Default for VitPlans {
    fn default() -> Self {
        VitPlans {
            cache: PlanCache::new(),
            qcache: PlanCache::new(),
            quant: None,
            calib: None,
            use_int8: false,
            pixel_params: None,
            batch: Some(PlannedBatch::new()),
        }
    }
}

impl std::fmt::Debug for VitPlans {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VitPlans")
            .field("stats", &self.cache.stats())
            .finish()
    }
}

/// Reusable lowering and output buffers of
/// [`SparseViT::forward_batch_into`], the zero-allocation planned inference
/// entry point.
///
/// The holder owns every buffer a launch lowers into, stacks or writes,
/// grown to the largest launch it has run and never shrunk, so a
/// steady-state launch over span layouts seen before performs **zero heap
/// allocations**, whichever of them it runs. The results of the last call
/// are read through [`PlannedBatch::frame`].
#[derive(Default)]
pub struct PlannedBatch {
    /// The last launch's frames, lowered and stacked.
    lowered: Lowered,
    /// Per-pixel logits of every active frame, `[S, classes]`, row-aligned
    /// with the lowered pixel queries.
    logits: Vec<f32>,
    /// Pixel-head refinement rows, `[S, classes]`.
    refined: Vec<f32>,
    /// Class count of the last run.
    classes: usize,
}

/// Borrowed view of one frame's planned-inference result.
#[derive(Debug, Clone, Copy)]
pub struct PlannedFrameView<'a> {
    /// Frame-flat pixel index of every logits row.
    pub pixel_indices: &'a [usize],
    /// Row-major `[rows, classes]` per-pixel logits.
    pub logits: &'a [f32],
    /// Logits per row.
    pub classes: usize,
    /// Occupied patch tokens the transformer processed for this frame.
    pub tokens: usize,
}

impl PlannedFrameView<'_> {
    /// Writes the per-pixel argmax classes as `(frame_index, class)` pairs
    /// into `out` (cleared first), so a stream can reuse one pair buffer
    /// every frame.
    pub fn classes_into(&self, out: &mut Vec<(usize, u8)>) {
        out.clear();
        let n = self.classes;
        out.reserve(self.pixel_indices.len());
        for (r, &i) in self.pixel_indices.iter().enumerate() {
            out.push((i, argmax_row(&self.logits[r * n..(r + 1) * n]) as u8));
        }
    }
}

impl PlannedBatch {
    /// An empty batch holder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Frames in the last completed batch (including empty ones).
    pub fn len(&self) -> usize {
        self.lowered.frames.len()
    }

    /// Whether the holder has no frames recorded.
    pub fn is_empty(&self) -> bool {
        self.lowered.frames.is_empty()
    }

    /// Class count of the last run's logits rows.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// The `i`-th input frame's result; `None` if that frame had no sampled
    /// pixel.
    pub fn frame(&self, i: usize) -> Option<PlannedFrameView<'_>> {
        let c = self.classes;
        self.lowered.frames[i].map(|f| PlannedFrameView {
            pixel_indices: &self.lowered.pixel_indices[f.rows()],
            logits: &self.logits[f.row * c..(f.row + f.rows) * c],
            classes: c,
            tokens: f.tokens,
        })
    }
}

impl std::fmt::Debug for PlannedBatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlannedBatch")
            .field("frames", &self.len())
            .field("classes", &self.classes)
            .field("logit_rows", &(self.logits.len() / self.classes.max(1)))
            .finish()
    }
}

/// The sparse-robust Vision Transformer segmenter.
///
/// Architecture (paper Fig. 6, Segmenter-style):
///
/// 1. **Patch embedding** — each occupied patch's `(values, sample-mask)`
///    pixels are linearly projected to a token; position embeddings are
///    gathered for the kept patches only. *Empty patches produce no token*,
///    so attention cost falls super-linearly with pixel volume.
/// 2. **Encoder** — `enc_depth` MHA transformer blocks.
/// 3. **Decoder** — learnable class embeddings are appended, `dec_depth`
///    blocks mix them with patch tokens, and patch logits are the scaled dot
///    product between patch tokens and class tokens.
/// 4. **Pixel head** — a tiny per-pixel refinement (`[value, 1] -> classes`)
///    added to the patch logits recovers sub-patch detail (the dark pupil
///    boundary inside a patch).
#[derive(Debug, Clone)]
pub struct SparseViT {
    patch_embed: Linear,
    pos_embed: Tensor,
    encoder: Vec<TransformerBlock>,
    decoder: Vec<TransformerBlock>,
    class_embed: Tensor,
    pixel_head: Linear,
    config: ViTConfig,
    /// Shared planned-inference state; `Rc` so clones (fleet hosts) reuse
    /// one plan cache. Weight *values* may change under a live plan (plans
    /// read the shared parameter tensors); weight shapes are fixed by
    /// `config`.
    plans: Rc<RefCell<VitPlans>>,
}

impl SparseViT {
    /// Creates the model with random initialisation.
    pub fn new<R: Rng + ?Sized>(rng: &mut R, config: ViTConfig) -> Self {
        let p2 = config.patch * config.patch;
        SparseViT {
            patch_embed: Linear::new(rng, 2 * p2, config.dim),
            pos_embed: Tensor::parameter(NdArray::randn(
                rng,
                &[config.num_patches(), config.dim],
                0.02,
            )),
            encoder: (0..config.enc_depth)
                .map(|_| {
                    TransformerBlock::with_mlp_ratio(
                        rng,
                        config.dim,
                        config.heads,
                        config.mlp_ratio,
                    )
                })
                .collect(),
            decoder: (0..config.dec_depth)
                .map(|_| {
                    TransformerBlock::with_mlp_ratio(
                        rng,
                        config.dim,
                        config.heads,
                        config.mlp_ratio,
                    )
                })
                .collect(),
            class_embed: Tensor::parameter(NdArray::randn(
                rng,
                &[config.num_classes, config.dim],
                0.02,
            )),
            pixel_head: Linear::new(rng, 2, config.num_classes),
            config,
            plans: Rc::new(RefCell::new(VitPlans::default())),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &ViTConfig {
        &self.config
    }

    /// Segments a sparse frame.
    ///
    /// `image` is the full-frame sparse image (zeros at unsampled pixels) and
    /// `sampled` the 0/1 sampling mask, both `width*height` long. Returns
    /// `None` when no pixel is sampled (e.g. mid-blink with an empty ROI).
    ///
    /// Equivalent to [`SparseViT::forward_batch`] with a single frame — both
    /// paths share the same kernels, so solo and batched results are
    /// bit-identical.
    ///
    /// # Errors
    ///
    /// Returns shape errors if the buffers do not match the configured frame.
    pub fn forward(
        &self,
        image: &[f32],
        sampled: &[f32],
    ) -> Result<Option<SegPrediction>, TensorError> {
        Ok(self
            .forward_batch(&[(image, sampled)])?
            .pop()
            .expect("one output per input frame"))
    }

    /// Lowers every frame into `out` (cleared first), in frame order.
    /// Returns `false` when no frame samples a pixel.
    fn lower(&self, frames: &[(&[f32], &[f32])], out: &mut Lowered) -> Result<bool, TensorError> {
        out.frames.clear();
        out.token_counts.clear();
        out.token_data.clear();
        out.kept.clear();
        out.pixel_indices.clear();
        out.pixel_token.clear();
        out.pixel_feats.clear();
        for (image, sampled) in frames {
            let frame = self.lower_frame(image, sampled, out)?;
            out.frames.push(frame);
        }
        Ok(!out.token_counts.is_empty())
    }

    /// Appends one frame's occupied-patch tokens and pixel queries to `out`.
    /// Returns `None` when no pixel is sampled.
    fn lower_frame(
        &self,
        image: &[f32],
        sampled: &[f32],
        out: &mut Lowered,
    ) -> Result<Option<FrameSlice>, TensorError> {
        let (w, h) = (self.config.frame_width, self.config.frame_height);
        if image.len() != w * h || sampled.len() != w * h {
            return Err(TensorError::InvalidArgument {
                op: "sparse_vit_forward",
                message: format!(
                    "expected {} pixels, got image {} / mask {}",
                    w * h,
                    image.len(),
                    sampled.len()
                ),
            });
        }
        let p = self.config.patch;
        let (gw, gh) = self.config.grid_dims();
        let p2 = p * p;

        // Pass 1: parallel occupancy scan — one read-only task per patch
        // (cost hint: a patch scans up to p^2 mask pixels, so miniature
        // grids stay on the calling thread), one write per patch into its
        // own chunk.
        out.occupancy.clear();
        out.occupancy.resize(gw * gh, 0.0);
        bliss_parallel::par_chunks(&mut out.occupancy, 1, p2, |patch_idx, chunk| {
            let (gy, gx) = (patch_idx / gw, patch_idx % gw);
            chunk[0] = 0.0;
            'scan: for dy in 0..p {
                let y = gy * p + dy;
                if y >= h {
                    break;
                }
                let row = &sampled[y * w..y * w + w];
                for dx in 0..p {
                    let x = gx * p + dx;
                    if x >= w {
                        break;
                    }
                    if row[x] > 0.0 {
                        chunk[0] = 1.0;
                        break 'scan;
                    }
                }
            }
        });
        let first = out.kept.len();
        let occupancy = &out.occupancy;
        out.kept
            .extend((0..gw * gh).filter(|&i| occupancy[i] > 0.0));
        let kept = &out.kept[first..];
        let t = kept.len();
        if t == 0 {
            return Ok(None);
        }

        // Pass 2: parallel token gather — each kept patch fills its own
        // `(values, sample-mask)` slice of the batched embedding input.
        let start = out.token_data.len();
        out.token_data.resize(start + t * 2 * p2, 0.0);
        bliss_parallel::par_chunks(&mut out.token_data[start..], 2 * p2, 1, |token, chunk| {
            let patch_idx = kept[token];
            let (gy, gx) = (patch_idx / gw, patch_idx % gw);
            let (values, mask) = chunk.split_at_mut(p2);
            for dy in 0..p {
                let y = gy * p + dy;
                if y >= h {
                    break;
                }
                for dx in 0..p {
                    let x = gx * p + dx;
                    if x >= w {
                        break;
                    }
                    let fi = y * w + x;
                    values[dy * p + dx] = image[fi];
                    mask[dy * p + dx] = sampled[fi];
                }
            }
        });

        // Pass 3: register sampled pixels as classification queries (serial:
        // the outputs are variable-length appends, and only kept patches are
        // visited).
        let row = out.pixel_indices.len();
        for (token, &patch_idx) in kept.iter().enumerate() {
            let (gy, gx) = (patch_idx / gw, patch_idx % gw);
            for dy in 0..p {
                let y = gy * p + dy;
                if y >= h {
                    break;
                }
                for dx in 0..p {
                    let x = gx * p + dx;
                    if x >= w {
                        break;
                    }
                    let fi = y * w + x;
                    if sampled[fi] > 0.0 {
                        out.pixel_indices.push(fi);
                        out.pixel_token.push(token);
                        out.pixel_feats.push(image[fi]);
                        out.pixel_feats.push(1.0);
                    }
                }
            }
        }
        out.token_counts.push(t);
        Ok(Some(FrameSlice {
            row,
            rows: out.pixel_indices.len() - row,
            tokens: t,
        }))
    }

    /// Segments a batch of sparse frames with **cross-frame batched
    /// inference**: the patch embedding, every transformer projection/MLP and
    /// the pixel head run as *one* GEMM over all frames' tokens, while
    /// attention stays block-diagonal per frame (see
    /// [`bliss_nn::TransformerBlock::forward`]). One set of kernel
    /// launches replaces K — the serving runtime's hot path.
    ///
    /// Every output is **bit-identical** to running its frame through
    /// [`SparseViT::forward`] alone: each per-row kernel accumulates in an
    /// order independent of the surrounding batch, and attention never
    /// crosses a frame boundary.
    ///
    /// Frames with no sampled pixel yield `None` at their position.
    ///
    /// # Errors
    ///
    /// Returns shape errors if any buffer does not match the configured
    /// frame.
    pub fn forward_batch(
        &self,
        frames: &[(&[f32], &[f32])],
    ) -> Result<Vec<Option<SegPrediction>>, TensorError> {
        if bliss_tensor::in_inference_mode() {
            return self.forward_batch_planned(frames);
        }
        let mut batch = Lowered::default();
        if !self.lower(frames, &mut batch)? {
            return Ok(frames.iter().map(|_| None).collect());
        }
        // The stacked f32 inputs move into the graph; the position gather
        // keeps its own copy of the kept indices for backward.
        let p2 = self.config.patch * self.config.patch;
        let token_data = std::mem::take(&mut batch.token_data);
        let tokens_in =
            Tensor::constant(NdArray::from_vec(token_data, &[batch.kept.len(), 2 * p2])?);
        let patch_logits =
            self.token_pass(&mut Tape, &tokens_in, &batch.kept, &batch.token_counts)?;

        // Pixel head: one GEMM over every frame's sampled-pixel features.
        let s_total = batch.pixel_indices.len();
        let pixel_feats = std::mem::take(&mut batch.pixel_feats);
        let feats = Tensor::constant(NdArray::from_vec(pixel_feats, &[s_total, 2])?);
        let refined_all = self.pixel_head.forward(&mut Tape, &feats)?;

        // Per-frame decode: expand each frame's patch logits to its pixel
        // queries and add the refinement rows.
        let mut patch_logits = patch_logits.into_iter();
        batch
            .frames
            .iter()
            .map(|f| {
                let Some(f) = f else { return Ok(None) };
                let expanded = patch_logits
                    .next()
                    .expect("one patch-logits node per active frame")
                    .gather_rows(&batch.pixel_token[f.rows()])?;
                let refined = refined_all.slice_rows(f.row, f.row + f.rows)?;
                Ok(Some(SegPrediction {
                    pixel_indices: batch.pixel_indices[f.rows()].to_vec(),
                    logits: expanded.add(&refined)?,
                    tokens: f.tokens,
                }))
            })
            .collect()
    }

    /// The cross-frame batched token pass, written once for both recorders:
    /// patch embedding + position gather, block-diagonal encoder, per-frame
    /// class-embedding append, decoder, and per-frame scaled patch-x-class
    /// logits, one `[t, classes]` node per active frame. The per-pixel tail
    /// is left out: its row count changes every frame, which would defeat
    /// the shape-keyed plan cache.
    fn token_pass<R: Recorder>(
        &self,
        r: &mut R,
        tokens_in: &R::Node,
        kept: &R::Indices,
        token_counts: &[usize],
    ) -> Result<Vec<R::Node>, TensorError> {
        let classes = self.config.num_classes;
        let pos_embed = r.param(&self.pos_embed);
        let pos = r.op(Op::GatherRows(&pos_embed, kept))?;
        let emb = self.patch_embed.forward(r, tokens_in)?;
        let mut x = r.op(Op::Add(&emb, &pos))?;

        let mut enc_spans = Vec::with_capacity(token_counts.len());
        let mut cursor = 0usize;
        for &t in token_counts {
            enc_spans.push((cursor, cursor + t));
            cursor += t;
        }
        for block in &self.encoder {
            x = block.forward(r, &x, &enc_spans)?;
        }

        // Decoder: each frame's token rows get their own copy of the class
        // embeddings appended; spans grow by `classes` rows.
        let class_embed = r.param(&self.class_embed);
        let mut dec_parts = Vec::with_capacity(2 * token_counts.len());
        let mut dec_spans = Vec::with_capacity(token_counts.len());
        let mut dec_cursor = 0usize;
        for &(s, e) in &enc_spans {
            dec_parts.push(r.op(Op::SliceRows(&x, s, e))?);
            dec_parts.push(class_embed.clone());
            dec_spans.push((dec_cursor, dec_cursor + (e - s) + classes));
            dec_cursor += (e - s) + classes;
        }
        let mut d = r.op(Op::ConcatRows(&dec_parts))?;
        for block in &self.decoder {
            d = block.forward(r, &d, &dec_spans)?;
        }

        let inv = 1.0 / (self.config.dim as f32).sqrt();
        let mut logits = Vec::with_capacity(token_counts.len());
        for (&t, &(ds, de)) in token_counts.iter().zip(&dec_spans) {
            let patch = r.op(Op::SliceRows(&d, ds, ds + t))?;
            let cls = r.op(Op::SliceRows(&d, ds + t, de))?;
            let cls_t = r.op(Op::Transpose(&cls))?;
            let mm = r.op(Op::MatMul(&patch, &cls_t))?;
            logits.push(r.op(Op::Scale(&mm, inv))?);
        }
        Ok(logits)
    }

    /// Records [`SparseViT::token_pass`] for one span layout (input 0: the
    /// stacked tokens; index input 0: the kept indices; one output per
    /// active frame). The caller compiles, instruments or quantises it.
    fn token_graph(&self, token_counts: &[usize]) -> Result<GraphBuilder, TensorError> {
        let p2 = self.config.patch * self.config.patch;
        let total: usize = token_counts.iter().sum();
        let mut g = GraphBuilder::default();
        let tokens_in = g.input(&[total, 2 * p2]);
        let kept = g.index_input(total);
        for logits in self.token_pass(&mut g, &tokens_in, &kept, token_counts)? {
            g.mark_output(logits);
        }
        Ok(g)
    }

    /// The planned counterpart of the tape `forward_batch` body: runs
    /// [`SparseViT::forward_batch_into`] on the shared batch holder and
    /// copies each frame's result into a [`SegPrediction`].
    fn forward_batch_planned(
        &self,
        frames: &[(&[f32], &[f32])],
    ) -> Result<Vec<Option<SegPrediction>>, TensorError> {
        // Take the holder out of the shared state so `forward_batch_into`
        // can borrow the plan cache without a double RefCell borrow.
        let mut batch = self.plans.borrow_mut().batch.take().unwrap_or_default();
        let result = self.forward_batch_into(frames, &mut batch).and_then(|()| {
            (0..batch.len())
                .map(|i| {
                    let Some(f) = batch.frame(i) else {
                        return Ok(None);
                    };
                    let logits =
                        NdArray::from_vec(f.logits.to_vec(), &[f.pixel_indices.len(), f.classes])?;
                    Ok(Some(SegPrediction {
                        pixel_indices: f.pixel_indices.to_vec(),
                        logits: Tensor::constant(logits),
                        tokens: f.tokens,
                    }))
                })
                .collect()
        });
        self.plans.borrow_mut().batch = Some(batch);
        result
    }

    /// Segments a batch of sparse frames through the **compiled planned
    /// path**, writing every result into the reusable `out` holder.
    ///
    /// The token pass executes a cached [`ExecPlan`] keyed by the batch's
    /// span layout `[t_1..t_k]` (compiled on first sight of a layout); the
    /// variable-row pixel refinement tail runs as direct
    /// [`bliss_tensor::kernels`] calls on `out`'s own buffers. In steady
    /// state — span layouts seen before, through a holder that has run a
    /// launch at least as large — one call performs **zero heap
    /// allocations**, and every frame's logits are
    /// bit-identical to the tape [`SparseViT::forward_batch`] at any thread
    /// count (the plan dispatches to the same slice-level kernels).
    ///
    /// # Errors
    ///
    /// Returns shape errors if any buffer does not match the configured
    /// frame.
    pub fn forward_batch_into(
        &self,
        frames: &[(&[f32], &[f32])],
        out: &mut PlannedBatch,
    ) -> Result<(), TensorError> {
        let classes = self.config.num_classes;
        out.classes = classes;
        out.logits.clear();
        if !self.lower(frames, &mut out.lowered)? {
            return Ok(());
        }
        let lowered = &out.lowered;

        // Look up (or compile) the plan for this span layout.
        let plan = {
            let mut plans = self.plans.borrow_mut();
            let counts = &lowered.token_counts;
            if plans.use_int8 {
                let spec = plans
                    .quant
                    .clone()
                    .expect("use_int8 implies a finished calibration spec");
                plans.qcache.get_or_build(counts, || {
                    let g = self.token_graph(counts)?;
                    ExecPlan::compile_quantized(g, &spec)
                })?
            } else {
                plans
                    .cache
                    .get_or_build(counts, || ExecPlan::compile(self.token_graph(counts)?))?
            }
        };
        plan.execute(&[&lowered.token_data], &[&lowered.kept])?;

        // Pixel refinement head: one GEMM over every frame's sampled-pixel
        // features.
        let s_total = lowered.pixel_indices.len();
        let (pw, pb) = {
            let mut plans = self.plans.borrow_mut();
            if plans.pixel_params.is_none() {
                let p = self.pixel_head.parameters();
                plans.pixel_params = Some((p[0].clone(), p[1].clone()));
            }
            plans.pixel_params.clone().expect("just initialised")
        };
        out.refined.clear();
        out.refined.resize(s_total * classes, 0.0);
        kernels::matmul_into(
            &lowered.pixel_feats,
            pw.value().data(),
            2,
            classes,
            &mut out.refined,
        );
        kernels::add_row_assign(&mut out.refined, pb.value().data());

        // Per-frame decode: expand each frame's patch logits (a plan
        // output) to its pixel queries and add the refinement rows.
        out.logits.resize(s_total * classes, 0.0);
        for (slot, f) in lowered.frames.iter().flatten().enumerate() {
            let rows = f.row * classes..(f.row + f.rows) * classes;
            let dst = &mut out.logits[rows.clone()];
            plan.with_output(slot, |data| {
                kernels::gather_rows_into(
                    data,
                    f.tokens,
                    classes,
                    &lowered.pixel_token[f.rows()],
                    dst,
                )
            })?;
            for (l, &r) in dst.iter_mut().zip(&out.refined[rows]) {
                *l += r;
            }
        }
        Ok(())
    }

    /// Plan-cache traffic/occupancy counters of the shared planned state
    /// (soak harnesses gate on `plans`/`arena_elems` staying bounded).
    pub fn plan_stats(&self) -> PlanCacheStats {
        self.plans.borrow().cache.stats()
    }

    /// Plan-cache counters for the **quantised** (int8) plan cache.
    pub fn quant_plan_stats(&self) -> PlanCacheStats {
        self.plans.borrow().qcache.stats()
    }

    /// Starts (or restarts) post-training int8 calibration: clears any
    /// previous activation ranges, quantisation spec and quantised plans,
    /// and drops back to f32 inference until
    /// [`Self::finish_int8_calibration`] runs.
    pub fn begin_int8_calibration(&self) {
        let mut plans = self.plans.borrow_mut();
        plans.calib = Some(QuantCalibration::new());
        plans.quant = None;
        plans.use_int8 = false;
        plans.qcache.clear();
    }

    /// Feeds one batch of frames through an **instrumented** f32 plan and
    /// folds each quantisable matmul's activation absmax into the running
    /// calibration. Frames use the same `(image, sampled)` convention as
    /// [`Self::forward_batch`]; all-static frames contribute nothing.
    ///
    /// This is an offline pass: the instrumented plan pins every tapped
    /// activation as an extra output and is compiled per call, not cached.
    ///
    /// # Errors
    ///
    /// Returns shape errors if a buffer does not match the configured
    /// frame, or plan compile/execute errors.
    pub fn observe_int8_calibration(&self, frames: &[(&[f32], &[f32])]) -> Result<(), TensorError> {
        let mut batch = Lowered::default();
        if !self.lower(frames, &mut batch)? {
            return Ok(());
        }
        let mut g = self.token_graph(&batch.token_counts)?;
        let taps = QuantCalibration::instrument(&mut g);
        let plan = ExecPlan::compile(g)?;
        plan.execute(&[&batch.token_data], &[&batch.kept])?;
        let mut plans = self.plans.borrow_mut();
        let calib = plans.calib.get_or_insert_with(QuantCalibration::new);
        calib.observe_plan(&plan, &[&batch.token_data], &taps);
        Ok(())
    }

    /// Freezes the observed activation ranges into per-channel symmetric
    /// int8 weight scales + per-site activation scales, stores the spec,
    /// and returns the number of quantised matmul sites. Does **not** flip
    /// inference to int8 — call [`Self::set_int8`] for that.
    ///
    /// Deterministic: the spec depends only on the live weight values and
    /// the observed ranges, so re-running calibration over the same frames
    /// after a snapshot restore reproduces it bit-for-bit.
    ///
    /// # Errors
    ///
    /// Returns `InvalidArgument` if no calibration is in progress or no
    /// batch was observed.
    pub fn finish_int8_calibration(&self) -> Result<usize, TensorError> {
        let g = self.token_graph(&[1])?;
        let mut plans = self.plans.borrow_mut();
        let calib = plans
            .calib
            .take()
            .ok_or_else(|| TensorError::InvalidArgument {
                op: "finish_int8_calibration",
                message: "no calibration in progress (call begin_int8_calibration \
                      and observe at least one batch first)"
                    .to_string(),
            })?;
        if calib.observed_sites() == 0 {
            return Err(TensorError::InvalidArgument {
                op: "finish_int8_calibration",
                message: "no activation ranges observed (every calibration batch \
                          was empty or all-static)"
                    .to_string(),
            });
        }
        let mut spec = calib.finish(&g);
        // The patch embedding stays f32: its activation range is set by
        // cold-start full-frame reads, so the dim sparse frames that
        // dominate steady-state tracking would quantise coarsely at the
        // very first layer (classic first-layer exclusion). Its share of
        // the model's MACs is small, so the energy win is untouched.
        spec.remove(self.patch_embed.parameters()[0].id());
        let sites = spec.len();
        plans.quant = Some(Rc::new(spec));
        plans.qcache.clear();
        Ok(sites)
    }

    /// Routes planned inference through the quantised int8 plans (`true`)
    /// or the f32 plans (`false`). The tape path (training) always stays
    /// f32. The flag lives on the shared planned state, so it applies to
    /// every clone of this model.
    ///
    /// # Errors
    ///
    /// Returns `InvalidArgument` when enabling without a finished
    /// calibration spec.
    pub fn set_int8(&self, enable: bool) -> Result<(), TensorError> {
        let mut plans = self.plans.borrow_mut();
        if enable && plans.quant.is_none() {
            return Err(TensorError::InvalidArgument {
                op: "set_int8",
                message: "no int8 quantisation spec: run calibration first".to_string(),
            });
        }
        plans.use_int8 = enable;
        Ok(())
    }

    /// Whether planned inference currently runs the int8 path.
    pub fn int8_enabled(&self) -> bool {
        self.plans.borrow().use_int8
    }

    /// Number of calibrated quantisation sites (0 before calibration).
    pub fn int8_sites(&self) -> usize {
        self.plans.borrow().quant.as_ref().map_or(0, |s| s.len())
    }
}

impl Module for SparseViT {
    fn parameters(&self) -> Vec<Tensor> {
        let mut p = self.patch_embed.parameters();
        p.push(self.pos_embed.clone());
        for b in &self.encoder {
            p.extend(b.parameters());
        }
        for b in &self.decoder {
            p.extend(b.parameters());
        }
        p.push(self.class_embed.clone());
        p.extend(self.pixel_head.parameters());
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny() -> SparseViT {
        let mut rng = StdRng::seed_from_u64(0);
        let cfg = ViTConfig {
            frame_width: 40,
            frame_height: 30,
            patch: 10,
            dim: 16,
            heads: 2,
            enc_depth: 1,
            dec_depth: 1,
            mlp_ratio: 4,
            num_classes: 4,
        };
        SparseViT::new(&mut rng, cfg)
    }

    #[test]
    fn dense_mask_keeps_all_patches() {
        let vit = tiny();
        let image = vec![0.5f32; 1200];
        let mask = vec![1.0f32; 1200];
        let pred = vit.forward(&image, &mask).unwrap().unwrap();
        assert_eq!(pred.tokens, vit.config().num_patches());
        assert_eq!(pred.pixel_indices.len(), 1200);
        assert_eq!(pred.logits.shape(), vec![1200, 4]);
    }

    #[test]
    fn empty_mask_returns_none() {
        let vit = tiny();
        let image = vec![0.0f32; 1200];
        let mask = vec![0.0f32; 1200];
        assert!(vit.forward(&image, &mask).unwrap().is_none());
    }

    #[test]
    fn sparse_mask_drops_tokens() {
        let vit = tiny();
        let image = vec![0.5f32; 1200];
        let mut mask = vec![0.0f32; 1200];
        // Sample a single pixel: exactly one patch stays.
        mask[15 * 40 + 25] = 1.0;
        let pred = vit.forward(&image, &mask).unwrap().unwrap();
        assert_eq!(pred.tokens, 1);
        assert_eq!(pred.pixel_indices, vec![15 * 40 + 25]);
    }

    #[test]
    fn batched_workload_macs_match_solo_and_attention_stays_per_frame() {
        let cfg = ViTConfig::paper();
        // A single frame's batched launch costs exactly the solo workload.
        assert_eq!(
            cfg.batched_workload(&[(108, 6851)]).total_macs(),
            cfg.workload(108, 6851).total_macs()
        );
        // A K-frame batch costs exactly K solo launches in MACs (the fused
        // GEMMs save *launches*, not arithmetic), and far less than one
        // monolithic launch over the summed tokens, whose attention would be
        // quadratic in K*t.
        let k = 8usize;
        let batch: Vec<(usize, usize)> = (0..k).map(|_| (108, 6851)).collect();
        let batched = cfg.batched_workload(&batch).total_macs();
        assert_eq!(batched, k as u64 * cfg.workload(108, 6851).total_macs());
        let monolithic = cfg.workload(108 * k, 6851 * k).total_macs();
        assert!(batched < (monolithic * 7) / 10, "{batched} vs {monolithic}");
    }

    #[test]
    fn batched_workload_fuses_weight_launches() {
        // What the per-GEMM dispatch overhead amortises: a K-frame batch
        // launches every weight GEMM once, so it dispatches far fewer
        // kernels than K solo launches — only the block-diagonal attention
        // products (and the per-frame seg-head query) stay per frame.
        let cfg = ViTConfig::paper();
        let solo = cfg.batched_workload(&[(108, 6851)]).launches();
        let k = 8usize;
        let batch: Vec<(usize, usize)> = (0..k).map(|_| (108, 6851)).collect();
        let batched = cfg.batched_workload(&batch).launches();
        assert!(batched < k * solo, "{batched} vs {k}x{solo}");
        // 4 fused weight GEMMs per transformer block + patch embedding +
        // pixel head never multiply with K — exactly those launches are
        // saved, (k-1) times over.
        let blocks = cfg.enc_depth + cfg.dec_depth;
        assert_eq!(k * solo - batched, (k - 1) * (4 * blocks + 2));
    }

    #[test]
    fn macs_shrink_with_tokens() {
        let cfg = *tiny().config();
        let dense = cfg.workload(12, 1200).total_macs();
        let sparse = cfg.workload(3, 100).total_macs();
        assert!(sparse < dense / 3);
    }

    #[test]
    fn classes_and_seg_map_agree() {
        let vit = tiny();
        let image = vec![0.5f32; 1200];
        let mut mask = vec![0.0f32; 1200];
        mask[0] = 1.0;
        mask[700] = 1.0;
        let pred = vit.forward(&image, &mask).unwrap().unwrap();
        let classes = pred.classes();
        assert_eq!(classes.len(), 2);
        let map = pred.seg_map(40, 30);
        for (i, c) in classes {
            assert_eq!(map[i], c);
        }
    }

    #[test]
    fn trainable_gradients_flow_everywhere() {
        let vit = tiny();
        let image = vec![0.4f32; 1200];
        let mask = vec![1.0f32; 1200];
        let pred = vit.forward(&image, &mask).unwrap().unwrap();
        let targets = vec![1usize; pred.pixel_indices.len()];
        let ones = Tensor::constant(NdArray::ones(&[targets.len()]));
        let loss = pred
            .logits
            .cross_entropy_rows_gated(&targets, &ones)
            .unwrap();
        loss.backward().unwrap();
        let with_grads = vit
            .parameters()
            .iter()
            .filter(|p| p.grad().is_some())
            .count();
        // Position embeddings for dropped patches get no gradient only when
        // patches are dropped; with a dense mask everything has gradients.
        assert_eq!(with_grads, vit.parameters().len());
    }

    #[test]
    fn rejects_wrong_buffer_size() {
        let vit = tiny();
        assert!(vit.forward(&[0.0; 10], &[0.0; 10]).is_err());
        assert!(vit
            .forward_batch(&[(&[0.0; 10][..], &[0.0; 10][..])])
            .is_err());
    }

    /// Builds a deterministic pseudo-random sparse frame.
    fn synth_frame(seed: u64, rate: f32) -> (Vec<f32>, Vec<f32>) {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut image = vec![0.0f32; 1200];
        let mut mask = vec![0.0f32; 1200];
        for i in 0..1200 {
            if rng.gen::<f32>() < rate {
                mask[i] = 1.0;
                image[i] = rng.gen::<f32>();
            }
        }
        (image, mask)
    }

    #[test]
    fn forward_batch_is_bit_identical_to_solo_forwards() {
        let vit = tiny();
        // Mixed batch: dense, sparse, empty, single-pixel frames.
        let dense = synth_frame(1, 1.0);
        let sparse = synth_frame(2, 0.05);
        let empty = (vec![0.0f32; 1200], vec![0.0f32; 1200]);
        let mut single = (vec![0.0f32; 1200], vec![0.0f32; 1200]);
        single.0[777] = 0.3;
        single.1[777] = 1.0;
        let frames = [&dense, &sparse, &empty, &single];
        let batch: Vec<(&[f32], &[f32])> = frames.iter().map(|f| (&f.0[..], &f.1[..])).collect();
        let batched = vit.forward_batch(&batch).unwrap();
        assert_eq!(batched.len(), 4);
        assert!(batched[2].is_none(), "empty frame must yield None");
        for (i, f) in frames.iter().enumerate() {
            let solo = vit.forward(&f.0, &f.1).unwrap();
            match (&batched[i], &solo) {
                (Some(b), Some(s)) => {
                    assert_eq!(b.pixel_indices, s.pixel_indices);
                    assert_eq!(b.tokens, s.tokens);
                    assert_eq!(
                        b.logits.value().data(),
                        s.logits.value().data(),
                        "frame {i} logits must be bit-identical"
                    );
                }
                (None, None) => {}
                _ => panic!("frame {i}: batched/solo presence disagrees"),
            }
        }
    }

    #[test]
    fn forward_batch_is_thread_count_invariant() {
        let vit = tiny();
        let a = synth_frame(5, 0.1);
        let b = synth_frame(6, 0.3);
        let batch: Vec<(&[f32], &[f32])> = [&a, &b].iter().map(|f| (&f.0[..], &f.1[..])).collect();
        let run = || {
            vit.forward_batch(&batch)
                .unwrap()
                .into_iter()
                .map(|p| p.unwrap().logits.value().data().to_vec())
                .collect::<Vec<_>>()
        };
        let serial = bliss_parallel::with_thread_count(1, run);
        for threads in [2, 8] {
            assert_eq!(
                serial,
                bliss_parallel::with_thread_count(threads, run),
                "t={threads}"
            );
        }
    }

    #[test]
    fn paper_config_dimensions() {
        let cfg = ViTConfig::paper();
        assert_eq!(cfg.grid_dims(), (40, 25));
        assert_eq!(cfg.num_patches(), 1000);
        assert_eq!(cfg.enc_depth, 12);
        assert_eq!(cfg.dec_depth, 2);
    }

    #[test]
    fn planned_forward_batch_matches_tape_bitwise() {
        let vit = tiny();
        let dense = synth_frame(1, 1.0);
        let sparse = synth_frame(2, 0.05);
        let empty = (vec![0.0f32; 1200], vec![0.0f32; 1200]);
        let frames = [&dense, &sparse, &empty];
        let batch: Vec<(&[f32], &[f32])> = frames.iter().map(|f| (&f.0[..], &f.1[..])).collect();
        let taped = vit.forward_batch(&batch).unwrap();
        let planned = bliss_tensor::inference_mode(|| vit.forward_batch(&batch)).unwrap();
        for (i, (t, p)) in taped.iter().zip(&planned).enumerate() {
            match (t, p) {
                (Some(t), Some(p)) => {
                    assert_eq!(t.pixel_indices, p.pixel_indices, "frame {i}");
                    assert_eq!(t.tokens, p.tokens, "frame {i}");
                    assert_eq!(
                        t.logits.value().data(),
                        p.logits.value().data(),
                        "frame {i} logits must be bit-identical"
                    );
                }
                (None, None) => {}
                _ => panic!("frame {i}: planned/tape presence disagrees"),
            }
        }
    }

    #[test]
    fn planned_forward_batch_is_thread_count_invariant() {
        let vit = tiny();
        let a = synth_frame(5, 0.1);
        let b = synth_frame(6, 0.3);
        let batch: Vec<(&[f32], &[f32])> = [&a, &b].iter().map(|f| (&f.0[..], &f.1[..])).collect();
        let run = || {
            bliss_tensor::inference_mode(|| vit.forward_batch(&batch))
                .unwrap()
                .into_iter()
                .map(|p| p.unwrap().logits.value().data().to_vec())
                .collect::<Vec<_>>()
        };
        let serial = bliss_parallel::with_thread_count(1, run);
        for threads in [2, 8] {
            assert_eq!(
                serial,
                bliss_parallel::with_thread_count(threads, run),
                "t={threads}"
            );
        }
    }

    #[test]
    fn forward_batch_into_matches_forward_batch() {
        let vit = tiny();
        let a = synth_frame(7, 0.2);
        let empty = (vec![0.0f32; 1200], vec![0.0f32; 1200]);
        let b = synth_frame(8, 0.6);
        let frames = [&a, &empty, &b];
        let batch: Vec<(&[f32], &[f32])> = frames.iter().map(|f| (&f.0[..], &f.1[..])).collect();
        let taped = vit.forward_batch(&batch).unwrap();
        let mut out = PlannedBatch::new();
        vit.forward_batch_into(&batch, &mut out).unwrap();
        assert_eq!(out.len(), 3);
        assert!(out.frame(1).is_none());
        for (i, t) in taped.iter().enumerate() {
            match (t, out.frame(i)) {
                (Some(t), Some(p)) => {
                    assert_eq!(&t.pixel_indices[..], p.pixel_indices, "frame {i}");
                    assert_eq!(t.tokens, p.tokens, "frame {i}");
                    assert_eq!(t.logits.value().data(), p.logits, "frame {i}");
                }
                (None, None) => {}
                _ => panic!("frame {i}: presence disagrees"),
            }
        }
    }

    #[test]
    fn plan_cache_replans_per_span_layout_and_reuses_across_clones() {
        let vit = tiny();
        let a = synth_frame(9, 0.3);
        let b = synth_frame(10, 0.7);
        let mut out = PlannedBatch::new();
        let solo_a: Vec<(&[f32], &[f32])> = vec![(&a.0, &a.1)];
        let pair: Vec<(&[f32], &[f32])> = vec![(&a.0, &a.1), (&b.0, &b.1)];
        vit.forward_batch_into(&solo_a, &mut out).unwrap();
        let s1 = vit.plan_stats();
        assert_eq!((s1.plans, s1.misses, s1.hits), (1, 1, 0));
        // Same layout again: pure cache hit.
        vit.forward_batch_into(&solo_a, &mut out).unwrap();
        let s2 = vit.plan_stats();
        assert_eq!((s2.plans, s2.misses, s2.hits), (1, 1, 1));
        // A new span layout compiles a second plan; the old one survives.
        vit.forward_batch_into(&pair, &mut out).unwrap();
        let s3 = vit.plan_stats();
        assert_eq!((s3.plans, s3.misses), (2, 2));
        // Clones share the cache (fleet hosts reuse one compiled plan).
        let clone = vit.clone();
        clone.forward_batch_into(&solo_a, &mut out).unwrap();
        let s4 = clone.plan_stats();
        assert_eq!((s4.plans, s4.hits), (2, s3.hits + 1));
        assert_eq!(vit.plan_stats().hits, s4.hits);
    }

    /// Calibrates `vit` over a small deterministic scenario set and flips
    /// it to int8.
    fn calibrate_int8(vit: &SparseViT) -> usize {
        vit.begin_int8_calibration();
        for seed in 0..4u64 {
            let f = synth_frame(20 + seed, 0.2 + 0.2 * seed as f32);
            vit.observe_int8_calibration(&[(&f.0, &f.1)]).unwrap();
        }
        let sites = vit.finish_int8_calibration().unwrap();
        vit.set_int8(true).unwrap();
        sites
    }

    #[test]
    fn int8_forward_tracks_f32_and_differs() {
        let vit = tiny();
        let a = synth_frame(30, 0.3);
        let b = synth_frame(31, 0.6);
        let batch: Vec<(&[f32], &[f32])> = [&a, &b].iter().map(|f| (&f.0[..], &f.1[..])).collect();
        let mut f32_out = PlannedBatch::new();
        vit.forward_batch_into(&batch, &mut f32_out).unwrap();
        let f32_logits = f32_out.logits.clone();

        let sites = calibrate_int8(&vit);
        // qkv + proj + fc1 + fc2 per block (1 enc + 1 dec); the patch
        // embedding is excluded by the first-layer f32 rule.
        assert_eq!(sites, 8, "quantised matmul sites");
        assert!(vit.int8_enabled());
        assert_eq!(vit.int8_sites(), sites);

        let mut q_out = PlannedBatch::new();
        vit.forward_batch_into(&batch, &mut q_out).unwrap();
        assert_eq!(q_out.logits.len(), f32_logits.len());
        let maxabs = f32_logits.iter().fold(0f32, |m, v| m.max(v.abs()));
        let mut max_diff = 0f32;
        let mut any_diff = false;
        for (q, r) in q_out.logits.iter().zip(&f32_logits) {
            let d = (q - r).abs();
            max_diff = max_diff.max(d);
            any_diff |= q.to_bits() != r.to_bits();
        }
        assert!(any_diff, "int8 path must actually quantise");
        assert!(
            max_diff <= 0.15 * maxabs.max(1.0),
            "int8 drifted too far from f32: max_diff={max_diff} maxabs={maxabs}"
        );
        // The quantised plan cache compiled exactly one plan for this
        // layout; the f32 cache was untouched by the int8 pass.
        let qs = vit.quant_plan_stats();
        assert_eq!((qs.plans, qs.misses), (1, 1));
    }

    #[test]
    fn int8_forward_is_bit_identical_across_thread_counts() {
        let vit = tiny();
        calibrate_int8(&vit);
        let a = synth_frame(40, 0.15);
        let b = synth_frame(41, 0.5);
        let batch: Vec<(&[f32], &[f32])> = [&a, &b].iter().map(|f| (&f.0[..], &f.1[..])).collect();
        let run = |threads: usize| {
            bliss_parallel::with_thread_count(threads, || {
                bliss_parallel::with_min_parallel_work(0, || {
                    let mut out = PlannedBatch::new();
                    vit.forward_batch_into(&batch, &mut out).unwrap();
                    out.logits.clone()
                })
            })
        };
        let serial = run(1);
        for threads in [2, 8] {
            let par = run(threads);
            assert_eq!(serial.len(), par.len());
            assert!(
                serial
                    .iter()
                    .zip(&par)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "int8 logits must be bit-identical at {threads} threads"
            );
        }
    }

    #[test]
    fn int8_recalibration_is_deterministic() {
        let vit = tiny();
        let a = synth_frame(50, 0.4);
        let batch: Vec<(&[f32], &[f32])> = vec![(&a.0, &a.1)];
        let sites1 = calibrate_int8(&vit);
        let mut out1 = PlannedBatch::new();
        vit.forward_batch_into(&batch, &mut out1).unwrap();
        // Re-running the same calibration set reproduces the spec exactly:
        // same sites, bit-identical logits.
        let sites2 = calibrate_int8(&vit);
        assert_eq!(sites1, sites2);
        let mut out2 = PlannedBatch::new();
        vit.forward_batch_into(&batch, &mut out2).unwrap();
        assert!(out1
            .logits
            .iter()
            .zip(&out2.logits)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn set_int8_requires_calibration() {
        let vit = tiny();
        assert!(vit.set_int8(true).is_err());
        assert!(!vit.int8_enabled());
        vit.begin_int8_calibration();
        assert!(
            vit.finish_int8_calibration().is_err(),
            "finishing with no observed batches must fail"
        );
        // Disabling is always allowed.
        vit.set_int8(false).unwrap();
    }

    #[test]
    fn planned_solo_forward_matches_tape() {
        let vit = tiny();
        let (image, mask) = synth_frame(11, 0.4);
        let taped = vit.forward(&image, &mask).unwrap().unwrap();
        let planned = bliss_tensor::inference_mode(|| vit.forward(&image, &mask))
            .unwrap()
            .unwrap();
        assert_eq!(taped.logits.value().data(), planned.logits.value().data());
    }
}
