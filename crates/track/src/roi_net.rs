use crate::util::denormalize_box;
use bliss_nn::{Conv2d, Linear, Module, Op, Recorder, Tape};
use bliss_npu::WorkloadDesc;
use bliss_sensor::RoiBox;
use bliss_tensor::{
    take_buffer, ExecPlan, GraphBuilder, NdArray, PlanCache, PlanCacheStats, Tensor, TensorError,
};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::rc::Rc;

/// Configuration of the ROI-prediction network.
///
/// The paper's network is intentionally tiny — "three convolution layers
/// followed by two fully-connected layers, amounting to only 2.1e7 MAC
/// operations" (§III-A) — so it fits the in-sensor 8x8 NPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoiNetConfig {
    /// Sensor frame width the predictions map back onto.
    pub frame_width: usize,
    /// Sensor frame height.
    pub frame_height: usize,
    /// Downsampling factor from the frame to the network input.
    pub input_downsample: usize,
    /// Channel widths of the three convolutions.
    pub channels: [usize; 3],
    /// Hidden width of the first fully-connected layer.
    pub hidden: usize,
    /// Margin (in frame pixels) added around the predicted box.
    pub margin: usize,
    /// Minimum box side length in frame pixels.
    pub min_box: usize,
}

impl RoiNetConfig {
    /// Paper-scale configuration: 640x400 frames, 160x100 input
    /// (4x downsampled event map), ≈2.1e7 MACs as quoted in §III-A. The
    /// MACs live in the convolutions and the FCs stay small, so the
    /// ~450 KB of weights fit the 512 KB in-sensor SRAM.
    pub fn paper() -> Self {
        RoiNetConfig {
            frame_width: 640,
            frame_height: 400,
            input_downsample: 4,
            channels: [24, 48, 96],
            hidden: 16,
            margin: 12,
            min_box: 48,
        }
    }

    /// Miniature configuration for CPU training at the given frame size.
    ///
    /// The margin is deliberately small (PR 5): with the longer miniature
    /// training schedule the predictor no longer needs a wide safety halo,
    /// and every margin pixel inflates the readout box area — the quantity
    /// that sets the host's per-frame attention cost and therefore the
    /// serving saturation knee.
    pub fn miniature(frame_width: usize, frame_height: usize) -> Self {
        RoiNetConfig {
            frame_width,
            frame_height,
            input_downsample: 4,
            channels: [6, 12, 24],
            hidden: 96,
            margin: 3,
            min_box: 12,
        }
    }

    /// Network input dimensions (after downsampling).
    pub fn input_dims(&self) -> (usize, usize) {
        (
            self.frame_width.div_ceil(self.input_downsample),
            self.frame_height.div_ceil(self.input_downsample),
        )
    }

    /// Output spatial dims of a 3x3 stride-2 pad-1 convolution.
    fn conv_s2(h: usize, w: usize) -> (usize, usize) {
        ((h + 2 - 3) / 2 + 1, (w + 2 - 3) / 2 + 1)
    }

    /// Builds the 2-channel network input from a full-resolution event map
    /// and the previous segmentation mask (pure buffer math — no parameters
    /// needed, so per-session pipelines can run it off the network).
    pub fn make_input(&self, events: &[f32], prev_seg: &[u8]) -> NdArray {
        let (w, h) = (self.frame_width, self.frame_height);
        assert_eq!(events.len(), w * h, "image size mismatch");
        assert_eq!(prev_seg.len(), w * h, "mask size mismatch");
        let f = self.input_downsample;
        let (iw, ih) = self.input_dims();
        // Stage through the shared buffer pool: the NdArray returns the
        // backing store on drop, so steady-state serving builds ROI inputs
        // without touching the global allocator at any geometry.
        let mut data = take_buffer::<f32>(2 * iw * ih);
        data.resize(2 * iw * ih, 0.0);
        let (mean, seg_max) = data.split_at_mut(iw * ih);
        // One band of `f` frame rows per output row. Channel 0 is the block
        // average of the event map: each block's sum accumulates row by row
        // from its top-left pixel, the order of a nested loop over the
        // block. Channel 1 is the block max of the segmentation labels
        // normalised to [0, 1]; max commutes with the monotone /3.0 scaling
        // and does not depend on order.
        if w > 0 {
            let bands = events.chunks(f * w).zip(prev_seg.chunks(f * w));
            let outs = mean.chunks_exact_mut(iw).zip(seg_max.chunks_exact_mut(iw));
            for ((ev_band, seg_band), (sums, maxes)) in bands.zip(outs) {
                for (ev_row, seg_row) in ev_band.chunks_exact(w).zip(seg_band.chunks_exact(w)) {
                    for (sum, block) in sums.iter_mut().zip(ev_row.chunks(f)) {
                        for &e in block {
                            *sum += e;
                        }
                    }
                    for (m, block) in maxes.iter_mut().zip(seg_row.chunks(f)) {
                        let v = block.iter().copied().max().unwrap_or(0) as f32 / 3.0;
                        if v > *m {
                            *m = v;
                        }
                    }
                }
                let rows = ev_band.len() / w;
                for (ox, sum) in sums.iter_mut().enumerate() {
                    *sum /= (rows * f.min(w - ox * f)) as f32;
                }
            }
        }
        NdArray::from_vec(data, &[2, ih, iw]).expect("roi input shape")
    }

    /// Lowered workload of one inference (pure shape math — no parameters
    /// are allocated), used by the NPU energy/latency model.
    pub fn workload(&self) -> WorkloadDesc {
        let (iw, ih) = self.input_dims();
        let c = self.channels;
        let mut w = WorkloadDesc::new("roi-prediction");
        let (h1, w1) = Self::conv_s2(ih, iw);
        let (h2, w2) = Self::conv_s2(h1, w1);
        let (h3, w3) = Self::conv_s2(h2, w2);
        w.push_conv(c[0], 2, 3, h1, w1);
        w.push_conv(c[1], c[0], 3, h2, w2);
        w.push_conv(c[2], c[1], 3, h3, w3);
        w.push_linear(1, c[2] * h3 * w3, self.hidden);
        w.push_linear(1, self.hidden, 4);
        w
    }
}

/// The lightweight ROI-prediction CNN.
///
/// Input: a 2-channel image — the (downsampled) binary event map and the
/// previous frame's segmentation map as a corrective cue for blinks and
/// saccades (§III-A). Output: a normalised `(cx, cy, w, h)` box through a
/// sigmoid.
#[derive(Debug, Clone)]
pub struct RoiPredictionNet {
    conv1: Conv2d,
    conv2: Conv2d,
    conv3: Conv2d,
    fc1: Linear,
    fc2: Linear,
    config: RoiNetConfig,
    /// Planned-inference cache, shared by clones. The network has one fixed
    /// input shape, so at most one plan ever lives here.
    plans: Rc<RefCell<PlanCache>>,
}

impl RoiPredictionNet {
    /// Creates the network with random initialisation.
    pub fn new<R: Rng + ?Sized>(rng: &mut R, config: RoiNetConfig) -> Self {
        let (iw, ih) = config.input_dims();
        let conv1 = Conv2d::new(rng, 2, config.channels[0], 3, 2, 1);
        let (h1, w1) = conv1.out_dims(ih, iw);
        let conv2 = Conv2d::new(rng, config.channels[0], config.channels[1], 3, 2, 1);
        let (h2, w2) = conv2.out_dims(h1, w1);
        let conv3 = Conv2d::new(rng, config.channels[1], config.channels[2], 3, 2, 1);
        let (h3, w3) = conv3.out_dims(h2, w2);
        let flat = config.channels[2] * h3 * w3;
        RoiPredictionNet {
            conv1,
            conv2,
            conv3,
            fc1: Linear::new(rng, flat, config.hidden),
            fc2: Linear::new(rng, config.hidden, 4),
            config,
            plans: Rc::new(RefCell::new(PlanCache::new())),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &RoiNetConfig {
        &self.config
    }

    /// Builds the 2-channel network input from a full-resolution event map
    /// and the previous segmentation mask.
    pub fn make_input(&self, events: &[f32], prev_seg: &[u8]) -> NdArray {
        self.config.make_input(events, prev_seg)
    }

    /// Forward pass producing the normalised `(cx, cy, w, h)` box as a
    /// `[1, 4]` tensor in `(0, 1)`.
    ///
    /// Outside [`bliss_tensor::inference_mode`] this runs on the autograd
    /// tape; inside it, it executes a cached compiled plan of the same
    /// network body.
    ///
    /// # Errors
    ///
    /// Returns shape errors if `input` is not the `[2, ih, iw]` layout from
    /// [`RoiPredictionNet::make_input`].
    pub fn forward(&self, input: &NdArray) -> Result<Tensor, TensorError> {
        if bliss_tensor::in_inference_mode() {
            return self.forward_planned(input);
        }
        self.layers(&mut Tape, &Tensor::constant(input.clone()))
    }

    /// The network (conv x3 with ReLU, flatten, FC-ReLU, FC-sigmoid), written
    /// once for both recorders.
    fn layers<R: Recorder>(&self, r: &mut R, x: &R::Node) -> Result<R::Node, TensorError> {
        let x = self.conv1.forward(r, x)?;
        let x = r.op(Op::Relu(&x))?;
        let x = self.conv2.forward(r, &x)?;
        let x = r.op(Op::Relu(&x))?;
        let x = self.conv3.forward(r, &x)?;
        let x = r.op(Op::Relu(&x))?;
        let flat = r.op(Op::Reshape(&x, &[1, self.fc1.in_features()]))?;
        let h = self.fc1.forward(r, &flat)?;
        let h = r.op(Op::Relu(&h))?;
        let o = self.fc2.forward(r, &h)?;
        r.op(Op::Sigmoid(&o))
    }

    /// Planned counterpart of [`RoiPredictionNet::forward`]: compiles the
    /// fixed-shape network graph once, then each call executes the cached
    /// plan (zero allocations in the plan itself; only the tiny `[1, 4]`
    /// result tensor is materialised, from a pooled buffer). Bit-identical
    /// to the tape forward at any thread count.
    fn forward_planned(&self, input: &NdArray) -> Result<Tensor, TensorError> {
        let (iw, ih) = self.config.input_dims();
        let plan = self.plans.borrow_mut().get_or_build(&[2, ih, iw], || {
            let mut g = GraphBuilder::default();
            let x = g.input(&[2, ih, iw]);
            let out = self.layers(&mut g, &x)?;
            g.mark_output(out);
            ExecPlan::compile(g)
        })?;
        plan.execute(&[input.data()], &[])?;
        let out = plan.with_output(0, |data| {
            let mut buf = take_buffer::<f32>(data.len());
            buf.extend_from_slice(data);
            NdArray::from_vec(buf, &[1, 4])
        })?;
        Ok(Tensor::constant(out))
    }

    /// Plan-cache counters (the soak harness gates on the plan count
    /// staying at one and the arena not growing).
    pub fn plan_stats(&self) -> PlanCacheStats {
        self.plans.borrow().stats()
    }

    /// Hard ROI box from a forward pass: denormalised, margin-expanded and
    /// clamped to the frame.
    pub fn predict_box(&self, output: &Tensor) -> RoiBox {
        let v = output.value();
        let arr = [v.data()[0], v.data()[1], v.data()[2], v.data()[3]];
        let b = denormalize_box(
            &arr,
            self.config.frame_width,
            self.config.frame_height,
            self.config.min_box,
        );
        b.expand(
            self.config.margin,
            self.config.frame_width,
            self.config.frame_height,
        )
    }
}

impl Module for RoiPredictionNet {
    fn parameters(&self) -> Vec<Tensor> {
        let mut p = self.conv1.parameters();
        p.extend(self.conv2.parameters());
        p.extend(self.conv3.parameters());
        p.extend(self.fc1.parameters());
        p.extend(self.fc2.parameters());
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn net() -> RoiPredictionNet {
        let mut rng = StdRng::seed_from_u64(0);
        RoiPredictionNet::new(&mut rng, RoiNetConfig::miniature(160, 100))
    }

    #[test]
    fn forward_emits_unit_box() {
        let n = net();
        let events = vec![0.0f32; 160 * 100];
        let seg = vec![0u8; 160 * 100];
        let input = n.make_input(&events, &seg);
        let out = n.forward(&input).unwrap();
        assert_eq!(out.shape(), vec![1, 4]);
        for &v in out.value().data() {
            assert!((0.0..=1.0).contains(&v));
        }
    }

    #[test]
    fn predicted_box_is_valid() {
        let n = net();
        let input = n.make_input(&vec![1.0; 16_000], &vec![0u8; 16_000]);
        let out = n.forward(&input).unwrap();
        let b = n.predict_box(&out);
        assert!(b.x2 <= 160 && b.y2 <= 100);
        assert!(b.width() >= 12);
        assert!(b.height() >= 12);
    }

    #[test]
    fn paper_scale_macs_match_quote() {
        // §III-A: "only 2.1e7 MAC operations". Accept the right magnitude.
        let macs = RoiNetConfig::paper().workload().total_macs();
        assert!(
            (1.0e7..4.0e7).contains(&(macs as f64)),
            "paper-scale ROI net macs = {macs}"
        );
    }

    #[test]
    fn workload_matches_network_dims() {
        let w = net().config().workload();
        assert_eq!(w.gemms.len(), 5);
        assert!(w.total_macs() > 0);
    }

    #[test]
    fn trainable_end_to_end() {
        let n = net();
        let input = n.make_input(&vec![0.5; 16_000], &vec![1u8; 16_000]);
        let out = n.forward(&input).unwrap();
        let target = NdArray::from_vec(vec![0.5, 0.5, 0.3, 0.3], &[1, 4]).unwrap();
        let loss = out.mse_loss(&target).unwrap();
        loss.backward().unwrap();
        let with_grads = n.parameters().iter().filter(|p| p.grad().is_some()).count();
        assert_eq!(with_grads, n.parameters().len());
    }

    #[test]
    fn planned_forward_matches_tape_bitwise() {
        let n = net();
        let input = n.make_input(&vec![0.7; 16_000], &vec![2u8; 16_000]);
        let taped = n.forward(&input).unwrap();
        let planned = bliss_tensor::inference_mode(|| n.forward(&input)).unwrap();
        assert_eq!(taped.value().data(), planned.value().data());
        // Repeated planned calls hit the single cached plan.
        let again = bliss_tensor::inference_mode(|| n.forward(&input)).unwrap();
        assert_eq!(taped.value().data(), again.value().data());
        let stats = n.plan_stats();
        assert_eq!((stats.plans, stats.misses, stats.hits), (1, 1, 1));
    }

    #[test]
    fn planned_forward_is_thread_count_invariant() {
        let n = net();
        let input = n.make_input(&vec![0.3; 16_000], &vec![1u8; 16_000]);
        let run = || {
            bliss_tensor::inference_mode(|| n.forward(&input))
                .unwrap()
                .value()
                .data()
                .to_vec()
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

    /// The per-output nested loop and the per-pixel divide `make_input`
    /// replaces, kept as the reference.
    fn reference_make_input(cfg: &RoiNetConfig, events: &[f32], prev_seg: &[u8]) -> Vec<f32> {
        let (w, h) = (cfg.frame_width, cfg.frame_height);
        let f = cfg.input_downsample;
        let (iw, ih) = cfg.input_dims();
        let mut data = Vec::new();
        for oy in 0..ih {
            for ox in 0..iw {
                let mut sum = 0.0f32;
                let mut count = 0u32;
                for dy in 0..f {
                    let y = oy * f + dy;
                    if y >= h {
                        break;
                    }
                    for dx in 0..f {
                        let x = ox * f + dx;
                        if x >= w {
                            break;
                        }
                        sum += events[y * w + x];
                        count += 1;
                    }
                }
                data.push(sum / count.max(1) as f32);
            }
        }
        data.resize(2 * iw * ih, 0.0);
        for (i, &c) in prev_seg.iter().enumerate() {
            let x = i % w;
            let y = i / w;
            let o = iw * ih + (y / f) * iw + x / f;
            let v = c as f32 / 3.0;
            if v > data[o] {
                data[o] = v;
            }
        }
        data
    }

    #[test]
    fn make_input_matches_the_reference_loop() {
        for (w, h, f) in [
            (160, 100, 4),
            (161, 101, 4),
            (7, 5, 3),
            (1, 1, 4),
            (9, 4, 1),
            (5, 0, 2),
        ] {
            let cfg = RoiNetConfig {
                input_downsample: f,
                ..RoiNetConfig::miniature(w, h)
            };
            // Events with signed zeros, fractions and sums that round; a
            // segmentation map that visits every class.
            let events: Vec<f32> = (0..w * h)
                .map(|i| match i % 5 {
                    0 => -0.0,
                    1 => 1.0,
                    2 => 0.1 * (i % 13) as f32,
                    3 => -1.0 / 3.0,
                    _ => 1.0e-7 * i as f32,
                })
                .collect();
            let seg: Vec<u8> = (0..w * h).map(|i| ((i * 7 + i / 3) % 4) as u8).collect();
            let got = cfg.make_input(&events, &seg);
            let want = reference_make_input(&cfg, &events, &seg);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(got.data()), bits(&want), "{w}x{h}, f = {f}");
        }
    }

    #[test]
    fn make_input_has_two_channels() {
        let n = net();
        let input = n.make_input(&vec![0.0; 16_000], &vec![3u8; 16_000]);
        assert_eq!(input.shape()[0], 2);
        // second channel normalised to 1.0 for pupil class
        let ch = input.shape()[1] * input.shape()[2];
        assert!((input.data()[ch] - 1.0).abs() < 1e-6);
    }
}
