use crate::baselines::{CnnSegConfig, RitnetLike};
use crate::gaze::GazeEstimator;
use crate::metrics::{seg_accuracy, AngularErrorStats, EvalResult};
use crate::roi_net::{RoiNetConfig, RoiPredictionNet};
use crate::sampling::{apply_strategy, SamplingStrategy};
use crate::util::{frame_difference_events, normalize_box};
use crate::vit::{SparseViT, ViTConfig};
use bliss_eye::{EyeSequence, ImagingNoise, NoiseConfig};
use bliss_nn::{clip_global_norm, restore_params, snapshot_params, Adam, Module, ParamSnapshot};
use bliss_tensor::{NdArray, Tensor, TensorError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::sync::mpsc;

/// Hyper-parameters of the joint training procedure (paper §III-C).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// ViT segmenter configuration.
    pub vit: ViTConfig,
    /// ROI-prediction network configuration.
    pub roi: RoiNetConfig,
    /// In-ROI random sampling rate (paper: ~20 % of ROI pixels ≈ 5 % of the
    /// frame).
    pub sample_rate: f32,
    /// Passes over the training sequence.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Weight of the ROI MSE loss relative to the segmentation loss.
    pub lambda_roi: f32,
    /// Sharpness of the differentiable ROI gate's sigmoids (in normalised
    /// coordinate units).
    pub gate_sharpness: f32,
    /// Eventification threshold σ (normalised scale; paper: 15/255).
    pub event_sigma: f32,
    /// Imaging noise model.
    pub noise: NoiseConfig,
    /// Exposure relative to the 8.3 ms reference (couples frame rate→SNR).
    pub exposure_scale: f32,
    /// Global gradient-norm clip.
    pub grad_clip: f32,
    /// Frames whose gradients are accumulated into one optimizer step
    /// (reduces the gradient noise of single-frame updates). The frames of
    /// one such window share the weights, so [`JointTrainer::train_on`]
    /// learns them on two threads, with the sequential loop's bits.
    pub grad_accum: usize,
    /// Per-class loss weights (skin, sclera, iris, pupil). The pupil is a
    /// tiny minority class yet carries all the gaze information, so it is
    /// upweighted, as is common for eye segmentation losses.
    pub class_weights: [f32; 4],
    /// RNG seed for initialisation, sampling and noise.
    pub seed: u64,
}

impl TrainConfig {
    /// Miniature configuration for a given frame size — trains in seconds
    /// on a laptop CPU.
    pub fn miniature(frame_width: usize, frame_height: usize) -> Self {
        TrainConfig {
            vit: ViTConfig::miniature(frame_width, frame_height),
            roi: RoiNetConfig::miniature(frame_width, frame_height),
            sample_rate: 0.2,
            // Two passes (PR 5): the second, halved-LR epoch tightens the
            // ROI regression substantially (predicted-box area drops from
            // ~2-3x ground truth toward ~1.5x) at a one-off training cost of
            // seconds — directly raising the serving saturation knee.
            epochs: 2,
            lr: 1.4e-3,
            lambda_roi: 6.0,
            gate_sharpness: 40.0,
            event_sigma: 15.0 / 255.0,
            noise: NoiseConfig::default(),
            exposure_scale: 1.0,
            grad_clip: 5.0,
            grad_accum: 2,
            class_weights: [0.4, 1.0, 1.5, 6.0],
            seed: 7,
        }
    }

    /// A deliberately tiny configuration for doc tests and smoke tests.
    pub fn smoke_test() -> Self {
        let mut cfg = Self::miniature(160, 100);
        cfg.vit.dim = 24;
        cfg.vit.enc_depth = 1;
        cfg.vit.dec_depth = 1;
        cfg.roi.hidden = 32;
        cfg
    }
}

/// Jointly trains the ROI-prediction network and the sparse ViT segmenter.
///
/// Each step reproduces the paper's computation flow (Fig. 5):
///
/// 1. eventify consecutive (noisy) frames;
/// 2. predict a normalised ROI box from the event map + previous
///    segmentation map; compute the **ROI loss** (MSE to ground truth);
/// 3. randomly sample pixels inside the (hard) predicted box;
/// 4. segment the sparse pixels with the ViT; compute the **segmentation
///    loss** — a cross-entropy *gated* by a differentiable soft-box weight,
///    so its gradient flows back into the ROI network while unsampled pixels
///    are masked out (§III-C's gradient masking);
/// 5. descend both losses with Adam.
///
/// Steps 1–3 are the serial *draw* of each frame: every RNG draw, in the
/// sequential order. Step 4 and the backward pass are its *learn* half,
/// which reads only the weights and the draw, so the frames of one
/// `grad_accum` window learn in parallel (see [`JointTrainer::train_on`]).
#[derive(Debug)]
pub struct JointTrainer {
    vit: SparseViT,
    roi_net: RoiPredictionNet,
    optimizer: Adam,
    config: TrainConfig,
    noise: ImagingNoise,
    rng: StdRng,
}

impl JointTrainer {
    /// Initialises both networks and the optimizer.
    ///
    /// # Errors
    ///
    /// Currently infallible; kept fallible for future config validation.
    pub fn new(config: TrainConfig) -> Result<Self, TensorError> {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let vit = SparseViT::new(&mut rng, config.vit);
        let roi_net = RoiPredictionNet::new(&mut rng, config.roi);
        let mut params = vit.parameters();
        params.extend(roi_net.parameters());
        let optimizer = Adam::new(params, config.lr);
        Ok(JointTrainer {
            vit,
            roi_net,
            optimizer,
            config,
            noise: ImagingNoise::new(config.noise),
            rng,
        })
    }

    /// The segmenter (e.g. for workload accounting).
    pub fn vit(&self) -> &SparseViT {
        &self.vit
    }

    /// The ROI network.
    pub fn roi_net(&self) -> &RoiPredictionNet {
        &self.roi_net
    }

    /// The training configuration.
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// Overrides the exposure scale for subsequent training/evaluation —
    /// the frame-rate→SNR coupling of the paper's Fig. 16 study.
    pub fn set_exposure_scale(&mut self, scale: f32) {
        self.config.exposure_scale = scale.max(1e-3);
    }

    /// Trains over the sequence for `config.epochs` passes; returns the loss
    /// at every step.
    ///
    /// The frames of one `grad_accum` window share the weights until the
    /// optimizer steps, so each window runs in two halves. A serial *draw*
    /// makes every RNG draw of its frames in the sequential order (noise,
    /// the feedback and full-frame coins, the in-ROI samples) and the ROI
    /// forward that places each sampling box. Then the frames *learn* (tape
    /// forward, losses, `backward`): frame 0 on these networks, frames 1.. on
    /// a scoped worker thread's replica, both at one thread each. The
    /// worker's per-frame gradients are added in frame order, which is the
    /// sequential sum bit for bit, since each parameter takes one gradient
    /// accumulation per frame's backward. At [`bliss_parallel::thread_count`]
    /// 1, or for a one-frame window, the frames learn here in order.
    ///
    /// Windows follow the global step count, so one may straddle an epoch
    /// boundary. A trailing partial window learns but does not step: its
    /// gradients stay on the parameters.
    ///
    /// # Errors
    ///
    /// Propagates tensor shape errors (none occur for well-formed configs).
    ///
    /// # Panics
    ///
    /// Panics if the worker thread panics.
    pub fn train_on(&mut self, seq: &EyeSequence) -> Result<Vec<f32>, TensorError> {
        let parallel = self.config.grad_accum > 1 && bliss_parallel::thread_count() > 1;
        let config = self.config;
        let losses = std::thread::scope(|s| {
            let worker = parallel.then(|| WindowWorker::spawn(s, config, seq));
            self.train_windows(seq, worker.as_ref())
        });
        // Serving never reuses the training working set.
        bliss_tensor::release_thread_pools();
        losses
    }

    fn train_windows(
        &mut self,
        seq: &EyeSequence,
        worker: Option<&WindowWorker>,
    ) -> Result<Vec<f32>, TensorError> {
        let accum = self.config.grad_accum.max(1);
        let mut params = self.vit.parameters();
        params.extend(self.roi_net.parameters());
        let mut losses = Vec::new();
        let mut window = Vec::with_capacity(accum);
        let mut step = 0usize;
        for epoch in 0..self.config.epochs {
            // Halve the learning rate every epoch: the loss landscape of the
            // tiny joint model is sharp and a constant rate oscillates.
            let epoch_lr = self.config.lr * 0.5f32.powi(epoch as i32);
            self.optimizer.set_learning_rate(epoch_lr);
            let mut prev = self.noise.apply(
                &seq.frames[0].clean,
                self.config.exposure_scale,
                &mut self.rng,
            );
            for t in 1..seq.frames.len() {
                // Linear warmup over the first 20 steps of the run.
                if step < 20 {
                    self.optimizer
                        .set_learning_rate(epoch_lr * (step as f32 + 1.0) / 20.0);
                } else if step == 20 {
                    self.optimizer.set_learning_rate(epoch_lr);
                }
                step += 1;
                let frame = &seq.frames[t];
                let cur = self
                    .noise
                    .apply(&frame.clean, self.config.exposure_scale, &mut self.rng);
                window.push(self.draw(seq, t, &prev, &cur)?);
                prev = cur;
                if step.is_multiple_of(accum) {
                    self.learn_window(seq, &mut window, worker, &params, &mut losses)?;
                    clip_global_norm(&params, self.config.grad_clip);
                    self.optimizer.step();
                    self.optimizer.zero_grad();
                }
            }
        }
        self.learn_window(seq, &mut window, worker, &params, &mut losses)?;
        Ok(losses)
    }

    /// The serial half of a training step: the draws and the ROI forward
    /// that places the sampling box. Returns the draw and that forward's
    /// tape output, which a learn step on these networks reuses.
    fn draw(
        &mut self,
        seq: &EyeSequence,
        t: usize,
        prev: &[f32],
        cur: &[f32],
    ) -> Result<(Draw, Tensor), TensorError> {
        let events = frame_difference_events(cur, prev, self.config.event_sigma);
        // Teacher forcing with scheduled degradation: the previous frame's
        // ground-truth segmentation map stands in for the fed-back
        // prediction, but a quarter of the steps see an empty feedback map so
        // the ROI network stays robust to poor predictions at run time
        // (closed-loop evaluation feeds back its own output).
        let empty_seg;
        let prev_seg: &[u8] = if self.rng.gen::<f32>() < 0.25 {
            empty_seg = vec![0u8; cur.len()];
            &empty_seg
        } else {
            &seq.frames[t - 1].mask
        };
        let roi_input = self.roi_net.make_input(&events, prev_seg);
        let roi_out = self.roi_net.forward(&roi_input)?;

        // Hard sampling inside the predicted box (forward path). A fraction
        // of steps sample the whole frame instead — the cold-start bootstrap
        // the deployed system performs before the first segmentation map
        // exists — so the ViT learns to handle full-frame token sets too.
        let hard_box = if self.rng.gen::<f32>() < 0.15 {
            bliss_sensor::RoiBox::full(seq.width, seq.height)
        } else {
            self.roi_net.predict_box(&roi_out)
        };
        let strategy = SamplingStrategy::RoiRandom {
            rate: self.config.sample_rate,
        };
        let (w, h) = (seq.width, seq.height);
        let sampled = apply_strategy(&strategy, cur, w, h, hard_box, None, 0.0, &mut self.rng);
        let draw = Draw {
            t,
            roi_input,
            values: sampled.values,
            mask: sampled.mask,
        };
        Ok((draw, roi_out))
    }

    /// Learns the drained `window`, leaving its gradients, summed in frame
    /// order, on `params` (these networks' parameters, the ViT's first).
    fn learn_window(
        &self,
        seq: &EyeSequence,
        window: &mut Vec<(Draw, Tensor)>,
        worker: Option<&WindowWorker>,
        params: &[Tensor],
        losses: &mut Vec<f32>,
    ) -> Result<(), TensorError> {
        let cfg = &self.config;
        let mut frames = window.drain(..);
        let Some(worker) = worker.filter(|_| frames.len() > 1) else {
            for (draw, roi_out) in frames {
                losses.push(learn(cfg, &self.vit, seq, &draw, roi_out)?);
            }
            return Ok(());
        };
        let (first, roi_out) = frames.next().expect("window has two frames");
        worker.send(WindowJob {
            vit: snapshot_params(&self.vit),
            roi: snapshot_params(&self.roi_net),
            draws: frames.map(|(draw, _)| draw).collect(),
        });
        let first_loss =
            bliss_parallel::with_thread_count(1, || learn(cfg, &self.vit, seq, &first, roi_out));
        // Receive before propagating an error, so the worker is idle again.
        let learned = worker.recv();
        losses.push(first_loss?);
        for frame in learned? {
            losses.push(frame.loss);
            for (p, g) in params.iter().zip(&frame.grads) {
                if let Some(g) = g {
                    p.add_grad(g)?;
                }
            }
        }
        Ok(())
    }

    /// Evaluates the full closed-loop pipeline: predicted segmentation maps
    /// feed back into the next frame's ROI prediction, exactly as the
    /// deployed system runs.
    ///
    /// # Errors
    ///
    /// Propagates tensor shape errors.
    pub fn evaluate(&mut self, seq: &EyeSequence) -> Result<EvalResult, TensorError> {
        let strategy = SamplingStrategy::RoiRandom {
            rate: self.config.sample_rate,
        };
        self.evaluate_with_strategy(seq, &strategy, None)
    }

    /// Evaluates with an arbitrary sampling strategy (the Fig. 15 study).
    ///
    /// `importance` supplies the offline mask for `RoiFixed`/`RoiLearned`.
    ///
    /// # Errors
    ///
    /// Propagates tensor shape errors.
    pub fn evaluate_with_strategy(
        &mut self,
        seq: &EyeSequence,
        strategy: &SamplingStrategy,
        importance: Option<&[f32]>,
    ) -> Result<EvalResult, TensorError> {
        self.closed_loop(seq, strategy, importance, 1, None)
    }

    /// Closed-loop in-ROI random sampling where the ROI network runs only
    /// every `window`-th frame and its box is reused in between (the Table I
    /// study; a window of 0 counts as 1). Imaging noise and samples are
    /// drawn from `rng` instead of the trainer's own stream.
    ///
    /// # Errors
    ///
    /// Propagates tensor shape errors.
    pub fn evaluate_with_roi_reuse(
        &mut self,
        seq: &EyeSequence,
        window: usize,
        rng: &mut StdRng,
    ) -> Result<EvalResult, TensorError> {
        let strategy = SamplingStrategy::RoiRandom {
            rate: self.config.sample_rate,
        };
        self.closed_loop(seq, &strategy, None, window.max(1), Some(rng))
    }

    /// The closed loop behind every evaluation: the ROI network runs on
    /// frames `1, 1 + window, …` and its box is held in between; draws come
    /// from `rng`, or from the trainer's stream when `None`.
    fn closed_loop(
        &mut self,
        seq: &EyeSequence,
        strategy: &SamplingStrategy,
        importance: Option<&[f32]>,
        window: usize,
        rng: Option<&mut StdRng>,
    ) -> Result<EvalResult, TensorError> {
        let rng = match rng {
            Some(rng) => rng,
            None => &mut self.rng,
        };
        let (w, h) = (seq.width, seq.height);
        let mut estimator = GazeEstimator::new(seq.model.clone());
        let mut prev = self
            .noise
            .apply(&seq.frames[0].clean, self.config.exposure_scale, rng);
        let mut prev_seg = vec![0u8; w * h];
        // Cold start: until the first segmentation map exists, the ROI
        // prediction has no corrective cue and fixation frames carry no
        // events — read the full frame, as the sensor's bootstrap (all-events
        // first map) does in hardware.
        let mut have_seg = false;
        let mut roi_box = bliss_sensor::RoiBox::full(w, h);
        let mut err_h = Vec::new();
        let mut err_v = Vec::new();
        let mut seg_accs = Vec::new();
        let mut tokens_total = 0usize;
        let mut sampled_total = 0u64;
        let mut frames = 0usize;
        let mut last_classes: Vec<(usize, u8)> = Vec::new();

        for t in 1..seq.frames.len() {
            let frame = &seq.frames[t];
            let cur = self
                .noise
                .apply(&frame.clean, self.config.exposure_scale, rng);
            let events = frame_difference_events(&cur, &prev, self.config.event_sigma);
            let density = events.iter().sum::<f32>() / events.len() as f32;

            if (t - 1) % window == 0 {
                let roi_input = self.roi_net.make_input(&events, &prev_seg);
                let roi_out = self.roi_net.forward(&roi_input)?;
                roi_box = if have_seg {
                    self.roi_net.predict_box(&roi_out)
                } else {
                    bliss_sensor::RoiBox::full(w, h)
                };
            }

            let sampled = apply_strategy(strategy, &cur, w, h, roi_box, importance, density, rng);
            sampled_total += sampled.sampled as u64;

            let gaze = if sampled.skipped {
                // Skip strategy: reuse the previous result wholesale.
                seg_accs.push(seg_accuracy(&last_classes, &frame.mask));
                estimator.last()
            } else {
                match self.vit.forward(&sampled.values, &sampled.mask)? {
                    Some(pred) => {
                        tokens_total += pred.tokens;
                        let classes = pred.classes();
                        seg_accs.push(seg_accuracy(&classes, &frame.mask));
                        let seg = pred.seg_map(w, h);
                        // Only adopt feedback that actually found the eye.
                        if seg.iter().any(|&c| c != 0) {
                            prev_seg = seg;
                            have_seg = true;
                        }
                        let g = estimator.estimate_from_pairs(&classes, w);
                        last_classes = classes;
                        g
                    }
                    None => estimator.last(),
                }
            };

            err_h.push((gaze.horizontal_deg - frame.gaze.horizontal_deg).abs());
            err_v.push((gaze.vertical_deg - frame.gaze.vertical_deg).abs());
            frames += 1;
            prev = cur;
        }

        let total_pixels = (w * h * frames) as f32;
        Ok(EvalResult {
            horizontal: AngularErrorStats::from_errors(&err_h),
            vertical: AngularErrorStats::from_errors(&err_v),
            seg_accuracy: if seg_accs.is_empty() {
                f32::NAN
            } else {
                seg_accs.iter().sum::<f32>() / seg_accs.len() as f32
            },
            mean_compression: total_pixels / sampled_total.max(1) as f32,
            mean_tokens: tokens_total as f32 / frames.max(1) as f32,
            frames,
        })
    }
}

/// One frame's drawn inputs: what the draw half hands the learn half.
struct Draw {
    /// The frame's index in the sequence.
    t: usize,
    /// The ROI network's input (event map and fed-back segmentation map).
    roi_input: NdArray,
    /// The sampled sparse frame: values, zero where unsampled.
    values: Vec<f32>,
    /// The sampling mask: 1.0 where sampled.
    mask: Vec<f32>,
}

/// The learn half of a training step: the tape forward of `vit` on `draw`,
/// both losses and `backward`. `roi_out` is the ROI network's tape output
/// for `draw.roi_input`. It reads only the weights and the draw. Returns the
/// frame's loss.
fn learn(
    cfg: &TrainConfig,
    vit: &SparseViT,
    seq: &EyeSequence,
    draw: &Draw,
    roi_out: Tensor,
) -> Result<f32, TensorError> {
    let frame = &seq.frames[draw.t];
    let gt_box = normalize_box(&frame.roi, seq.width, seq.height);
    let roi_target = NdArray::from_vec(gt_box.to_vec(), &[1, 4])?;
    let roi_loss = roi_out.mse_loss(&roi_target)?;
    let total = match vit.forward(&draw.values, &draw.mask)? {
        Some(pred) => {
            let targets: Vec<usize> = pred
                .pixel_indices
                .iter()
                .map(|&i| frame.mask[i] as usize)
                .collect();
            let gate = soft_gate(cfg, &roi_out, &pred.pixel_indices, seq.width, seq.height)?;
            // Bound the gate's dynamic range: a raw weighted mean lets the
            // box shrink away from hard pixels (the pupil boundary) to
            // reduce the loss. With weights in [0.75, 1], gradients still
            // reach the ROI network but cannot overpower the explicit ROI
            // regression loss.
            let gate = gate.scale(0.25).add_scalar(0.75);
            // Fold the per-class weights into the gate (constant factor, so
            // gradients still reach the ROI network through the gate).
            let cw: Vec<f32> = targets
                .iter()
                .map(|&t| cfg.class_weights[t.min(3)])
                .collect();
            let cw = NdArray::from_vec(cw, &[targets.len()])?;
            let gate = gate.mul_mask(&cw)?;
            let seg_loss = pred.logits.cross_entropy_rows_gated(&targets, &gate)?;
            seg_loss.add(&roi_loss.scale(cfg.lambda_roi))?
        }
        // Eye fully closed and nothing sampled: only the ROI loss learns.
        None => roi_loss.scale(cfg.lambda_roi),
    };

    // Gradients accumulate across `grad_accum` frames; the optimizer steps
    // (and clears) at the window's end.
    total.scale(1.0 / cfg.grad_accum.max(1) as f32).backward()?;
    let loss = total.value().data()[0];
    Ok(loss)
}

/// The differentiable soft-box gate: for each queried pixel, the product
/// of four sigmoids measuring how far inside the predicted box it lies.
/// Gradients flow through the box coordinates into the ROI network.
fn soft_gate(
    cfg: &TrainConfig,
    roi_out: &Tensor,
    pixel_indices: &[usize],
    width: usize,
    height: usize,
) -> Result<Tensor, TensorError> {
    let s = pixel_indices.len();
    let k = cfg.gate_sharpness;
    let b = roi_out.transpose()?; // [4, 1]
    let cx = b.slice_rows(0, 1)?;
    let cy = b.slice_rows(1, 2)?;
    let bw = b.slice_rows(2, 3)?;
    let bh = b.slice_rows(3, 4)?;
    let x1 = cx.sub(&bw.scale(0.5))?.broadcast_to(&[s, 1])?;
    let x2 = cx.add(&bw.scale(0.5))?.broadcast_to(&[s, 1])?;
    let y1 = cy.sub(&bh.scale(0.5))?.broadcast_to(&[s, 1])?;
    let y2 = cy.add(&bh.scale(0.5))?.broadcast_to(&[s, 1])?;

    let xs: Vec<f32> = pixel_indices
        .iter()
        .map(|&i| ((i % width) as f32 + 0.5) / width as f32)
        .collect();
    let ys: Vec<f32> = pixel_indices
        .iter()
        .map(|&i| ((i / width) as f32 + 0.5) / height as f32)
        .collect();
    let xs = Tensor::constant(NdArray::from_vec(xs, &[s, 1])?);
    let ys = Tensor::constant(NdArray::from_vec(ys, &[s, 1])?);

    let gx = xs
        .sub(&x1)?
        .scale(k)
        .sigmoid()
        .mul(&x2.sub(&xs)?.scale(k).sigmoid())?;
    let gy = ys
        .sub(&y1)?
        .scale(k)
        .sigmoid()
        .mul(&y2.sub(&ys)?.scale(k).sigmoid())?;
    gx.mul(&gy)?.reshape(&[s])
}

/// The weights one window starts from and the frames the worker learns.
struct WindowJob {
    vit: Vec<ParamSnapshot>,
    roi: Vec<ParamSnapshot>,
    draws: Vec<Draw>,
}

/// One frame learned on the worker: its loss and each parameter's
/// gradient, in `SparseViT` then `RoiPredictionNet` parameter order.
struct Learned {
    loss: f32,
    grads: Vec<Option<NdArray>>,
}

/// The trainer's side of the scoped worker thread that learns frames 1.. of
/// each window on its own replica of both networks.
struct WindowWorker {
    jobs: mpsc::Sender<WindowJob>,
    learned: mpsc::Receiver<Result<Vec<Learned>, TensorError>>,
}

impl WindowWorker {
    /// Starts the worker. It runs until the trainer's side is dropped.
    fn spawn<'scope>(
        s: &'scope std::thread::Scope<'scope, '_>,
        config: TrainConfig,
        seq: &'scope EyeSequence,
    ) -> Self {
        let (jobs, job_rx) = mpsc::channel::<WindowJob>();
        let (learned_tx, learned) = mpsc::channel();
        s.spawn(move || {
            bliss_parallel::with_thread_count(1, || {
                // Every job overwrites these initial weights.
                let mut rng = StdRng::seed_from_u64(0);
                let vit = SparseViT::new(&mut rng, config.vit);
                let roi_net = RoiPredictionNet::new(&mut rng, config.roi);
                let mut params = vit.parameters();
                params.extend(roi_net.parameters());
                let learn_job = |job: &WindowJob| -> Result<Vec<Learned>, TensorError> {
                    restore_params(&vit, &job.vit)?;
                    restore_params(&roi_net, &job.roi)?;
                    job.draws
                        .iter()
                        .map(|draw| {
                            let roi_out = roi_net.forward(&draw.roi_input)?;
                            let loss = learn(&config, &vit, seq, draw, roi_out)?;
                            let grads = params.iter().map(Tensor::take_grad).collect();
                            Ok(Learned { loss, grads })
                        })
                        .collect()
                };
                for job in job_rx {
                    if learned_tx.send(learn_job(&job)).is_err() {
                        break;
                    }
                    // Frame shapes vary, so a pool kept across windows fills
                    // to its buffer cap with size classes the next frame
                    // rarely takes (2 M f32 elements on the miniature
                    // config); the allocator reuses the freed memory instead.
                    bliss_tensor::release_thread_pools();
                }
            });
        });
        WindowWorker { jobs, learned }
    }

    fn send(&self, job: WindowJob) {
        self.jobs.send(job).expect("the training worker panicked");
    }

    fn recv(&self) -> Result<Vec<Learned>, TensorError> {
        self.learned.recv().expect("the training worker panicked")
    }
}

/// Trains and evaluates the dense RITnet-style CNN baseline at a fixed
/// downsampling factor — the paper's NPU-Full / NPU-ROI accuracy
/// baselines, where compression comes from image downsampling instead of
/// sparse sampling.
#[derive(Debug)]
pub struct DenseTrainer {
    net: RitnetLike,
    optimizer: Adam,
    downsample: usize,
    roi_only: bool,
    noise: ImagingNoise,
    epochs: usize,
    rng: StdRng,
}

impl DenseTrainer {
    /// Creates a dense baseline trainer.
    ///
    /// * `downsample` — integer image downsampling factor (compression =
    ///   `downsample²` for full frames);
    /// * `roi_only` — when true, pixels outside the ground-truth ROI are
    ///   zeroed before downsampling (the NPU-ROI variant); compression then
    ///   counts only ROI pixels.
    pub fn new(
        frame_width: usize,
        frame_height: usize,
        downsample: usize,
        roi_only: bool,
        seed: u64,
    ) -> Self {
        assert!(downsample > 0, "downsample must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        let config = CnnSegConfig::miniature(
            frame_width.div_ceil(downsample),
            frame_height.div_ceil(downsample),
        );
        let net = RitnetLike::new(&mut rng, config);
        let optimizer = Adam::new(net.parameters(), 1e-3);
        DenseTrainer {
            net,
            optimizer,
            downsample,
            roi_only,
            noise: ImagingNoise::default(),
            epochs: 1,
            rng,
        }
    }

    /// Overrides the number of training epochs.
    pub fn set_epochs(&mut self, epochs: usize) {
        self.epochs = epochs.max(1);
    }

    fn prepare(&mut self, frame: &bliss_eye::EyeFrame, w: usize, h: usize) -> (Vec<f32>, Vec<u8>) {
        let mut img = self.noise.apply(&frame.clean, 1.0, &mut self.rng);
        if self.roi_only {
            for y in 0..h {
                for x in 0..w {
                    if !frame.roi.contains(x, y) {
                        img[y * w + x] = 0.0;
                    }
                }
            }
        }
        let (ds, dw, dh) = crate::util::block_downsample(&img, w, h, self.downsample);
        debug_assert_eq!((dw, dh), {
            let c = self.net.config();
            (c.width, c.height)
        });
        let (gt, _, _) = crate::util::downsample_mask_max(&frame.mask, w, h, self.downsample);
        (ds, gt)
    }

    /// Trains over the sequence; returns per-step losses.
    ///
    /// # Errors
    ///
    /// Propagates tensor shape errors.
    pub fn train_on(&mut self, seq: &EyeSequence) -> Result<Vec<f32>, TensorError> {
        let (w, h) = (seq.width, seq.height);
        let mut losses = Vec::new();
        for _ in 0..self.epochs {
            for frame in &seq.frames {
                let (img, gt) = self.prepare(frame, w, h);
                let logits = self.net.forward_dense(&img)?;
                let targets: Vec<usize> = gt.iter().map(|&c| c as usize).collect();
                let class_weights = [0.4f32, 1.0, 1.5, 6.0];
                let weights: Vec<f32> = targets.iter().map(|&t| class_weights[t.min(3)]).collect();
                let weights = Tensor::constant(NdArray::from_vec(weights, &[targets.len()])?);
                let loss = logits.cross_entropy_rows_gated(&targets, &weights)?;
                self.optimizer.zero_grad();
                loss.backward()?;
                clip_global_norm(&self.net.parameters(), 5.0);
                self.optimizer.step();
                losses.push(loss.value().data()[0]);
            }
        }
        Ok(losses)
    }

    /// Evaluates gaze accuracy over the sequence.
    ///
    /// # Errors
    ///
    /// Propagates tensor shape errors.
    pub fn evaluate(&mut self, seq: &EyeSequence) -> Result<EvalResult, TensorError> {
        let (w, h) = (seq.width, seq.height);
        let mut estimator = GazeEstimator::new(seq.model.clone());
        let mut err_h = Vec::new();
        let mut err_v = Vec::new();
        let mut seg_accs = Vec::new();
        let mut transmitted = 0u64;
        for frame in seq.frames.iter().skip(1) {
            let (img, gt) = self.prepare(frame, w, h);
            let logits = self.net.forward_dense(&img)?;
            let classes = logits.value().argmax_rows().expect("rank-2 logits");
            let seg: Vec<u8> = classes.iter().map(|&c| c as u8).collect();
            let pairs: Vec<(usize, u8)> = seg.iter().enumerate().map(|(i, &c)| (i, c)).collect();
            seg_accs.push(seg_accuracy(&pairs, &gt));
            let cfg = self.net.config();
            let gaze = estimator.estimate_from_map(&seg, cfg.width, self.downsample as f32);
            err_h.push((gaze.horizontal_deg - frame.gaze.horizontal_deg).abs());
            err_v.push((gaze.vertical_deg - frame.gaze.vertical_deg).abs());
            transmitted += if self.roi_only {
                (frame.roi.area() / (self.downsample * self.downsample)) as u64
            } else {
                (cfg.width * cfg.height) as u64
            };
        }
        let frames = seq.frames.len() - 1;
        Ok(EvalResult {
            horizontal: AngularErrorStats::from_errors(&err_h),
            vertical: AngularErrorStats::from_errors(&err_v),
            seg_accuracy: seg_accs.iter().sum::<f32>() / seg_accs.len().max(1) as f32,
            mean_compression: (w * h * frames) as f32 / transmitted.max(1) as f32,
            mean_tokens: 0.0,
            frames,
        })
    }
}

#[cfg(test)]
mod tests {
    //! RNG-stream test policy: training outcomes flow through `StdRng`
    //! (weight init, rendered sequences), so they are asserted as
    //! *tolerance-based trends* (loss decreases, error below a bound) —
    //! never as golden literals pinned to one generator's stream. The
    //! workspace `StdRng` is the vendored xoshiro256\*\* shim, not upstream
    //! `rand`'s ChaCha12; only the shim's own suite pins exact draws.
    use super::*;
    use bliss_eye::{render_sequence, SequenceConfig};

    fn tiny_seq(frames: usize, seed: u64) -> EyeSequence {
        render_sequence(&SequenceConfig::miniature(frames, seed))
    }

    #[test]
    fn joint_training_reduces_loss() {
        let seq = tiny_seq(40, 11);
        let mut cfg = TrainConfig::smoke_test();
        cfg.epochs = 2;
        let mut trainer = JointTrainer::new(cfg).unwrap();
        let losses = trainer.train_on(&seq).unwrap();
        assert!(losses.len() > 20);
        let first: f32 = losses[..8].iter().sum::<f32>() / 8.0;
        let last: f32 = losses[losses.len() - 8..].iter().sum::<f32>() / 8.0;
        assert!(
            last < first,
            "loss did not decrease: first {first}, last {last}"
        );
    }

    #[test]
    fn evaluation_produces_finite_errors_and_compression() {
        let seq = tiny_seq(24, 12);
        let mut trainer = JointTrainer::new(TrainConfig::smoke_test()).unwrap();
        trainer.train_on(&seq).unwrap();
        let eval = trainer.evaluate(&seq).unwrap();
        assert_eq!(eval.frames, 23);
        assert!(eval.horizontal.mean.is_finite());
        assert!(eval.vertical.mean.is_finite());
        assert!(
            eval.mean_compression > 3.0,
            "compression {}",
            eval.mean_compression
        );
        assert!(eval.mean_tokens > 0.0);
    }

    #[test]
    fn roi_gradients_flow_from_seg_loss() {
        // With lambda_roi = 0 the ROI net can only learn through the gated
        // segmentation loss — its parameters must still receive gradients.
        let seq = tiny_seq(6, 13);
        let mut cfg = TrainConfig::smoke_test();
        cfg.lambda_roi = 0.0;
        let trainer = JointTrainer::new(cfg).unwrap();
        // Manually run one step and inspect gradients before the optimizer
        // clears them: replicate train_step's interior.
        let prev = seq.frames[0].clean.clone();
        let cur = seq.frames[1].clean.clone();
        let events = frame_difference_events(&cur, &prev, cfg.event_sigma);
        let input = trainer.roi_net.make_input(&events, &seq.frames[0].mask);
        let roi_out = trainer.roi_net.forward(&input).unwrap();
        let hard = trainer.roi_net.predict_box(&roi_out);
        let mut mask = vec![0.0f32; cur.len()];
        let mut values = vec![0.0f32; cur.len()];
        for y in hard.y1..hard.y2 {
            for x in hard.x1..hard.x2 {
                if (x + y) % 4 == 0 {
                    let i = y * seq.width + x;
                    mask[i] = 1.0;
                    values[i] = cur[i];
                }
            }
        }
        let pred = trainer.vit.forward(&values, &mask).unwrap().unwrap();
        let targets: Vec<usize> = pred
            .pixel_indices
            .iter()
            .map(|&i| seq.frames[1].mask[i] as usize)
            .collect();
        let gate = soft_gate(&cfg, &roi_out, &pred.pixel_indices, seq.width, seq.height).unwrap();
        let loss = pred
            .logits
            .cross_entropy_rows_gated(&targets, &gate)
            .unwrap();
        loss.backward().unwrap();
        let roi_grads = trainer
            .roi_net
            .parameters()
            .iter()
            .filter(|p| p.grad().is_some())
            .count();
        assert_eq!(
            roi_grads,
            trainer.roi_net.parameters().len(),
            "segmentation loss must reach the ROI network through the gate"
        );
    }

    #[test]
    fn skip_strategy_skips_static_frames() {
        let seq = tiny_seq(16, 14);
        let mut trainer = JointTrainer::new(TrainConfig::smoke_test()).unwrap();
        let eval = trainer
            .evaluate_with_strategy(
                &seq,
                &SamplingStrategy::Skip {
                    density_threshold: 2.0, // impossible: every frame skips
                },
                None,
            )
            .unwrap();
        assert!(eval.mean_compression > 1_000.0);
    }

    #[test]
    fn dense_trainer_runs_and_evaluates() {
        let seq = tiny_seq(16, 15);
        let mut t = DenseTrainer::new(160, 100, 2, false, 1);
        let losses = t.train_on(&seq).unwrap();
        assert!(!losses.is_empty());
        let eval = t.evaluate(&seq).unwrap();
        assert!((eval.mean_compression - 4.0).abs() < 0.5);
        assert!(eval.horizontal.mean.is_finite());
    }

    #[test]
    fn dense_roi_only_compresses_more() {
        let seq = tiny_seq(10, 16);
        let mut full = DenseTrainer::new(160, 100, 2, false, 2);
        let mut roi = DenseTrainer::new(160, 100, 2, true, 2);
        let ef = full.evaluate(&seq).unwrap();
        let er = roi.evaluate(&seq).unwrap();
        assert!(er.mean_compression > ef.mean_compression);
    }
}
