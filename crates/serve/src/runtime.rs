use crate::report::ServeReport;
use crate::session::{FrameRecord, Session, SessionConfig, SessionTrace};
use bliss_eye::{render_sequence, Scenario, SequenceConfig};
use bliss_tensor::{inference_mode, QuantCalibration, TensorError};
use bliss_timing::StageDurations;
use bliss_track::{JointTrainer, PlannedBatch, RoiPredictionNet, SparseViT};
use blisscam_core::{
    energy_breakdown_with_counts_at, host_batched_segmentation_time_s_at, stage_durations,
    Precision, SystemConfig, SystemVariant,
};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Load and scheduling parameters of one serving run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServeConfig {
    /// Concurrent sessions admitted.
    pub sessions: usize,
    /// Frames each session submits.
    pub frames_per_session: usize,
    /// Maximum frames fused into one host inference launch.
    pub max_batch: usize,
    /// Per-frame latency budget; a frame whose gaze lands later than
    /// `arrival + deadline_s` counts as a deadline miss.
    pub deadline_s: f64,
    /// Arrival stagger between consecutive sessions' first frames.
    pub stagger_s: f64,
    /// Maximum **cold-start** frames (a session's full-frame bootstrap read,
    /// before its first segmentation feedback) fused into one batch. A burst
    /// of simultaneous connects otherwise stacks several multi-millisecond
    /// full-frame launches into a single convoy that delays every warm frame
    /// behind it; excess cold frames are deterministically deferred to later
    /// batches instead (the head frame of a batch is always admitted, so
    /// progress is guaranteed for any value). `usize::MAX` disables the cap.
    pub max_cold_per_batch: usize,
    /// Base seed; per-session seeds are derived from it.
    pub seed: u64,
    /// Warmup exclusion window in virtual seconds: frames whose exposure
    /// starts before this instant still serve and still count in the
    /// all-frames statistics, but are **excluded** from the report's
    /// steady-state percentiles ([`crate::ServeReport::steady`]). The
    /// steady stats are the same recorded latencies filtered by arrival —
    /// exclusion never recomputes a frame's latency. `0.0` excludes
    /// nothing.
    pub warmup_s: f64,
    /// Arithmetic precision the host segmentation network serves at.
    ///
    /// `F32` (the default) is the reference path. `Int8` runs the
    /// quantised planned path: the shared ViT is post-training calibrated
    /// once over the scenario library (deterministic — depends only on the
    /// trained weights and the system seed), and each calibrated weight
    /// GEMM runs as one int8 linear step: activations are quantised to
    /// integer codes in ±127, multiplied exactly against the weight codes
    /// on the `f32` micro-kernel, and dequantised. Latency/energy
    /// accounting switches to the NPU's int8 mode.
    pub precision: Precision,
}

impl ServeConfig {
    /// A load point of `sessions` concurrent sessions at 120 FPS (the
    /// paper's tracking rate). See [`ServeConfig::for_fps`].
    pub fn new(sessions: usize, frames_per_session: usize) -> Self {
        Self::for_fps(120.0, sessions, frames_per_session)
    }

    /// A load point at an explicit tracking rate: batches of up to 16
    /// (work-conserving adaptive batching — fuse whatever is already ready,
    /// never idle the host waiting for future frames), a two-period
    /// deadline, a one-period admission ramp — sessions connect one frame
    /// apart, so their expensive full-frame cold-start reads do not all
    /// land on the host in the same instant — and at most 4 cold-start
    /// frames per fused batch (the cap catches the convoys the ramp cannot,
    /// e.g. reconnect storms).
    ///
    /// `fps` should match the served system's (timing) frame rate so the
    /// deadline and stagger track the real frame period.
    pub fn for_fps(fps: f64, sessions: usize, frames_per_session: usize) -> Self {
        let period = 1.0 / fps.max(1e-6);
        ServeConfig {
            sessions,
            frames_per_session,
            max_batch: 16,
            deadline_s: 2.0 * period,
            stagger_s: period,
            max_cold_per_batch: 4,
            precision: Precision::F32,
            seed: 0x5EB5,
            warmup_s: 0.0,
        }
    }

    /// The same load point served at `precision` (builder-style convenience
    /// for sweeps: `ServeConfig::new(8, 24).at_precision(Precision::Int8)`).
    pub fn at_precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }
}

/// Per-step fault-injection overrides for [`ServeRuntime::step_batch_with`].
///
/// The default (`time_dilation: 1.0`, `shed_period: 0`) reproduces
/// [`ServeRuntime::step_batch`] bit-for-bit — the chaos engine perturbs a
/// step only by passing non-default values, so a fault-free chaos run is
/// identical to a plain run by construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepOptions {
    /// Multiplies the host-side batched segmentation time of this step's
    /// launch (transient slow-host degradation — a cycle-budget multiplier
    /// through the latency model). `1.0` is nominal and leaves the timing
    /// bit-identical to an undilated step.
    pub time_dilation: f64,
    /// Graceful-degradation load shedding: when non-zero, a **warm** batch
    /// member (one that already has segmentation feedback) whose
    /// `session id + frame index` is a multiple of this period skips the
    /// host inference launch and falls back to the feedback ROI — the
    /// sensor still samples inside the previous ROI box, but no tokens
    /// reach the host and the gaze output holds the previous estimate.
    /// Cold-start frames are never shed (there is no feedback to fall back
    /// to). `0` serves everything.
    pub shed_period: usize,
}

impl Default for StepOptions {
    fn default() -> Self {
        StepOptions {
            time_dilation: 1.0,
            shed_period: 0,
        }
    }
}

/// What one [`ServeRuntime::step_batch_with`] call executed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepStats {
    /// Frames served by this step's fused batch.
    pub served: usize,
    /// How many of them missed their deadline.
    pub deadline_misses: usize,
    /// How many were shed (see [`StepOptions::shed_period`]).
    pub shed: usize,
    /// Virtual time the batch launched at.
    pub host_start_s: f64,
    /// Virtual time the host becomes free again.
    pub host_free_s: f64,
}

/// One session's scheduler progress at a batch boundary — the bookkeeping
/// the chaos engine uses for replayed-frame accounting at failover.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionProgress {
    /// The session's id.
    pub id: usize,
    /// Frames recorded so far.
    pub frames_served: usize,
    /// Next sequence frame to sense.
    pub next_frame: usize,
}

/// Everything a serving run produces: the aggregate report plus every
/// session's full per-frame trace.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOutcome {
    /// Aggregate + per-session statistics.
    pub report: ServeReport,
    /// Per-session frame traces (determinism suites compare these).
    pub traces: Vec<SessionTrace>,
}

/// Resumable scheduler state of one in-flight serving run.
///
/// Produced by [`ServeRuntime::start`], advanced one fused batch at a time
/// by [`ServeRuntime::step_batch`], and folded into the final
/// [`ServeOutcome`] by [`ServeRuntime::finish`]. Between steps the state
/// sits at a **batch boundary** — the only instants at which
/// [`ServeRuntime::snapshot`] captures it, so the event queue is always
/// exactly reconstructible from the per-session progress.
#[derive(Debug)]
pub struct ServeState {
    pub(crate) sessions: Vec<Session>,
    /// Event queue: (readiness time of the session's next frame, session).
    pub(crate) heap: BinaryHeap<Reverse<(Time, usize)>>,
    pub(crate) host_free_s: f64,
    pub(crate) host_busy_s: f64,
    /// The inference launches' lowering and output buffers, kept across
    /// steps so steady-state launches allocate nothing. Holds no state
    /// between steps, so snapshots leave it out.
    pub(crate) launch: PlannedBatch,
}

impl ServeState {
    /// Total frames served so far across all sessions.
    pub fn frames_served(&self) -> usize {
        self.sessions.iter().map(|s| s.records.len()).sum()
    }

    /// Whether every session has drained (no frame is waiting to serve).
    pub fn is_done(&self) -> bool {
        self.heap.is_empty()
    }

    /// Per-session scheduler progress, in session-slot order.
    pub fn progress(&self) -> Vec<SessionProgress> {
        self.sessions
            .iter()
            .map(|s| SessionProgress {
                id: s.config.id,
                frames_served: s.records.len(),
                next_frame: s.next_frame,
            })
            .collect()
    }
}

/// Virtual-time ordering key: finite f64 seconds with a total order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Time(pub(crate) f64);

impl Eq for Time {}

impl PartialOrd for Time {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Time {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// The multi-session streaming runtime.
///
/// One trained BlissCam model (sparse ViT + in-sensor ROI net) serves N
/// concurrent eye-tracking sessions, each replaying its own
/// [`Scenario`]-parameterised trace. A deterministic virtual-time scheduler
/// (event queue keyed by per-session frame readiness — **no wall clock
/// anywhere in the results path**) admits frames, fuses up to
/// [`ServeConfig::max_batch`] of them into one cross-session batched
/// inference launch ([`SparseViT::forward_batch_into`]), and accounts latency
/// against the analytic hardware model:
///
/// * sensor-side stages and the MIPI transfer come from
///   [`stage_durations`] (per-session hardware, so they overlap freely);
/// * frame *t*'s in-sensor ROI prediction waits for frame *t−1*'s
///   segmentation feedback (the paper's Fig. 8 cross-frame dependency),
///   which couples a session's pacing to host congestion;
/// * the host NPU is the shared resource: a batch launches when it is free,
///   costs [`host_batched_segmentation_time_s_at`] of the members' token
///   counts (fused weight GEMMs amortise row tiles, attention stays
///   per-frame), and serialises the per-frame gaze regressions after it.
///
/// Per-session accuracy, pixel volume and energy are **bit-identical** to
/// running the same [`SessionConfig`] alone, for every thread count — the
/// determinism suite enforces both properties.
#[derive(Debug)]
pub struct ServeRuntime {
    /// Executable-scale configuration (networks, sensor, energy accounting).
    pub(crate) system: SystemConfig,
    /// Timing-accounting configuration; defaults to `system`, or the paper's
    /// hardware point under [`ServeRuntime::with_paper_scale_timing`].
    timing: SystemConfig,
    /// Whether timing shapes are rescaled from executable to timing
    /// resolution (false when `timing == system`).
    pub(crate) scaled_timing: bool,
    /// ROI-area-fraction scale factor normalising the executable renderer's
    /// eye geometry to the timing configuration's expected ROI fraction.
    area_scale: f64,
    /// Sampled-pixel scale factor from executable to timing resolution.
    pixel_scale: f64,
    pub(crate) vit: SparseViT,
    pub(crate) roi_net: RoiPredictionNet,
    stages: StageDurations,
}

impl ServeRuntime {
    /// Trains the shared networks for `system` (seconds at miniature scale)
    /// and prepares the runtime.
    ///
    /// # Errors
    ///
    /// Propagates tensor errors from training.
    pub fn new(system: SystemConfig) -> Result<Self, TensorError> {
        let train_seq = render_sequence(&SequenceConfig {
            width: system.width,
            height: system.height,
            frames: system.train_frames.max(8),
            fps: system.fps as f32,
            seed: system.seed,
        });
        let mut trainer = JointTrainer::new(system.train_config())?;
        trainer.train_on(&train_seq)?;
        let vit = trainer.vit().clone();
        let roi_net = trainer.roi_net().clone();
        Ok(Self::with_networks(system, vit, roi_net))
    }

    /// Wraps already-trained networks (shares parameters, no copy).
    pub fn with_networks(system: SystemConfig, vit: SparseViT, roi_net: RoiPredictionNet) -> Self {
        let stages = stage_durations(&system, SystemVariant::BlissCam);
        ServeRuntime {
            system,
            timing: system,
            scaled_timing: false,
            area_scale: 1.0,
            pixel_scale: 1.0,
            vit,
            roi_net,
            stages,
        }
    }

    /// Plan-cache counters of the shared sparse ViT (one compiled plan per
    /// batch span layout), read from the cache planned inference currently
    /// routes through: the int8 cache after an int8 serve, the f32 cache
    /// otherwise.
    pub fn vit_plan_stats(&self) -> bliss_tensor::PlanCacheStats {
        if self.vit.int8_enabled() {
            self.vit.quant_plan_stats()
        } else {
            self.vit.plan_stats()
        }
    }

    /// Plan-cache counters of the ROI net's planned state (a single
    /// fixed-shape plan).
    pub fn roi_plan_stats(&self) -> bliss_tensor::PlanCacheStats {
        self.roi_net.plan_stats()
    }

    /// Puts the shared ViT in the precision `cfg` asks for, calibrating the
    /// int8 spec on first need.
    ///
    /// Every serve entry point ([`ServeRuntime::serve`],
    /// [`ServeRuntime::serve_sessions`], [`ServeRuntime::start`],
    /// [`ServeRuntime::restore`]) calls this; it is public so tests driving
    /// [`ServeRuntime::start_sessions`]/[`ServeRuntime::step_batch`]
    /// directly can too. Calibration is **deterministic**: the frames come
    /// from `ServeRuntime::calibration_sessions` — a fixed scenario-library
    /// sweep seeded only by the system seed — so two runtimes holding
    /// bit-identical weights (e.g. either side of a snapshot restore) derive
    /// bit-identical quantisation specs without the spec ever being
    /// serialised.
    ///
    /// # Errors
    ///
    /// Propagates tensor errors from the calibration forwards.
    pub fn apply_precision(&self, cfg: &ServeConfig) -> Result<(), TensorError> {
        match cfg.precision {
            Precision::F32 => self.vit.set_int8(false),
            Precision::Int8 => {
                if self.vit.int8_sites() == 0 {
                    self.calibrate_int8()?;
                }
                self.vit.set_int8(true)
            }
        }
    }

    /// The fixed post-training calibration fleet: one short session per
    /// scenario in [`Scenario::ALL`], seeded from the system seed alone (so
    /// the set is independent of any particular [`ServeConfig`] load point).
    fn calibration_sessions(&self) -> Vec<SessionConfig> {
        /// Frames each calibration session contributes (frame 0 primes the
        /// sensor; the rest alternate one cold full-frame read and warm
        /// feedback-driven sparse reads, covering both activation regimes).
        const CALIBRATION_FRAMES: usize = 4;
        Scenario::ALL
            .iter()
            .enumerate()
            .map(|(id, &scenario)| SessionConfig {
                id,
                scenario,
                seed: self
                    .system
                    .seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(0xCA11_B000 + id as u64),
                frames: CALIBRATION_FRAMES,
                start_offset_s: 0.0,
            })
            .collect()
    }

    /// Records activation absmax ranges over the scenario library and
    /// freezes them into the shared ViT's int8 spec.
    ///
    /// Serves each of [`ServeRuntime::calibration_sessions`] at f32
    /// through [`ServeRuntime::step_batch`], one frame per launch, and
    /// folds each launch's lowered inputs into the ranges, so the observed
    /// ranges cover cold full-frame and warm sparse activations alike. The
    /// fold is order-free and each session's frames do not depend on how
    /// they are batched, so the spec is a function of the weights and the
    /// system seed alone.
    fn calibrate_int8(&self) -> Result<usize, TensorError> {
        self.vit.set_int8(false)?;
        // Stepping reads only the scheduling fields; the sessions carry
        // their own frame counts.
        let cfg = ServeConfig {
            max_batch: 1,
            ..ServeConfig::new(1, 0)
        };
        let mut calib = QuantCalibration::new();
        // One session per run: a lone session is built on this thread, so
        // its buffers return to this thread's allocator for the serving
        // that follows. The whole population built at once on the pool
        // would leave its freed buffers in the workers' malloc arenas
        // (about 3 MiB more peak RSS in loopbench's device-int8 workload
        // on a 2-vCPU VM).
        for session in self.calibration_sessions() {
            let mut state = self.start_sessions(vec![session]);
            while self.step_batch(&cfg, &mut state)? {
                self.vit
                    .observe_int8_calibration(&mut calib, &state.launch)?;
            }
        }
        self.vit.finish_int8_calibration(&calib)
    }

    /// Number of quantised matmul sites in the shared ViT's int8 spec
    /// (0 before any int8 serve).
    pub fn int8_sites(&self) -> usize {
        self.vit.int8_sites()
    }

    /// Switches latency accounting to the paper's hardware point (640x400 @
    /// 120 FPS, ViT-S host on a 7 nm NPU) while the executable miniature
    /// pipeline keeps supplying *measured* per-frame occupancy.
    ///
    /// The measured ROI box is mapped geometrically: its area fraction —
    /// first normalised by the ratio of the paper's expected ROI fraction
    /// (0.134, §VI-C) to the miniature renderer's *measured* ground-truth
    /// ROI fraction, so only the predictor's looseness relative to its own
    /// renderer carries across scales — is re-projected onto the paper's
    /// 40x25 patch grid to give the occupied-token count of the same gaze
    /// situation at 640x400 (a cold-start full-frame read maps to all 1 000
    /// patches, a tight steady-state box to ~100–200). Sampled-pixel volume
    /// scales by the frame-area ratio. At this point the host's
    /// millisecond-class sparse-segmentation launches meet the 8.3 ms frame
    /// period, so the 1→64-session load sweep crosses the saturation knee
    /// instead of idling below it.
    pub fn with_paper_scale_timing(mut self) -> Self {
        let timing = SystemConfig::paper();
        self.scaled_timing = true;
        // Calibrate the renderer-geometry normalisation from a fixed-seed
        // miniature sequence (deterministic: depends only on the system
        // configuration).
        let calib = render_sequence(&SequenceConfig {
            width: self.system.width,
            height: self.system.height,
            frames: 24,
            fps: self.system.fps as f32,
            seed: self.system.seed ^ 0xCA11B,
        });
        let gt_frac =
            (calib.mean_roi_area() as f64 / self.system.pixels().max(1) as f64).clamp(1e-3, 1.0);
        self.area_scale = (timing.roi_fraction / gt_frac).min(1.0);
        self.pixel_scale = timing.pixels() as f64 / self.system.pixels().max(1) as f64;
        self.stages = stage_durations(&timing, SystemVariant::BlissCam);
        self.timing = timing;
        self
    }

    /// Maps one frame's measured occupancy to the timing scale.
    ///
    /// At native timing (default) the measured shapes pass through. Under
    /// paper-scale timing, the ROI box area fraction is re-projected onto
    /// the timing patch grid (assuming the box follows the frame's aspect
    /// ratio), because nearly every patch a sampled ROI box touches holds at
    /// least one sample at the paper's in-ROI rates.
    fn timing_shape(&self, tokens: usize, sampled: usize, roi_pixels: u64) -> (usize, usize) {
        if !self.scaled_timing {
            return (tokens, sampled);
        }
        if tokens == 0 {
            return (0, 0);
        }
        let (gw, gh) = self.timing.vit.grid_dims();
        let pixels = self.system.pixels().max(1);
        // A full-frame bootstrap read stays a full-frame read at the timing
        // scale; predicted boxes are normalised by the renderer-geometry
        // calibration.
        let area_frac = if roi_pixels as usize >= pixels {
            1.0
        } else {
            (roi_pixels as f64 / pixels as f64 * self.area_scale).min(1.0)
        };
        let side = area_frac.sqrt();
        let t = ((side * gw as f64).floor() + 1.0) * ((side * gh as f64).floor() + 1.0);
        let t = (t as usize).min(gw * gh).max(1);
        let px = (sampled as f64 * self.pixel_scale).round() as usize;
        (t, px)
    }

    /// The hardware/model configuration being served.
    pub fn system(&self) -> &SystemConfig {
        &self.system
    }

    /// The configuration used for latency accounting (differs from
    /// [`ServeRuntime::system`] under paper-scale timing).
    pub fn timing_system(&self) -> &SystemConfig {
        &self.timing
    }

    /// The deterministic session fleet for a load point: scenarios assigned
    /// round-robin, seeds and arrival offsets derived per id.
    pub fn session_configs(&self, cfg: &ServeConfig) -> Vec<SessionConfig> {
        (0..cfg.sessions)
            .map(|id| SessionConfig {
                id,
                scenario: Scenario::for_index(id),
                seed: cfg
                    .seed
                    .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(id as u64 + 1)),
                frames: cfg.frames_per_session,
                start_offset_s: id as f64 * cfg.stagger_s,
            })
            .collect()
    }

    /// Serves the full fleet of [`ServeRuntime::session_configs`].
    ///
    /// # Errors
    ///
    /// Propagates tensor errors from inference.
    pub fn serve(&self, cfg: &ServeConfig) -> Result<ServeOutcome, TensorError> {
        self.serve_sessions(cfg, self.session_configs(cfg))
    }

    /// Serves an explicit set of sessions under `cfg`'s scheduling
    /// parameters (the determinism suite replays single sessions solo this
    /// way).
    ///
    /// # Errors
    ///
    /// Propagates tensor errors from inference.
    pub fn serve_sessions(
        &self,
        cfg: &ServeConfig,
        session_cfgs: Vec<SessionConfig>,
    ) -> Result<ServeOutcome, TensorError> {
        self.apply_precision(cfg)?;
        let mut state = self.start_sessions(session_cfgs);
        while self.step_batch(cfg, &mut state)? {}
        Ok(self.finish(cfg, state))
    }

    /// Starts a resumable run over [`ServeRuntime::session_configs`] — the
    /// stepping counterpart of [`ServeRuntime::serve`]. Applies the
    /// configured precision first (calibrating int8 on first need); an int8
    /// precision error surfaces at the first [`ServeRuntime::step_batch`]
    /// instead of here.
    pub fn start(&self, cfg: &ServeConfig) -> ServeState {
        let _ = self.apply_precision(cfg);
        self.start_sessions(self.session_configs(cfg))
    }

    /// Starts a resumable run over an explicit session set: renders every
    /// session's trace, primes its front end and seeds the event queue.
    ///
    /// Sessions are built in parallel on the `bliss_parallel` pool, one per
    /// task; each is a pure function of its config, so the state is the same
    /// for any thread count. A single session builds inline, keeping the
    /// pool for its renderer's rows.
    pub fn start_sessions(&self, session_cfgs: Vec<SessionConfig>) -> ServeState {
        let system = &self.system;
        let sessions = bliss_parallel::par_map_collect(session_cfgs.len(), |i| {
            Session::new(session_cfgs[i], system)
        });
        let mut state = ServeState {
            sessions,
            heap: BinaryHeap::new(),
            host_free_s: 0.0,
            host_busy_s: 0.0,
            launch: PlannedBatch::new(),
        };
        self.rebuild_heap(&mut state);
        state
    }

    /// Reconstructs the event queue from per-session progress — used both at
    /// start and after a snapshot restore (the queue holds no information
    /// beyond each session's next readiness time, which is a pure function
    /// of its state at a batch boundary).
    pub(crate) fn rebuild_heap(&self, state: &mut ServeState) {
        state.heap.clear();
        for (i, s) in state.sessions.iter().enumerate() {
            if s.has_next() {
                state.heap.push(Reverse((Time(self.next_ready(s)), i)));
            }
        }
    }

    /// Schedules and executes **one** fused batch, advancing the state to
    /// the next batch boundary. Returns `false` once every session has
    /// drained (nothing was executed).
    ///
    /// # Errors
    ///
    /// Propagates tensor errors from inference.
    pub fn step_batch(
        &self,
        cfg: &ServeConfig,
        state: &mut ServeState,
    ) -> Result<bool, TensorError> {
        Ok(self
            .step_batch_with(cfg, state, &StepOptions::default())?
            .is_some())
    }

    /// [`ServeRuntime::step_batch`] with fault-injection overrides: an
    /// optional slow-host time dilation on the launch and an optional
    /// deterministic shed mask (see [`StepOptions`]). Returns the executed
    /// batch's [`StepStats`], or `None` once every session has drained.
    ///
    /// Batch **selection** is identical to a plain step — dilation and
    /// shedding perturb only what the selected batch costs and which
    /// members reach the host — so a run stepped with default options is
    /// bit-identical to one stepped with [`ServeRuntime::step_batch`].
    ///
    /// # Errors
    ///
    /// Propagates tensor errors from inference.
    pub fn step_batch_with(
        &self,
        cfg: &ServeConfig,
        state: &mut ServeState,
        opts: &StepOptions,
    ) -> Result<Option<StepStats>, TensorError> {
        assert!(cfg.max_batch > 0, "max_batch must be positive");
        assert!(
            opts.time_dilation.is_finite() && opts.time_dilation >= 1.0,
            "time_dilation must be a finite slowdown factor >= 1"
        );
        let Some(Reverse((first_ready, first))) = state.heap.pop() else {
            return Ok(None);
        };
        let sessions = &mut state.sessions;
        let heap = &mut state.heap;
        // Adaptive batching: every frame that is (or becomes) ready by
        // the time the host could start joins, up to max_batch. Selection
        // depends only on virtual times, so the schedule is deterministic.
        let gate = state.host_free_s.max(first_ready.0);
        let mut batch: Vec<(usize, f64)> = vec![(first, first_ready.0)];
        // Cold-start cap: the head frame is always admitted (progress),
        // further cold-start full-frame reads join only up to the cap;
        // the rest re-enter the heap with their readiness unchanged and
        // land in a later batch. Deferral depends only on virtual times
        // and per-session feedback state, so the schedule stays
        // deterministic.
        let mut cold = usize::from(sessions[first].is_cold());
        let mut deferred: Vec<(Time, usize)> = Vec::new();
        while batch.len() < cfg.max_batch {
            match heap.peek() {
                Some(&Reverse((t, i))) if t.0 <= gate => {
                    heap.pop();
                    if sessions[i].is_cold() {
                        if cold >= cfg.max_cold_per_batch {
                            deferred.push((t, i));
                            continue;
                        }
                        cold += 1;
                    }
                    batch.push((i, t.0));
                }
                _ => break,
            }
        }
        for d in deferred {
            heap.push(Reverse(d));
        }
        // Fixed processing order (by session id) so front-end execution
        // order never depends on heap tie-breaking internals.
        batch.sort_unstable_by_key(|&(i, _)| i);

        // The batch launches once the host is free and every member has
        // arrived.
        let last_ready = batch.iter().map(|&(_, r)| r).fold(f64::MIN, f64::max);
        let host_start = state.host_free_s.max(last_ready);
        let (host_free, mut stats) =
            self.run_batch(cfg, sessions, &mut state.launch, &batch, host_start, opts)?;
        state.host_free_s = host_free;
        state.host_busy_s += host_free - host_start;
        stats.host_start_s = host_start;
        stats.host_free_s = host_free;

        for &(i, _) in &batch {
            if state.sessions[i].has_next() {
                state
                    .heap
                    .push(Reverse((Time(self.next_ready(&state.sessions[i])), i)));
            }
        }
        Ok(Some(stats))
    }

    /// Virtual time at which the **next** fused batch would launch: the
    /// host-free time, or the head frame's readiness when that is later.
    /// `None` once the state has drained. Pure observation — the chaos
    /// engine uses it to decide, at a batch boundary, whether a scheduled
    /// virtual-time fault has come due on this host.
    pub fn next_launch_start_s(&self, state: &ServeState) -> Option<f64> {
        state
            .heap
            .peek()
            .map(|&Reverse((t, _))| state.host_free_s.max(t.0))
    }

    /// Stalls the host without executing anything: advances the host-free
    /// clock to `next launch start + stall_s`, charging the stall as busy
    /// time (the host was occupied by the timed-out launch attempt).
    /// Returns the new host-free time, or `None` when the state has
    /// drained (nothing to stall on).
    ///
    /// This is the batch-timeout primitive: the attempt occupies the host
    /// and then fails, **no front-end state advances**, and the retry —
    /// the next ordinary step — re-selects and executes the batch once.
    /// Output bit-identity is preserved because execution still happens
    /// exactly once per frame; only the timing shifts.
    pub fn stall_host(&self, state: &mut ServeState, stall_s: f64) -> Option<f64> {
        assert!(
            stall_s.is_finite() && stall_s >= 0.0,
            "stall_s must be finite and non-negative"
        );
        let start = self.next_launch_start_s(state)?;
        state.host_free_s = start + stall_s;
        state.host_busy_s += stall_s;
        Some(state.host_free_s)
    }

    /// Folds a drained (or deliberately abandoned) run into its outcome.
    pub fn finish(&self, cfg: &ServeConfig, state: ServeState) -> ServeOutcome {
        let traces: Vec<SessionTrace> = state
            .sessions
            .into_iter()
            .map(|s| SessionTrace {
                config: s.config,
                records: s.records,
            })
            .collect();
        let report = ServeReport::from_traces(cfg, &traces, state.host_busy_s);
        ServeOutcome { report, traces }
    }

    /// Virtual time at which the session's next frame reaches the host:
    /// arrival-paced exposure + eventification, in-sensor ROI prediction
    /// gated on the previous frame's feedback, sampling, readout and the
    /// sparse MIPI transfer.
    fn next_ready(&self, s: &Session) -> f64 {
        let st = &self.stages;
        let arrival = self.arrival_s(s);
        let sensed = arrival + st.exposure_s + st.eventify_s;
        let roi_start = sensed.max(s.prev_completion_s + st.feedback_s);
        roi_start + st.roi_pred_s + st.sampling_s + st.readout_s + st.mipi_s
    }

    /// Exposure start of the session's next frame.
    fn arrival_s(&self, s: &Session) -> f64 {
        let period = self.timing.frame_period_s();
        s.config.start_offset_s + (s.next_frame - 1) as f64 * period
    }

    /// Executes one scheduled batch end-to-end, launching at `host_start`,
    /// and returns the new host-free time plus the step's counters (the
    /// caller fills in the timing fields).
    fn run_batch(
        &self,
        cfg: &ServeConfig,
        sessions: &mut [Session],
        launch: &mut PlannedBatch,
        batch: &[(usize, f64)],
        host_start: f64,
        opts: &StepOptions,
    ) -> Result<(f64, StepStats), TensorError> {
        let st = &self.stages;
        // The precision contract: when the config says int8, the shared ViT
        // must actually be serving int8 plans — otherwise the energy/latency
        // accounting below would claim a precision the compute never ran.
        // `apply_precision` (called by every entry point) establishes this;
        // the check catches direct `step_batch` drivers that skipped it.
        if cfg.precision == Precision::Int8 && !self.vit.int8_enabled() {
            return Err(TensorError::InvalidArgument {
                op: "run_batch",
                message: "int8 precision configured but the ViT is not serving int8 \
                          plans; call apply_precision before stepping"
                    .to_string(),
            });
        }
        let indices: Vec<usize> = batch.iter().map(|&(i, _)| i).collect();
        let mut refs = disjoint_muts(sessions, &indices);
        let roi_cfg = *self.roi_net.config();
        // Telemetry is write-only and never feeds back into scheduling, so
        // one flag read up front keeps the disabled path to a handful of
        // branches per batch.
        let tel = bliss_telemetry::enabled();
        let w0 = if tel {
            bliss_telemetry::wall_now_ns()
        } else {
            0
        };

        // Stage A (parallel across sessions): front-end stages 1+2 — noise
        // -> exposure -> analog eventification -> ROI-net input assembly.
        // Pure per-session state, staged in each session's reused buffers.
        bliss_parallel::par_map_mut(&mut refs, |_, s| s.prepare_roi_input(&roi_cfg));
        let w1 = if tel {
            bliss_telemetry::wall_now_ns()
        } else {
            0
        };

        // Stage B (serial, tiny): in-sensor ROI prediction per session, with
        // the front-end's cold-start full-frame fallback. The network holds
        // shared autograd parameters, so it stays off the pool.
        let mut boxes = Vec::with_capacity(refs.len());
        for s in &refs {
            let roi_out = inference_mode(|| self.roi_net.forward(&s.roi_input))?;
            boxes.push(s.front.select_box(&self.roi_net, &roi_out));
        }
        let w2 = if tel {
            bliss_telemetry::wall_now_ns()
        } else {
            0
        };

        // Stage C (parallel): front-end stage 4 — SRAM-sampled readout, RLE
        // encode/decode and sparse-image reconstruction, each into the
        // session's reused `SensedFrame` staging.
        let sample_rate = self.system.sample_rate;
        bliss_parallel::par_map_mut(&mut refs, |i, s| s.read_out(boxes[i], sample_rate))
            .into_iter()
            .collect::<Result<(), _>>()?;
        let w3 = if tel {
            bliss_telemetry::wall_now_ns()
        } else {
            0
        };

        // Graceful-degradation shed mask: a deterministic function of each
        // member's (session id, frame index) and feedback state — never of
        // batching or placement — so the same frames are shed no matter how
        // the scheduler grouped them. Cold-start members always serve.
        let shed_mask: Vec<bool> = refs
            .iter()
            .map(|s| {
                opts.shed_period > 0
                    && s.front.has_feedback()
                    && (s.config.id + (s.next_frame - 1)) % opts.shed_period == 0
            })
            .collect();

        // Stage D: ONE cross-session batched inference launch over the
        // staged frames of the members that were not shed. Shed members
        // receive no prediction — their front end holds the previous gaze
        // estimate and keeps its feedback segmentation.
        let live_frames: Vec<(&[f32], &[f32])> = refs
            .iter()
            .zip(&shed_mask)
            .filter(|&(_, &shed)| !shed)
            .map(|(s, _)| (&s.sensed.image[..], &s.sensed.mask[..]))
            .collect();
        let any_live = !live_frames.is_empty();
        if any_live {
            self.vit.forward_batch_into(&live_frames, launch)?;
        }
        drop(live_frames);
        // Each member's result: its live position's frame of the launch.
        let mut live = 0;
        let slots: Vec<Option<usize>> = shed_mask
            .iter()
            .map(|&shed| {
                (!shed).then(|| {
                    live += 1;
                    live - 1
                })
            })
            .collect();
        let prediction = |pos: usize| slots[pos].and_then(|slot| launch.frame(slot));
        let w4 = if tel {
            bliss_telemetry::wall_now_ns()
        } else {
            0
        };

        // Host timing: the batch launch costs one block-diagonal pass —
        // fused weight GEMMs over the summed tokens (each paying its
        // dispatch overhead once for the whole batch), per-frame attention —
        // at the timing scale; gaze regressions serialise afterwards. Shed
        // members never reach the host, so they contribute no launch shape;
        // a fully-shed batch costs no host time at all. The slow-host
        // dilation multiplies only the inference launch (the NPU's cycle
        // budget), not the per-frame gaze regressions.
        let frame_shapes: Vec<(usize, usize)> = refs
            .iter()
            .enumerate()
            .filter(|&(pos, _)| !shed_mask[pos])
            .map(|(pos, s)| {
                let tokens = prediction(pos).map_or(0, |p| p.tokens);
                self.timing_shape(tokens, s.sensed.sampled, s.sensed.roi_pixels)
            })
            .collect();
        let seg_time = if any_live {
            host_batched_segmentation_time_s_at(&self.timing, &frame_shapes, cfg.precision)
                * opts.time_dilation
        } else {
            0.0
        };

        // Stage E (serial): front-end stage 6 — close the feedback loop and
        // regress gaze — then record the frame.
        let mut deadline_misses = 0usize;
        let shed_count = shed_mask.iter().filter(|&&m| m).count();
        for (pos, s) in refs.iter_mut().enumerate() {
            let t = s.next_frame;
            let truth = s.next_truth();
            let (gaze, tokens) = s.front.absorb_frame(prediction(pos));
            let counts = s.sensed.counts(tokens);
            let energy = energy_breakdown_with_counts_at(
                &self.system,
                SystemVariant::BlissCam,
                &counts,
                cfg.precision,
            );
            let arrival = self.arrival_s(s);
            let completion = host_start + seg_time + st.gaze_s * (pos + 1) as f64;
            let latency = completion - arrival;
            let missed = latency > cfg.deadline_s;
            deadline_misses += usize::from(missed);
            s.records.push(FrameRecord {
                index: t - 1,
                arrival_s: arrival,
                completion_s: completion,
                latency_s: latency,
                deadline_missed: missed,
                batch_size: batch.len(),
                gaze_prediction: gaze,
                gaze_truth: truth,
                horizontal_error_deg: (gaze.horizontal_deg - truth.horizontal_deg).abs(),
                vertical_error_deg: (gaze.vertical_deg - truth.vertical_deg).abs(),
                sampled_pixels: s.sensed.sampled,
                roi_pixels: s.sensed.roi_pixels,
                tokens,
                mipi_bytes: s.sensed.mipi_bytes,
                energy_j: energy.total_j(),
                shed: shed_mask[pos],
            });
            s.prev_completion_s = completion;
            s.next_frame = t + 1;
        }
        if tel {
            self.record_batch_telemetry(
                &refs,
                batch,
                st,
                host_start,
                seg_time,
                [w0, w1, w2, w3, w4],
            );
        }
        Ok((
            host_start + seg_time + st.gaze_s * batch.len() as f64,
            StepStats {
                served: batch.len(),
                deadline_misses,
                shed: shed_count,
                host_start_s: host_start,
                host_free_s: 0.0,
            },
        ))
    }

    /// Emits per-frame, per-stage spans for one executed batch. Pure
    /// reconstruction from the scheduler's own accounting — each member's
    /// virtual stage timeline is recovered from its recorded frame and its
    /// readiness time in `batch` — so telemetry reads state the results
    /// path already produced and writes nothing back.
    fn record_batch_telemetry(
        &self,
        refs: &[&mut Session],
        batch: &[(usize, f64)],
        st: &StageDurations,
        host_start: f64,
        seg_time: f64,
        walls: [u64; 5],
    ) {
        use bliss_telemetry::{record_span, SpanRecord, Stage};

        let [w0, w1, w2, w3, w4] = walls;
        let w5 = bliss_telemetry::wall_now_ns();
        let host = bliss_telemetry::current_host();
        // Sensor-side readiness decomposition (see `next_ready`): a frame's
        // readiness is roi_start + roi_pred + sampling + readout + mipi, so
        // the ROI stage start — including any stall waiting for the
        // previous frame's feedback — falls straight out of the readiness
        // time the batch already carries.
        let tail = st.roi_pred_s + st.sampling_s + st.readout_s + st.mipi_s;
        for (pos, (s, &(_, ready))) in refs.iter().zip(batch).enumerate() {
            let rec = s.records.last().expect("batch member was just recorded");
            let base = SpanRecord {
                stage: Stage::Expose,
                scenario: s.config.scenario.index() as u8,
                host,
                session: s.config.id as u32,
                frame: rec.index as u32,
                batch: batch.len() as u32,
                virt_start_s: rec.arrival_s,
                virt_dur_s: st.exposure_s,
                wall_start_ns: w0,
                wall_dur_ns: w1 - w0,
            };
            record_span(base);
            record_span(SpanRecord {
                stage: Stage::Eventify,
                virt_start_s: rec.arrival_s + st.exposure_s,
                virt_dur_s: st.eventify_s,
                ..base
            });
            let roi_start = ready - tail;
            record_span(SpanRecord {
                stage: Stage::RoiPredict,
                virt_start_s: roi_start,
                virt_dur_s: st.roi_pred_s,
                wall_start_ns: w1,
                wall_dur_ns: w2 - w1,
                ..base
            });
            record_span(SpanRecord {
                stage: Stage::Readout,
                virt_start_s: roi_start + st.roi_pred_s,
                virt_dur_s: st.sampling_s + st.readout_s + st.mipi_s,
                wall_start_ns: w2,
                wall_dur_ns: w3 - w2,
                ..base
            });
            record_span(SpanRecord {
                stage: Stage::Inference,
                virt_start_s: host_start,
                virt_dur_s: seg_time,
                wall_start_ns: w3,
                wall_dur_ns: w4 - w3,
                ..base
            });
            record_span(SpanRecord {
                stage: Stage::Feedback,
                virt_start_s: host_start + seg_time + st.gaze_s * pos as f64,
                virt_dur_s: st.gaze_s,
                wall_start_ns: w4,
                wall_dur_ns: w5 - w4,
                ..base
            });
        }
    }
}

/// Splits `sessions` into disjoint mutable references at strictly ascending
/// `indices`.
fn disjoint_muts<'a>(sessions: &'a mut [Session], indices: &[usize]) -> Vec<&'a mut Session> {
    let mut out = Vec::with_capacity(indices.len());
    let mut rest = sessions;
    let mut base = 0usize;
    for &i in indices {
        let (head, tail) = rest.split_at_mut(i - base + 1);
        out.push(&mut head[i - base]);
        rest = tail;
        base = i + 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A small untrained runtime; every call holds the same weights, in
    /// networks (and plan caches) of its own.
    fn runtime() -> ServeRuntime {
        let mut system = SystemConfig::miniature();
        system.vit.dim = 24;
        system.vit.enc_depth = 1;
        system.vit.dec_depth = 1;
        system.roi_net.hidden = 16;
        let mut rng = StdRng::seed_from_u64(0xCA11);
        ServeRuntime::with_networks(
            system,
            SparseViT::new(&mut rng, system.vit),
            RoiPredictionNet::new(&mut rng, system.roi_net),
        )
    }

    #[test]
    fn int8_calibration_does_not_depend_on_how_its_frames_are_batched() {
        let cfg = ServeConfig::new(4, 6).at_precision(Precision::Int8);
        let served = runtime();
        served.apply_precision(&cfg).unwrap();

        // The same calibration population, fused up to 16 frames a launch.
        let replayed = runtime();
        let sessions = replayed.calibration_sessions();
        let fused = ServeConfig {
            max_batch: 16,
            max_cold_per_batch: usize::MAX,
            ..ServeConfig::new(sessions.len(), 0)
        };
        let mut state = replayed.start_sessions(sessions);
        let mut calib = QuantCalibration::new();
        let mut widest = 0;
        while let Some(step) = replayed
            .step_batch_with(&fused, &mut state, &StepOptions::default())
            .unwrap()
        {
            widest = widest.max(step.served);
            replayed
                .vit
                .observe_int8_calibration(&mut calib, &state.launch)
                .unwrap();
        }
        assert!(widest > 1, "the replay must fuse frames into one launch");
        let sites = replayed.vit.finish_int8_calibration(&calib).unwrap();
        assert_eq!(sites, served.int8_sites());
        replayed.apply_precision(&cfg).unwrap();

        let a = served.serve(&cfg).unwrap();
        let b = replayed.serve(&cfg).unwrap();
        assert_eq!(a.traces, b.traces, "served int8 records differ");
    }
}
