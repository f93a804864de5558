use bliss_eye::{EyeSequence, Gaze, Scenario};
use bliss_sensor::RoiBox;
use bliss_tensor::{NdArray, TensorError};
use bliss_track::RoiNetConfig;
use blisscam_core::{SensedFrame, SparseFrontEnd, SystemConfig};
use serde::{Deserialize, Serialize};

/// Identity and workload of one streaming session.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SessionConfig {
    /// Session id (stable across solo and fleet runs).
    pub id: usize,
    /// The oculomotor workload this session replays.
    pub scenario: Scenario,
    /// Per-session seed: fixes the eye texture, trajectory, imaging noise and
    /// sensor entropy independently of every other session.
    pub seed: u64,
    /// Frames this session submits.
    pub frames: usize,
    /// Virtual-time offset of the session's first exposure, in seconds
    /// (staggers fleet arrivals like real user connects).
    pub start_offset_s: f64,
}

/// Everything recorded about one served frame.
///
/// The accuracy/volume fields depend only on the owning session's state and
/// the shared trained networks — they are bit-identical between solo and
/// fleet runs. The timing fields additionally depend on fleet contention
/// (queueing and batching), which is exactly what the load sweep measures.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrameRecord {
    /// Frame index within the session (0-based).
    pub index: usize,
    /// Exposure start in virtual seconds.
    pub arrival_s: f64,
    /// Gaze-output time in virtual seconds.
    pub completion_s: f64,
    /// End-to-end latency (`completion - arrival`).
    pub latency_s: f64,
    /// Whether the latency exceeded the configured deadline.
    pub deadline_missed: bool,
    /// How many frames shared this frame's inference batch.
    pub batch_size: usize,
    /// Predicted gaze.
    pub gaze_prediction: Gaze,
    /// Ground-truth gaze.
    pub gaze_truth: Gaze,
    /// Absolute horizontal error in degrees.
    pub horizontal_error_deg: f32,
    /// Absolute vertical error in degrees.
    pub vertical_error_deg: f32,
    /// Pixels transmitted to the host.
    pub sampled_pixels: usize,
    /// Area of the readout box, in pixels (full frame on a cold start) —
    /// the ROI-predictor tightness signal the load sweeps track.
    pub roi_pixels: u64,
    /// Occupied ViT tokens contributed to the batch.
    pub tokens: usize,
    /// Bytes on the MIPI link (RLE-compressed).
    pub mipi_bytes: u64,
    /// Per-frame energy in joules under the BlissCam hardware model.
    pub energy_j: f64,
    /// Whether graceful degradation shed this frame's host inference: the
    /// sensor still sampled inside the feedback ROI, but the segmentation
    /// launch was skipped and the gaze output held from the previous
    /// estimate (`tokens` is 0 on a shed frame). Always `false` outside
    /// chaos/degradation runs.
    pub shed: bool,
}

/// A session's full trace after a run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionTrace {
    /// The session's configuration.
    pub config: SessionConfig,
    /// Per-frame records in submission order.
    pub records: Vec<FrameRecord>,
}

/// Live state of one streaming session: its rendered trace, the shared
/// per-frame front-end ([`blisscam_core::SparseFrontEnd`]) and the
/// scheduler's per-session bookkeeping.
///
/// All mutable state is owned — a fleet of sessions can advance in parallel
/// on the `bliss_parallel` pool, and a session's outputs depend only on its
/// own state plus the shared read-only networks.
#[derive(Debug)]
pub(crate) struct Session {
    pub config: SessionConfig,
    seq: EyeSequence,
    /// The shared sparse per-frame front-end (sensor, noise/entropy streams,
    /// feedback buffers, gaze estimator).
    pub front: SparseFrontEnd,
    /// Next sequence frame to sense (frame 0 primes the sensor).
    pub next_frame: usize,
    /// Virtual completion time of the previously served frame (feedback
    /// dependency for the next in-sensor ROI prediction).
    pub prev_completion_s: f64,
    pub records: Vec<FrameRecord>,
    /// Per-session event-map staging, reused every frame.
    events_buf: Vec<f32>,
    /// Per-session sensed-frame staging (sparse image + mask + counters),
    /// reused every frame instead of rebuilding two full-frame buffers.
    pub sensed: SensedFrame,
}

impl Session {
    /// Renders the session's trace and primes the front-end with frame 0 —
    /// the one shared stream recipe ([`SparseFrontEnd::scenario_stream`]),
    /// which the equivalence suite's tape replay also starts from.
    pub fn new(config: SessionConfig, system: &SystemConfig) -> Self {
        let (seq, front) =
            SparseFrontEnd::scenario_stream(system, config.scenario, config.seed, config.frames);
        Session {
            config,
            seq,
            front,
            next_frame: 1,
            prev_completion_s: f64::NEG_INFINITY,
            records: Vec::with_capacity(config.frames),
            events_buf: Vec::new(),
            sensed: SensedFrame::default(),
        }
    }

    /// Whether the session still has frames to submit.
    pub fn has_next(&self) -> bool {
        self.next_frame < self.seq.frames.len()
    }

    /// The next frame's ground-truth gaze (valid while [`Session::has_next`]).
    pub fn next_truth(&self) -> Gaze {
        self.seq.frames[self.next_frame].gaze
    }

    /// Whether the session's next readout is a cold-start full-frame
    /// bootstrap (no segmentation feedback adopted yet) — the expensive
    /// launches [`crate::ServeConfig::max_cold_per_batch`] spreads across
    /// batches.
    pub fn is_cold(&self) -> bool {
        !self.front.has_feedback()
    }

    /// Front-end stages 1 + 2 on the session's next sequence frame: sense
    /// events into the session's reused staging buffer and assemble the
    /// ROI-net input. Bit-identical to running the stages with fresh
    /// buffers.
    pub fn prepare_roi_input(&mut self, cfg: &RoiNetConfig) -> NdArray {
        self.front.sense_events_into(
            &self.seq.frames[self.next_frame].clean,
            &mut self.events_buf,
        );
        self.front.roi_input(cfg, &self.events_buf)
    }

    /// Front-end stage 4 into the session's reused [`SensedFrame`] staging.
    pub fn read_out(&mut self, roi: RoiBox, sample_rate: f32) -> Result<(), TensorError> {
        let mut sensed = std::mem::take(&mut self.sensed);
        let result = self.front.read_out_into(roi, sample_rate, &mut sensed);
        self.sensed = sensed;
        result
    }
}
