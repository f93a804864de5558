use crate::codes::SnapshotFrame;
use crate::event::EventMap;
use crate::rng::{
    counter_hash, for_each_gauss, hash_gauss, CalibrationLut, SramRng, SramRngConfig,
};
use crate::roi::RoiBox;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Configuration of the BlissCam digital pixel sensor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SensorConfig {
    /// Pixel-array width.
    pub width: usize,
    /// Pixel-array height.
    pub height: usize,
    /// Eventification threshold σ on the normalised `[0, 1]` scale. The
    /// paper uses σ = 15 on 8-bit pixels, i.e. ≈ 0.059.
    pub event_threshold: f32,
    /// ADC resolution in bits (the DPS uses a per-pixel 10-bit SS ADC).
    pub adc_bits: u32,
    /// RMS conversion noise in LSB (read noise referred to the ADC output).
    pub read_noise_lsb: f32,
    /// Fixed-pattern comparator offset (1 sigma) on the normalised scale,
    /// affecting the eventification threshold per pixel.
    pub comparator_offset_sigma: f32,
    /// SRAM entropy-source configuration.
    pub sram_rng: SramRngConfig,
    /// Seed for process variation, power-up entropy and conversion noise.
    pub seed: u64,
}

impl SensorConfig {
    /// The paper's 640x400 sensor with σ=15/255 and a 10-bit ADC.
    pub fn paper() -> Self {
        Self::miniature(640, 400)
    }

    /// A sensor of arbitrary resolution with paper-default analog settings.
    pub fn miniature(width: usize, height: usize) -> Self {
        SensorConfig {
            width,
            height,
            event_threshold: 15.0 / 255.0,
            adc_bits: 10,
            read_noise_lsb: 0.6,
            comparator_offset_sigma: 0.004,
            sram_rng: SramRngConfig::default(),
            seed: 0x0B11_55CA,
        }
    }

    /// Total pixel count.
    pub fn pixels(&self) -> usize {
        self.width * self.height
    }
}

/// The result of one (sparse or dense) readout.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReadoutResult {
    /// The region that was activated by the row/column decoders.
    pub roi: RoiBox,
    /// Sampling threshold θ used by the "If Skip ADC" logic (0 = dense).
    pub theta: u8,
    /// The output-buffer stream, column-major within the ROI; zeros mark
    /// skipped pixels (paper Fig. 11).
    pub stream: Vec<u16>,
    /// Number of actual ADC conversions performed (only sampled pixels pay
    /// conversion energy).
    pub conversions: u64,
    /// Number of sampled (non-zero) entries in the stream.
    pub sampled: usize,
}

impl ReadoutResult {
    /// An empty result, for use as a reusable staging slot with
    /// [`DigitalPixelSensor::sparse_readout_into`].
    pub fn empty() -> Self {
        ReadoutResult {
            roi: RoiBox::new(0, 0, 0, 0),
            theta: 0,
            stream: Vec::new(),
            conversions: 0,
            sampled: 0,
        }
    }

    /// Pixel-volume compression rate versus a dense full-frame readout:
    /// total pixels over transmitted (sampled) pixels. This is the paper's
    /// Fig. 12/15 x-axis ("uncompressed size over compressed size"); the
    /// quoted 20.6x data reduction corresponds to keeping ~4.9 % of pixels.
    pub fn compression_rate(&self, full_pixels: usize) -> f32 {
        full_pixels as f32 / self.sampled.max(1) as f32
    }
}

/// Reconstructs the sparse image on the host from a readout stream, as the
/// host sees it after run-length decoding: `stream` is the column-major
/// stream of a readout over `roi` (zeros mark skipped pixels). Both buffers
/// are resized to the full frame and fully overwritten, so a per-stream pair
/// can be reused across frames without reallocating: `image` holds the
/// normalised codes (zero outside the ROI and at unsampled pixels), `mask`
/// 1.0 where a sample landed, the format the segmenter consumes.
/// `adc_bits` must match the sensor configuration.
pub fn sparse_image_into(
    roi: RoiBox,
    stream: &[u16],
    width: usize,
    height: usize,
    adc_bits: u32,
    image: &mut Vec<f32>,
    mask: &mut Vec<f32>,
) {
    let max_code = ((1u32 << adc_bits) - 1) as f32;
    image.clear();
    image.resize(width * height, 0.0);
    mask.clear();
    mask.resize(width * height, 0.0);
    let roi = roi.clamp_to(width, height);
    let mut i = 0usize;
    for x in roi.x1..roi.x2 {
        for y in roi.y1..roi.y2 {
            if let Some(&code) = stream.get(i) {
                if code != 0 {
                    image[y * width + x] = code as f32 / max_code;
                    mask[y * width + x] = 1.0;
                }
            }
            i += 1;
        }
    }
}

/// The sensor's serving-time state, for durable-serving snapshots.
///
/// Everything else a [`DigitalPixelSensor`] carries — comparator offsets,
/// SRAM cell biases, the θ-LUT, the conversion-noise seed — is a permanent
/// property of the (simulated) die, re-derived bit-identically from the
/// [`SensorConfig`] seed when the die is built, which is why
/// [`DigitalPixelSensor::restore`] only overwrites this state.
///
/// The two analog frame buffers are stored once each when they differ and
/// once in all when they are equal, which is the case after every
/// eventification. Each is stored as ADC codes when it lies on the ADC
/// grid ([`SnapshotFrame`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SensorSnapshot {
    /// The distinct frame buffers.
    pub frames: Vec<SnapshotFrame>,
    /// Index into `frames` of the previous frame held on the auto-zero
    /// capacitors.
    pub held: Option<usize>,
    /// Index into `frames` of the current latched exposure.
    pub current: Option<usize>,
    /// SRAM power-up generator state.
    pub sram_rng: [u64; 4],
    /// Readouts performed so far (the conversion-noise counter).
    pub readouts: u64,
}

impl SensorSnapshot {
    /// Checks that the snapshot fits a die of `pixels` pixels: every frame
    /// index names a stored frame that passes [`SnapshotFrame::check`], and
    /// the SRAM RNG state is not all zeros. The error names the offending
    /// field.
    ///
    /// # Errors
    ///
    /// A description of the first mismatch found.
    pub fn check(&self, pixels: usize) -> Result<(), String> {
        for (name, index) in [("held", self.held), ("current", self.current)] {
            let Some(i) = index else { continue };
            let Some(frame) = self.frames.get(i) else {
                return Err(format!(
                    "sensor {name} frame is #{i} of {} stored",
                    self.frames.len()
                ));
            };
            frame
                .check(pixels)
                .map_err(|e| format!("sensor {name} frame {e}"))?;
        }
        if self.sram_rng == [0; 4] {
            return Err("all-zero SRAM RNG state".into());
        }
        Ok(())
    }
}

/// Whether two buffers hold the same bits.
fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Overwrites one analog frame buffer from a snapshot, reusing its storage.
fn restore_frame(buf: &mut Option<Vec<f32>>, frame: Option<&SnapshotFrame>) {
    match frame {
        Some(frame) => frame.decode_into(buf.get_or_insert_with(Vec::new)),
        None => *buf = None,
    }
}

/// Behavioural model of the BlissCam stacked DPS.
///
/// See the [crate-level docs](crate) for the mode/time-multiplexing scheme.
/// The sensor is deterministic for a given [`SensorConfig`] (including seed).
#[derive(Debug, Clone)]
pub struct DigitalPixelSensor {
    config: SensorConfig,
    /// Previous frame held on the auto-zero capacitors (analog memory mode).
    held: Option<Vec<f32>>,
    /// Current exposure awaiting eventification/readout.
    current: Option<Vec<f32>>,
    /// Fixed-pattern comparator offsets (process variation, set at tape-out).
    comparator_offset: Vec<f32>,
    sram_rng: SramRng,
    lut: CalibrationLut,
    /// Seed for the counter-based ADC conversion noise.
    conv_seed: u64,
    /// Number of readouts performed (each draws fresh conversion noise).
    readouts: u64,
    /// Reusable power-up mask staging buffer (excluded from snapshots —
    /// fully overwritten by every sparse readout).
    mask_scratch: Vec<bool>,
}

impl DigitalPixelSensor {
    /// Builds the sensor and runs the one-time offline θ-LUT calibration.
    pub fn new(config: SensorConfig) -> Self {
        let mut seed_rng = StdRng::seed_from_u64(config.seed);
        let pixels = config.pixels();
        let mut comparator_offset = Vec::with_capacity(pixels);
        for_each_gauss(&mut seed_rng, pixels, |g| {
            comparator_offset.push(g * config.comparator_offset_sigma)
        });
        let mut sram_rng = SramRng::new(pixels, config.sram_rng, config.seed ^ 0x5EED);
        let lut = sram_rng.calibrate();
        DigitalPixelSensor {
            config,
            held: None,
            current: None,
            comparator_offset,
            sram_rng,
            lut,
            conv_seed: config.seed ^ 0xADC0,
            readouts: 0,
            mask_scratch: Vec::new(),
        }
    }

    /// Captures the sensor's serving-time state (see [`SensorSnapshot`]).
    pub fn snapshot(&self) -> SensorSnapshot {
        let mut frames = Vec::new();
        let current = self.current.as_ref().map(|c| {
            frames.push(SnapshotFrame::encode(c));
            0
        });
        let held = self.held.as_ref().map(|h| match &self.current {
            Some(c) if same_bits(c, h) => 0,
            _ => {
                frames.push(SnapshotFrame::encode(h));
                frames.len() - 1
            }
        });
        SensorSnapshot {
            frames,
            held,
            current,
            sram_rng: self.sram_rng.rng_state(),
            readouts: self.readouts,
        }
    }

    /// Restores a snapshot's serving-time state onto this die, in place.
    ///
    /// Every die property (comparator offsets, SRAM thresholds, the θ-LUT,
    /// the conversion-noise seed) is a pure function of the config seed, so
    /// a die built from the snapshotted sensor's [`SensorConfig`] only needs
    /// its dynamic state overwritten to continue the interrupted stream
    /// bit-identically — no second build or calibration. Whatever this die
    /// streamed before is discarded.
    ///
    /// # Panics
    ///
    /// Panics, leaving the sensor unchanged, when
    /// [`SensorSnapshot::check`] rejects the snapshot for this die's pixel
    /// count: it belongs to a different config or is corrupt.
    pub fn restore(&mut self, snapshot: &SensorSnapshot) {
        if let Err(e) = snapshot.check(self.config.pixels()) {
            panic!("sensor snapshot does not fit this die: {e}");
        }
        self.sram_rng.set_rng_state(snapshot.sram_rng);
        let frame = |index: Option<usize>| index.map(|i| &snapshot.frames[i]);
        restore_frame(&mut self.held, frame(snapshot.held));
        restore_frame(&mut self.current, frame(snapshot.current));
        self.readouts = snapshot.readouts;
    }

    /// The sensor configuration.
    pub fn config(&self) -> &SensorConfig {
        &self.config
    }

    /// The calibrated sampling-rate lookup table.
    pub fn calibration(&self) -> &CalibrationLut {
        &self.lut
    }

    /// Latches a new exposure onto the pixel array.
    ///
    /// `image` is the incident radiance after optics and photon noise,
    /// normalised to `[0, 1]` (see `bliss_eye::ImagingNoise`).
    ///
    /// # Panics
    ///
    /// Panics if `image.len()` differs from the pixel count.
    pub fn expose(&mut self, image: &[f32]) {
        assert_eq!(
            image.len(),
            self.config.pixels(),
            "exposure size must match the pixel array"
        );
        // Reuse the latched buffer across frames: a streaming session
        // exposes every frame period, and the copy fully overwrites it.
        match &mut self.current {
            Some(buf) => buf.copy_from_slice(image),
            None => self.current = Some(image.to_vec()),
        }
    }

    /// Analog eventification (Eqn. 1): compares the current exposure against
    /// the held previous frame with thresholds ±σ (applied sequentially via
    /// Vth1/Vth2 as in Fig. 9), then moves the current frame into the analog
    /// hold for the next interval.
    ///
    /// The first frame after reset has nothing to difference against and
    /// returns an all-events map (bootstrapping a full ROI).
    ///
    /// # Panics
    ///
    /// Panics if called before [`DigitalPixelSensor::expose`].
    pub fn eventify(&mut self) -> EventMap {
        let mut map = EventMap::empty(self.config.width, self.config.height);
        self.eventify_into(&mut map);
        map
    }

    /// [`eventify`](DigitalPixelSensor::eventify) into a caller-owned map
    /// (reshaped and overwritten), so per-stream event maps can be reused
    /// across frames without allocating. Produces the identical map.
    ///
    /// # Panics
    ///
    /// Panics if called before [`DigitalPixelSensor::expose`].
    pub fn eventify_into(&mut self, map: &mut EventMap) {
        let current = self
            .current
            .as_ref()
            .expect("eventify requires a prior expose()");
        let w = self.config.width;
        map.reset(w, self.config.height);
        let bits = map.bits_mut();
        match &self.held {
            None => bits.fill(true),
            Some(prev) => {
                let sigma = self.config.event_threshold;
                let offsets = &self.comparator_offset;
                // Every pixel's comparator fires independently: eventify one
                // row per task. Row sub-slices keep the inner loop on fused
                // iterators (no bounds checks, vectorisable).
                bliss_parallel::par_chunks(bits, w, 1, |y, row| {
                    let base = y * w;
                    let cur_row = &current[base..base + row.len()];
                    let prev_row = &prev[base..base + row.len()];
                    let off_row = &offsets[base..base + row.len()];
                    for (((bit, &c), &p), &off) in
                        row.iter_mut().zip(cur_row).zip(prev_row).zip(off_row)
                    {
                        let diff = c - p;
                        // Two sequential compares against +σ and -σ; the
                        // comparator offset shifts both thresholds.
                        *bit = diff > sigma + off || -diff > sigma - off;
                    }
                });
            }
        }
        // Move the exposure into the analog hold without reallocating: both
        // buffers persist for the sensor's lifetime in steady state.
        match (&mut self.held, &self.current) {
            (Some(h), Some(c)) => h.copy_from_slice(c),
            _ => self.held = self.current.clone(),
        }
    }

    /// Sparse readout: activates `roi`, draws a fresh SRAM power-up sampling
    /// mask at the rate's calibrated θ, converts only sampled pixels and
    /// streams the ROI column-by-column with zeros elsewhere.
    ///
    /// # Panics
    ///
    /// Panics if called before [`DigitalPixelSensor::expose`].
    pub fn sparse_readout(&mut self, roi: RoiBox, rate: f32) -> ReadoutResult {
        let mut out = ReadoutResult::empty();
        self.sparse_readout_into(roi, rate, &mut out);
        out
    }

    /// [`sparse_readout`](DigitalPixelSensor::sparse_readout) into a
    /// caller-owned result (fully overwritten), reusing both the result's
    /// stream buffer and an internal power-up mask buffer — the
    /// steady-state serving path performs no per-frame allocation here.
    /// Produces the identical readout and RNG stream.
    ///
    /// # Panics
    ///
    /// Panics if called before [`DigitalPixelSensor::expose`].
    pub fn sparse_readout_into(&mut self, roi: RoiBox, rate: f32, out: &mut ReadoutResult) {
        let theta = self.lut.theta_for_rate(rate);
        let mut mask = std::mem::take(&mut self.mask_scratch);
        self.sram_rng.sample_mask_into(theta, &mut mask);
        self.readout_with_mask_into(roi, Some(&mask), theta, out);
        self.mask_scratch = mask;
    }

    /// Dense readout of a region (rate = 1, every pixel converted). With
    /// `RoiBox::full` this is the conventional NPU-Full sensor path.
    ///
    /// # Panics
    ///
    /// Panics if called before [`DigitalPixelSensor::expose`].
    pub fn dense_readout(&mut self, roi: RoiBox) -> ReadoutResult {
        let mut out = ReadoutResult::empty();
        self.readout_with_mask_into(roi, None, 0, &mut out);
        out
    }

    fn readout_with_mask_into(
        &mut self,
        roi: RoiBox,
        mask: Option<&[bool]>,
        theta: u8,
        result: &mut ReadoutResult,
    ) {
        let call = self.readouts;
        self.readouts = self.readouts.wrapping_add(1);
        let current = self
            .current
            .as_ref()
            .expect("readout requires a prior expose()");
        let roi = roi.clamp_to(self.config.width, self.config.height);
        let w = self.config.width;
        let max_code = ((1u32 << self.config.adc_bits) - 1) as f32;
        let noise_lsb = self.config.read_noise_lsb;
        let seed = self.conv_seed;
        let col_len = roi.y2 - roi.y1;
        // Column-major: the column decoder walks x1..x2 sequentially while
        // all rows y1..y2 are active (Fig. 11). Every column converts
        // independently — conversion noise is a counter-based function of
        // (seed, readout, pixel), not a sequential RNG stream — so columns
        // read out in parallel with bit-identical results.
        let stream = &mut result.stream;
        stream.clear();
        stream.resize(roi.area(), 0);
        if col_len > 0 {
            // Cost hint 16: a counter-hash draw + conversion per pixel.
            bliss_parallel::par_chunks(stream, col_len, 16, |ci, column| {
                let x = roi.x1 + ci;
                for (dy, out) in column.iter_mut().enumerate() {
                    let idx = (roi.y1 + dy) * w + x;
                    if mask.is_none_or(|m| m[idx]) {
                        let noise = hash_gauss(counter_hash(seed, call, idx as u64));
                        let noisy = current[idx] * max_code + noise * noise_lsb;
                        // Sampled pixels clamp to a minimum code of 1 so that
                        // zero codes unambiguously mark skipped pixels in the
                        // output stream.
                        *out = noisy.round().clamp(1.0, max_code) as u16;
                    }
                }
            });
        }
        let sampled = stream.iter().filter(|&&code| code != 0).count();
        result.roi = roi;
        result.theta = theta;
        result.conversions = sampled as u64;
        result.sampled = sampled;
    }
}

#[cfg(test)]
mod tests {
    //! RNG-stream test policy: the sampler draws through the vendored
    //! xoshiro256\*\* `StdRng` shim, so bit-exact asserts below are only
    //! ever *same-run* comparisons (two identically-seeded sensors in
    //! lockstep, or a snapshot/restore of the same stream) — valid under
    //! any generator. Expected *values* (rates, counts from sampling) are
    //! tolerance- or structure-based; no golden literals of the stream.
    use super::*;

    /// A full 160x100 die's comparator offsets, against the per-pixel
    /// Box–Muller draw on the host libm that built them before the shared
    /// kernel.
    #[test]
    fn comparator_offsets_match_the_libm_formula() {
        use rand::Rng;
        let config = SensorConfig::miniature(160, 100);
        let die = DigitalPixelSensor::new(config);
        let mut rng = StdRng::seed_from_u64(config.seed);
        let reference: Vec<u32> = (0..config.pixels())
            .map(|_| {
                let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
                let u2: f32 = rng.gen_range(0.0f32..1.0);
                let g = (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos();
                (g * config.comparator_offset_sigma).to_bits()
            })
            .collect();
        let offsets: Vec<u32> = die.comparator_offset.iter().map(|o| o.to_bits()).collect();
        assert_eq!(offsets, reference);
    }

    fn sensor(w: usize, h: usize) -> DigitalPixelSensor {
        DigitalPixelSensor::new(SensorConfig::miniature(w, h))
    }

    fn gradient(w: usize, h: usize) -> Vec<f32> {
        (0..w * h).map(|i| (i % w) as f32 / w as f32).collect()
    }

    #[test]
    fn first_eventify_is_all_events() {
        let mut s = sensor(8, 4);
        s.expose(&[0.5; 32]);
        assert_eq!(s.eventify().count(), 32);
    }

    #[test]
    fn static_scene_produces_no_events() {
        let mut s = sensor(8, 4);
        s.expose(&[0.5; 32]);
        let _ = s.eventify();
        s.expose(&[0.5; 32]);
        assert_eq!(s.eventify().count(), 0);
    }

    #[test]
    fn moving_pixels_trigger_events() {
        let mut s = sensor(8, 4);
        let mut img = vec![0.5; 32];
        s.expose(&img);
        let _ = s.eventify();
        img[5] = 0.9; // change > sigma
        img[6] = 0.52; // change < sigma
        s.expose(&img);
        let ev = s.eventify();
        assert!(ev.bit(5, 0));
        assert!(!ev.bit(6, 0));
        assert_eq!(ev.count(), 1);
    }

    #[test]
    fn eventification_is_bipolar() {
        let mut s = sensor(4, 1);
        s.expose(&[0.8, 0.8, 0.8, 0.8]);
        let _ = s.eventify();
        s.expose(&[0.2, 0.8, 0.8, 0.8]); // darkening change
        let ev = s.eventify();
        assert!(ev.bit(0, 0), "negative-going change must also fire");
    }

    #[test]
    fn dense_readout_converts_every_pixel() {
        let mut s = sensor(10, 6);
        s.expose(&gradient(10, 6));
        let r = s.dense_readout(RoiBox::full(10, 6));
        assert_eq!(r.stream.len(), 60);
        assert_eq!(r.conversions, 60);
        assert_eq!(r.sampled, 60);
    }

    #[test]
    fn sparse_readout_respects_rate() {
        let mut s = sensor(64, 64);
        s.expose(&gradient(64, 64));
        let roi = RoiBox::new(8, 8, 56, 56);
        let r = s.sparse_readout(roi, 0.2);
        let achieved = r.sampled as f32 / roi.area() as f32;
        let promised = s.calibration().rate_for_theta(r.theta);
        assert!(
            (achieved - promised).abs() < 0.05,
            "achieved {achieved} promised {promised}"
        );
        assert_eq!(r.conversions, r.sampled as u64);
        assert!(r.conversions < roi.area() as u64);
    }

    #[test]
    fn stream_is_column_major() {
        let mut s = sensor(4, 3);
        // pixel value encodes its x coordinate
        let img: Vec<f32> = (0..12).map(|i| ((i % 4) as f32 + 1.0) / 8.0).collect();
        s.expose(&img);
        let r = s.dense_readout(RoiBox::full(4, 3));
        // First three entries are column x=0 (rows 0..3): equal values.
        let c0: Vec<u16> = r.stream[0..3].to_vec();
        assert!(c0.windows(2).all(|w| w[0].abs_diff(w[1]) <= 2));
        // Columns increase in value.
        assert!(r.stream[0] < r.stream[11]);
    }

    #[test]
    fn sparse_image_round_trips_positions() {
        let mut s = sensor(16, 12);
        s.expose(&vec![0.7; 192]);
        let roi = RoiBox::new(2, 3, 10, 9);
        let r = s.sparse_readout(roi, 0.5);
        let (mut img, mut mask) = (Vec::new(), Vec::new());
        sparse_image_into(r.roi, &r.stream, 16, 12, 10, &mut img, &mut mask);
        let mask: Vec<bool> = mask.iter().map(|&m| m == 1.0).collect();
        let sampled = mask.iter().filter(|&&b| b).count();
        assert_eq!(sampled, r.sampled);
        for y in 0..12 {
            for x in 0..16 {
                if !roi.contains(x, y) {
                    assert_eq!(img[y * 16 + x], 0.0);
                    assert!(!mask[y * 16 + x]);
                }
            }
        }
        // sampled values near 0.7
        for (i, &m) in mask.iter().enumerate() {
            if m {
                assert!((img[i] - 0.7).abs() < 0.05, "value {}", img[i]);
            }
        }
    }

    #[test]
    fn compression_rate_increases_with_sparsity() {
        let mut s = sensor(64, 64);
        s.expose(&gradient(64, 64));
        let roi = RoiBox::new(16, 16, 48, 48);
        let dense = s.dense_readout(roi).compression_rate(64 * 64);
        let sparse_result = s.sparse_readout(roi, 0.2);
        let sparse = sparse_result.compression_rate(64 * 64);
        assert!(sparse > dense);
        // 20% of a quarter-frame ROI keeps ~5% of pixels: ~20x pixel volume.
        assert!(sparse > 10.0, "sparse pixel compression {sparse}");
    }

    #[test]
    fn sampled_codes_are_never_zero() {
        let mut s = sensor(16, 16);
        s.expose(&vec![0.0; 256]); // black frame
        let r = s.dense_readout(RoiBox::full(16, 16));
        assert!(r.stream.iter().all(|&c| c >= 1));
    }

    #[test]
    fn roi_clamps_to_frame() {
        let mut s = sensor(8, 8);
        s.expose(&vec![0.5; 64]);
        let r = s.dense_readout(RoiBox::new(4, 4, 100, 100));
        assert_eq!(r.roi, RoiBox::new(4, 4, 8, 8));
        assert_eq!(r.stream.len(), 16);
    }

    #[test]
    fn deterministic_under_seed() {
        let mk = || {
            let mut s = sensor(16, 16);
            s.expose(&gradient(16, 16));
            let _ = s.eventify();
            s.sparse_readout(RoiBox::new(2, 2, 14, 14), 0.3)
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    #[should_panic(expected = "exposure size")]
    fn expose_validates_length() {
        let mut s = sensor(4, 4);
        s.expose(&[0.5; 3]);
    }

    #[test]
    fn into_variants_match_allocating_paths() {
        let mut a = sensor(16, 12);
        let mut b = sensor(16, 12);
        let img = gradient(16, 12);
        a.expose(&img);
        b.expose(&img);
        let mut map = EventMap::empty(1, 1);
        b.eventify_into(&mut map);
        assert_eq!(a.eventify(), map);
        let roi = RoiBox::new(2, 1, 14, 11);
        let mut out = ReadoutResult::empty();
        b.sparse_readout_into(roi, 0.4, &mut out);
        assert_eq!(a.sparse_readout(roi, 0.4), out);
        // RNG streams stayed in lockstep: the next draws agree too.
        a.expose(&img);
        b.expose(&img);
        b.sparse_readout_into(roi, 0.4, &mut out);
        assert_eq!(a.sparse_readout(roi, 0.4), out);
    }

    #[test]
    fn snapshot_restores_interrupted_stream_bit_identically() {
        let mut live = sensor(16, 12);
        let img1 = gradient(16, 12);
        let img2: Vec<f32> = img1.iter().map(|v| (v + 0.2).min(1.0)).collect();
        live.expose(&img1);
        let _ = live.eventify();
        let _ = live.sparse_readout(RoiBox::full(16, 12), 0.5);

        let snap = live.snapshot();
        let json = snap.to_json();
        let parsed = SensorSnapshot::from_json(&json).expect("snapshot parses");
        assert_eq!(parsed, snap);
        // Restore onto a die that has streamed something else: in-place
        // restore must overwrite all of its dynamic state.
        let mut restored = sensor(16, 12);
        restored.expose(&img2);
        let _ = restored.eventify();
        let _ = restored.sparse_readout(RoiBox::full(16, 12), 0.2);
        restored.restore(&parsed);

        for s in [&mut live, &mut restored] {
            s.expose(&img2);
        }
        assert_eq!(live.eventify(), restored.eventify());
        let roi = RoiBox::new(1, 1, 15, 11);
        assert_eq!(
            live.sparse_readout(roi, 0.3),
            restored.sparse_readout(roi, 0.3)
        );
    }

    #[test]
    fn snapshot_stores_each_distinct_frame_once_in_its_exact_form() {
        let on_grid: Vec<f32> = (0..16 * 12)
            .map(|i| ((i * 37) % 1024) as f32 / 1023.0)
            .collect();
        let off_grid = gradient(16, 12);
        let mut live = sensor(16, 12);
        live.expose(&on_grid);
        let _ = live.eventify();
        // After eventify the held frame equals the current one: stored once,
        // as codes.
        let snap = live.snapshot();
        assert_eq!((snap.held, snap.current), (Some(0), Some(0)));
        assert!(matches!(snap.frames[..], [SnapshotFrame::Codes(_)]));
        let json = snap.to_json();
        assert!(json.len() < 3 * 16 * 12, "{} bytes", json.len());
        assert_eq!(SensorSnapshot::from_json(&json).expect("parses"), snap);

        // A fresh exposure off the grid: two frames, one in each form.
        live.expose(&off_grid);
        let snap = live.snapshot();
        assert_eq!((snap.current, snap.held), (Some(0), Some(1)));
        assert!(matches!(
            snap.frames[..],
            [SnapshotFrame::Raw(_), SnapshotFrame::Codes(_)]
        ));
        let parsed = SensorSnapshot::from_json(&snap.to_json()).expect("parses");
        assert_eq!(parsed, snap);
        let mut restored = sensor(16, 12);
        restored.restore(&parsed);
        let bits = |v: &Option<Vec<f32>>| {
            v.as_ref()
                .map(|v| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>())
        };
        assert_eq!(bits(&restored.held), bits(&live.held));
        assert_eq!(bits(&restored.current), bits(&live.current));
        assert_eq!(live.eventify(), restored.eventify());
        let roi = RoiBox::new(1, 1, 15, 11);
        assert_eq!(
            live.sparse_readout(roi, 0.3),
            restored.sparse_readout(roi, 0.3)
        );
    }

    #[test]
    #[should_panic(expected = "pixel count")]
    fn snapshot_restore_validates_buffer_lengths() {
        let mut s = sensor(8, 8);
        s.expose(&[0.5; 64]);
        let snap = s.snapshot();
        sensor(4, 4).restore(&snap);
    }
}
