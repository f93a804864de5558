use bliss_parallel::normal::{box_muller, gauss_from_words, gauss_words_into, unit};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use serde::{Deserialize, Serialize};

/// Configuration of the SRAM power-up entropy source.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SramRngConfig {
    /// Cells per pixel (the DPS has a 10-bit SRAM per pixel).
    pub cells_per_pixel: usize,
    /// Standard deviation of the per-cell power-up-one probability around
    /// 0.5, modelling process variation (Holcomb et al. measure strong
    /// per-cell bias; summing 10 cells mitigates it, paper §IV-C).
    pub cell_bias_sigma: f32,
    /// Monte-Carlo trials used during offline calibration of the θ LUT.
    pub calibration_trials: usize,
}

impl Default for SramRngConfig {
    fn default() -> Self {
        SramRngConfig {
            cells_per_pixel: 10,
            cell_bias_sigma: 0.15,
            calibration_trials: 64,
        }
    }
}

/// The offline-calibrated lookup table mapping a sampling rate to the 4-bit
/// threshold θ (paper §IV-C: "the table has only 2^4 = 16 entries").
///
/// Entry `k` stores the empirical probability that a pixel's ones-count is
/// `>= k`; choosing θ for a target rate picks the entry with the closest
/// achieved rate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CalibrationLut {
    /// `achieved_rate[θ]` = measured P(ones >= θ) for θ in `0..=cells`.
    pub achieved_rate: Vec<f32>,
}

impl CalibrationLut {
    /// Number of entries (cells + 1, padded conceptually to 16 in hardware).
    pub fn len(&self) -> usize {
        self.achieved_rate.len()
    }

    /// Whether the table is empty (never true for a calibrated sensor).
    pub fn is_empty(&self) -> bool {
        self.achieved_rate.is_empty()
    }

    /// The threshold θ whose achieved sampling rate is closest to `rate`.
    pub fn theta_for_rate(&self, rate: f32) -> u8 {
        let mut best = 0usize;
        let mut best_err = f32::INFINITY;
        for (theta, &r) in self.achieved_rate.iter().enumerate() {
            let err = (r - rate).abs();
            if err < best_err {
                best_err = err;
                best = theta;
            }
        }
        best as u8
    }

    /// The rate the sensor will actually achieve at threshold θ.
    pub fn rate_for_theta(&self, theta: u8) -> f32 {
        self.achieved_rate
            .get(theta as usize)
            .copied()
            .unwrap_or(0.0)
    }
}

/// Per-pixel true random number generation from SRAM power-up metastability.
///
/// Each pixel's 10 SRAM cells latch to random values at power-up; the pixel
/// counts its ones with the existing ADC counter and compares against θ in
/// the "If Skip ADC" logic (paper Fig. 9). Process variation gives each cell
/// a fixed bias; summing the 10 cells and thresholding the sum whitens the
/// per-pixel sampling probability.
///
/// # Threshold form
///
/// A cell with bias `b` powers up to one when a uniform draw `u` in
/// `[0, 1)` falls below `b`. The draw is `gen::<f32>()`, which is
/// `x · 2^-24` for the integer `x = next_u64() >> 40 < 2^24`, so the scaling
/// is exact and `u < b` holds exactly when `x < b · 2^24`. Since `x` is an
/// integer, that is `x < ceil(b · 2^24)`. Each cell therefore stores the
/// integer threshold `ceil(b · 2^24)` fixed at construction, and a power-up
/// compares raw 24-bit draws against it: no float conversion, no branch, and
/// bit-for-bit the same ones-counts as the float comparison.
///
/// # Why the stream stays sequential
///
/// All draws come from one sequential xoshiro stream, pixel by pixel and
/// cell by cell. A counter-hashed draw per cell would let power-ups
/// parallelise, but a hashed variant reproducibly left the host CPU of the
/// dev container in a state where *unrelated* FP code (the eye renderer) ran
/// ~10x slower until the next power-up toggled it back — a data-dependent,
/// virtualisation-specific pathology. Power-up is a per-frame
/// O(pixels × cells) scan that is not on the parallel readout's critical
/// path, and jumping the stream ahead would change every mask, so the
/// sequential stream stays.
#[derive(Debug, Clone)]
pub struct SramRng {
    config: SramRngConfig,
    /// Per-cell power-up-one threshold `ceil(bias · 2^24)` on the 24-bit
    /// draw (length = pixels × cells; see the type docs).
    cell_threshold: Vec<u32>,
    pixels: usize,
    rng: StdRng,
}

impl SramRng {
    /// Creates the entropy source for `pixels` pixels.
    ///
    /// `seed` fixes both the per-cell process variation (a permanent property
    /// of a physical die) and the subsequent power-up draws.
    pub fn new(pixels: usize, config: SramRngConfig, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cell_threshold = Vec::with_capacity(pixels * config.cells_per_pixel);
        for_each_gauss(&mut rng, pixels * config.cells_per_pixel, |g| {
            let bias = g * config.cell_bias_sigma + 0.5;
            cell_threshold.push(bias_threshold(bias.clamp(0.02, 0.98)));
        });
        SramRng {
            config,
            cell_threshold,
            pixels,
            rng,
        }
    }

    /// Number of pixels served.
    pub fn pixels(&self) -> usize {
        self.pixels
    }

    /// The configuration in use.
    pub fn config(&self) -> &SramRngConfig {
        &self.config
    }

    /// Simulates one SRAM power-up event: returns each pixel's ones-count
    /// (`0..=cells_per_pixel`). This is the 4-bit value compared against θ.
    pub fn power_up(&mut self) -> Vec<u8> {
        let mut counts = Vec::with_capacity(self.pixels);
        self.power_up_into(&mut counts);
        counts
    }

    /// [`power_up`](SramRng::power_up) into a caller-owned buffer (cleared
    /// first), so steady-state serving performs no per-frame allocation.
    /// Draws the identical RNG stream as the allocating variant.
    pub fn power_up_into(&mut self, counts: &mut Vec<u8>) {
        counts.clear();
        self.each_power_up(|ones| counts.push(ones));
    }

    /// The power-up generator's internal state, for snapshotting.
    ///
    /// The per-cell process variation (the thresholds) is a permanent
    /// property of the die, fully re-derived from the construction seed, so
    /// the sequential power-up stream is the only serving-time state this
    /// entropy source carries.
    pub fn rng_state(&self) -> [u64; 4] {
        self.rng.state()
    }

    /// Restores the power-up generator captured by
    /// [`rng_state`](SramRng::rng_state).
    pub fn set_rng_state(&mut self, state: [u64; 4]) {
        self.rng = StdRng::from_state(state);
    }

    /// One-time offline calibration: profiles the ones-count distribution and
    /// builds the rate→θ lookup table (paper §IV-C).
    ///
    /// Histograms the ones-counts of `calibration_trials` power-ups, then
    /// suffix-sums the histogram into the `count >= θ` tallies.
    pub fn calibrate(&mut self) -> CalibrationLut {
        let cells = self.config.cells_per_pixel;
        let trials = self.config.calibration_trials.max(1);
        let mut ge_counts = vec![0u64; cells + 1];
        for _ in 0..trials {
            self.each_power_up(|ones| ge_counts[ones as usize] += 1);
        }
        for theta in (0..cells).rev() {
            ge_counts[theta] += ge_counts[theta + 1];
        }
        let total = (trials * self.pixels) as f32;
        CalibrationLut {
            achieved_rate: ge_counts.iter().map(|&c| c as f32 / total).collect(),
        }
    }

    /// Draws a fresh per-pixel sampling mask at threshold θ.
    pub fn sample_mask(&mut self, theta: u8) -> Vec<bool> {
        let mut mask = Vec::with_capacity(self.pixels);
        self.sample_mask_into(theta, &mut mask);
        mask
    }

    /// [`sample_mask`](SramRng::sample_mask) into a caller-owned buffer
    /// (cleared first). Fuses the power-up scan with the θ comparison —
    /// same cell-by-cell draw order, so the mask and the RNG stream are
    /// bit-identical to the allocating variant.
    pub fn sample_mask_into(&mut self, theta: u8, mask: &mut Vec<bool>) {
        mask.clear();
        self.each_power_up(|ones| mask.push(ones >= theta));
    }

    /// One power-up of the whole array: hands each pixel's ones-count to
    /// `f`, in pixel order. The one place the stream is drawn, so every
    /// caller consumes it identically.
    fn each_power_up(&mut self, mut f: impl FnMut(u8)) {
        let cells = self.config.cells_per_pixel;
        for p in 0..self.pixels {
            let mut ones = 0u8;
            for &threshold in &self.cell_threshold[p * cells..(p + 1) * cells] {
                let draw = (self.rng.next_u64() >> 40) as u32;
                ones += u8::from(draw < threshold);
            }
            f(ones);
        }
    }
}

/// The integer threshold `ceil(bias · 2^24)` on a 24-bit draw `x` with
/// `x < threshold` exactly when `x · 2^-24 < bias` (see [`SramRng`]).
/// Scaling by a power of two is exact in `f32`.
fn bias_threshold(bias: f32) -> u32 {
    (bias * (1u32 << 24) as f32).ceil() as u32
}

/// The next uniform 24-bit word of `rng`: the top 24 bits of one 64-bit
/// output, which is what `gen_range` over `f32` consumes per draw.
#[inline(always)]
pub fn uniform_word<R: RngCore + ?Sized>(rng: &mut R) -> u32 {
    (rng.next_u64() >> 40) as u32
}

/// A standard-normal draw: two words of `rng`, through the workspace's one
/// Box–Muller kernel ([`bliss_parallel::normal::gauss_from_words`]).
///
/// The same stream and bits as the Box–Muller of
/// `gen_range(f32::EPSILON..1.0)` and `gen_range(0.0..1.0)` on glibc
/// 2.36's FMA `logf`/`cosf`, without a libm call.
#[inline]
pub fn gauss<R: RngCore + ?Sized>(rng: &mut R) -> f32 {
    let w1 = uniform_word(rng);
    let w2 = uniform_word(rng);
    gauss_from_words(w1, w2)
}

/// Hands `f` the next `n` draws of [`gauss`] on `rng`, in order.
///
/// Draws the words of a block first, then transforms the block with the
/// vectorised [`gauss_words_into`]: the stream stays sequential and the
/// values are [`gauss`]'s, but the transform does not run one call at a
/// time.
pub(crate) fn for_each_gauss(rng: &mut StdRng, n: usize, mut f: impl FnMut(f32)) {
    const BLOCK: usize = 1024;
    let mut words = [0u32; 2 * BLOCK];
    let mut out = [0.0f32; BLOCK];
    let mut left = n;
    while left > 0 {
        let m = left.min(BLOCK);
        for w in &mut words[..2 * m] {
            *w = uniform_word(rng);
        }
        gauss_words_into(&words[..2 * m], &mut out[..m]);
        out[..m].iter().copied().for_each(&mut f);
        left -= m;
    }
}

/// SplitMix64 finaliser: a cheap, high-quality bijective mixer.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Mixes a fixed seed, a per-call counter and a per-site index into one
/// hash. Counter-based draws make the noise a pure function of
/// `(seed, call, idx)`, so noisy kernels parallelise with bit-identical
/// results for any thread count (sequential RNG draws would tie the values
/// to the pixel visit order).
pub(crate) fn counter_hash(seed: u64, call: u64, idx: u64) -> u64 {
    splitmix64(splitmix64(seed ^ call.wrapping_mul(0x9E37_79B9_7F4A_7C15)) ^ idx)
}

/// Standard-normal sample via Box–Muller on two 24-bit lanes of a hash.
#[inline]
pub(crate) fn hash_gauss(h: u64) -> f32 {
    let u1 = ((((h >> 40) as u32) as f32) + 1.0) * 2.0f32.powi(-24); // (0, 1]
    let u2 = unit((h as u32) & 0x00FF_FFFF); // [0, 1)
    box_muller(u1, u2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn rng(pixels: usize, seed: u64) -> SramRng {
        SramRng::new(pixels, SramRngConfig::default(), seed)
    }

    #[test]
    fn counter_hash_draws_are_deterministic_and_uniformish() {
        assert_eq!(counter_hash(1, 2, 3), counter_hash(1, 2, 3));
        assert_ne!(counter_hash(1, 2, 3), counter_hash(1, 2, 4));
        assert_ne!(counter_hash(1, 2, 3), counter_hash(1, 3, 3));
        let g_mean: f64 = (0..4096)
            .map(|i| hash_gauss(counter_hash(7, 1, i)) as f64)
            .sum::<f64>()
            / 4096.0;
        assert!(g_mean.abs() < 0.06, "gaussian mean {g_mean}");
    }

    #[test]
    fn power_up_counts_in_range() {
        let mut r = rng(500, 1);
        for &c in &r.power_up() {
            assert!(c <= 10);
        }
    }

    #[test]
    fn theta_zero_samples_everything() {
        let mut r = rng(200, 2);
        let mask = r.sample_mask(0);
        assert!(mask.iter().all(|&b| b));
    }

    #[test]
    fn theta_above_cells_samples_nothing() {
        let mut r = rng(200, 3);
        let mask = r.sample_mask(11);
        assert!(mask.iter().all(|&b| !b));
    }

    #[test]
    fn achieved_rate_monotonically_decreases_with_theta() {
        let mut r = rng(1_000, 4);
        let lut = r.calibrate();
        for w in lut.achieved_rate.windows(2) {
            assert!(w[0] >= w[1]);
        }
        assert!((lut.achieved_rate[0] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn calibrated_theta_achieves_requested_rate() {
        let mut r = rng(4_000, 5);
        let lut = r.calibrate();
        for &target in &[0.1f32, 0.2, 0.5] {
            let theta = lut.theta_for_rate(target);
            let mask = r.sample_mask(theta);
            let achieved = mask.iter().filter(|&&b| b).count() as f32 / mask.len() as f32;
            // The binomial(10) quantisation limits precision; the LUT promise
            // is "closest achievable", so compare against the LUT's own rate.
            let promised = lut.rate_for_theta(theta);
            assert!(
                (achieved - promised).abs() < 0.03,
                "target {target}: promised {promised}, achieved {achieved}"
            );
        }
    }

    #[test]
    fn masks_differ_across_power_ups() {
        // Fresh entropy every frame: two consecutive power-ups must differ.
        let mut r = rng(2_000, 6);
        let a = r.sample_mask(5);
        let b = r.sample_mask(5);
        assert_ne!(a, b);
    }

    #[test]
    fn spatial_correlation_is_low() {
        // Neighbouring pixels must not be correlated (differential signalling
        // claim in §IV-C). Check adjacent-pair agreement ≈ chance.
        let mut r = rng(20_000, 7);
        let mask = r.sample_mask(5);
        let mut agree = 0usize;
        for w in mask.windows(2) {
            if w[0] == w[1] {
                agree += 1;
            }
        }
        let p_agree = agree as f32 / (mask.len() - 1) as f32;
        // For p≈0.5 sampling, independent neighbours agree ~50%.
        assert!((p_agree - 0.5).abs() < 0.05, "agreement {p_agree}");
    }

    #[test]
    fn process_variation_is_fixed_per_die() {
        let a = SramRng::new(100, SramRngConfig::default(), 42);
        let b = SramRng::new(100, SramRngConfig::default(), 42);
        assert_eq!(a.cell_threshold, b.cell_threshold);
        let c = SramRng::new(100, SramRngConfig::default(), 43);
        assert_ne!(a.cell_threshold, c.cell_threshold);
    }

    #[test]
    fn summing_cells_mitigates_bias() {
        // Per-cell bias sigma 0.15 gives individual cells up to ~65/35
        // skew; the summed-and-thresholded pixel rate spread must be tighter
        // than the worst single-cell spread.
        let mut r = rng(1, 8);
        let mut ones_at_theta5 = 0usize;
        let trials = 2_000;
        for _ in 0..trials {
            if r.sample_mask(5)[0] {
                ones_at_theta5 += 1;
            }
        }
        let rate = ones_at_theta5 as f32 / trials as f32;
        // theta=5 ~ median: a single pixel should sit in a moderate band
        // around 0.5 despite per-cell bias.
        assert!((0.2..=0.9).contains(&rate), "pixel rate {rate}");
    }

    /// The Box–Muller draw every sampler made before the shared kernel, on
    /// the host libm: the reference for the cell biases and [`gauss`].
    fn libm_gauss(rng: &mut StdRng) -> f32 {
        let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
        let u2: f32 = rng.gen_range(0.0f32..1.0);
        (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos()
    }

    #[test]
    fn gauss_matches_the_libm_draw_and_stream() {
        let mut a = StdRng::seed_from_u64(11);
        let mut b = StdRng::seed_from_u64(11);
        for i in 0..100_000 {
            let (g, r) = (gauss(&mut a), libm_gauss(&mut b));
            assert_eq!(g.to_bits(), r.to_bits(), "draw {i}");
        }
        assert_eq!(a.state(), b.state());
    }

    #[test]
    fn hash_gauss_matches_the_libm_formula() {
        for i in 0..100_000 {
            let h = counter_hash(3, 9, i);
            let u1 = ((((h >> 40) as u32) as f32) + 1.0) * 2.0f32.powi(-24);
            let u2 = (((h as u32) & 0x00FF_FFFF) as f32) * 2.0f32.powi(-24);
            let r = (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos();
            assert_eq!(hash_gauss(h).to_bits(), r.to_bits(), "index {i}");
        }
    }

    /// A full 160x100 die: every one of its 160 000 cell thresholds, and
    /// the stream after them, as the per-cell libm draw gives them.
    #[test]
    fn full_die_thresholds_match_the_libm_formula() {
        let config = SramRngConfig::default();
        let pixels = 160 * 100;
        let fast = SramRng::new(pixels, config, 0xD5 ^ 0x5EED);
        let reference = FloatSram::new(pixels, config, 0xD5 ^ 0x5EED);
        let thresholds: Vec<u32> = reference
            .cell_bias
            .iter()
            .map(|&b| bias_threshold(b))
            .collect();
        assert_eq!(fast.cell_threshold, thresholds);
        assert_eq!(fast.rng.state(), reference.rng.state());
    }

    /// The float-comparison power-up the threshold form replaces, kept as
    /// the reference: per cell, `gen::<f32>() < bias`, counted with a branch.
    struct FloatSram {
        cell_bias: Vec<f32>,
        cells: usize,
        pixels: usize,
        trials: usize,
        rng: StdRng,
    }

    impl FloatSram {
        fn new(pixels: usize, config: SramRngConfig, seed: u64) -> Self {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = pixels * config.cells_per_pixel;
            let mut cell_bias = Vec::with_capacity(n);
            for _ in 0..n {
                let g: f32 = libm_gauss(&mut rng) * config.cell_bias_sigma + 0.5;
                cell_bias.push(g.clamp(0.02, 0.98));
            }
            FloatSram {
                cell_bias,
                cells: config.cells_per_pixel,
                pixels,
                trials: config.calibration_trials.max(1),
                rng,
            }
        }

        fn power_up(&mut self) -> Vec<u8> {
            let mut counts = Vec::with_capacity(self.pixels);
            for p in 0..self.pixels {
                let mut ones = 0u8;
                for c in 0..self.cells {
                    if self.rng.gen::<f32>() < self.cell_bias[p * self.cells + c] {
                        ones += 1;
                    }
                }
                counts.push(ones);
            }
            counts
        }

        fn sample_mask(&mut self, theta: u8) -> Vec<bool> {
            self.power_up().into_iter().map(|c| c >= theta).collect()
        }

        fn calibrate(&mut self) -> Vec<u32> {
            let mut ge_counts = vec![0u64; self.cells + 1];
            for _ in 0..self.trials {
                for c in self.power_up() {
                    for theta in 0..=(c as usize) {
                        ge_counts[theta] += 1;
                    }
                }
            }
            let total = (self.trials * self.pixels) as f32;
            ge_counts
                .iter()
                .map(|&c| (c as f32 / total).to_bits())
                .collect()
        }
    }

    /// Both implementations stay in lockstep through every entry point:
    /// power-up counts, masks at every θ, the LUT bits and the RNG state
    /// after each call.
    fn assert_lockstep(fast: &mut SramRng, reference: &mut FloatSram, label: &str) {
        assert_eq!(fast.rng.state(), reference.rng.state(), "{label}: build");
        assert_eq!(fast.power_up(), reference.power_up(), "{label}: power_up");
        assert_eq!(fast.rng.state(), reference.rng.state(), "{label}: power_up");
        for theta in 0..=11u8 {
            assert_eq!(
                fast.sample_mask(theta),
                reference.sample_mask(theta),
                "{label}: sample_mask({theta})"
            );
            assert_eq!(
                fast.rng.state(),
                reference.rng.state(),
                "{label}: θ {theta}"
            );
        }
        let lut: Vec<u32> = fast
            .calibrate()
            .achieved_rate
            .iter()
            .map(|r| r.to_bits())
            .collect();
        assert_eq!(lut, reference.calibrate(), "{label}: calibrate");
        assert_eq!(
            fast.rng.state(),
            reference.rng.state(),
            "{label}: calibrate"
        );
    }

    #[test]
    fn threshold_draws_match_float_reference_bit_for_bit() {
        let config = SramRngConfig {
            calibration_trials: 8,
            ..SramRngConfig::default()
        };
        for seed in [1u64, 7, 42, 0xB1155, u64::MAX] {
            for pixels in [0usize, 1, 3, 100, 1_000] {
                let mut fast = SramRng::new(pixels, config, seed);
                let mut reference = FloatSram::new(pixels, config, seed);
                let thresholds: Vec<u32> = reference
                    .cell_bias
                    .iter()
                    .map(|&b| bias_threshold(b))
                    .collect();
                assert_eq!(fast.cell_threshold, thresholds);
                assert_lockstep(
                    &mut fast,
                    &mut reference,
                    &format!("seed {seed}, {pixels} px"),
                );
            }
        }
    }

    /// Biases where `bias · 2^24` is an exact integer (0.5, 0.25, one
    /// step above zero, one step below one) are where `ceil` must not
    /// round up, plus the clamp ends 0.02/0.98.
    const EDGE_BIASES: [f32; 7] = [
        0.5,
        0.25,
        0.75,
        0.02,
        0.98,
        1.0 / 16_777_216.0,
        1.0 - 1.0 / 16_777_216.0,
    ];

    #[test]
    fn threshold_is_exact_for_every_draw_at_edge_biases() {
        for bias in EDGE_BIASES {
            let threshold = bias_threshold(bias);
            for x in 0..1u32 << 24 {
                let float = x as f32 * (1.0 / (1u32 << 24) as f32);
                assert_eq!(x < threshold, float < bias, "bias {bias}, draw {x}");
            }
        }
    }

    /// Runs both implementations in lockstep on a die with the given
    /// per-cell biases (`cells_per_pixel` = 10, 16 calibration trials).
    fn assert_lockstep_with_biases(cell_bias: Vec<f32>, seed: u64, label: &str) {
        let config = SramRngConfig {
            calibration_trials: 16,
            ..SramRngConfig::default()
        };
        let cells = config.cells_per_pixel;
        let pixels = cell_bias.len() / cells;
        let mut fast = SramRng {
            config,
            cell_threshold: cell_bias.iter().map(|&b| bias_threshold(b)).collect(),
            pixels,
            rng: StdRng::seed_from_u64(seed),
        };
        let mut reference = FloatSram {
            cell_bias,
            cells,
            pixels,
            trials: config.calibration_trials,
            rng: StdRng::seed_from_u64(seed),
        };
        assert_lockstep(&mut fast, &mut reference, label);
    }

    #[test]
    fn edge_biases_match_float_reference_through_every_entry_point() {
        for seed in [3u64, 99] {
            // Each pixel mixes the edge biases in a different rotation.
            let cell_bias = (0..640)
                .map(|i| EDGE_BIASES[(i + i / 10) % EDGE_BIASES.len()])
                .collect();
            assert_lockstep_with_biases(cell_bias, seed, &format!("edge biases, seed {seed}"));
        }
    }

    #[test]
    fn draws_landing_on_the_threshold_match_float_reference() {
        // Every cell's bias is its own first draw `x · 2^-24` (powers up to
        // zero) or one step above it (powers up to one), so the first
        // power-up compares every cell exactly at its threshold.
        let seed = 11;
        let mut probe = StdRng::seed_from_u64(seed);
        let cell_bias = (0..2_000u32)
            .map(|i| {
                let x = (probe.next_u64() >> 40) as u32 + i % 2;
                x as f32 * (1.0 / (1u32 << 24) as f32)
            })
            .collect();
        assert_lockstep_with_biases(cell_bias, seed, "biases on the draws");
    }
}
