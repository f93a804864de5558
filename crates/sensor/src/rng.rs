use bliss_parallel::normal::{box_muller, gauss_from_words, gauss_words_into, unit};
use bliss_parallel::{par_chunks, par_map_collect};
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
/// # Lanes over one sequential stream
///
/// The draws are those of one sequential xoshiro256\*\* stream, pixel by
/// pixel and cell by cell: the thresholds take two words per cell, a
/// power-up of `n` pixels the next `n · cells` words, and a calibration
/// `trials` power-ups in a row. The stream is nonetheless walked in
/// lanes. The pixels are cut into 2 blocks of 16 equal contiguous lanes
/// plus a scalar tail, a cut that depends only on the pixel count. Each
/// lane starts from the stream state [`Jump`]ed ahead to its first draw,
/// and the 16 lanes of a block step in struct-of-arrays form, which LLVM
/// vectorises where one lane, or 2 to 8, stay at the serial draw's cost.
/// Blocks run on the `bliss_parallel` pool, and so do the calibration's
/// trials, each starting one power-up further on. So every threshold,
/// count, mask, θ-LUT bit and end state is the sequential stream's, at
/// any thread count.
///
/// The thresholds are stored once, in the kernel's lane-interleaved order.
/// A counter-hashed draw per cell would have parallelised too, but it
/// would change every mask, and on one virtualised host it left
/// *unrelated* FP code (the eye renderer) about 10x slower until the next
/// power-up. The lanes draw the sequential stream's words, and showed no
/// such slowdown there.
#[derive(Debug, Clone)]
pub struct SramRng {
    config: SramRngConfig,
    /// Per-cell power-up-one threshold `ceil(bias · 2^24)` on the 24-bit
    /// draw (length = pixels × cells; see the type docs), in lane order:
    /// block by block, each block step by step (pixel-in-lane, then cell),
    /// each step its 16 lanes; then the tail, pixel-major.
    cell_threshold: Vec<u32>,
    pixels: usize,
    lanes: Lanes,
    rng: StdRng,
}

impl SramRng {
    /// Creates the entropy source for `pixels` pixels.
    ///
    /// `seed` fixes both the per-cell process variation (a permanent property
    /// of a physical die) and the subsequent power-up draws.
    pub fn new(pixels: usize, config: SramRngConfig, seed: u64) -> Self {
        let mut die = SramRng::blank(pixels, config, StdRng::seed_from_u64(seed));
        let cells = config.cells_per_pixel;
        let start = die.rng.state();
        // Two words per cell: each lane's first threshold word lies twice
        // as far into the stream as its first power-up draw.
        let words = Lanes::new(pixels, 2 * cells);
        let lane_pixels = die.lanes.lane_pixels;
        let bias = |g: f32| bias_threshold((g * config.cell_bias_sigma + 0.5).clamp(0.02, 0.98));
        let (laned, tail) = die
            .cell_threshold
            .split_at_mut(BLOCKS * LANES * lane_pixels * cells);
        if lane_pixels > 0 {
            par_chunks(
                laned,
                LANES * lane_pixels * cells,
                GAUSS_COST,
                |b, block| {
                    fill_gaussian_block(block, lane_states(&words.offsets[b], start), bias);
                },
            );
        }
        let mut tail_rng = StdRng::from_state(words.tail.apply(start));
        let mut tail = tail.iter_mut();
        for_each_gauss(&mut tail_rng, tail.len(), |g| {
            *tail.next().expect("one threshold per tail cell") = bias(g);
        });
        die.rng = tail_rng;
        die
    }

    /// A die with zero thresholds and the power-up stream at `rng`.
    fn blank(pixels: usize, config: SramRngConfig, rng: StdRng) -> Self {
        SramRng {
            config,
            cell_threshold: vec![0; pixels * config.cells_per_pixel],
            pixels,
            lanes: Lanes::new(pixels, config.cells_per_pixel),
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
        self.draw_into(counts, |ones| ones);
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
    /// suffix-sums the histogram into the `count >= θ` tallies. The trials
    /// run on the pool, each from the stream state one power-up past the
    /// previous one's; their histograms add up exactly in integers.
    pub fn calibrate(&mut self) -> CalibrationLut {
        let cells = self.config.cells_per_pixel;
        let trials = self.config.calibration_trials.max(1);
        let mut starts = Vec::with_capacity(trials);
        let mut state = self.rng.state();
        for _ in 0..trials {
            starts.push(state);
            state = self.lanes.power_up.apply(state);
        }
        let die = &*self;
        let histograms = par_map_collect(trials, |t| {
            // One histogram per lane, so the 16 increments of a lane step
            // hit 16 different counters.
            let mut histogram = vec![[0u64; LANES]; cells + 1];
            die.each_power_up_from(starts[t], |counts| {
                for (lane, &ones) in counts.iter().enumerate() {
                    histogram[ones as usize][lane] += 1;
                }
            });
            histogram
        });
        let mut ge_counts = vec![0u64; cells + 1];
        for histogram in histograms {
            for (total, lanes) in ge_counts.iter_mut().zip(histogram) {
                *total += lanes.iter().sum::<u64>();
            }
        }
        for theta in (0..cells).rev() {
            ge_counts[theta] += ge_counts[theta + 1];
        }
        self.rng = StdRng::from_state(state);
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
    /// (cleared first). Fuses the power-up with the θ comparison — the same
    /// draws, so the mask and the RNG stream are bit-identical to the
    /// allocating variant.
    pub fn sample_mask_into(&mut self, theta: u8, mask: &mut Vec<bool>) {
        self.draw_into(mask, |ones| ones >= theta);
    }

    /// One power-up of the whole array into `out` (resized to one entry per
    /// pixel), `f` mapping each pixel's ones-count to its entry. The lane
    /// blocks run on the pool, the tail on the calling thread, and the
    /// stream advances by one power-up.
    fn draw_into<T: Copy + Default + Send>(
        &mut self,
        out: &mut Vec<T>,
        f: impl Fn(u8) -> T + Sync,
    ) {
        out.clear();
        out.resize(self.pixels, T::default());
        let start = self.rng.state();
        let cells = self.config.cells_per_pixel;
        let lane_pixels = self.lanes.lane_pixels;
        let (laned, tail) = out.split_at_mut(BLOCKS * LANES * lane_pixels);
        if lane_pixels > 0 {
            let die = &*self;
            par_chunks(laned, LANES * lane_pixels, cells, |b, block| {
                die.each_block_step(b, start, |i, ones| {
                    for (lane, &count) in ones.iter().enumerate() {
                        block[lane * lane_pixels + i] = f(count);
                    }
                });
            });
        }
        let mut tail = tail.iter_mut();
        let end = self.each_tail_pixel(self.lanes.tail.apply(start), |ones| {
            *tail.next().expect("one entry per tail pixel") = f(ones);
        });
        self.rng = StdRng::from_state(end);
    }

    /// One power-up from stream state `start` on the calling thread: hands
    /// `f` the pixels' ones-counts, 16 lanes' worth per lane step and then
    /// one per tail pixel, and returns the state after it.
    fn each_power_up_from(&self, start: [u64; 4], mut f: impl FnMut(&[u8])) -> [u64; 4] {
        if self.lanes.lane_pixels > 0 {
            for b in 0..BLOCKS {
                self.each_block_step(b, start, |_, ones| f(ones));
            }
        }
        self.each_tail_pixel(self.lanes.tail.apply(start), |ones| f(&[ones]))
    }

    /// Runs lane block `b` of the power-up starting at stream state
    /// `start`: hands `f` each step `i` (pixel `i` of every lane) with the
    /// 16 lanes' ones-counts.
    fn each_block_step(&self, b: usize, start: [u64; 4], mut f: impl FnMut(usize, &[u8; LANES])) {
        let cells = self.config.cells_per_pixel;
        let block_len = LANES * self.lanes.lane_pixels * cells;
        let thresholds = &self.cell_threshold[b * block_len..(b + 1) * block_len];
        let mut s = lane_states(&self.lanes.offsets[b], start);
        let mut counts = [[0u8; LANES]; STEPS];
        for (chunk, rows) in thresholds.chunks(STEPS * cells * LANES).enumerate() {
            let counts = &mut counts[..rows.len() / (cells * LANES)];
            count_ones(rows, cells, &mut s, counts);
            for (i, ones) in counts.iter().enumerate() {
                f(chunk * STEPS + i, ones);
            }
        }
    }

    /// The scalar tail: the pixels past the lanes, drawn in order from
    /// stream state `state`. Hands each ones-count to `f` and returns the
    /// state after the last draw.
    fn each_tail_pixel(&self, state: [u64; 4], mut f: impl FnMut(u8)) -> [u64; 4] {
        let cells = self.config.cells_per_pixel;
        let mut rng = StdRng::from_state(state);
        for p in BLOCKS * LANES * self.lanes.lane_pixels..self.pixels {
            let thresholds = &self.cell_threshold[p * cells..(p + 1) * cells];
            f(thresholds
                .iter()
                .map(|&threshold| u8::from(uniform_word(&mut rng) < threshold))
                .sum());
        }
        rng.state()
    }
}

/// Lanes per block: the struct-of-arrays width of the power-up kernel.
/// LLVM vectorises the lockstep loop at this width, not at 2, 4 or 8.
const LANES: usize = 16;

/// Lane blocks per power-up. Fixed, so the partition depends only on the
/// pixel count; each block is one pool task.
const BLOCKS: usize = 2;

/// The lane partition of one die and the stream jumps it needs, derived
/// once from the pixel and cell counts.
#[derive(Debug, Clone)]
struct Lanes {
    /// Pixels per lane; the `pixels - BLOCKS · LANES · lane_pixels` pixels
    /// past the lanes form the scalar tail.
    lane_pixels: usize,
    /// Per block, the jump from the power-up's first draw to each lane's,
    /// in struct-of-arrays form: `offsets[b][w][k]` is word `w` of the
    /// polynomial of lane `b · LANES + k`.
    offsets: [[[u64; LANES]; 4]; BLOCKS],
    /// The jump from the power-up's first draw to the tail's.
    tail: Jump,
    /// The jump over one whole power-up.
    power_up: Jump,
}

impl Lanes {
    /// The partition of `pixels` pixels that draw `cells` words each.
    fn new(pixels: usize, cells: usize) -> Self {
        // A die without cells draws nothing: all of it is tail.
        let lane_pixels = if cells == 0 {
            0
        } else {
            pixels / (BLOCKS * LANES)
        };
        let lane = Jump::new((lane_pixels * cells) as u64);
        let mut offsets = [[[0u64; LANES]; 4]; BLOCKS];
        let mut at = Jump::new(0);
        for block in &mut offsets {
            for k in 0..LANES {
                for (w, word) in block.iter_mut().enumerate() {
                    word[k] = at.0[w];
                }
                at = at.then(&lane);
            }
        }
        let tail = (BLOCKS * LANES * lane_pixels * cells) as u64;
        let power_up = at.then(&Jump::new((pixels * cells) as u64 - tail));
        Lanes {
            lane_pixels,
            offsets,
            tail: at,
            power_up,
        }
    }
}

/// The 16 lane start states of a block: `offsets` applied to the state
/// `state` for all lanes at once (see [`Jump::apply`]).
fn lane_states(offsets: &[[u64; LANES]; 4], state: [u64; 4]) -> [[u64; LANES]; 4] {
    let mut lanes = [[0u64; LANES]; 4];
    let mut s = state;
    for mut words in *offsets {
        for _ in 0..64 {
            for (lane, word) in words.iter_mut().enumerate() {
                let take = 0u64.wrapping_sub(*word & 1);
                *word >>= 1;
                for (acc, &w) in lanes.iter_mut().zip(&s) {
                    acc[lane] ^= w & take;
                }
            }
            step(&mut s);
        }
    }
    lanes
}

/// The next 24-bit word of each of 16 lanes, stepping them all.
#[inline(always)]
fn next_words(s: &mut [[u64; LANES]; 4]) -> [u64; LANES] {
    let mut words = [0u64; LANES];
    for (lane, word) in words.iter_mut().enumerate() {
        *word = output(s[1][lane]) >> 40;
        let t = s[1][lane] << 17;
        s[2][lane] ^= s[0][lane];
        s[3][lane] ^= s[1][lane];
        s[1][lane] ^= s[2][lane];
        s[0][lane] ^= s[3][lane];
        s[2][lane] ^= t;
        s[3][lane] = s[3][lane].rotate_left(45);
    }
    words
}

/// Lane steps per call of [`count_ones`], and per stack block of
/// [`fill_gaussian_block`].
const STEPS: usize = 64;

/// Consecutive lane steps of a power-up: `counts[i][lane]` becomes the
/// ones-count of lane `lane` over its pixel `i`, whose cell `c` has the
/// threshold `rows[(i · cells + c) · LANES + lane]`.
///
/// Kept out of line so that the lockstep loop compiles to the same vector
/// code whatever its caller does with the counts; the states stay local
/// for all the steps of a call.
#[inline(never)]
fn count_ones(
    rows: &[u32],
    cells: usize,
    state: &mut [[u64; LANES]; 4],
    counts: &mut [[u8; LANES]],
) {
    let mut s = *state;
    for (pixel, out) in rows.chunks_exact(cells * LANES).zip(counts) {
        // 64-bit counters keep the loop in one lane width.
        let mut ones = [0u64; LANES];
        for row in pixel.chunks_exact(LANES) {
            let words = next_words(&mut s);
            for lane in 0..LANES {
                ones[lane] += u64::from(words[lane] < u64::from(row[lane]));
            }
        }
        *out = ones.map(|count| count as u8);
    }
    *state = s;
}

/// Cost hint of one Gaussian threshold for the pool's serial cutoff.
const GAUSS_COST: usize = 16;

/// Fills one lane block of thresholds in lane order: each lane draws its
/// cells' Gaussians (two words each) from its start state in `s`, and
/// `threshold` maps each to its cell's threshold. The words go through
/// [`gauss_words_into`] in stack blocks.
fn fill_gaussian_block(
    block: &mut [u32],
    mut s: [[u64; LANES]; 4],
    threshold: impl Fn(f32) -> u32,
) {
    let mut words = [0u32; 2 * LANES * STEPS];
    let mut gauss = [0.0f32; LANES * STEPS];
    for chunk in block.chunks_mut(LANES * STEPS) {
        let n = chunk.len();
        for step in words[..2 * n].chunks_exact_mut(2 * LANES) {
            for half in 0..2 {
                for (lane, &word) in next_words(&mut s).iter().enumerate() {
                    step[2 * lane + half] = word as u32;
                }
            }
        }
        gauss_words_into(&words[..2 * n], &mut gauss[..n]);
        for (t, &g) in chunk.iter_mut().zip(&gauss[..n]) {
            *t = threshold(g);
        }
    }
}

/// The output of xoshiro256\*\* in state `s`, from its word `s[1]`.
#[inline(always)]
fn output(s1: u64) -> u64 {
    s1.wrapping_mul(5).rotate_left(7).wrapping_mul(9)
}

/// One step of xoshiro256\*\*'s linear state map (the `rand` shim's
/// `StdRng::next_u64` without the output).
#[inline(always)]
fn step(s: &mut [u64; 4]) {
    let t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = s[3].rotate_left(45);
}

/// The low 256 coefficients of `P`, the characteristic polynomial of
/// xoshiro256\*\*'s state map (degree 256, so `x^256` is implicit), bit `i`
/// of the array the coefficient of `x^i`. Derived by Berlekamp–Massey over
/// one state bit's sequence; the tests re-derive it.
const CHAR_POLY: [u64; 4] = [
    0x9d11_6f2b_b0f0_f001,
    0x0280_002b_cefd_1a5e,
    0x04b4_edcf_2625_9f85,
    0x0003_c03c_3f3e_cb19,
];

/// A jump ahead by a fixed number of draws on an xoshiro256\*\* stream: the
/// polynomial `x^d mod P` over GF(2), `P` the characteristic polynomial of
/// the state map. By Cayley–Hamilton, stepping `d` times is applying that
/// polynomial to the state map.
///
/// ```
/// use bliss_sensor::Jump;
/// use rand::rngs::StdRng;
/// use rand::{RngCore, SeedableRng};
///
/// let mut stepped = StdRng::seed_from_u64(7);
/// let jumped = Jump::new(1_000).apply(stepped.state());
/// for _ in 0..1_000 {
///     stepped.next_u64();
/// }
/// assert_eq!(jumped, stepped.state());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Jump([u64; 4]);

impl Jump {
    /// The jump by `distance` draws, by square-and-multiply.
    pub fn new(distance: u64) -> Self {
        let mut poly = [1, 0, 0, 0];
        for bit in (0..u64::BITS - distance.leading_zeros()).rev() {
            poly = mul_mod(&poly, &poly);
            if (distance >> bit) & 1 == 1 {
                poly = mul_x(poly);
            }
        }
        Jump(poly)
    }

    /// The jump by both distances: this one, then `other`.
    fn then(&self, other: &Jump) -> Jump {
        Jump(mul_mod(&self.0, &other.0))
    }

    /// The state `state` reaches after the jump's number of draws, Horner
    /// style: 256 steps, XOR-accumulating the states whose coefficient is
    /// set.
    pub fn apply(&self, state: [u64; 4]) -> [u64; 4] {
        let mut acc = [0u64; 4];
        let mut s = state;
        for bit in 0..256 {
            let take = 0u64.wrapping_sub((self.0[bit / 64] >> (bit % 64)) & 1);
            for (a, &w) in acc.iter_mut().zip(&s) {
                *a ^= w & take;
            }
            step(&mut s);
        }
        acc
    }
}

/// `a · x mod P`.
fn mul_x(a: [u64; 4]) -> [u64; 4] {
    let carry = 0u64.wrapping_sub(a[3] >> 63);
    let mut out = [0u64; 4];
    for w in 0..4 {
        let low = if w == 0 { 0 } else { a[w - 1] >> 63 };
        out[w] = (a[w] << 1 | low) ^ (CHAR_POLY[w] & carry);
    }
    out
}

/// `a · b mod P`, Horner style over `b`'s coefficients from the top.
fn mul_mod(a: &[u64; 4], b: &[u64; 4]) -> [u64; 4] {
    let mut acc = [0u64; 4];
    for bit in (0..256).rev() {
        acc = mul_x(acc);
        let take = 0u64.wrapping_sub((b[bit / 64] >> (bit % 64)) & 1);
        for (x, &y) in acc.iter_mut().zip(a) {
            *x ^= y & take;
        }
    }
    acc
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

    impl Lanes {
        /// Where each cell's threshold is stored, in the stream's pixel-major
        /// draw order.
        fn slots(&self, pixels: usize, cells: usize) -> impl Iterator<Item = usize> {
            let lane_pixels = self.lane_pixels;
            let laned = BLOCKS * LANES * lane_pixels * cells;
            (0..BLOCKS * LANES)
                .flat_map(move |lane| {
                    let first = lane / LANES * LANES * lane_pixels * cells + lane % LANES;
                    (0..lane_pixels * cells).map(move |step| first + step * LANES)
                })
                .chain(laned..pixels * cells)
        }
    }

    impl SramRng {
        /// The thresholds in the stream's pixel-major draw order.
        fn pixel_major_thresholds(&self) -> Vec<u32> {
            let cells = self.config.cells_per_pixel;
            self.lanes
                .slots(self.pixels, cells)
                .map(|slot| self.cell_threshold[slot])
                .collect()
        }

        /// A die with the given pixel-major thresholds and power-up stream.
        fn with_pixel_major_thresholds(
            config: SramRngConfig,
            thresholds: &[u32],
            rng: StdRng,
        ) -> Self {
            let cells = config.cells_per_pixel;
            let pixels = thresholds.len() / cells;
            let mut die = SramRng::blank(pixels, config, rng);
            for (slot, &threshold) in die.lanes.slots(pixels, cells).zip(thresholds) {
                die.cell_threshold[slot] = threshold;
            }
            die
        }

        /// The sequential power-up the lanes replace, kept as their reference:
        /// one draw of the stream per cell, pixel by pixel, each pixel's
        /// ones-count handed to `f` in pixel order.
        fn each_power_up(&mut self, mut f: impl FnMut(u8)) {
            let cells = self.config.cells_per_pixel;
            for pixel in self.pixel_major_thresholds().chunks_exact(cells) {
                let mut ones = 0u8;
                for &threshold in pixel {
                    let draw = (self.rng.next_u64() >> 40) as u32;
                    ones += u8::from(draw < threshold);
                }
                f(ones);
            }
        }
    }

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
        assert_eq!(fast.pixel_major_thresholds(), thresholds);
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
                assert_eq!(fast.pixel_major_thresholds(), thresholds);
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
        let thresholds: Vec<u32> = cell_bias.iter().map(|&b| bias_threshold(b)).collect();
        let mut fast =
            SramRng::with_pixel_major_thresholds(config, &thresholds, StdRng::seed_from_u64(seed));
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

    /// Berlekamp–Massey over GF(2): the shortest connection polynomial
    /// `c` (`c[0] = 1`) with `bits[n] = Σ c[i] bits[n - i]`.
    fn berlekamp_massey(bits: &[u8]) -> Vec<u8> {
        let n = bits.len();
        let (mut c, mut b) = (vec![0u8; n + 1], vec![0u8; n + 1]);
        (c[0], b[0]) = (1, 1);
        // `len` is the current complexity, `shift` the steps since `b`
        // was last replaced.
        let (mut len, mut shift) = (0usize, 1usize);
        for i in 0..n {
            let d = (1..=len).fold(bits[i], |d, j| d ^ (c[j] & bits[i - j]));
            if d == 1 {
                let before = c.clone();
                for j in 0..=n - shift {
                    c[j + shift] ^= b[j];
                }
                if 2 * len <= i {
                    (len, b, shift) = (i + 1 - len, before, 0);
                }
            }
            shift += 1;
        }
        c.truncate(len + 1);
        c
    }

    #[test]
    fn characteristic_polynomial_is_rederived_by_berlekamp_massey() {
        for seed in [1u64, 0xB1155] {
            let mut s = StdRng::seed_from_u64(seed).state();
            let bits: Vec<u8> = (0..512)
                .map(|_| {
                    let bit = (s[0] & 1) as u8;
                    step(&mut s);
                    bit
                })
                .collect();
            let c = berlekamp_massey(&bits);
            assert_eq!(c.len(), 257, "degree 256");
            // P is the reciprocal of the connection polynomial.
            let mut poly = [0u64; 4];
            for j in 0..256 {
                poly[j / 64] |= u64::from(c[256 - j]) << (j % 64);
            }
            assert_eq!(poly, CHAR_POLY, "seed {seed}");
        }
    }

    /// `x^(2^k) mod P`.
    fn x_to_two_to_the(k: usize) -> [u64; 4] {
        (0..k).fold([2, 0, 0, 0], |p, _| mul_mod(&p, &p))
    }

    #[test]
    fn power_of_two_jumps_are_the_reference_jump_constants() {
        let jump = [
            0x180e_c6d3_3cfd_0aba,
            0xd5a6_1266_f0c9_392c,
            0xa958_2618_e03f_c9aa,
            0x39ab_dc45_29b1_661c,
        ];
        let long_jump = [
            0x76e1_5d3e_fefd_cbbf,
            0xc500_4e44_1c52_2fb3,
            0x7771_0069_854e_e241,
            0x3910_9bb0_2acb_e635,
        ];
        assert_eq!(x_to_two_to_the(128), jump);
        assert_eq!(x_to_two_to_the(192), long_jump);
        assert_eq!(Jump::new(1 << 40).0, x_to_two_to_the(40));
    }

    #[test]
    fn a_jump_by_d_is_d_steps() {
        for seed in [3u64, 0xB1155] {
            let mut stepped = StdRng::seed_from_u64(seed);
            let start = stepped.state();
            let mut taken = 0u64;
            for d in [0u64, 1, 255, 256, 257, 10_000, 160_000] {
                for _ in taken..d {
                    stepped.next_u64();
                }
                taken = d;
                assert_eq!(
                    Jump::new(d).apply(start),
                    stepped.state(),
                    "seed {seed}, d {d}"
                );
            }
        }
        let (a, b) = (Jump::new(1_234), Jump::new(98_765));
        assert_eq!(a.then(&b), Jump::new(1_234 + 98_765));
    }

    #[test]
    fn the_step_is_the_generators() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut s = rng.state();
        for _ in 0..1_000 {
            assert_eq!(output(s[1]), rng.next_u64());
            step(&mut s);
            assert_eq!(s, rng.state());
        }
    }

    /// The sequential reference's power-up counts.
    fn sequential_power_up(r: &mut SramRng) -> Vec<u8> {
        let mut counts = Vec::new();
        r.each_power_up(|ones| counts.push(ones));
        counts
    }

    /// The sequential reference's θ-LUT bits: `trials` power-ups in a row.
    fn sequential_calibration(r: &mut SramRng) -> Vec<u32> {
        let cells = r.config.cells_per_pixel;
        let mut ge_counts = vec![0u64; cells + 1];
        for _ in 0..r.config.calibration_trials.max(1) {
            r.each_power_up(|ones| ge_counts[ones as usize] += 1);
        }
        for theta in (0..cells).rev() {
            ge_counts[theta] += ge_counts[theta + 1];
        }
        let total = (r.config.calibration_trials.max(1) * r.pixels) as f32;
        ge_counts
            .iter()
            .map(|&c| (c as f32 / total).to_bits())
            .collect()
    }

    /// Every entry point of the lane kernel against the sequential
    /// reference on a clone: counts, masks at every θ, LUT bits and the
    /// stream state after each call.
    fn assert_lanes_match_sequential(lanes: &mut SramRng, label: &str) {
        let mut reference = lanes.clone();
        assert_eq!(
            lanes.power_up(),
            sequential_power_up(&mut reference),
            "{label}"
        );
        assert_eq!(
            lanes.rng_state(),
            reference.rng_state(),
            "{label}: power_up"
        );
        for theta in 0..=11u8 {
            let want: Vec<bool> = sequential_power_up(&mut reference)
                .into_iter()
                .map(|ones| ones >= theta)
                .collect();
            assert_eq!(lanes.sample_mask(theta), want, "{label}: θ {theta}");
            assert_eq!(
                lanes.rng_state(),
                reference.rng_state(),
                "{label}: θ {theta}"
            );
        }
        let lut: Vec<u32> = lanes
            .calibrate()
            .achieved_rate
            .iter()
            .map(|r| r.to_bits())
            .collect();
        assert_eq!(lut, sequential_calibration(&mut reference), "{label}: LUT");
        assert_eq!(
            lanes.rng_state(),
            reference.rng_state(),
            "{label}: calibrate"
        );
    }

    #[test]
    fn lanes_match_the_sequential_stream_at_any_thread_count() {
        for threads in [1usize, 2, 8] {
            for pixels in [0usize, 1, 3, 100, 1_000, 161 * 101] {
                let seed = 0x5EED ^ pixels as u64;
                let lanes = SramRng::new(pixels, SramRngConfig::default(), seed);
                bliss_parallel::with_thread_count(threads, || {
                    bliss_parallel::with_min_parallel_work(0, || {
                        assert_lanes_match_sequential(
                            &mut lanes.clone(),
                            &format!("{pixels} px, {threads} threads"),
                        )
                    })
                });
            }
        }
    }

    #[test]
    fn a_die_without_cells_counts_no_ones() {
        let config = SramRngConfig {
            cells_per_pixel: 0,
            ..SramRngConfig::default()
        };
        let mut r = SramRng::new(100, config, 1);
        let state = r.rng_state();
        assert_eq!(r.power_up(), vec![0; 100]);
        assert_eq!(r.sample_mask(0), vec![true; 100]);
        assert_eq!(r.calibrate().achieved_rate, vec![1.0]);
        assert_eq!(r.rng_state(), state);
    }

    /// Full 160x100 dies at 8 seeds, each calibrated with the default 64
    /// trials, then 1 000 consecutive masks at varying θ, against the
    /// sequential stream (several minutes unoptimised; CI runs it in
    /// release).
    #[test]
    #[ignore]
    fn full_dies_match_the_sequential_stream_over_a_thousand_masks() {
        for seed in 0..8u64 {
            let mut lanes = SramRng::new(160 * 100, SramRngConfig::default(), seed);
            let mut reference = lanes.clone();
            let lut: Vec<u32> = lanes
                .calibrate()
                .achieved_rate
                .iter()
                .map(|r| r.to_bits())
                .collect();
            assert_eq!(lut, sequential_calibration(&mut reference), "seed {seed}");
            let mut mask = Vec::new();
            for frame in 0..1_000u64 {
                let theta = ((frame * 7 + seed) % 12) as u8;
                lanes.sample_mask_into(theta, &mut mask);
                let want: Vec<bool> = sequential_power_up(&mut reference)
                    .into_iter()
                    .map(|ones| ones >= theta)
                    .collect();
                assert_eq!(mask, want, "seed {seed}, frame {frame}");
            }
            assert_eq!(lanes.rng_state(), reference.rng_state(), "seed {seed}");
        }
    }
}
