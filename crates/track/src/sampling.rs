use bliss_sensor::RoiBox;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// The sampling alternatives compared in the paper's Fig. 15 (§VI-E).
///
/// `rate` parameters are fractions of the strategy's own region (full frame
/// for `Full*`, the predicted ROI for `Roi*`); experiment harnesses choose
/// them to hit a target compression rate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SamplingStrategy {
    /// **Ours**: uniform random sampling inside the predicted ROI.
    RoiRandom {
        /// In-ROI sampling rate.
        rate: f32,
    },
    /// Uniform random sampling over the whole frame (no ROI prediction).
    FullRandom {
        /// Full-frame sampling rate.
        rate: f32,
    },
    /// Uniform grid downsampling of the whole frame.
    FullDownsample {
        /// Grid stride (compression = stride²).
        stride: usize,
    },
    /// Uniform grid downsampling within the predicted ROI.
    RoiDownsample {
        /// Grid stride within the ROI.
        stride: usize,
    },
    /// A fixed in-ROI mask fitted offline from dataset statistics.
    RoiFixed {
        /// In-ROI sampling rate (top-importance pixels are kept).
        rate: f32,
    },
    /// A learned importance-weighted sampler inside the ROI (emulating the
    /// paper's auxiliary sampling ViT).
    RoiLearned {
        /// Expected in-ROI sampling rate.
        rate: f32,
    },
    /// EdGaze-style frame skipping: when the event density is below the
    /// threshold, reuse the previous segmentation entirely; otherwise read
    /// the ROI densely.
    Skip {
        /// Event-density threshold below which the frame is skipped.
        density_threshold: f32,
    },
}

impl SamplingStrategy {
    /// Short label used in experiment output (matches Fig. 15's legend).
    pub fn label(&self) -> &'static str {
        match self {
            SamplingStrategy::RoiRandom { .. } => "Ours",
            SamplingStrategy::FullRandom { .. } => "Full+Random",
            SamplingStrategy::FullDownsample { .. } => "Full+DS",
            SamplingStrategy::RoiDownsample { .. } => "ROI+DS",
            SamplingStrategy::RoiFixed { .. } => "ROI+Fixed",
            SamplingStrategy::RoiLearned { .. } => "ROI+Learned",
            SamplingStrategy::Skip { .. } => "Skip",
        }
    }
}

/// A frame after sampling: full-frame sparse values and the sampling mask.
#[derive(Debug, Clone, PartialEq)]
pub struct SampledFrame {
    /// Sparse image: original values at sampled pixels, zeros elsewhere.
    pub values: Vec<f32>,
    /// 1.0 at sampled pixels, 0.0 elsewhere.
    pub mask: Vec<f32>,
    /// Number of sampled pixels.
    pub sampled: usize,
    /// True when the `Skip` strategy decided to reuse the previous result
    /// (no pixels were read out at all).
    pub skipped: bool,
}

impl SampledFrame {
    /// Pixel-volume compression rate versus the full frame.
    pub fn compression_rate(&self, full_pixels: usize) -> f32 {
        full_pixels as f32 / self.sampled.max(1) as f32
    }
}

/// Applies a sampling strategy to one frame.
///
/// * `image` — the full frame (`width*height` values);
/// * `roi` — the predicted ROI (ignored by `Full*` strategies);
/// * `importance` — per-pixel importance map for `RoiFixed`/`RoiLearned`
///   (fitted offline from dataset statistics); ignored otherwise;
/// * `event_density` — current event-map density, consumed by `Skip`.
///
/// # Panics
///
/// Panics if buffer sizes disagree or a stride is zero.
pub fn apply_strategy<R: Rng + ?Sized>(
    strategy: &SamplingStrategy,
    image: &[f32],
    width: usize,
    height: usize,
    roi: RoiBox,
    importance: Option<&[f32]>,
    event_density: f32,
    rng: &mut R,
) -> SampledFrame {
    assert_eq!(image.len(), width * height, "image size mismatch");
    let roi = roi.clamp_to(width, height);
    let full = RoiBox::full(width, height);
    let mut mask = vec![false; width * height];
    let mut skipped = false;

    match *strategy {
        SamplingStrategy::RoiRandom { rate } => {
            bernoulli_in(&mut mask, width, &roi, rate, rng);
        }
        SamplingStrategy::FullRandom { rate } => {
            bernoulli_in(&mut mask, width, &full, rate, rng);
        }
        SamplingStrategy::FullDownsample { stride } => {
            grid_in(&mut mask, width, &full, stride);
        }
        SamplingStrategy::RoiDownsample { stride } => {
            grid_in(&mut mask, width, &roi, stride);
        }
        SamplingStrategy::RoiFixed { rate } => {
            let imp = importance.expect("RoiFixed requires an importance map");
            assert_eq!(imp.len(), image.len(), "importance size mismatch");
            top_k_in(&mut mask, width, &roi, imp, rate);
        }
        SamplingStrategy::RoiLearned { rate } => {
            let imp = importance.expect("RoiLearned requires an importance map");
            assert_eq!(imp.len(), image.len(), "importance size mismatch");
            weighted_bernoulli_in(&mut mask, width, &roi, imp, rate, rng);
        }
        SamplingStrategy::Skip { density_threshold } => {
            if event_density < density_threshold {
                skipped = true;
            } else {
                // Process the frame: dense readout of the ROI.
                for y in roi.y1..roi.y2 {
                    for x in roi.x1..roi.x2 {
                        mask[y * width + x] = true;
                    }
                }
            }
        }
    }

    let mut values = vec![0.0f32; width * height];
    let mut sampled = 0usize;
    for (i, &m) in mask.iter().enumerate() {
        if m {
            values[i] = image[i];
            sampled += 1;
        }
    }
    SampledFrame {
        values,
        mask: mask.iter().map(|&b| if b { 1.0 } else { 0.0 }).collect(),
        sampled,
        skipped,
    }
}

fn bernoulli_in<R: Rng + ?Sized>(
    mask: &mut [bool],
    width: usize,
    region: &RoiBox,
    rate: f32,
    rng: &mut R,
) {
    let rate = rate.clamp(0.0, 1.0);
    for y in region.y1..region.y2 {
        for x in region.x1..region.x2 {
            if rng.gen::<f32>() < rate {
                mask[y * width + x] = true;
            }
        }
    }
}

fn grid_in(mask: &mut [bool], width: usize, region: &RoiBox, stride: usize) {
    assert!(stride > 0, "stride must be positive");
    for y in (region.y1..region.y2).step_by(stride) {
        for x in (region.x1..region.x2).step_by(stride) {
            mask[y * width + x] = true;
        }
    }
}

fn top_k_in(mask: &mut [bool], width: usize, region: &RoiBox, importance: &[f32], rate: f32) {
    let mut cells: Vec<(usize, f32)> = Vec::with_capacity(region.area());
    for y in region.y1..region.y2 {
        for x in region.x1..region.x2 {
            let i = y * width + x;
            cells.push((i, importance[i]));
        }
    }
    let k = ((region.area() as f32 * rate.clamp(0.0, 1.0)).round() as usize).min(cells.len());
    cells.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    for &(i, _) in cells.iter().take(k) {
        mask[i] = true;
    }
}

fn weighted_bernoulli_in<R: Rng + ?Sized>(
    mask: &mut [bool],
    width: usize,
    region: &RoiBox,
    importance: &[f32],
    rate: f32,
    rng: &mut R,
) {
    // Normalise so the expected sample count is rate * area.
    let mut total = 0.0f64;
    for y in region.y1..region.y2 {
        for x in region.x1..region.x2 {
            total += importance[y * width + x].max(0.0) as f64;
        }
    }
    if total <= 0.0 {
        bernoulli_in(mask, width, region, rate, rng);
        return;
    }
    let budget = rate.clamp(0.0, 1.0) as f64 * region.area() as f64;
    for y in region.y1..region.y2 {
        for x in region.x1..region.x2 {
            let i = y * width + x;
            let p = (importance[i].max(0.0) as f64 / total * budget).min(1.0);
            if rng.gen::<f64>() < p {
                mask[i] = true;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const W: usize = 40;
    const H: usize = 30;

    fn image() -> Vec<f32> {
        (0..W * H).map(|i| (i % 7) as f32 / 7.0).collect()
    }

    fn roi() -> RoiBox {
        RoiBox::new(10, 5, 30, 25)
    }

    #[test]
    fn roi_random_stays_inside_roi() {
        let mut rng = StdRng::seed_from_u64(0);
        let s = apply_strategy(
            &SamplingStrategy::RoiRandom { rate: 0.5 },
            &image(),
            W,
            H,
            roi(),
            None,
            0.1,
            &mut rng,
        );
        for (i, &m) in s.mask.iter().enumerate() {
            if m > 0.0 {
                assert!(roi().contains(i % W, i / W));
            }
        }
        let expected = (roi().area() as f32 * 0.5) as usize;
        assert!((s.sampled as i64 - expected as i64).unsigned_abs() < 60);
    }

    #[test]
    fn full_random_covers_whole_frame() {
        let mut rng = StdRng::seed_from_u64(1);
        let s = apply_strategy(
            &SamplingStrategy::FullRandom { rate: 0.3 },
            &image(),
            W,
            H,
            roi(),
            None,
            0.1,
            &mut rng,
        );
        let outside = s
            .mask
            .iter()
            .enumerate()
            .any(|(i, &m)| m > 0.0 && !roi().contains(i % W, i / W));
        assert!(outside, "full-frame sampling must leave the ROI");
    }

    #[test]
    fn downsample_strides_are_regular() {
        let mut rng = StdRng::seed_from_u64(2);
        let s = apply_strategy(
            &SamplingStrategy::FullDownsample { stride: 4 },
            &image(),
            W,
            H,
            roi(),
            None,
            0.1,
            &mut rng,
        );
        assert_eq!(s.sampled, W.div_ceil(4) * H.div_ceil(4));
        assert!(s.mask[0] > 0.0);
        assert!(s.mask[1] == 0.0);
    }

    #[test]
    fn roi_fixed_is_deterministic_and_respects_rate() {
        let imp: Vec<f32> = (0..W * H).map(|i| (i % 13) as f32).collect();
        let mut rng = StdRng::seed_from_u64(3);
        let strategy = SamplingStrategy::RoiFixed { rate: 0.25 };
        let a = apply_strategy(&strategy, &image(), W, H, roi(), Some(&imp), 0.1, &mut rng);
        let b = apply_strategy(&strategy, &image(), W, H, roi(), Some(&imp), 0.1, &mut rng);
        assert_eq!(a.mask, b.mask, "fixed mask must not depend on the RNG");
        assert_eq!(a.sampled, (roi().area() as f32 * 0.25).round() as usize);
    }

    #[test]
    fn roi_learned_prefers_important_pixels() {
        // Importance concentrated on one row: most samples land there.
        let mut imp = vec![0.01f32; W * H];
        for x in 10..30 {
            imp[15 * W + x] = 100.0;
        }
        let mut rng = StdRng::seed_from_u64(4);
        let s = apply_strategy(
            &SamplingStrategy::RoiLearned { rate: 0.05 },
            &image(),
            W,
            H,
            roi(),
            Some(&imp),
            0.1,
            &mut rng,
        );
        let on_row = (10..30).filter(|&x| s.mask[15 * W + x] > 0.0).count();
        assert!(on_row > 10, "only {on_row} samples on the hot row");
    }

    #[test]
    fn skip_below_threshold() {
        let mut rng = StdRng::seed_from_u64(5);
        let s = apply_strategy(
            &SamplingStrategy::Skip {
                density_threshold: 0.05,
            },
            &image(),
            W,
            H,
            roi(),
            None,
            0.01,
            &mut rng,
        );
        assert!(s.skipped);
        assert_eq!(s.sampled, 0);
        let s2 = apply_strategy(
            &SamplingStrategy::Skip {
                density_threshold: 0.05,
            },
            &image(),
            W,
            H,
            roi(),
            None,
            0.2,
            &mut rng,
        );
        assert!(!s2.skipped);
        assert_eq!(s2.sampled, roi().area());
    }

    #[test]
    fn compression_rate_inverse_of_sampling() {
        let mut rng = StdRng::seed_from_u64(6);
        let s = apply_strategy(
            &SamplingStrategy::RoiRandom { rate: 0.2 },
            &image(),
            W,
            H,
            roi(),
            None,
            0.1,
            &mut rng,
        );
        let c = s.compression_rate(W * H);
        assert!(c > 5.0, "compression {c}");
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(SamplingStrategy::RoiRandom { rate: 0.2 }.label(), "Ours");
        assert_eq!(
            SamplingStrategy::FullDownsample { stride: 2 }.label(),
            "Full+DS"
        );
    }

    #[test]
    fn values_match_image_at_sampled_pixels() {
        let img = image();
        let mut rng = StdRng::seed_from_u64(7);
        let s = apply_strategy(
            &SamplingStrategy::RoiRandom { rate: 0.4 },
            &img,
            W,
            H,
            roi(),
            None,
            0.1,
            &mut rng,
        );
        for i in 0..img.len() {
            if s.mask[i] > 0.0 {
                assert_eq!(s.values[i], img[i]);
            } else {
                assert_eq!(s.values[i], 0.0);
            }
        }
    }
}
