use crate::gaze::{Gaze, GazeState};
pub use bliss_sensor::RoiBox;
use serde::{Deserialize, Serialize};

/// Number of segmentation classes (matches OpenEDS: skin, sclera, iris,
/// pupil).
pub const NUM_CLASSES: usize = 4;

/// Semantic class of a pixel in the ground-truth segmentation mask.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[repr(u8)]
pub enum EyeClass {
    /// Skin / eyelid / everything outside the palpebral fissure.
    Skin = 0,
    /// Visible sclera (white of the eye).
    Sclera = 1,
    /// Iris annulus.
    Iris = 2,
    /// Pupil disk — the region gaze estimation keys on.
    Pupil = 3,
}

impl TryFrom<u8> for EyeClass {
    type Error = u8;

    fn try_from(v: u8) -> Result<Self, u8> {
        match v {
            0 => Ok(EyeClass::Skin),
            1 => Ok(EyeClass::Sclera),
            2 => Ok(EyeClass::Iris),
            3 => Ok(EyeClass::Pupil),
            other => Err(other),
        }
    }
}

/// Geometry and photometry of the rendered eye.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EyeModelConfig {
    /// Image width in pixels.
    pub width: usize,
    /// Image height in pixels.
    pub height: usize,
    /// Iris radius as a fraction of image height.
    pub iris_radius_frac: f32,
    /// Pupil radius as a fraction of the iris radius.
    pub pupil_radius_frac: f32,
    /// Palpebral fissure (eye opening) half-width as a fraction of width.
    pub fissure_half_width_frac: f32,
    /// Palpebral fissure half-height as a fraction of height.
    pub fissure_half_height_frac: f32,
    /// Pixel displacement of the pupil centre per degree of gaze, as a
    /// fraction of image height. Encodes camera distance/eyeball radius.
    pub px_per_degree_frac: f32,
}

impl EyeModelConfig {
    /// Paper-scale geometry for a 640x400 sensor.
    pub fn paper() -> Self {
        Self::for_resolution(640, 400)
    }

    /// Geometry scaled to an arbitrary resolution.
    pub fn for_resolution(width: usize, height: usize) -> Self {
        EyeModelConfig {
            width,
            height,
            iris_radius_frac: 0.21,
            pupil_radius_frac: 0.42,
            fissure_half_width_frac: 0.34,
            fissure_half_height_frac: 0.27,
            px_per_degree_frac: 0.022,
        }
    }
}

/// Procedural near-eye renderer.
///
/// The scene is an eyeball behind an elliptical palpebral fissure surrounded
/// by textured skin. The iris/pupil centre translates with gaze via a
/// small-angle projection `px = cx + k * sin(theta)`; the same known geometry
/// is exposed inversely through [`EyeModel::gaze_from_pupil_center`], playing
/// the role of the paper's geometric gaze-regression stage.
#[derive(Debug, Clone)]
pub struct EyeModel {
    config: EyeModelConfig,
    skin_texture: Vec<f32>,
}

impl EyeModel {
    /// Creates a renderer; `texture_seed` fixes the static skin texture.
    pub fn new(config: EyeModelConfig, texture_seed: u64) -> Self {
        let n = config.width * config.height;
        let mut skin_texture = Vec::with_capacity(n);
        // Deterministic per-pixel hash noise: static across frames, which is
        // exactly the property eventification exploits.
        for i in 0..n {
            let h = hash64(texture_seed.wrapping_add(i as u64));
            let t = (h as f32 / u64::MAX as f32 - 0.5) * 0.12;
            skin_texture.push(t);
        }
        EyeModel {
            config,
            skin_texture,
        }
    }

    /// The geometry configuration.
    pub fn config(&self) -> &EyeModelConfig {
        &self.config
    }

    fn center(&self) -> (f32, f32) {
        (
            self.config.width as f32 * 0.5,
            self.config.height as f32 * 0.5,
        )
    }

    fn px_per_degree(&self) -> f32 {
        // Small-angle projection gain, in pixels per sin(degree)-unit.
        self.config.px_per_degree_frac * self.config.height as f32 / (1.0f32).to_radians().sin()
    }

    /// Pupil-centre pixel position for a gaze direction.
    pub fn pupil_center(&self, gaze: &Gaze) -> (f32, f32) {
        let (cx, cy) = self.center();
        let k = self.px_per_degree();
        (
            cx + k * gaze.horizontal_deg.to_radians().sin(),
            cy - k * gaze.vertical_deg.to_radians().sin(),
        )
    }

    /// Inverts the projection: gaze direction whose pupil centre falls at
    /// `(x, y)`. This is the geometric model used for gaze prediction.
    pub fn gaze_from_pupil_center(&self, x: f32, y: f32) -> Gaze {
        let (cx, cy) = self.center();
        let k = self.px_per_degree();
        let sh = ((x - cx) / k).clamp(-1.0, 1.0);
        let sv = ((cy - y) / k).clamp(-1.0, 1.0);
        Gaze::new(sh.asin().to_degrees(), sv.asin().to_degrees())
    }

    /// Renders one frame: returns the radiance image in `[0, 1]` (row-major,
    /// `height x width`) and the per-pixel ground-truth class mask.
    pub fn render(&self, state: &GazeState) -> (Vec<f32>, Vec<u8>) {
        let (w, h) = (self.config.width, self.config.height);
        let (cx, cy) = self.center();
        let (px, py) = self.pupil_center(&state.gaze);
        let iris_r = self.config.iris_radius_frac * h as f32;
        let pupil_r = iris_r * self.config.pupil_radius_frac * state.pupil_dilation;
        let fis_a = self.config.fissure_half_width_frac * w as f32;
        let fis_b = self.config.fissure_half_height_frac * h as f32 * state.openness;
        // Fixed specular glint position (IR LED reflection): static in image
        // space, slightly offset from the eye centre.
        let glint_x = cx + 0.35 * iris_r;
        let glint_y = cy - 0.35 * iris_r;
        let glint_r = (0.06 * iris_r).max(1.0);

        let mut image = vec![0.0f32; w * h];
        let mut mask = vec![EyeClass::Skin as u8; w * h];

        // Every pixel is a pure function of the (fixed) scene parameters, so
        // rows render in parallel with bit-identical results for any thread
        // count.
        let texture = &self.skin_texture;
        // Cost hint 64: each pixel runs full ellipse/iris geometry, so even
        // a miniature frame is well worth dispatching.
        bliss_parallel::par_zip_rows(&mut image, w, &mut mask, w, 64, |y, img_row, mask_row| {
            let fy = y as f32 + 0.5;
            for x in 0..w {
                let idx = y * w + x;
                let fx = x as f32 + 0.5;
                // Skin with static texture by default.
                let mut value = 0.52 + texture[idx];
                let mut class = EyeClass::Skin;

                let nx = (fx - cx) / fis_a.max(1e-3);
                let ny = (fy - cy) / fis_b.max(1e-3);
                let inside_fissure = fis_b > 0.5 && nx * nx + ny * ny < 1.0;
                if inside_fissure {
                    let dx = fx - px;
                    let dy = fy - py;
                    let d = (dx * dx + dy * dy).sqrt();
                    if d < pupil_r {
                        class = EyeClass::Pupil;
                        value = 0.06;
                    } else if d < iris_r {
                        class = EyeClass::Iris;
                        // Radial striation texture.
                        let angle = dy.atan2(dx);
                        let stria = 0.05 * (angle * 14.0).sin();
                        let radial = 0.04 * ((d / iris_r) * 9.0).cos();
                        value = 0.34 + stria + radial;
                    } else {
                        class = EyeClass::Sclera;
                        // Slight limbal darkening near the iris boundary.
                        let falloff = (1.0 - ((d - iris_r) / iris_r).min(1.0)) * 0.08;
                        value = 0.86 - falloff;
                    }
                    // Specular glint on top of the cornea (image kept, class
                    // label stays the underlying region, as in OpenEDS).
                    let gdx = fx - glint_x;
                    let gdy = fy - glint_y;
                    if gdx * gdx + gdy * gdy < glint_r * glint_r {
                        value = 0.98;
                    }
                }

                img_row[x] = value.clamp(0.0, 1.0);
                mask_row[x] = class as u8;
            }
        });
        (image, mask)
    }

    /// Ground-truth ROI: bounding box of all non-skin pixels, expanded by a
    /// small margin. Falls back to the fissure region when the eye is shut.
    pub fn ground_truth_roi(&self, mask: &[u8]) -> RoiBox {
        let (w, h) = (self.config.width, self.config.height);
        let mut x1 = w;
        let mut y1 = h;
        let mut x2 = 0usize;
        let mut y2 = 0usize;
        for y in 0..h {
            for x in 0..w {
                if mask[y * w + x] != EyeClass::Skin as u8 {
                    x1 = x1.min(x);
                    y1 = y1.min(y);
                    x2 = x2.max(x + 1);
                    y2 = y2.max(y + 1);
                }
            }
        }
        if x2 <= x1 || y2 <= y1 {
            // Eye fully closed: use the nominal fissure area.
            let (cx, cy) = self.center();
            let a = self.config.fissure_half_width_frac * w as f32;
            let b = self.config.fissure_half_height_frac * h as f32;
            return RoiBox::new(
                (cx - a).max(0.0) as usize,
                (cy - b).max(0.0) as usize,
                ((cx + a) as usize).min(w),
                ((cy + b) as usize).min(h),
            );
        }
        RoiBox::new(x1, y1, x2, y2).expand(2, w, h)
    }
}

fn hash64(mut x: u64) -> u64 {
    // SplitMix64 finaliser — cheap, deterministic per-pixel noise.
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gaze::MovementPhase;

    fn open_state(gaze: Gaze) -> GazeState {
        GazeState {
            gaze,
            openness: 1.0,
            pupil_dilation: 1.0,
            phase: MovementPhase::Fixation,
        }
    }

    fn model() -> EyeModel {
        EyeModel::new(EyeModelConfig::for_resolution(160, 100), 99)
    }

    #[test]
    fn render_has_all_classes_when_open() {
        let m = model();
        let (_, mask) = m.render(&open_state(Gaze::default()));
        for class in 0..NUM_CLASSES as u8 {
            assert!(mask.contains(&class), "missing class {class} in mask");
        }
    }

    #[test]
    fn closed_eye_is_all_skin() {
        let m = model();
        let mut s = open_state(Gaze::default());
        s.openness = 0.0;
        let (_, mask) = m.render(&s);
        assert!(mask.iter().all(|&c| c == EyeClass::Skin as u8));
    }

    #[test]
    fn pupil_is_darkest_region() {
        let m = model();
        let (img, mask) = m.render(&open_state(Gaze::default()));
        let pupil_mean = mean_of_class(&img, &mask, EyeClass::Pupil);
        let sclera_mean = mean_of_class(&img, &mask, EyeClass::Sclera);
        let iris_mean = mean_of_class(&img, &mask, EyeClass::Iris);
        assert!(pupil_mean < iris_mean);
        assert!(iris_mean < sclera_mean);
    }

    fn mean_of_class(img: &[f32], mask: &[u8], class: EyeClass) -> f32 {
        let vals: Vec<f32> = img
            .iter()
            .zip(mask.iter())
            .filter(|(_, &c)| c == class as u8)
            .map(|(&v, _)| v)
            .collect();
        vals.iter().sum::<f32>() / vals.len().max(1) as f32
    }

    #[test]
    fn background_is_static_across_gazes() {
        let m = model();
        let (img_a, mask_a) = m.render(&open_state(Gaze::new(-10.0, -5.0)));
        let (img_b, mask_b) = m.render(&open_state(Gaze::new(12.0, 8.0)));
        // All pixels that are skin in both frames must be bit-identical —
        // the core premise of eventification.
        for i in 0..img_a.len() {
            if mask_a[i] == EyeClass::Skin as u8 && mask_b[i] == EyeClass::Skin as u8 {
                assert_eq!(img_a[i], img_b[i], "skin pixel {i} changed");
            }
        }
    }

    #[test]
    fn gaze_projection_round_trips() {
        let m = model();
        for &(h, v) in &[(0.0, 0.0), (10.0, -8.0), (-15.0, 12.0)] {
            let g = Gaze::new(h, v);
            let (x, y) = m.pupil_center(&g);
            let back = m.gaze_from_pupil_center(x, y);
            assert!(back.angular_distance(&g) < 0.05, "{g:?} -> {back:?}");
        }
    }

    #[test]
    fn ground_truth_roi_covers_eye_and_not_everything() {
        let m = model();
        let (_, mask) = m.render(&open_state(Gaze::default()));
        let roi = m.ground_truth_roi(&mask);
        assert!(roi.area() > 0);
        assert!(roi.area() < 160 * 100);
        // every non-skin pixel is inside
        for y in 0..100 {
            for x in 0..160 {
                if mask[y * 160 + x] != EyeClass::Skin as u8 {
                    assert!(roi.contains(x, y));
                }
            }
        }
    }

    #[test]
    fn roi_box_iou_properties() {
        let a = RoiBox::new(0, 0, 10, 10);
        let b = RoiBox::new(5, 5, 15, 15);
        let c = RoiBox::new(20, 20, 30, 30);
        assert!((a.iou(&a) - 1.0).abs() < 1e-6);
        assert!(a.iou(&b) > 0.0 && a.iou(&b) < 1.0);
        assert_eq!(a.iou(&c), 0.0);
        assert!((a.iou(&b) - b.iou(&a)).abs() < 1e-6);
    }

    #[test]
    fn eye_class_round_trips_through_u8() {
        for v in 0..4u8 {
            let c = EyeClass::try_from(v).unwrap();
            assert_eq!(c as u8, v);
        }
        assert!(EyeClass::try_from(4).is_err());
    }

    #[test]
    fn closed_eye_roi_falls_back_to_fissure() {
        let m = model();
        let mut s = open_state(Gaze::default());
        s.openness = 0.0;
        let (_, mask) = m.render(&s);
        let roi = m.ground_truth_roi(&mask);
        assert!(roi.area() > 0);
        assert!(roi.contains(80, 50));
    }
}
