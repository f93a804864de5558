use crate::util::pad_to_multiple;
use bliss_nn::{Conv2d, Module, Tape};
use bliss_npu::WorkloadDesc;
use bliss_tensor::{NdArray, Tensor, TensorError};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Configuration of the dense CNN segmentation baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CnnSegConfig {
    /// Input width in pixels.
    pub width: usize,
    /// Input height in pixels.
    pub height: usize,
    /// Channel widths of the three encoder stages.
    pub channels: [usize; 3],
    /// Segmentation classes.
    pub num_classes: usize,
}

impl CnnSegConfig {
    /// Paper-scale baseline capacity (used for MAC accounting only) —
    /// ~3.4 GMACs per frame, RITnet-class.
    pub fn paper() -> Self {
        CnnSegConfig {
            width: 640,
            height: 400,
            channels: [16, 36, 64],
            num_classes: 4,
        }
    }

    /// Lowered workload of one encoder-decoder inference at this resolution.
    pub fn workload(&self) -> WorkloadDesc {
        let (w, h) = (self.width, self.height);
        let [c0, c1, c2] = self.channels;
        let mut wl = WorkloadDesc::new("ritnet-like");
        wl.push_conv(c0, 1, 3, h, w);
        wl.push_conv(c1, c0, 3, h / 2, w / 2);
        wl.push_conv(c2, c1, 3, h / 4, w / 4);
        wl.push_conv(c1, c2, 3, h / 2, w / 2);
        wl.push_conv(c0, c1, 3, h, w);
        wl.push_conv(self.num_classes, c0, 1, h, w);
        wl
    }

    /// Miniature capacity for CPU training.
    pub fn miniature(width: usize, height: usize) -> Self {
        CnnSegConfig {
            width,
            height,
            channels: [8, 16, 24],
            num_classes: 4,
        }
    }
}

/// RITnet-style dense segmenter: a small convolutional encoder-decoder
/// (Chaudhary et al. 2019 use a U-net-like encoder-decoder; paper §V uses it
/// as the primary dense baseline).
#[derive(Debug, Clone)]
pub struct RitnetLike {
    stem: Conv2d,
    down1: Conv2d,
    down2: Conv2d,
    up1: Conv2d,
    up2: Conv2d,
    head: Conv2d,
    config: CnnSegConfig,
}

impl RitnetLike {
    /// Creates the network with random initialisation.
    pub fn new<R: Rng + ?Sized>(rng: &mut R, config: CnnSegConfig) -> Self {
        let [c0, c1, c2] = config.channels;
        RitnetLike {
            stem: Conv2d::new(rng, 1, c0, 3, 1, 1),
            down1: Conv2d::new(rng, c0, c1, 3, 2, 1),
            down2: Conv2d::new(rng, c1, c2, 3, 2, 1),
            up1: Conv2d::new(rng, c2, c1, 3, 1, 1),
            up2: Conv2d::new(rng, c1, c0, 3, 1, 1),
            head: Conv2d::new(rng, c0, config.num_classes, 1, 1, 0),
            config,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &CnnSegConfig {
        &self.config
    }

    /// Dense forward: full-frame image (`width*height` values in `[0, 1]`)
    /// to per-pixel logits `[width*height, num_classes]`.
    ///
    /// # Errors
    ///
    /// Returns shape errors if `image.len()` differs from the configuration.
    pub fn forward_dense(&self, image: &[f32]) -> Result<Tensor, TensorError> {
        let (w, h) = (self.config.width, self.config.height);
        if image.len() != w * h {
            return Err(TensorError::InvalidArgument {
                op: "forward_dense",
                message: format!("expected {} pixels, got {}", w * h, image.len()),
            });
        }
        // Pad to a stride-compatible size, run the CHW body, then crop back.
        let (padded, pw, ph) = pad_to_multiple(image, w, h, 4);
        let x = Tensor::constant(NdArray::from_vec(padded, &[1, ph, pw])?);
        let x = self.stem.forward(&mut Tape, &x)?.relu();
        let x = self.down1.forward(&mut Tape, &x)?.relu();
        let x = self.down2.forward(&mut Tape, &x)?.relu();
        let x = self.up1.forward(&mut Tape, &x.upsample2x()?)?.relu();
        let x = self.up2.forward(&mut Tape, &x.upsample2x()?)?.relu();
        let logits = self.head.forward(&mut Tape, &x)?; // [K, ph, pw]
        let k = self.config.num_classes;
        let per_pixel = logits.reshape(&[k, ph * pw])?.transpose()?; // [ph*pw, K]
        if pw == w && ph == h {
            return Ok(per_pixel);
        }
        // Crop: gather the rows corresponding to valid (un-padded) pixels.
        let mut keep = Vec::with_capacity(w * h);
        for y in 0..h {
            for x_ in 0..w {
                keep.push(y * pw + x_);
            }
        }
        per_pixel.gather_rows(&keep)
    }
}

impl Module for RitnetLike {
    fn parameters(&self) -> Vec<Tensor> {
        let mut p = self.stem.parameters();
        p.extend(self.down1.parameters());
        p.extend(self.down2.parameters());
        p.extend(self.up1.parameters());
        p.extend(self.up2.parameters());
        p.extend(self.head.parameters());
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cfg() -> CnnSegConfig {
        CnnSegConfig::miniature(20, 14)
    }

    #[test]
    fn ritnet_output_shape() {
        let mut rng = StdRng::seed_from_u64(0);
        let net = RitnetLike::new(&mut rng, cfg());
        let out = net.forward_dense(&vec![0.5; 280]).unwrap();
        assert_eq!(out.shape(), vec![280, 4]);
    }

    #[test]
    fn baselines_are_trainable() {
        let mut rng = StdRng::seed_from_u64(1);
        let net = RitnetLike::new(&mut rng, cfg());
        let out = net.forward_dense(&vec![0.3; 280]).unwrap();
        let targets = vec![0usize; 280];
        let ones = Tensor::constant(NdArray::ones(&[targets.len()]));
        let loss = out.cross_entropy_rows_gated(&targets, &ones).unwrap();
        loss.backward().unwrap();
        let grads = net
            .parameters()
            .iter()
            .filter(|p| p.grad().is_some())
            .count();
        assert_eq!(grads, net.parameters().len());
    }

    #[test]
    fn rejects_wrong_size() {
        let mut rng = StdRng::seed_from_u64(0);
        let net = RitnetLike::new(&mut rng, cfg());
        assert!(net.forward_dense(&[0.0; 5]).is_err());
    }
}
