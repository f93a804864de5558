use crate::util::pad_to_multiple;
use bliss_nn::{Conv2d, DepthwiseSeparableConv2d, Module, Tape};
use bliss_npu::WorkloadDesc;
use bliss_tensor::{NdArray, Tensor, TensorError};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Configuration shared by the dense CNN segmentation baselines.
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

    /// Lowered workload of one encoder-decoder inference at this resolution
    /// (`depthwise = true` for the EdGaze-style separable variant).
    pub fn workload(&self, depthwise: bool) -> bliss_npu::WorkloadDesc {
        let (w, h) = (self.width, self.height);
        let [c0, c1, c2] = self.channels;
        let mut wl = bliss_npu::WorkloadDesc::new(if depthwise {
            "edgaze-like"
        } else {
            "ritnet-like"
        });
        wl.push_conv(c0, 1, 3, h, w);
        if depthwise {
            wl.push_depthwise_separable(c0, c1, 3, h / 2, w / 2);
            wl.push_depthwise_separable(c1, c2, 3, h / 4, w / 4);
            wl.push_depthwise_separable(c2, c1, 3, h / 2, w / 2);
            wl.push_depthwise_separable(c1, c0, 3, h, w);
        } else {
            wl.push_conv(c1, c0, 3, h / 2, w / 2);
            wl.push_conv(c2, c1, 3, h / 4, w / 4);
            wl.push_conv(c1, c2, 3, h / 2, w / 2);
            wl.push_conv(c0, c1, 3, h, w);
        }
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
        dense_forward(image, &self.config, |x| {
            let x = self.stem.forward(&mut Tape, x)?.relu();
            let x = self.down1.forward(&mut Tape, &x)?.relu();
            let x = self.down2.forward(&mut Tape, &x)?.relu();
            let x = self.up1.forward(&mut Tape, &x.upsample2x()?)?.relu();
            let x = self.up2.forward(&mut Tape, &x.upsample2x()?)?.relu();
            self.head.forward(&mut Tape, &x)
        })
    }

    /// Lowered workload of one inference at the configured resolution.
    pub fn workload(&self) -> WorkloadDesc {
        self.config.workload(false)
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

/// EdGaze-style dense segmenter built from depthwise-separable convolutions
/// (Feng et al. 2022), the efficiency-oriented dense baseline.
#[derive(Debug, Clone)]
pub struct EdGazeLike {
    stem: Conv2d,
    down1: DepthwiseSeparableConv2d,
    down2: DepthwiseSeparableConv2d,
    up1: DepthwiseSeparableConv2d,
    up2: DepthwiseSeparableConv2d,
    head: Conv2d,
    config: CnnSegConfig,
}

impl EdGazeLike {
    /// Creates the network with random initialisation.
    pub fn new<R: Rng + ?Sized>(rng: &mut R, config: CnnSegConfig) -> Self {
        let [c0, c1, c2] = config.channels;
        EdGazeLike {
            stem: Conv2d::new(rng, 1, c0, 3, 1, 1),
            down1: DepthwiseSeparableConv2d::new(rng, c0, c1, 3, 2, 1),
            down2: DepthwiseSeparableConv2d::new(rng, c1, c2, 3, 2, 1),
            up1: DepthwiseSeparableConv2d::new(rng, c2, c1, 3, 1, 1),
            up2: DepthwiseSeparableConv2d::new(rng, c1, c0, 3, 1, 1),
            head: Conv2d::new(rng, c0, config.num_classes, 1, 1, 0),
            config,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &CnnSegConfig {
        &self.config
    }

    /// Dense forward; see [`RitnetLike::forward_dense`].
    ///
    /// # Errors
    ///
    /// Returns shape errors if `image.len()` differs from the configuration.
    pub fn forward_dense(&self, image: &[f32]) -> Result<Tensor, TensorError> {
        dense_forward(image, &self.config, |x| {
            let x = self.stem.forward(&mut Tape, x)?.relu();
            let x = self.down1.forward(&x)?.relu();
            let x = self.down2.forward(&x)?.relu();
            let x = self.up1.forward(&x.upsample2x()?)?.relu();
            let x = self.up2.forward(&x.upsample2x()?)?.relu();
            self.head.forward(&mut Tape, &x)
        })
    }

    /// Lowered workload of one inference at the configured resolution.
    pub fn workload(&self) -> WorkloadDesc {
        self.config.workload(true)
    }
}

impl Module for EdGazeLike {
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

/// A dense CNN baseline of either architecture, for uniform handling in
/// trainers and experiments.
#[derive(Debug, Clone)]
pub enum CnnBaseline {
    /// RITnet-style encoder-decoder.
    Ritnet(RitnetLike),
    /// EdGaze-style depthwise-separable network.
    EdGaze(EdGazeLike),
}

impl CnnBaseline {
    /// Creates a baseline by architecture name (`"ritnet"` / `"edgaze"`).
    ///
    /// # Panics
    ///
    /// Panics on an unknown name.
    pub fn by_name<R: Rng + ?Sized>(name: &str, rng: &mut R, config: CnnSegConfig) -> Self {
        match name {
            "ritnet" => CnnBaseline::Ritnet(RitnetLike::new(rng, config)),
            "edgaze" => CnnBaseline::EdGaze(EdGazeLike::new(rng, config)),
            other => panic!("unknown CNN baseline {other:?}"),
        }
    }

    /// The architecture name.
    pub fn name(&self) -> &'static str {
        match self {
            CnnBaseline::Ritnet(_) => "ritnet",
            CnnBaseline::EdGaze(_) => "edgaze",
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &CnnSegConfig {
        match self {
            CnnBaseline::Ritnet(n) => n.config(),
            CnnBaseline::EdGaze(n) => n.config(),
        }
    }

    /// Dense forward; see [`RitnetLike::forward_dense`].
    ///
    /// # Errors
    ///
    /// Returns shape errors if the image does not match the configuration.
    pub fn forward_dense(&self, image: &[f32]) -> Result<Tensor, TensorError> {
        match self {
            CnnBaseline::Ritnet(n) => n.forward_dense(image),
            CnnBaseline::EdGaze(n) => n.forward_dense(image),
        }
    }

    /// Lowered workload of one inference.
    pub fn workload(&self) -> WorkloadDesc {
        match self {
            CnnBaseline::Ritnet(n) => n.workload(),
            CnnBaseline::EdGaze(n) => n.workload(),
        }
    }
}

impl Module for CnnBaseline {
    fn parameters(&self) -> Vec<Tensor> {
        match self {
            CnnBaseline::Ritnet(n) => n.parameters(),
            CnnBaseline::EdGaze(n) => n.parameters(),
        }
    }
}

/// Shared dense-forward scaffolding: pads the image to a stride-compatible
/// size, runs the CHW network body, then crops back and reshapes to
/// `[pixels, classes]`.
fn dense_forward(
    image: &[f32],
    config: &CnnSegConfig,
    body: impl Fn(&Tensor) -> Result<Tensor, TensorError>,
) -> Result<Tensor, TensorError> {
    let (w, h) = (config.width, config.height);
    if image.len() != w * h {
        return Err(TensorError::InvalidArgument {
            op: "forward_dense",
            message: format!("expected {} pixels, got {}", w * h, image.len()),
        });
    }
    let (padded, pw, ph) = pad_to_multiple(image, w, h, 4);
    let x = Tensor::constant(NdArray::from_vec(padded, &[1, ph, pw])?);
    let logits = body(&x)?; // [K, ph, pw]
    let k = config.num_classes;
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
    fn edgaze_output_shape() {
        let mut rng = StdRng::seed_from_u64(0);
        let net = EdGazeLike::new(&mut rng, cfg());
        let out = net.forward_dense(&vec![0.5; 280]).unwrap();
        assert_eq!(out.shape(), vec![280, 4]);
    }

    #[test]
    fn edgaze_uses_fewer_macs_than_ritnet() {
        let mut rng = StdRng::seed_from_u64(0);
        let r = RitnetLike::new(&mut rng, CnnSegConfig::paper());
        let e = EdGazeLike::new(&mut rng, CnnSegConfig::paper());
        assert!(e.workload().total_macs() < r.workload().total_macs());
    }

    #[test]
    fn baselines_are_trainable() {
        let mut rng = StdRng::seed_from_u64(1);
        for name in ["ritnet", "edgaze"] {
            let net = CnnBaseline::by_name(name, &mut rng, cfg());
            let out = net.forward_dense(&vec![0.3; 280]).unwrap();
            let targets = vec![0usize; 280];
            let loss = out.cross_entropy_rows(&targets, None).unwrap();
            loss.backward().unwrap();
            let grads = net
                .parameters()
                .iter()
                .filter(|p| p.grad().is_some())
                .count();
            assert_eq!(grads, net.parameters().len(), "{name}");
        }
    }

    #[test]
    fn rejects_wrong_size() {
        let mut rng = StdRng::seed_from_u64(0);
        let net = RitnetLike::new(&mut rng, cfg());
        assert!(net.forward_dense(&[0.0; 5]).is_err());
    }

    #[test]
    #[should_panic(expected = "unknown CNN baseline")]
    fn unknown_baseline_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = CnnBaseline::by_name("segnet", &mut rng, cfg());
    }
}
