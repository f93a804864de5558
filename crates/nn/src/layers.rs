use crate::init::{kaiming_normal, xavier_uniform};
use crate::{Module, Op, Recorder};
use bliss_tensor::{NdArray, Tensor, TensorError};
use rand::Rng;

/// A fully-connected layer: `y = x W + b` with `W: [in, out]`, `b: [out]`.
///
/// Inputs are `[tokens, in]`; outputs `[tokens, out]`.
#[derive(Debug, Clone)]
pub struct Linear {
    weight: Tensor,
    bias: Tensor,
    in_features: usize,
}

impl Linear {
    /// Creates a layer with Xavier-uniform weights and zero bias.
    pub fn new<R: Rng + ?Sized>(rng: &mut R, in_features: usize, out_features: usize) -> Self {
        Linear {
            weight: Tensor::parameter(xavier_uniform(
                rng,
                &[in_features, out_features],
                in_features,
                out_features,
            )),
            bias: Tensor::parameter(NdArray::zeros(&[out_features])),
            in_features,
        }
    }

    /// Applies the layer to a `[tokens, in]` value on recorder `r`.
    ///
    /// # Errors
    ///
    /// Returns a shape error if the input's last dimension is not `in`.
    pub fn forward<R: Recorder>(&self, r: &mut R, x: &R::Node) -> Result<R::Node, TensorError> {
        let w = r.param(&self.weight);
        let b = r.param(&self.bias);
        let mm = r.op(Op::MatMul(x, &w))?;
        r.op(Op::AddRow(&mm, &b))
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.in_features
    }
}

impl Module for Linear {
    fn parameters(&self) -> Vec<Tensor> {
        vec![self.weight.clone(), self.bias.clone()]
    }
}

/// A 2-D convolution layer over single-sample `[c, h, w]` images.
#[derive(Debug, Clone)]
pub struct Conv2d {
    weight: Tensor,
    bias: Tensor,
    kernel: usize,
    stride: usize,
    pad: usize,
}

impl Conv2d {
    /// Creates a square-kernel convolution with Kaiming-normal weights.
    pub fn new<R: Rng + ?Sized>(
        rng: &mut R,
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
    ) -> Self {
        let fan_in = in_channels * kernel * kernel;
        Conv2d {
            weight: Tensor::parameter(kaiming_normal(
                rng,
                &[out_channels, in_channels, kernel, kernel],
                fan_in,
            )),
            bias: Tensor::parameter(NdArray::zeros(&[out_channels])),
            kernel,
            stride,
            pad,
        }
    }

    /// Applies the convolution to a `[c, h, w]` value on recorder `r`.
    ///
    /// # Errors
    ///
    /// Returns a shape error if channel counts disagree or the kernel does
    /// not fit the padded input.
    pub fn forward<R: Recorder>(&self, r: &mut R, x: &R::Node) -> Result<R::Node, TensorError> {
        let (w, b) = (&self.weight, &self.bias);
        r.op(Op::Conv2d(x, w, b, self.stride, self.pad))
    }

    /// Output spatial dimensions for an `h x w` input.
    pub fn out_dims(&self, h: usize, w: usize) -> (usize, usize) {
        let oh = (h + 2 * self.pad - self.kernel) / self.stride + 1;
        let ow = (w + 2 * self.pad - self.kernel) / self.stride + 1;
        (oh, ow)
    }
}

impl Module for Conv2d {
    fn parameters(&self) -> Vec<Tensor> {
        vec![self.weight.clone(), self.bias.clone()]
    }
}

/// Layer normalisation with learnable scale/shift over the last dimension of
/// `[tokens, features]` tensors.
#[derive(Debug, Clone)]
pub struct LayerNormLayer {
    gamma: Tensor,
    beta: Tensor,
    eps: f32,
}

impl LayerNormLayer {
    /// Creates an identity-initialised layer norm over `features`.
    pub fn new(features: usize) -> Self {
        LayerNormLayer {
            gamma: Tensor::parameter(NdArray::ones(&[features])),
            beta: Tensor::parameter(NdArray::zeros(&[features])),
            eps: 1e-5,
        }
    }

    /// Normalises each row of a `[tokens, features]` value on recorder `r`.
    ///
    /// # Errors
    ///
    /// Returns a shape error if the feature dimension differs.
    pub fn forward<R: Recorder>(&self, r: &mut R, x: &R::Node) -> Result<R::Node, TensorError> {
        let gamma = r.param(&self.gamma);
        let beta = r.param(&self.beta);
        r.op(Op::LayerNorm(x, &gamma, &beta, self.eps))
    }
}

impl Module for LayerNormLayer {
    fn parameters(&self) -> Vec<Tensor> {
        vec![self.gamma.clone(), self.beta.clone()]
    }
}

/// The two-layer GELU MLP used inside transformer blocks.
#[derive(Debug, Clone)]
pub struct Mlp {
    fc1: Linear,
    fc2: Linear,
}

impl Mlp {
    /// Creates an MLP `features -> hidden -> features`.
    pub fn new<R: Rng + ?Sized>(rng: &mut R, features: usize, hidden: usize) -> Self {
        Mlp {
            fc1: Linear::new(rng, features, hidden),
            fc2: Linear::new(rng, hidden, features),
        }
    }

    /// Applies `fc2(gelu(fc1(x)))` on recorder `r`.
    ///
    /// # Errors
    ///
    /// Returns a shape error if the input feature dimension differs.
    pub fn forward<R: Recorder>(&self, r: &mut R, x: &R::Node) -> Result<R::Node, TensorError> {
        let hidden = self.fc1.forward(r, x)?;
        let act = r.op(Op::Gelu(&hidden))?;
        self.fc2.forward(r, &act)
    }
}

impl Module for Mlp {
    fn parameters(&self) -> Vec<Tensor> {
        let mut p = self.fc1.parameters();
        p.extend(self.fc2.parameters());
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tape;
    use bliss_tensor::{GraphBuilder, NodeId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn linear_shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let l = Linear::new(&mut rng, 8, 3);
        let x = Tensor::constant(NdArray::ones(&[5, 8]));
        let y = l.forward(&mut Tape, &x).unwrap();
        assert_eq!(y.shape(), vec![5, 3]);
        assert_eq!(l.num_parameters(), 8 * 3 + 3);
    }

    #[test]
    fn linear_rejects_bad_input() {
        let mut rng = StdRng::seed_from_u64(0);
        let l = Linear::new(&mut rng, 8, 3);
        let x = Tensor::constant(NdArray::ones(&[5, 7]));
        assert!(l.forward(&mut Tape, &x).is_err());
    }

    #[test]
    fn conv_shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let c = Conv2d::new(&mut rng, 2, 4, 3, 2, 1);
        let x = Tensor::constant(NdArray::ones(&[2, 8, 8]));
        let y = c.forward(&mut Tape, &x).unwrap();
        assert_eq!(y.shape(), vec![4, 4, 4]);
        assert_eq!(c.out_dims(8, 8), (4, 4));
    }

    #[test]
    fn layer_norm_trains() {
        let ln = LayerNormLayer::new(4);
        let x = Tensor::constant(NdArray::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 4]).unwrap());
        let y = ln.forward(&mut Tape, &x).unwrap();
        y.sum_all().backward().unwrap();
        // beta grad is all ones; gamma grad is xhat (zero-mean)
        let params = ln.parameters();
        assert!(params[1].grad().is_some());
        assert_eq!(params[1].grad().unwrap().data(), &[1.0; 4]);
    }

    #[test]
    fn mlp_round_trip_shape() {
        let mut rng = StdRng::seed_from_u64(0);
        let mlp = Mlp::new(&mut rng, 6, 24);
        let x = Tensor::constant(NdArray::ones(&[2, 6]));
        assert_eq!(mlp.forward(&mut Tape, &x).unwrap().shape(), vec![2, 6]);
    }

    /// Runs one module's generic forward on both recorders — the tape, and
    /// a graph compiled into a plan — and checks the plan output is
    /// bit-identical to the tape's.
    fn assert_plan_matches(
        x: &NdArray,
        tape: impl FnOnce(&mut Tape, &Tensor) -> Result<Tensor, TensorError>,
        graph: impl FnOnce(&mut GraphBuilder, &NodeId) -> Result<NodeId, TensorError>,
        exec_rounds: usize,
    ) {
        let taped = tape(&mut Tape, &Tensor::constant(x.clone())).unwrap();
        let mut g = GraphBuilder::default();
        let xin = g.input(x.shape());
        let out = graph(&mut g, &xin).unwrap();
        g.mark_output(out);
        let plan = bliss_tensor::ExecPlan::compile(g).unwrap();
        for _ in 0..exec_rounds {
            plan.execute(&[x.data()], &[]).unwrap();
            plan.with_output(0, |data| assert_eq!(data, taped.value().data()));
        }
    }

    #[test]
    fn recorded_linear_matches_forward_bitwise() {
        let mut rng = StdRng::seed_from_u64(30);
        let l = Linear::new(&mut rng, 8, 3);
        let x = NdArray::randn(&mut rng, &[5, 8], 1.0);
        assert_plan_matches(&x, |r, x| l.forward(r, x), |g, x| l.forward(g, x), 2);
    }

    #[test]
    fn recorded_conv_matches_forward_bitwise() {
        let mut rng = StdRng::seed_from_u64(31);
        let c = Conv2d::new(&mut rng, 2, 4, 3, 2, 1);
        let x = NdArray::randn(&mut rng, &[2, 8, 8], 1.0);
        let taped = c.forward(&mut Tape, &Tensor::constant(x.clone())).unwrap();
        assert_eq!(taped.shape(), vec![4, 4, 4]);
        assert_plan_matches(&x, |r, x| c.forward(r, x), |g, x| c.forward(g, x), 2);
    }

    #[test]
    fn recorded_layer_norm_matches_forward_bitwise() {
        let mut rng = StdRng::seed_from_u64(32);
        let ln = LayerNormLayer::new(6);
        let x = NdArray::randn(&mut rng, &[4, 6], 1.0);
        assert_plan_matches(&x, |r, x| ln.forward(r, x), |g, x| ln.forward(g, x), 2);
    }

    #[test]
    fn recorded_mlp_matches_forward_bitwise() {
        let mut rng = StdRng::seed_from_u64(33);
        let mlp = Mlp::new(&mut rng, 6, 24);
        let x = NdArray::randn(&mut rng, &[3, 6], 1.0);
        assert_plan_matches(&x, |r, x| mlp.forward(r, x), |g, x| mlp.forward(g, x), 2);
    }

    #[test]
    fn quantized_mlp_tracks_f32_and_is_bit_identical_across_threads() {
        use bliss_tensor::{ExecPlan, QuantCalibration};

        let mut rng = StdRng::seed_from_u64(35);
        let mlp = Mlp::new(&mut rng, 6, 24);
        let x = NdArray::randn(&mut rng, &[3, 6], 1.0);

        let build = || {
            let mut g = GraphBuilder::default();
            let xin = g.input(&[3, 6]);
            let out = mlp.forward(&mut g, &xin).unwrap();
            g.mark_output(out);
            g
        };

        // f32 reference through the planned path.
        let fplan = ExecPlan::compile(build()).unwrap();
        fplan.execute(&[x.data()], &[]).unwrap();
        let reference = fplan.with_output(0, |d| d.to_vec());

        // Calibrate over the same input distribution, quantise, re-run.
        let mut cal = QuantCalibration::new();
        let mut gi = build();
        let taps = QuantCalibration::instrument(&mut gi);
        let iplan = ExecPlan::compile(gi).unwrap();
        iplan.execute(&[x.data()], &[]).unwrap();
        cal.observe_plan(&iplan, &[x.data()], &taps);
        assert_eq!(cal.observed_sites(), 2, "fc1 and fc2 must both calibrate");
        let spec = cal.finish(&build());
        assert_eq!(spec.len(), 2);

        let qplan = ExecPlan::compile_quantized(build(), &spec).unwrap();
        assert_eq!(qplan.num_quantized_matmuls(), 2);
        qplan.execute(&[x.data()], &[]).unwrap();
        let quantised = qplan.with_output(0, |d| d.to_vec());

        // Accuracy: int8 must track f32 within a small absolute budget at
        // this scale (unit-variance activations, Xavier weights).
        for (r, q) in reference.iter().zip(&quantised) {
            assert!((r - q).abs() < 0.05, "f32 {r} vs int8 {q}");
        }
        let differs = reference.iter().zip(&quantised).any(|(r, q)| r != q);
        assert!(differs, "quantisation must actually change values");

        // Determinism: the int8 plan is bit-identical at every thread count.
        for threads in [1usize, 2, 8] {
            let rerun = bliss_parallel::with_thread_count(threads, || {
                bliss_parallel::with_min_parallel_work(0, || {
                    qplan.execute(&[x.data()], &[]).unwrap();
                    qplan.with_output(0, |d| d.to_vec())
                })
            });
            assert_eq!(rerun, quantised, "threads={threads}");
        }
    }

    #[test]
    fn recorded_conv_rejects_wrong_channels() {
        let mut rng = StdRng::seed_from_u64(34);
        let c = Conv2d::new(&mut rng, 2, 4, 3, 1, 1);
        let mut g = GraphBuilder::default();
        let xin = g.input(&[3, 8, 8]);
        assert!(c.forward(&mut g, &xin).is_err());
        let x = Tensor::constant(NdArray::ones(&[3, 8, 8]));
        assert!(c.forward(&mut Tape, &x).is_err());
    }
}
