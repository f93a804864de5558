use bliss_tensor::{NdArray, Tensor};

/// The Adam optimizer (Kingma & Ba), used for joint training of the ROI and
/// segmentation networks.
#[derive(Debug)]
pub struct Adam {
    params: Vec<Tensor>,
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    step_count: u64,
    m: Vec<NdArray>,
    v: Vec<NdArray>,
}

impl Adam {
    /// Creates Adam with the conventional defaults `beta1=0.9, beta2=0.999`.
    pub fn new(params: Vec<Tensor>, lr: f32) -> Self {
        let m = params
            .iter()
            .map(|p| NdArray::zeros(p.value().shape()))
            .collect();
        let v = params
            .iter()
            .map(|p| NdArray::zeros(p.value().shape()))
            .collect();
        Adam {
            params,
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            step_count: 0,
            m,
            v,
        }
    }

    /// Overrides the learning rate (e.g. for warmup/decay schedules).
    pub fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }

    /// Clears gradients of all managed parameters.
    pub fn zero_grad(&self) {
        for p in &self.params {
            p.zero_grad();
        }
    }

    /// Applies one bias-corrected Adam step; parameters without gradients are
    /// skipped.
    ///
    /// One pass per parameter updates `m`, `v` and the weights in place.
    pub fn step(&mut self) {
        self.step_count += 1;
        let (b1, b2, eps, lr) = (self.beta1, self.beta2, self.eps, self.lr);
        let (c1, c2) = (1.0 - b1, 1.0 - b2);
        let inv_bc1 = 1.0 / (1.0 - b1.powi(self.step_count as i32));
        let inv_bc2 = 1.0 / (1.0 - b2.powi(self.step_count as i32));
        for ((p, m), v) in self
            .params
            .iter()
            .zip(self.m.iter_mut())
            .zip(self.v.iter_mut())
        {
            let Some(g) = p.grad_ref() else { continue };
            p.update_value(|value| {
                let moments = m.data_mut().iter_mut().zip(v.data_mut());
                for ((w, (m, v)), &g) in value.data_mut().iter_mut().zip(moments).zip(g.data()) {
                    *m = *m * b1 + g * c1;
                    *v = *v * b2 + (g * g) * c2;
                    let (mh, vh) = (*m * inv_bc1, *v * inv_bc2);
                    *w -= lr * mh / (vh.sqrt() + eps);
                }
            });
        }
    }
}

/// Scales all gradients so their global L2 norm is at most `max_norm`.
///
/// Returns the norm before clipping. Parameters without gradients are
/// ignored.
pub fn clip_global_norm(params: &[Tensor], max_norm: f32) -> f32 {
    let mut total = 0.0f32;
    for p in params {
        if let Some(g) = p.grad_ref() {
            total += g.data().iter().map(|&x| x * x).sum::<f32>();
        }
    }
    let norm = total.sqrt();
    if norm > max_norm && norm > 0.0 {
        let scale = max_norm / norm;
        for p in params {
            p.update_grad(|g| g.data_mut().iter_mut().for_each(|x| *x *= scale));
        }
    }
    norm
}

#[cfg(test)]
mod tests {
    use super::*;
    use bliss_tensor::NdArray;

    fn quad_loss(x: &Tensor) -> Tensor {
        // loss = sum(x^2), minimum at 0
        x.mul(x).unwrap().sum_all()
    }

    #[test]
    fn adam_descends_quadratic() {
        let x = Tensor::parameter(NdArray::from_vec(vec![3.0, -5.0, 1.0], &[3]).unwrap());
        let mut opt = Adam::new(vec![x.clone()], 0.2);
        for _ in 0..200 {
            opt.zero_grad();
            quad_loss(&x).backward().unwrap();
            opt.step();
        }
        for &v in x.value().data() {
            assert!(v.abs() < 0.05, "v={v}");
        }
    }

    #[test]
    fn step_skips_missing_gradients() {
        let x = Tensor::parameter(NdArray::ones(&[2]));
        let mut opt = Adam::new(vec![x.clone()], 0.1);
        opt.step(); // no gradient accumulated; should be a no-op
        assert_eq!(x.value().data(), &[1.0, 1.0]);
    }

    #[test]
    fn in_place_clip_and_adam_match_the_composed_expressions_bit_for_bit() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        let shapes: [&[usize]; 3] = [&[7, 5], &[33], &[2, 3, 4]];
        let init: Vec<NdArray> = shapes
            .iter()
            .map(|s| NdArray::randn(&mut rng, s, 1.0))
            .collect();
        let params: Vec<Tensor> = init.iter().cloned().map(Tensor::parameter).collect();
        let mut opt = Adam::new(params.clone(), 3e-3);
        // The reference: the same update written with whole-array ops.
        let (b1, b2, eps, lr) = (0.9f32, 0.999f32, 1e-8f32, 3e-3f32);
        let mut w = init;
        let mut m: Vec<NdArray> = w.iter().map(|x| NdArray::zeros(x.shape())).collect();
        let mut v = m.clone();
        for step in 1..=6 {
            // Large gradients on even steps, so clipping both acts and not.
            let spread = if step % 2 == 0 { 10.0 } else { 0.01 };
            let grads: Vec<NdArray> = shapes
                .iter()
                .map(|s| NdArray::randn(&mut rng, s, spread))
                .collect();
            for (p, g) in params.iter().zip(&grads) {
                p.zero_grad();
                p.add_grad(g).unwrap();
            }
            let norm = clip_global_norm(&params, 1.0);
            opt.step();

            let mut total = 0.0f32;
            for g in &grads {
                total += g.data().iter().map(|&x| x * x).sum::<f32>();
            }
            assert_eq!(norm.to_bits(), total.sqrt().to_bits());
            let clipped: Vec<NdArray> = if total.sqrt() > 1.0 {
                let scale = 1.0 / total.sqrt();
                grads.iter().map(|g| g.scale(scale)).collect()
            } else {
                grads
            };
            let bc1 = 1.0 - b1.powi(step);
            let bc2 = 1.0 - b2.powi(step);
            for i in 0..w.len() {
                let g = &clipped[i];
                m[i] = m[i].scale(b1).add(&g.scale(1.0 - b1)).unwrap();
                v[i] = v[i]
                    .scale(b2)
                    .add(&g.mul(g).unwrap().scale(1.0 - b2))
                    .unwrap();
                let m_hat = m[i].scale(1.0 / bc1);
                let v_hat = v[i].scale(1.0 / bc2);
                let update = m_hat.zip_with(&v_hat, |mh, vh| lr * mh / (vh.sqrt() + eps));
                w[i] = w[i].sub(&update).unwrap();
                let bits = |a: &NdArray| a.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&params[i].grad().unwrap()),
                    bits(g),
                    "step {step} grad {i}"
                );
                assert_eq!(
                    bits(&params[i].value()),
                    bits(&w[i]),
                    "step {step} param {i}"
                );
            }
        }
    }

    #[test]
    fn clip_global_norm_scales_down() {
        let x = Tensor::parameter(NdArray::from_vec(vec![3.0, 4.0], &[2]).unwrap());
        // loss = sum(x * [3,4]) -> grad = [3, 4], norm 5
        let c = NdArray::from_vec(vec![3.0, 4.0], &[2]).unwrap();
        x.mul_mask(&c).unwrap().sum_all().backward().unwrap();
        let norm = clip_global_norm(std::slice::from_ref(&x), 1.0);
        assert!((norm - 5.0).abs() < 1e-5);
        let g = x.grad().unwrap();
        let new_norm: f32 = g.data().iter().map(|&v| v * v).sum::<f32>().sqrt();
        assert!((new_norm - 1.0).abs() < 1e-4);
    }

    #[test]
    fn clip_leaves_small_gradients_alone() {
        let x = Tensor::parameter(NdArray::from_vec(vec![0.1], &[1]).unwrap());
        quad_loss(&x).backward().unwrap();
        let before = x.grad().unwrap();
        clip_global_norm(std::slice::from_ref(&x), 10.0);
        assert_eq!(x.grad().unwrap().data(), before.data());
    }
}
