use crate::{Tensor, TensorError};

/// Outcome of a finite-difference gradient check.
#[derive(Debug, Clone, PartialEq)]
pub struct GradCheckReport {
    /// Largest relative error observed across all checked elements.
    pub max_rel_error: f32,
    /// Number of individual partial derivatives compared.
    pub checked: usize,
}

impl GradCheckReport {
    /// Whether every checked partial derivative agreed within `tol`.
    pub fn passes(&self, tol: f32) -> bool {
        self.checked > 0 && self.max_rel_error <= tol
    }
}

/// Compares analytic gradients against central finite differences.
///
/// `forward` must rebuild the scalar loss graph from the *same* parameter
/// tensors on every call (define-by-run). Each parameter element is perturbed
/// by `±eps` and the numeric derivative `(f(x+eps) - f(x-eps)) / (2 eps)` is
/// compared with the analytic gradient from [`Tensor::backward`].
///
/// At most `max_per_param` elements are checked per parameter (evenly
/// strided) to keep large layers affordable.
///
/// # Errors
///
/// Propagates any error from `forward` or from the backward pass.
///
/// # Example
///
/// ```
/// use bliss_tensor::{check_gradients, NdArray, Tensor};
///
/// # fn main() -> Result<(), bliss_tensor::TensorError> {
/// let w = Tensor::parameter(NdArray::from_vec(vec![0.5, -0.3], &[1, 2])?);
/// let x = NdArray::from_vec(vec![1.0, 2.0], &[2, 1])?;
/// let report = check_gradients(
///     &[w.clone()],
///     || {
///         let xs = Tensor::constant(x.clone());
///         Ok(w.matmul(&xs)?.sum_all())
///     },
///     1e-3,
///     16,
/// )?;
/// assert!(report.passes(1e-2));
/// # Ok(())
/// # }
/// ```
pub fn check_gradients(
    params: &[Tensor],
    forward: impl Fn() -> Result<Tensor, TensorError>,
    eps: f32,
    max_per_param: usize,
) -> Result<GradCheckReport, TensorError> {
    for p in params {
        p.zero_grad();
    }
    let loss = forward()?;
    loss.backward()?;
    let analytic: Vec<_> = params.iter().map(|p| p.grad()).collect();

    let mut max_rel_error = 0.0f32;
    let mut checked = 0usize;

    for (p, grad) in params.iter().zip(analytic.iter()) {
        let grad = match grad {
            Some(g) => g.clone(),
            None => continue,
        };
        let n = p.value().len();
        let stride = (n / max_per_param.max(1)).max(1);
        for i in (0..n).step_by(stride) {
            let original = p.value().data()[i];
            p.update_value(|v| v.data_mut()[i] = original + eps);
            let f_plus = forward()?.value().data()[0];
            p.update_value(|v| v.data_mut()[i] = original - eps);
            let f_minus = forward()?.value().data()[0];
            p.update_value(|v| v.data_mut()[i] = original);

            let numeric = (f_plus - f_minus) / (2.0 * eps);
            let a = grad.data()[i];
            let denom = a.abs().max(numeric.abs()).max(1.0);
            let rel = (a - numeric).abs() / denom;
            if rel > max_rel_error {
                max_rel_error = rel;
            }
            checked += 1;
        }
    }

    for p in params {
        p.zero_grad();
    }
    Ok(GradCheckReport {
        max_rel_error,
        checked,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NdArray;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn quadratic_gradient_checks() {
        let x = Tensor::parameter(NdArray::from_vec(vec![1.5, -2.0], &[2]).unwrap());
        let report = check_gradients(
            std::slice::from_ref(&x),
            || Ok(x.mul(&x)?.sum_all()),
            1e-3,
            8,
        )
        .unwrap();
        assert!(report.passes(1e-3), "max rel err {}", report.max_rel_error);
        assert_eq!(report.checked, 2);
    }

    #[test]
    fn mlp_gradient_checks() {
        let mut rng = StdRng::seed_from_u64(5);
        let w1 = Tensor::parameter(NdArray::randn(&mut rng, &[4, 3], 0.5));
        let b1 = Tensor::parameter(NdArray::zeros(&[3]));
        let w2 = Tensor::parameter(NdArray::randn(&mut rng, &[3, 2], 0.5));
        let x = NdArray::randn(&mut rng, &[5, 4], 1.0);
        let params = [w1.clone(), b1.clone(), w2.clone()];
        let ones = Tensor::constant(NdArray::ones(&[5]));
        let report = check_gradients(
            &params,
            || {
                let xin = Tensor::constant(x.clone());
                let h = xin.matmul(&w1)?.add_row(&b1)?.gelu();
                let y = h.matmul(&w2)?;
                y.cross_entropy_rows_gated(&[0, 1, 0, 1, 0], &ones)
            },
            1e-2,
            10,
        )
        .unwrap();
        assert!(report.passes(2e-2), "max rel err {}", report.max_rel_error);
        assert!(report.checked > 0);
    }

    #[test]
    fn conv_gradient_checks() {
        let mut rng = StdRng::seed_from_u64(9);
        let w = Tensor::parameter(NdArray::randn(&mut rng, &[2, 1, 3, 3], 0.5));
        let b = Tensor::parameter(NdArray::zeros(&[2]));
        let x = NdArray::randn(&mut rng, &[1, 5, 5], 1.0);
        let t = NdArray::zeros(&[2, 3, 3]);
        let report = check_gradients(
            &[w.clone(), b.clone()],
            || {
                let xin = Tensor::constant(x.clone());
                let y = xin.conv2d(&w, Some(&b), 1, 0)?.tanh();
                y.mse_loss(&t)
            },
            1e-2,
            12,
        )
        .unwrap();
        assert!(report.passes(2e-2), "max rel err {}", report.max_rel_error);
    }

    #[test]
    fn layer_norm_gradient_checks() {
        let mut rng = StdRng::seed_from_u64(13);
        let g = Tensor::parameter(NdArray::randn(&mut rng, &[6], 0.5).add_scalar(1.0));
        let b = Tensor::parameter(NdArray::zeros(&[6]));
        let x = Tensor::parameter(NdArray::randn(&mut rng, &[3, 6], 1.0));
        let report = check_gradients(
            &[x.clone(), g.clone(), b.clone()],
            || {
                let y = x.layer_norm(&g, &b, 1e-5)?;
                Ok(y.mul(&y)?.mean_all())
            },
            1e-2,
            12,
        )
        .unwrap();
        assert!(report.passes(3e-2), "max rel err {}", report.max_rel_error);
    }

    #[test]
    fn report_fails_when_nothing_checked() {
        let r = GradCheckReport {
            max_rel_error: 0.0,
            checked: 0,
        };
        assert!(!r.passes(1.0));
    }
}
