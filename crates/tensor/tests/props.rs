//! Property-based tests of the tensor substrate: algebraic identities and
//! gradient correctness on randomly shaped/valued inputs.

use bliss_tensor::{check_gradients, NdArray, Tensor};
use proptest::prelude::*;

fn small_vec(len: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-3.0f32..3.0, len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn blocked_parallel_matmul_matches_naive_reference(
        m in 1usize..40, k in 1usize..70, n in 1usize..40, seed in 0u64..1000
    ) {
        // Random shapes straddle every kernel boundary (4-row micro-kernel,
        // 16-wide column tiles, 32-row parallel blocks); the blocked-parallel
        // product must agree with a naive triple loop and be bit-identical
        // across thread counts.
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a = NdArray::randn(&mut rng, &[m, k], 1.0);
        let b = NdArray::randn(&mut rng, &[k, n], 1.0);
        let fast = a.matmul(&b).unwrap();
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for kk in 0..k {
                    acc += a.at(i, kk) * b.at(kk, j);
                }
                prop_assert!(
                    (fast.at(i, j) - acc).abs() <= 1e-3 * (1.0 + acc.abs()),
                    "({i},{j}): blocked {} vs naive {acc}", fast.at(i, j)
                );
            }
        }
        let serial = bliss_parallel::with_thread_count(1, || a.matmul(&b).unwrap());
        let par = bliss_parallel::with_thread_count(8, || a.matmul(&b).unwrap());
        prop_assert_eq!(serial.data(), par.data());
        prop_assert_eq!(serial.data(), fast.data());
    }

    #[test]
    fn matmul_distributes_over_addition(
        a in small_vec(6), b in small_vec(8), c in small_vec(8)
    ) {
        let a = NdArray::from_vec(a, &[3, 2]).unwrap();
        let b = NdArray::from_vec(b, &[2, 4]).unwrap();
        let c = NdArray::from_vec(c, &[2, 4]).unwrap();
        let lhs = a.matmul(&b.add(&c).unwrap()).unwrap();
        let rhs = a.matmul(&b).unwrap().add(&a.matmul(&c).unwrap()).unwrap();
        prop_assert!(lhs.approx_eq(&rhs, 1e-4));
    }

    #[test]
    fn transpose_is_involutive(v in small_vec(12)) {
        let a = NdArray::from_vec(v, &[3, 4]).unwrap();
        prop_assert_eq!(a.transpose().unwrap().transpose().unwrap(), a);
    }

    #[test]
    fn softmax_rows_are_distributions(v in small_vec(15)) {
        let a = NdArray::from_vec(v, &[3, 5]).unwrap();
        let s = a.softmax_rows().unwrap();
        for r in 0..3 {
            let row_sum: f32 = s.data()[r * 5..(r + 1) * 5].iter().sum();
            prop_assert!((row_sum - 1.0).abs() < 1e-5);
        }
        prop_assert!(s.data().iter().all(|&x| (0.0..=1.0).contains(&x)));
    }

    #[test]
    fn im2col_col2im_adjoint(v in small_vec(2 * 6 * 5)) {
        // <im2col(x), y> == <x, col2im(y)>
        let x = NdArray::from_vec(v, &[2, 6, 5]).unwrap();
        let cols = x.im2col(3, 3, 1, 1).unwrap();
        let y = NdArray::ones(cols.shape());
        let lhs = cols.dot(&y).unwrap();
        let back = y.col2im(2, 6, 5, 3, 3, 1, 1).unwrap();
        let rhs = x.dot(&back).unwrap();
        prop_assert!((lhs - rhs).abs() < 1e-2, "lhs={lhs} rhs={rhs}");
    }

    #[test]
    fn gather_then_scatter_preserves_row_mass(
        v in small_vec(8),
        idx in prop::collection::vec(0usize..4, 1..6)
    ) {
        let x = Tensor::parameter(NdArray::from_vec(v, &[4, 2]).unwrap());
        let g = x.gather_rows(&idx).unwrap();
        g.sum_all().backward().unwrap();
        let grad = x.grad().unwrap();
        // Each row's gradient equals the number of times it was gathered.
        for r in 0..4 {
            let count = idx.iter().filter(|&&i| i == r).count() as f32;
            prop_assert!((grad.at(r, 0) - count).abs() < 1e-6);
        }
    }

    #[test]
    fn elementwise_chain_gradients_check(v in small_vec(6)) {
        let x = Tensor::parameter(NdArray::from_vec(v, &[2, 3]).unwrap());
        let report = check_gradients(
            std::slice::from_ref(&x),
            || Ok(x.tanh().mul(&x.sigmoid())?.mean_all()),
            1e-3,
            6,
        ).unwrap();
        prop_assert!(report.passes(5e-2), "max rel err {}", report.max_rel_error);
    }

    #[test]
    fn relu_output_nonnegative_and_sparse_grad(v in small_vec(10)) {
        let x = Tensor::parameter(NdArray::from_vec(v.clone(), &[10]).unwrap());
        let y = x.relu();
        prop_assert!(y.value().data().iter().all(|&a| a >= 0.0));
        y.sum_all().backward().unwrap();
        let g = x.grad().unwrap();
        for (i, &xi) in v.iter().enumerate() {
            prop_assert_eq!(g.data()[i], if xi > 0.0 { 1.0 } else { 0.0 });
        }
    }

    #[test]
    fn cross_entropy_nonnegative(
        v in small_vec(12),
        targets in prop::collection::vec(0usize..4, 3)
    ) {
        let x = Tensor::parameter(NdArray::from_vec(v, &[3, 4]).unwrap());
        let ones = Tensor::constant(NdArray::ones(&[3]));
        let loss = x.cross_entropy_rows_gated(&targets, &ones).unwrap();
        prop_assert!(loss.value().data()[0] >= 0.0);
    }
}
