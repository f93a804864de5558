//! Integer GEMM kernel for the quantised inference path.
//!
//! `i8 x i8 -> i32` matrix multiply against a pre-transposed right operand
//! (weights stored `[out_features, in_features]` row-major, so both the
//! activation row and the weight row are contiguous in the inner loop).
//! Runs on the same fixed-partition contract as every kernel in this crate:
//! output rows are partitioned independently of the thread count, and since
//! integer accumulation is exact and associative the result is bit-identical
//! on 1..N threads *by arithmetic*, not just by ordering discipline.
//!
//! Accumulation is `i32`: with `|a|, |b| <= 127` the dot product magnitude is
//! bounded by `k * 127^2`, so any `k < 2^31 / 16129 ≈ 133 000` is
//! overflow-free — far above any reduction dimension in the system (the
//! paper-scale ViT's largest is `2 * mlp_ratio * dim = 768`).

/// Output rows per partition chunk (matches the f32 matmul's row blocking).
const ROW_BLOCK: usize = 32;
/// Rows the register-blocked micro-kernel computes at once: four `i32`
/// accumulators share one streamed weight row.
const MICRO_ROWS: usize = 4;

/// `out = a x bt^T` with `a: [m, k]` (`i8`), `bt: [p, k]` (`i8`, the
/// transposed right operand) and `out: [m, p]` (`i32`), all row-major.
///
/// `m` is inferred from `out.len() / p`. The partition is fixed
/// (`ROW_BLOCK` output rows per chunk) and integer math is exact, so the
/// bytes are identical at any thread count and on either side of the serial
/// cutoff.
///
/// # Panics
///
/// Panics if the slice lengths are inconsistent with `k`/`p`.
pub fn matmul_i8t_into(a: &[i8], bt: &[i8], k: usize, p: usize, out: &mut [i32]) {
    if out.is_empty() {
        assert!(
            a.is_empty() || k == 0 || p == 0,
            "empty output, non-empty operands"
        );
        return;
    }
    assert!(p > 0, "p must be positive for a non-empty output");
    assert!(out.len().is_multiple_of(p), "out length must be m * p");
    let m = out.len() / p;
    assert_eq!(a.len(), m * k, "a length must be m * k");
    assert_eq!(bt.len(), p * k, "bt length must be p * k");
    if k == 0 {
        out.fill(0);
        return;
    }

    // One contiguous run of ROW_BLOCK output rows per chunk; each output
    // element costs k multiply-accumulates.
    crate::par_chunks(out, ROW_BLOCK * p, k, |blk, out_chunk| {
        let row0 = blk * ROW_BLOCK;
        let rows = out_chunk.len() / p;
        let mut r = 0;
        while r + MICRO_ROWS <= rows {
            let a0 = &a[(row0 + r) * k..][..k];
            let a1 = &a[(row0 + r + 1) * k..][..k];
            let a2 = &a[(row0 + r + 2) * k..][..k];
            let a3 = &a[(row0 + r + 3) * k..][..k];
            for j in 0..p {
                let b = &bt[j * k..][..k];
                let (mut s0, mut s1, mut s2, mut s3) = (0i32, 0i32, 0i32, 0i32);
                for kk in 0..k {
                    let bv = b[kk] as i32;
                    s0 += a0[kk] as i32 * bv;
                    s1 += a1[kk] as i32 * bv;
                    s2 += a2[kk] as i32 * bv;
                    s3 += a3[kk] as i32 * bv;
                }
                out_chunk[r * p + j] = s0;
                out_chunk[(r + 1) * p + j] = s1;
                out_chunk[(r + 2) * p + j] = s2;
                out_chunk[(r + 3) * p + j] = s3;
            }
            r += MICRO_ROWS;
        }
        while r < rows {
            let arow = &a[(row0 + r) * k..][..k];
            for j in 0..p {
                let b = &bt[j * k..][..k];
                let mut s = 0i32;
                for kk in 0..k {
                    s += arow[kk] as i32 * b[kk] as i32;
                }
                out_chunk[r * p + j] = s;
            }
            r += 1;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{with_min_parallel_work, with_thread_count};

    fn reference(a: &[i8], bt: &[i8], k: usize, p: usize) -> Vec<i32> {
        let m = a.len().checked_div(k).unwrap_or(0);
        let mut out = vec![0i32; m * p];
        for i in 0..m {
            for j in 0..p {
                let mut s = 0i64;
                for kk in 0..k {
                    s += a[i * k + kk] as i64 * bt[j * k + kk] as i64;
                }
                out[i * p + j] = s as i32;
            }
        }
        out
    }

    fn synth(len: usize, seed: u8) -> Vec<i8> {
        (0..len)
            .map(|i| {
                let h = (i as u32)
                    .wrapping_mul(2654435761)
                    .wrapping_add(seed as u32);
                ((h >> 13) as i32 % 255 - 127) as i8
            })
            .collect()
    }

    #[test]
    fn matches_reference_over_odd_shapes() {
        for &(m, k, p) in &[
            (1usize, 1usize, 1usize),
            (5, 7, 3),
            (33, 16, 9),
            (130, 24, 17),
        ] {
            let a = synth(m * k, 11);
            let bt = synth(p * k, 97);
            let mut out = vec![0i32; m * p];
            matmul_i8t_into(&a, &bt, k, p, &mut out);
            assert_eq!(out, reference(&a, &bt, k, p), "m={m} k={k} p={p}");
        }
    }

    #[test]
    fn saturated_inputs_accumulate_exactly() {
        // All-extreme operands hit the largest possible dot products; the
        // i32 accumulator must carry them exactly.
        let (m, k, p) = (6, 512, 5);
        let a = vec![-127i8; m * k];
        let bt = vec![127i8; p * k];
        let mut out = vec![0i32; m * p];
        matmul_i8t_into(&a, &bt, k, p, &mut out);
        assert!(out.iter().all(|&v| v == -(k as i32) * 127 * 127));
    }

    #[test]
    fn bit_identical_across_thread_counts_and_cutoff() {
        let (m, k, p) = (67, 48, 19);
        let a = synth(m * k, 3);
        let bt = synth(p * k, 8);
        let run = |threads: usize, cutoff: usize| {
            with_thread_count(threads, || {
                with_min_parallel_work(cutoff, || {
                    let mut out = vec![0i32; m * p];
                    matmul_i8t_into(&a, &bt, k, p, &mut out);
                    out
                })
            })
        };
        let serial = run(1, usize::MAX);
        for threads in [2, 3, 8] {
            assert_eq!(serial, run(threads, 0), "threads={threads}");
        }
    }

    #[test]
    fn degenerate_dims_are_well_defined() {
        let mut empty: Vec<i32> = Vec::new();
        matmul_i8t_into(&[], &[], 0, 0, &mut empty);
        matmul_i8t_into(&[], &[], 4, 0, &mut empty);
        // k == 0: every dot product is empty.
        let mut out = vec![7i32; 6];
        matmul_i8t_into(&[], &[], 0, 3, &mut out);
        assert_eq!(out, vec![0; 6]);
    }
}
