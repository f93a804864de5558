//! Standard-normal draws by the Box–Muller transform: the one kernel behind
//! every Gaussian sampler in the workspace (imaging noise, SRAM cell bias,
//! comparator offsets, ADC conversion noise, fixational tremor).
//!
//! A sampler draws its two uniforms as raw 24-bit words, the top 24 bits of
//! one 64-bit generator output, which is exactly what the `rand` shim's
//! `gen_range` over `f32` consumes; [`unit()`] and `unit_from_epsilon` turn a
//! word into the same `f32` that `gen_range(0.0..1.0)` and
//! `gen_range(f32::EPSILON..1.0)` return. The transform itself,
//! [`box_muller`], runs on the bit-exact [`log_f32`] and [`cos_f32`] ports,
//! so it returns libm's bits without a libm call.
//!
//! Drawing and transforming are separate steps so that a sampler can keep
//! its generator stream sequential (the stream order fixes every output)
//! while the transform vectorises: [`gauss_words_into`] takes a buffer of
//! drawn word pairs, gathers `logf`'s table entries into a stack block, and
//! then runs the rest as a loop with no loads but its inputs.

use crate::math::{cos_f32, log_f32, log_f32_with, log_table_entry};
use std::f32::consts::TAU;

/// `2^-24`: the word `w` stands for the uniform `w 2^-24` in `[0, 1)`.
const WORD_UNIT: f32 = 1.0 / 16_777_216.0;

/// Gaussians per stack block in [`gauss_words_into`].
const BLOCK: usize = 64;

/// The uniform in `[0, 1)` that `gen_range(0.0f32..1.0)` returns for the
/// 24-bit word `word`.
///
/// Words above `2^24` are outside the domain.
#[inline(always)]
pub fn unit(word: u32) -> f32 {
    // Every 24-bit word is a non-negative i32, and the signed conversion
    // is one vector instruction where the unsigned one is several.
    word as i32 as f32 * WORD_UNIT
}

/// The uniform in `[EPSILON, 1)` that `gen_range(f32::EPSILON..1.0)` returns
/// for the 24-bit word `word`, including its fold of a rounded-up `1.0` back
/// to the lower bound.
#[inline(always)]
fn unit_from_epsilon(word: u32) -> f32 {
    let v = f32::EPSILON + (1.0 - f32::EPSILON) * unit(word);
    if v >= 1.0 {
        f32::EPSILON
    } else {
        v
    }
}

/// `sqrt(-2 ln u1) cos(2 pi u2)`: a standard normal from two uniforms, with
/// `u1` in `(0, 1]` and `u2` in `[0, 1)`.
#[inline(always)]
pub fn box_muller(u1: f32, u2: f32) -> f32 {
    (-2.0 * log_f32(u1)).sqrt() * cos_f32(TAU * u2)
}

/// The standard normal a sampler gets from the words `w1` then `w2`: the
/// Box–Muller transform of `gen_range(f32::EPSILON..1.0)` and
/// `gen_range(0.0..1.0)`.
#[inline(always)]
pub fn gauss_from_words(w1: u32, w2: u32) -> f32 {
    box_muller(unit_from_epsilon(w1), unit(w2))
}

/// [`gauss_from_words`] over word pairs: `out[i]` is the Gaussian of
/// `words[2i]` and `words[2i + 1]`.
///
/// Per block of 64 outputs, a scalar loop looks up `logf`'s table, and the
/// transform then runs as a loop LLVM vectorises. Every output depends only
/// on its own pair, so the bits match [`gauss_from_words`] exactly.
///
/// # Panics
///
/// Panics unless `words.len() == 2 * out.len()`.
pub fn gauss_words_into(words: &[u32], out: &mut [f32]) {
    assert_eq!(words.len(), 2 * out.len(), "one word pair per output");
    let mut u1 = [0.0f32; BLOCK];
    let mut invc = [0.0f64; BLOCK];
    let mut logc = [0.0f64; BLOCK];
    for (words, out) in words.chunks(2 * BLOCK).zip(out.chunks_mut(BLOCK)) {
        let n = out.len();
        for ((pair, u), (ic, lc)) in words
            .chunks_exact(2)
            .zip(&mut u1)
            .zip(invc.iter_mut().zip(logc.iter_mut()))
        {
            *u = unit_from_epsilon(pair[0]);
            (*ic, *lc) = log_table_entry(*u);
        }
        for ((((o, pair), &u), &ic), &lc) in out
            .iter_mut()
            .zip(words.chunks_exact(2))
            .zip(&u1[..n])
            .zip(&invc[..n])
            .zip(&logc[..n])
        {
            *o = (-2.0 * log_f32_with(u, ic, lc)).sqrt() * cos_f32(TAU * unit(pair[1]));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Box–Muller transform as every sampler wrote it before the ports,
    /// on the host libm.
    fn libm_box_muller(u1: f32, u2: f32) -> f32 {
        (-2.0 * u1.ln()).sqrt() * (TAU * u2).cos()
    }

    /// 24-bit words spread over the whole range, both ends included.
    fn words(n: usize) -> Vec<u32> {
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut v: Vec<u32> = (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 40) as u32
            })
            .collect();
        v.extend([0, 1, 2, 0x7f_ffff, 0x80_0000, 0xff_fffe, 0xff_ffff]);
        v
    }

    #[test]
    fn uniforms_cover_their_ranges() {
        assert_eq!(unit(0), 0.0);
        assert!(unit(0xff_ffff) < 1.0);
        assert_eq!(unit_from_epsilon(0), f32::EPSILON);
        for w in words(4096) {
            let u = unit_from_epsilon(w);
            assert!((f32::EPSILON..1.0).contains(&u), "word {w:#x} -> {u}");
        }
    }

    #[test]
    fn block_transform_matches_the_scalar_kernel() {
        let w = words(1001);
        let w = &w[..w.len() / 2 * 2];
        let mut out = vec![0.0f32; w.len() / 2];
        gauss_words_into(w, &mut out);
        for (i, &g) in out.iter().enumerate() {
            let r = gauss_from_words(w[2 * i], w[2 * i + 1]);
            assert_eq!(g.to_bits(), r.to_bits(), "pair {i}");
        }
    }

    /// On the hosts the ports target, the kernel is the libm formula.
    #[test]
    #[ignore = "needs glibc 2.36-2.40 on x86-64 with FMA"]
    fn kernel_matches_the_libm_formula() {
        let w = words(1 << 16);
        for pair in w.chunks_exact(2) {
            let (u1, u2) = (unit_from_epsilon(pair[0]), unit(pair[1]));
            let (g, r) = (gauss_from_words(pair[0], pair[1]), libm_box_muller(u1, u2));
            assert_eq!(g.to_bits(), r.to_bits(), "u1 {u1:e}, u2 {u2:e}");
        }
    }

    #[test]
    fn gaussians_are_standard_normal() {
        let w = words(200_000);
        let w = &w[..w.len() / 2 * 2];
        let mut g = vec![0.0f32; w.len() / 2];
        gauss_words_into(w, &mut g);
        let n = g.len() as f64;
        let mean = g.iter().map(|&x| f64::from(x)).sum::<f64>() / n;
        let var = g
            .iter()
            .map(|&x| (f64::from(x) - mean).powi(2))
            .sum::<f64>()
            / n;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "variance {var}");
    }

    #[test]
    #[should_panic(expected = "one word pair per output")]
    fn block_transform_rejects_unpaired_words() {
        gauss_words_into(&[1, 2, 3], &mut [0.0]);
    }
}
