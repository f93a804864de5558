//! Branch-free, bit-exact ports of the two libm transcendentals on the ViT's
//! forward path: `tanhf` (GELU) and `expf` (softmax, sigmoid).
//!
//! A libm call per element cannot be inlined, so a loop over it never
//! vectorises, and the call itself costs more than the GELU or softmax
//! arithmetic around it. These ports compute every branch of the reference
//! algorithm and pick the result with selects, so a loop over them
//! vectorises on x86-64-v3, and they keep the reference's operation order
//! exactly, so they return the same bits:
//!
//! * [`tanh_f32`] is fdlibm's `tanhf` over fdlibm's `__expm1f`, the generic
//!   single-precision code glibc shipped until 2.41. Those two symbols have
//!   no ifunc variants, so glibc builds them without FMA; Rust never
//!   contracts `a * b + c` either.
//! * [`exp_f32`] is glibc 2.36's `expf` (the 32-entry `2^(i/32)` table and a
//!   degree-3 polynomial in `f64`) as its FMA ifunc variant computes it: gcc
//!   contracts every multiply-add in that file, so the port writes each one
//!   as `f64::mul_add`. The one that changes bits is the range reduction
//!   `r = fma(InvLn2N, x, -kd)`: computing `z - kd` from a rounded `z`
//!   differs at exactly one input, x = -63.09946 (`0xc27c65d9`).
//!
//! The unit tests pin both ports to branchy scalar transcriptions of the
//! reference C over a strided sweep of all 2^32 bit patterns plus the edges
//! of every branch. An `#[ignore]`d test compares them with the host's
//! `f32::tanh`/`f32::exp` on every input; it holds where the host libm is
//! glibc 2.36–2.40 on an FMA-capable x86-64.

/// High part of ln 2; `k * LN2_HI` is exact for the `k` `expm1` reaches.
const LN2_HI: f32 = f32::from_bits(0x3f31_7180);
/// Low part of ln 2.
const LN2_LO: f32 = f32::from_bits(0x3717_f7d1);
/// 1 / ln 2.
const INV_LN2: f32 = f32::from_bits(0x3fb8_aa3b);
/// 1.5 * 2^23: an integer-valued `t` with |t| < 2^22 sits in the low
/// mantissa bits of `t + TO_INT`.
const TO_INT: f32 = 12_582_912.0;
/// fdlibm's scaled `expm1` coefficients.
const Q1: f32 = f32::from_bits(0xbd08_8889);
const Q2: f32 = f32::from_bits(0x3ad0_0d01);
const Q3: f32 = f32::from_bits(0xb8a6_70cd);
const Q4: f32 = f32::from_bits(0x3686_7e54);
const Q5: f32 = f32::from_bits(0xb457_edbb);

/// Adds `k` to the binary exponent of `y` by integer arithmetic on its bits,
/// as fdlibm's `SET_FLOAT_WORD(y, i + (k << 23))` does.
#[inline(always)]
fn add_exponent(y: f32, k: i32) -> f32 {
    f32::from_bits((y.to_bits() as i32).wrapping_add(k.wrapping_shl(23)) as u32)
}

/// fdlibm `__expm1f`, every path computed and the result selected.
///
/// Exact for finite `x` with `|x| < 27 ln 2` and for positive `x` below 88;
/// [`tanh_f32`] only passes arguments in `(-2, 44)`. The `-1` saturation and
/// overflow branches of the reference lie outside that domain and are left
/// out. The wrapping integer operations only wrap in lanes whose result is
/// not selected.
#[inline(always)]
fn expm1_f32(x: f32) -> f32 {
    let bits = x.to_bits();
    let neg = (bits >> 31) != 0;
    let hx = bits & 0x7fff_ffff;

    // Argument reduction x = k ln2 + (hi - lo), for |x| > ln2 / 2: k = ±1 up
    // to 1.5 ln2, else k rounded from x / ln2.
    let near = hx < 0x3f85_1592;
    // C's float-to-int truncation. `as i32` would saturate out-of-range
    // lanes, which LLVM scalarises; truncating in float and reading the
    // integer off the mantissa of `t + 1.5 * 2^23` is exact for |t| < 2^22
    // and vectorises (other lanes are never selected).
    let tg = (INV_LN2 * x + if neg { -0.5 } else { 0.5 }).trunc();
    let kg = (tg + TO_INT).to_bits().wrapping_sub(TO_INT.to_bits()) as i32;
    // x - (-a) and x + a round identically, so the sign folds into the
    // constants.
    let (ln2_hi, ln2_lo, k_near) = if neg {
        (-LN2_HI, -LN2_LO, -1)
    } else {
        (LN2_HI, LN2_LO, 1)
    };
    let hi = if near { x - ln2_hi } else { x - tg * LN2_HI };
    let lo = if near { ln2_lo } else { tg * LN2_LO };
    let kr = if near { k_near } else { kg };
    let xr_reduced = hi - lo;
    let c_reduced = (hi - xr_reduced) - lo;
    let reduce = hx > 0x3eb1_7218;
    let xr = if reduce { xr_reduced } else { x };
    let c = if reduce { c_reduced } else { 0.0 };
    let k = if reduce { kr } else { 0 };

    // x is now in the primary range.
    let hfx = 0.5 * xr;
    let hxs = xr * hfx;
    let r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
    let t = 3.0 - r1 * hfx;
    let e = hxs * ((r1 - t) / (6.0 - xr * t));
    let y_k0 = xr - (xr * e - hxs);
    let e = (xr * (e - c) - c) - hxs;
    let y_km1 = 0.5 * (xr - e) - 0.5;
    let y_k1 = if xr < -0.25 {
        -2.0 * (e - (xr + 0.5))
    } else {
        1.0 + 2.0 * (xr - e)
    };
    // k <= -2 or k > 56: exp(x) - 1 is 2^k (1 - (e - x)) - 1.
    let y_far = add_exponent(1.0 - (e - xr), k) - 1.0;
    // 2 <= k < 23: t = 1 - 2^-k.
    let t_mid = f32::from_bits(0x3f80_0000 - 0x0100_0000u32.wrapping_shr(k as u32));
    let y_mid = add_exponent(t_mid - (e - xr), k);
    // 23 <= k <= 56: t = 2^-k.
    let t_high = f32::from_bits(0x7f_i32.wrapping_sub(k).wrapping_shl(23) as u32);
    let y_high = add_exponent((xr - (e + t_high)) + 1.0, k);

    let y = if k < 23 { y_mid } else { y_high };
    let y = if k <= -2 || k > 56 { y_far } else { y };
    let y = if k == 1 { y_k1 } else { y };
    let y = if k == -1 { y_km1 } else { y };
    let y = if k == 0 { y_k0 } else { y };
    // |x| < 2^-25: expm1(x) rounds to x.
    if hx < 0x3300_0000 {
        x
    } else {
        y
    }
}

/// Hyperbolic tangent, bit-identical to fdlibm's `tanhf` on every input.
///
/// Branch-free, so loops over it vectorise; see the module docs.
#[inline(always)]
pub fn tanh_f32(x: f32) -> f32 {
    let jx = x.to_bits();
    let ix = jx & 0x7fff_ffff;
    let ax = f32::from_bits(ix);
    // |x| >= 1: 1 - 2 / (expm1(2|x|) + 2); else -t / (t + 2), t = expm1(-2|x|).
    let big = ix >= 0x3f80_0000;
    let t = expm1_f32(if big { 2.0 * ax } else { -2.0 * ax });
    // One division serves both: the quotients share their divisor.
    let q = if big { 2.0 } else { -t } / (t + 2.0);
    let z = if big { 1.0 - q } else { q };
    // |x| >= 22 (and ±inf): ±1.
    let z = if ix < 0x41b0_0000 { z } else { 1.0 };
    let z = if (jx as i32) < 0 { -z } else { z };
    // |x| < 2^-55 (and ±0): x (1 + x).
    let z = if ix < 0x2400_0000 { x * (1.0 + x) } else { z };
    // NaN in, the same quiet NaN out.
    if ix > 0x7f80_0000 {
        x + x
    } else {
        z
    }
}

/// `2^(i/32)` as `f64` bits, minus `i << 47` so that adding `k << 47` for
/// `k = 32 q + i` scales the entry by `2^q`: glibc's `__exp2f_data.tab`.
const EXP2_TABLE: [u64; 32] = [
    0x3ff0_0000_0000_0000,
    0x3fef_d9b0_d315_8574,
    0x3fef_b558_6cf9_890f,
    0x3fef_9301_d012_5b51,
    0x3fef_72b8_3c7d_517b,
    0x3fef_5487_3168_b9aa,
    0x3fef_387a_6e75_6238,
    0x3fef_1e9d_f51f_dee1,
    0x3fef_06fe_0a31_b715,
    0x3fee_f1a7_373a_a9cb,
    0x3fee_dea6_4c12_3422,
    0x3fee_ce08_6061_892d,
    0x3fee_bfda_d536_2a27,
    0x3fee_b42b_569d_4f82,
    0x3fee_ab07_dd48_5429,
    0x3fee_a47e_b03a_5585,
    0x3fee_a09e_667f_3bcd,
    0x3fee_9f75_e8ec_5f74,
    0x3fee_a114_73eb_0187,
    0x3fee_a589_994c_ce13,
    0x3fee_ace5_422a_a0db,
    0x3fee_b737_b0cd_c5e5,
    0x3fee_c491_82a3_f090,
    0x3fee_d503_b23e_255d,
    0x3fee_e89f_995a_d3ad,
    0x3fee_ff76_f2fb_5e47,
    0x3fef_199b_dd85_529c,
    0x3fef_3720_dcef_9069,
    0x3fef_5818_dcfb_a487,
    0x3fef_7c97_337b_9b5f,
    0x3fef_a4af_a2a4_90da,
    0x3fef_d076_5b6e_4540,
];
/// 32 / ln 2.
const INV_LN2_N: f64 = f64::from_bits(0x3ff7_1547_652b_82fe) * 32.0;
/// 1.5 * 2^52: adding it rounds to an integer held in the low mantissa bits.
const SHIFT: f64 = f64::from_bits(0x4338_0000_0000_0000);
/// Polynomial coefficients for `2^(r/32)`, scaled by powers of 1/32.
const C0: f64 = f64::from_bits(0x3fac_6af8_4b91_2394) / 32768.0;
const C1: f64 = f64::from_bits(0x3fce_bfce_50fa_c4f3) / 1024.0;
const C2: f64 = f64::from_bits(0x3fe6_2e42_ff0c_52d6) / 32.0;
/// Largest `x` whose `expf` is finite: `0x1.62e42ep6`.
const EXP_OVERFLOW: f32 = f32::from_bits(0x42b1_7217);
/// Below this, `expf` rounds to zero: `-0x1.9fe368p6`.
const EXP_UNDERFLOW: f32 = f32::from_bits(0xc2cf_f1b4);

/// Natural exponential, bit-identical to glibc 2.36's FMA `expf` on every
/// input.
///
/// Branch-free apart from the table index, so loops over it vectorise (the
/// lookup becomes a gather); see the module docs.
#[inline(always)]
pub fn exp_f32(x: f32) -> f32 {
    let xd = f64::from(x);
    // x 32/ln2 = k + r with integer k and |r| <= 1/2. gcc contracts both
    // uses of the product; for `kd` that gives the same k on every input.
    let kd = INV_LN2_N.mul_add(xd, SHIFT);
    let ki = kd.to_bits();
    let kd = kd - SHIFT;
    let r = INV_LN2_N.mul_add(xd, -kd);
    // exp(x) = 2^(k/32) 2^(r/32) ~= s (C0 r^3 + C1 r^2 + C2 r + 1).
    let s = f64::from_bits(EXP2_TABLE[(ki % 32) as usize].wrapping_add(ki << 47));
    let z = C0.mul_add(r, C1);
    let r2 = r * r;
    let y = C2.mul_add(r, 1.0);
    let y = z.mul_add(r2, y);
    let y = (y * s) as f32;
    let y = if x > EXP_OVERFLOW { f32::INFINITY } else { y };
    let y = if x < EXP_UNDERFLOW { 0.0 } else { y };
    if x.is_nan() {
        x + x
    } else {
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// fdlibm `__expm1f`, transcribed branch for branch (without the
    /// floating-point exception side effects).
    fn ref_expm1(x: f32) -> f32 {
        let mut x = x;
        let hx0 = x.to_bits();
        let neg = hx0 >> 31 != 0;
        let hx = hx0 & 0x7fff_ffff;
        if hx >= 0x4195_b844 {
            if hx >= 0x42b1_7218 {
                if hx > 0x7f80_0000 {
                    return x + x;
                }
                if hx == 0x7f80_0000 {
                    return if neg { -1.0 } else { x };
                }
                if x > f32::from_bits(0x42b1_7180) {
                    return f32::INFINITY;
                }
            }
            if neg {
                return 1.0e-30 - 1.0;
            }
        }
        let (k, c);
        if hx > 0x3eb1_7218 {
            let (hi, lo);
            if hx < 0x3f85_1592 {
                if !neg {
                    hi = x - LN2_HI;
                    lo = LN2_LO;
                    k = 1;
                } else {
                    hi = x + LN2_HI;
                    lo = -LN2_LO;
                    k = -1;
                }
            } else {
                k = (INV_LN2 * x + if neg { -0.5 } else { 0.5 }) as i32;
                let t = k as f32;
                hi = x - t * LN2_HI;
                lo = t * LN2_LO;
            }
            x = hi - lo;
            c = (hi - x) - lo;
        } else if hx < 0x3300_0000 {
            return x;
        } else {
            k = 0;
            c = 0.0;
        }
        let hfx = 0.5 * x;
        let hxs = x * hfx;
        let r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
        let t = 3.0 - r1 * hfx;
        let mut e = hxs * ((r1 - t) / (6.0 - x * t));
        if k == 0 {
            return x - (x * e - hxs);
        }
        e = x * (e - c) - c;
        e -= hxs;
        if k == -1 {
            return 0.5 * (x - e) - 0.5;
        }
        if k == 1 {
            return if x < -0.25 {
                -2.0 * (e - (x + 0.5))
            } else {
                1.0 + 2.0 * (x - e)
            };
        }
        let set_exp = |y: f32| f32::from_bits((y.to_bits() as i32 + (k << 23)) as u32);
        if k <= -2 || k > 56 {
            let y = 1.0 - (e - x);
            let y = if k == 128 {
                y * 2.0 * f32::from_bits(0x7f00_0000)
            } else {
                set_exp(y)
            };
            return y - 1.0;
        }
        if k < 23 {
            let t = f32::from_bits(0x3f80_0000 - (0x0100_0000 >> k));
            set_exp(t - (e - x))
        } else {
            let t = f32::from_bits(((0x7f - k) << 23) as u32);
            set_exp((x - (e + t)) + 1.0)
        }
    }

    /// fdlibm `tanhf`, transcribed branch for branch.
    fn ref_tanh(x: f32) -> f32 {
        let jx = x.to_bits() as i32;
        let ix = jx & 0x7fff_ffff;
        if ix >= 0x7f80_0000 {
            return if jx >= 0 {
                1.0 / x + 1.0
            } else {
                1.0 / x - 1.0
            };
        }
        let z;
        if ix < 0x41b0_0000 {
            if ix == 0 {
                return x;
            }
            if ix < 0x2400_0000 {
                return x * (1.0 + x);
            }
            if ix >= 0x3f80_0000 {
                let t = ref_expm1(2.0 * x.abs());
                z = 1.0 - 2.0 / (t + 2.0);
            } else {
                let t = ref_expm1(-2.0 * x.abs());
                z = -t / (t + 2.0);
            }
        } else {
            z = 1.0 - 1.0e-30;
        }
        if jx >= 0 {
            z
        } else {
            -z
        }
    }

    /// glibc 2.36 `expf` as its FMA variant computes it, transcribed branch
    /// for branch.
    fn ref_exp(x: f32) -> f32 {
        let xd = f64::from(x);
        let abstop = (x.to_bits() >> 20) & 0x7ff;
        if abstop >= (88.0f32.to_bits() >> 20) {
            if x == f32::NEG_INFINITY {
                return 0.0;
            }
            if abstop >= (f32::INFINITY.to_bits() >> 20) {
                return x + x;
            }
            if x > EXP_OVERFLOW {
                return f32::INFINITY;
            }
            if x < EXP_UNDERFLOW {
                return 0.0;
            }
        }
        let kd = INV_LN2_N.mul_add(xd, SHIFT);
        let ki = kd.to_bits();
        let kd = kd - SHIFT;
        let r = INV_LN2_N.mul_add(xd, -kd);
        let t = EXP2_TABLE[(ki % 32) as usize].wrapping_add(ki << 47);
        let s = f64::from_bits(t);
        let z = C0.mul_add(r, C1);
        let r2 = r * r;
        let y = C2.mul_add(r, 1.0);
        let y = z.mul_add(r2, y);
        (y * s) as f32
    }

    fn same(a: f32, b: f32) -> bool {
        a.to_bits() == b.to_bits()
    }

    /// Runs `f` over `n` bit patterns `i * stride` (wrapping), through the
    /// kernel in slices so the vectorised loop is what is checked.
    fn sweep(stride: u32, check: impl Fn(&[f32], &mut [f32])) {
        let mut xs = vec![0.0f32; 1 << 16];
        let mut ys = vec![0.0f32; 1 << 16];
        let total = (1u64 << 32).div_ceil(u64::from(stride));
        let mut i = 0u64;
        while i < total {
            let n = (total - i).min(xs.len() as u64) as usize;
            for (j, x) in xs[..n].iter_mut().enumerate() {
                *x = f32::from_bits(((i + j as u64) * u64::from(stride)) as u32);
            }
            check(&xs[..n], &mut ys[..n]);
            i += n as u64;
        }
    }

    fn tanh_slice(xs: &[f32], ys: &mut [f32]) {
        for (y, &x) in ys.iter_mut().zip(xs) {
            *y = tanh_f32(x);
        }
    }

    fn exp_slice(xs: &[f32], ys: &mut [f32]) {
        for (y, &x) in ys.iter_mut().zip(xs) {
            *y = exp_f32(x);
        }
    }

    fn assert_matches(xs: &[f32], ys: &[f32], reference: fn(f32) -> f32, name: &str) {
        for (&x, &y) in xs.iter().zip(ys) {
            let r = reference(x);
            assert!(
                same(y, r),
                "{name}({x:e} = {:#010x}) = {y:e}, reference {r:e}",
                x.to_bits()
            );
        }
    }

    /// Bit patterns around `x`: `x` itself and `radius` ulps either side.
    fn around(x: f32, radius: u32) -> impl Iterator<Item = f32> {
        let b = x.to_bits();
        (b.saturating_sub(radius)..=b.saturating_add(radius)).map(f32::from_bits)
    }

    /// Edge inputs shared by both functions: signed zeros, subnormals,
    /// infinities, NaNs of both signs and payloads.
    fn common_edges() -> Vec<f32> {
        let mut v = Vec::new();
        for b in [
            0x0000_0000u32,
            0x0000_0001,
            0x0000_0100,
            0x007f_ffff,
            0x0080_0000,
            0x7f7f_ffff,
            0x7f80_0000,
            0x7f80_0001,
            0x7fc0_0000,
            0x7fc1_2345,
            0x7fff_ffff,
        ] {
            v.push(f32::from_bits(b));
            v.push(f32::from_bits(b | 0x8000_0000));
        }
        v
    }

    #[test]
    fn expm1_matches_fdlibm_on_its_domain() {
        sweep(257, |xs, ys| {
            for (y, &x) in ys.iter_mut().zip(xs) {
                *y = expm1_f32(x);
            }
            for (&x, &y) in xs.iter().zip(ys.iter()) {
                if x.abs() < 18.0 || (x > 0.0 && x < 88.0) {
                    let r = ref_expm1(x);
                    assert!(same(y, r), "expm1({x:e}) = {y:e}, reference {r:e}");
                }
            }
        });
    }

    #[test]
    fn tanh_matches_fdlibm_on_a_strided_sweep() {
        sweep(257, |xs, ys| {
            tanh_slice(xs, ys);
            assert_matches(xs, ys, ref_tanh, "tanh");
        });
    }

    #[test]
    fn tanh_matches_fdlibm_at_branch_edges() {
        let mut xs = common_edges();
        // Branch thresholds of tanhf: 2^-55, 1 and 22.
        for b in [0x2400_0000u32, 0x3f80_0000, 0x41b0_0000] {
            for x in around(f32::from_bits(b), 64) {
                xs.extend([x, -x]);
            }
        }
        // expm1's reduction boundaries as tanh reaches them: the argument
        // 2|x| (or -2|x|) crossing ln2/2, 1.5 ln2, 2^-25 and (k ± 1/2) ln2
        // for k = -1, 0, 1, 23, 56 and 57.
        let ln2 = std::f32::consts::LN_2;
        let mut args = vec![
            f32::from_bits(0x3eb1_7218),
            f32::from_bits(0x3f85_1592),
            f32::from_bits(0x3300_0000),
        ];
        for k in [-1.0f32, 0.0, 1.0, 23.0, 56.0, 57.0] {
            args.extend([(k - 0.5) * ln2, (k + 0.5) * ln2]);
        }
        for a in args {
            for x in around((a / 2.0).abs(), 64) {
                xs.extend([x, -x]);
            }
        }
        let mut ys = vec![0.0; xs.len()];
        tanh_slice(&xs, &mut ys);
        for (&x, &y) in xs.iter().zip(&ys) {
            let r = ref_tanh(x);
            if x.is_nan() {
                assert!(y.is_nan(), "tanh(NaN {:#010x}) = {y}", x.to_bits());
            }
            assert!(
                same(y, r),
                "tanh({x:e} = {:#010x}) = {y:e}, reference {r:e}",
                x.to_bits()
            );
        }
    }

    #[test]
    fn exp_matches_glibc_on_a_strided_sweep() {
        sweep(257, |xs, ys| {
            exp_slice(xs, ys);
            assert_matches(xs, ys, ref_exp, "exp");
        });
    }

    #[test]
    fn exp_matches_glibc_at_branch_edges() {
        let mut xs = common_edges();
        // The underflow cut-off, the overflow point, the |x| >= 88 special
        // path, and the one input where an unfused reduction goes wrong.
        for b in [
            0xc2cf_f1b4u32,
            0x42b1_7217,
            0x42b0_0000,
            0xc2b0_0000,
            0xc27c_65d9,
        ] {
            xs.extend(around(f32::from_bits(b), 64));
        }
        xs.extend(around(-103.28, 64));
        let mut ys = vec![0.0; xs.len()];
        exp_slice(&xs, &mut ys);
        for (&x, &y) in xs.iter().zip(&ys) {
            if x.is_nan() {
                assert!(y.is_nan(), "exp(NaN {:#010x}) = {y}", x.to_bits());
            }
        }
        assert_matches(&xs, &ys, ref_exp, "exp");
        assert_eq!(exp_f32(f32::NEG_INFINITY), 0.0);
        assert_eq!(exp_f32(f32::INFINITY), f32::INFINITY);
        assert_eq!(exp_f32(0.0), 1.0);
    }

    #[test]
    fn reduction_needs_the_fused_multiply_add() {
        // With r = z - kd from a rounded z, this input rounds differently.
        let x = f32::from_bits(0xc27c_65d9);
        let xd = f64::from(x);
        let kd = INV_LN2_N.mul_add(xd, SHIFT) - SHIFT;
        let ki = (kd + SHIFT).to_bits();
        let unfused = |r: f64| {
            let s = f64::from_bits(EXP2_TABLE[(ki % 32) as usize].wrapping_add(ki << 47));
            let y = C0.mul_add(r, C1).mul_add(r * r, C2.mul_add(r, 1.0));
            (y * s) as f32
        };
        let rounded = unfused(INV_LN2_N * xd - kd);
        assert!(!same(rounded, exp_f32(x)));
        assert!(same(exp_f32(x), ref_exp(x)));
    }

    #[test]
    fn exp_table_holds_powers_of_two() {
        for (i, &bits) in EXP2_TABLE.iter().enumerate() {
            let v = f64::from_bits(bits + ((i as u64) << 47));
            let exact = (i as f64 / 32.0).exp2();
            assert!(
                (v - exact).abs() <= f64::EPSILON * exact,
                "entry {i}: {v} vs 2^({i}/32) = {exact}"
            );
        }
    }

    /// Every f32 bit pattern against the host libm, split over the available
    /// cores. Holds only where the host's `tanhf` is fdlibm's (glibc before
    /// 2.41) and its `expf` is glibc 2.36's FMA variant (x86-64 with FMA);
    /// elsewhere the ports still match the references above.
    #[test]
    #[ignore = "exhaustive over 2^32 inputs; needs glibc 2.36-2.40 on x86-64 with FMA"]
    fn ports_match_host_libm_on_every_input() {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
        let per = (1u64 << 32).div_ceil(threads);
        std::thread::scope(|s| {
            for t in 0..threads {
                s.spawn(move || {
                    let mut xs = vec![0.0f32; 1 << 14];
                    let (mut th, mut ex) = (vec![0.0f32; 1 << 14], vec![0.0f32; 1 << 14]);
                    let end = ((t + 1) * per).min(1 << 32);
                    let mut b = t * per;
                    while b < end {
                        let n = (end - b).min(xs.len() as u64) as usize;
                        for (j, x) in xs[..n].iter_mut().enumerate() {
                            *x = f32::from_bits((b + j as u64) as u32);
                        }
                        tanh_slice(&xs[..n], &mut th[..n]);
                        exp_slice(&xs[..n], &mut ex[..n]);
                        for j in 0..n {
                            let x = xs[j];
                            let (rt, re) = (x.tanh(), x.exp());
                            assert!(
                                same(th[j], rt),
                                "tanh({:#010x}) = {:e}, libm {rt:e}",
                                x.to_bits(),
                                th[j]
                            );
                            assert!(
                                same(ex[j], re),
                                "exp({:#010x}) = {:e}, libm {re:e}",
                                x.to_bits(),
                                ex[j]
                            );
                        }
                        b += n as u64;
                    }
                });
            }
        });
    }
}
