//! Branch-free, bit-exact ports of the libm functions on the hot paths:
//! `tanhf` (GELU), `expf` (softmax, sigmoid), and `logf`/`cosf` (the
//! Box–Muller transform behind every Gaussian draw, see [`crate::normal`]).
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
//!   differs at exactly one input, x = -63.09946 (`0xc27c65d9`). Its table
//!   load is a gather, so [`exp_f32_in_place`] splits it the way
//!   [`log_f32`] is split below: indices and table entries first, the
//!   arithmetic after.
//! * [`log_f32`] is glibc 2.36's FMA `logf`: a 16-entry table of `1/c` and
//!   `log c` and a degree-3 polynomial in `log1p(z/c - 1)`, all in `f64`.
//!   The table index is the only data-dependent load, and LLVM will not
//!   vectorise a loop that gathers from a table (its cost model rejects the
//!   gather). So the port splits in two: `log_table_entry` picks the
//!   entry, and `log_f32_with` does the arithmetic given the entry. A
//!   caller that gathers the entries into a block first gets a vector loop
//!   for the rest ([`crate::normal::gauss_words_into`] does this).
//! * [`cos_f32`] is glibc 2.36's FMA `cosf` on its fast path, `|x| < 120`:
//!   a quadrant reduction by one fused multiply-subtract with `pi/2` in
//!   `f64` and a degree-8 cosine or degree-7 sine polynomial. The second
//!   coefficient set of glibc's table is the first with the cosine
//!   polynomial negated, and both polynomials are odd or even in their
//!   inputs, so the quadrant only decides which polynomial to take and the
//!   sign of the result; no table load is left.
//! * [`round_non_negative`] is `f32::round` for `x >= +0.0`, written as
//!   `trunc(x + pred(0.5))` so a loop over it vectorises (`f32::round` has
//!   no x86 vector instruction and stays a scalar call).
//!
//! The unit tests pin every port to a branchy scalar transcription of the
//! reference C over a strided sweep of the bit patterns plus the edges of
//! every branch. `#[ignore]`d tests compare them with the host's libm
//! (`f32::tanh`, `f32::exp`, `f32::ln`, `f32::cos`, `f32::round`) on every
//! input of their domain; they hold where the host libm is glibc 2.36–2.40
//! on an FMA-capable x86-64.

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
/// lookup becomes a gather); see the module docs. [`exp_f32_in_place`] is
/// the block form that keeps the gather out of the vector loop.
#[inline(always)]
pub fn exp_f32(x: f32) -> f32 {
    let ki = exp_index(x);
    exp_f32_with(x, ki, EXP2_TABLE[(ki % 32) as usize])
}

/// The reduction `x 32/ln2 = k + r` with integer `k`, returned as the bits
/// of `k + SHIFT`: `k` sits in the low mantissa bits, so `ki % 32` is the
/// table index. gcc contracts both uses of the product; for `k` that gives
/// the same value on every input.
#[inline(always)]
fn exp_index(x: f32) -> u64 {
    INV_LN2_N.mul_add(f64::from(x), SHIFT).to_bits()
}

/// [`exp_f32`] given its reduction `ki` ([`exp_index`]) and the table entry
/// `EXP2_TABLE[ki % 32]`: everything but the table load.
#[inline(always)]
fn exp_f32_with(x: f32, ki: u64, entry: u64) -> f32 {
    let xd = f64::from(x);
    let kd = f64::from_bits(ki) - SHIFT;
    let r = INV_LN2_N.mul_add(xd, -kd);
    // exp(x) = 2^(k/32) 2^(r/32) ~= s (C0 r^3 + C1 r^2 + C2 r + 1).
    let s = f64::from_bits(entry.wrapping_add(ki << 47));
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

/// Values per stack block in [`exp_f32_in_place`].
const EXP_BLOCK: usize = 64;

/// [`exp_f32`] of every element, in place, gather first.
///
/// Per block of 64 values, a vector loop computes each reduction index, a
/// scalar loop loads the table entries into a stack block, and a second
/// vector loop does the rest with no loads but its inputs. LLVM will not
/// vectorise a loop that gathers from a table, so [`exp_f32`] over a slice
/// runs scalar; this form does not. Every output depends only on its own
/// input, so the bits match [`exp_f32`] exactly.
pub fn exp_f32_in_place(xs: &mut [f32]) {
    let mut ki = [0u64; EXP_BLOCK];
    let mut entry = [0u64; EXP_BLOCK];
    for block in xs.chunks_mut(EXP_BLOCK) {
        let n = block.len();
        for (k, &x) in ki.iter_mut().zip(block.iter()) {
            *k = exp_index(x);
        }
        for (e, &k) in entry[..n].iter_mut().zip(&ki[..n]) {
            *e = EXP2_TABLE[(k % 32) as usize];
        }
        for ((x, &k), &e) in block.iter_mut().zip(&ki[..n]).zip(&entry[..n]) {
            *x = exp_f32_with(*x, k, e);
        }
    }
}

/// `logf`'s table: `1/c` and `log c` for the centre `c` of each of the 16
/// subintervals of `[0x1.66p-1, 0x1.66p0)` (glibc's `__logf_data.tab`).
const LOG_INVC: [f64; 16] = [
    f64::from_bits(0x3ff6_61ec_79f8_f3be),
    f64::from_bits(0x3ff5_71ed_4aaf_883d),
    f64::from_bits(0x3ff4_9539_f0f0_10b0),
    f64::from_bits(0x3ff3_c995_b0b8_0385),
    f64::from_bits(0x3ff3_0d19_0c88_64a5),
    f64::from_bits(0x3ff2_5e22_7b0b_8ea0),
    f64::from_bits(0x3ff1_bb4a_4a1a_343f),
    f64::from_bits(0x3ff1_2358_f08a_e5ba),
    f64::from_bits(0x3ff0_953f_4199_00a7),
    1.0,
    f64::from_bits(0x3fee_608c_fd9a_47ac),
    f64::from_bits(0x3fec_a4b3_1f02_6aa0),
    f64::from_bits(0x3feb_2036_576a_fce6),
    f64::from_bits(0x3fe9_c2d1_63a1_aa2d),
    f64::from_bits(0x3fe8_86e6_0378_41ed),
    f64::from_bits(0x3fe7_67dc_f553_4862),
];
/// `log c` for the same subintervals.
const LOG_LOGC: [f64; 16] = [
    f64::from_bits(0xbfd5_7bf7_808c_aade),
    f64::from_bits(0xbfd2_bef0_a7c0_6ddb),
    f64::from_bits(0xbfd0_1eae_7f51_3a67),
    f64::from_bits(0xbfcb_31d8_a682_24e9),
    f64::from_bits(0xbfc6_574f_0ac0_7758),
    f64::from_bits(0xbfc1_aa2b_c79c_8100),
    f64::from_bits(0xbfba_4e76_ce8c_0e5e),
    f64::from_bits(0xbfb1_973c_5a61_1ccc),
    f64::from_bits(0xbfa2_52f4_38e1_0c1e),
    0.0,
    f64::from_bits(0x3faa_a5aa_5df2_5984),
    f64::from_bits(0x3fbc_5e53_aa36_2eb4),
    f64::from_bits(0x3fc5_26e5_7720_db08),
    f64::from_bits(0x3fcb_c286_0d22_4770),
    f64::from_bits(0x3fd1_058b_c8a0_7ee1),
    f64::from_bits(0x3fd4_0430_57b6_ee09),
];
/// ln 2 in `f64`.
const LN2: f64 = f64::from_bits(0x3fe6_2e42_fefa_39ef);
/// `log1p(r) ~= r + A2 r^2 + A1 r^3 + A0 r^4`.
const LOG_A0: f64 = f64::from_bits(0xbfd0_0ea3_48b8_8334);
const LOG_A1: f64 = f64::from_bits(0x3fd5_575b_0be0_0b6a);
const LOG_A2: f64 = f64::from_bits(0xbfdf_fffe_f20a_4123);
/// Bits of `0x1.66p-1`: `x = 2^k z` with `z` in `[OFF, 2 OFF)`.
const LOG_OFF: u32 = 0x3f33_0000;

/// The entry of `logf`'s table that [`log_f32`] uses for `x`, as
/// `(1/c, log c)`.
#[inline(always)]
pub(crate) fn log_table_entry(x: f32) -> (f64, f64) {
    let i = log_table_index(x);
    (LOG_INVC[i], LOG_LOGC[i])
}

/// The index into `logf`'s 16-entry table for `x`.
#[inline(always)]
fn log_table_index(x: f32) -> usize {
    ((x.to_bits().wrapping_sub(LOG_OFF) >> 19) % 16) as usize
}

/// [`log_f32`] given the table entry `log_table_entry` returns for `x`.
///
/// No table load, so a loop over it vectorises.
#[inline(always)]
pub(crate) fn log_f32_with(x: f32, invc: f64, logc: f64) -> f32 {
    let ix = x.to_bits();
    // x = 2^k z with z in [OFF, 2 OFF) exact; log x = log1p(z/c - 1) +
    // log c + k ln2.
    let tmp = ix.wrapping_sub(LOG_OFF);
    let k = (tmp as i32) >> 23;
    let z = f64::from(f32::from_bits(ix.wrapping_sub(tmp & 0xff80_0000)));
    let r = z.mul_add(invc, -1.0);
    let y0 = f64::from(k).mul_add(LN2, logc);
    let r2 = r * r;
    let y = LOG_A1.mul_add(r, LOG_A2);
    let y = LOG_A0.mul_add(r2, y);
    y.mul_add(r2, y0 + r) as f32
}

/// Natural logarithm, bit-identical to glibc 2.36's FMA `logf` on every
/// positive normal `x`.
///
/// Subnormals, zero, negatives, infinity and NaN are outside the port's
/// domain (glibc takes a slow path for them) and return unspecified values.
/// Branch-free apart from the table load; see the module docs for the
/// split that vectorises.
#[inline(always)]
pub fn log_f32(x: f32) -> f32 {
    let (invc, logc) = log_table_entry(x);
    log_f32_with(x, invc, logc)
}

/// `2 / pi`, scaled by `2^24` so the quadrant lands in bits 24 and up.
const HPI_INV: f64 = f64::from_bits(0x4164_5f30_6dc9_c883);
/// `pi / 2`.
const HPI: f64 = f64::from_bits(0x3ff9_21fb_5444_2d18);
/// The cosine polynomial of `cosf`'s first table entry.
const COS_C0: f64 = 1.0;
const COS_C1: f64 = f64::from_bits(0xbfdf_ffff_fd0c_621c);
const COS_C2: f64 = f64::from_bits(0x3fa5_5553_e106_8f19);
const COS_C3: f64 = f64::from_bits(0xbf56_c087_e89a_359d);
const COS_C4: f64 = f64::from_bits(0x3ef9_9343_027b_f8c3);
/// The sine polynomial, the same in both entries.
const SIN_S1: f64 = f64::from_bits(0xbfc5_5554_5995_a603);
const SIN_S2: f64 = f64::from_bits(0x3f81_1076_0523_0bc4);
const SIN_S3: f64 = f64::from_bits(0xbf29_94eb_3774_cf24);
/// 1.5 * 2^52 in `f64`: adding it to an integer-valued `f64` puts the
/// integer in the low mantissa bits.
const F64_TO_INT: f64 = 6_755_399_441_055_744.0;

/// Cosine, bit-identical to glibc 2.36's FMA `cosf` for `|x| < 120`.
///
/// Larger magnitudes, infinities and NaN take glibc's slow path and are
/// outside the port's domain; they return unspecified values. The
/// Box–Muller transform only passes `2 pi u` for `u` in `[0, 1)`.
/// Branch-free; see the module docs.
#[inline(always)]
pub fn cos_f32(y: f32) -> f32 {
    let x = f64::from(y);
    // n = ((int32_t) (x 2/pi 2^24) + 2^23) >> 24, the quadrant; every step
    // is exact in f64 for |x| < 120.
    let n = (((x * HPI_INV).trunc() + 8_388_608.0) * (1.0 / 16_777_216.0)).floor();
    let xr = (-n).mul_add(HPI, x);
    let q = (n + F64_TO_INT).to_bits() as u32;
    let x2 = xr * xr;
    // Odd quadrants take the sine polynomial of xr.
    let x3 = xr * x2;
    let s1 = x2.mul_add(SIN_S3, SIN_S2);
    let x7 = x3 * x2;
    let sin = x7.mul_add(s1, x3.mul_add(SIN_S1, xr));
    // Even quadrants take the cosine polynomial.
    let x4 = x2 * x2;
    let c2 = x2.mul_add(COS_C4, COS_C3);
    let c1 = x2.mul_add(COS_C1, COS_C0);
    let x6 = x4 * x2;
    let cos = x6.mul_add(c2, x4.mul_add(COS_C2, c1));
    let v = (if q & 1 != 0 { sin } else { cos }) as f32;
    // Quadrants 1 and 2 are negative: glibc multiplies x by -1 in quadrant
    // 1 and negates the cosine coefficients in 2, both exact sign flips.
    let v = if q.wrapping_add(1) & 2 != 0 { -v } else { v };
    // |x| < 2^-12: 1.
    if (y.to_bits() & 0x7fff_ffff) < 0x3980_0000 {
        1.0
    } else {
        v
    }
}

/// `0.5` minus one ulp.
const PRED_HALF: f32 = f32::from_bits(0x3eff_ffff);

/// `x.round()` for `x >= +0.0`, as `trunc(x + pred(0.5))`.
///
/// The sum rounds to the next integer exactly when `x`'s fraction is at
/// least one half, and never reaches it otherwise, so the result is
/// `f32::round`'s on every non-negative input. `-0.0` and negative inputs
/// are outside the domain.
#[inline(always)]
pub fn round_non_negative(x: f32) -> f32 {
    (x + PRED_HALF).trunc()
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

    fn exp_block_slice(xs: &[f32], ys: &mut [f32]) {
        ys.copy_from_slice(xs);
        exp_f32_in_place(ys);
    }

    #[test]
    fn exp_block_form_matches_exp_on_a_strided_sweep_and_the_edges() {
        // 1,047,809 inputs; the last slice ends in a one-value block.
        sweep(4099, |xs, ys| {
            exp_block_slice(xs, ys);
            assert_matches(xs, ys, exp_f32, "exp_f32_in_place");
        });
        let mut xs = common_edges();
        for b in [0xc2cf_f1b4u32, 0x42b1_7217, 0xc27c_65d9] {
            xs.extend(around(f32::from_bits(b), 64));
        }
        // Every slice length across two blocks, so each tail size runs.
        for len in 0..=2 * EXP_BLOCK + 1 {
            let mut ys = vec![0.0; len.min(xs.len())];
            exp_block_slice(&xs[..ys.len()], &mut ys);
            assert_matches(&xs[..ys.len()], &ys, exp_f32, "exp_f32_in_place");
        }
    }

    /// glibc 2.36 `logf` as its FMA variant computes it, transcribed branch
    /// for branch (special cases return their values without raising).
    fn ref_log(x: f32) -> f32 {
        let mut ix = x.to_bits();
        if ix == 0x3f80_0000 {
            return 0.0;
        }
        if ix.wrapping_sub(0x0080_0000) >= 0x7f80_0000 - 0x0080_0000 {
            if ix.wrapping_mul(2) == 0 {
                return f32::NEG_INFINITY;
            }
            if ix == 0x7f80_0000 {
                return x;
            }
            if (ix & 0x8000_0000) != 0 || ix.wrapping_mul(2) >= 0xff00_0000 {
                return f32::NAN;
            }
            ix = (x * 8_388_608.0).to_bits();
            ix -= 23 << 23;
        }
        let tmp = ix.wrapping_sub(LOG_OFF);
        let i = ((tmp >> 19) % 16) as usize;
        let k = (tmp as i32) >> 23;
        let iz = ix.wrapping_sub(tmp & 0xff80_0000);
        let (invc, logc) = (LOG_INVC[i], LOG_LOGC[i]);
        let z = f64::from(f32::from_bits(iz));
        let r = z.mul_add(invc, -1.0);
        let y0 = f64::from(k).mul_add(LN2, logc);
        let r2 = r * r;
        let y = LOG_A1.mul_add(r, LOG_A2);
        let y = LOG_A0.mul_add(r2, y);
        let y = y.mul_add(r2, y0 + r);
        y as f32
    }

    /// One entry of glibc's `__sincosf_table`, as stored.
    struct SinCosEntry {
        sign: [f64; 4],
        hpi_inv: f64,
        hpi: f64,
        c0: f64,
        c1: f64,
        s1: f64,
        c2: f64,
        s2: f64,
        c3: f64,
        s3: f64,
        c4: f64,
    }

    fn sincos_table() -> [SinCosEntry; 2] {
        let e = |c: [u64; 8]| SinCosEntry {
            sign: [1.0, -1.0, -1.0, 1.0],
            hpi_inv: f64::from_bits(0x4164_5f30_6dc9_c883),
            hpi: f64::from_bits(0x3ff9_21fb_5444_2d18),
            c0: f64::from_bits(c[0]),
            c1: f64::from_bits(c[1]),
            s1: f64::from_bits(c[2]),
            c2: f64::from_bits(c[3]),
            s2: f64::from_bits(c[4]),
            c3: f64::from_bits(c[5]),
            s3: f64::from_bits(c[6]),
            c4: f64::from_bits(c[7]),
        };
        [
            e([
                0x3ff0_0000_0000_0000,
                0xbfdf_ffff_fd0c_621c,
                0xbfc5_5554_5995_a603,
                0x3fa5_5553_e106_8f19,
                0x3f81_1076_0523_0bc4,
                0xbf56_c087_e89a_359d,
                0xbf29_94eb_3774_cf24,
                0x3ef9_9343_027b_f8c3,
            ]),
            e([
                0xbff0_0000_0000_0000,
                0x3fdf_ffff_fd0c_621c,
                0xbfc5_5554_5995_a603,
                0xbfa5_5553_e106_8f19,
                0x3f81_1076_0523_0bc4,
                0x3f56_c087_e89a_359d,
                0xbf29_94eb_3774_cf24,
                0xbef9_9343_027b_f8c3,
            ]),
        ]
    }

    /// glibc's `sinf_poly`, FMA-contracted.
    fn sinf_poly(x: f64, x2: f64, p: &SinCosEntry, n: i32) -> f32 {
        if n & 1 == 0 {
            let x3 = x * x2;
            let s1 = x2.mul_add(p.s3, p.s2);
            let x7 = x3 * x2;
            let s = x3.mul_add(p.s1, x);
            x7.mul_add(s1, s) as f32
        } else {
            let x4 = x2 * x2;
            let c2 = x2.mul_add(p.c4, p.c3);
            let c1 = x2.mul_add(p.c1, p.c0);
            let x6 = x4 * x2;
            let c = x4.mul_add(p.c2, c1);
            x6.mul_add(c2, c) as f32
        }
    }

    /// glibc 2.36 `cosf` as its FMA variant computes it for `|y| < 120`,
    /// transcribed branch for branch.
    fn ref_cos(y: f32) -> f32 {
        let abstop12 = |v: f32| (v.to_bits() >> 20) & 0x7ff;
        let table = sincos_table();
        let x = f64::from(y);
        let pio4 = f64::from_bits(0x3fe9_21fb_5444_2d18) as f32;
        if abstop12(y) < abstop12(pio4) {
            if abstop12(y) < abstop12(f32::from_bits(0x3980_0000)) {
                return 1.0;
            }
            return sinf_poly(x, x * x, &table[0], 1);
        }
        assert!(abstop12(y) < abstop12(120.0), "{y} is off the fast path");
        let p = &table[0];
        let r = x * p.hpi_inv;
        let n = ((r as i32) + 0x80_0000) >> 24;
        let x = (-f64::from(n)).mul_add(p.hpi, x);
        let s = p.sign[(n & 3) as usize];
        let p = &table[usize::from(n & 2 != 0)];
        sinf_poly(x * s, x * x, p, n ^ 1)
    }

    /// Round half away from zero by comparing the fraction with one half.
    fn ref_round(x: f32) -> f32 {
        if x.abs() >= 8_388_608.0 || x.is_nan() {
            return x;
        }
        let t = x.trunc();
        if (x - t).abs() >= 0.5 {
            t + x.signum()
        } else {
            t
        }
    }

    fn log_slice(xs: &[f32], ys: &mut [f32]) {
        for (y, &x) in ys.iter_mut().zip(xs) {
            *y = log_f32(x);
        }
    }

    fn cos_slice(xs: &[f32], ys: &mut [f32]) {
        for (y, &x) in ys.iter_mut().zip(xs) {
            *y = cos_f32(x);
        }
    }

    fn round_slice(xs: &[f32], ys: &mut [f32]) {
        for (y, &x) in ys.iter_mut().zip(xs) {
            *y = round_non_negative(x);
        }
    }

    fn positive_normal(x: f32) -> bool {
        x.is_normal() && x > 0.0
    }

    fn cos_domain(x: f32) -> bool {
        x.abs() < 120.0
    }

    fn non_negative_finite(x: f32) -> bool {
        x.is_finite() && x.to_bits() >> 31 == 0
    }

    /// Checks `kernel` against `reference` on the inputs of `xs` inside
    /// `domain`.
    fn assert_on_domain(
        xs: &[f32],
        ys: &mut [f32],
        kernel: fn(&[f32], &mut [f32]),
        domain: fn(f32) -> bool,
        reference: fn(f32) -> f32,
        name: &str,
    ) {
        kernel(xs, ys);
        for (&x, &y) in xs.iter().zip(ys.iter()) {
            if domain(x) {
                let r = reference(x);
                assert!(
                    same(y, r),
                    "{name}({x:e} = {:#010x}) = {y:e}, reference {r:e}",
                    x.to_bits()
                );
            }
        }
    }

    #[test]
    fn log_matches_glibc_on_a_strided_sweep() {
        sweep(257, |xs, ys| {
            assert_on_domain(xs, ys, log_slice, positive_normal, ref_log, "log")
        });
    }

    #[test]
    fn log_matches_glibc_at_branch_edges() {
        let mut xs = Vec::new();
        // The smallest and largest normals, 1 and its neighbours, the
        // sampler's lower bound, and every table boundary in three binades.
        for b in [0x0080_0000u32, 0x7f7f_ffff, 0x3f80_0000, 0x3400_0000] {
            xs.extend(around(f32::from_bits(b), 64));
        }
        for i in 0..16u32 {
            for k in [-1i32, 0, 1] {
                let b = LOG_OFF.wrapping_add(i << 19).wrapping_add((k << 23) as u32);
                xs.extend(around(f32::from_bits(b), 8));
            }
        }
        let mut ys = vec![0.0; xs.len()];
        assert_on_domain(&xs, &mut ys, log_slice, positive_normal, ref_log, "log");
        assert_eq!(log_f32(1.0).to_bits(), 0);
        assert_eq!(log_f32(2.0), std::f32::consts::LN_2);
    }

    #[test]
    fn log_table_entry_is_the_indexed_pair() {
        for x in [f32::EPSILON, 0.3, 0.7, 1.0, 1.5, 2.0e10] {
            let i = log_table_index(x);
            assert_eq!(log_table_entry(x), (LOG_INVC[i], LOG_LOGC[i]));
            let exact = (1.0 / LOG_INVC[i]).ln();
            assert!((LOG_LOGC[i] - exact).abs() < 1e-15, "entry {i}");
        }
    }

    #[test]
    fn cos_matches_glibc_on_a_strided_sweep() {
        sweep(257, |xs, ys| {
            assert_on_domain(xs, ys, cos_slice, cos_domain, ref_cos, "cos")
        });
    }

    #[test]
    fn cos_matches_glibc_at_branch_edges() {
        let mut xs = vec![0.0f32, -0.0];
        // The 2^-12 and pi/4 thresholds, the 120 cut-off, and every
        // quadrant boundary (k + 1/2) pi/2 the fast path reaches.
        for b in [0x3980_0000u32, 0x3f40_0000, 0x3f49_0fdb] {
            for x in around(f32::from_bits(b), 64) {
                xs.extend([x, -x]);
            }
        }
        for x in around(120.0, 64).filter(|x| x.abs() < 120.0) {
            xs.extend([x, -x]);
        }
        for k in 0..76 {
            let b = (k as f32 + 0.5) * std::f32::consts::FRAC_PI_2;
            for x in around(b, 16) {
                xs.extend([x, -x]);
            }
        }
        // The largest argument the Box–Muller transform passes.
        xs.extend(around(std::f32::consts::TAU, 16));
        let mut ys = vec![0.0; xs.len()];
        assert_on_domain(&xs, &mut ys, cos_slice, cos_domain, ref_cos, "cos");
        assert_eq!(cos_f32(0.0), 1.0);
    }

    #[test]
    fn round_matches_half_away_from_zero_on_a_strided_sweep() {
        sweep(257, |xs, ys| {
            assert_on_domain(xs, ys, round_slice, non_negative_finite, ref_round, "round")
        });
    }

    #[test]
    fn round_matches_at_half_integers() {
        let mut xs = vec![0.0f32, f32::from_bits(1), f32::MAX];
        for v in [0.5f32, 1.5, 2.5, 4_194_303.5, 4_194_304.5, 8_388_607.5] {
            xs.extend(around(v, 4));
        }
        xs.extend(around(8_388_608.0, 4));
        let mut ys = vec![0.0; xs.len()];
        assert_on_domain(
            &xs,
            &mut ys,
            round_slice,
            non_negative_finite,
            ref_round,
            "round",
        );
        for &x in &xs {
            assert!(same(round_non_negative(x), x.round()), "{x:e}");
        }
    }

    /// Runs `kernel` on every bit pattern in `bits` inside `domain`, split
    /// over the available cores, and compares it with `reference`.
    fn exhaustive(
        bits: std::ops::Range<u64>,
        kernel: fn(&[f32], &mut [f32]),
        domain: fn(f32) -> bool,
        reference: fn(f32) -> f32,
        name: &str,
    ) {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
        let per = (bits.end - bits.start).div_ceil(threads);
        std::thread::scope(|s| {
            for t in 0..threads {
                s.spawn(move || {
                    let mut xs = vec![0.0f32; 1 << 14];
                    let mut ys = vec![0.0f32; 1 << 14];
                    let end = (bits.start + (t + 1) * per).min(bits.end);
                    let mut b = bits.start + t * per;
                    while b < end {
                        let n = (end - b).min(xs.len() as u64) as usize;
                        for (j, x) in xs[..n].iter_mut().enumerate() {
                            *x = f32::from_bits((b + j as u64) as u32);
                        }
                        assert_on_domain(&xs[..n], &mut ys[..n], kernel, domain, reference, name);
                        b += n as u64;
                    }
                });
            }
        });
    }

    #[test]
    #[ignore = "exhaustive over 2^31 inputs; needs glibc 2.36-2.40 on x86-64 with FMA"]
    fn log_matches_host_libm_on_every_positive_normal() {
        exhaustive(
            0x0080_0000..0x7f80_0000,
            log_slice,
            positive_normal,
            f32::ln,
            "log",
        );
    }

    #[test]
    #[ignore = "exhaustive over 2^31 inputs; needs glibc 2.36-2.40 on x86-64 with FMA"]
    fn cos_matches_host_libm_below_120() {
        let top = u64::from(120.0f32.to_bits());
        exhaustive(0..top, cos_slice, cos_domain, f32::cos, "cos");
        exhaustive(
            0x8000_0000..0x8000_0000 + top,
            cos_slice,
            cos_domain,
            f32::cos,
            "cos",
        );
    }

    fn any_input(_: f32) -> bool {
        true
    }

    #[test]
    #[ignore = "exhaustive over 2^32 inputs"]
    fn exp_block_form_matches_exp_on_every_input() {
        exhaustive(0..1 << 32, exp_block_slice, any_input, exp_f32, "exp");
    }

    #[test]
    #[ignore = "exhaustive over 2^31 inputs"]
    fn round_matches_std_on_every_non_negative_finite() {
        exhaustive(
            0..0x7f80_0000,
            round_slice,
            non_negative_finite,
            f32::round,
            "round",
        );
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
