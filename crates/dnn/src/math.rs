//! The nonlinearities every answer passes through — `exp`, `tanh` and
//! `sigmoid` — defined here, not taken from the host's libm.
//!
//! The paper's accelerator evaluates its nonlinearities on its own BF16
//! units (§III-C). A libm `expf`/`tanhf` is a different function on every
//! C library (glibc, musl, macOS and MSVC round differently) and a scalar
//! call the compiler cannot vectorise. These are a fixed range reduction
//! and a fixed polynomial in plain `f32` `+ − × /`, `abs`, `copysign`,
//! bit casts and selects: no `mul_add`, no libm, no branch on the input.
//! Rust never contracts `a * b + c` into a fused multiply-add, so every
//! IEEE-754 target computes the same bits, and an element costs the same
//! whatever its value.
//!
//! `exp` also has an in-place slice form, [`exp_slice`], whose loop
//! vectorises (TransLOB's three-class head's softmax runs it); `tanh` and
//! `sigmoid` run lane by lane inside the LSTM step pass
//! (`kernels::lstm_steps`). Either way an element is bit for bit the
//! scalar function of it, so a packed path and a reference running the
//! scalars agree `to_bits`.
//!
//! Accuracy against `f64`, in units of the `f32` spacing at the true
//! value: [`exp`] within 1 ulp on `[−87, 88]`, [`tanh`] within 2 ulp and
//! [`sigmoid`] within 3 ulp on `[−20, 20]` (over every `f32` in those
//! ranges the worst cases are 0.99, 1.33 and 2.48; the tests check about
//! a million of them). A NaN input answers NaN. Beyond the range the
//! functions saturate: `exp` to `+∞` above ≈ 88.7 and to `0` below
//! ≈ −104, `tanh` to `±1`, `sigmoid` to `0`/`1`.

/// `log2(e)`, rounded to `f32`: only picks `n`, so its error costs no
/// accuracy.
const LOG2E: f32 = std::f32::consts::LOG2_E;
/// `1.5 · 2²³`: adding it rounds an `|x| < 2²²` to an integer (ties to
/// even) held in the sum's low mantissa bits, with no float-to-int call.
const ROUND_MAGIC: f32 = 12_582_912.0;
/// `ln 2` in two parts (Cody–Waite): `LN2_HI` has 9 significant bits, so
/// `n · LN2_HI` is exact for every `n` the clamp allows.
const LN2_HI: f32 = f32::from_bits(0x3f31_8000); // 0.693 359 375 = 355 / 512
const LN2_LO: f32 = -2.121_944_4e-4;
/// The clamp: below `EXP_LO` the answer is `0`, above `EXP_HI` it is `+∞`,
/// and `n` stays where the two-factor scale in [`exp`] is exact.
const EXP_LO: f32 = -104.0;
const EXP_HI: f32 = 89.0;
/// `e^r ≈ 1 + r + r²·(E2 + r·(E3 + r·(E4 + r·(E5 + r·E6))))` on
/// `|r| ≤ ln 2 / 2`: weighted minimax for relative error (3.1e-9 before
/// rounding the coefficients to `f32`).
const E2: f32 = 0.499_999_94;
const E3: f32 = 0.166_665_21;
const E4: f32 = 0.041_668_39;
const E5: f32 = 0.008_368_71;
const E6: f32 = 0.001_381_461_3;
/// Below this `|x|`, [`tanh`] is its odd polynomial; at or above, it is
/// `1 − 2/(e^{2|x|} + 1)`, which loses no bits there.
const TANH_POLY_MAX: f32 = 0.625;
/// `tanh(a) ≈ a + a·z·(T0 + z·(T1 + z·(T2 + z·(T3 + z·T4))))`, `z = a²`,
/// on `a < 0.625`: weighted minimax for relative error (4.4e-9).
const T0: f32 = -0.333_332_8;
const T1: f32 = 0.133_314_42;
const T2: f32 = -0.053_739_71;
const T3: f32 = 0.020_639_077;
const T4: f32 = -0.005_704_976;

/// `2^n` for `n` in `[−126, 127]`, built from its exponent field.
#[inline]
fn pow2(n: i32) -> f32 {
    f32::from_bits(((n + 127) as u32) << 23)
}

/// `e^x`.
///
/// `x = n·ln 2 + r` with `n = round(x·log2 e)` and `|r| ≤ ln 2 / 2`, a
/// degree-6 polynomial for `e^r`, and `2^n` applied as two exact power-of-
/// two factors so `n` up to 128 (the top of the finite range) and down to
/// −150 (the bottom of the subnormals) need no special case.
#[inline]
pub fn exp(x: f32) -> f32 {
    // Selects, not `f32::max`/`min`: a comparison with NaN is false, so a
    // NaN passes the clamp and comes out NaN.
    let x = if x < EXP_LO { EXP_LO } else { x };
    let x = if x > EXP_HI { EXP_HI } else { x };
    let t = x * LOG2E + ROUND_MAGIC;
    let n = t - ROUND_MAGIC;
    let r = (x - n * LN2_HI) - n * LN2_LO;
    let p = 1.0 + (r + r * r * (E2 + r * (E3 + r * (E4 + r * (E5 + r * E6)))));
    // The same `n` as an integer, read from `t`'s bits. For a NaN `x` it is
    // garbage and so is the scale, but `p` is NaN, and so is the product.
    let n = t.to_bits().wrapping_sub(ROUND_MAGIC.to_bits()) as i32;
    let half = n >> 1;
    p * pow2(half) * pow2(n - half)
}

/// `tanh(x)`, exactly odd (`tanh(−0.0)` is `−0.0`).
#[inline]
pub fn tanh(x: f32) -> f32 {
    let a = x.abs();
    let z = a * a;
    let small = a + a * z * (T0 + z * (T1 + z * (T2 + z * (T3 + z * T4))));
    let large = 1.0 - 2.0 / (exp(a + a) + 1.0);
    let y = if a < TANH_POLY_MAX { small } else { large };
    y.copysign(x)
}

/// The logistic function `1 / (1 + e^−x)`.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + exp(-x))
}

/// [`exp`] of every element, in place.
pub fn exp_slice(xs: &mut [f32]) {
    for v in xs {
        *v = exp(*v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `|got − want|` in units of the `f32` spacing at `want` (the
    /// subnormal spacing below the normal range).
    fn ulps(got: f32, want: f64) -> f64 {
        let exponent = ((want.abs().to_bits() >> 52) & 0x7ff) as i32 - 1023;
        let spacing = 2f64.powi(exponent.max(-126) - 23);
        (f64::from(got) - want).abs() / spacing
    }

    /// About a million `f32`s in `[lo, hi]`, evenly spaced in bit pattern
    /// (so as dense near zero as near the ends), plus both ends.
    fn grid(lo: f32, hi: f32) -> impl Iterator<Item = f32> {
        const STEP: usize = 1 << 11;
        let positive = (0..=hi.to_bits()).step_by(STEP).map(f32::from_bits);
        let negative = (0..=(-lo).to_bits())
            .step_by(STEP)
            .map(|b| -f32::from_bits(b));
        positive.chain(negative).chain([lo, hi])
    }

    /// The largest error over [`grid`] against `f64` `want`.
    fn worst(f: fn(f32) -> f32, want: fn(f64) -> f64, lo: f32, hi: f32) -> (f64, f32) {
        grid(lo, hi)
            .map(|x| (ulps(f(x), want(f64::from(x))), x))
            .fold((0.0, 0.0), |a, b| if b.0 > a.0 { b } else { a })
    }

    #[test]
    fn exp_is_within_one_ulp() {
        let (err, at) = worst(exp, f64::exp, -87.0, 88.0);
        assert!(err <= 1.0, "exp: {err} ulp at {at}");
    }

    #[test]
    fn tanh_is_within_two_ulp() {
        let (err, at) = worst(tanh, f64::tanh, -20.0, 20.0);
        assert!(err <= 2.0, "tanh: {err} ulp at {at}");
    }

    #[test]
    fn sigmoid_is_within_three_ulp() {
        let (err, at) = worst(sigmoid, |x| 1.0 / (1.0 + (-x).exp()), -20.0, 20.0);
        assert!(err <= 3.0, "sigmoid: {err} ulp at {at}");
    }

    #[test]
    fn special_values() {
        let bits = |x: f32| x.to_bits();
        for nan in [f32::NAN, -f32::NAN] {
            assert!(exp(nan).is_nan());
            assert!(tanh(nan).is_nan());
            assert!(sigmoid(nan).is_nan());
        }
        assert_eq!(exp(f32::INFINITY), f32::INFINITY);
        assert_eq!(bits(exp(f32::NEG_INFINITY)), bits(0.0));
        assert_eq!(exp(0.0), 1.0);
        assert_eq!(exp(-0.0), 1.0);
        assert_eq!(bits(tanh(0.0)), bits(0.0));
        assert_eq!(bits(tanh(-0.0)), bits(-0.0));
        assert_eq!(tanh(f32::INFINITY), 1.0);
        assert_eq!(tanh(f32::NEG_INFINITY), -1.0);
        assert_eq!(sigmoid(0.0), 0.5);
        assert_eq!(sigmoid(-0.0), 0.5);
        assert_eq!(sigmoid(f32::INFINITY), 1.0);
        assert_eq!(bits(sigmoid(f32::NEG_INFINITY)), bits(0.0));
        // The smallest subnormals survive the polynomial untouched.
        let tiny = f32::from_bits(1);
        assert_eq!(bits(tanh(tiny)), bits(tiny));
        assert_eq!(bits(tanh(-tiny)), bits(-tiny));
    }

    #[test]
    fn saturates_beyond_the_range() {
        for x in [88.8, 89.0, 100.0, 1e10, f32::MAX] {
            assert_eq!(exp(x), f32::INFINITY, "exp({x})");
            assert_eq!(sigmoid(-x), 0.0, "sigmoid(-{x})");
        }
        for x in [-104.0, -110.0, -1e10, f32::MIN] {
            assert_eq!(exp(x).to_bits(), 0, "exp({x})");
        }
        // The last finite and the first subnormal steps are still there.
        assert!(exp(88.72).is_finite() && exp(88.72) > 3.0e38);
        assert!(exp(-100.0) > 0.0 && exp(-100.0) < f32::MIN_POSITIVE);
        for x in [9.1, 10.0, 20.0, 1e10, f32::MAX] {
            assert_eq!(tanh(x), 1.0, "tanh({x})");
            assert_eq!(tanh(-x), -1.0, "tanh(-{x})");
        }
        for x in [17.0, 20.0, 100.0, f32::MAX] {
            assert_eq!(sigmoid(x), 1.0, "sigmoid({x})");
        }
    }

    #[test]
    fn tanh_is_bitwise_odd() {
        for x in grid(-20.0, 20.0).chain([f32::MAX, f32::INFINITY]) {
            assert_eq!(tanh(-x).to_bits(), tanh(x).to_bits() ^ 0x8000_0000, "{x}");
        }
    }

    /// `exp_slice` is `exp` element by element at every vector tail. The
    /// LSTM cell's sigmoid and tanh run lane by lane in
    /// `kernels::lstm_steps`, whose instances
    /// `kernels::tests::lstm_step_instances_match_the_scalar_loops` checks
    /// against these scalars.
    #[test]
    fn slices_match_the_scalars_at_every_length() {
        let specials = [
            f32::NAN,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            100.0,
            -120.0,
        ];
        for len in 0..=33 {
            let xs: Vec<f32> = (0..len)
                .map(|i| match i % 7 {
                    6 => specials[i / 7 % specials.len()],
                    _ => (i as f32 * 0.731 - 9.0) * if i % 2 == 0 { 1.0 } else { 0.1 },
                })
                .collect();
            let mut got = xs.clone();
            exp_slice(&mut got);
            let want: Vec<u32> = xs.iter().map(|&x| exp(x).to_bits()).collect();
            let got: Vec<u32> = got.iter().map(|y| y.to_bits()).collect();
            assert_eq!(got, want, "length {len}");
        }
    }

    /// The bits are this code's, not the host's: the same table on every
    /// IEEE-754 target.
    #[test]
    fn pinned_bits() {
        const INPUTS: [f32; 16] = [
            -87.0, -20.0, -9.5, -3.0, -1.0, -0.625, -0.5, -1e-3, 1e-3, 0.1, 0.6249, 0.625, 1.0,
            2.5, 10.0, 88.0,
        ];
        #[rustfmt::skip]
        const WANT: [[u32; 3]; 16] = [
            [0x00b3_3687, 0xbf80_0000, 0x00b3_3687],
            [0x310d_a433, 0xbf80_0000, 0x310d_a433],
            [0x389c_f9c5, 0xbf80_0000, 0x389c_f6c3],
            [0x3d4b_ed86, 0xbf7e_bbe9, 0x3d42_41a2],
            [0x3ebc_5ab2, 0xbf42_f7d6, 0x3e89_b2b1],
            [0x3f09_06e5, 0xbf0d_fa40, 0x3eb2_819d],
            [0x3f1b_4598, 0xbeec_9a9f, 0x3ec1_4d03],
            [0x3f7f_be7f, 0xba83_126c, 0x3eff_df3c],
            [0x3f80_20c9, 0x3a83_126c, 0x3f00_1062],
            [0x3f8d_763e, 0x3dcc_1ebc, 0x3f06_6509],
            [0x3fef_1c90, 0x3f0d_f5b5, 0x3f26_bdb4],
            [0x3fef_22af, 0x3f0d_fa40, 0x3f26_bf32],
            [0x402d_f854, 0x3f42_f7d6, 0x3f3b_26a8],
            [0x4142_eb7f, 0x3f7c_92c1, 0x3f6c_948f],
            [0x46ac_14ee, 0x3f80_0000, 0x3f7f_fd06],
            [0x7ef8_82b7, 0x3f80_0000, 0x3f80_0000],
        ];
        let got: Vec<[u32; 3]> = INPUTS
            .iter()
            .map(|&x| [exp(x), tanh(x), sigmoid(x)].map(f32::to_bits))
            .collect();
        assert_eq!(got, WANT);
    }
}
