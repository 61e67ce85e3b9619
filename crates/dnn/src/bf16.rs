//! Brain-float-16 rounding and the inference [`Precision`].
//!
//! The accelerator computes in BF16 "to maintain the original network
//! accuracy across different networks, whereas the lower INT precision,
//! INT8 and INT4, are still supported … for the case that the processing
//! latency is prioritized over the accuracy" (§III-C). We model BF16 as
//! `f32` with the mantissa truncated to 7 bits using round-to-nearest-even
//! — bit-exact with hardware BF16 for normal values — rather than carrying
//! a distinct storage type through the hot path. INT8 exists at the
//! profiled level only: [`Precision::Int8`] scales the accelerator's
//! latency model, and every functional forward runs in BF16.

use serde::{Deserialize, Serialize};

/// Numeric precision of an inference (paper §III-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Precision {
    /// Brain float 16: the default, full-accuracy mode (16 TFLOPS peak).
    #[default]
    Bf16,
    /// 8-bit integers: 4x the throughput (64 TOPS peak), lossy.
    Int8,
}

impl Precision {
    /// Peak-throughput multiplier relative to BF16 (the paper's
    /// 16 TFLOPS vs 64 TOPS gives 4x for INT8).
    pub fn throughput_multiplier(self) -> f64 {
        match self {
            Precision::Bf16 => 1.0,
            Precision::Int8 => 4.0,
        }
    }
}

impl std::fmt::Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Precision::Bf16 => f.write_str("bf16"),
            Precision::Int8 => f.write_str("int8"),
        }
    }
}

/// Rounds an `f32` to the nearest representable BF16 value
/// (round-to-nearest-even), returned as `f32`.
///
/// # Example
///
/// ```
/// use lt_dnn::bf16_round;
/// // 1.0 is exactly representable.
/// assert_eq!(bf16_round(1.0), 1.0);
/// // BF16 has ~3 significant decimal digits.
/// assert_ne!(bf16_round(1.001), 1.001);
/// ```
#[inline]
pub fn bf16_round(x: f32) -> f32 {
    let bits = x.to_bits();
    // Round-to-nearest-even on the truncated 16 mantissa bits.
    let rounding_bias = 0x7FFF + ((bits >> 16) & 1);
    let rounded = bits.wrapping_add(rounding_bias) & 0xFFFF_0000;
    f32::from_bits(rounded)
}

/// Rounds a whole slice to BF16 in place.
pub fn bf16_round_slice(xs: &mut [f32]) {
    for x in xs {
        *x = bf16_round(*x);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_values_survive() {
        for v in [0.0f32, 1.0, -1.0, 0.5, 2.0, 256.0, -0.25] {
            assert_eq!(bf16_round(v), v);
        }
    }

    #[test]
    fn rounding_error_is_bounded() {
        // BF16 has 8 mantissa bits (incl. hidden): relative error < 2^-8.
        for i in 1..1000 {
            let x = i as f32 * 0.37;
            let r = bf16_round(x);
            assert!(((r - x) / x).abs() < 1.0 / 256.0, "{x} -> {r}");
        }
    }

    #[test]
    fn round_to_nearest_even() {
        // A value exactly halfway between two BF16 values rounds to even.
        let lo = f32::from_bits(0x3F80_0000); // 1.0
        let half_ulp = f32::from_bits(0x3F80_8000); // halfway to next bf16
        let r = bf16_round(half_ulp);
        // 0x3F80 is even, 0x3F81 is odd: ties go to 0x3F80.
        assert_eq!(r, lo);
    }

    #[test]
    fn idempotent() {
        for i in 0..100 {
            let x = (i as f32 - 50.0) * 1.7;
            assert_eq!(bf16_round(bf16_round(x)), bf16_round(x));
        }
    }

    #[test]
    fn specials_preserved() {
        assert!(bf16_round(f32::NAN).is_nan());
        assert_eq!(bf16_round(f32::INFINITY), f32::INFINITY);
        assert_eq!(bf16_round(f32::NEG_INFINITY), f32::NEG_INFINITY);
        assert_eq!(bf16_round(-0.0).to_bits(), (-0.0f32).to_bits());
    }

    #[test]
    fn slice_rounding() {
        let mut xs = vec![1.001f32, 2.003, 3.007];
        bf16_round_slice(&mut xs);
        for x in &xs {
            assert_eq!(bf16_round(*x), *x);
        }
    }

    #[test]
    fn precision_multipliers() {
        assert_eq!(Precision::Bf16.throughput_multiplier(), 1.0);
        assert_eq!(Precision::Int8.throughput_multiplier(), 4.0);
        assert_eq!(Precision::default(), Precision::Bf16);
        assert_eq!(Precision::Int8.to_string(), "int8");
    }
}
