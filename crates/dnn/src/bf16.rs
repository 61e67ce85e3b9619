//! Brain-float-16 rounding.
//!
//! The accelerator computes in BF16 "to maintain the original network
//! accuracy across different networks, whereas the lower INT precision,
//! INT8 and INT4, are still supported … for the case that the processing
//! latency is prioritized over the accuracy" (§III-C). We model BF16 as
//! `f32` with the mantissa truncated to 7 bits using round-to-nearest-even
//! — bit-exact with hardware BF16 for normal values — rather than carrying
//! a distinct storage type through the hot path. Every forward, functional
//! or priced by the latency model, runs in BF16; INT8 appears only as
//! Table I's peak-throughput row (`lt_accel::AccelSpec::peak_tops_int8`).

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
}
