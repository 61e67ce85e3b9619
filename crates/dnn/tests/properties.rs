//! Property tests over the tensor ops' numerical invariants.

use lt_dnn::bf16::bf16_round;
use lt_dnn::ops::{softmax_last_dim, LayerNorm, Linear, Lstm, MultiHeadAttention};
use lt_dnn::Tensor;
use proptest::prelude::*;

fn finite_f32() -> impl Strategy<Value = f32> {
    (-1e6f32..1e6).prop_map(|v| v)
}

proptest! {
    /// BF16 rounding is idempotent and within half a BF16 ulp.
    #[test]
    fn bf16_round_contract(x in finite_f32()) {
        let r = bf16_round(x);
        prop_assert_eq!(bf16_round(r), r);
        if x != 0.0 {
            prop_assert!(((r - x) / x).abs() <= 1.0 / 256.0, "{} -> {}", x, r);
        }
    }

    /// BF16 rounding is monotone: x <= y implies round(x) <= round(y).
    #[test]
    fn bf16_round_monotone(a in finite_f32(), b in finite_f32()) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(bf16_round(lo) <= bf16_round(hi));
    }

    /// Softmax output is a probability distribution for any logits.
    #[test]
    fn softmax_is_distribution(xs in proptest::collection::vec(-50f32..50.0, 2..16)) {
        let n = xs.len();
        let mut t = Tensor::from_vec(xs, &[n]);
        softmax_last_dim(&mut t);
        let sum: f32 = t.data().iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-4);
        prop_assert!(t.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    /// Linear layers are (approximately) additive in their input:
    /// f(x + y) - b = (f(x) - b) + (f(y) - b) up to BF16 rounding.
    #[test]
    fn linear_is_affine(seed in 0u64..1000) {
        let layer = Linear::new(8, 4, seed);
        let x = Tensor::random(&[8], 1.0, seed.wrapping_add(1));
        let y = Tensor::random(&[8], 1.0, seed.wrapping_add(2));
        let fx = layer.forward_reference(&x);
        let fy = layer.forward_reference(&y);
        let sum_in = Tensor::from_vec(
            x.data().iter().zip(y.data()).map(|(a, b)| a + b).collect(),
            &[8],
        );
        let f_sum = layer.forward_reference(&sum_in);
        for i in 0..4 {
            let expect = fx.data()[i] + fy.data()[i]; // bias cancels: b = 0
            prop_assert!((f_sum.data()[i] - expect).abs() < 0.05,
                "{} vs {}", f_sum.data()[i], expect);
        }
    }

    /// Layer-norm rows always have ~zero mean and <=1 variance.
    #[test]
    fn layernorm_normalizes(rows in 1usize..5, seed in 0u64..100) {
        let ln = LayerNorm::new(8);
        let x = Tensor::random(&[rows, 8], 10.0, seed);
        let y = ln.forward_reference(&x);
        for r in 0..rows {
            let row = y.row(r);
            let mean: f32 = row.iter().sum::<f32>() / 8.0;
            prop_assert!(mean.abs() < 1e-3);
        }
    }

    /// LSTM hidden states stay in [-1, 1] regardless of input magnitude.
    #[test]
    fn lstm_hidden_bounded(scale in 0.1f32..100.0, seed in 0u64..50) {
        let lstm = Lstm::new(4, 6, seed);
        let x = Tensor::random(&[10, 4], scale, seed.wrapping_add(1));
        let y = lstm.forward_reference(&x);
        prop_assert!(y.data().iter().all(|v| v.abs() <= 1.0));
    }

    /// Attention output is finite and shape-preserving for any input.
    #[test]
    fn attention_finite(scale in 0.1f32..10.0, seed in 0u64..50) {
        let mha = MultiHeadAttention::new(8, 2, seed);
        let x = Tensor::random(&[5, 8], scale, seed.wrapping_add(1));
        let y = mha.forward_reference(&x);
        prop_assert_eq!(y.shape(), &[5usize, 8][..]);
        prop_assert!(y.data().iter().all(|v| v.is_finite()));
    }
}
