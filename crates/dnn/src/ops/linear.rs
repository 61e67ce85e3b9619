//! Dense (fully connected) layers in BF16.

use crate::batch::PackedPanels;
use crate::bf16::bf16_round;
use crate::kernels::{gemm_packed, Segment, Store};
use crate::math::exp;
use crate::model::Prediction;
use crate::tensor::Tensor;

/// A dense layer `y = W x + b` with BF16-rounded weights.
///
/// Accepts rank-1 input `[in]` (returns `[out]`) or rank-2 input
/// `[rows, in]` (applied row-wise, returns `[rows, out]`).
#[derive(Debug, Clone, PartialEq)]
pub struct Linear {
    weight: Tensor, // [out, in]
    bias: Vec<f32>,
    /// `weight` packed into register panels for the batched forward.
    packed: PackedPanels,
}

impl Linear {
    /// Creates a layer with Xavier-uniform weights from `seed`.
    pub fn new(input: usize, output: usize, seed: u64) -> Self {
        let scale = (6.0 / (input + output) as f32).sqrt();
        let weight = Tensor::random(&[output, input], scale, seed).quantize_bf16();
        Linear::with_weights(weight, vec![0.0; output])
    }

    /// The layer of `weight` (`[out, in]`) and `bias`, its weights packed.
    fn with_weights(weight: Tensor, bias: Vec<f32>) -> Self {
        let (output, input) = (weight.shape()[0], weight.shape()[1]);
        let packed = PackedPanels::pack(weight.data(), output, input);
        Linear {
            weight,
            bias,
            packed,
        }
    }

    /// Input width.
    fn input_dim(&self) -> usize {
        self.weight.shape()[1]
    }

    /// Output width.
    pub fn output_dim(&self) -> usize {
        self.weight.shape()[0]
    }

    /// Applies the layer over a flat `[rows, in]` buffer using its packed
    /// weight panels, storing each `[rows, out]` sum into `out` as `post`
    /// says (BF16-rounded, and activated where the layer is): one sweep of
    /// the packed register tile over row blocks. Per row `==` to
    /// [`Self::forward_reference`] then `post`'s activation — packing only
    /// permutes the weight layout, never the `k` accumulation order.
    ///
    /// # Panics
    ///
    /// Panics on buffer-length mismatches.
    pub fn forward_batch_packed(&self, x: &[f32], rows: usize, post: Store, out: &mut [f32]) {
        let (input, output) = (self.input_dim(), self.output_dim());
        assert_eq!(x.len(), rows * input, "batched linear input length");
        assert_eq!(out.len(), rows * output, "batched linear output length");
        gemm_packed(
            Segment::packed(self.packed.data(), input, x, input),
            Some(&self.bias),
            rows,
            output,
            post,
            out,
            (output, 1),
        );
    }

    /// A three-class head over a flat `[rows, in]` buffer in one pass: per
    /// row, the three BF16-rounded logits, then their softmax, pushed to
    /// `out` as one [`Prediction`] each. Bit for bit
    /// [`Self::forward_reference`] then [`softmax_rows`]: each logit is
    /// seeded with its bias and accumulated in increasing input order; the
    /// softmax takes the max from `-inf` in class order, subtracts it,
    /// exponentiates with [`crate::math::exp`], sums from `0.0` in class
    /// order and divides.
    ///
    /// # Panics
    ///
    /// Panics unless the layer has three outputs and `x` holds `rows` rows.
    ///
    /// [`softmax_rows`]: crate::ops::softmax_rows
    pub fn softmax_head(&self, x: &[f32], rows: usize, out: &mut Vec<Prediction>) {
        let input = self.input_dim();
        assert_eq!(self.output_dim(), 3, "a softmax head has three classes");
        assert_eq!(x.len(), rows * input, "softmax head input length");
        let w = self.weight.data();
        let (w0, w1, w2) = (&w[..input], &w[input..2 * input], &w[2 * input..]);
        for row in x.chunks_exact(input.max(1)).take(rows) {
            let mut logits = [self.bias[0], self.bias[1], self.bias[2]];
            for (j, &v) in row.iter().enumerate() {
                logits[0] += w0[j] * v;
                logits[1] += w1[j] * v;
                logits[2] += w2[j] * v;
            }
            let logits = logits.map(bf16_round);
            let max = logits.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
            let e = logits.map(|v| exp(v - max));
            let sum = e.iter().fold(0.0, |s, &v| s + v);
            out.push(Prediction::new(e.map(|v| v / sum)));
        }
    }

    /// The naive reference implementation (kept for equivalence tests
    /// and the benchmark baseline); outputs are BF16-rounded.
    ///
    /// # Panics
    ///
    /// Panics if the input's last dimension is not [`Self::input_dim`].
    pub fn forward_reference(&self, x: &Tensor) -> Tensor {
        let (rows, input) = match x.shape() {
            [n] => (1usize, *n),
            [rows, n] => (*rows, *n),
            other => panic!("Linear expects rank 1 or 2 input, got {other:?}"),
        };
        assert_eq!(
            input,
            self.input_dim(),
            "input width {} != layer input {}",
            input,
            self.input_dim()
        );
        let output = self.output_dim();
        let mut out = vec![0.0f32; rows * output];
        for r in 0..rows {
            let xin = &x.data()[r * input..(r + 1) * input];
            for o in 0..output {
                let w = self.weight.row(o);
                let mut acc = self.bias[o];
                for i in 0..input {
                    acc += w[i] * xin[i];
                }
                out[r * output + o] = bf16_round(acc);
            }
        }
        if x.shape().len() == 1 {
            Tensor::from_vec(out, &[output])
        } else {
            Tensor::from_vec(out, &[rows, output])
        }
    }
}

#[cfg(test)]
impl Linear {
    /// MACs of a forward pass over `rows` rows.
    fn macs(&self, rows: u64) -> u64 {
        let (input, output) = (self.input_dim() as u64, self.output_dim() as u64);
        crate::ops::count::linear_macs(rows, input, output)
    }

    /// Creates a layer from explicit weights.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is not rank 2 or `bias` length mismatches.
    fn from_weights(weight: Tensor, bias: Vec<f32>) -> Self {
        assert_eq!(weight.shape().len(), 2, "weight must be [out, in]");
        assert_eq!(weight.shape()[0], bias.len(), "bias length mismatch");
        Linear::with_weights(weight, bias)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn identity3() -> Linear {
        let w = Tensor::from_vec(vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0], &[3, 3]);
        Linear::from_weights(w, vec![0.0; 3])
    }

    #[test]
    fn identity_passes_through() {
        let x = Tensor::from_vec(vec![1.0, -2.0, 3.0], &[3]);
        let y = identity3().forward_reference(&x);
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn matches_naive_reference() {
        let w = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let layer = Linear::from_weights(w, vec![0.5, -0.5]);
        let x = Tensor::from_vec(vec![1.0, 1.0, 1.0], &[3]);
        let y = layer.forward_reference(&x);
        assert_eq!(y.data(), &[6.5, 14.5]);
    }

    #[test]
    fn rank2_applies_rowwise() {
        let layer = identity3();
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let y = layer.forward_reference(&x);
        assert_eq!(y.shape(), &[2, 3]);
        assert_eq!(y.row(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn outputs_are_bf16() {
        let layer = Linear::new(16, 8, 1);
        let x = Tensor::random(&[16], 1.0, 2);
        let y = layer.forward_reference(&x);
        for &v in y.data() {
            assert_eq!(bf16_round(v), v);
        }
    }

    #[test]
    fn macs_counted() {
        let layer = Linear::new(128, 64, 0);
        assert_eq!(layer.macs(1), 8192);
        assert_eq!(layer.macs(10), 81920);
    }

    #[test]
    #[should_panic(expected = "input width")]
    fn wrong_width_panics() {
        let layer = Linear::new(4, 2, 0);
        let _ = layer.forward_reference(&Tensor::zeros(&[5]));
    }
}
