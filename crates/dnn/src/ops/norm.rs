//! Layer normalization (used by the transformer blocks).

use crate::kernels::layer_norm_rows;
use crate::ops::expect_rank;
use crate::tensor::Tensor;

/// Layer norm over the last dimension of a `[T, D]` tensor, with learned
/// scale and shift.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerNorm {
    gamma: Vec<f32>,
    beta: Vec<f32>,
    eps: f32,
}

impl LayerNorm {
    /// Creates an identity-initialized layer norm of width `dim`.
    pub fn new(dim: usize) -> Self {
        LayerNorm {
            gamma: vec![1.0; dim],
            beta: vec![0.0; dim],
            eps: 1e-5,
        }
    }

    /// Normalized width.
    fn dim(&self) -> usize {
        self.gamma.len()
    }

    /// Normalizes every `dim`-wide row of the flat `[rows, dim]` buffer
    /// `x` to zero mean / unit variance, then applies scale and shift,
    /// writing `out` — [`Self::forward_reference`] over the packed path's
    /// flat activation buffers, bit-identical to it. The sums are
    /// `fold_rows` folds, one row per lane, sixteen rows to a block on
    /// an AVX-512 CPU and eight otherwise (`kernels::layer_norm_rows`).
    ///
    /// # Panics
    ///
    /// Panics if the buffers differ in length or are not whole rows.
    pub fn forward_rows(&self, x: &[f32], out: &mut [f32]) {
        layer_norm_rows(x, &self.gamma, &self.beta, self.eps, out);
    }

    /// The naive reference implementation (kept for equivalence tests
    /// and the benchmark baseline).
    ///
    /// # Panics
    ///
    /// Panics if the input is not rank 2 of width [`Self::dim`].
    pub fn forward_reference(&self, x: &Tensor) -> Tensor {
        expect_rank(x, 2, "LayerNorm");
        let (t, d) = (x.shape()[0], x.shape()[1]);
        assert_eq!(d, self.dim(), "width mismatch");
        let mut out = Tensor::zeros(&[t, d]);
        for r in 0..t {
            let row = x.row(r);
            let mean = row.iter().sum::<f32>() / d as f32;
            let var = row.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / d as f32;
            let inv = 1.0 / (var + self.eps).sqrt();
            for (c, &v) in row.iter().enumerate() {
                out.set(&[r, c], (v - mean) * inv * self.gamma[c] + self.beta[c]);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalizes_rows() {
        let ln = LayerNorm::new(4);
        let x = Tensor::from_vec(
            vec![1.0, 2.0, 3.0, 4.0, 100.0, 200.0, 300.0, 400.0],
            &[2, 4],
        );
        let y = ln.forward_reference(&x);
        for r in 0..2 {
            let row = y.row(r);
            let mean: f32 = row.iter().sum::<f32>() / 4.0;
            let var: f32 = row.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / 4.0;
            assert!(mean.abs() < 1e-5, "row {r} mean {mean}");
            assert!((var - 1.0).abs() < 1e-3, "row {r} var {var}");
        }
        // Both rows normalize to (nearly) the same values: layer norm is
        // scale-invariant per row up to the epsilon regularizer.
        for (a, b) in y.row(0).iter().zip(y.row(1)) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn constant_row_is_stable() {
        let ln = LayerNorm::new(3);
        let x = Tensor::from_vec(vec![5.0, 5.0, 5.0], &[1, 3]);
        let y = ln.forward_reference(&x);
        assert!(y.data().iter().all(|v| v.is_finite()));
        assert!(y.data().iter().all(|v| v.abs() < 1e-2));
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn width_mismatch_panics() {
        let ln = LayerNorm::new(3);
        let _ = ln.forward_reference(&Tensor::zeros(&[1, 4]));
    }
}
