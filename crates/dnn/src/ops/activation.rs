//! Elementwise activations and softmax. The transcendental functions
//! themselves (`exp`, `tanh`, `sigmoid`) are [`crate::math`]'s.

use crate::math::exp_slice;
use crate::ops::{expect_rank, fold_rows, ROW_LANES};
use crate::tensor::Tensor;

/// ReLU in place.
pub fn relu(t: &mut Tensor) {
    for v in t.data_mut() {
        *v = relu_of(*v);
    }
}

/// ReLU of one value. A select, not a conditional store: the sign of an
/// activation is data, and a branch on it mispredicts about every other
/// element on inputs the predictor has not memorised.
#[inline(always)]
pub(crate) fn relu_of(v: f32) -> f32 {
    if v < 0.0 {
        0.0
    } else {
        v
    }
}

/// Leaky ReLU in place (DeepLOB uses `alpha = 0.01`).
pub fn leaky_relu(t: &mut Tensor, alpha: f32) {
    for v in t.data_mut() {
        *v = leaky_relu_of(*v, alpha);
    }
}

/// Leaky ReLU of one value (a select, like ReLU's).
#[inline(always)]
pub(crate) fn leaky_relu_of(v: f32, alpha: f32) -> f32 {
    if v < 0.0 {
        v * alpha
    } else {
        v
    }
}

/// Numerically stable softmax over the last dimension of a rank-1 or
/// rank-2 tensor, in place.
///
/// # Panics
///
/// Panics for tensors of rank 3 or higher.
pub fn softmax_last_dim(t: &mut Tensor) {
    let rank = t.shape().len();
    let (rows, cols) = match rank {
        1 => (1, t.shape()[0]),
        2 => (t.shape()[0], t.shape()[1]),
        _ => {
            expect_rank(t, 2, "softmax_last_dim");
            unreachable!()
        }
    };
    softmax_rows(t.data_mut(), rows, cols);
}

/// [`softmax_last_dim`] over a raw `rows x cols` slice. The three-class
/// heads' packed path (`Linear::softmax_head`) and attention's row
/// softmax (inside `kernels::attention_batch`) run these steps in this
/// order.
///
/// Per row: subtract the max, [`exp_slice`], then sum left to right and
/// divide. The max and the sum are [`fold_rows`] folds, eight rows to a
/// block, one row per lane; the exponentials run over the whole block as
/// one vector loop.
pub fn softmax_rows(data: &mut [f32], rows: usize, cols: usize) {
    debug_assert_eq!(data.len(), rows * cols);
    if cols == 0 {
        return;
    }
    for block in data[..rows * cols].chunks_mut(ROW_LANES * cols) {
        let max = fold_rows::<ROW_LANES>(block, cols, f32::NEG_INFINITY, |m, v, _| m.max(v));
        for (row, max) in block.chunks_exact_mut(cols).zip(max) {
            for v in row {
                *v -= max;
            }
        }
        exp_slice(block);
        let sum = fold_rows::<ROW_LANES>(block, cols, 0.0, |s, v, _| s + v);
        for (row, sum) in block.chunks_exact_mut(cols).zip(sum) {
            for v in row {
                *v /= sum;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_zeroes_negatives() {
        let mut t = Tensor::from_vec(vec![-1.0, 0.0, 2.0], &[3]);
        relu(&mut t);
        assert_eq!(t.data(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn leaky_relu_scales_negatives() {
        let mut t = Tensor::from_vec(vec![-2.0, 3.0], &[2]);
        leaky_relu(&mut t, 0.01);
        assert_eq!(t.data(), &[-0.02, 3.0]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut t = Tensor::from_vec(vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0], &[2, 3]);
        softmax_last_dim(&mut t);
        for r in 0..2 {
            let sum: f32 = t.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
            assert!(t.row(r).iter().all(|&v| v > 0.0));
        }
        // Larger logits get larger probabilities.
        assert!(t.at(&[0, 2]) > t.at(&[0, 0]));
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let mut a = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]);
        let mut b = Tensor::from_vec(vec![101.0, 102.0, 103.0], &[3]);
        softmax_last_dim(&mut a);
        softmax_last_dim(&mut b);
        for (x, y) in a.data().iter().zip(b.data()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_survives_large_logits() {
        let mut t = Tensor::from_vec(vec![1000.0, 999.0], &[2]);
        softmax_last_dim(&mut t);
        assert!(t.data().iter().all(|v| v.is_finite()));
        assert!((t.data().iter().sum::<f32>() - 1.0).abs() < 1e-6);
    }
}
