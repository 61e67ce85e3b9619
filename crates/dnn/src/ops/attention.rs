//! Multi-head self-attention (the TransLOB building block).

use crate::kernels::{attention_batch, Store, ATTENTION_LANES, NR};
use crate::ops::activation::softmax_last_dim;
use crate::ops::expect_rank;
use crate::ops::linear::Linear;
use crate::tensor::Tensor;

/// Multi-head scaled-dot-product self-attention over `[T, D]` sequences.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiHeadAttention {
    wq: Linear,
    wk: Linear,
    wv: Linear,
    wo: Linear,
    heads: usize,
    d_model: usize,
}

impl MultiHeadAttention {
    /// Creates an attention block.
    ///
    /// # Panics
    ///
    /// Panics unless `heads` divides `d_model`.
    pub fn new(d_model: usize, heads: usize, seed: u64) -> Self {
        assert!(heads > 0, "need at least one head");
        assert_eq!(
            d_model % heads,
            0,
            "heads {heads} must divide d_model {d_model}"
        );
        MultiHeadAttention {
            wq: Linear::new(d_model, d_model, seed),
            wk: Linear::new(d_model, d_model, seed.wrapping_add(1)),
            wv: Linear::new(d_model, d_model, seed.wrapping_add(2)),
            wo: Linear::new(d_model, d_model, seed.wrapping_add(3)),
            heads,
            d_model,
        }
    }

    /// The workspace [`Self::forward_batch_packed`] takes over `t`-token
    /// sequences: elements per sample (the Q, K, V and context rows) and a
    /// fixed part (the softmax lanes, and the slack a sample's last query
    /// block and a head's last value block read past their ends).
    pub fn workspace(&self, t: usize) -> (usize, usize) {
        (4 * t * self.d_model, 2 * NR + t * ATTENTION_LANES)
    }

    /// Batched self-attention over a flat `[batch * t, d_model]` token
    /// buffer, writing the same shape into `out`, working in `work`
    /// ([`Self::workspace`]: `batch` samples' share and the fixed part,
    /// or more); per sample `==` to [`Self::forward_reference`].
    ///
    /// The four projections each sweep all `batch * t` rows at once, each
    /// against its own packed weights; the Q projection stores its output
    /// transposed, `[d_model, batch * t]`, so a block of queries' column is
    /// one lane word. Attention itself couples tokens within a sample only:
    /// `kernels::attention_batch`, one call over the batch, takes every
    /// (sample, head, block of query rows) through scores, row softmax and
    /// context in one pass, queries on the lanes. No score matrix is
    /// written between passes.
    ///
    /// # Panics
    ///
    /// Panics on buffer-length mismatches.
    pub fn forward_batch_packed(
        &self,
        x: &[f32],
        batch: usize,
        t: usize,
        work: &mut [f32],
        out: &mut [f32],
    ) {
        let d = self.d_model;
        let rows = batch * t;
        // A sample's last query block and a head's last value block may read
        // past their ends (into the next sample's or head's, or this slack);
        // those lanes are never stored.
        let (qt, rest) = work.split_at_mut(rows * d + NR);
        let (k, rest) = rest.split_at_mut(rows * d);
        let (context, rest) = rest.split_at_mut(rows * d);
        let (v, probs) = rest.split_at_mut(rows * d + NR);
        let probs = &mut probs[..t * ATTENTION_LANES];
        self.wq
            .forward_batch_transposed(x, rows, Store::Bf16, &mut qt[..rows * d]);
        self.wk.forward_batch_packed(x, rows, Store::Bf16, k);
        self.wv
            .forward_batch_packed(x, rows, Store::Bf16, &mut v[..rows * d]);
        qt[rows * d..].fill(0.0);
        v[rows * d..].fill(0.0);
        attention_batch(qt, k, v, batch, t, d, self.heads, probs, context);
        self.wo
            .forward_batch_packed(context, rows, Store::Bf16, out);
    }

    /// The naive reference implementation (kept for equivalence tests
    /// and the benchmark baseline): `Tensor::at`-indexed loops over
    /// naive Q/K/V/O projections.
    ///
    /// # Panics
    ///
    /// Panics if the input is not rank 2 of width `d_model`.
    pub fn forward_reference(&self, x: &Tensor) -> Tensor {
        expect_rank(x, 2, "MultiHeadAttention");
        assert_eq!(x.shape()[1], self.d_model, "width mismatch");
        let t = x.shape()[0];
        let d_head = self.d_model / self.heads;
        let q = self.wq.forward_reference(x);
        let k = self.wk.forward_reference(x);
        let v = self.wv.forward_reference(x);
        let scale = 1.0 / (d_head as f32).sqrt();
        let mut context = Tensor::zeros(&[t, self.d_model]);
        for h in 0..self.heads {
            let off = h * d_head;
            // scores[i][j] = q_i . k_j / sqrt(d_head)
            let mut scores = Tensor::zeros(&[t, t]);
            for i in 0..t {
                let qi = &q.row(i)[off..off + d_head];
                for j in 0..t {
                    let kj = &k.row(j)[off..off + d_head];
                    let dot: f32 = qi.iter().zip(kj).map(|(a, b)| a * b).sum();
                    scores.set(&[i, j], dot * scale);
                }
            }
            softmax_last_dim(&mut scores);
            for i in 0..t {
                for d in 0..d_head {
                    let mut acc = 0.0;
                    for j in 0..t {
                        acc += scores.at(&[i, j]) * v.row(j)[off + d];
                    }
                    context.set(&[i, off + d], acc);
                }
            }
        }
        self.wo.forward_reference(&context)
    }
}

#[cfg(test)]
impl MultiHeadAttention {
    /// MACs of a forward pass over a length-`seq` sequence.
    fn macs(&self, seq: u64) -> u64 {
        crate::ops::count::attention_macs(seq, self.d_model as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_shape_matches_input() {
        let mha = MultiHeadAttention::new(16, 4, 0);
        let x = Tensor::random(&[6, 16], 1.0, 1);
        let y = mha.forward_reference(&x);
        assert_eq!(y.shape(), &[6, 16]);
    }

    #[test]
    fn uniform_sequence_gives_uniform_output() {
        // If every token is identical, attention mixes identical values, so
        // every output token must be identical too.
        let mha = MultiHeadAttention::new(8, 2, 2);
        let row: Vec<f32> = (0..8).map(|i| i as f32 * 0.1).collect();
        let mut data = Vec::new();
        for _ in 0..4 {
            data.extend_from_slice(&row);
        }
        let x = Tensor::from_vec(data, &[4, 8]);
        let y = mha.forward_reference(&x);
        for t in 1..4 {
            assert_eq!(y.row(0), y.row(t));
        }
    }

    #[test]
    fn attends_to_content_not_position() {
        // Without positional encodings, permuting the sequence permutes the
        // output rows identically (self-attention is permutation-equivariant).
        let mha = MultiHeadAttention::new(8, 2, 3);
        let a = Tensor::random(&[1, 8], 1.0, 10);
        let b = Tensor::random(&[1, 8], 1.0, 11);
        let ab = Tensor::from_vec([a.data(), b.data()].concat(), &[2, 8]);
        let ba = Tensor::from_vec([b.data(), a.data()].concat(), &[2, 8]);
        let y_ab = mha.forward_reference(&ab);
        let y_ba = mha.forward_reference(&ba);
        for (x, y) in y_ab.row(0).iter().zip(y_ba.row(1)) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn single_head_equals_heads_of_full_width() {
        // Sanity: single head runs and differs from multi-head chunking.
        let x = Tensor::random(&[3, 8], 1.0, 20);
        let one = MultiHeadAttention::new(8, 1, 5).forward_reference(&x);
        let four = MultiHeadAttention::new(8, 4, 5).forward_reference(&x);
        assert_eq!(one.shape(), four.shape());
        assert_ne!(one.data(), four.data());
    }

    #[test]
    fn macs_match_formula() {
        let mha = MultiHeadAttention::new(64, 8, 0);
        assert_eq!(mha.macs(10), 4 * 10 * 64 * 64 + 2 * 100 * 64);
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn indivisible_heads_panics() {
        let _ = MultiHeadAttention::new(10, 3, 0);
    }
}
