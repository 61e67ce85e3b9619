//! A long short-term memory layer.

use crate::batch::PackedPanels;
use crate::bf16::bf16_round;
use crate::kernels::{gemm_packed, lstm_recurrent_rows, lstm_steps, Segment, Store};
use crate::math::{sigmoid, tanh};
use crate::ops::expect_rank;
use crate::tensor::Tensor;

/// A single-layer LSTM processing `[T, input]` sequences.
///
/// Gate order in the stacked weight matrices is `[i, f, g, o]`
/// (input, forget, cell candidate, output), matching the usual
/// `W_x x_t + W_h h_{t-1} + b` formulation.
#[derive(Debug, Clone, PartialEq)]
pub struct Lstm {
    wx: Tensor, // [4*hidden, input]
    wh: Tensor, // [4*hidden, hidden]
    bias: Vec<f32>,
    input: usize,
    hidden: usize,
    /// `wx` packed into register panels, for the input half.
    packed_wx: PackedPanels,
    /// `wh` packed in the gate-blocked order the step kernel reads
    /// ([`lstm_recurrent_rows`]).
    packed_wh: PackedPanels,
}

impl Lstm {
    /// Creates an LSTM with Xavier-uniform weights and forget-gate bias 1.
    pub fn new(input: usize, hidden: usize, seed: u64) -> Self {
        let scale = (6.0 / (input + hidden) as f32).sqrt();
        let mut bias = vec![0.0; 4 * hidden];
        // Standard trick: bias the forget gate open at initialization.
        for b in bias.iter_mut().skip(hidden).take(hidden) {
            *b = 1.0;
        }
        let wx = Tensor::random(&[4 * hidden, input], scale, seed).quantize_bf16();
        let wh = Tensor::random(&[4 * hidden, hidden], scale, seed.wrapping_add(1)).quantize_bf16();
        let packed_wx = PackedPanels::pack(wx.data(), 4 * hidden, input);
        let (rows, m) = lstm_recurrent_rows(wh.data(), hidden);
        let packed_wh = PackedPanels::pack(&rows, m, hidden);
        Lstm {
            wx,
            wh,
            bias,
            input,
            hidden,
            packed_wx,
            packed_wh,
        }
    }

    /// Hidden-state width.
    pub fn hidden_dim(&self) -> usize {
        self.hidden
    }

    /// The naive reference implementation (kept for equivalence tests
    /// and the benchmark baseline).
    ///
    /// # Panics
    ///
    /// Panics if the input is not `[T, input]`.
    pub fn forward_reference(&self, x: &Tensor) -> Tensor {
        expect_rank(x, 2, "Lstm");
        assert_eq!(x.shape()[1], self.input, "input width mismatch");
        let t_steps = x.shape()[0];
        let h_dim = self.hidden;
        let mut h = vec![0.0f32; h_dim];
        let mut c = vec![0.0f32; h_dim];
        let mut out = Tensor::zeros(&[t_steps, h_dim]);
        let mut gates = vec![0.0f32; 4 * h_dim];
        for t in 0..t_steps {
            let xt = x.row(t);
            for (g, gate) in gates.iter_mut().enumerate() {
                let mut acc = self.bias[g];
                let wx_row = self.wx.row(g);
                for i in 0..self.input {
                    acc += wx_row[i] * xt[i];
                }
                let wh_row = self.wh.row(g);
                for j in 0..h_dim {
                    acc += wh_row[j] * h[j];
                }
                *gate = acc;
            }
            for j in 0..h_dim {
                let i_g = sigmoid(gates[j]);
                let f_g = sigmoid(gates[h_dim + j]);
                let g_g = tanh(gates[2 * h_dim + j]);
                let o_g = sigmoid(gates[3 * h_dim + j]);
                c[j] = bf16_round(f_g * c[j] + i_g * g_g);
                h[j] = bf16_round(o_g * tanh(c[j]));
                out.set(&[t, j], h[j]);
            }
        }
        out
    }

    /// The workspace [`Self::last_hidden_batch_packed`] takes over
    /// `steps`-step sequences, in elements per sample: each step's gate
    /// partials and the sample's cell, hidden and next hidden state.
    pub fn workspace(&self, steps: usize) -> usize {
        steps * 4 * self.hidden + 3 * self.hidden
    }

    /// Runs `batch` sequences of a sample-major `[batch, steps, input]`
    /// buffer with its packed weight panels, writing the final hidden
    /// states `[batch, hidden]` into `out`, working in `work` (at least
    /// `batch` times [`Self::workspace`]).
    ///
    /// Two calls. The input half `bias + W_x x_t`, for every step of every
    /// sample at once, is one [`gemm_packed`] sweep over the sequence rows,
    /// stored unrounded (`Store::Exact`). The recurrence is
    /// [`lstm_steps`]: per step and block of hidden units, the four gates
    /// are seeded from those partials, run `W_h h` and go straight into the
    /// cell in registers, `c = bf16(σ(f)·c + σ(i)·tanh(g))` and `h =
    /// bf16(σ(o)·tanh(c))`. Per sample the bias -> `W_x x_t` -> `W_h h`
    /// chain, every element's operations ([`crate::math`]'s scalar
    /// functions, lane by lane) and the BF16 rounding points are exactly
    /// those of [`Self::forward_reference`], so the result is `==` to its
    /// last row.
    ///
    /// # Panics
    ///
    /// Panics on buffer-length mismatches, or when `steps == 0` (no final
    /// hidden state exists).
    pub fn last_hidden_batch_packed(
        &self,
        x: &[f32],
        batch: usize,
        steps: usize,
        work: &mut [f32],
        out: &mut [f32],
    ) {
        let (input, h_dim) = (self.input, self.hidden);
        let n = 4 * h_dim;
        assert!(steps > 0, "batched LSTM needs at least one timestep");
        assert_eq!(x.len(), batch * steps * input, "batched LSTM input");
        // The partials and the state, each fully overwritten before it is
        // read.
        let rows = batch * steps;
        let (partials, state) = work.split_at_mut(rows * n);
        let state = &mut state[..3 * batch * h_dim];
        let input_half = Segment::packed(self.packed_wx.data(), input, x, input);
        gemm_packed(
            input_half,
            Some(&self.bias),
            rows,
            n,
            Store::Exact,
            partials,
            (n, 1),
        );
        lstm_steps(
            self.packed_wh.data(),
            partials,
            batch,
            steps,
            h_dim,
            state,
            out,
        );
    }
}

#[cfg(test)]
impl Lstm {
    /// MACs of a forward pass over `steps` timesteps.
    fn macs(&self, steps: u64) -> u64 {
        crate::ops::count::lstm_macs(steps, self.input as u64, self.hidden as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_are_correct() {
        let lstm = Lstm::new(8, 16, 0);
        let x = Tensor::random(&[5, 8], 1.0, 1);
        let y = lstm.forward_reference(&x);
        assert_eq!(y.shape(), &[5, 16]);
    }

    #[test]
    fn hidden_state_is_bounded() {
        // h = o * tanh(c): |h| <= 1 always.
        let lstm = Lstm::new(4, 8, 3);
        let x = Tensor::random(&[50, 4], 10.0, 4);
        let y = lstm.forward_reference(&x);
        assert!(y.data().iter().all(|v| v.abs() <= 1.0));
    }

    #[test]
    fn state_carries_information() {
        // Same final input, different prefixes -> different final hidden.
        let lstm = Lstm::new(2, 4, 5);
        let a = Tensor::from_vec(vec![1.0, 0.0, 0.5, 0.5], &[2, 2]);
        let b = Tensor::from_vec(vec![-1.0, 0.7, 0.5, 0.5], &[2, 2]);
        let (ya, yb) = (lstm.forward_reference(&a), lstm.forward_reference(&b));
        assert_ne!(ya.row(1), yb.row(1));
    }

    #[test]
    fn zero_input_zero_weights_stays_zero() {
        let mut lstm = Lstm::new(2, 2, 0);
        lstm.wx = Tensor::zeros(&[8, 2]);
        lstm.wh = Tensor::zeros(&[8, 2]);
        lstm.bias = vec![0.0; 8];
        let x = Tensor::zeros(&[3, 2]);
        let y = lstm.forward_reference(&x);
        // gates = 0 -> i = 0.5, g = 0 -> c stays 0 -> h stays 0.
        assert!(y.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn deterministic_per_seed() {
        let x = Tensor::random(&[5, 4], 1.0, 9);
        let a = Lstm::new(4, 8, 7).forward_reference(&x);
        let b = Lstm::new(4, 8, 7).forward_reference(&x);
        assert_eq!(a, b);
    }

    #[test]
    fn macs_match_formula() {
        let lstm = Lstm::new(32, 64, 0);
        assert_eq!(lstm.macs(10), 10 * 4 * (32 * 64 + 64 * 64));
    }

    #[test]
    #[should_panic(expected = "input width mismatch")]
    fn wrong_width_panics() {
        let lstm = Lstm::new(4, 8, 0);
        let _ = lstm.forward_reference(&Tensor::zeros(&[5, 3]));
    }
}
