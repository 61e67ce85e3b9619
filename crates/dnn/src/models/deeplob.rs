//! The DeepLOB benchmark (convolutional blocks + inception + LSTM).
//!
//! Three convolutional blocks progressively fold the 40-wide level axis
//! (40 → 20 → 10 → 1) while temporal convolutions extract short-term
//! structure; an inception module mixes receptive fields; an LSTM
//! integrates the sequence; a dense softmax head classifies the move —
//! the architecture of Zhang et al. that the paper benchmarks at
//! 515.4 G OPs.

use crate::batch::PackedWeights;
use crate::kernels::Store;
use crate::model::{Model, ModelKind, Prediction};
use crate::ops::activation::{leaky_relu, softmax_last_dim};
use crate::ops::count::{conv2d_macs, linear_macs, lstm_macs, macs_to_ops};
use crate::ops::{Conv2d, Linear, Lstm};
use crate::scratch::ScratchPad;
use crate::stream::{advance_trunk, trunk_lines, LineBuffer};
use crate::tensor::Tensor;

/// Dimensions of a DeepLOB instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeepLobSpec {
    /// Tick-window length `T`.
    pub window: usize,
    /// Features per tick; the level-folding convolutions require 40.
    pub features: usize,
    /// Channel width of the convolutional trunk.
    pub channels: usize,
    /// LSTM hidden width.
    pub lstm_hidden: usize,
}

/// Temporal kernel height of the in-block convolutions.
const KERNEL_T: usize = 4;
/// LeakyReLU slope used throughout (as in the DeepLOB paper).
const LEAK: f32 = 0.01;
/// Every convolution's store: its leaky ReLU of the BF16-rounded sum.
const ACT: Store = Store::LeakyRelu(LEAK);
/// Temporal shrinkage across the whole trunk: six valid k=4 convolutions.
const TRUNK_SHRINK: usize = 6 * (KERNEL_T - 1);

impl DeepLobSpec {
    /// The paper-scale spec: [`Self::ops`] reproduces Table II's 515.4 G
    /// OPs within 0.1%.
    pub fn paper() -> Self {
        DeepLobSpec {
            window: 100,
            features: 40,
            channels: 2_900,
            lstm_hidden: 6_520,
        }
    }

    /// A tiny runnable spec.
    pub fn tiny() -> Self {
        DeepLobSpec {
            window: 24,
            features: 40,
            channels: 4,
            lstm_hidden: 8,
        }
    }

    /// Sequence length reaching the LSTM.
    fn lstm_steps(&self) -> usize {
        self.window - TRUNK_SHRINK
    }

    /// Analytic MACs of one forward pass.
    pub fn macs(&self) -> u64 {
        let t = self.window as u64;
        let c = self.channels as u64;
        let h = self.lstm_hidden as u64;
        let k = KERNEL_T as u64;
        // Block 1: level fold 40 -> 20, then two temporal convolutions.
        let b1a = conv2d_macs(c, 1, 1, 2, t, 20);
        let b1b = conv2d_macs(c, c, k, 1, t - 3, 20);
        let b1c = conv2d_macs(c, c, k, 1, t - 6, 20);
        // Block 2: fold 20 -> 10.
        let b2a = conv2d_macs(c, c, 1, 2, t - 6, 10);
        let b2b = conv2d_macs(c, c, k, 1, t - 9, 10);
        let b2c = conv2d_macs(c, c, k, 1, t - 12, 10);
        // Block 3: fold 10 -> 1.
        let b3a = conv2d_macs(c, c, 1, 10, t - 12, 1);
        let b3b = conv2d_macs(c, c, k, 1, t - 15, 1);
        let b3c = conv2d_macs(c, c, k, 1, t - 18, 1);
        // Inception: 1x1, 1x1+3x1(same), 1x1+5x1(same) branches.
        let steps = self.lstm_steps() as u64;
        let inception = conv2d_macs(c, c, 1, 1, steps, 1)
            + conv2d_macs(c, c, 1, 1, steps, 1)
            + conv2d_macs(c, c, 3, 1, steps, 1)
            + conv2d_macs(c, c, 1, 1, steps, 1)
            + conv2d_macs(c, c, 5, 1, steps, 1);
        let lstm = lstm_macs(steps, 3 * c, h);
        let fc = linear_macs(1, h, 3);
        b1a + b1b + b1c + b2a + b2b + b2c + b3a + b3b + b3c + inception + lstm + fc
    }

    /// Analytic OPs (2 per MAC).
    pub fn ops(&self) -> u64 {
        macs_to_ops(self.macs())
    }

    /// Instantiates the network with deterministic weights.
    ///
    /// Use only with small specs; see [`CnnSpec::build`](super::CnnSpec::build).
    ///
    /// # Panics
    ///
    /// Panics if `features != 40` or the window is too short for the
    /// trunk's six temporal convolutions.
    pub fn build(self, seed: u64) -> DeepLob {
        assert_eq!(
            self.features, 40,
            "DeepLOB's level-folding trunk requires 40 features"
        );
        assert!(
            self.window > TRUNK_SHRINK,
            "window {} too short: trunk consumes {TRUNK_SHRINK} ticks",
            self.window
        );
        let c = self.channels;
        let conv = |in_c, out_c, kh, kw, sw, pad, s| {
            Conv2d::new(in_c, out_c, (kh, kw), (1, sw), pad, seed.wrapping_add(s))
        };
        DeepLob {
            b1a: conv(1, c, 1, 2, 2, (0, 0), 0),
            b1b: conv(c, c, KERNEL_T, 1, 1, (0, 0), 1),
            b1c: conv(c, c, KERNEL_T, 1, 1, (0, 0), 2),
            b2a: conv(c, c, 1, 2, 2, (0, 0), 3),
            b2b: conv(c, c, KERNEL_T, 1, 1, (0, 0), 4),
            b2c: conv(c, c, KERNEL_T, 1, 1, (0, 0), 5),
            b3a: conv(c, c, 1, 10, 1, (0, 0), 6),
            b3b: conv(c, c, KERNEL_T, 1, 1, (0, 0), 7),
            b3c: conv(c, c, KERNEL_T, 1, 1, (0, 0), 8),
            inc_1x1: Conv2d::stacked(&[
                conv(c, c, 1, 1, 1, (0, 0), 9),
                conv(c, c, 1, 1, 1, (0, 0), 10),
                conv(c, c, 1, 1, 1, (0, 0), 12),
            ]),
            inc2b: conv(c, c, 3, 1, 1, (1, 0), 11),
            inc3b: conv(c, c, 5, 1, 1, (2, 0), 13),
            lstm: Lstm::new(3 * c, self.lstm_hidden, seed.wrapping_add(14)),
            fc: Linear::new(self.lstm_hidden, 3, seed.wrapping_add(15)),
            spec: self,
        }
    }
}

/// An instantiated DeepLOB network.
#[derive(Debug, Clone)]
pub struct DeepLob {
    spec: DeepLobSpec,
    b1a: Conv2d,
    b1b: Conv2d,
    b1c: Conv2d,
    b2a: Conv2d,
    b2b: Conv2d,
    b2c: Conv2d,
    b3a: Conv2d,
    b3b: Conv2d,
    b3c: Conv2d,
    /// The inception's three 1x1 convolutions (its first branch, and the
    /// second's and third's first layers), stacked into one of `3 * C`
    /// output channels in that order.
    inc_1x1: Conv2d,
    inc2b: Conv2d,
    inc3b: Conv2d,
    lstm: Lstm,
    fc: Linear,
}

impl DeepLob {
    /// The spec this instance was built from.
    pub fn spec(&self) -> DeepLobSpec {
        self.spec
    }

    /// The nine valid-padded trunk convolutions, in order (panels 0..9).
    fn trunk(&self) -> [&Conv2d; 9] {
        [
            &self.b1a, &self.b1b, &self.b1c, &self.b2a, &self.b2b, &self.b2c, &self.b3a, &self.b3b,
            &self.b3c,
        ]
    }

    fn conv_act_reference(conv: &Conv2d, x: &Tensor) -> Tensor {
        let mut y = conv.forward_reference(x);
        leaky_relu(&mut y, LEAK);
        y
    }

    /// The naive reference forward pass, built entirely from the layers'
    /// `forward_reference` paths (kept for equivalence tests and the
    /// benchmark baseline); [`Model::forward_batch_scratch`] is `==` to it.
    pub fn forward_reference(&self, input: &Tensor) -> Prediction {
        let (t, f) = (self.spec.window, self.spec.features);
        assert_eq!(input.shape(), [t, f], "input must be [window, features]");
        let x = input.clone().reshape(&[1, t, f]);
        let x = Self::conv_act_reference(&self.b1a, &x);
        let x = Self::conv_act_reference(&self.b1b, &x);
        let x = Self::conv_act_reference(&self.b1c, &x);
        let x = Self::conv_act_reference(&self.b2a, &x);
        let x = Self::conv_act_reference(&self.b2b, &x);
        let x = Self::conv_act_reference(&self.b2c, &x);
        let x = Self::conv_act_reference(&self.b3a, &x);
        let x = Self::conv_act_reference(&self.b3b, &x);
        let x = Self::conv_act_reference(&self.b3c, &x);
        // Inception over [C, steps, 1]: the stacked 1x1 convolutions' three
        // thirds are the first branch and the other two's inputs.
        let c = self.spec.channels;
        let steps = self.spec.lstm_steps();
        let ones = Self::conv_act_reference(&self.inc_1x1, &x);
        let third = |i: usize| {
            let part = ones.data()[i * c * steps..][..c * steps].to_vec();
            Tensor::from_vec(part, &[c, steps, 1])
        };
        let br1 = third(0);
        let br2 = Self::conv_act_reference(&self.inc2b, &third(1));
        let br3 = Self::conv_act_reference(&self.inc3b, &third(2));
        // Concatenate channels and flip to sequence-major [steps, 3C].
        let mut seq = Tensor::zeros(&[steps, 3 * c]);
        for s in 0..steps {
            for ch in 0..c {
                seq.set(&[s, ch], br1.at(&[ch, s, 0]));
                seq.set(&[s, c + ch], br2.at(&[ch, s, 0]));
                seq.set(&[s, 2 * c + ch], br3.at(&[ch, s, 0]));
            }
        }
        let all = self.lstm.forward_reference(&seq);
        let last = all.shape()[0] - 1;
        let hidden = Tensor::from_vec(all.row(last).to_vec(), &[self.lstm.hidden_dim()]);
        let mut logits = self.fc.forward_reference(&hidden);
        softmax_last_dim(&mut logits);
        let out = logits.data();
        Prediction::new([out[0], out[1], out[2]])
    }

    /// The whole-window packed forward behind both
    /// [`Model::forward_batch_scratch`] (`lines` = `None`) and a streamed
    /// miss, which passes its one input's `lines` to be refilled from the
    /// trunk activations on the way.
    fn forward_windows(
        &self,
        inputs: &[Tensor],
        mut lines: Option<&mut [LineBuffer]>,
        packed: &PackedWeights,
        pad: &mut ScratchPad,
        out: &mut Vec<Prediction>,
    ) {
        out.clear();
        let batch = inputs.len();
        if batch == 0 {
            return;
        }
        debug_assert!(lines.is_none() || batch == 1, "lines follow one stream");
        let (t, f) = (self.spec.window, self.spec.features);
        let c = self.spec.channels;
        // Every buffer below is fully overwritten before it is read, so
        // all of them skip the pool's zero fill.
        let mut cur = pad.take_dirty(batch * t * f);
        for (s, input) in inputs.iter().enumerate() {
            assert_eq!(input.shape(), [t, f], "input must be [window, features]");
            cur[s * t * f..(s + 1) * t * f].copy_from_slice(input.data());
        }
        // Trunk: nine convolutions over the shrinking [h, w] map.
        let (mut h, mut w) = (t, f);
        for (idx, conv) in self.trunk().into_iter().enumerate() {
            if let Some(lines) = lines.as_deref_mut() {
                lines[idx].prime(&cur, h);
            }
            let (oh, ow) = conv.output_hw(h, w);
            let mut nxt = pad.take_dirty(batch * c * oh * ow);
            let panel = packed.panel(idx);
            conv.forward_batch_packed(&cur, batch, h, w, panel, pad, ACT, &mut nxt);
            pad.give(cur);
            cur = nxt;
            (h, w) = (oh, ow);
        }
        debug_assert_eq!((h, w), (self.spec.lstm_steps(), 1));
        if let Some(lines) = lines {
            lines[9].prime(&cur, h);
        }
        self.tail(&cur, batch, packed, pad, out);
        pad.give(cur);
    }

    /// Everything after the trunk — inception, LSTM, dense head, softmax —
    /// over the trunk's `[batch, C, steps]` output, pushing one
    /// prediction per sample.
    ///
    /// The inception's three 1x1 convolutions are one call, `[batch, 3C,
    /// steps]`: its first third is the first branch, and the same-padded
    /// 3x1 and 5x1 convolutions read the other two, sample by sample.
    fn tail(
        &self,
        trunk_out: &[f32],
        batch: usize,
        packed: &PackedWeights,
        pad: &mut ScratchPad,
        out: &mut Vec<Prediction>,
    ) {
        let (c, steps) = (self.spec.channels, self.spec.lstm_steps());
        let third = c * steps;
        // One draw from the pad, cut into every buffer below; each is fully
        // overwritten before it is read.
        let sizes = [
            batch * 3 * third,
            batch * 2 * third,
            self.inc3b.stage_len(),
            batch * steps * 3 * c,
            batch * self.lstm.hidden_dim(),
        ];
        let mut work = pad.take_dirty(sizes.iter().sum());
        let (ones, rest) = work.split_at_mut(sizes[0]);
        let (later, rest) = rest.split_at_mut(sizes[1]);
        let (stage, rest) = rest.split_at_mut(sizes[2]);
        let (seq, hidden) = rest.split_at_mut(sizes[3]);
        let panel = packed.panel(9);
        let inc = &self.inc_1x1;
        inc.forward_batch_packed(trunk_out, batch, steps, 1, panel, pad, ACT, ones);
        let (b2, b3) = (self.inc2b.direct(steps, 1), self.inc3b.direct(steps, 1));
        let stage2 = self.inc2b.stage_len();
        for (src, dst) in ones
            .chunks_exact(3 * third)
            .zip(later.chunks_exact_mut(2 * third))
        {
            let (br2, br3) = dst.split_at_mut(third);
            let (mid2, mid3) = (&src[third..2 * third], &src[2 * third..]);
            self.inc2b
                .forward_direct(b2, mid2, &mut stage[..stage2], ACT, br2);
            self.inc3b.forward_direct(b3, mid3, stage, ACT, br3);
        }
        // Concatenate the branches' channels and flip to sequence-major
        // `[steps, 3C]` per sample: channel `ch` at step `st` lives at
        // `ch * steps + st` of its branch's `[C, steps]` map.
        let branches = ones
            .chunks_exact(3 * third)
            .zip(later.chunks_exact(2 * third));
        for (sample, (first, rest)) in seq.chunks_exact_mut(steps * 3 * c).zip(branches) {
            for (st, row) in sample.chunks_exact_mut(3 * c).enumerate() {
                let (br1, rest_row) = row.split_at_mut(c);
                for (ch, v) in br1.iter_mut().enumerate() {
                    *v = first[ch * steps + st];
                }
                for (ch, v) in rest_row.iter_mut().enumerate() {
                    *v = rest[ch * steps + st];
                }
            }
        }
        let (wx, wh) = (packed.panel(10), packed.panel(11));
        self.lstm
            .last_hidden_batch_packed(seq, batch, steps, wx, wh, pad, hidden);
        self.fc.softmax_head(hidden, batch, out);
        pad.give(work);
    }
}

impl Model for DeepLob {
    fn kind(&self) -> ModelKind {
        ModelKind::DeepLob
    }

    fn window(&self) -> usize {
        self.spec.window
    }

    fn features(&self) -> usize {
        self.spec.features
    }

    /// Panel order: the nine trunk convolutions, the inception's stacked
    /// 1x1 convolutions, `lstm.wx`, `lstm.wh`. The same-padded branches
    /// (direct convolutions) and the head read their weights unpacked.
    fn pack_weights(&self) -> PackedWeights {
        let mut pw = PackedWeights::new(self.kind());
        for conv in self.trunk().into_iter().chain([&self.inc_1x1]) {
            pw.push(conv.pack());
        }
        pw.push(self.lstm.pack_wx());
        pw.push(self.lstm.pack_wh());
        pw
    }

    fn forward_batch_scratch(
        &self,
        inputs: &[Tensor],
        packed: &PackedWeights,
        pad: &mut ScratchPad,
        out: &mut Vec<Prediction>,
    ) {
        self.forward_windows(inputs, None, packed, pad, out);
    }

    /// Every trunk convolution's input rows, then the `[C, steps]` trunk
    /// output the inception reads.
    fn stream_lines(&self) -> Vec<LineBuffer> {
        trunk_lines(self.trunk(), self.spec.features, self.spec.lstm_steps())
    }

    fn forward_stream(
        &self,
        whole: Option<&Tensor>,
        rows: &[f32],
        lines: &mut [LineBuffer],
        packed: &PackedWeights,
        pad: &mut ScratchPad,
        out: &mut Vec<Prediction>,
    ) {
        out.clear();
        if let Some(window) = whole {
            let inputs = std::slice::from_ref(window);
            self.forward_windows(inputs, Some(&mut *lines), packed, pad, out);
        }
        if !rows.is_empty() {
            let tail = |trunk_out: &[f32], k: usize, pad: &mut ScratchPad| {
                self.tail(trunk_out, k, packed, pad, out)
            };
            advance_trunk(lines, self.trunk(), ACT, rows, packed, pad, tail);
        }
    }

    fn total_macs(&self) -> u64 {
        self.spec.macs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::ModelRegistry;

    #[test]
    fn paper_spec_hits_table2() {
        let ops = DeepLobSpec::paper().ops() as f64;
        assert!(
            (ops - 515.4e9).abs() / 515.4e9 < 0.001,
            "paper DeepLOB ops = {ops:.4e}"
        );
    }

    #[test]
    fn forward_produces_distribution() {
        let mut reg = ModelRegistry::tiny_with_kinds(&[ModelKind::DeepLob], 1);
        let x = Tensor::random(&[24, 40], 1.0, 2);
        let p = reg.forward(ModelKind::DeepLob, &x);
        assert!((p.probs.iter().sum::<f32>() - 1.0).abs() < 1e-4);
    }

    #[test]
    fn spec_macs_consistent_with_layer_counts() {
        let spec = DeepLobSpec::tiny();
        let m = spec.build(0);
        let t = spec.window;
        let layered = m.b1a.macs(t, 40)
            + m.b1b.macs(t, 20)
            + m.b1c.macs(t - 3, 20)
            + m.b2a.macs(t - 6, 20)
            + m.b2b.macs(t - 6, 10)
            + m.b2c.macs(t - 9, 10)
            + m.b3a.macs(t - 12, 10)
            + m.b3b.macs(t - 12, 1)
            + m.b3c.macs(t - 15, 1)
            + m.inc_1x1.macs(t - 18, 1)
            + m.inc2b.macs(t - 18, 1)
            + m.inc3b.macs(t - 18, 1)
            + m.lstm.macs(spec.lstm_steps() as u64)
            + m.fc.macs(1);
        assert_eq!(spec.macs(), layered);
    }

    #[test]
    fn lstm_steps_geometry() {
        assert_eq!(DeepLobSpec::paper().lstm_steps(), 82);
        assert_eq!(DeepLobSpec::tiny().lstm_steps(), 6);
    }

    #[test]
    fn sensitive_to_recent_ticks() {
        // Perturbing the last tick of the window changes the prediction —
        // the LSTM must propagate late information.
        let mut reg = ModelRegistry::tiny_with_kinds(&[ModelKind::DeepLob], 5);
        let base = Tensor::random(&[24, 40], 1.0, 9);
        let mut bumped = base.clone();
        for fcol in 0..40 {
            bumped.set(&[23, fcol], base.at(&[23, fcol]) + 3.0);
        }
        let before = reg.forward(ModelKind::DeepLob, &base);
        assert_ne!(before.probs, reg.forward(ModelKind::DeepLob, &bumped).probs);
    }

    #[test]
    #[should_panic(expected = "40 features")]
    fn wrong_feature_count_panics() {
        let spec = DeepLobSpec {
            features: 20,
            ..DeepLobSpec::tiny()
        };
        let _ = spec.build(0);
    }
}
