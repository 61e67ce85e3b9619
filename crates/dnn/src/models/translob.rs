//! The TransLOB benchmark (CNN front-end + transformer encoder).
//!
//! Five temporal convolutions lift the `[T, 40]` feature map to `C`
//! channels, a dense projection maps into the `d_model` token space,
//! sinusoidal positional encodings are added, and a stack of pre-norm
//! transformer layers (self-attention + feed-forward, both residual)
//! precedes mean pooling and the three-way softmax head.

use crate::batch::PackedWeights;
use crate::kernels::Store;
use crate::model::{Model, ModelKind, Prediction};
use crate::ops::activation::{relu, softmax_last_dim};
use crate::ops::count::{attention_macs, conv2d_macs, ffn_macs, linear_macs, macs_to_ops};
use crate::ops::{Conv2d, LayerNorm, Linear, MultiHeadAttention};
use crate::scratch::ScratchPad;
use crate::tensor::Tensor;

/// Dimensions of a TransLOB instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransLobSpec {
    /// Tick-window length `T`.
    pub window: usize,
    /// Features per tick.
    pub features: usize,
    /// Channel width of the five-layer convolutional front-end.
    pub conv_channels: usize,
    /// Transformer model width.
    pub d_model: usize,
    /// Attention heads (must divide `d_model`).
    pub heads: usize,
    /// Number of transformer layers.
    pub layers: usize,
}

/// Temporal kernel size of the convolution stack ("same" padded).
const CONV_K: usize = 3;
/// Number of convolution layers in the front-end.
const CONV_LAYERS: usize = 5;
/// Feed-forward expansion factor.
const FFN_MULT: usize = 4;

impl TransLobSpec {
    /// The paper-scale spec: [`Self::ops`] reproduces Table II's 203.9 G
    /// OPs within 0.1%.
    pub fn paper() -> Self {
        TransLobSpec {
            window: 100,
            features: 40,
            conv_channels: 512,
            d_model: 6_488,
            heads: 8,
            layers: 2,
        }
    }

    /// A tiny runnable spec.
    pub fn tiny() -> Self {
        TransLobSpec {
            window: 16,
            features: 40,
            conv_channels: 8,
            d_model: 16,
            heads: 2,
            layers: 2,
        }
    }

    /// Analytic MACs of one forward pass.
    pub fn macs(&self) -> u64 {
        let t = self.window as u64;
        let f = self.features as u64;
        let c = self.conv_channels as u64;
        let d = self.d_model as u64;
        let conv1 = conv2d_macs(c, f, CONV_K as u64, 1, t, 1);
        let conv_rest = (CONV_LAYERS as u64 - 1) * conv2d_macs(c, c, CONV_K as u64, 1, t, 1);
        let proj = linear_macs(t, c, d);
        let per_layer = attention_macs(t, d) + ffn_macs(t, d, FFN_MULT as u64 * d);
        let head = linear_macs(1, d, 3);
        conv1 + conv_rest + proj + self.layers as u64 * per_layer + head
    }

    /// Analytic OPs (2 per MAC).
    pub fn ops(&self) -> u64 {
        macs_to_ops(self.macs())
    }

    /// Instantiates the network with deterministic weights.
    ///
    /// Use only with small specs; see [`CnnSpec::build`](super::CnnSpec::build).
    pub fn build(self, seed: u64) -> TransLob {
        let mut convs = Vec::with_capacity(CONV_LAYERS);
        for i in 0..CONV_LAYERS {
            let in_c = if i == 0 {
                self.features
            } else {
                self.conv_channels
            };
            convs.push(Conv2d::new(
                in_c,
                self.conv_channels,
                (CONV_K, 1),
                (1, 1),
                (1, 0),
                seed.wrapping_add(i as u64),
            ));
        }
        let mut blocks = Vec::with_capacity(self.layers);
        for l in 0..self.layers {
            let base = seed.wrapping_add(100 + 10 * l as u64);
            blocks.push(TransformerBlock {
                ln1: LayerNorm::new(self.d_model),
                attn: MultiHeadAttention::new(self.d_model, self.heads, base),
                ln2: LayerNorm::new(self.d_model),
                ffn1: Linear::new(self.d_model, FFN_MULT * self.d_model, base + 4),
                ffn2: Linear::new(FFN_MULT * self.d_model, self.d_model, base + 5),
            });
        }
        TransLob {
            proj: Linear::new(self.conv_channels, self.d_model, seed.wrapping_add(50)),
            head: Linear::new(self.d_model, 3, seed.wrapping_add(51)),
            pos: positional_encoding(self.window, self.d_model),
            convs,
            blocks,
            spec: self,
        }
    }
}

/// One pre-norm transformer layer.
#[derive(Debug, Clone)]
struct TransformerBlock {
    ln1: LayerNorm,
    attn: MultiHeadAttention,
    ln2: LayerNorm,
    ffn1: Linear,
    ffn2: Linear,
}

impl TransformerBlock {
    /// The naive reference path (clones for the residual; naive sublayers).
    fn forward_reference(&self, x: &Tensor) -> Tensor {
        // x = x + attn(ln1(x))
        let a = self.attn.forward_reference(&self.ln1.forward_reference(x));
        let mut x1 = x.clone();
        for (v, add) in x1.data_mut().iter_mut().zip(a.data()) {
            *v += add;
        }
        // x = x + ffn(ln2(x))
        let mut h = self
            .ffn1
            .forward_reference(&self.ln2.forward_reference(&x1));
        relu(&mut h);
        let f = self.ffn2.forward_reference(&h);
        for (v, add) in x1.data_mut().iter_mut().zip(f.data()) {
            *v += add;
        }
        x1
    }
}

/// Packed operands one block pushes in [`TransformerBlock::pack_into`].
const BLOCK_PANELS: usize = 6;

impl TransformerBlock {
    /// Pushes `wq, wk, wv, wo, ffn1, ffn2`, in that order.
    fn pack_into(&self, pw: &mut PackedWeights) {
        for panels in self.attn.pack() {
            pw.push(panels);
        }
        pw.push(self.ffn1.pack());
        pw.push(self.ffn2.pack());
    }

    /// The batched block over a flat `[batch * t, d]` token buffer,
    /// updated in place; `base` is the index of the block's first packed
    /// operand. Every sublayer sweeps all `batch * t` rows at once (the
    /// attention core per sample and head); per sample `==` to
    /// [`Self::forward_reference`].
    fn forward_batch_packed(
        &self,
        tokens: &mut [f32],
        batch: usize,
        t: usize,
        packed: &PackedWeights,
        base: usize,
        pad: &mut ScratchPad,
    ) {
        let rows = batch * t;
        // x = x + attn(ln1(x))
        let mut norm = pad.take_dirty(tokens.len());
        self.ln1.forward_rows(tokens, &mut norm);
        let mut delta = pad.take_dirty(tokens.len());
        let attn_panels = std::array::from_fn(|i| packed.panel(base + i));
        self.attn
            .forward_batch_packed(&norm, batch, t, attn_panels, pad, &mut delta);
        for (v, add) in tokens.iter_mut().zip(&delta) {
            *v += add;
        }
        // x = x + ffn(ln2(x))
        self.ln2.forward_rows(tokens, &mut norm);
        let mut hidden = pad.take_dirty(rows * self.ffn1.output_dim());
        self.ffn1.forward_batch_packed(
            &norm,
            rows,
            packed.panel(base + 4),
            Store::Relu,
            &mut hidden,
        );
        pad.give(norm);
        self.ffn2.forward_batch_packed(
            &hidden,
            rows,
            packed.panel(base + 5),
            Store::Bf16,
            &mut delta,
        );
        pad.give(hidden);
        for (v, add) in tokens.iter_mut().zip(&delta) {
            *v += add;
        }
        pad.give(delta);
    }
}

/// Standard sinusoidal positional encoding, `[T, D]`.
fn positional_encoding(t: usize, d: usize) -> Tensor {
    let mut pe = Tensor::zeros(&[t, d]);
    for pos in 0..t {
        for i in 0..d {
            let angle = pos as f64 / 10_000f64.powf((2 * (i / 2)) as f64 / d as f64);
            let v = if i % 2 == 0 { angle.sin() } else { angle.cos() };
            pe.set(&[pos, i], v as f32);
        }
    }
    pe
}

/// An instantiated TransLOB network.
#[derive(Debug, Clone)]
pub struct TransLob {
    spec: TransLobSpec,
    convs: Vec<Conv2d>,
    proj: Linear,
    pos: Tensor,
    blocks: Vec<TransformerBlock>,
    head: Linear,
}

impl TransLob {
    /// The spec this instance was built from.
    pub fn spec(&self) -> TransLobSpec {
        self.spec
    }

    /// The naive reference forward pass, built entirely from the layers'
    /// `forward_reference` paths (kept for equivalence tests and the
    /// benchmark baseline); [`Model::forward_batch_scratch`] is `==` to it.
    pub fn forward_reference(&self, input: &Tensor) -> Prediction {
        let (t, f) = (self.spec.window, self.spec.features);
        assert_eq!(input.shape(), [t, f], "input must be [window, features]");
        // To channels-first [F, T, 1] for the convolution stack.
        let mut x = Tensor::zeros(&[f, t, 1]);
        for ti in 0..t {
            for fi in 0..f {
                x.set(&[fi, ti, 0], input.at(&[ti, fi]));
            }
        }
        for conv in &self.convs {
            x = conv.forward_reference(&x);
            relu(&mut x);
        }
        // Back to sequence-major [T, C].
        let c = self.spec.conv_channels;
        let mut seq = Tensor::zeros(&[t, c]);
        for ti in 0..t {
            for ci in 0..c {
                seq.set(&[ti, ci], x.at(&[ci, ti, 0]));
            }
        }
        let mut tokens = self.proj.forward_reference(&seq);
        for (v, p) in tokens.data_mut().iter_mut().zip(self.pos.data()) {
            *v += p;
        }
        for block in &self.blocks {
            tokens = block.forward_reference(&tokens);
        }
        // Mean pool over time.
        let d = self.spec.d_model;
        let mut pooled = vec![0.0f32; d];
        for ti in 0..t {
            for (acc, v) in pooled.iter_mut().zip(tokens.row(ti)) {
                *acc += v / t as f32;
            }
        }
        let mut logits = self.head.forward_reference(&Tensor::from_vec(pooled, &[d]));
        softmax_last_dim(&mut logits);
        let out = logits.data();
        Prediction::new([out[0], out[1], out[2]])
    }
}

impl Model for TransLob {
    fn kind(&self) -> ModelKind {
        ModelKind::TransLob
    }

    fn window(&self) -> usize {
        self.spec.window
    }

    fn features(&self) -> usize {
        self.spec.features
    }

    /// Panel order: the five front-end convolutions, `proj`, then each
    /// transformer block's [`BLOCK_PANELS`] operands. The three-class
    /// `head` runs unpacked ([`Linear::softmax_head`]).
    fn pack_weights(&self) -> PackedWeights {
        let mut pw = PackedWeights::new(self.kind());
        for conv in &self.convs {
            pw.push(conv.pack());
        }
        pw.push(self.proj.pack());
        for block in &self.blocks {
            block.pack_into(&mut pw);
        }
        pw
    }

    fn forward_batch_scratch(
        &self,
        inputs: &[Tensor],
        packed: &PackedWeights,
        pad: &mut ScratchPad,
        out: &mut Vec<Prediction>,
    ) {
        out.clear();
        let batch = inputs.len();
        if batch == 0 {
            return;
        }
        let (t, f) = (self.spec.window, self.spec.features);
        let c = self.spec.conv_channels;
        let d = self.spec.d_model;
        // Stage every sample channels-first [F, T, 1] (fully overwritten,
        // so skip the zero fill): the input is [T, F] row-major, so
        // feature `fi` at tick `ti` moves from `ti * f + fi` to
        // `fi * t + ti`.
        let mut cur = pad.take_dirty(batch * f * t);
        for (s, input) in inputs.iter().enumerate() {
            assert_eq!(input.shape(), [t, f], "input must be [window, features]");
            let sample = &mut cur[s * f * t..(s + 1) * f * t];
            let id = input.data();
            for ti in 0..t {
                for fi in 0..f {
                    sample[fi * t + ti] = id[ti * f + fi];
                }
            }
        }
        // Same-padded convolution stack: shape stays [C, T, 1].
        for (idx, conv) in self.convs.iter().enumerate() {
            let mut nxt = pad.take_dirty(batch * c * t);
            let panel = packed.panel(idx);
            conv.forward_batch_packed(&cur, batch, t, 1, panel, pad, Store::Relu, &mut nxt);
            pad.give(cur);
            cur = nxt;
        }
        // Back to sequence-major [T, C] per sample.
        let mut seq = pad.take_dirty(batch * t * c);
        for s in 0..batch {
            let (sd, xd) = (
                &mut seq[s * t * c..(s + 1) * t * c],
                &cur[s * c * t..(s + 1) * c * t],
            );
            for ti in 0..t {
                for ci in 0..c {
                    sd[ti * c + ci] = xd[ci * t + ti];
                }
            }
        }
        pad.give(cur);
        // Project every token of every sample in one row-wise sweep.
        let mut tokens = pad.take_dirty(batch * t * d);
        self.proj.forward_batch_packed(
            &seq,
            batch * t,
            packed.panel(CONV_LAYERS),
            Store::Bf16,
            &mut tokens,
        );
        pad.give(seq);
        for sample in tokens.chunks_exact_mut(t * d) {
            for (v, p) in sample.iter_mut().zip(self.pos.data()) {
                *v += p;
            }
        }
        for (l, block) in self.blocks.iter().enumerate() {
            let base = CONV_LAYERS + 1 + l * BLOCK_PANELS;
            block.forward_batch_packed(&mut tokens, batch, t, packed, base, pad);
        }
        // Mean pool over time. `take` (not `take_dirty`): the pooled
        // accumulator must start at zero, matching the reference path's
        // `vec![0.0; d]`.
        let mut pooled = pad.take(batch * d);
        for (acc, sample) in pooled.chunks_exact_mut(d).zip(tokens.chunks_exact(t * d)) {
            for row in sample.chunks_exact(d) {
                for (a, v) in acc.iter_mut().zip(row) {
                    *a += v / t as f32;
                }
            }
        }
        pad.give(tokens);
        self.head.softmax_head(&pooled, batch, out);
        pad.give(pooled);
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
        let ops = TransLobSpec::paper().ops() as f64;
        assert!(
            (ops - 203.9e9).abs() / 203.9e9 < 0.001,
            "paper TransLOB ops = {ops:.4e}"
        );
        // Heads must divide d_model or build() would panic later.
        assert_eq!(
            TransLobSpec::paper().d_model % TransLobSpec::paper().heads,
            0
        );
    }

    #[test]
    fn forward_produces_distribution() {
        let mut reg = ModelRegistry::tiny_with_kinds(&[ModelKind::TransLob], 1);
        let x = Tensor::random(&[16, 40], 1.0, 2);
        let p = reg.forward(ModelKind::TransLob, &x);
        assert!((p.probs.iter().sum::<f32>() - 1.0).abs() < 1e-4);
    }

    #[test]
    fn positional_encoding_breaks_permutation_symmetry() {
        // Same token content in different positions must produce different
        // predictions thanks to the positional encoding.
        let mut reg = ModelRegistry::tiny_with_kinds(&[ModelKind::TransLob], 3);
        let base = Tensor::random(&[16, 40], 1.0, 5);
        // Reverse the window.
        let mut rev = Tensor::zeros(&[16, 40]);
        for t in 0..16 {
            for f in 0..40 {
                rev.set(&[t, f], base.at(&[15 - t, f]));
            }
        }
        let forward = reg.forward(ModelKind::TransLob, &base);
        assert_ne!(forward.probs, reg.forward(ModelKind::TransLob, &rev).probs);
    }

    #[test]
    fn spec_macs_consistent_with_layer_counts() {
        let spec = TransLobSpec::tiny();
        let model = spec.build(0);
        let t = spec.window;
        let mut layered: u64 = model.convs.iter().map(|c| c.macs(t, 1)).sum();
        layered += model.proj.macs(t as u64);
        for b in &model.blocks {
            layered += b.attn.macs(t as u64);
            layered += b.ffn1.macs(t as u64) + b.ffn2.macs(t as u64);
        }
        layered += model.head.macs(1);
        assert_eq!(spec.macs(), layered);
    }

    #[test]
    fn positional_encoding_values_bounded() {
        let pe = positional_encoding(10, 8);
        assert!(pe.data().iter().all(|v| v.abs() <= 1.0));
        // Row 0: sin(0)=0, cos(0)=1 alternating.
        assert_eq!(pe.at(&[0, 0]), 0.0);
        assert_eq!(pe.at(&[0, 1]), 1.0);
    }
}
