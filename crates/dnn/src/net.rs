//! One network type for every benchmark model: a list of layers, lowered
//! once, run by one executor.
//!
//! A model is a *spec* (`crate::models`): dimensions, and a weightless
//! `LayerSpec` list that carries each layer's seed offset. The list is
//! all a spec knows. Pricing it (`macs`) walks its shapes and needs no
//! weights, so paper-scale networks are priced without being built.
//! Building it (`Net::new`) draws each layer's weights, which each op
//! packs into its own register panels as it is made, and *lowers* the
//! list: every layer's input and output shape, the workspace the layers
//! from it on need, and the *streamable prefix* — the leading run of
//! valid-padded convolutions, whose outputs a window slid by one tick row
//! can reuse (`crate::stream`). From the lowering comes all the memory a
//! forward uses, made once: the [`Arena`] (the workspace at `MAX_SWEEP`
//! samples) and the prefix's line buffers (`Net::stream_lines`), so no
//! forward allocates.
//!
//! One executor runs `layers[from..]` at batch `k` for the whole-window
//! forward ([`Net::forward_batch_scratch`], and a streamed miss, which
//! primes the prefix's line buffers on the way) and for the tail behind
//! the streamed prefix, in the arena. [`Net::forward_reference`] is a second walk of the
//! same list through each op's `forward_reference` only: the oracle.

use crate::kernels::Store;
use crate::model::{ModelKind, Prediction};
use crate::ops::activation::{leaky_relu, relu, softmax_last_dim};
use crate::ops::count::{
    attention_macs, conv2d_macs, conv_out_len, ffn_macs, linear_macs, lstm_macs,
};
use crate::ops::{Conv2d, LayerNorm, Linear, Lstm, MultiHeadAttention};
use crate::stream::{advance_trunk, LineBuffer, MAX_SWEEP};
use crate::tensor::Tensor;
use std::ops::ControlFlow;

/// A sample's activation shape, `[c, h, w]` row-major: a channel-major
/// map of `c` channels over `h` tick rows and `w` columns, or, with `c`
/// = 1, a sequence of `h` rows `w` wide. The first layer reads the
/// `[window, features]` tick window as `[1, window, features]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Shape {
    pub(crate) c: usize,
    pub(crate) h: usize,
    pub(crate) w: usize,
}

impl Shape {
    fn len(self) -> usize {
        self.c * self.h * self.w
    }

    /// The rows a dense layer reads, and their width: a sequence's rows,
    /// or a whole map flattened into one.
    fn rows(self) -> (usize, usize) {
        if self.c == 1 {
            (self.h, self.w)
        } else {
            (1, self.len())
        }
    }
}

/// One layer of a spec's list, before weights: its dimensions (its input
/// ones come from the layer before) and the offset from the build seed of
/// each weight it draws.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum LayerSpec {
    /// A convolution to `out_c` channels: unit vertical stride, `pad_h`
    /// zero rows above and below, no horizontal padding, storing `post`
    /// of each BF16-rounded sum.
    Conv {
        out_c: usize,
        kernel: (usize, usize),
        stride_w: usize,
        pad_h: usize,
        post: Store,
        seed: u64,
    },
    /// DeepLOB's inception over a `[C, steps, 1]` map: a 1x1 branch, 1x1
    /// then same-padded 3x1, and 1x1 then same-padded 5x1, every
    /// convolution `C` to `C` storing `post`, their channels concatenated
    /// and flipped to a `[steps, 3C]` sequence. `seeds` are the three 1x1
    /// convolutions', then the 3x1's and the 5x1's.
    Inception { post: Store, seeds: [u64; 5] },
    /// An LSTM over a sequence, keeping its last hidden state,
    /// `[1, hidden]`.
    LastHidden { hidden: usize, seed: u64 },
    /// Swaps the channel and column axes: `[c, h, w]` to `[w, h, c]`.
    Transpose,
    /// A dense layer to `out` outputs per row ([`Shape::rows`]), storing
    /// `post`.
    Dense { out: usize, post: Store, seed: u64 },
    /// Adds the sinusoidal positional encoding of the sequence's shape.
    Positional,
    /// A pre-norm transformer layer: `x + attn(ln1(x))`, then `x +
    /// ffn(ln2(x))` with a ReLU'd hidden layer `ffn` wide. The attention
    /// draws from `seed`, the feed-forward layers from `seed + 4` and
    /// `seed + 5`.
    Transformer { heads: usize, ffn: usize, seed: u64 },
    /// The mean of a sequence's rows.
    MeanPool,
    /// The three-class dense softmax head over a one-row input.
    Head { seed: u64 },
}

impl LayerSpec {
    /// The shape this layer makes of `input`.
    ///
    /// # Panics
    ///
    /// Panics when `input` is not a shape this layer reads.
    fn output(self, input: Shape) -> Shape {
        let Shape { c, h, w } = input;
        let seq = |h, w| Shape { c: 1, h, w };
        match self {
            LayerSpec::Conv {
                out_c,
                kernel: (kh, kw),
                stride_w,
                pad_h,
                ..
            } => Shape {
                c: out_c,
                h: conv_out_len(h as u64, kh as u64, 1, pad_h as u64) as usize,
                w: conv_out_len(w as u64, kw as u64, stride_w as u64, 0) as usize,
            },
            LayerSpec::Inception { .. } => {
                assert_eq!(w, 1, "the inception reads a [C, steps, 1] map");
                seq(h, 3 * c)
            }
            LayerSpec::LastHidden { hidden, .. } => {
                assert_eq!(c, 1, "an LSTM reads a sequence");
                seq(1, hidden)
            }
            LayerSpec::Transpose => {
                assert!(c == 1 || w == 1, "a transpose swaps a unit axis");
                Shape { c: w, h, w: c }
            }
            LayerSpec::Dense { out, .. } => seq(input.rows().0, out),
            LayerSpec::Positional | LayerSpec::Transformer { .. } => {
                assert_eq!(c, 1, "{self:?} reads a sequence");
                input
            }
            LayerSpec::MeanPool => {
                assert_eq!(c, 1, "mean pooling reads a sequence");
                seq(1, w)
            }
            LayerSpec::Head { .. } => {
                assert_eq!((c, h), (1, 1), "the head reads one row");
                seq(1, 3)
            }
        }
    }

    /// Multiply-accumulates of this layer over `input`.
    fn macs(self, input: Shape) -> u64 {
        let Shape { c, h, w } = input;
        let [c, h, w] = [c, h, w].map(|v| v as u64);
        match self {
            LayerSpec::Conv {
                out_c,
                kernel: (kh, kw),
                ..
            } => {
                let out = self.output(input);
                conv2d_macs(
                    out_c as u64,
                    c,
                    kh as u64,
                    kw as u64,
                    out.h as u64,
                    out.w as u64,
                )
            }
            LayerSpec::Inception { .. } => {
                3 * conv2d_macs(c, c, 1, 1, h, 1)
                    + conv2d_macs(c, c, 3, 1, h, 1)
                    + conv2d_macs(c, c, 5, 1, h, 1)
            }
            LayerSpec::LastHidden { hidden, .. } => lstm_macs(h, w, hidden as u64),
            LayerSpec::Dense { out, .. } => {
                let (rows, width) = input.rows();
                linear_macs(rows as u64, width as u64, out as u64)
            }
            LayerSpec::Transformer { ffn, .. } => attention_macs(h, w) + ffn_macs(h, w, ffn as u64),
            LayerSpec::Head { .. } => linear_macs(1, w, 3),
            LayerSpec::Transpose | LayerSpec::Positional | LayerSpec::MeanPool => 0,
        }
    }

    /// This layer with its weights, drawn from `seed` plus its offsets, for
    /// `input`.
    fn build(self, input: Shape, seed: u64) -> Layer {
        let Shape { c, h, w } = input;
        let at = |offset: u64| seed.wrapping_add(offset);
        match self {
            LayerSpec::Conv {
                out_c,
                kernel,
                stride_w,
                pad_h,
                post,
                seed,
            } => Layer::Conv {
                conv: Conv2d::new(c, out_c, kernel, (1, stride_w), (pad_h, 0), at(seed)),
                post,
            },
            LayerSpec::Inception { post, seeds } => {
                let conv = |kh, s| Conv2d::new(c, c, (kh, 1), (1, 1), (kh / 2, 0), at(s));
                Layer::Inception {
                    ones: Conv2d::stacked(&[
                        conv(1, seeds[0]),
                        conv(1, seeds[1]),
                        conv(1, seeds[2]),
                    ]),
                    three: Box::new(conv(3, seeds[3])),
                    five: Box::new(conv(5, seeds[4])),
                    post,
                }
            }
            LayerSpec::LastHidden { hidden, seed } => {
                Layer::LastHidden(Lstm::new(w, hidden, at(seed)))
            }
            LayerSpec::Transpose => Layer::Transpose,
            LayerSpec::Dense { out, post, seed } => Layer::Dense {
                linear: Linear::new(input.rows().1, out, at(seed)),
                post,
            },
            LayerSpec::Positional => Layer::Positional(positional_encoding(h, w)),
            LayerSpec::Transformer { heads, ffn, seed } => {
                let base = at(seed);
                Layer::Transformer(Box::new(Block {
                    ln1: LayerNorm::new(w),
                    attn: MultiHeadAttention::new(w, heads, base),
                    ln2: LayerNorm::new(w),
                    ffn1: Linear::new(w, ffn, base.wrapping_add(4)),
                    ffn2: Linear::new(ffn, w, base.wrapping_add(5)),
                }))
            }
            LayerSpec::MeanPool => Layer::MeanPool,
            LayerSpec::Head { seed } => Layer::Head(Linear::new(w, 3, at(seed))),
        }
    }
}

/// Each layer's input shape in `layers`, then the last one's output,
/// starting from the `[window, features]` tick window.
pub(crate) fn shapes(window: usize, features: usize, layers: &[LayerSpec]) -> Vec<Shape> {
    let mut shape = Shape {
        c: 1,
        h: window,
        w: features,
    };
    let mut shapes = vec![shape];
    for layer in layers {
        shape = layer.output(shape);
        shapes.push(shape);
    }
    shapes
}

/// Multiply-accumulates of one forward pass of `layers` over a `[window,
/// features]` window: pure arithmetic, no weights.
pub(crate) fn macs(window: usize, features: usize, layers: &[LayerSpec]) -> u64 {
    let shapes = shapes(window, features, layers);
    layers.iter().zip(shapes).map(|(l, s)| l.macs(s)).sum()
}

/// Swaps the channel and column axes of one `[c, h, w]` sample, one of
/// them 1: `dst` is `[w, h, c]`, the `[c·h, w]` or `[c, h]` matrix
/// transposed, written row by row.
fn transpose(src: &[f32], Shape { c, h, w }: Shape, dst: &mut [f32]) {
    let (m, n) = if c == 1 { (h, w) } else { (c, h) };
    for (j, row) in dst.chunks_exact_mut(m).enumerate() {
        for (i, v) in row.iter_mut().enumerate() {
            *v = src[i * n + j];
        }
    }
}

/// The mean of `rows` rows of `src`, each `mean.len()` wide: every row's
/// `v / rows` added in row order, from zero.
fn mean_rows(src: &[f32], rows: usize, mean: &mut [f32]) {
    mean.fill(0.0);
    for row in src.chunks_exact(mean.len()) {
        for (acc, v) in mean.iter_mut().zip(row) {
            *acc += v / rows as f32;
        }
    }
}

/// Standard sinusoidal positional encoding, `[t, d]`.
pub(crate) fn positional_encoding(t: usize, d: usize) -> Tensor {
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

/// One pre-norm transformer layer's weights.
#[derive(Debug, Clone)]
pub(crate) struct Block {
    ln1: LayerNorm,
    attn: MultiHeadAttention,
    ln2: LayerNorm,
    ffn1: Linear,
    ffn2: Linear,
}

/// One layer with its weights: [`LayerSpec`] built. Each op holds its
/// weights' register panels too; the head and the inception's same-padded
/// branches read their weights unpacked and leave theirs unread.
#[derive(Debug, Clone)]
pub(crate) enum Layer {
    Conv {
        conv: Conv2d,
        post: Store,
    },
    /// The three 1x1 convolutions stacked into one of `3C` output channels
    /// (the first branch, then the other two's inputs), and the two
    /// same-padded ones (boxed, as the transformer is, so no variant is
    /// three convolutions wide).
    Inception {
        ones: Conv2d,
        three: Box<Conv2d>,
        five: Box<Conv2d>,
        post: Store,
    },
    LastHidden(Lstm),
    Transpose,
    Dense {
        linear: Linear,
        post: Store,
    },
    /// The `[t, d]` encoding added to every sample.
    Positional(Tensor),
    Transformer(Box<Block>),
    MeanPool,
    Head(Linear),
}

impl Layer {
    /// The convolution of a streamable-prefix layer, and its store.
    ///
    /// # Panics
    ///
    /// Panics on any other layer: the prefix is convolutions only.
    pub(crate) fn trunk_conv(&self) -> (&Conv2d, Store) {
        match self {
            Layer::Conv { conv, post } => (conv, *post),
            _ => unreachable!("the streamable prefix is convolutions"),
        }
    }

    /// The workspace the executor hands this layer at `input`: elements
    /// per sample, and a fixed part after `k` samples' share (the direct
    /// convolutions' stage, the attention's one-sample buffers).
    fn workspace(&self, input: Shape) -> (usize, usize) {
        match self {
            Layer::Conv { conv, .. } => (0, conv.stage_len()),
            Layer::Inception {
                ones, three, five, ..
            } => {
                let stage = ones
                    .stage_len()
                    .max(three.stage_len())
                    .max(five.stage_len());
                (5 * input.c * input.h, stage)
            }
            Layer::LastHidden(lstm) => (lstm.workspace(input.h), 0),
            Layer::Transformer(block) => {
                let (t, d) = (input.h, input.w);
                let (attn, stage) = block.attn.workspace(t);
                (t * (2 * d + block.ffn1.output_dim()) + attn, stage)
            }
            _ => (0, 0),
        }
    }

    /// Runs this layer over `k` samples of `src` (`[k, input]`) into `dst`
    /// (`[k, output]`), each op against its own packed weights, in `work`:
    /// at least [`Self::workspace`]'s `k` samples' share and then its
    /// fixed part, every element written before it is read. The head
    /// pushes one prediction per sample to `out` instead.
    fn run(
        &self,
        src: &[f32],
        k: usize,
        input: Shape,
        work: &mut [f32],
        dst: &mut [f32],
        out: &mut Vec<Prediction>,
    ) {
        let Shape { c, h, w } = input;
        match self {
            Layer::Conv { conv, post } => {
                let stage = &mut work[..conv.stage_len()];
                let lowering = conv.lowering(h, w);
                conv.run(lowering, src, k, stage, *post, dst);
            }
            Layer::Inception {
                ones,
                three,
                five,
                post,
            } => {
                // The stacked 1x1 convolutions in one call, `[k, 3C, steps]`:
                // its first third is the first branch, and the same-padded
                // convolutions read the other two, sample by sample; the
                // three branches are flipped together into `dst`.
                let third = c * h;
                let (first, rest) = work.split_at_mut(k * 3 * third);
                let (later, stage) = rest.split_at_mut(k * 2 * third);
                let stage1 = &mut stage[..ones.stage_len()];
                let lowering = ones.lowering(h, w);
                ones.run(lowering, src, k, stage1, *post, first);
                let (d3, d5) = (three.direct(h, 1), five.direct(h, 1));
                let samples = first
                    .chunks_exact(3 * third)
                    .zip(later.chunks_exact_mut(2 * third));
                for (ones, later) in samples {
                    let (br2, br3) = later.split_at_mut(third);
                    let (mid2, mid3) = ones[third..].split_at(third);
                    three.forward_direct(d3, mid2, &mut stage[..three.stage_len()], *post, br2);
                    five.forward_direct(d5, mid3, &mut stage[..five.stage_len()], *post, br3);
                }
                // Channel `ch` at step `st` lives at `ch * steps + st` of its
                // branch's map, and at `st * 3C + ch` of the sequence.
                let branches = first
                    .chunks_exact(3 * third)
                    .zip(later.chunks_exact(2 * third));
                for (sample, (ones, later)) in dst.chunks_exact_mut(3 * third).zip(branches) {
                    for (st, row) in sample.chunks_exact_mut(3 * c).enumerate() {
                        let (br1, rest) = row.split_at_mut(c);
                        for (ch, v) in br1.iter_mut().enumerate() {
                            *v = ones[ch * h + st];
                        }
                        for (ch, v) in rest.iter_mut().enumerate() {
                            *v = later[ch * h + st];
                        }
                    }
                }
            }
            Layer::LastHidden(lstm) => lstm.last_hidden_batch_packed(src, k, h, work, dst),
            Layer::Transpose => {
                let len = input.len();
                for (s, d) in src.chunks_exact(len).zip(dst.chunks_exact_mut(len)) {
                    transpose(s, input, d);
                }
            }
            Layer::Dense { linear, post } => {
                let rows = k * input.rows().0;
                linear.forward_batch_packed(src, rows, *post, dst);
            }
            Layer::Positional(pos) => {
                let len = input.len();
                for (s, d) in src.chunks_exact(len).zip(dst.chunks_exact_mut(len)) {
                    for ((d, s), p) in d.iter_mut().zip(s).zip(pos.data()) {
                        *d = s + p;
                    }
                }
            }
            Layer::Transformer(block) => {
                // Every sublayer sweeps all `k * h` token rows at once (the
                // attention core per sample and head).
                let Block {
                    ln1,
                    attn,
                    ln2,
                    ffn1,
                    ffn2,
                } = &**block;
                let (rows, d) = (k * h, w);
                let (norm, rest) = work.split_at_mut(rows * d);
                let (delta, rest) = rest.split_at_mut(rows * d);
                let (hidden, attn_work) = rest.split_at_mut(rows * ffn1.output_dim());
                // x = x + attn(ln1(x))
                ln1.forward_rows(src, norm);
                attn.forward_batch_packed(norm, k, h, attn_work, delta);
                for ((v, x), add) in dst.iter_mut().zip(src).zip(&*delta) {
                    *v = x + add;
                }
                // x = x + ffn(ln2(x))
                ln2.forward_rows(dst, norm);
                ffn1.forward_batch_packed(norm, rows, Store::Relu, hidden);
                ffn2.forward_batch_packed(hidden, rows, Store::Bf16, delta);
                for (v, add) in dst.iter_mut().zip(&*delta) {
                    *v += add;
                }
            }
            Layer::MeanPool => {
                for (mean, sample) in dst.chunks_exact_mut(w).zip(src.chunks_exact(h * w)) {
                    mean_rows(sample, h, mean);
                }
            }
            Layer::Head(head) => head.softmax_head(src, k, out),
        }
    }

    /// The reference walk's step: this layer on one sample of `input`'s
    /// shape through each op's `forward_reference`, or, at the head, the
    /// walk's answer.
    fn reference(&self, x: Tensor, input: Shape) -> ControlFlow<Prediction, Tensor> {
        let Shape { c, h, w } = input;
        let activated = |post: Store, mut y: Tensor| {
            match post {
                Store::Relu => relu(&mut y),
                Store::LeakyRelu(alpha) => leaky_relu(&mut y, alpha),
                Store::Bf16 | Store::Exact => {}
            }
            y
        };
        ControlFlow::Continue(match self {
            Layer::Conv { conv, post } => {
                activated(*post, conv.forward_reference(&x.reshape(&[c, h, w])))
            }
            Layer::Inception {
                ones,
                three,
                five,
                post,
            } => {
                let mut y = activated(*post, ones.forward_reference(&x.reshape(&[c, h, w])));
                let third = |i: usize| {
                    let part = y.data()[i * c * h..][..c * h].to_vec();
                    Tensor::from_vec(part, &[c, h, 1])
                };
                let br2 = activated(*post, three.forward_reference(&third(1)));
                let br3 = activated(*post, five.forward_reference(&third(2)));
                y.data_mut()[c * h..].copy_from_slice(&[br2.data(), br3.data()].concat());
                let mut seq = Tensor::zeros(&[h, 3 * c]);
                transpose(y.data(), Shape { c: 3 * c, h, w: 1 }, seq.data_mut());
                seq
            }
            Layer::LastHidden(lstm) => {
                let all = lstm.forward_reference(&x.reshape(&[h, w]));
                Tensor::from_vec(all.row(h - 1).to_vec(), &[lstm.hidden_dim()])
            }
            Layer::Transpose => {
                let mut y = Tensor::zeros(&[w, h, c]);
                transpose(x.data(), input, y.data_mut());
                y
            }
            Layer::Dense { linear, post } => {
                let (rows, width) = input.rows();
                activated(*post, linear.forward_reference(&x.reshape(&[rows, width])))
            }
            Layer::Positional(pos) => {
                let mut x = x.reshape(&[h, w]);
                for (v, p) in x.data_mut().iter_mut().zip(pos.data()) {
                    *v += p;
                }
                x
            }
            Layer::Transformer(block) => {
                // x = x + attn(ln1(x)), then x = x + ffn(ln2(x))
                let mut x = x.reshape(&[h, w]);
                let a = block
                    .attn
                    .forward_reference(&block.ln1.forward_reference(&x));
                for (v, add) in x.data_mut().iter_mut().zip(a.data()) {
                    *v += add;
                }
                let mut f = block
                    .ffn1
                    .forward_reference(&block.ln2.forward_reference(&x));
                relu(&mut f);
                let f = block.ffn2.forward_reference(&f);
                for (v, add) in x.data_mut().iter_mut().zip(f.data()) {
                    *v += add;
                }
                x
            }
            Layer::MeanPool => {
                let mut pooled = Tensor::zeros(&[w]);
                mean_rows(x.data(), h, pooled.data_mut());
                pooled
            }
            Layer::Head(head) => {
                let mut logits = head.forward_reference(&x.reshape(&[w]));
                softmax_last_dim(&mut logits);
                let p = logits.data();
                return ControlFlow::Break(Prediction::new([p[0], p[1], p[2]]));
            }
        })
    }
}

/// What the lowering fixed for one layer.
#[derive(Debug, Clone, Copy)]
struct Lowered {
    input: Shape,
    output: Shape,
    /// The workspace running this layer and every one after it takes.
    work: Workspace,
}

/// A run's one workspace: two activation buffers the layers ping-pong
/// between and the layers' scratch, per sample, and a fixed part.
#[derive(Debug, Clone, Copy, Default)]
struct Workspace {
    act: usize,
    scratch: usize,
    stage: usize,
}

impl Workspace {
    fn len(self, k: usize) -> usize {
        k * (2 * self.act + self.scratch) + self.stage
    }

    fn max(self, other: Workspace) -> Workspace {
        Workspace {
            act: self.act.max(other.act),
            scratch: self.scratch.max(other.scratch),
            stage: self.stage.max(other.stage),
        }
    }
}

/// The memory a net's forwards run in: the lowering's workspace at
/// [`MAX_SWEEP`] samples, made once by [`Net::arena`]. Every activation,
/// every layer's scratch and a batch's staged windows are cut from it, so
/// no forward allocates.
#[derive(Debug, Clone)]
pub struct Arena {
    data: Vec<f32>,
}

/// A runnable benchmark network: a spec's layers with their weights,
/// lowered.
#[derive(Debug, Clone)]
pub struct Net {
    kind: ModelKind,
    window: usize,
    features: usize,
    layers: Vec<Layer>,
    plan: Vec<Lowered>,
    /// The streamable prefix's length: the leading valid-padded
    /// convolutions.
    prefix: usize,
}

impl Net {
    /// Builds `layers` over a `[window, features]` window with weights
    /// drawn from `seed` plus each layer's offsets, and lowers it.
    ///
    /// # Panics
    ///
    /// Panics when a layer cannot read its input's shape, or the list
    /// does not end in its one head.
    pub(crate) fn new(
        kind: ModelKind,
        (window, features): (usize, usize),
        specs: &[LayerSpec],
        seed: u64,
    ) -> Self {
        let heads = specs.iter().filter(|l| matches!(l, LayerSpec::Head { .. }));
        assert!(
            matches!(specs.last(), Some(LayerSpec::Head { .. })) && heads.count() == 1,
            "a net ends in its one head"
        );
        let shapes = shapes(window, features, specs);
        let layers: Vec<Layer> = specs
            .iter()
            .zip(&shapes)
            .map(|(spec, &input)| spec.build(input, seed))
            .collect();
        let mut plan: Vec<Lowered> = shapes
            .windows(2)
            .map(|io| Lowered {
                input: io[0],
                output: io[1],
                work: Workspace::default(),
            })
            .collect();
        let mut work = Workspace::default();
        for (layer, step) in layers.iter().zip(&mut plan).rev() {
            let (scratch, stage) = layer.workspace(step.input);
            let act = step.input.len().max(step.output.len());
            work = work.max(Workspace {
                act,
                scratch,
                stage,
            });
            step.work = work;
        }
        let prefix = specs
            .iter()
            .take_while(|l| matches!(l, LayerSpec::Conv { pad_h: 0, .. }))
            .count();
        Net {
            kind,
            window,
            features,
            layers,
            plan,
            prefix,
        }
    }

    /// Which benchmark family this is.
    pub fn kind(&self) -> ModelKind {
        self.kind
    }

    /// Tick-window length `T` of the input feature map.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Features per tick (40 for ten levels of `(price, qty)` x 2 sides).
    pub fn features(&self) -> usize {
        self.features
    }

    /// The memory [`Self::forward_batch_scratch`] runs in, allocated here
    /// once: the workspace the lowering sized, for [`MAX_SWEEP`] samples.
    pub fn arena(&self) -> Arena {
        Arena {
            data: vec![0.0; self.plan[0].work.len(MAX_SWEEP)],
        }
    }

    /// Runs inference over a batch of `[window, features]` inputs,
    /// appending one [`Prediction`] per input to `out` (cleared first).
    /// A single query is a batch of one. Stateless: it never streams —
    /// nothing of one call survives into the next.
    ///
    /// Every intermediate buffer is cut from `arena` (from [`Self::arena`]),
    /// so nothing but `out`'s growth allocates, from the first call on
    /// (asserted by the `zero_alloc` integration test); a batch of more
    /// than [`MAX_SWEEP`] inputs runs in chunks of `MAX_SWEEP`. Per sample
    /// the result does not depend on the batch it rides in and is `==` to
    /// [`Self::forward_reference`]: batching stacks samples along GEMM
    /// output dimensions and packing permutes operand layout, neither
    /// touches any `k` accumulation chain (pinned by the
    /// `kernel_equivalence` and `batch_equivalence` proptests).
    ///
    /// # Panics
    ///
    /// Panics if any input is not `[window, features]`, or `arena` is
    /// another, smaller net's.
    pub fn forward_batch_scratch(
        &self,
        inputs: &[Tensor],
        arena: &mut Arena,
        out: &mut Vec<Prediction>,
    ) {
        out.clear();
        let shape = [self.window, self.features];
        for batch in inputs.chunks(MAX_SWEEP) {
            for input in batch {
                assert_eq!(input.shape(), shape, "input must be [window, features]");
            }
            let window = |j: usize| batch[j].data();
            self.forward_windows(batch.len(), window, None, arena, out);
        }
    }

    /// The naive reference forward pass: the same layer list walked
    /// through each op's `forward_reference` (kept for equivalence tests
    /// and the benchmark baseline); [`Self::forward_batch_scratch`] is `==`
    /// to it.
    ///
    /// # Panics
    ///
    /// Panics if `input` is not `[window, features]`.
    pub fn forward_reference(&self, input: &Tensor) -> Prediction {
        let shape = [self.window, self.features];
        assert_eq!(input.shape(), shape, "input must be [window, features]");
        let mut x = input.clone();
        for (layer, step) in self.layers.iter().zip(&self.plan) {
            x = match layer.reference(x, step.input) {
                ControlFlow::Continue(next) => next,
                ControlFlow::Break(prediction) => return prediction,
            };
        }
        unreachable!("a net ends in its head")
    }

    /// The buffers [`Self::forward_stream`] works through: one
    /// [`LineBuffer`] per prefix convolution and a last one for the
    /// prefix's output. Empty when the prefix is, and such a net is never
    /// streamed.
    pub(crate) fn stream_lines(&self) -> Vec<LineBuffer> {
        if self.prefix == 0 {
            return Vec::new();
        }
        let trunk = self.layers[..self.prefix].iter().zip(&self.plan);
        let mut lines: Vec<LineBuffer> = trunk
            .map(|(layer, step)| LineBuffer::planned(layer.trunk_conv().0, step.input.w))
            .collect();
        let Shape { c, h, w } = self.plan[self.prefix].input;
        lines.push(LineBuffer::new(c, h, w));
        lines
    }

    /// One sweep through the state in `lines` (from
    /// [`Self::stream_lines`]): `whole`, when given, and then the windows
    /// that follow it — or, without it, the last window served through
    /// these `lines` — each by sliding in one more row of `rows`
    /// (`[k, features]`, `k` at most [`MAX_SWEEP`], may be zero). `out` is
    /// cleared and gets one prediction per window, in that order, each bit
    /// for bit [`Self::forward_batch_scratch`] on that window alone.
    ///
    /// `whole` runs as a whole window and refills `lines` from its
    /// activations; the caller passes it whenever the first window is not,
    /// bit for bit, the previous one slid by a row. The `k` slid windows
    /// send only their `k` new rows through the prefix — `k` output rows
    /// per layer from one call of the same packed convolution, at
    /// `h = kh - 1 + k`, in the memory each line buffer holds — and the
    /// unchanged layers after it run once, at batch `k`, in `arena`, over
    /// the `k` overlapping prefix outputs.
    pub(crate) fn forward_stream(
        &self,
        whole: Option<&Tensor>,
        rows: &[f32],
        lines: &mut [LineBuffer],
        arena: &mut Arena,
        out: &mut Vec<Prediction>,
    ) {
        out.clear();
        if let Some(window) = whole {
            let lines = Some(&mut *lines);
            self.forward_windows(1, |_| window.data(), lines, arena, out);
        }
        if !rows.is_empty() {
            let k = rows.len() / self.features;
            let prefix = &self.layers[..self.prefix];
            let input = advance_trunk(lines, prefix, rows, &mut arena.data);
            self.run(self.prefix, k, input, &mut arena.data, None, out);
        }
    }

    /// The whole-window forward of `k` windows, window `j` being the
    /// `[window, features]` rows `window(j)`, appending one prediction
    /// each to `out`: [`Self::forward_batch_scratch`]'s batches of at most
    /// [`MAX_SWEEP`], an unstreamed tier's sweep, and a streamed miss,
    /// which passes its one window's `lines` to be primed from the
    /// prefix's activations on the way. A lone window is read in place;
    /// more are staged at the start of `arena`.
    pub(crate) fn forward_windows<'a>(
        &self,
        k: usize,
        window: impl Fn(usize) -> &'a [f32],
        lines: Option<&mut [LineBuffer]>,
        arena: &mut Arena,
        out: &mut Vec<Prediction>,
    ) {
        if k == 0 {
            return;
        }
        debug_assert!(lines.is_none() || k == 1, "lines follow one stream");
        let len = self.window * self.features;
        let input = if k == 1 {
            Some(window(0))
        } else {
            for (j, staged) in arena.data.chunks_exact_mut(len).take(k).enumerate() {
                staged.copy_from_slice(window(j));
            }
            None
        };
        debug_assert!(input.is_none_or(|x| x.len() == len), "one whole window");
        self.run(0, k, input, &mut arena.data, lines, out);
    }

    /// The executor: runs `layers[from..]` over `k <= MAX_SWEEP` samples.
    /// `input` is their activations entering layer `from`, or `None` when
    /// they are staged at the start of `work`, which is at least
    /// `plan[from].work.len(k)` long. Each layer reads one half of the
    /// activation buffers and writes the other. `lines`, for one sample
    /// from layer 0, is primed with each prefix convolution's input and
    /// the prefix's output.
    fn run(
        &self,
        from: usize,
        k: usize,
        mut input: Option<&[f32]>,
        work: &mut [f32],
        mut lines: Option<&mut [LineBuffer]>,
        out: &mut Vec<Prediction>,
    ) {
        let ws = self.plan[from].work;
        assert!(
            work.len() >= ws.len(k),
            "an arena of {} elements is short of the {} a batch of {k} runs in",
            work.len(),
            ws.len(k)
        );
        let (halves, rest) = work.split_at_mut(2 * k * ws.act);
        // Which half holds the activations entering the next layer.
        let mut current = 0;
        for (i, (layer, step)) in self.layers.iter().zip(&self.plan).enumerate().skip(from) {
            let (first, second) = halves.split_at_mut(k * ws.act);
            let (src, dst, written): (&[f32], &mut [f32], usize) = match (input.take(), current) {
                (Some(x), _) => (x, first, 0),
                (None, 0) => (first, second, 1),
                (None, _) => (second, first, 0),
            };
            let (src, dst) = (
                &src[..k * step.input.len()],
                &mut dst[..k * step.output.len()],
            );
            if let Some(lines) = lines.as_deref_mut().filter(|_| i < self.prefix) {
                lines[i].prime(src, step.input.h);
            }
            layer.run(src, k, step.input, &mut *rest, dst, out);
            if let Some(lines) = lines.as_deref_mut().filter(|_| i + 1 == self.prefix) {
                lines[i + 1].prime(dst, step.output.h);
            }
            current = written;
        }
    }
}
