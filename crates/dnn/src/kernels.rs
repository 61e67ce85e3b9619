//! Cache-friendly inference kernels, bit-identical to the naive layers.
//!
//! The `forward_reference` implementations in [`crate::ops`] index every
//! element through `Tensor::at` (rank assert + bounds checks + index
//! arithmetic per multiply). These kernels compute the same contractions
//! over raw slices on a register tile, which is where the packed
//! `forward_batch_packed` ops and `Net::forward_batch_scratch` get
//! their speed.
//!
//! # The bit-exactness contract
//!
//! Floating-point addition is not associative, so a "faster but
//! approximately equal" kernel would silently change every prediction
//! downstream. Every kernel here therefore preserves the reference
//! path's **per-output-element accumulation order** exactly:
//!
//! * each accumulator is seeded with the bias (or `0.0`) exactly as the
//!   naive loop seeds it, accumulates in the same increasing-`k` order,
//!   and is rounded (BF16) at most once, at the same point;
//! * tiling only ever splits the *output* dimensions (M/N). The `k`
//!   reduction is never split, reordered, or vectorized with partial
//!   sums — register tiling computes several independent accumulator
//!   chains in parallel, each of which is order-identical to naive;
//! * [`conv2d_direct_bf16`] stages zero lanes where the naive
//!   convolution *skips* padded taps. Adding `w * 0.0` instead of
//!   skipping can only flip the sign of an exact zero (`-0.0 + 0.0 ==
//!   +0.0`), which `f32` equality and every downstream consumer treat as
//!   identical.
//!
//! The `kernel_equivalence` integration test property-checks these
//! guarantees against the `forward_reference` implementations across
//! randomized shapes, strides, and paddings.
//!
//! # The packed path
//!
//! Every floating-point contraction runs on one register tile of up to
//! [`MR`] chains. A chain's lanes are `NR` (or `2 * NR`) *different
//! outputs* whose operands sit side by side in memory (a k-major
//! [`pack_bt_panels`] panel, a staged word of neighbouring positions of
//! an activation map, or a block of query rows); the chain's input is
//! one scalar per step, broadcast across them. In `shared_panel_tile` up
//! to `MR` chains read the same lanes against different inputs (a full
//! block of `MR` rows, up to `MR` output channels of the direct
//! convolution, or up to `MR` keys of an attention head); in
//! `row_tail_tile` one input row runs up to `MR` chains over different
//! lane blocks, so a lone row still keeps several chains in flight. A
//! tile computes each output once: where fewer than `MR` chains are live
//! it runs that many, not clamped duplicates. A lane is an ordinary
//! scalar accumulator that happens to share an instruction with its
//! neighbours — seeded, accumulated in increasing `k` and rounded
//! exactly as the naive loop does it — and the contract above holds
//! without a single partial sum. [`gemm_packed`],
//! [`conv2d_direct_bf16`] and `attention_sample` drive the tile, and
//! `lstm_steps` runs one per LSTM gate, one hidden unit per lane, straight
//! into the cell; `layer_norm_rows` folds rows one per lane. Every pass
//! stores each sum as its [`Store`] says: BF16-rounded and, for a layer
//! followed by one, activated, or exact (the LSTM's input half, whose
//! partials the recurrence continues unrounded).
//!
//! The direct convolution stages its lane words in one of two forms: a
//! masked shifted load where the output positions are contiguous in the
//! channel (a width-1 kernel at unit stride), and a gather of each lane's
//! element otherwise (DeepLOB's strided level folds). A full block of
//! contiguous positions whose tap windows all lie inside their channels
//! stages nothing: the tile reads its words from the input in place.
//!
//! # One body, several instances
//!
//! Each of those five passes (`gemm_packed`, `conv2d_direct_bf16`,
//! `attention_sample`, `layer_norm_rows`, `lstm_steps`) has one
//! `#[inline(always)]` body, generic in its lane width (`lstm_steps`'
//! is written for `NR` lanes only), and its entry is
//! one `instances!` invocation: the body
//! compiled for AVX-512F or AVX2 where the CPU has it and the input fills
//! that instance's lanes, and for the x86-64 baseline (SSE2) otherwise
//! (the macro says how one is picked). `NR` lanes are two xmm registers
//! or one ymm, `2 * NR` one zmm. [`tile_isa`] names the widest. `NR` and
//! the panel layout are the same in all. Rust never contracts `a * b + c`
//! into a fused multiply-add — even where `avx512f` makes the
//! instruction available — so every instance rounds every product and
//! every sum exactly as the scalar loop does: same bits.

use crate::bf16::bf16_round;
use crate::math::{exp, sigmoid, tanh};
use crate::ops::activation::{leaky_relu_of, relu_of};
use crate::ops::count::conv_out_len;
use crate::ops::fold_rows;

/// Register-tile width: independent accumulator chains per inner loop.
const MR: usize = 4;

/// Output lanes per packed register tile: the width of one k-major panel.
pub const NR: usize = 8;

/// The widest instance the packed passes run at on this CPU: `"avx512"`
/// (`2 * NR` lanes, one zmm register), `"avx2"` (an `NR`-lane block is one
/// ymm register), `"sse2"` (two xmm registers: the x86-64 baseline) or
/// `"portable"` on other targets. A pass runs its AVX-512F instance only on
/// inputs that fill its lanes, so on an AVX-512 host smaller inputs
/// (batch-1 and single-block sweeps, among them) still run AVX2. An
/// observation, not a setting: nothing forces any instance, and all
/// compute the same bits.
pub fn tile_isa() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx512f") {
        return "avx512";
    }
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        return "avx2";
    }
    if cfg!(target_arch = "x86_64") {
        "sse2"
    } else {
        "portable"
    }
}

/// Defines a pass's entry over its one `#[inline(always)]` body, whose
/// one const parameter is its lane width:
///
/// ```text
/// instances! {
///     /// docs and attributes
///     pub fn pass(x: &[f32], n: usize) => pass_body;
///     "avx512f" => { 2 * NR } if n > NR,
///     "avx2" => NR,
/// }
/// ```
///
/// Each instance line compiles the body at its width with its target
/// feature enabled. The entry tries the instances in order and runs the
/// first whose predicate on the entry's arguments holds (an input that
/// fills its lanes; no predicate always holds) on a CPU that has its
/// feature; after the last it runs the body at `NR` lanes, compiled for
/// the x86-64 baseline. The feature string is one token that feeds both
/// `#[target_feature]` and `is_x86_feature_detected!`, so the feature an
/// instance is compiled for is the one the entry checks.
macro_rules! instances {
    (
        $(#[$attr:meta])*
        $vis:vis fn $name:ident($($arg:ident: $aty:ty),* $(,)?) => $body:ident;
        $($instance:tt)+
    ) => {
        $(#[$attr])*
        #[allow(unsafe_code)]
        $vis fn $name($($arg: $aty),*) {
            instances!(@each [$($arg: $aty),*] $body; $($instance)+);
            $body::<NR>($($arg),*)
        }
    };
    (
        @each [$($arg:ident: $aty:ty),*] $body:ident;
        $feature:tt => $width:tt $(if $pred:expr)?, $($rest:tt)*
    ) => {
        #[cfg(target_arch = "x86_64")]
        {
            #[target_feature(enable = $feature)]
            fn instance($($arg: $aty),*) {
                $body::<$width>($($arg),*)
            }
            if $($pred &&)? std::arch::is_x86_feature_detected!($feature) {
                // SAFETY: the CPU has just been found to run `$feature`, the
                // one feature `instance` is compiled for.
                return unsafe { instance($($arg),*) };
            }
        }
        instances!(@each [$($arg: $aty),*] $body; $($rest)*);
    };
    (@each $args:tt $body:ident;) => {};
}

/// The shared-panel loop of the register tile: `C` chains (at most
/// [`MR`]) x `W` lanes, every chain reading the same lanes.
///
/// At step `t` the tile reads one lane word, `lanes(t)`, and chain `c`
/// broadcasts its own input `xs[c][t]` across it: `acc[c][l] +=
/// lanes(t)[l] * xs[c][t]`, `t` increasing. Every output element
/// therefore owns exactly one accumulator that sees its products in
/// increasing-`k` order — the contract at the top of this file — while
/// the `C * W` chains are mutually independent, so the adds pipeline
/// instead of serialising on one chain's latency. Callers seed `acc`, may
/// run several tiles back to back (the direct convolution's input
/// channels), and round once when they store.
///
/// The accumulators live in locals for the whole loop, and every input is
/// cut to the reduction length once, so a step stores nothing and checks
/// no input's range: a `lanes` that reads packed words checks nothing.
#[inline(always)]
fn shared_panel_tile<const C: usize, const W: usize>(
    acc: &mut [[f32; W]; C],
    mut xs: [&[f32]; C],
    lanes: impl Fn(usize) -> [f32; W],
) {
    let len = xs[0].len();
    for x in &mut xs {
        *x = &x[..len];
    }
    let mut chains = *acc;
    for t in 0..len {
        let word = lanes(t);
        for (chain, x) in chains.iter_mut().zip(xs) {
            let xv = x[t];
            for l in 0..W {
                chain[l] += word[l] * xv;
            }
        }
    }
    *acc = chains;
}

/// The row-tail loop of the register tile: `C` chains (at most [`MR`]) x
/// `W` lanes against one input row, chain `c` reading its own lane words:
/// `acc[c][l] += lanes(c, t)[l] * x[t]`, `t` increasing.
///
/// A lone row thus still keeps up to `MR` independent chains in flight,
/// one per live lane block (or, in [`lstm_steps`], one per gate). The
/// accumulators live in locals, as in [`shared_panel_tile`].
#[inline(always)]
fn row_tail_tile<const C: usize, const W: usize>(
    acc: &mut [[f32; W]; C],
    x: &[f32],
    lanes: impl Fn(usize, usize) -> [f32; W],
) {
    let mut chains = *acc;
    for (t, &xv) in x.iter().enumerate() {
        for (c, chain) in chains.iter_mut().enumerate() {
            let word = lanes(c, t);
            for l in 0..W {
                chain[l] += word[l] * xv;
            }
        }
    }
    *acc = chains;
}

/// `lo`'s lanes then `hi`'s, `W` of them (`NR` or `2 * NR`): one lane
/// block, or two neighbouring blocks as one wide word.
#[inline(always)]
fn join<const W: usize>(lo: &[f32; NR], hi: &[f32; NR]) -> [f32; W] {
    let mut word = [0.0; W];
    word[..NR].copy_from_slice(lo);
    if W > NR {
        word[NR..].copy_from_slice(hi);
    }
    word
}

/// `[f(0), .., f(C - 1)]`, filled in place. In the sweeps' large bodies
/// the compiler leaves `std::array::from_fn` out of line, and the tile's
/// loops then check lengths they could otherwise have known.
#[inline(always)]
fn each<const C: usize, T: Copy>(fill: T, f: impl Fn(usize) -> T) -> [T; C] {
    let mut out = [fill; C];
    for (c, o) in out.iter_mut().enumerate() {
        *o = f(c);
    }
    out
}

/// The `NR` lanes at `at` of a row-major lane operand.
#[inline(always)]
fn lane_block(p: &[f32], at: usize) -> &[f32; NR] {
    p[at..].first_chunk().expect("a lane block is NR wide")
}

/// What a pass stores of each finished sum: the sum itself, or its BF16
/// rounding and, for a layer followed by one, the layer's activation of
/// that — the reference's rounding then its activation, element by
/// element. A closed set of values, not a closure, so every pass compiles
/// once per instance (`gemm_packed` once per store of an instance) rather
/// than once per caller, and a layer's activation costs no second pass
/// over its output.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Store {
    /// The sum, unrounded (the LSTM's input half, which the recurrence
    /// continues).
    Exact,
    /// `bf16_round` of the sum.
    Bf16,
    /// ReLU of the rounded sum.
    Relu,
    /// Leaky ReLU of the rounded sum, at this slope.
    LeakyRelu(f32),
}

impl Store {
    /// This store of one sum.
    #[inline(always)]
    fn apply(self, v: f32) -> f32 {
        match self {
            Store::Exact => v,
            Store::Bf16 => bf16_round(v),
            Store::Relu => relu_of(bf16_round(v)),
            Store::LeakyRelu(alpha) => leaky_relu_of(bf16_round(v), alpha),
        }
    }
}

/// Writes `post` of a chain's leading lanes to `dst` (a full chain, or
/// the valid lanes of a tail block): one match a chain, then a loop
/// specialised to the store.
#[inline(always)]
fn store_lanes<const W: usize>(dst: &mut [f32], lanes: &[f32; W], post: Store) {
    match post {
        Store::Exact => write_lanes(dst, lanes, |v| v),
        Store::Bf16 => write_lanes(dst, lanes, bf16_round),
        Store::Relu => write_lanes(dst, lanes, |v| Store::Relu.apply(v)),
        Store::LeakyRelu(alpha) => write_lanes(dst, lanes, |v| Store::LeakyRelu(alpha).apply(v)),
    }
}

/// [`store_lanes`] for one store.
#[inline(always)]
fn write_lanes<const W: usize>(dst: &mut [f32], lanes: &[f32; W], post: impl Fn(f32) -> f32) {
    match <&mut [f32; W]>::try_from(&mut *dst) {
        // Fixed width: the rounding and the store vectorize.
        Ok(full) => {
            for l in 0..W {
                full[l] = post(lanes[l]);
            }
        }
        // A short tail in pieces of fixed width: as a loop of `dst.len()`
        // steps, an `Exact` store compiles to a call of `memcpy`, and
        // to leave the vector registers for it costs more than the tile.
        Err(_) => {
            let (quads, rest) = dst.as_chunks_mut::<4>();
            for (q, quad) in quads.iter_mut().enumerate() {
                for (i, o) in quad.iter_mut().enumerate() {
                    *o = post(lanes[4 * q + i]);
                }
            }
            let at = 4 * quads.len();
            match rest {
                [a] => *a = post(lanes[at]),
                [a, b] => [*a, *b] = [post(lanes[at]), post(lanes[at + 1])],
                [a, b, c] => {
                    [*a, *b, *c] = [post(lanes[at]), post(lanes[at + 1]), post(lanes[at + 2])]
                }
                _ => {}
            }
        }
    }
}

/// Repacks a row-major `[m, k]` operand into [`NR`]-lane panels.
///
/// Panel `p` holds rows `p * NR..(p + 1) * NR` interleaved `k`-major
/// (`panel[t * NR + l] = a[(p * NR + l) * k + t]`), so one step of the
/// register tile loads its `NR` lane operands from one contiguous word. The last panel's lanes past `m` are zero: they accumulate
/// `0.0 * x` into lanes no caller stores, which is what lets every tile
/// run full width with no scalar tail.
///
/// Packing is a pure permutation of the operand layout: the per-output
/// accumulation order (and therefore every bit of the output) is
/// unchanged. `out` is cleared and filled with `m.div_ceil(NR) * NR * k`
/// elements.
pub fn pack_bt_panels(a: &[f32], m: usize, k: usize, out: &mut Vec<f32>) {
    out.clear();
    out.resize(m.div_ceil(NR) * NR * k, 0.0);
    pack_bt_panels_into(a, m, k, out);
}

/// [`pack_bt_panels`] into a caller's `out` of exactly `m.div_ceil(NR) *
/// NR * k` elements, whatever they hold: the lanes past row `m` are
/// zeroed, every other one written.
pub(crate) fn pack_bt_panels_into(a: &[f32], m: usize, k: usize, out: &mut [f32]) {
    assert_eq!(a.len(), m * k, "pack operand length");
    assert_eq!(out.len(), m.div_ceil(NR) * NR * k, "packed panels length");
    out[m / NR * NR * k..].fill(0.0);
    for (i, row) in a.chunks_exact(k.max(1)).take(m).enumerate() {
        let panel = &mut out[(i / NR) * NR * k..][..NR * k];
        for (t, &v) in row.iter().enumerate() {
            panel[t * NR + i % NR] = v;
        }
    }
}

/// One reduction segment of a packed contraction: `k` steps of every
/// output's dot product, [`pack_bt_panels`] lane operands against
/// broadcast row inputs.
#[derive(Debug, Clone, Copy)]
pub struct Segment<'a> {
    /// Lane operands: `NR`-lane panels of reduction width `k`, panel `b`
    /// at `b * k * NR`, one `NR`-lane word per step.
    pub panels: &'a [f32],
    /// Reduction length.
    pub k: usize,
    /// Row inputs: row `r` reads `x[r * x_stride..][..k]`.
    pub x: &'a [f32],
    /// Distance between consecutive rows' inputs.
    pub x_stride: usize,
}

impl<'a> Segment<'a> {
    /// A [`pack_bt_panels`] operand of reduction width `k` against the
    /// rows of `x`.
    pub fn packed(panels: &'a [f32], k: usize, x: &'a [f32], x_stride: usize) -> Self {
        Segment {
            panels,
            k,
            x,
            x_stride,
        }
    }

    /// Lane block `b` as its `k` lane words.
    #[inline(always)]
    fn words(&self, b: usize) -> &'a [[f32; NR]] {
        &self.panels[b * self.k * NR..][..self.k * NR].as_chunks().0[..self.k]
    }

    #[inline(always)]
    fn row(&self, r: usize) -> &'a [f32] {
        &self.x[r * self.x_stride..][..self.k]
    }

    /// This segment's steps of a shared-panel tile over lane blocks
    /// `b..b + W / NR`: at `W = 2 * NR` a chain's second `NR` lanes are
    /// block `b + 1`'s.
    #[inline(always)]
    fn accumulate_rows<const W: usize>(&self, acc: &mut [[f32; W]; MR], b: usize, r0: usize) {
        let xs = each(&[][..], |c| self.row(r0 + c));
        let (lo, hi) = (self.words(b), self.words(b + W / NR - 1));
        shared_panel_tile(acc, xs, |t| join(&lo[t], &hi[t]));
    }

    /// This segment's steps of a row-tail tile: row `r` against lane
    /// blocks `b0..b0 + C`.
    #[inline(always)]
    fn accumulate_blocks<const C: usize>(&self, acc: &mut [[f32; NR]; C], r: usize, b0: usize) {
        let x = self.row(r);
        let words: [_; C] = each(&[][..], |c| self.words(b0 + c));
        row_tail_tile(acc, x, |c, t| words[c][t]);
    }
}

instances! {
    /// The packed GEMM driver: `out[r * row_stride + o * lane_stride] =
    /// post(bias[o] + sum over t of lane operand (o, t) * row r's input
    /// t)` for `r < rows`, `o < n`.
    ///
    /// Dense layers (attention's four projections among them), convolutions
    /// whose patch rows lie in place in their input and the LSTM's input
    /// half are this one sweep of the register tile; they differ in their
    /// segment, their seed (`None` seeds `0.0`), their store layout and
    /// `post` (BF16 rounding, an activation of it, or nothing). Full
    /// blocks of [`MR`] rows share each lane block (`shared_panel_tile`);
    /// the `rows % MR` tail rows instead block across up to `MR` lane blocks
    /// each (`row_tail_tile`), so the lone row of a batch-1 forward keeps
    /// up to `MR` independent chains in flight, one per live lane block.
    /// Padded lanes past `n` are computed and not stored.
    ///
    /// # Panics
    ///
    /// Panics when the segment, the bias or `out` is too short for the
    /// shape.
    pub fn gemm_packed(
        seg: Segment<'_>,
        bias: Option<&[f32]>,
        rows: usize,
        n: usize,
        post: Store,
        out: &mut [f32],
        strides: (usize, usize),
    ) => gemm_packed_body;
    "avx512f" => { 2 * NR } if rows >= MR && n > NR,
    "avx2" => NR,
}

/// [`gemm_packed`]'s one body, inlined into every instance. Full row
/// blocks run `W` lanes a chain (`NR`, or `2 * NR`: neighbouring lane
/// blocks in pairs, an odd last block alone at `NR`); tail rows always
/// run `NR`.
#[inline(always)]
fn gemm_packed_body<const W: usize>(
    seg: Segment<'_>,
    bias: Option<&[f32]>,
    rows: usize,
    n: usize,
    post: Store,
    out: &mut [f32],
    (row_stride, lane_stride): (usize, usize),
) {
    if rows == 0 || n == 0 {
        return;
    }
    if let Some(bias) = bias {
        assert_eq!(bias.len(), n, "packed gemm bias length");
    }
    assert!(
        out.len() > (rows - 1) * row_stride + (n - 1) * lane_stride,
        "packed gemm output length"
    );
    let blocks = n.div_ceil(NR);
    let seed = |b: usize| {
        let mut lanes = [0.0f32; NR];
        if let Some(bias) = bias {
            let tail = &bias[b * NR..n.min((b + 1) * NR)];
            lanes[..tail.len()].copy_from_slice(tail);
        }
        lanes
    };
    // One match a call: each store's sweep is compiled with its rounding
    // and activation inline, so the tile's store is a fixed vector
    // sequence (a match per stored chain made a 128-row, 16-step GEMM
    // 13-20 % slower).
    let sink = Sink {
        out,
        post: (),
        n,
        row_stride,
        lane_stride,
    };
    match post {
        Store::Exact => gemm_sweep::<W>(&seg, rows, blocks, seed, sink.with(|v| v)),
        Store::Bf16 => gemm_sweep::<W>(&seg, rows, blocks, seed, sink.with(bf16_round)),
        Store::Relu => {
            let relu = |v| Store::Relu.apply(v);
            gemm_sweep::<W>(&seg, rows, blocks, seed, sink.with(relu))
        }
        Store::LeakyRelu(a) => {
            let leaky = move |v| Store::LeakyRelu(a).apply(v);
            gemm_sweep::<W>(&seg, rows, blocks, seed, sink.with(leaky))
        }
    }
}

/// [`gemm_packed_body`] past its checks, for one store.
#[inline(always)]
fn gemm_sweep<const W: usize>(
    seg: &Segment<'_>,
    rows: usize,
    blocks: usize,
    seed: impl Fn(usize) -> [f32; NR],
    mut sink: Sink<'_, impl Fn(f32) -> f32>,
) {
    let full = rows - rows % MR;
    let paired = blocks - blocks % (W / NR);
    for b in (0..paired).step_by(W / NR) {
        row_block::<W>(seg, full, b, &seed, &mut sink);
    }
    for b in paired..blocks {
        row_block::<NR>(seg, full, b, &seed, &mut sink);
    }
    for r in full..rows {
        for b0 in (0..blocks).step_by(MR) {
            match blocks - b0 {
                1 => row_tail::<1>(seg, r, b0, &seed, &mut sink),
                2 => row_tail::<2>(seg, r, b0, &seed, &mut sink),
                3 => row_tail::<3>(seg, r, b0, &seed, &mut sink),
                _ => row_tail::<MR>(seg, r, b0, &seed, &mut sink),
            }
        }
    }
}

/// Where [`gemm_packed`] writes: `post` of lane `l` of row `r`'s lane
/// block `b` goes to `out[r * row_stride + (b * NR + l) * lane_stride]`,
/// for the lanes below `n`.
struct Sink<'o, P> {
    out: &'o mut [f32],
    post: P,
    n: usize,
    row_stride: usize,
    lane_stride: usize,
}

impl<'o> Sink<'o, ()> {
    /// This sink, storing `post` of each sum.
    #[inline(always)]
    fn with<P: Fn(f32) -> f32>(self, post: P) -> Sink<'o, P> {
        let Sink {
            out,
            n,
            row_stride,
            lane_stride,
            ..
        } = self;
        Sink {
            out,
            post,
            n,
            row_stride,
            lane_stride,
        }
    }
}

impl<P: Fn(f32) -> f32> Sink<'_, P> {
    /// Stores a chain of `W` lanes, lane blocks `b..b + W / NR` of row `r`.
    #[inline(always)]
    fn store<const W: usize>(&mut self, lanes: &[f32; W], r: usize, b: usize) {
        let base = r * self.row_stride + b * NR * self.lane_stride;
        let valid = W.min(self.n - b * NR);
        if self.lane_stride == 1 {
            write_lanes(&mut self.out[base..base + valid], lanes, &self.post);
        } else {
            for (l, &v) in lanes.iter().enumerate().take(valid) {
                self.out[base + l * self.lane_stride] = (self.post)(v);
            }
        }
    }
}

/// Rows `0..full` of [`gemm_packed`] against lane blocks `b..b + W / NR`,
/// [`MR`] rows to a tile.
#[inline(always)]
fn row_block<const W: usize>(
    seg: &Segment<'_>,
    full: usize,
    b: usize,
    seed: impl Fn(usize) -> [f32; NR],
    sink: &mut Sink<'_, impl Fn(f32) -> f32>,
) {
    let lanes = join(&seed(b), &seed(b + W / NR - 1));
    for r0 in (0..full).step_by(MR) {
        let mut acc = [lanes; MR];
        seg.accumulate_rows::<W>(&mut acc, b, r0);
        for (c, chain) in acc.iter().enumerate() {
            sink.store(chain, r0 + c, b);
        }
    }
}

/// One tail row `r` of [`gemm_packed`] against lane blocks `b0..b0 + C`,
/// one chain per block.
#[inline(always)]
fn row_tail<const C: usize>(
    seg: &Segment<'_>,
    r: usize,
    b0: usize,
    seed: impl Fn(usize) -> [f32; NR],
    sink: &mut Sink<'_, impl Fn(f32) -> f32>,
) {
    let mut acc = each([0.0; NR], |c| seed(b0 + c));
    seg.accumulate_blocks::<C>(&mut acc, r, b0);
    for (c, lanes) in acc.iter().enumerate() {
        sink.store(lanes, r, b0 + c);
    }
}

/// The rows of a stacked `[4 * hidden, hidden]` recurrent weight matrix
/// (gate order `i, f, g, o`) in the order [`lstm_steps`] reads them as
/// lanes, for [`pack_bt_panels`] to pack: for each block of [`NR`] hidden
/// units, gate by gate, `NR` rows, zero past `hidden`. Packed, panel `4 * b
/// + q` is gate `q`'s rows for units `b * NR..`, word `j` their column `j`.
/// A permutation and zero padding of the operand: returns the rows and
/// their count, `hidden.div_ceil(NR) * 4 * NR`.
pub fn lstm_recurrent_rows(wh: &[f32], hidden: usize) -> (Vec<f32>, usize) {
    assert_eq!(
        wh.len(),
        4 * hidden * hidden,
        "lstm recurrent weight length"
    );
    let m = hidden.div_ceil(NR) * 4 * NR;
    let mut rows = vec![0.0; m * hidden];
    for b in 0..hidden.div_ceil(NR) {
        for q in 0..4 {
            for l in 0..NR.min(hidden - b * NR) {
                let (unit, row) = (b * NR + l, (4 * b + q) * NR + l);
                rows[row * hidden..][..hidden]
                    .copy_from_slice(&wh[(q * hidden + unit) * hidden..][..hidden]);
            }
        }
    }
    (rows, m)
}

instances! {
    /// The LSTM's recurrence over `steps` timesteps of every sample of a
    /// batch, from the input half's partials to the last hidden state.
    ///
    /// `partials` is `[batch, steps, 4 * hidden]`: row `(s, t)` holds gate
    /// `g`'s (order `i, f, g, o`) `bias[g] + W_x[g] · x_t` for sample `s` at
    /// step `t`, accumulated in increasing input order and **not rounded**
    /// (one [`gemm_packed`] over every sample's sequence-major rows, storing
    /// [`Store::Exact`], writes it). `wh` is [`lstm_recurrent_rows`] packed;
    /// `state` is a workspace of `3 * batch * hidden` elements; the last
    /// hidden states land in `out`, `[batch, hidden]`.
    ///
    /// Step by step, sample by sample, each block of `W` hidden units keeps
    /// its four gates as four register chains: seeded from the partials,
    /// they run `W_h h` in increasing `j` against the previous step's `h`
    /// broadcast (a row-tail tile, one chain per gate) and go straight into
    /// the cell, `c = bf16(σ(f)·c + σ(i)·tanh(g))` then `h =
    /// bf16(σ(o)·tanh(c))`, lane by lane with [`crate::math`]'s scalar
    /// `sigmoid` and `tanh`. No gate vector is written. Every gate's chain
    /// is the reference's bias → `W_x x_t` → `W_h h` in its order, and every
    /// cell operation and rounding point the reference's: same bits. `h` and
    /// `c` start at zero, as the reference's do.
    ///
    /// # Panics
    ///
    /// Panics unless the buffers have those lengths and `steps > 0`.
    pub(crate) fn lstm_steps(
        wh: &[f32],
        partials: &[f32],
        batch: usize,
        steps: usize,
        hidden: usize,
        state: &mut [f32],
        out: &mut [f32],
    ) => lstm_steps_body;
    "avx2" => NR,
}

/// [`lstm_steps`]' one body, inlined into every instance, at `NR` hidden
/// units a block (`W`, the macro's lane width, is `NR` in every
/// instance); lanes past `hidden` compute on zero weights and are not
/// stored.
#[inline(always)]
fn lstm_steps_body<const W: usize>(
    wh: &[f32],
    partials: &[f32],
    batch: usize,
    steps: usize,
    hidden: usize,
    state: &mut [f32],
    out: &mut [f32],
) {
    const { assert!(W == NR, "the LSTM step runs NR units a block") };
    let blocks = hidden.div_ceil(NR);
    let sample = 4 * hidden * steps;
    assert!(steps > 0, "an LSTM needs at least one timestep");
    assert_eq!(wh.len(), blocks * 4 * NR * hidden, "lstm recurrent panels");
    assert_eq!(partials.len(), batch * sample, "lstm partials length");
    assert_eq!(state.len(), 3 * batch * hidden, "lstm state length");
    assert_eq!(out.len(), batch * hidden, "lstm output length");
    let panels = wh.as_chunks::<NR>().0;
    let (c, hs) = state.split_at_mut(batch * hidden);
    let (mut h, mut next) = hs.split_at_mut(batch * hidden);
    c.fill(0.0);
    h.fill(0.0);
    // Step-major: the samples of one step are independent chains, so the
    // CPU overlaps them where one sample's steps would wait on each other.
    for t in 0..steps {
        for (s, xw) in partials.chunks_exact(sample).enumerate() {
            let step = LstmStep {
                panels,
                xw: &xw[t * 4 * hidden..][..4 * hidden],
                hidden,
            };
            let at = s * hidden..(s + 1) * hidden;
            let (c, h, next) = (&mut c[at.clone()], &h[at.clone()], &mut next[at]);
            for b in 0..blocks {
                step.block(b, c, h, next);
            }
        }
        std::mem::swap(&mut h, &mut next);
    }
    out.copy_from_slice(h);
}

/// One timestep of one sample in [`lstm_steps`]: its partials `xw`
/// (`[4 * hidden]`, the step's row) against the recurrent panels.
struct LstmStep<'a> {
    panels: &'a [[f32; NR]],
    xw: &'a [f32],
    hidden: usize,
}

impl LstmStep<'_> {
    /// Gate `q`'s words for unit block `b`, one per column `j`.
    #[inline(always)]
    fn words(&self, b: usize, q: usize) -> &[[f32; NR]] {
        &self.panels[(4 * b + q) * self.hidden..][..self.hidden]
    }

    /// Units `b * NR..` (block `b`): the four gates from the partials
    /// through `W_h h` into the cell; `c` is updated in place and the new
    /// `h` written to `next`.
    #[inline(always)]
    fn block(&self, b: usize, c: &mut [f32], h: &[f32], next: &mut [f32]) {
        let (j0, hidden) = (b * NR, self.hidden);
        let live = NR.min(hidden - j0);
        let mut gates: [[f32; NR]; 4] = each([0.0; NR], |q| {
            load_lanes(&self.xw[q * hidden + j0..][..live])
        });
        let words: [_; 4] = each(&[][..], |q| self.words(b, q));
        row_tail_tile(&mut gates, h, |q, j| words[q][j]);
        let [i, f, g, o] = gates;
        let old = load_lanes::<NR>(&c[j0..][..live]);
        let (mut cell, mut out) = ([0.0; NR], [0.0; NR]);
        for l in 0..NR {
            cell[l] = bf16_round(sigmoid(f[l]) * old[l] + sigmoid(i[l]) * tanh(g[l]));
            out[l] = bf16_round(sigmoid(o[l]) * tanh(cell[l]));
        }
        store_lanes(&mut c[j0..][..live], &cell, Store::Exact);
        store_lanes(&mut next[j0..][..live], &out, Store::Exact);
    }
}

/// `src` (at most `W` elements) as a `W`-lane word, zero past its end.
#[inline(always)]
fn load_lanes<const W: usize>(src: &[f32]) -> [f32; W] {
    match src.first_chunk::<W>() {
        Some(word) => *word,
        None => {
            let mut word = [0.0; W];
            word[..src.len()].copy_from_slice(src);
            word
        }
    }
}

/// One sample's shape for [`conv2d_direct_bf16`]: an `[in_c, h, w]` input,
/// an `[out_c, in_c, kh, kw]` kernel at unit vertical stride and
/// horizontal stride `sw`, `ph` zero rows above and below the input and
/// no horizontal padding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DirectConv {
    /// Input channels.
    pub in_c: usize,
    /// Input rows.
    pub h: usize,
    /// Input columns.
    pub w: usize,
    /// Kernel rows.
    pub kh: usize,
    /// Kernel columns.
    pub kw: usize,
    /// Horizontal stride.
    pub sw: usize,
    /// Zero rows padded above and below.
    pub ph: usize,
    /// Output channels.
    pub out_c: usize,
}

impl DirectConv {
    /// Output rows and columns, `(h + 2 * ph + 1 - kh, (w - kw) / sw + 1)`.
    ///
    /// # Panics
    ///
    /// Panics unless the kernel fits the padded input and `sw > 0`.
    pub fn output_hw(&self) -> (usize, usize) {
        assert!(
            self.h > 0 && self.kh > 0 && self.kh <= self.h + 2 * self.ph,
            "direct conv kernel height"
        );
        assert!(
            self.kw > 0 && self.kw <= self.w && self.sw > 0,
            "direct conv kernel width"
        );
        let ow = conv_out_len(self.w as u64, self.kw as u64, self.sw as u64, 0);
        (self.h + 2 * self.ph + 1 - self.kh, ow as usize)
    }
}

instances! {
    /// Direct convolution for every kernel at unit vertical stride with no
    /// horizontal padding: the temporal `(kh, 1)` convolutions, the 1x1 and
    /// same-padded inception branches, DeepLOB's strided level folds (`(1, 2)`
    /// at stride 2, `(1, 10)`) — every convolution of the three benchmark
    /// networks but the CNN's full-width first layer, which `Conv2d` sweeps as
    /// a GEMM over its input in place. Bit-identical to an unfolded patch
    /// matrix swept by [`gemm_packed`].
    ///
    /// Tap `t = (ic, ky, kx)`'s patch column, at output position
    /// `p = oy * ow + ox`, is channel `ic` at row `oy + ky - ph` and column
    /// `ox * sw + kx`, so no patch matrix is materialized. A block of `W`
    /// consecutive output positions reads one `W`-lane word per tap, zero
    /// where the row leaves the channel, in one of three ways:
    ///
    /// * **in place** where the positions are contiguous in the channel (`kw
    ///   == 1`, `sw == 1`), the block is full and every tap's window lies
    ///   inside its channel: the tile loads tap `(ic, ky)`'s word straight
    ///   from `x`, one channel's `kh` taps after another;
    /// * **shifted** for the other blocks of such a map: tap `(ic, ky)`'s
    ///   staged word is channel `ic` shifted by `(ky - ph)` rows, one masked
    ///   load;
    /// * **gathered** where the positions are not contiguous (`kw > 1` or
    ///   `sw > 1`): each staged lane is the element its position reads, from
    ///   a per-block table of each lane's row and column.
    ///
    /// The block's tiles of up to [`MR`] output channels (the last group runs
    /// only the channels left), whose weights are the broadcast inputs, then
    /// run all `in_c * kh * kw` taps with their accumulators in registers.
    /// Per output element the accumulation order is exactly the GEMM's:
    /// seeded with the bias, taps in increasing `(ic, ky, kx)` order, and
    /// stored once as `post` says (BF16-rounded, and activated where the
    /// layer is), as [`gemm_packed`] stores.
    /// Padded taps read the staged zeros and add `weight * 0.0`, exactly as
    /// the GEMM multiplies the patch matrix's materialized zeros.
    ///
    /// `a` is the row-major `[out_c, in_c * kh * kw]` kernel matrix; `x` is one
    /// `[in_c, h, w]` sample; `stage` is a workspace of
    /// [`conv2d_direct_stage_len`] elements; `out` is the `[out_c, oh * ow]`
    /// output.
    ///
    /// # Panics
    ///
    /// Panics on buffer-length mismatches.
    pub fn conv2d_direct_bf16(
        conv: DirectConv,
        a: &[f32],
        bias: &[f32],
        x: &[f32],
        stage: &mut [f32],
        post: Store,
        out: &mut [f32],
    ) => conv2d_direct_body;
    // More than `NR` positions, with no division: `out` is `[out_c, oh * ow]`.
    "avx512f" => { 2 * NR } if out.len() > NR * conv.out_c,
    "avx2" => NR,
}

/// [`conv2d_direct_bf16`]'s one body, inlined into every instance, at `W`
/// positions a block.
#[inline(always)]
fn conv2d_direct_body<const W: usize>(
    conv: DirectConv,
    a: &[f32],
    bias: &[f32],
    x: &[f32],
    stage: &mut [f32],
    post: Store,
    out: &mut [f32],
) {
    let DirectConv {
        in_c,
        h,
        w,
        kh,
        kw,
        ph,
        out_c,
        ..
    } = conv;
    let (oh, ow) = conv.output_hw();
    let (k, positions) = (in_c * kh * kw, oh * ow);
    assert_eq!(a.len(), out_c * k, "direct conv kernel length");
    assert_eq!(bias.len(), out_c, "direct conv bias length");
    assert_eq!(x.len(), in_c * h * w, "direct conv input length");
    assert_eq!(
        stage.len(),
        conv2d_direct_stage_len(in_c, kh, kw),
        "direct conv workspace length"
    );
    assert_eq!(out.len(), out_c * positions, "direct conv output length");
    let words = &mut stage.as_chunks_mut::<W>().0[..k];
    let mut next = (0, 0);
    for p0 in (0..positions).step_by(W) {
        if ow == w {
            // A full block whose tap windows `p0 + (ky - ph) * w..` all
            // lie inside their channels needs no stage.
            let first = p0 + W <= positions && p0 >= ph * w;
            if first && p0 + (kh - 1) * w + W <= (h + ph) * w {
                let taps = InPlace {
                    x: &x[p0 - ph * w..],
                    conv,
                };
                direct_tiles::<W>(a, bias, &taps, p0, positions, post, out);
                continue;
            }
            shifted_words(conv, x, p0, positions, words);
        } else {
            gathered_words(conv, ow, x, &mut next, W.min(positions - p0), words);
        }
        direct_tiles(a, bias, &Staged(&*words), p0, positions, post, out);
    }
}

/// Stages the block at `p0` of a map whose positions are contiguous in
/// the channel (`kw == 1`, `sw == 1`): tap `(ic, ky)`'s lane `l` reads
/// channel `ic` at `p0 + l + (ky - ph) * w` if that lies in the channel
/// and `p0 + l` is a position; any other lane is a padded tap's zero.
/// Which lanes read depends on `ky` alone.
#[inline(always)]
fn shifted_words<const W: usize>(
    conv: DirectConv,
    x: &[f32],
    p0: usize,
    positions: usize,
    words: &mut [[f32; W]],
) {
    let DirectConv { h, w, kh, ph, .. } = conv;
    let hw = (h * w) as isize;
    let live = (positions - p0) as isize;
    for ky in 0..kh {
        let at = p0 as isize + (ky as isize - ph as isize) * w as isize;
        let lo = (-at).clamp(0, W as isize) as usize;
        let hi = (hw - at).min(live).clamp(lo as isize, W as isize) as usize;
        let mask = lane_mask::<W>(lo..hi);
        for ic in 0..conv.in_c {
            let word = &mut words[ic * kh + ky];
            shifted_word(x, ic as isize * hw + at, &mask, lo..hi, word);
        }
    }
}

/// Stages a block of `live` positions of a strided or wide kernel, the
/// first at output row and column `at`, which it advances past the block:
/// tap `(ic, ky, kx)`'s lane `l` reads channel `ic` at row `oy + ky - ph`
/// and column `ox * sw + kx` of lane `l`'s position `(oy, ox)`, zero where
/// that row leaves the channel and in lanes past `live`.
#[inline(always)]
fn gathered_words<const W: usize>(
    conv: DirectConv,
    ow: usize,
    x: &[f32],
    at: &mut (usize, usize),
    live: usize,
    words: &mut [[f32; W]],
) {
    let DirectConv {
        in_c,
        h,
        w,
        kh,
        kw,
        sw,
        ph,
        ..
    } = conv;
    // Each lane's output row, and its first column's offset from its
    // row's start in a channel.
    let (mut rows, mut cols) = ([0usize; W], [0usize; W]);
    let (mut oy, mut ox) = *at;
    for l in 0..live {
        (rows[l], cols[l]) = (oy, oy * w + ox * sw);
        ox += 1;
        if ox == ow {
            (oy, ox) = (oy + 1, 0);
        }
    }
    *at = (oy, ox);
    let last = x.len() - 1;
    for ky in 0..kh {
        // All ones where lane `l` is a position whose row `oy + ky - ph`
        // lies in the channel. A masked lane loads some element of `x`
        // (its index clamped) and stages zero.
        let mask: [u32; W] = each(0, |l| {
            let iy = rows[l] + ky;
            if l < live && iy >= ph && iy < h + ph {
                u32::MAX
            } else {
                0
            }
        });
        for ic in 0..in_c {
            let row0 = (ic * h + ky) * w;
            for kx in 0..kw {
                let word = &mut words[(ic * kh + ky) * kw + kx];
                let base = (row0 + kx).wrapping_sub(ph * w);
                for l in 0..W {
                    let v = x[base.wrapping_add(cols[l]).min(last)];
                    word[l] = f32::from_bits(v.to_bits() & mask[l]);
                }
            }
        }
    }
}

/// All ones in lanes `live`, zero in the others (`W <= 2 * NR`): two
/// loads from sliding windows and an `and`, not a compare per lane.
#[inline(always)]
fn lane_mask<const W: usize>(live: std::ops::Range<usize>) -> [u32; W] {
    const FROM: [u32; 4 * NR] = {
        let mut m = [u32::MAX; 4 * NR];
        let mut l = 0;
        while l < 2 * NR {
            m[l] = 0;
            l += 1;
        }
        m
    };
    // `FROM[2 * NR - lo + l]` is set iff `l >= lo`; `UNTIL[2 * NR - hi +
    // l]` iff `l < hi`.
    const UNTIL: [u32; 4 * NR] = {
        let mut m = [0; 4 * NR];
        let mut l = 0;
        while l < 2 * NR {
            m[l] = u32::MAX;
            l += 1;
        }
        m
    };
    let from: &[u32; W] = FROM[2 * NR - live.start..]
        .first_chunk()
        .expect("W <= 2 * NR");
    let until: &[u32; W] = UNTIL[2 * NR - live.end..]
        .first_chunk()
        .expect("W <= 2 * NR");
    each(0, |l| from[l] & until[l])
}

/// Writes `x[start + l]` to the lanes of `live` (where `mask` is all
/// ones) and zero to the others. Where all `W` lanes lie in `x` (every
/// tap but those at a sample's two ends), that is one load and one
/// `and`, with no call and no per-lane branch.
#[inline(always)]
fn shifted_word<const W: usize>(
    x: &[f32],
    start: isize,
    mask: &[u32; W],
    live: std::ops::Range<usize>,
    word: &mut [f32; W],
) {
    let window = usize::try_from(start)
        .ok()
        .and_then(|s| x.get(s..))
        .and_then(|rest| rest.first_chunk::<W>());
    match window {
        Some(window) => {
            for l in 0..W {
                word[l] = f32::from_bits(window[l].to_bits() & mask[l]);
            }
        }
        None => {
            *word = [0.0; W];
            if !live.is_empty() {
                let from = (start + live.start as isize) as usize;
                word[live.clone()].copy_from_slice(&x[from..][..live.len()]);
            }
        }
    }
}

/// Where a block of [`conv2d_direct_bf16`] reads its tap words.
trait Taps<const W: usize> {
    /// Taps per output: `in_c * kh * kw`.
    fn len(&self) -> usize;

    /// Runs every tap of the block through `acc`, in increasing `(ic, ky,
    /// kx)` order, chain `c` broadcasting `rows[c][t]` across tap `t`'s
    /// word.
    fn sweep<const C: usize>(&self, acc: &mut [[f32; W]; C], rows: [&[f32]; C]);
}

/// The words staged in the workspace, one per tap.
struct Staged<'a, const W: usize>(&'a [[f32; W]]);

impl<const W: usize> Taps<W> for Staged<'_, W> {
    #[inline(always)]
    fn len(&self) -> usize {
        self.0.len()
    }

    #[inline(always)]
    fn sweep<const C: usize>(&self, acc: &mut [[f32; W]; C], rows: [&[f32]; C]) {
        shared_panel_tile(acc, rows, |t| self.0[t]);
    }
}

/// A full block of positions contiguous in the channel (`kw == 1`, `sw ==
/// 1`) whose every tap window lies inside its channel: tap `(ic, ky)`'s
/// word is the `W` elements at `x[ic * h * w + ky * w..]`, read where they
/// lie (`x` starts at the block's first tap of channel 0).
struct InPlace<'a> {
    x: &'a [f32],
    conv: DirectConv,
}

impl<const W: usize> Taps<W> for InPlace<'_> {
    #[inline(always)]
    fn len(&self) -> usize {
        self.conv.in_c * self.conv.kh
    }

    #[inline(always)]
    fn sweep<const C: usize>(&self, acc: &mut [[f32; W]; C], rows: [&[f32]; C]) {
        let DirectConv { in_c, h, w, kh, .. } = self.conv;
        for ic in 0..in_c {
            let chan = &self.x[ic * h * w..][..(kh - 1) * w + W];
            let taps = each(&[][..], |c| &rows[c][ic * kh..][..kh]);
            shared_panel_tile(acc, taps, |ky| {
                *chan[ky * w..]
                    .first_chunk()
                    .expect("a tap window in its channel")
            });
        }
    }
}

/// Every output channel of [`conv2d_direct_bf16`] at positions `p0..p0 +
/// W`, in tiles of up to [`MR`] channels (the last group runs only the
/// channels left), one chain per channel, each tile sweeping every tap
/// word of `taps` in one pass.
#[inline(always)]
fn direct_tiles<const W: usize>(
    a: &[f32],
    bias: &[f32],
    taps: &impl Taps<W>,
    p0: usize,
    positions: usize,
    post: Store,
    out: &mut [f32],
) {
    let out_c = bias.len();
    for oc0 in (0..out_c).step_by(MR) {
        let at = (oc0, p0, positions);
        match out_c - oc0 {
            1 => direct_tile::<1, W>(a, bias, taps, at, post, out),
            2 => direct_tile::<2, W>(a, bias, taps, at, post, out),
            3 => direct_tile::<3, W>(a, bias, taps, at, post, out),
            _ => direct_tile::<MR, W>(a, bias, taps, at, post, out),
        }
    }
}

/// Output channels `oc0..oc0 + C` of [`conv2d_direct_bf16`] at positions
/// `p0..p0 + W` (of `positions`), seeded with the bias and stored once as
/// `post` of the sum.
#[inline(always)]
fn direct_tile<const C: usize, const W: usize>(
    a: &[f32],
    bias: &[f32],
    taps: &impl Taps<W>,
    (oc0, p0, positions): (usize, usize, usize),
    post: Store,
    out: &mut [f32],
) {
    let k = taps.len();
    let rows: [_; C] = each(&[][..], |c| &a[(oc0 + c) * k..][..k]);
    let mut acc = each([0.0; W], |c| [bias[oc0 + c]; W]);
    taps.sweep(&mut acc, rows);
    let valid = W.min(positions - p0);
    for (c, lanes) in acc.iter().enumerate() {
        let dst = &mut out[(oc0 + c) * positions + p0..][..valid];
        store_lanes(dst, lanes, post);
    }
}

/// Workspace length [`conv2d_direct_bf16`] needs: one widest block's
/// staged word per tap, `in_c * kh * kw` of them.
pub fn conv2d_direct_stage_len(in_c: usize, kh: usize, kw: usize) -> usize {
    in_c * kh * kw * 2 * NR
}

/// Query lanes [`attention_sample`] keeps per key: its largest query
/// block.
pub(crate) const ATTENTION_LANES: usize = 2 * NR;

instances! {
    /// Multi-head self-attention's core over one sample: for every head,
    /// `context = softmax(Q K^T * scale) V` on that head's columns, per query
    /// row bit for bit the reference's scores, row softmax and context.
    ///
    /// `qt` is the sample's `[t, d]` queries packed by [`pack_bt_panels`];
    /// `k` is its row-major `[t, d]` keys, and `v` its row-major values
    /// followed by at least [`NR`] more elements (a head's last column block
    /// reads past its columns into lanes nobody stores). `probs` is a
    /// workspace of `t * ATTENTION_LANES` elements; `context` is the
    /// sample's `[t, d]` output.
    ///
    /// Each (head, block of query rows) is one pass, with the queries on the
    /// lanes, so every row reduction runs down a lane:
    /// * the scores are a register tile whose chains are keys, several in
    ///   flight, and whose lanes are queries (a Q panel word per head column,
    ///   the key's column broadcast), seeded with `0.0` and accumulated in
    ///   increasing column order, then `* scale`; the running max takes them
    ///   in key order from `-inf`;
    /// * `exp(score - max)` is summed in key order from `0.0`, then each is
    ///   divided by its lane's sum — the row softmax's own steps, in its
    ///   order;
    /// * the context is a tile whose chains are queries and whose lanes are
    ///   the head's value columns, each key's probability broadcast from the
    ///   block, seeded with `0.0` and accumulated in key order.
    ///
    /// Every product has the operands the reference multiplies, and every
    /// sum its order: same bits.
    ///
    /// # Panics
    ///
    /// Panics unless `heads` divides `d` and the buffers have those lengths.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn attention_sample(
        qt: &[f32],
        k: &[f32],
        v: &[f32],
        t: usize,
        d: usize,
        heads: usize,
        probs: &mut [f32],
        context: &mut [f32],
    ) => attention_sample_body;
    "avx512f" => { 2 * NR } if t > NR,
    "avx2" => NR,
}

/// [`attention_sample`]'s one body, inlined into every instance: query
/// blocks of `W` rows (`NR`, or `2 * NR`: neighbouring panels in pairs,
/// an odd last panel alone at `NR`).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn attention_sample_body<const W: usize>(
    qt: &[f32],
    k: &[f32],
    v: &[f32],
    t: usize,
    d: usize,
    heads: usize,
    probs: &mut [f32],
    context: &mut [f32],
) {
    assert!(
        heads > 0 && d.is_multiple_of(heads),
        "heads must divide d_model"
    );
    let blocks = t.div_ceil(NR);
    assert_eq!(qt.len(), blocks * NR * d, "attention packed-query length");
    assert_eq!(k.len(), t * d, "attention key length");
    assert!(v.len() >= t * d + NR, "attention value length");
    assert_eq!(
        probs.len(),
        t * ATTENTION_LANES,
        "attention workspace length"
    );
    assert_eq!(context.len(), t * d, "attention context length");
    if t == 0 || d == 0 {
        return;
    }
    let d_head = d / heads;
    let paired = blocks - blocks % (W / NR);
    for off in (0..d).step_by(d_head) {
        let head = AttentionHead {
            qt,
            k,
            v,
            t,
            d,
            off,
            d_head,
            scale: 1.0 / (d_head as f32).sqrt(),
        };
        for b in (0..paired).step_by(W / NR) {
            head.block::<W>(b, probs, context);
        }
        for b in paired..blocks {
            head.block::<NR>(b, probs, context);
        }
    }
}

/// One head of [`attention_sample`]: its columns `off..off + d_head` of
/// the sample's packed queries, keys and values.
struct AttentionHead<'a> {
    qt: &'a [f32],
    k: &'a [f32],
    v: &'a [f32],
    t: usize,
    d: usize,
    off: usize,
    d_head: usize,
    scale: f32,
}

impl AttentionHead<'_> {
    /// Query panel `b`'s words at this head's columns: one per column.
    #[inline(always)]
    fn queries(&self, b: usize) -> &[[f32; NR]] {
        let panel = &self.qt[b * NR * self.d..][..NR * self.d];
        &panel.as_chunks().0[self.off..][..self.d_head]
    }

    /// Query rows `b * NR..` (`W` lanes: panel `b`, and at `2 * NR` panel
    /// `b + 1` too) through scores, softmax and context.
    #[inline(always)]
    fn block<const W: usize>(&self, b: usize, probs: &mut [f32], context: &mut [f32]) {
        let t = self.t;
        let (lo, hi) = (self.queries(b), self.queries(b + W / NR - 1));
        let probs = &mut probs.as_chunks_mut::<W>().0[..t];
        let mut max = [f32::NEG_INFINITY; W];
        for j0 in (0..t).step_by(MR) {
            match t - j0 {
                1 => self.scores::<1, W>(lo, hi, j0, probs, &mut max),
                2 => self.scores::<2, W>(lo, hi, j0, probs, &mut max),
                3 => self.scores::<3, W>(lo, hi, j0, probs, &mut max),
                _ => self.scores::<MR, W>(lo, hi, j0, probs, &mut max),
            }
        }
        let mut sum = [0.0f32; W];
        for p in probs.iter_mut() {
            for l in 0..W {
                p[l] = exp(p[l] - max[l]);
                sum[l] += p[l];
            }
        }
        for p in probs.iter_mut() {
            for l in 0..W {
                p[l] /= sum[l];
            }
        }
        let probs = &*probs;
        let live = W.min(t - b * NR);
        for i0 in (0..live).step_by(MR) {
            match live - i0 {
                1 => self.context::<1, W>(probs, b * NR + i0, i0, context),
                2 => self.context::<2, W>(probs, b * NR + i0, i0, context),
                3 => self.context::<3, W>(probs, b * NR + i0, i0, context),
                _ => self.context::<MR, W>(probs, b * NR + i0, i0, context),
            }
        }
    }

    /// Keys `j0..j0 + C` against the block's `W` queries: one chain per
    /// key, the block's query word at each head column against the key's
    /// column; the scaled scores land in `probs[j0 + c]` and the running
    /// max takes them in key order.
    #[inline(always)]
    fn scores<const C: usize, const W: usize>(
        &self,
        lo: &[[f32; NR]],
        hi: &[[f32; NR]],
        j0: usize,
        probs: &mut [[f32; W]],
        max: &mut [f32; W],
    ) {
        let keys: [_; C] = each(&[][..], |c| {
            &self.k[(j0 + c) * self.d + self.off..][..self.d_head]
        });
        let mut acc = [[0.0; W]; C];
        shared_panel_tile(&mut acc, keys, |col| join(&lo[col], &hi[col]));
        for (chain, p) in acc.iter().zip(&mut probs[j0..]) {
            for l in 0..W {
                p[l] = chain[l] * self.scale;
                max[l] = max[l].max(p[l]);
            }
        }
    }

    /// Query rows `q0..q0 + C` (lanes `i0..` of the block's `probs`)
    /// against the head's value columns, [`NR`] to a lane block: one chain
    /// per query, each key's value word against the query's probability
    /// of it.
    #[inline(always)]
    fn context<const C: usize, const W: usize>(
        &self,
        probs: &[[f32; W]],
        q0: usize,
        i0: usize,
        context: &mut [f32],
    ) {
        assert!(i0 + C <= W, "query lanes of one block");
        let d = self.d;
        for c0 in (0..self.d_head).step_by(NR) {
            let values = &self.v[self.off + c0..][..(self.t - 1) * d + NR];
            let mut chains = [[0.0f32; NR]; C];
            for (j, p) in probs.iter().enumerate() {
                let word = lane_block(values, j * d);
                for (c, chain) in chains.iter_mut().enumerate() {
                    let pv = p[i0 + c];
                    for l in 0..NR {
                        chain[l] += word[l] * pv;
                    }
                }
            }
            let valid = NR.min(self.d_head - c0);
            for (c, chain) in chains.iter().enumerate() {
                let dst = &mut context[(q0 + c) * d + self.off + c0..][..valid];
                store_lanes(dst, chain, Store::Exact);
            }
        }
    }
}

instances! {
    /// Layer norm over every `gamma.len()`-wide row of the flat `x`, into
    /// `out`: per row, the mean and the variance about it (each an
    /// `Iterator::sum`-order fold from `-0.0`, one row per lane of
    /// [`fold_rows`]), then `(v - mean) * inv * gamma + beta` with `inv = 1 /
    /// sqrt(var / d + eps)` — `LayerNorm::forward_reference`'s arithmetic,
    /// bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if the buffers differ in length or are not whole rows.
    pub(crate) fn layer_norm_rows(
        x: &[f32],
        gamma: &[f32],
        beta: &[f32],
        eps: f32,
        out: &mut [f32],
    ) => layer_norm_rows_body;
    "avx512f" => { 2 * NR } if x.len() > NR * gamma.len(),
    "avx2" => NR,
}

/// [`layer_norm_rows`]' one body, inlined into every instance, at `L`
/// rows a block.
#[inline(always)]
fn layer_norm_rows_body<const L: usize>(
    x: &[f32],
    gamma: &[f32],
    beta: &[f32],
    eps: f32,
    out: &mut [f32],
) {
    let d = gamma.len();
    assert_eq!(beta.len(), d, "layer norm shift length");
    assert_eq!(x.len(), out.len(), "layer norm buffer lengths");
    assert!(
        d > 0 && x.len().is_multiple_of(d),
        "layer norm input is not whole rows"
    );
    // `Iterator::sum` seeds an `f32` sum with -0.0; so do the lanes.
    let width = d as f32;
    for (block, oblock) in x.chunks(L * d).zip(out.chunks_mut(L * d)) {
        let mean = fold_rows::<L>(block, d, -0.0, |s, v, _| s + v).map(|s| s / width);
        let var = fold_rows::<L>(block, d, -0.0, |s, v, l| s + (v - mean[l]).powi(2));
        let rows = block.chunks_exact(d).zip(oblock.chunks_exact_mut(d));
        for (l, (row, orow)) in rows.enumerate() {
            let inv = 1.0 / (var[l] / width + eps).sqrt();
            let affine = gamma.iter().zip(beta);
            for ((o, &v), (&g, &b)) in orow.iter_mut().zip(row).zip(affine) {
                *o = (v - mean[l]) * inv * g + b;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Unfolds a `[in_c, h, w]` input into im2col patch rows.
    ///
    /// `out` must hold `oh * ow * in_c * kh * kw` elements and is written as
    /// a row-major `[oh * ow, in_c * kh * kw]` matrix: one row per output
    /// position (scanning `oy` then `ox`), columns ordered `ic → ky → kx` to
    /// match the naive convolution's accumulation order. Taps that fall in
    /// the zero-padding region are stored as `0.0`.
    ///
    /// # Panics
    ///
    /// Panics if `x` or `out` have the wrong length.
    #[allow(clippy::too_many_arguments)]
    fn im2col(
        x: &[f32],
        in_c: usize,
        h: usize,
        w: usize,
        kh: usize,
        kw: usize,
        stride: (usize, usize),
        padding: (usize, usize),
        oh: usize,
        ow: usize,
        out: &mut [f32],
    ) {
        let k = in_c * kh * kw;
        assert_eq!(x.len(), in_c * h * w, "im2col input length");
        assert_eq!(out.len(), oh * ow * k, "im2col patch-buffer length");
        let (ph, pw) = padding;
        let mut row = 0usize;
        for oy in 0..oh {
            let base_y = oy * stride.0;
            for ox in 0..ow {
                let base_x = ox * stride.1;
                let patch = &mut out[row..row + k];
                let mut col = 0usize;
                for ic in 0..in_c {
                    let chan = &x[ic * h * w..(ic + 1) * h * w];
                    for ky in 0..kh {
                        let iy = base_y + ky;
                        if iy < ph || iy - ph >= h {
                            patch[col..col + kw].fill(0.0);
                            col += kw;
                            continue;
                        }
                        let src = &chan[(iy - ph) * w..(iy - ph + 1) * w];
                        if pw == 0 && base_x + kw <= w {
                            // Common case (no horizontal padding): one memcpy.
                            patch[col..col + kw].copy_from_slice(&src[base_x..base_x + kw]);
                            col += kw;
                        } else {
                            for kx in 0..kw {
                                let ix = base_x + kx;
                                patch[col] = if ix < pw || ix - pw >= w {
                                    0.0
                                } else {
                                    src[ix - pw]
                                };
                                col += 1;
                            }
                        }
                    }
                }
                row += k;
            }
        }
    }

    /// Scalar model of the naive convolution accumulation, for one output.
    #[allow(clippy::too_many_arguments)]
    fn naive_conv_cell(
        x: &[f32],
        kern: &[f32],
        bias: f32,
        (in_c, h, w): (usize, usize, usize),
        (kh, kw): (usize, usize),
        stride: (usize, usize),
        (ph, pw): (usize, usize),
        (oy, ox): (usize, usize),
        oc: usize,
    ) -> f32 {
        let mut acc = bias;
        let (base_y, base_x) = (oy * stride.0, ox * stride.1);
        for ic in 0..in_c {
            for ky in 0..kh {
                let iy = base_y + ky;
                if iy < ph || iy - ph >= h {
                    continue;
                }
                for kx in 0..kw {
                    let ix = base_x + kx;
                    if ix < pw || ix - pw >= w {
                        continue;
                    }
                    acc += kern[((oc * in_c + ic) * kh + ky) * kw + kx]
                        * x[(ic * h + iy - ph) * w + ix - pw];
                }
            }
        }
        bf16_round(acc)
    }

    #[test]
    fn im2col_gemm_matches_naive_conv_with_padding() {
        let (in_c, h, w) = (2usize, 4usize, 3usize);
        let (kh, kw) = (3usize, 2usize);
        let (stride, padding) = ((1usize, 1usize), (1usize, 1usize));
        let (oh, ow) = (4usize, 4usize); // (h + 2*1 - 3) + 1, (w + 2*1 - 2) + 1
        let out_c = 3usize;
        let k = in_c * kh * kw;
        let x: Vec<f32> = (0..in_c * h * w).map(|i| (i as f32 - 7.0) * 0.3).collect();
        let kern: Vec<f32> = (0..out_c * k)
            .map(|i| ((i % 11) as f32 - 5.0) * 0.1)
            .collect();
        let bias = vec![0.25, -0.5, 1.0];
        let mut patches = vec![0.0; oh * ow * k];
        im2col(
            &x,
            in_c,
            h,
            w,
            kh,
            kw,
            stride,
            padding,
            oh,
            ow,
            &mut patches,
        );
        let out = packed_gemm_bt(&kern, &patches, &bias, out_c, oh * ow, k);
        for oc in 0..out_c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let want = naive_conv_cell(
                        &x,
                        &kern,
                        bias[oc],
                        (in_c, h, w),
                        (kh, kw),
                        stride,
                        padding,
                        (oy, ox),
                        oc,
                    );
                    assert_eq!(
                        out[(oc * oh + oy) * ow + ox],
                        want,
                        "oc={oc} oy={oy} ox={ox}"
                    );
                }
            }
        }
    }

    #[test]
    fn matvec_matches_scalar_loop() {
        // One input row is the tail-row sweep: MR lane blocks per tile.
        for &(n, k) in &[(1usize, 9usize), (4, 9), (7, 13), (16, 9)] {
            let w: Vec<f32> = (0..n * k).map(|i| (i as f32).sin()).collect();
            let x: Vec<f32> = (0..k).map(|i| (i as f32).cos()).collect();
            let bias: Vec<f32> = (0..n).map(|i| i as f32 * 0.1).collect();
            let out = packed_linear(&w, &bias, &x, 1, k);
            for o in 0..n {
                let mut acc = bias[o];
                for t in 0..k {
                    acc += w[o * k + t] * x[t];
                }
                assert_eq!(
                    out[o].to_bits(),
                    bf16_round(acc).to_bits(),
                    "n={n} neuron {o}"
                );
            }
        }
    }

    /// `gemm_packed` as a dense layer: `[rows, k]` inputs against a
    /// packed `[n, k]` weight, BF16-rounded `[rows, n]` output.
    fn packed_linear(w: &[f32], bias: &[f32], x: &[f32], rows: usize, k: usize) -> Vec<f32> {
        let n = bias.len();
        let mut packed = Vec::new();
        pack_bt_panels(w, n, k, &mut packed);
        let mut out = vec![f32::NAN; rows * n];
        gemm_packed(
            Segment::packed(&packed, k, x, k),
            Some(bias),
            rows,
            n,
            Store::Bf16,
            &mut out,
            (n, 1),
        );
        out
    }

    /// `gemm_packed` laid out as an im2col convolution: the `[m, k]`
    /// operand `a` packed into the lanes, the `n` rows of `b` broadcast,
    /// BF16-rounded `[m, n]` output.
    fn packed_gemm_bt(
        a: &[f32],
        b: &[f32],
        bias: &[f32],
        m: usize,
        n: usize,
        k: usize,
    ) -> Vec<f32> {
        let mut packed = Vec::new();
        pack_bt_panels(a, m, k, &mut packed);
        let mut out = vec![f32::NAN; m * n];
        gemm_packed(
            Segment::packed(&packed, k, b, k),
            Some(bias),
            n,
            m,
            Store::Bf16,
            &mut out,
            (1, n),
        );
        out
    }

    #[test]
    fn tile_matches_scalar_loop_off_the_tile_grid() {
        // Lane tails (n % NR), row tails (rows % MR, rows < MR), empty
        // batches and empty reductions all run the one micro-kernel; a
        // tail row's last tile runs 1..=MR live chains (n up to 33 is up
        // to five lane blocks: one full tile and a one-chain remainder).
        for &n in &[1usize, 3, 7, 8, 9, 16, 17, 24, 25, 32, 33] {
            for &rows in &[0usize, 1, 2, 3, 4, 5, 7] {
                for &k in &[0usize, 1, 16, 160] {
                    let w: Vec<f32> = (0..n * k).map(|i| (i as f32 * 0.37).sin()).collect();
                    let x: Vec<f32> = (0..rows * k).map(|i| (i as f32 * 0.19).cos()).collect();
                    let bias: Vec<f32> = (0..n).map(|i| i as f32 * 0.1 - 0.2).collect();
                    let got = packed_linear(&w, &bias, &x, rows, k);
                    for r in 0..rows {
                        for o in 0..n {
                            let mut acc = bias[o];
                            for t in 0..k {
                                acc += w[o * k + t] * x[r * k + t];
                            }
                            assert_eq!(
                                got[r * n + o].to_bits(),
                                bf16_round(acc).to_bits(),
                                "n={n} rows={rows} k={k} r={r} o={o}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn packed_gemm_matches_unpacked_across_tile_boundaries() {
        // m spans below/at/above the lane block, n the row block and a
        // long run of full row blocks with every tail length after it.
        for &m in &[1usize, 3, 4, 5, 8, 9] {
            for &n in &[1usize, 63, 64, 65] {
                let k = 7usize;
                let a: Vec<f32> = (0..m * k).map(|i| (i as f32 * 0.37).sin()).collect();
                let b: Vec<f32> = (0..n * k).map(|i| (i as f32 * 0.19).cos()).collect();
                let bias: Vec<f32> = (0..m).map(|i| i as f32 * 0.1 - 0.2).collect();
                let got = packed_gemm_bt(&a, &b, &bias, m, n, k);
                for i in 0..m {
                    for j in 0..n {
                        let mut acc = bias[i];
                        for t in 0..k {
                            acc += a[i * k + t] * b[j * k + t];
                        }
                        assert_eq!(
                            got[i * n + j].to_bits(),
                            bf16_round(acc).to_bits(),
                            "m={m} n={n} i={i} j={j}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn direct_conv_padded_taps_add_signed_zeros_like_the_gemm() {
        // Same-padded (3, 1) kernel over an all-zero input with a -0.0
        // bias: every product is a signed zero, so the output's sign bit
        // records whether padded taps were added (`w * 0.0`) or skipped.
        // Tap 0 is positive and the rest negative: at the top edge the
        // padded tap 0 adds +0.0 and flips the -0.0 seed to +0.0, which
        // the negative real taps (-0.0 each) cannot flip back. Skipping
        // it would leave -0.0. Every out_c in 1..=9 puts 1..=MR live
        // chains in the last channel group, over two lane blocks of
        // positions; a random input is also checked against the scalar
        // loop, which skips padded taps (a nonzero sum hides the sign).
        let (in_c, h, w, kh, ph) = (2usize, 5usize, 3usize, 3usize, 1usize);
        let (k, positions) = (in_c * kh, h * w);
        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        let zeros = vec![0.0f32; in_c * h * w];
        let random: Vec<f32> = (0..in_c * h * w).map(|i| (i as f32 * 0.37).sin()).collect();
        for out_c in 1..=9 {
            let kern: Vec<f32> = (0..out_c * k)
                .map(|i| if i % k == 0 { 0.5 } else { -0.25 })
                .collect();
            let bias = vec![-0.0f32; out_c];
            let shape = DirectConv {
                in_c,
                h,
                w,
                kh,
                kw: 1,
                sw: 1,
                ph,
                out_c,
            };
            for (x, signed_zeros) in [(&zeros, true), (&random, false)] {
                let mut stage = vec![f32::NAN; conv2d_direct_stage_len(in_c, kh, 1)];
                let mut got = vec![f32::NAN; out_c * positions];
                conv2d_direct_bf16(shape, &kern, &bias, x, &mut stage, Store::Bf16, &mut got);
                let mut patches = vec![f32::NAN; positions * k];
                im2col(x, in_c, h, w, kh, 1, (1, 1), (ph, 0), h, w, &mut patches);
                let want = packed_gemm_bt(&kern, &patches, &bias, out_c, positions, k);
                assert_eq!(bits(&got), bits(&want), "out_c={out_c}");
                if signed_zeros {
                    let top = got[0].to_bits();
                    assert_eq!(top, 0.0f32.to_bits(), "out_c={out_c}: padded tap skipped");
                    continue;
                }
                for (i, v) in got.iter().enumerate() {
                    let (oc, p) = (i / positions, i % positions);
                    let cell = naive_conv_cell(
                        x,
                        &kern,
                        bias[oc],
                        (in_c, h, w),
                        (kh, 1),
                        (1, 1),
                        (ph, 0),
                        (p / w, p % w),
                        oc,
                    );
                    assert_eq!(v.to_bits(), cell.to_bits(), "out_c={out_c} oc={oc} p={p}");
                }
            }
        }
    }

    /// The scalar loops of one sample's attention core: per head, each
    /// query's scores (a column-order dot from `0.0`, then `* scale`),
    /// its row softmax (max from `-inf`, `exp(s - max)`, a key-order sum
    /// from `0.0`, divide) and its context (a key-order sum from `0.0`).
    fn attention_scalar(q: &[f32], k: &[f32], v: &[f32], t: usize, heads: usize) -> Vec<f32> {
        let d = q.len() / t;
        let d_head = d / heads;
        let scale = 1.0 / (d_head as f32).sqrt();
        let mut context = vec![f32::NAN; t * d];
        for off in (0..d).step_by(d_head) {
            for i in 0..t {
                let mut p: Vec<f32> = (0..t)
                    .map(|j| {
                        let mut dot = 0.0f32;
                        for c in off..off + d_head {
                            dot += q[i * d + c] * k[j * d + c];
                        }
                        dot * scale
                    })
                    .collect();
                let max = p.iter().fold(f32::NEG_INFINITY, |m, &s| m.max(s));
                let mut sum = 0.0f32;
                for s in &mut p {
                    *s = crate::math::exp(*s - max);
                    sum += *s;
                }
                for c in off..off + d_head {
                    let mut acc = 0.0f32;
                    for (j, s) in p.iter().enumerate() {
                        acc += s / sum * v[j * d + c];
                    }
                    context[i * d + c] = acc;
                }
            }
        }
        context
    }

    #[test]
    fn attention_instances_match_the_scalar_loops() {
        // Query counts below one panel, at it, and across pairs of panels
        // with an odd last one; head widths across a value column block.
        // The entry runs this CPU's instance, the body both widths
        // compiled for the baseline.
        let mut rng = StdRng::seed_from_u64(0xa77e);
        for _ in 0..150 {
            let t = rng.gen_range(1..=41usize);
            let (heads, d_head) = (rng.gen_range(1..=3usize), rng.gen_range(1..=10usize));
            let d = heads * d_head;
            let mut draw = |len: usize| -> Vec<f32> {
                (0..len).map(|_| rng.gen_range(-3.0f32..=3.0)).collect()
            };
            let (q, k, v) = (draw(t * d), draw(t * d), draw(t * d + NR));
            let want = bits(&attention_scalar(&q, &k, &v[..t * d], t, heads));
            let mut qt = Vec::new();
            pack_bt_panels(&q, t, d, &mut qt);
            type Sweep = fn(&[f32], &[f32], &[f32], usize, usize, usize, &mut [f32], &mut [f32]);
            let run = |sweep: Sweep| {
                let mut probs = vec![f32::NAN; t * ATTENTION_LANES];
                let mut context = vec![f32::NAN; t * d];
                sweep(&qt, &k, &v, t, d, heads, &mut probs, &mut context);
                bits(&context)
            };
            let shape = format!("t={t} heads={heads} d_head={d_head}");
            let isa = tile_isa();
            assert_eq!(
                run(attention_sample),
                want,
                "{shape}: {isa} entry vs scalar"
            );
            assert_eq!(run(attention_sample_body::<NR>), want, "{shape}: portable");
            assert_eq!(
                run(attention_sample_body::<{ 2 * NR }>),
                want,
                "{shape}: portable paired"
            );
        }
    }

    #[test]
    fn layer_norm_instances_match_the_scalar_loops() {
        // Row counts across one and several blocks of either width, with
        // a short last block; the entry and the body at both widths.
        let mut rng = StdRng::seed_from_u64(0x1a7e);
        for _ in 0..150 {
            let (rows, d) = (rng.gen_range(1..=40usize), rng.gen_range(1..=20usize));
            let x: Vec<f32> = (0..rows * d)
                .map(|_| rng.gen_range(-4.0f32..=4.0))
                .collect();
            let gamma: Vec<f32> = (0..d).map(|_| rng.gen_range(0.5f32..=1.5)).collect();
            let beta: Vec<f32> = (0..d).map(|_| rng.gen_range(-1.0f32..=1.0)).collect();
            let eps = 1e-5;
            let mut want = vec![f32::NAN; rows * d];
            for (row, orow) in x.chunks_exact(d).zip(want.chunks_exact_mut(d)) {
                let mean = row.iter().sum::<f32>() / d as f32;
                let var = row.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / d as f32;
                let inv = 1.0 / (var + eps).sqrt();
                for (c, o) in orow.iter_mut().enumerate() {
                    *o = (row[c] - mean) * inv * gamma[c] + beta[c];
                }
            }
            type Sweep = fn(&[f32], &[f32], &[f32], f32, &mut [f32]);
            let run = |sweep: Sweep| {
                let mut out = vec![f32::NAN; rows * d];
                sweep(&x, &gamma, &beta, eps, &mut out);
                bits(&out)
            };
            let (want, shape) = (bits(&want), format!("rows={rows} d={d}"));
            assert_eq!(run(layer_norm_rows), want, "{shape}: {} entry", tile_isa());
            assert_eq!(run(layer_norm_rows_body::<NR>), want, "{shape}: portable");
            let paired = run(layer_norm_rows_body::<{ 2 * NR }>);
            assert_eq!(paired, want, "{shape}: portable paired");
        }
    }

    #[test]
    fn lstm_step_instances_match_the_scalar_loops() {
        // Hidden widths below, at and across one and two unit blocks,
        // with every tail; every sweep width a streamed
        // tail runs at; one to eight steps. The partials come from the
        // input half as the layer runs it: one GEMM over every sample's
        // sequence-major rows, stored unrounded. The inputs draw NaN,
        // the infinities, signed zeros and ±100 among ordinary values, so
        // the gates reach every special value and a lane reading the wrong
        // gate, unit, step or sample shows in the bits. Rust leaves the
        // sign and payload of a NaN that arithmetic makes unspecified
        // (vector and scalar code differ in it), so every NaN counts as
        // one value. The entry runs this CPU's instance, the body both
        // widths compiled for the baseline.
        let bits = |v: &[f32]| -> Vec<u32> {
            v.iter()
                .map(|f| if f.is_nan() { f32::NAN } else { *f }.to_bits())
                .collect()
        };
        let specials = [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
            100.0,
            -100.0,
        ];
        let mut rng = StdRng::seed_from_u64(0x157c);
        for _ in 0..200 {
            let (hidden, input) = (rng.gen_range(1..=20usize), rng.gen_range(1..=16usize));
            let batch = rng.gen_range(1..=crate::stream::MAX_SWEEP);
            let steps = rng.gen_range(1..=8usize);
            let n = 4 * hidden;
            let mut draw = |len: usize, scale: f32, special: bool| -> Vec<f32> {
                (0..len)
                    .map(|_| match rng.gen_range(0..16u32) {
                        0 if special => specials[rng.gen_range(0..specials.len())],
                        _ => rng.gen_range(-scale..=scale),
                    })
                    .collect()
            };
            let (wx, wh, bias) = (
                draw(n * input, 1.0, false),
                draw(n * hidden, 1.0, false),
                draw(n, 1.0, false),
            );
            // Sequence-major `[batch, steps, input]`.
            let x = draw(batch * steps * input, 2.0, true);
            let (mut h_want, mut c) = (vec![0.0f32; batch * hidden], vec![0.0f32; hidden]);
            for (s, h_last) in h_want.chunks_exact_mut(hidden).enumerate() {
                let xs = &x[s * steps * input..][..steps * input];
                let mut h = vec![0.0f32; hidden];
                c.fill(0.0);
                for t in 0..steps {
                    let gates: Vec<f32> = (0..n)
                        .map(|g| {
                            let mut acc = bias[g];
                            for i in 0..input {
                                acc += wx[g * input + i] * xs[t * input + i];
                            }
                            for j in 0..hidden {
                                acc += wh[g * hidden + j] * h[j];
                            }
                            acc
                        })
                        .collect();
                    for j in 0..hidden {
                        let i_g = crate::math::sigmoid(gates[j]);
                        let f_g = crate::math::sigmoid(gates[hidden + j]);
                        let g_g = crate::math::tanh(gates[2 * hidden + j]);
                        let o_g = crate::math::sigmoid(gates[3 * hidden + j]);
                        c[j] = bf16_round(f_g * c[j] + i_g * g_g);
                        h[j] = bf16_round(o_g * crate::math::tanh(c[j]));
                    }
                }
                h_last.copy_from_slice(&h);
            }
            let mut pwx = Vec::new();
            pack_bt_panels(&wx, n, input, &mut pwx);
            let mut partials = vec![f32::NAN; batch * steps * n];
            let seg = Segment::packed(&pwx, input, &x, input);
            let rows = batch * steps;
            gemm_packed(
                seg,
                Some(&bias),
                rows,
                n,
                Store::Exact,
                &mut partials,
                (n, 1),
            );
            let (rows, m) = lstm_recurrent_rows(&wh, hidden);
            let mut panels = Vec::new();
            pack_bt_panels(&rows, m, hidden, &mut panels);
            type Steps = fn(&[f32], &[f32], usize, usize, usize, &mut [f32], &mut [f32]);
            let run = |sweep: Steps| {
                let mut state = vec![f32::NAN; 3 * batch * hidden];
                let mut out = vec![f32::NAN; batch * hidden];
                sweep(
                    &panels, &partials, batch, steps, hidden, &mut state, &mut out,
                );
                bits(&out)
            };
            let want = bits(&h_want);
            let shape = format!("hidden={hidden} input={input} batch={batch} steps={steps}");
            assert_eq!(run(lstm_steps), want, "{shape}: {} entry", tile_isa());
            assert_eq!(run(lstm_steps_body::<NR>), want, "{shape}: portable");
        }
    }

    /// One randomized [`gemm_packed`] case: its segment's operands, as
    /// laid out in memory, and the shape they are swept at.
    struct GemmCase {
        panels: Vec<f32>,
        k: usize,
        x: Vec<f32>,
        bias: Option<Vec<f32>>,
        rows: usize,
        n: usize,
        strides: (usize, usize),
    }

    impl GemmCase {
        /// Draws a case of a [`pack_bt_panels`] segment; the store is
        /// row-major or transposed (im2col's `lane_stride != 1`).
        fn draw(rng: &mut StdRng) -> Self {
            // Up to two full row blocks and every tail; one to five lane
            // blocks, so the wide instance pairs all of them or leaves
            // an odd last block alone.
            let rows = rng.gen_range(0..=2 * MR + 3);
            let n = rng.gen_range(1..=5 * NR);
            let val = |rng: &mut StdRng| rng.gen_range(-2.0f32..=2.0);
            let k = rng.gen_range(0..=19usize);
            let x = (0..rows * k).map(|_| val(rng)).collect();
            let w: Vec<f32> = (0..n * k).map(|_| val(rng)).collect();
            let mut panels = Vec::new();
            pack_bt_panels(&w, n, k, &mut panels);
            let bias = (rng.gen_range(0..2u32) == 0).then(|| (0..n).map(|_| val(rng)).collect());
            let strides = match rng.gen_range(0..2u32) {
                0 => (n, 1),
                _ => (1, rows.max(1)),
            };
            GemmCase {
                panels,
                k,
                x,
                bias,
                rows,
                n,
                strides,
            }
        }

        fn segment(&self) -> Segment<'_> {
            Segment::packed(&self.panels, self.k, &self.x, self.k)
        }

        /// The scalar loop: each output seeded with its bias and
        /// accumulated in increasing `t`.
        fn scalar(&self) -> Vec<f32> {
            let (rs, ls) = self.strides;
            let k = self.k;
            let mut out = vec![f32::NAN; self.rows * self.n];
            for r in 0..self.rows {
                for o in 0..self.n {
                    let mut acc = self.bias.as_ref().map_or(0.0, |b| b[o]);
                    for t in 0..k {
                        let at = (o / NR) * k * NR + t * NR + o % NR;
                        acc += self.panels[at] * self.x[r * k + t];
                    }
                    out[r * rs + o * ls] = bf16_round(acc);
                }
            }
            out
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|f| f.to_bits()).collect()
    }

    /// Runs a drawn case through the dispatched entry and the body at
    /// both widths, compiled for the baseline, and asserts that all three
    /// equal the scalar loop bit for bit.
    fn gemm_instances_agree(rng: &mut StdRng) {
        let case = GemmCase::draw(rng);
        let (rows, n) = (case.rows, case.n);
        let want = bits(&case.scalar());
        let bias = case.bias.as_deref();
        let mut entry = vec![f32::NAN; rows * n];
        let seg = case.segment();
        gemm_packed(seg, bias, rows, n, Store::Bf16, &mut entry, case.strides);
        let mut body = vec![f32::NAN; rows * n];
        gemm_packed_body::<NR>(seg, bias, rows, n, Store::Bf16, &mut body, case.strides);
        let mut paired = vec![f32::NAN; rows * n];
        gemm_packed_body::<{ 2 * NR }>(seg, bias, rows, n, Store::Bf16, &mut paired, case.strides);
        let shape = format!("rows={rows} n={n} k={} strides={:?}", case.k, case.strides);
        let isa = tile_isa();
        assert_eq!(bits(&entry), want, "{shape}: {isa} entry vs scalar");
        assert_eq!(bits(&body), want, "{shape}: portable vs scalar");
        assert_eq!(bits(&paired), want, "{shape}: portable paired vs scalar");
    }

    #[test]
    fn both_tile_instances_match_the_scalar_loops() {
        // The entries run this CPU's instances (`tile_isa()`); the bodies,
        // called directly, the baseline ones, the GEMM's at both widths,
        // so a host without AVX-512 still runs the block pairing. All
        // must equal the scalar loops bit for bit, over row tails
        // (rows % MR), lane tails (n % NR), odd and even lane-block
        // counts, row-major and transposed stores.
        let mut rng = StdRng::seed_from_u64(0x7113);
        for _ in 0..300 {
            gemm_instances_agree(&mut rng);
        }
        for _ in 0..300 {
            // Half the cases a width-1 unit-stride kernel (its full blocks
            // inside the channels read in place, the others the shifted
            // words), half a kernel up to 4 wide at stride up to 3 (the
            // gathered words wherever either exceeds 1).
            let (kh, ph) = (rng.gen_range(1..=5usize), rng.gen_range(0..=2usize));
            let (kw, sw) = match rng.gen_range(0..2u32) {
                0 => (1, 1),
                _ => (rng.gen_range(1..=4usize), rng.gen_range(1..=3usize)),
            };
            let (in_c, out_c) = (rng.gen_range(1..=3usize), rng.gen_range(1..=9usize));
            let w = rng.gen_range(kw..=kw + 10);
            let h = rng.gen_range(kh.saturating_sub(2 * ph).max(1)..=kh + 6);
            let k = in_c * kh * kw;
            let kern: Vec<f32> = (0..out_c * k)
                .map(|_| rng.gen_range(-1.0f32..=1.0))
                .collect();
            // Half the cases: an all-zero input under a -0.0 bias, so each
            // output's sign bit records whether its padded taps were added.
            let zeros = rng.gen_range(0..2u32) == 0;
            let x: Vec<f32> = (0..in_c * h * w)
                .map(|_| {
                    if zeros {
                        0.0
                    } else {
                        rng.gen_range(-1.0f32..=1.0)
                    }
                })
                .collect();
            let bias: Vec<f32> = (0..out_c)
                .map(|_| {
                    if zeros {
                        -0.0
                    } else {
                        rng.gen_range(-1.0f32..=1.0)
                    }
                })
                .collect();
            let conv = DirectConv {
                in_c,
                h,
                w,
                kh,
                kw,
                sw,
                ph,
                out_c,
            };
            let (oh, ow) = conv.output_hw();
            type Sweep = fn(DirectConv, &[f32], &[f32], &[f32], &mut [f32], Store, &mut [f32]);
            let run = |sweep: Sweep| {
                let mut stage = vec![f32::NAN; conv2d_direct_stage_len(in_c, kh, kw)];
                let mut out = vec![f32::NAN; out_c * oh * ow];
                sweep(conv, &kern, &bias, &x, &mut stage, Store::Bf16, &mut out);
                bits(&out)
            };
            let entry = run(conv2d_direct_bf16);
            let body = run(conv2d_direct_body::<NR>);
            let paired = run(conv2d_direct_body::<{ 2 * NR }>);
            let shape = format!("{conv:?} zeros={zeros}");
            assert_eq!(entry, body, "{shape}: {} vs portable", tile_isa());
            assert_eq!(paired, body, "{shape}: portable wide vs portable");
            let mut patches = vec![f32::NAN; oh * ow * k];
            im2col(
                &x,
                in_c,
                h,
                w,
                kh,
                kw,
                (1, sw),
                (ph, 0),
                oh,
                ow,
                &mut patches,
            );
            let gemm = packed_gemm_bt(&kern, &patches, &bias, out_c, oh * ow, k);
            assert_eq!(body, bits(&gemm), "{shape}: portable vs im2col gemm");
            for (i, &v) in body.iter().enumerate() {
                let (oc, p) = (i / (oh * ow), i % (oh * ow));
                let cell = naive_conv_cell(
                    &x,
                    &kern,
                    bias[oc],
                    (in_c, h, w),
                    (kh, kw),
                    (1, sw),
                    (ph, 0),
                    (p / ow, p % ow),
                    oc,
                );
                // The scalar loop skips padded taps; the sweeps add
                // `w * 0.0`, which can only move a zero's sign.
                if cell != 0.0 {
                    assert_eq!(v, cell.to_bits(), "{shape}: oc={oc} p={p}");
                }
            }
        }
    }
}
