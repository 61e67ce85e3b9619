//! Cache-friendly inference kernels, bit-identical to the naive layers.
//!
//! The `forward_reference` implementations in [`crate::ops`] index every
//! element through `Tensor::at` (rank assert + bounds checks + index
//! arithmetic per multiply). These kernels compute the same contractions
//! over raw slices on a register tile, which is where the packed
//! `forward_batch_packed` ops and `Model::forward_batch_scratch` get
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
//! * [`im2col`] materializes zero entries where the naive convolution
//!   *skips* padded taps. Adding `w * 0.0` instead of skipping can only
//!   flip the sign of an exact zero (`-0.0 + 0.0 == +0.0`), which `f32`
//!   equality and every downstream consumer treat as identical.
//!
//! The `kernel_equivalence` integration test property-checks these
//! guarantees against the `forward_reference` implementations across
//! randomized shapes, strides, and paddings.
//!
//! # The packed path
//!
//! Every floating-point contraction runs on one register tile of up to
//! [`MR`] chains, in two loops. A chain's lanes are `NR` (or, paired,
//! `2 * NR`) *different outputs* whose operands sit side by side in
//! memory (a k-major [`pack_bt_panels`] panel, or neighbouring positions
//! of an activation map); the chain's input is one scalar per step,
//! broadcast across them. In `shared_panel_tile` up to `MR` chains read
//! the same lanes against different inputs (a full block of `MR` rows,
//! or up to `MR` output channels of the direct convolution); in
//! `row_tail_tile` one input row runs up to `MR` chains over different
//! lane blocks, so a lone row still keeps several chains in flight. A
//! tile computes each output once: where fewer than `MR` chains are live
//! it runs that many, not clamped duplicates. A lane is an ordinary
//! scalar accumulator that happens to share an instruction with its
//! neighbours — seeded, accumulated in increasing `k` and rounded
//! exactly as the naive loop does it — and the contract above holds
//! without a single partial sum. [`gemm_packed`] and
//! [`conv2d_kw1_direct_bf16`] are the two sweeps that drive the tile.
//!
//! # One body, three instances
//!
//! Each sweep's body is compiled for the x86-64 baseline (SSE2, an
//! `NR`-lane block in two xmm registers) and with AVX2 enabled (one ymm
//! register). [`gemm_packed`]'s body is also compiled with AVX-512F at
//! width `2 * NR`: each chain of a full row block carries two
//! neighbouring lane blocks in one zmm register. Its entry picks that
//! instance only for sweeps of at least `MR` rows over more than one lane
//! block; batch-1 and single-block sweeps, and the direct convolution,
//! run AVX2 ([`tile_isa`] reports the batched sweeps' instance). `NR`
//! and the panel layout are the same in all three. Rust never contracts
//! `a * b + c` into a fused multiply-add — even where `avx512f` makes the
//! instruction available — so every instance rounds every product and
//! every sum exactly as the scalar loop does: same bits.

use crate::bf16::bf16_round;

/// Register-tile width: independent accumulator chains per inner loop.
const MR: usize = 4;

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
pub fn im2col(
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

/// Output lanes per packed register tile: the width of one k-major panel.
pub const NR: usize = 8;

/// Whether this CPU runs AVX2: the two sweeps' entries pick their
/// instance by it (the standard library caches the probe).
#[cfg(target_arch = "x86_64")]
#[inline]
fn avx2() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

/// Whether this CPU runs AVX-512F: [`gemm_packed`] runs its batched
/// sweeps at `2 * NR` lanes by it.
#[cfg(target_arch = "x86_64")]
#[inline]
fn avx512() -> bool {
    std::arch::is_x86_feature_detected!("avx512f")
}

/// The instruction set the register tile's batched sweeps run at on this
/// CPU: `"avx512"` (a [`gemm_packed`] sweep of at least [`MR`] rows over
/// more than one lane block pairs its [`NR`]-lane blocks into one zmm
/// register), `"avx2"` (an `NR`-lane block is one ymm register), `"sse2"`
/// (two xmm registers: the x86-64 baseline) or `"portable"` on other
/// targets. On an AVX-512 host, batch-1 and single-block sweeps and the
/// direct convolution still run AVX2. An observation, not a setting:
/// nothing forces any instance, and all compute the same bits.
pub fn tile_isa() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if avx512() {
        return "avx512";
    }
    #[cfg(target_arch = "x86_64")]
    if avx2() {
        return "avx2";
    }
    if cfg!(target_arch = "x86_64") {
        "sse2"
    } else {
        "portable"
    }
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
/// run several segments back to back (an LSTM gate's `W_x x` then `W_h
/// h`), and round once when they store.
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
/// [`NR`] lanes against one input row, chain `c` reading its own lane
/// block: `acc[c][l] += lanes(c, t)[l] * x[t]`, `t` increasing.
///
/// A lone row thus still keeps up to `MR` independent chains in flight,
/// one per live lane block. The accumulators live in locals, as in
/// [`shared_panel_tile`].
#[inline(always)]
fn row_tail_tile<const C: usize>(
    acc: &mut [[f32; NR]; C],
    x: &[f32],
    lanes: impl Fn(usize, usize) -> [f32; NR],
) {
    let mut chains = *acc;
    for (t, &xv) in x.iter().enumerate() {
        for (c, chain) in chains.iter_mut().enumerate() {
            let word = lanes(c, t);
            for l in 0..NR {
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

/// The `NR` lanes at `at` of a strided lane operand.
#[inline(always)]
fn lane_block(p: &[f32], at: usize) -> &[f32; NR] {
    p[at..].first_chunk().expect("a lane block is NR wide")
}

/// Writes `post` of a chain's leading lanes to `dst` (a full chain, or
/// the valid lanes of a tail block).
#[inline(always)]
fn store_lanes<const W: usize>(dst: &mut [f32], lanes: &[f32; W], post: impl Fn(f32) -> f32) {
    match <&mut [f32; W]>::try_from(&mut *dst) {
        // Fixed width: the rounding and the store vectorize.
        Ok(full) => {
            for l in 0..W {
                full[l] = post(lanes[l]);
            }
        }
        Err(_) => {
            for (o, &v) in dst.iter_mut().zip(lanes) {
                *o = post(v);
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
    assert_eq!(a.len(), m * k, "pack operand length");
    out.clear();
    out.resize(m.div_ceil(NR) * NR * k, 0.0);
    for (i, row) in a.chunks_exact(k.max(1)).take(m).enumerate() {
        let panel = &mut out[(i / NR) * NR * k..][..NR * k];
        for (t, &v) in row.iter().enumerate() {
            panel[t * NR + i % NR] = v;
        }
    }
}

/// One reduction segment of a packed contraction: `k` steps of every
/// output's dot product, lane operands against broadcast row inputs.
#[derive(Debug, Clone, Copy)]
pub struct Segment<'a> {
    /// Lane operands. Lane block `b` starts at `b * block_stride` and
    /// advances `step` elements per reduction step.
    pub panels: &'a [f32],
    /// Distance between consecutive lane blocks.
    pub block_stride: usize,
    /// Distance between consecutive reduction steps of one lane block
    /// ([`NR`] for packed panels, the row width for a row-major
    /// activation matrix read column-block-wise).
    pub step: usize,
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
            block_stride: k * NR,
            step: NR,
            k,
            x,
            x_stride,
        }
    }

    /// Lane block `b`, cut to exactly the elements its `k` steps read.
    #[inline(always)]
    fn block(&self, b: usize) -> &'a [f32] {
        match self.k {
            0 => &[],
            k => &self.panels[b * self.block_stride..][..(k - 1) * self.step + NR],
        }
    }

    /// Lane block `b` of a `step == NR` segment as its `k` lane words.
    #[inline(always)]
    fn words(&self, b: usize) -> &'a [[f32; NR]] {
        &self.block(b).as_chunks().0[..self.k]
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
        let hi = b + W / NR - 1;
        if self.step == NR {
            let (lo, hi) = (self.words(b), self.words(hi));
            shared_panel_tile(acc, xs, |t| join(&lo[t], &hi[t]));
        } else {
            let (lo, hi, step) = (self.block(b), self.block(hi), self.step);
            shared_panel_tile(acc, xs, |t| {
                join(lane_block(lo, t * step), lane_block(hi, t * step))
            });
        }
    }

    /// This segment's steps of a row-tail tile: row `r` against lane
    /// blocks `b0..b0 + C`.
    #[inline(always)]
    fn accumulate_blocks<const C: usize>(&self, acc: &mut [[f32; NR]; C], r: usize, b0: usize) {
        let x = self.row(r);
        if self.step == NR {
            let words: [_; C] = each(&[][..], |c| self.words(b0 + c));
            row_tail_tile(acc, x, |c, t| words[c][t]);
        } else {
            let blocks: [_; C] = each(&[][..], |c| self.block(b0 + c));
            row_tail_tile(acc, x, |c, t| *lane_block(blocks[c], t * self.step));
        }
    }
}

/// The packed GEMM driver: `out[r * row_stride + o * lane_stride] =
/// post(bias[o] + sum over segments, then over t, of lane operand
/// (o, t) * row r's input t)` for `r < rows`, `o < n`.
///
/// Dense layers, im2col convolutions, LSTM gate pre-activations and both
/// attention contractions are this one sweep of the register tile; they
/// differ in their segments, their seed (`None` seeds `0.0`), their
/// store layout and `post` (BF16 rounding, a scale, or nothing). Full
/// blocks of [`MR`] rows share each lane block (`shared_panel_tile`);
/// the `rows % MR` tail rows instead block across up to `MR` lane blocks
/// each (`row_tail_tile`), so the lone row of a batch-1 forward keeps
/// up to `MR` independent chains in flight, one per live lane block.
/// Padded lanes past `n` are computed and not stored.
///
/// A sweep with at least `MR` rows over more than one lane block runs,
/// on an AVX-512 CPU, the instance whose full row blocks carry two
/// neighbouring lane blocks per chain; every other sweep runs the AVX2
/// (or baseline) instance. All compute the same bits.
///
/// # Panics
///
/// Panics when a segment, the bias or `out` is too short for the shape.
#[allow(unsafe_code)]
pub fn gemm_packed<const S: usize>(
    segs: [Segment<'_>; S],
    bias: Option<&[f32]>,
    rows: usize,
    n: usize,
    post: impl Fn(f32) -> f32,
    out: &mut [f32],
    strides: (usize, usize),
) {
    #[cfg(target_arch = "x86_64")]
    if rows >= MR && n > NR && avx512() {
        // SAFETY: `avx512()` has just found AVX-512F on this CPU, the one
        // feature `gemm_packed_avx512` is compiled for.
        return unsafe { gemm_packed_avx512(segs, bias, rows, n, post, out, strides) };
    }
    #[cfg(target_arch = "x86_64")]
    if avx2() {
        // SAFETY: `avx2()` has just found AVX2 on this CPU, the one
        // feature `gemm_packed_avx2` is compiled for.
        return unsafe { gemm_packed_avx2(segs, bias, rows, n, post, out, strides) };
    }
    gemm_packed_body::<S, NR>(segs, bias, rows, n, post, out, strides)
}

/// [`gemm_packed_body`] at `2 * NR` lanes compiled for AVX-512F: a full
/// row block's chain is one zmm register over two lane blocks.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn gemm_packed_avx512<const S: usize>(
    segs: [Segment<'_>; S],
    bias: Option<&[f32]>,
    rows: usize,
    n: usize,
    post: impl Fn(f32) -> f32,
    out: &mut [f32],
    strides: (usize, usize),
) {
    gemm_packed_body::<S, { 2 * NR }>(segs, bias, rows, n, post, out, strides)
}

/// [`gemm_packed_body`] compiled for AVX2: one ymm register per lane block.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn gemm_packed_avx2<const S: usize>(
    segs: [Segment<'_>; S],
    bias: Option<&[f32]>,
    rows: usize,
    n: usize,
    post: impl Fn(f32) -> f32,
    out: &mut [f32],
    strides: (usize, usize),
) {
    gemm_packed_body::<S, NR>(segs, bias, rows, n, post, out, strides)
}

/// [`gemm_packed`]'s one body, inlined into every instance. Full row
/// blocks run `W` lanes a chain (`NR`, or `2 * NR`: neighbouring lane
/// blocks in pairs, an odd last block alone at `NR`); tail rows always
/// run `NR`.
#[inline(always)]
fn gemm_packed_body<const S: usize, const W: usize>(
    segs: [Segment<'_>; S],
    bias: Option<&[f32]>,
    rows: usize,
    n: usize,
    post: impl Fn(f32) -> f32,
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
    let mut sink = Sink {
        out,
        post,
        n,
        row_stride,
        lane_stride,
    };
    let full = rows - rows % MR;
    let paired = blocks - blocks % (W / NR);
    for b in (0..paired).step_by(W / NR) {
        row_block::<W, S>(&segs, full, b, &seed, &mut sink);
    }
    for b in paired..blocks {
        row_block::<NR, S>(&segs, full, b, &seed, &mut sink);
    }
    for r in full..rows {
        for b0 in (0..blocks).step_by(MR) {
            match blocks - b0 {
                1 => row_tail::<1, S>(&segs, r, b0, &seed, &mut sink),
                2 => row_tail::<2, S>(&segs, r, b0, &seed, &mut sink),
                3 => row_tail::<3, S>(&segs, r, b0, &seed, &mut sink),
                _ => row_tail::<MR, S>(&segs, r, b0, &seed, &mut sink),
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

impl<P: Fn(f32) -> f32> Sink<'_, P> {
    /// Stores a chain of `W` lanes, lane blocks `b..b + W / NR` of row `r`.
    #[inline(always)]
    fn store<const W: usize>(&mut self, lanes: &[f32; W], r: usize, b: usize) {
        let base = r * self.row_stride + b * NR * self.lane_stride;
        let valid = W.min(self.n - b * NR);
        if self.lane_stride == 1 {
            store_lanes(&mut self.out[base..base + valid], lanes, &self.post);
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
fn row_block<const W: usize, const S: usize>(
    segs: &[Segment<'_>; S],
    full: usize,
    b: usize,
    seed: impl Fn(usize) -> [f32; NR],
    sink: &mut Sink<'_, impl Fn(f32) -> f32>,
) {
    let lanes = join(&seed(b), &seed(b + W / NR - 1));
    for r0 in (0..full).step_by(MR) {
        let mut acc = [lanes; MR];
        for seg in segs {
            seg.accumulate_rows::<W>(&mut acc, b, r0);
        }
        for (c, chain) in acc.iter().enumerate() {
            sink.store(chain, r0 + c, b);
        }
    }
}

/// One tail row `r` of [`gemm_packed`] against lane blocks `b0..b0 + C`,
/// one chain per block.
#[inline(always)]
fn row_tail<const C: usize, const S: usize>(
    segs: &[Segment<'_>; S],
    r: usize,
    b0: usize,
    seed: impl Fn(usize) -> [f32; NR],
    sink: &mut Sink<'_, impl Fn(f32) -> f32>,
) {
    let mut acc = each([0.0; NR], |c| seed(b0 + c));
    for seg in segs {
        seg.accumulate_blocks::<C>(&mut acc, r, b0);
    }
    for (c, lanes) in acc.iter().enumerate() {
        sink.store(lanes, r, b0 + c);
    }
}

/// Batched LSTM gate pre-activations over prepacked weights: one
/// timestep's `gates[s][g] = bias[g] + dot(wx[g], x_s) + dot(wh[g], h_s)`
/// for every sequence in a batch, unrounded.
///
/// `packed_wx` / `packed_wh` are `[4 * hidden, input]` / `[4 * hidden,
/// hidden]` operands packed by [`pack_bt_panels`]. Sample `s` reads its
/// timestep input at `x[x_off + s * x_stride ..][..input]` (a strided
/// view into a sample-major `[batch, steps, input]` sequence buffer)
/// and its hidden state at `h[s * hidden..]`; its gates land at
/// `gates[s * 4 * hidden..]`. The two dots are two segments of one
/// [`gemm_packed`] sweep, input weights first — the reference LSTM's
/// per-gate order.
#[allow(clippy::too_many_arguments)]
pub fn lstm_gates_packed_batch(
    packed_wx: &[f32],
    packed_wh: &[f32],
    bias: &[f32],
    x: &[f32],
    x_off: usize,
    x_stride: usize,
    h: &[f32],
    batch: usize,
    input: usize,
    hidden: usize,
    gates: &mut [f32],
) {
    let n = 4 * hidden;
    assert_eq!(h.len(), batch * hidden, "lstm hidden length");
    assert_eq!(gates.len(), batch * n, "lstm gates length");
    gemm_packed(
        [
            Segment::packed(packed_wx, input, x.get(x_off..).unwrap_or(&[]), x_stride),
            Segment::packed(packed_wh, hidden, h, hidden),
        ],
        Some(bias),
        batch,
        n,
        |v| v,
        gates,
        (n, 1),
    );
}

/// Direct convolution for width-1 kernels at unit stride with no
/// horizontal padding — the dominant layer shape in all three benchmark
/// networks (every temporal `(kh, 1)` convolution and every 1x1
/// inception branch). Bit-identical to `im2col` + GEMM.
///
/// With `kw == 1`, `stride == (1, 1)`, `pw == 0`, the im2col "patch
/// column" for tap `(ic, ky)` is just the input channel shifted by
/// `(ky - ph)` rows, so no patch matrix is materialized: the sample is
/// copied once into `stage` with `ph` zero rows around every channel,
/// and each tap's [`NR`] lane operands are then one contiguous load from
/// it. A tile is `NR` consecutive output positions x up to [`MR`] output
/// channels (the last group runs only the channels left), whose weights
/// are the broadcast inputs; its accumulators
/// stay in registers across all `in_c * kh` taps. Per output element the
/// accumulation order is exactly the GEMM's: seeded with the bias, taps
/// in increasing `(ic, ky)` order, rounded once at the end. Padded taps
/// read the staged zeros and add `weight * 0.0`, exactly as the GEMM
/// multiplies the patch matrix's materialized zeros.
///
/// `a` is the row-major `[out_c, in_c * kh]` kernel matrix; `x` is one
/// `[in_c, h, w]` sample; `stage` is a workspace of
/// [`conv2d_kw1_stage_len`] elements; `out` is the `[out_c, oh * w]`
/// output.
///
/// # Panics
///
/// Panics on buffer-length mismatches.
#[allow(clippy::too_many_arguments, unsafe_code)]
pub fn conv2d_kw1_direct_bf16(
    a: &[f32],
    bias: &[f32],
    x: &[f32],
    in_c: usize,
    h: usize,
    w: usize,
    kh: usize,
    ph: usize,
    out_c: usize,
    stage: &mut [f32],
    out: &mut [f32],
) {
    #[cfg(target_arch = "x86_64")]
    if avx2() {
        // SAFETY: `avx2()` has just found AVX2 on this CPU, the one
        // feature `conv2d_kw1_direct_avx2` is compiled for.
        return unsafe {
            conv2d_kw1_direct_avx2(a, bias, x, in_c, h, w, kh, ph, out_c, stage, out)
        };
    }
    conv2d_kw1_direct_body(a, bias, x, in_c, h, w, kh, ph, out_c, stage, out)
}

/// [`conv2d_kw1_direct_body`] compiled for AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
fn conv2d_kw1_direct_avx2(
    a: &[f32],
    bias: &[f32],
    x: &[f32],
    in_c: usize,
    h: usize,
    w: usize,
    kh: usize,
    ph: usize,
    out_c: usize,
    stage: &mut [f32],
    out: &mut [f32],
) {
    conv2d_kw1_direct_body(a, bias, x, in_c, h, w, kh, ph, out_c, stage, out)
}

/// [`conv2d_kw1_direct_bf16`]'s one body, inlined into both instances.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn conv2d_kw1_direct_body(
    a: &[f32],
    bias: &[f32],
    x: &[f32],
    in_c: usize,
    h: usize,
    w: usize,
    kh: usize,
    ph: usize,
    out_c: usize,
    stage: &mut [f32],
    out: &mut [f32],
) {
    let k = in_c * kh;
    let oh = h + 2 * ph + 1 - kh;
    let positions = oh * w;
    let chan = (h + 2 * ph) * w;
    assert_eq!(a.len(), out_c * k, "direct conv kernel length");
    assert_eq!(bias.len(), out_c, "direct conv bias length");
    assert_eq!(x.len(), in_c * h * w, "direct conv input length");
    assert_eq!(
        stage.len(),
        conv2d_kw1_stage_len(in_c, h, w, ph),
        "direct conv workspace length"
    );
    assert_eq!(out.len(), out_c * positions, "direct conv output length");
    assert!(kh > 0, "direct conv kernel height");
    if out_c == 0 {
        return;
    }
    // The slack is what the last lane block over-reads into lanes
    // nobody stores.
    let (padded, slack) = stage.split_at_mut(in_c * chan);
    slack.fill(0.0);
    for (dst, src) in padded
        .chunks_exact_mut(chan.max(1))
        .zip(x.chunks_exact((h * w).max(1)))
    {
        dst[..ph * w].fill(0.0);
        dst[ph * w..][..h * w].copy_from_slice(src);
        dst[(ph + h) * w..].fill(0.0);
    }
    let (stage, shape) = (&*stage, (in_c, kh, w, chan, positions));
    for oc0 in (0..out_c).step_by(MR) {
        match out_c - oc0 {
            1 => kw1_channel_group::<1>(a, bias, stage, shape, oc0, out),
            2 => kw1_channel_group::<2>(a, bias, stage, shape, oc0, out),
            3 => kw1_channel_group::<3>(a, bias, stage, shape, oc0, out),
            _ => kw1_channel_group::<MR>(a, bias, stage, shape, oc0, out),
        }
    }
}

/// Output channels `oc0..oc0 + C` of [`conv2d_kw1_direct_bf16`] over the
/// staged sample, one chain per channel; `chan` is one staged channel's
/// length.
#[inline(always)]
fn kw1_channel_group<const C: usize>(
    a: &[f32],
    bias: &[f32],
    stage: &[f32],
    (in_c, kh, w, chan, positions): (usize, usize, usize, usize, usize),
    oc0: usize,
    out: &mut [f32],
) {
    let k = in_c * kh;
    let rows: [&[f32]; C] = std::array::from_fn(|c| &a[(oc0 + c) * k..][..k]);
    for p0 in (0..positions).step_by(NR) {
        let mut acc = std::array::from_fn(|c| [bias[oc0 + c]; NR]);
        for ic in 0..in_c {
            let lanes = &stage[ic * chan + p0..][..(kh - 1) * w + NR];
            let taps = rows.map(|r| &r[ic * kh..(ic + 1) * kh]);
            shared_panel_tile(&mut acc, taps, |t| *lane_block(lanes, t * w));
        }
        let valid = NR.min(positions - p0);
        for (c, lanes) in acc.iter().enumerate() {
            let dst = &mut out[(oc0 + c) * positions + p0..][..valid];
            store_lanes(dst, lanes, bf16_round);
        }
    }
}

/// Workspace length [`conv2d_kw1_direct_bf16`] needs: every channel with
/// its `ph` zero rows above and below, plus one lane block of slack.
pub fn conv2d_kw1_stage_len(in_c: usize, h: usize, w: usize, ph: usize) -> usize {
    in_c * (h + 2 * ph) * w + NR
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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
            [Segment::packed(&packed, k, x, k)],
            Some(bias),
            rows,
            n,
            bf16_round,
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
            [Segment::packed(&packed, k, b, k)],
            Some(bias),
            n,
            m,
            bf16_round,
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
    fn lstm_gates_match_scalar_loop() {
        let (input, hidden, batch) = (5usize, 3usize, 4usize); // 4*hidden = 12
        let n = 4 * hidden;
        let wx: Vec<f32> = (0..n * input).map(|i| (i as f32 * 0.7).sin()).collect();
        let wh: Vec<f32> = (0..n * hidden).map(|i| (i as f32 * 1.3).cos()).collect();
        let bias: Vec<f32> = (0..n).map(|i| i as f32 * 0.05).collect();
        let (mut pwx, mut pwh) = (Vec::new(), Vec::new());
        pack_bt_panels(&wx, n, input, &mut pwx);
        pack_bt_panels(&wh, n, hidden, &mut pwh);
        // Sample-major [batch, steps=2, input]; read timestep 1.
        let steps = 2usize;
        let x: Vec<f32> = (0..batch * steps * input)
            .map(|i| (i as f32 * 0.11).sin())
            .collect();
        let h: Vec<f32> = (0..batch * hidden).map(|i| 0.1 * i as f32).collect();
        let mut gates = vec![0.0; batch * n];
        lstm_gates_packed_batch(
            &pwx,
            &pwh,
            &bias,
            &x,
            input,
            steps * input,
            &h,
            batch,
            input,
            hidden,
            &mut gates,
        );
        for s in 0..batch {
            let xt = &x[s * steps * input + input..][..input];
            let hs = &h[s * hidden..][..hidden];
            for g in 0..n {
                let mut acc = bias[g];
                for i in 0..input {
                    acc += wx[g * input + i] * xt[i];
                }
                for j in 0..hidden {
                    acc += wh[g * hidden + j] * hs[j];
                }
                assert_eq!(gates[s * n + g], acc, "sample {s} gate {g}");
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
            for (x, signed_zeros) in [(&zeros, true), (&random, false)] {
                let mut stage = vec![f32::NAN; conv2d_kw1_stage_len(in_c, h, w, ph)];
                let mut got = vec![f32::NAN; out_c * positions];
                conv2d_kw1_direct_bf16(
                    &kern, &bias, x, in_c, h, w, kh, ph, out_c, &mut stage, &mut got,
                );
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

    #[test]
    fn attn_kernels_match_scalar_loops() {
        let (t, d_model, off, d_head) = (5usize, 8usize, 2usize, 6usize);
        let q: Vec<f32> = (0..t * d_model).map(|i| (i as f32 * 0.31).sin()).collect();
        let k: Vec<f32> = (0..t * d_model).map(|i| (i as f32 * 0.17).cos()).collect();
        // One lane block of slack: the head's last block over-reads.
        let v: Vec<f32> = (0..t * d_model + NR)
            .map(|i| (i as f32 * 0.11).sin())
            .collect();
        let scale = 1.0 / (d_head as f32).sqrt();
        // Scores: the lanes are keys, read `d_head` steps into k-major
        // panels of the whole K matrix.
        let mut kt = Vec::new();
        pack_bt_panels(&k, t, d_model, &mut kt);
        let mut scores = vec![f32::NAN; t * t];
        gemm_packed(
            [Segment {
                panels: &kt[off * NR..],
                block_stride: d_model * NR,
                step: NR,
                k: d_head,
                x: &q[off..],
                x_stride: d_model,
            }],
            None,
            t,
            t,
            |dot| dot * scale,
            &mut scores,
            (t, 1),
        );
        for i in 0..t {
            for j in 0..t {
                let qi = &q[i * d_model + off..i * d_model + off + d_head];
                let kj = &k[j * d_model + off..j * d_model + off + d_head];
                let dot: f32 = qi.iter().zip(kj).map(|(a, b)| a * b).sum();
                assert_eq!(scores[i * t + j], dot * scale, "score {i},{j}");
            }
        }
        // Context: the lanes are the head's value columns, read from the
        // row-major V with a row-width step.
        let mut ctx = vec![f32::NAN; t * d_model];
        gemm_packed(
            [Segment {
                panels: &v[off..],
                block_stride: NR,
                step: d_model,
                k: t,
                x: &scores,
                x_stride: t,
            }],
            None,
            t,
            d_head,
            |acc| acc,
            &mut ctx[off..],
            (d_model, 1),
        );
        for i in 0..t {
            for d in 0..d_head {
                let mut acc = 0.0f32;
                for j in 0..t {
                    acc += scores[i * t + j] * v[j * d_model + off + d];
                }
                assert_eq!(ctx[i * d_model + off + d], acc, "ctx {i},{d}");
            }
        }
    }

    /// A [`Segment`]'s operands, owned.
    struct SegmentData {
        panels: Vec<f32>,
        block_stride: usize,
        step: usize,
        k: usize,
        x: Vec<f32>,
    }

    /// One randomized [`gemm_packed`] case: its segments' operands, as
    /// laid out in memory, and the shape they are swept at.
    struct GemmCase {
        segs: Vec<SegmentData>,
        bias: Option<Vec<f32>>,
        rows: usize,
        n: usize,
        strides: (usize, usize),
    }

    impl GemmCase {
        /// Draws a case. Each segment is either [`pack_bt_panels`] panels
        /// (`step == NR`) or a row-major matrix read column-block-wise
        /// with a row-width step (the attention context's `step != NR`);
        /// the store is row-major or transposed (im2col's `lane_stride !=
        /// 1`).
        fn draw<const S: usize>(rng: &mut StdRng) -> Self {
            // Up to two full row blocks and every tail; one to five lane
            // blocks, so the wide instance pairs all of them or leaves
            // an odd last block alone.
            let rows = rng.gen_range(0..=2 * MR + 3);
            let n = rng.gen_range(1..=5 * NR);
            let val = |rng: &mut StdRng| rng.gen_range(-2.0f32..=2.0);
            let segs = (0..S)
                .map(|_| {
                    let k = rng.gen_range(0..=19usize);
                    let x = (0..rows * k).map(|_| val(rng)).collect();
                    if rng.gen_range(0..2u32) == 0 {
                        let w: Vec<f32> = (0..n * k).map(|_| val(rng)).collect();
                        let mut panels = Vec::new();
                        pack_bt_panels(&w, n, k, &mut panels);
                        SegmentData {
                            panels,
                            block_stride: k * NR,
                            step: NR,
                            k,
                            x,
                        }
                    } else {
                        let step = n + rng.gen_range(0..=5usize);
                        let panels = (0..strided_len(k, step, n)).map(|_| val(rng)).collect();
                        SegmentData {
                            panels,
                            block_stride: NR,
                            step,
                            k,
                            x,
                        }
                    }
                })
                .collect();
            let bias = (rng.gen_range(0..2u32) == 0).then(|| (0..n).map(|_| val(rng)).collect());
            let strides = match rng.gen_range(0..2u32) {
                0 => (n, 1),
                _ => (1, rows.max(1)),
            };
            GemmCase {
                segs,
                bias,
                rows,
                n,
                strides,
            }
        }

        fn segments<const S: usize>(&self) -> [Segment<'_>; S] {
            std::array::from_fn(|i| {
                let seg = &self.segs[i];
                Segment {
                    panels: &seg.panels,
                    block_stride: seg.block_stride,
                    step: seg.step,
                    k: seg.k,
                    x: &seg.x,
                    x_stride: seg.k,
                }
            })
        }

        /// The scalar loop: each output seeded with its bias and
        /// accumulated segment by segment in increasing `t`.
        fn scalar(&self) -> Vec<f32> {
            let (rs, ls) = self.strides;
            let mut out = vec![f32::NAN; self.rows * self.n];
            for r in 0..self.rows {
                for o in 0..self.n {
                    let mut acc = self.bias.as_ref().map_or(0.0, |b| b[o]);
                    for seg in &self.segs {
                        for t in 0..seg.k {
                            let at = (o / NR) * seg.block_stride + t * seg.step + o % NR;
                            acc += seg.panels[at] * seg.x[r * seg.k + t];
                        }
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

    /// The words a row-major strided operand of width `step >= n` needs
    /// for `k` steps: its last lane block over-reads the last row by up
    /// to `NR - 1` lanes, and nothing further. The draw cuts every strided
    /// operand to exactly this, so a chain over a pair of lane blocks
    /// that read past one block's slack would panic.
    fn strided_len(k: usize, step: usize, n: usize) -> usize {
        match k {
            0 => 0,
            k => (k - 1) * step + n.div_ceil(NR) * NR,
        }
    }

    /// Runs a drawn case through the dispatched entry and the body at
    /// both widths, compiled for the baseline, and asserts that all three
    /// equal the scalar loop bit for bit.
    fn gemm_instances_agree<const S: usize>(rng: &mut StdRng) {
        let case = GemmCase::draw::<S>(rng);
        let (rows, n) = (case.rows, case.n);
        let want = bits(&case.scalar());
        let bias = case.bias.as_deref();
        let mut entry = vec![f32::NAN; rows * n];
        let segs = case.segments::<S>();
        gemm_packed(segs, bias, rows, n, bf16_round, &mut entry, case.strides);
        let mut body = vec![f32::NAN; rows * n];
        gemm_packed_body::<S, NR>(segs, bias, rows, n, bf16_round, &mut body, case.strides);
        let mut paired = vec![f32::NAN; rows * n];
        gemm_packed_body::<S, { 2 * NR }>(
            segs,
            bias,
            rows,
            n,
            bf16_round,
            &mut paired,
            case.strides,
        );
        let ks: Vec<usize> = case.segs.iter().map(|s| s.k).collect();
        let steps: Vec<usize> = case.segs.iter().map(|s| s.step).collect();
        let shape = format!(
            "S={S} rows={rows} n={n} k={ks:?} step={steps:?} strides={:?}",
            case.strides
        );
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
        // counts, one and two segments, packed and strided lanes,
        // row-major and transposed stores.
        let mut rng = StdRng::seed_from_u64(0x7113);
        for _ in 0..300 {
            gemm_instances_agree::<1>(&mut rng);
            gemm_instances_agree::<2>(&mut rng);
        }
        for _ in 0..200 {
            let kh = rng.gen_range(1..=5usize);
            let ph = rng.gen_range(0..=2usize);
            let (in_c, out_c) = (rng.gen_range(1..=3usize), rng.gen_range(1..=9usize));
            let w = rng.gen_range(1..=11usize);
            let h = rng.gen_range(kh.saturating_sub(2 * ph).max(1)..=kh + 6);
            let k = in_c * kh;
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
            let oh = h + 2 * ph + 1 - kh;
            let run = |dispatch: bool| {
                let mut stage = vec![f32::NAN; conv2d_kw1_stage_len(in_c, h, w, ph)];
                let mut out = vec![f32::NAN; out_c * oh * w];
                let sweep = match dispatch {
                    true => conv2d_kw1_direct_bf16,
                    false => conv2d_kw1_direct_body,
                };
                sweep(
                    &kern, &bias, &x, in_c, h, w, kh, ph, out_c, &mut stage, &mut out,
                );
                bits(&out)
            };
            let (entry, body) = (run(true), run(false));
            let shape =
                format!("in_c={in_c} h={h} w={w} kh={kh} ph={ph} out_c={out_c} zeros={zeros}");
            assert_eq!(entry, body, "{shape}: {} vs portable", tile_isa());
            let mut patches = vec![f32::NAN; oh * w * k];
            im2col(&x, in_c, h, w, kh, 1, (1, 1), (ph, 0), oh, w, &mut patches);
            let gemm = packed_gemm_bt(&kern, &patches, &bias, out_c, oh * w, k);
            assert_eq!(body, bits(&gemm), "{shape}: portable vs im2col gemm");
            for (i, &v) in body.iter().enumerate() {
                let (oc, p) = (i / (oh * w), i % (oh * w));
                let cell = naive_conv_cell(
                    &x,
                    &kern,
                    bias[oc],
                    (in_c, h, w),
                    (kh, 1),
                    (1, 1),
                    (ph, 0),
                    (p / w, p % w),
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
