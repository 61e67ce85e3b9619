//! State for the streaming forward: what a model keeps between two
//! registry calls so that a window slid by one tick row costs one new row
//! per trunk layer instead of the whole map, and a *sweep* of `k` windows,
//! each the one before slid by a row, costs `k` new rows per layer in one
//! convolution call.
//!
//! A *valid*-padded convolution is shift-invariant in time: output row
//! `y` reads input rows `y..y + kh` and nothing else, so when the window
//! slides by one row every output row but the newest is a row the
//! previous forward already produced. Each trunk convolution keeps a
//! [`LineBuffer`] — the trailing `kh` rows of its input — and one more
//! holds the trunk's whole output; [`slid_by_one`] is the content check
//! that decides whether they may be reused.

use crate::net::Layer;
use crate::ops::conv::Lowering;
use crate::ops::Conv2d;

/// The most windows one sweep serves: `ModelRegistry::forward_slides`
/// takes no more, and a caller holding more (a datagram's event count is
/// its sender's to choose) serves them in sweeps of at most this many.
/// Every buffer a sweep sizes by `k` is therefore sized for it once, when
/// the tier is registered, and where the cut falls changes no answer.
pub const MAX_SWEEP: usize = 16;

/// The trailing `kh` rows of a `[in_c, h, w]` activation map, in the
/// `[in_c, kh, w]` layout a convolution of kernel height `kh` reads: one
/// `Conv2d::forward_batch_packed` call on it at `h = kh` yields exactly
/// the output row a full-height call stores last. It also holds the
/// memory a sweep of up to [`MAX_SWEEP`] rows passes through it in.
#[derive(Debug, Clone)]
pub struct LineBuffer {
    data: Vec<f32>,
    kh: usize,
    w: usize,
    /// `[in_c, kh - 1 + MAX_SWEEP, w]`: a sweep's kept and new rows
    /// ([`Self::extend`]).
    map: Vec<f32>,
    /// The convolution that reads this buffer, its calls planned when the
    /// buffer is made; `None` for the trunk's output.
    conv: Option<TrunkConv>,
}

/// A trunk convolution's calls, planned once: how its `k = 1` call runs,
/// and the memory every call works in. A streamed tick thus derives no
/// shape, and no sweep allocates.
#[derive(Debug, Clone)]
struct TrunkConv {
    tick: Lowering,
    /// `[out_c, k, ow]` for a sweep of `k <= MAX_SWEEP` rows: the next
    /// buffer's new rows (at `k = 1`, its newest).
    out: Vec<f32>,
    stage: Vec<f32>,
}

impl LineBuffer {
    /// A buffer of the trailing `kh` rows of an `[in_c, h, w]` map.
    pub(crate) fn new(in_c: usize, kh: usize, w: usize) -> Self {
        LineBuffer {
            data: vec![0.0; in_c * kh * w],
            kh,
            w,
            map: vec![0.0; in_c * (kh - 1 + MAX_SWEEP) * w],
            conv: None,
        }
    }

    /// A buffer of `conv`'s input rows, `w` wide, with its calls planned.
    pub(crate) fn planned(conv: &Conv2d, w: usize) -> Self {
        let kh = conv.kernel_hw().0;
        let out_len = conv.out_channels() * MAX_SWEEP * conv.output_hw(kh, w).1;
        LineBuffer {
            conv: Some(TrunkConv {
                tick: conv.lowering(kh, w),
                out: vec![0.0; out_len],
                stage: vec![0.0; conv.stage_len()],
            }),
            ..LineBuffer::new(conv.in_channels(), kh, w)
        }
    }

    /// Refills from a full `[in_c, h, w]` map (`h >= kh`): every channel's
    /// last `kh` rows.
    pub(crate) fn prime(&mut self, map: &[f32], h: usize) {
        prime(&mut self.data, self.kh * self.w, map, h * self.w);
    }

    /// The planned convolution's last `k` output rows, `[out_c, k, ow]`.
    fn swept_out(&self, k: usize) -> &[f32] {
        let conv = self.conv.as_ref().expect("a trunk buffer plans its calls");
        &conv.out[..conv.out.len() / MAX_SWEEP * k]
    }

    /// Drops every channel's oldest row and appends `row` (`[in_c, w]`).
    fn push(&mut self, row: &[f32]) {
        let (kept, w) = (self.kh * self.w, self.w);
        assert_eq!(row.len() * self.kh, self.data.len(), "row length");
        for (dst, src) in self.data.chunks_exact_mut(kept).zip(row.chunks_exact(w)) {
            dst.copy_within(w.., 0);
            dst[kept - w..].copy_from_slice(src);
        }
    }

    /// [`Self::push`] for `k <= MAX_SWEEP` rows at once (`rows` is
    /// `[in_c, k, w]`), leaving in the first `map_len(k)` elements of `map`
    /// what the buffer passed through on the way: every channel's kept
    /// `kh - 1` rows followed by its `k` new ones, `[in_c, kh - 1 + k, w]`.
    /// Rows `j..j + kh` of it are the buffer as `j + 1` single pushes would
    /// have left it.
    fn extend(&mut self, rows: &[f32], k: usize) {
        let (kept, w) = (self.kh * self.w, self.w);
        let (old, new) = (kept - w, k * w);
        assert_eq!(rows.len() * kept, self.data.len() * new, "rows length");
        let map = &mut self.map[..self.data.len() / kept * (old + new)];
        let channels = map.chunks_exact_mut(old + new);
        for ((dst, line), src) in channels
            .zip(self.data.chunks_exact(kept))
            .zip(rows.chunks_exact(new))
        {
            dst[..old].copy_from_slice(&line[w..]);
            dst[old..].copy_from_slice(src);
        }
        prime(&mut self.data, kept, map, old + new);
    }

    /// The length of [`Self::extend`]'s map after `k` rows.
    fn map_len(&self, k: usize) -> usize {
        self.data.len() / self.kh * (self.kh - 1 + k)
    }
}

/// Every channel's last `kept` elements of `map`'s channels, each `full`
/// long, into `data`'s.
fn prime(data: &mut [f32], kept: usize, map: &[f32], full: usize) {
    assert_eq!(map.len() * kept, data.len() * full, "map length");
    for (dst, src) in data.chunks_exact_mut(kept).zip(map.chunks_exact(full)) {
        dst.copy_from_slice(&src[full - kept..]);
    }
}

/// Streams `rows` — `1..=MAX_SWEEP` tick rows, `[k, features]`, each
/// sliding the window by one — through a net's streamable prefix, `trunk`
/// (its convolutions, each against its own packed kernels), each storing
/// its sums as its post says (the BF16 rounding and the layer's
/// activation: no layer makes a second pass over its output), and returns
/// the `k` trunk outputs they complete, `[k, C, out_rows]`, oldest window
/// first: the kept trunk output itself at `k = 1`, or `None` when they are
/// gathered at the start of `staged`.
///
/// Layer by layer the kept `kh - 1` rows and the `k` new ones become `k`
/// output rows by the same packed convolution as the whole-window
/// forward, once, at `h = kh - 1 + k`: each output's accumulator sees the
/// operands the whole-window forward gives it, in its order. At `k = 1`
/// the line buffer with the row pushed *is* that input and the call is the
/// one its buffer planned; a longer sweep assembles each layer's input in
/// its buffer's map. Either way the call's output rows land in the
/// buffer's planned output, which the next buffer takes as its new rows,
/// and the first layer reads `rows` in place. `lines` is the net's
/// `stream_lines` and ends as `k` one-row calls would leave it.
pub(crate) fn advance_trunk<'a>(
    lines: &'a mut [LineBuffer],
    trunk: &[Layer],
    rows: &[f32],
    staged: &mut [f32],
) -> Option<&'a [f32]> {
    let n = trunk.len();
    let (buffers, out) = lines.split_at_mut(n);
    let out = &mut out[0];
    // The first layer reads one channel: a tick row is one of its rows.
    let k = rows.len() / buffers[0].w;
    for (idx, layer) in trunk.iter().enumerate() {
        let (conv, post) = layer.trunk_conv();
        let (done, rest) = buffers.split_at_mut(idx);
        let src = done.last().map_or(rows, |prev| prev.swept_out(k));
        let line = &mut rest[0];
        let (x, h) = if k == 1 {
            line.push(src);
            (&line.data[..], line.kh)
        } else {
            line.extend(src, k);
            (&line.map[..line.map_len(k)], line.kh - 1 + k)
        };
        let planned = line.conv.as_mut().expect("a trunk buffer plans its calls");
        let lowering = if k == 1 {
            planned.tick
        } else {
            conv.lowering(h, line.w)
        };
        let len = planned.out.len() / MAX_SWEEP * k;
        let (stage, rows_out) = (&mut planned.stage, &mut planned.out[..len]);
        conv.run(lowering, x, 1, stage, post, rows_out);
    }
    let last = buffers[n - 1].swept_out(k);
    if k == 1 {
        out.push(last);
        return Some(&out.data);
    }
    // Window `j`'s trunk output is rows `j..j + out_rows` of the map.
    out.extend(last, k);
    let (per, h) = (out.kh * out.w, out.kh - 1 + k);
    let map = &out.map[..out.map_len(k)];
    let channels = out.data.len() / per;
    let windows = staged[..k * channels * per].chunks_exact_mut(channels * per);
    for (j, window) in windows.enumerate() {
        for (dst, src) in window
            .chunks_exact_mut(per)
            .zip(map.chunks_exact(h * out.w))
        {
            dst.copy_from_slice(&src[j * out.w..][..per]);
        }
    }
    None
}

/// True when the `[window, features]` map `next` is `prev` slid by one
/// row: `next`'s rows `0..window - 1` equal `prev`'s rows `1..window`.
///
/// The compare is on bits, not `==`: `-0.0` does not pass for `0.0` (the
/// two round differently downstream) and a NaN row matches itself, so a
/// `true` here means the overlap is the very same operands.
pub(crate) fn slid_by_one(prev: &[f32], next: &[f32], features: usize) -> bool {
    assert_eq!(prev.len(), next.len(), "window length");
    // A branch-free fold, so the whole overlap is compared at vector
    // width; a miss is rare and pays for a full forward anyway.
    let differing = prev[features..]
        .iter()
        .zip(next)
        .fold(0, |d, (a, b)| d | (a.to_bits() ^ b.to_bits()));
    differing == 0
}

/// How many of the windows a tier served through `ModelRegistry::forward`
/// and `forward_slides` reused the trunk of the window before.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StreamStats {
    /// Windows that were the previous one slid by a row: only the newest
    /// row went through the trunk.
    pub hits: u64,
    /// Windows that ran whole — every window of a tier whose trunk is not
    /// shift-invariant.
    pub misses: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prime_keeps_each_channels_tail_and_push_slides_it() {
        // Two channels, h = 4, w = 2; keep kh = 3 rows.
        let map: Vec<f32> = (0..16).map(|v| v as f32).collect();
        let mut line = LineBuffer::new(2, 3, 2);
        line.prime(&map, 4);
        assert_eq!(
            line.data,
            [2., 3., 4., 5., 6., 7., 10., 11., 12., 13., 14., 15.]
        );
        line.push(&[100., 101., 200., 201.]);
        assert_eq!(
            line.data,
            [4., 5., 6., 7., 100., 101., 12., 13., 14., 15., 200., 201.]
        );
        // kh = 1 keeps only the pushed row.
        let mut one = LineBuffer::new(2, 1, 2);
        one.push(&[1., 2., 3., 4.]);
        assert_eq!(one.data, [1., 2., 3., 4.]);
    }

    /// `extend` at any `k` — shorter than, equal to and longer than `kh`
    /// — leaves the buffer where `k` pushes leave it, and its map holds
    /// every state it passed through.
    #[test]
    fn extending_by_k_rows_is_k_pushes_and_the_map_keeps_every_step() {
        let (in_c, w) = (3, 2);
        for kh in [1, 3, 4] {
            for k in 1..=6 {
                let seed: Vec<f32> = (0..in_c * 5 * w).map(|v| v as f32).collect();
                let mut swept = LineBuffer::new(in_c, kh, w);
                swept.prime(&seed, 5);
                swept.map.fill(f32::NAN);
                let mut pushed = swept.clone();
                // `rows` is [in_c, k, w]; row `j` of every channel is one push.
                let rows: Vec<f32> = (0..in_c * k * w).map(|v| 100.0 + v as f32).collect();
                let h = kh - 1 + k;
                swept.extend(&rows, k);
                let map = &swept.map[..swept.map_len(k)];
                assert_eq!(map.len(), in_c * h * w);
                for j in 0..k {
                    let row: Vec<f32> = (0..in_c)
                        .flat_map(|c| rows[(c * k + j) * w..][..w].to_vec())
                        .collect();
                    pushed.push(&row);
                    for c in 0..in_c {
                        assert_eq!(
                            map[(c * h + j) * w..][..kh * w],
                            pushed.data[c * kh * w..][..kh * w],
                            "kh {kh} k {k} step {j} channel {c}"
                        );
                    }
                }
                assert_eq!(swept.data, pushed.data, "kh {kh} k {k}");
            }
        }
    }
}
