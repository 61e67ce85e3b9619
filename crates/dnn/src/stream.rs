//! State for the streaming forward: what a model keeps between two
//! single-query forwards so that a window slid by one tick row costs one
//! new row per trunk layer instead of the whole map.
//!
//! A *valid*-padded convolution is shift-invariant in time: output row
//! `y` reads input rows `y..y + kh` and nothing else, so when the window
//! slides by one row every output row but the newest is a row the
//! previous forward already produced. Each trunk convolution keeps a
//! [`LineBuffer`] — the trailing `kh` rows of its input — and one more
//! holds the trunk's whole output; [`slid_by_one`] is the content check
//! that decides whether they may be reused.

use crate::batch::PackedWeights;
use crate::ops::Conv2d;
use crate::scratch::ScratchPad;

/// The trailing `kh` rows of a `[in_c, h, w]` activation map, in the
/// `[in_c, kh, w]` layout a convolution of kernel height `kh` reads: one
/// `Conv2d::forward_batch_packed` call on it at `h = kh` yields exactly
/// the output row a full-height call stores last.
#[derive(Debug, Clone)]
pub struct LineBuffer {
    data: Vec<f32>,
    kh: usize,
    w: usize,
}

impl LineBuffer {
    fn new(in_c: usize, kh: usize, w: usize) -> Self {
        LineBuffer {
            data: vec![0.0; in_c * kh * w],
            kh,
            w,
        }
    }

    /// Refills from a full `[in_c, h, w]` map (`h >= kh`): every channel's
    /// last `kh` rows.
    pub(crate) fn prime(&mut self, map: &[f32], h: usize) {
        let (kept, full) = (self.kh * self.w, h * self.w);
        assert_eq!(map.len() * kept, self.data.len() * full, "map length");
        for (dst, src) in self.data.chunks_exact_mut(kept).zip(map.chunks_exact(full)) {
            dst.copy_from_slice(&src[full - kept..]);
        }
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
}

/// The buffers [`advance_trunk`] works through for a trunk of `convs` over
/// rows of width `w` whose output keeps `out_rows` rows: one
/// [`LineBuffer`] per convolution's input, then one for the output.
pub(crate) fn trunk_lines<const N: usize>(
    convs: [&Conv2d; N],
    mut w: usize,
    out_rows: usize,
) -> Vec<LineBuffer> {
    let mut lines = Vec::with_capacity(N + 1);
    let mut channels = 0;
    for conv in convs {
        let kh = conv.kernel_hw().0;
        lines.push(LineBuffer::new(conv.in_channels(), kh, w));
        (channels, w) = (conv.out_channels(), conv.output_hw(kh, w).1);
    }
    lines.push(LineBuffer::new(channels, out_rows, w));
    lines
}

/// Streams the newest (last) tick row of `window`, a slid window, through
/// a trunk of `N` convolutions (panels `0..N` of `packed`), each followed
/// by `act`, and returns the trunk's `[C, out_rows]` output advanced by it.
///
/// Layer by layer the row is pushed into that convolution's line buffer
/// and becomes one output row by the same packed convolution as the
/// whole-window forward, at `h = kh`: each output's accumulator sees the
/// same operands in the same order. `lines` is [`trunk_lines`] of `convs`.
pub(crate) fn advance_trunk<'a, const N: usize>(
    lines: &'a mut [LineBuffer],
    convs: [&Conv2d; N],
    act: impl Fn(&mut [f32]),
    window: &[f32],
    packed: &PackedWeights,
    pad: &mut ScratchPad,
) -> &'a [f32] {
    let (trunk, out) = lines.split_at_mut(N);
    let row = trunk[0].data.len() / trunk[0].kh;
    let mut cur = pad.take_dirty(row);
    cur.copy_from_slice(&window[window.len() - row..]);
    for (idx, (conv, line)) in convs.into_iter().zip(trunk).enumerate() {
        line.push(&cur);
        let ow = conv.output_hw(line.kh, line.w).1;
        let mut nxt = pad.take_dirty(conv.out_channels() * ow);
        let panel = packed.panel(idx);
        conv.forward_batch_packed(&line.data, 1, line.kh, line.w, panel, 1, pad, &mut nxt);
        pad.give(std::mem::replace(&mut cur, nxt));
        act(&mut cur);
    }
    out[0].push(&cur);
    pad.give(cur);
    &out[0].data
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

/// How many of a tier's `ModelRegistry::forward` calls reused the
/// previous call's trunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StreamStats {
    /// Forwards whose window was the previous one slid by a row: only
    /// the newest row went through the trunk.
    pub hits: u64,
    /// Forwards that ran the whole window — every forward of a tier
    /// whose trunk is not shift-invariant.
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
}
