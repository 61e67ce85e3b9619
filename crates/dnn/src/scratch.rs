//! A reusable buffer arena for allocation-free inference.
//!
//! Every packed layer ([`Conv2d::forward_batch_packed`] and friends) and
//! the net executor behind `Net::forward_batch_scratch` draw their buffers
//! from a [`ScratchPad`] instead of the global allocator. The pad keeps
//! a free list of retired buffers; once a model has run a couple of
//! forward passes the pool holds a buffer for every shape the network
//! produces and steady-state inference performs **zero heap
//! allocations** (asserted by the `zero_alloc` integration test with a
//! counting global allocator).
//!
//! Ownership protocol:
//!
//! * `take` hands out a **zero-filled** buffer of the exact requested
//!   length; `take_dirty` skips the fill for buffers the caller fully
//!   overwrites.
//! * The caller owns the buffer until it returns it with `give`;
//!   buffers are never reclaimed implicitly, so holding two live
//!   buffers from the same pad is always safe.
//! * A buffer that cannot be satisfied from the free list is allocated
//!   fresh and counted in [`ScratchPad::misses`]; after warm-up the
//!   miss counter must stop growing.
//!
//! [`Conv2d::forward_batch_packed`]: crate::ops::Conv2d::forward_batch_packed

/// A best-fit free-list pool of `f32` buffers.
#[derive(Debug, Default)]
pub struct ScratchPad {
    f32_pool: Vec<Vec<f32>>,
    misses: u64,
}

impl ScratchPad {
    /// Creates an empty pad (no allocation until the first `take`).
    pub fn new() -> Self {
        ScratchPad::default()
    }

    /// Takes a zero-filled `f32` buffer of exactly `len` elements.
    ///
    /// Reuses the smallest pooled buffer whose capacity fits (best fit);
    /// allocates — and counts a miss — only when none fits.
    pub fn take(&mut self, len: usize) -> Vec<f32> {
        let mut buf = match best_fit(&self.f32_pool, len) {
            Some(i) => self.f32_pool.swap_remove(i),
            None => {
                self.misses += 1;
                Vec::with_capacity(len)
            }
        };
        buf.clear();
        buf.resize(len, 0.0);
        buf
    }

    /// Takes an `f32` buffer of exactly `len` elements with
    /// **unspecified contents**.
    ///
    /// Cheaper than [`Self::take`] on large buffers because pooled
    /// storage is not re-zeroed (only capacity growth is zero-filled).
    /// Only for buffers the caller fully overwrites before reading —
    /// activation maps, direct-convolution stages and GEMM outputs in the
    /// batched inference path, where every element is written by
    /// construction.
    pub fn take_dirty(&mut self, len: usize) -> Vec<f32> {
        let mut buf = match best_fit(&self.f32_pool, len) {
            Some(i) => self.f32_pool.swap_remove(i),
            None => {
                self.misses += 1;
                Vec::with_capacity(len)
            }
        };
        if buf.len() > len {
            buf.truncate(len);
        } else {
            buf.resize(len, 0.0);
        }
        buf
    }

    /// Returns an `f32` buffer to the pool.
    pub fn give(&mut self, buf: Vec<f32>) {
        if buf.capacity() > 0 {
            self.f32_pool.push(buf);
        }
    }

    /// How many `take`s could not be served from the pool (each miss is
    /// one heap allocation). Stable across calls once warmed up.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

/// Index of the smallest pooled buffer with capacity >= `len`.
fn best_fit(pool: &[Vec<f32>], len: usize) -> Option<usize> {
    let mut best: Option<(usize, usize)> = None;
    for (i, v) in pool.iter().enumerate() {
        let cap = v.capacity();
        if cap >= len && best.is_none_or(|(_, c)| cap < c) {
            best = Some((i, cap));
        }
    }
    best.map(|(i, _)| i)
}

#[cfg(test)]
impl ScratchPad {
    /// Buffers currently sitting in the free list.
    pub(crate) fn pooled_buffers(&self) -> usize {
        self.f32_pool.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_is_zero_filled_and_sized() {
        let mut pad = ScratchPad::new();
        let mut b = pad.take(8);
        assert_eq!(b.len(), 8);
        assert!(b.iter().all(|&v| v == 0.0));
        b[3] = 5.0;
        pad.give(b);
        // Reuse must re-zero.
        let b2 = pad.take(8);
        assert!(b2.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn take_dirty_reuses_without_rezeroing() {
        let mut pad = ScratchPad::new();
        let mut b = pad.take(16);
        b.fill(7.0);
        pad.give(b);
        let b2 = pad.take_dirty(8);
        assert_eq!(b2.len(), 8);
        assert_eq!(pad.misses(), 1, "dirty take must hit the pool");
        // Contents are unspecified; here the stale values survive,
        // which is exactly the re-zeroing the dirty take avoids.
        assert!(b2.iter().all(|&v| v == 7.0));
        pad.give(b2);
        // Growth within pooled capacity zero-fills only the new region.
        let b3 = pad.take_dirty(12);
        assert_eq!(b3.len(), 12);
        assert_eq!(pad.misses(), 1, "capacity-16 buffer serves the take");
        assert!(b3[..8].iter().all(|&v| v == 7.0));
        assert!(b3[8..].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn reuse_does_not_miss() {
        let mut pad = ScratchPad::new();
        let b = pad.take(16);
        assert_eq!(pad.misses(), 1);
        pad.give(b);
        let b2 = pad.take(16);
        assert_eq!(pad.misses(), 1, "second take of same size must hit");
        assert_eq!(b2.capacity(), 16);
    }

    #[test]
    fn best_fit_prefers_smallest_adequate() {
        let mut pad = ScratchPad::new();
        let small = pad.take(4);
        let big = pad.take(100);
        pad.give(big);
        pad.give(small);
        let b = pad.take(3);
        assert!(b.capacity() < 100, "must pick the 4-capacity buffer");
        assert_eq!(pad.misses(), 2);
    }

    #[test]
    fn smaller_pooled_buffer_does_not_serve_larger_take() {
        let mut pad = ScratchPad::new();
        pad.give(pad_buf(4));
        let b = pad.take(8);
        assert_eq!(b.len(), 8);
        assert_eq!(pad.misses(), 1);
    }

    fn pad_buf(len: usize) -> Vec<f32> {
        vec![0.0; len]
    }
}
