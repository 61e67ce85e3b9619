//! Neural-network layers and their analytic cost counters.
//!
//! Each layer owns its weights, and the register panels its constructor
//! packs them into once, and offers two forward passes: a naive
//! `forward_reference` on [`Tensor`]s (the oracle) and a packed one over
//! flat batch buffers against its own panels (what `crate::net`'s
//! executor runs). The MAC count
//! of a pass is [`count`]'s, which prices a spec's layer list for the
//! accelerator's latency model without building it.

pub mod activation;
pub mod attention;
pub mod conv;
pub mod count;
pub mod linear;
pub mod lstm;
pub mod norm;

pub use activation::{leaky_relu, relu, softmax_last_dim, softmax_rows};
pub use attention::MultiHeadAttention;
pub use conv::Conv2d;
pub use linear::Linear;
pub use lstm::Lstm;
pub use norm::LayerNorm;

use crate::tensor::Tensor;

/// Rows [`softmax_rows`] folds side by side.
const ROW_LANES: usize = 8;

/// Folds each row of a block of up to `L` `cols`-wide rows left to right,
/// one row per lane: `acc[l] = f(acc[l], row_l[c], l)` for `c`
/// increasing, from `seed`. Each lane is its own row's fold in its own
/// order, so the bits are a per-row loop's; the lanes are independent
/// chains, so the folds overlap instead of waiting on one add at a time.
/// A short block repeats its last row in the spare lanes, whose results
/// nobody reads.
///
/// `block` is whole rows (`chunks(L * cols)` of a row-major buffer,
/// `cols > 0`).
#[inline(always)]
pub(crate) fn fold_rows<const L: usize>(
    block: &[f32],
    cols: usize,
    seed: f32,
    f: impl Fn(f32, f32, usize) -> f32,
) -> [f32; L] {
    let last = block.len() / cols - 1;
    let rows: [&[f32]; L] = std::array::from_fn(|l| &block[l.min(last) * cols..][..cols]);
    let mut acc = [seed; L];
    for c in 0..cols {
        for (l, (acc, row)) in acc.iter_mut().zip(rows).enumerate() {
            *acc = f(*acc, row[c], l);
        }
    }
    acc
}

/// Asserts a tensor's rank, with a readable panic message.
pub(crate) fn expect_rank(t: &Tensor, rank: usize, what: &str) {
    assert_eq!(
        t.shape().len(),
        rank,
        "{what} expects a rank-{rank} tensor, got shape {:?}",
        t.shape()
    );
}
