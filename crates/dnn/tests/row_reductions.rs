//! The row reductions against per-row oracles: `softmax_rows` folds
//! eight rows at a time and `LayerNorm::forward_rows` eight or sixteen
//! (on an AVX-512 CPU), one row per lane, and both must give every row
//! the bits of a loop that reduces it on its own. `softmax_last_dim`,
//! the softmax's reference path, calls `softmax_rows` itself, so the
//! oracle for it lives here; `LayerNorm::forward_reference` is the layer
//! norm's.
//!
//! Rows may hold NaN, ±∞ and ±0. Rust leaves the payload of a NaN that
//! arithmetic makes unspecified, so every NaN counts as one value;
//! every other output, signed zeros included, must match bit for bit.

use lt_dnn::math::exp_slice;
use lt_dnn::ops::{softmax_rows, LayerNorm};
use lt_dnn::Tensor;
use proptest::prelude::*;

/// The per-row softmax: subtract the row's max, exponentiate, then sum
/// left to right and divide.
fn softmax_oracle(data: &mut [f32], rows: usize, cols: usize) {
    for r in 0..rows {
        let row = &mut data[r * cols..(r + 1) * cols];
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        for v in row.iter_mut() {
            *v -= max;
        }
        exp_slice(row);
        let mut sum = 0.0;
        for &v in row.iter() {
            sum += v;
        }
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
}

/// A `rows x cols` matrix from `seed`: most rows random in [-8, 8],
/// some all +0, all -0 or mixed zeros, and some with a NaN, +∞ or -∞
/// planted among random values.
fn matrix(rows: usize, cols: usize, seed: u64) -> Vec<f32> {
    let mut data = Tensor::random(&[rows, cols], 8.0, seed).data().to_vec();
    for (r, row) in data.chunks_exact_mut(cols).enumerate() {
        let kind = seed.wrapping_mul(31).wrapping_add(r as u64 * 7) % 11;
        let at = (seed as usize + r) % cols;
        match kind {
            0 => row.fill(0.0),
            1 => row.fill(-0.0),
            2 => row
                .iter_mut()
                .enumerate()
                .for_each(|(c, v)| *v = if c % 2 == 0 { 0.0 } else { -0.0 }),
            3 => row[at] = f32::NAN,
            4 => row[at] = f32::INFINITY,
            5 => row[at] = f32::NEG_INFINITY,
            _ => {}
        }
    }
    data
}

/// Bit patterns with every NaN mapped to one.
fn bits(v: &[f32]) -> Vec<u32> {
    v.iter()
        .map(|f| {
            if f.is_nan() {
                f32::NAN.to_bits()
            } else {
                f.to_bits()
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every row count (full eight-row blocks and the short last block)
    /// and width gives each row its per-row softmax.
    #[test]
    fn softmax_rows_matches_the_per_row_loop(
        (rows, cols, seed) in (1usize..=20, 1usize..=70, any::<u64>()),
    ) {
        let mut got = matrix(rows, cols, seed);
        let mut want = got.clone();
        softmax_rows(&mut got, rows, cols);
        softmax_oracle(&mut want, rows, cols);
        prop_assert_eq!(bits(&got), bits(&want));
    }

    /// The flat layer norm gives each row `forward_reference`'s bits,
    /// over one to five blocks of eight rows or up to three of sixteen.
    #[test]
    fn layer_norm_rows_match_the_reference(
        (rows, cols, seed) in (1usize..=40, 1usize..=70, any::<u64>()),
    ) {
        let x = matrix(rows, cols, seed);
        let ln = LayerNorm::new(cols);
        let want = ln.forward_reference(&Tensor::from_vec(x.clone(), &[rows, cols]));
        let mut got = vec![f32::NAN; rows * cols];
        ln.forward_rows(&x, &mut got);
        prop_assert_eq!(bits(&got), bits(want.data()));
    }
}
