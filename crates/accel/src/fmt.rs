//! The data formatter (FMT) of the memory engine.
//!
//! "The data formatter (FMT) is proposed to support prompt data
//! transformation of the streaming data as in lowering, shuffling, and
//! transposing" (§III-C). FMT runs layout transformations as streams whose
//! partial results feed the PEs early, so with double buffering their
//! latency largely hides behind compute. This module implements the three
//! transformations functionally and models the streamed cycle cost.

use lt_dnn::Tensor;

/// FMT lanes: elements moved per cycle.
const FMT_LANES: u64 = 64;
/// Start-up cycles before the first element emerges.
const FMT_STARTUP: u64 = 8;

/// Cycle cost of streaming `elements` through FMT.
pub fn streamed_cycles(elements: u64) -> u64 {
    FMT_STARTUP + elements.div_ceil(FMT_LANES)
}

/// Cycles of a transform that runs concurrently with `compute_cycles` of
/// PE work under fine-grained double buffering: only the excess shows.
pub fn overlapped_cycles(elements: u64, compute_cycles: u64) -> u64 {
    streamed_cycles(elements).saturating_sub(compute_cycles)
}

/// Transposes a `[H, W]` tensor to `[W, H]`.
///
/// # Panics
///
/// Panics if the input is not rank 2.
pub fn transpose_2d(x: &Tensor) -> Tensor {
    assert_eq!(x.shape().len(), 2, "transpose_2d expects rank 2");
    let (h, w) = (x.shape()[0], x.shape()[1]);
    let mut out = Tensor::zeros(&[w, h]);
    for i in 0..h {
        for j in 0..w {
            out.set(&[j, i], x.at(&[i, j]));
        }
    }
    out
}

/// Flattens a `[C, H, W]` tensor along the requested dimension order,
/// producing `[H*W, C]` (channel-last rows ready for a dense layer) —
/// the "flattens 2-D tensors with respect to the height (H), width (W),
/// or channel (C) dimensions" operation of Fig. 7.
///
/// # Panics
///
/// Panics if the input is not rank 3.
pub fn flatten_hw_c(x: &Tensor) -> Tensor {
    assert_eq!(x.shape().len(), 3, "flatten_hw_c expects rank 3");
    let (c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2]);
    let mut out = Tensor::zeros(&[h * w, c]);
    for ch in 0..c {
        for y in 0..h {
            for xx in 0..w {
                out.set(&[y * w + xx, ch], x.at(&[ch, y, xx]));
            }
        }
    }
    out
}

/// Im2col lowering: converts a `[C, H, W]` input into the
/// `[out_h*out_w, C*k_h*k_w]` matrix whose matmul with the flattened
/// kernel performs the convolution.
///
/// # Panics
///
/// Panics if the kernel does not fit the input.
pub fn lower_im2col(x: &Tensor, k_h: usize, k_w: usize) -> Tensor {
    assert_eq!(x.shape().len(), 3, "lower_im2col expects rank 3");
    let (c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2]);
    assert!(
        k_h <= h && k_w <= w,
        "kernel {k_h}x{k_w} exceeds input {h}x{w}"
    );
    let (oh, ow) = (h - k_h + 1, w - k_w + 1);
    let mut out = Tensor::zeros(&[oh * ow, c * k_h * k_w]);
    for oy in 0..oh {
        for ox in 0..ow {
            let row = oy * ow + ox;
            let mut col = 0;
            for ch in 0..c {
                for ky in 0..k_h {
                    for kx in 0..k_w {
                        out.set(&[row, col], x.at(&[ch, oy + ky, ox + kx]));
                        col += 1;
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lt_dnn::ops::Conv2d;

    #[test]
    fn transpose_round_trips() {
        let x = Tensor::from_vec((0..6).map(|v| v as f32).collect(), &[2, 3]);
        let t = transpose_2d(&x);
        assert_eq!(t.shape(), &[3, 2]);
        assert_eq!(t.at(&[2, 1]), x.at(&[1, 2]));
        assert_eq!(transpose_2d(&t), x);
    }

    #[test]
    fn flatten_layout() {
        let x = Tensor::from_vec((0..8).map(|v| v as f32).collect(), &[2, 2, 2]);
        let f = flatten_hw_c(&x);
        assert_eq!(f.shape(), &[4, 2]);
        // Row (y=0,x=1) holds channels [1, 5].
        assert_eq!(f.row(1), &[1.0, 5.0]);
    }

    /// The core FMT correctness property: im2col + matmul == Conv2d.
    #[test]
    fn im2col_lowering_reproduces_convolution() {
        let conv_kernel = Tensor::random(&[3, 2, 2, 2], 1.0, 7);
        let conv = Conv2d::from_weights(conv_kernel.clone(), vec![0.0; 3], (1, 1), (0, 0));
        let x = Tensor::random(&[2, 4, 5], 1.0, 8);
        let direct = conv.forward_reference(&x);

        // Lower and multiply: out[row, oc] = sum_col lowered[row, col] * kflat[oc, col].
        let lowered = lower_im2col(&x, 2, 2);
        let (oh, ow) = conv.output_hw(4, 5);
        for oc in 0..3 {
            for row in 0..oh * ow {
                let mut acc = 0.0f32;
                for col in 0..2 * 2 * 2 {
                    let (ic, rem) = (col / 4, col % 4);
                    let (ky, kx) = (rem / 2, rem % 2);
                    acc += lowered.at(&[row, col]) * conv_kernel.at(&[oc, ic, ky, kx]);
                }
                let direct_v = direct.at(&[oc, row / ow, row % ow]);
                // Conv2d rounds its outputs to BF16; allow one BF16 ulp.
                assert!(
                    (acc - direct_v).abs() < 0.02_f32.max(direct_v.abs() / 128.0),
                    "oc {oc} row {row}: {acc} vs {direct_v}"
                );
            }
        }
    }

    #[test]
    fn streamed_cycles_scale() {
        assert_eq!(streamed_cycles(0), FMT_STARTUP);
        assert_eq!(streamed_cycles(64), FMT_STARTUP + 1);
        assert_eq!(streamed_cycles(65), FMT_STARTUP + 2);
    }

    #[test]
    fn overlap_hides_cost_behind_compute() {
        // A transform fully covered by compute costs nothing extra.
        assert_eq!(overlapped_cycles(640, 1_000), 0);
        // Only the excess shows.
        let raw = streamed_cycles(64_000);
        assert_eq!(overlapped_cycles(64_000, 100), raw - 100);
    }

    #[test]
    #[should_panic(expected = "exceeds input")]
    fn oversized_kernel_panics() {
        let x = Tensor::zeros(&[1, 2, 2]);
        let _ = lower_im2col(&x, 3, 1);
    }
}
