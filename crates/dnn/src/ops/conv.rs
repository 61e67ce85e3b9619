//! 2-D convolution over `[C, H, W]` feature maps.

use crate::batch::PackedPanels;
use crate::bf16::bf16_round;
use crate::kernels::{
    conv2d_direct_bf16, conv2d_direct_stage_len, gemm_packed, DirectConv, Segment,
};
use crate::ops::count::{conv2d_macs, conv_out_len};
use crate::ops::expect_rank;
use crate::scratch::ScratchPad;
use crate::tensor::Tensor;

/// A 2-D convolution with optional horizontal stride and vertical zero
/// padding — the shapes of the three models.
///
/// Input layout is `[in_c, H, W]`; kernels are `[out_c, in_c, k_h, k_w]`.
/// LOB models treat `H` as tick time and `W` as the flattened level axis
/// (paper Fig. 3).
#[derive(Debug, Clone, PartialEq)]
pub struct Conv2d {
    kernel: Tensor,
    bias: Vec<f32>,
    stride: (usize, usize),
    padding: (usize, usize),
}

impl Conv2d {
    /// Creates a convolution with Xavier-uniform weights.
    ///
    /// # Panics
    ///
    /// Panics unless the vertical stride is 1, the horizontal stride is
    /// positive and the horizontal padding is 0.
    pub fn new(
        in_c: usize,
        out_c: usize,
        kernel: (usize, usize),
        stride: (usize, usize),
        padding: (usize, usize),
        seed: u64,
    ) -> Self {
        assert_model_shape(stride, padding);
        let fan_in = in_c * kernel.0 * kernel.1;
        let fan_out = out_c * kernel.0 * kernel.1;
        let scale = (6.0 / (fan_in + fan_out) as f32).sqrt();
        Conv2d {
            kernel: Tensor::random(&[out_c, in_c, kernel.0, kernel.1], scale, seed).quantize_bf16(),
            bias: vec![0.0; out_c],
            stride,
            padding,
        }
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.kernel.shape()[0]
    }

    /// Input channel count.
    pub fn in_channels(&self) -> usize {
        self.kernel.shape()[1]
    }

    /// Kernel height and width.
    pub fn kernel_hw(&self) -> (usize, usize) {
        (self.kernel.shape()[2], self.kernel.shape()[3])
    }

    /// Output spatial size for an `(h, w)` input.
    pub fn output_hw(&self, h: usize, w: usize) -> (usize, usize) {
        let kh = self.kernel.shape()[2] as u64;
        let kw = self.kernel.shape()[3] as u64;
        (
            conv_out_len(h as u64, kh, self.stride.0 as u64, self.padding.0 as u64) as usize,
            conv_out_len(w as u64, kw, self.stride.1 as u64, self.padding.1 as u64) as usize,
        )
    }

    /// Packs the `[out_c, in_c * kh * kw]` kernel matrix into register
    /// panels for the batched forward path.
    pub fn pack(&self) -> PackedPanels {
        let k = self.in_channels() * self.kernel.shape()[2] * self.kernel.shape()[3];
        PackedPanels::pack(self.kernel.data(), self.out_channels(), k)
    }

    /// Batched convolution over a sample-major `[batch, in_c, h, w]`
    /// activation block, writing `[batch, out_c, oh * ow]` into `out`.
    ///
    /// A sample exactly one kernel in size with no padding is its own
    /// patch row, so the whole batch runs as one GEMM sweep over `x` in
    /// place. Every other shape runs sample by sample: a kernel as wide as
    /// a one-channel input (the CNN's first layer) as one GEMM over its
    /// overlapping patch rows in place, every other kernel through the
    /// direct register-tile convolution. Each sample is `==` to
    /// [`Self::forward_reference`] (see [`crate::kernels`] for the
    /// accumulation-order contract).
    ///
    /// # Panics
    ///
    /// Panics on buffer-length or packed-shape mismatches.
    #[allow(clippy::too_many_arguments)]
    pub fn forward_batch_packed(
        &self,
        x: &[f32],
        batch: usize,
        h: usize,
        w: usize,
        packed: &PackedPanels,
        pad: &mut ScratchPad,
        out: &mut [f32],
    ) {
        let in_c = self.in_channels();
        let out_c = self.out_channels();
        let (kh, kw) = self.kernel_hw();
        let (oh, ow) = self.output_hw(h, w);
        let k = in_c * kh * kw;
        let positions = oh * ow;
        assert_eq!(packed.m(), out_c, "packed kernel row mismatch");
        assert_eq!(packed.k(), k, "packed kernel width mismatch");
        assert_eq!(x.len(), batch * in_c * h * w, "batched conv input length");
        assert_eq!(
            out.len(),
            batch * out_c * positions,
            "batched conv output length"
        );
        // A sample exactly one kernel in size — a streamed `k = 1` row's
        // line buffer — is its own (single) patch row: `[in_c, kh, kw]` is
        // `ic → ky → kx` order. One GEMM row per sample reads `x`
        // in place, lanes on output channels; nothing is staged.
        if (h, w) == (kh, kw) && self.padding == (0, 0) {
            gemm_packed(
                [Segment::packed(packed.data(), k, x, k)],
                Some(&self.bias),
                batch,
                out_c,
                bf16_round,
                out,
                (out_c, 1),
            );
            return;
        }
        // A kernel as wide as a one-channel input (the CNN's first layer):
        // output row `oy`'s patch is `x[oy * w..][..kh * w]`, contiguous
        // and in `ky → kx` order, so one GEMM per sample reads its rows in
        // place, `w` apart. (The direct convolution would transpose all
        // `kh * w` taps of every block into its stage.)
        if in_c == 1 && kw == w && self.padding == (0, 0) {
            for s in 0..batch {
                gemm_packed(
                    [Segment::packed(
                        packed.data(),
                        k,
                        &x[s * h * w..][..h * w],
                        w,
                    )],
                    Some(&self.bias),
                    oh,
                    out_c,
                    bf16_round,
                    &mut out[s * out_c * oh..][..out_c * oh],
                    (1, oh),
                );
            }
            return;
        }
        // Every other convolution skips patch materialization: each block
        // of positions stages one word of lanes per tap.
        let shape = DirectConv {
            in_c,
            h,
            w,
            kh,
            kw,
            sw: self.stride.1,
            ph: self.padding.0,
            out_c,
        };
        let mut stage = pad.take_dirty(conv2d_direct_stage_len(in_c, kh, kw));
        let (x_len, out_len) = (in_c * h * w, out_c * positions);
        for s in 0..batch {
            let (xs, o) = (&x[s * x_len..][..x_len], &mut out[s * out_len..][..out_len]);
            conv2d_direct_bf16(shape, self.kernel.data(), &self.bias, xs, &mut stage, o);
        }
        pad.give(stage);
    }

    /// The naive reference convolution (kept for equivalence tests and
    /// the benchmark baseline); outputs are BF16-rounded.
    ///
    /// # Panics
    ///
    /// Panics if the input is not rank 3 or its channel count mismatches.
    pub fn forward_reference(&self, x: &Tensor) -> Tensor {
        expect_rank(x, 3, "Conv2d");
        let [in_c, h, w] = [x.shape()[0], x.shape()[1], x.shape()[2]];
        assert_eq!(in_c, self.in_channels(), "input channel mismatch");
        let (kh, kw) = self.kernel_hw();
        let (oh, ow) = self.output_hw(h, w);
        let out_c = self.out_channels();
        let mut out = Tensor::zeros(&[out_c, oh, ow]);
        let (ph, pw) = self.padding;
        for oc in 0..out_c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = self.bias[oc];
                    let base_y = oy * self.stride.0;
                    let base_x = ox * self.stride.1;
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
                                acc += self.kernel.at(&[oc, ic, ky, kx])
                                    * x.at(&[ic, iy - ph, ix - pw]);
                            }
                        }
                    }
                    out.set(&[oc, oy, ox], bf16_round(acc));
                }
            }
        }
        out
    }

    /// MACs of a forward pass on an `(h, w)` input.
    pub fn macs(&self, h: usize, w: usize) -> u64 {
        let (oh, ow) = self.output_hw(h, w);
        conv2d_macs(
            self.out_channels() as u64,
            self.in_channels() as u64,
            self.kernel.shape()[2] as u64,
            self.kernel.shape()[3] as u64,
            oh as u64,
            ow as u64,
        )
    }
}

/// The one stride and padding family `forward_batch_packed` lowers:
/// unit vertical stride, a positive horizontal one, no horizontal padding.
fn assert_model_shape(stride: (usize, usize), padding: (usize, usize)) {
    assert!(stride.1 > 0, "stride must be positive");
    assert!(
        stride.0 == 1 && padding.1 == 0,
        "Conv2d takes unit vertical stride and no horizontal padding"
    );
}

#[cfg(test)]
impl Conv2d {
    /// Creates a convolution from explicit weights.
    ///
    /// # Panics
    ///
    /// Panics on rank/shape mismatches and where [`Self::new`] does.
    fn from_weights(
        kernel: Tensor,
        bias: Vec<f32>,
        stride: (usize, usize),
        padding: (usize, usize),
    ) -> Self {
        assert_eq!(kernel.shape().len(), 4, "kernel must be [out,in,kh,kw]");
        assert_eq!(kernel.shape()[0], bias.len(), "bias length mismatch");
        assert_model_shape(stride, padding);
        Conv2d {
            kernel,
            bias,
            stride,
            padding,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 1x1 kernel with weight 1 is the identity.
    #[test]
    fn one_by_one_identity() {
        let kernel = Tensor::from_vec(vec![1.0], &[1, 1, 1, 1]);
        let conv = Conv2d::from_weights(kernel, vec![0.0], (1, 1), (0, 0));
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 2, 2]);
        assert_eq!(conv.forward_reference(&x).data(), x.data());
    }

    /// Hand-computed 2x2 box filter over a 3x3 input.
    #[test]
    fn box_filter_reference() {
        let kernel = Tensor::from_vec(vec![1.0; 4], &[1, 1, 2, 2]);
        let conv = Conv2d::from_weights(kernel, vec![0.0], (1, 1), (0, 0));
        let x = Tensor::from_vec((1..=9).map(|v| v as f32).collect(), &[1, 3, 3]);
        let y = conv.forward_reference(&x);
        assert_eq!(y.shape(), &[1, 2, 2]);
        assert_eq!(y.data(), &[12.0, 16.0, 24.0, 28.0]); // sums of 2x2 blocks
    }

    #[test]
    fn stride_downsamples() {
        let kernel = Tensor::from_vec(vec![1.0], &[1, 1, 1, 1]);
        let conv = Conv2d::from_weights(kernel, vec![0.0], (1, 2), (0, 0));
        let x = Tensor::from_vec((0..16).map(|v| v as f32).collect(), &[1, 4, 4]);
        let y = conv.forward_reference(&x);
        assert_eq!(y.shape(), &[1, 4, 2]);
        assert_eq!(y.data(), &[0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0]);
    }

    #[test]
    fn padding_preserves_size() {
        let kernel = Tensor::from_vec(vec![0.0, 1.0, 0.0], &[1, 1, 3, 1]);
        let conv = Conv2d::from_weights(kernel, vec![0.0], (1, 1), (1, 0));
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 2, 2]);
        let y = conv.forward_reference(&x);
        assert_eq!(y.shape(), &[1, 2, 2]);
        assert_eq!(y.data(), x.data(), "center-tap kernel with same padding");
    }

    #[test]
    #[should_panic(expected = "unit vertical stride")]
    fn vertical_stride_is_rejected() {
        let _ = Conv2d::new(1, 1, (1, 1), (2, 1), (0, 0), 0);
    }

    #[test]
    #[should_panic(expected = "no horizontal padding")]
    fn horizontal_padding_is_rejected() {
        let _ = Conv2d::new(1, 1, (1, 3), (1, 1), (0, 1), 0);
    }

    #[test]
    fn multi_channel_sums_inputs() {
        // Two input channels, kernel taps both with weight 1.
        let kernel = Tensor::from_vec(vec![1.0, 1.0], &[1, 2, 1, 1]);
        let conv = Conv2d::from_weights(kernel, vec![0.5], (1, 1), (0, 0));
        let x = Tensor::from_vec(vec![1.0, 2.0, 10.0, 20.0], &[2, 1, 2]);
        let y = conv.forward_reference(&x);
        assert_eq!(y.data(), &[11.5, 22.5]);
    }

    #[test]
    fn bias_and_multiple_out_channels() {
        let kernel = Tensor::from_vec(vec![1.0, 2.0], &[2, 1, 1, 1]);
        let conv = Conv2d::from_weights(kernel, vec![10.0, 20.0], (1, 1), (0, 0));
        let x = Tensor::from_vec(vec![3.0], &[1, 1, 1]);
        let y = conv.forward_reference(&x);
        assert_eq!(y.data(), &[13.0, 26.0]);
    }

    /// A kernel-sized sample is its own patch row: the packed forward
    /// reads `x` in place, so the pad neither allocates nor lends.
    #[test]
    fn kernel_sized_sample_reads_its_input_in_place() {
        // The CNN's conv1 and conv2 (each the direct convolution otherwise).
        for (in_c, (h, w)) in [(1, (4, 40)), (5, (4, 1))] {
            let conv = Conv2d::new(in_c, 9, (h, w), (1, 1), (0, 0), 3);
            let packed = conv.pack();
            let x = Tensor::random(&[in_c, h, w], 1.0, 4);
            let mut pad = ScratchPad::new();
            let mut out = vec![f32::NAN; 9];
            conv.forward_batch_packed(x.data(), 1, h, w, &packed, &mut pad, &mut out);
            assert_eq!((pad.misses(), pad.pooled_buffers()), (0, 0));
            let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&out), bits(conv.forward_reference(&x).data()));
        }
    }

    #[test]
    fn macs_match_formula() {
        let conv = Conv2d::new(3, 8, (3, 3), (1, 1), (0, 0), 0);
        // 10x10 input -> 8x8 output.
        assert_eq!(conv.macs(10, 10), 8 * 3 * 9 * 64);
        assert_eq!(conv.output_hw(10, 10), (8, 8));
    }

    #[test]
    #[should_panic(expected = "channel mismatch")]
    fn channel_mismatch_panics() {
        let conv = Conv2d::new(3, 8, (1, 1), (1, 1), (0, 0), 0);
        let _ = conv.forward_reference(&Tensor::zeros(&[2, 4, 4]));
    }
}
