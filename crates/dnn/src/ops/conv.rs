//! 2-D convolution over `[C, H, W]` feature maps.

use crate::batch::PackedPanels;
use crate::bf16::bf16_round;
use crate::kernels::{
    conv2d_direct_bf16, conv2d_direct_stage_len, gemm_packed, DirectConv, Segment, Store,
};
use crate::ops::count::conv_out_len;
use crate::ops::expect_rank;
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
    /// The `[out_c, in_c * kh * kw]` kernel matrix packed into register
    /// panels for the GEMM lowerings.
    packed: PackedPanels,
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
        let weights = Tensor::random(&[out_c, in_c, kernel.0, kernel.1], scale, seed);
        Conv2d::with_weights(weights.quantize_bf16(), vec![0.0; out_c], stride, padding)
    }

    /// The convolution of `kernel` (`[out_c, in_c, kh, kw]`) and `bias`,
    /// its kernel matrix packed.
    fn with_weights(
        kernel: Tensor,
        bias: Vec<f32>,
        stride: (usize, usize),
        padding: (usize, usize),
    ) -> Self {
        let [out_c, in_c, kh, kw] = [0, 1, 2, 3].map(|d| kernel.shape()[d]);
        let packed = PackedPanels::pack(kernel.data(), out_c, in_c * kh * kw);
        Conv2d {
            kernel,
            bias,
            stride,
            padding,
            packed,
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

    /// Batched convolution over a sample-major `[batch, in_c, h, w]`
    /// activation block, storing each `[batch, out_c, oh * ow]` output's
    /// sum into `out` as `post` says (BF16-rounded, and activated where the
    /// layer is: each layer's activation lives in its store).
    ///
    /// [`Self::lowering`] says how the shape runs, then [`Self::run`] runs
    /// it. `stage` is the caller's workspace: the direct convolution works
    /// in its first [`Self::stage_len`] elements, the GEMMs in none. Each
    /// sample is `==` to [`Self::forward_reference`] (see
    /// [`crate::kernels`] for the accumulation-order contract).
    ///
    /// # Panics
    ///
    /// Panics on buffer-length mismatches, or a `stage` shorter than the
    /// lowering works in.
    #[allow(clippy::too_many_arguments)]
    pub fn forward_batch_packed(
        &self,
        x: &[f32],
        batch: usize,
        h: usize,
        w: usize,
        stage: &mut [f32],
        post: Store,
        out: &mut [f32],
    ) {
        let (oh, ow) = self.output_hw(h, w);
        let in_c = self.in_channels();
        assert_eq!(x.len(), batch * in_c * h * w, "batched conv input length");
        assert_eq!(
            out.len(),
            batch * self.out_channels() * oh * ow,
            "batched conv output length"
        );
        let lowering = self.lowering(h, w);
        let stage = match lowering {
            Lowering::Direct(_) => &mut stage[..self.stage_len()],
            _ => &mut [],
        };
        self.run(lowering, x, batch, stage, post, out);
    }

    /// How [`Self::forward_batch_packed`] runs an `(h, w)` input.
    ///
    /// A sample exactly one kernel in size with no padding (a streamed `k
    /// = 1` row's line buffer) is its own patch row: `[in_c, kh, kw]` is
    /// `ic → ky → kx` order, so the batch is one GEMM row per sample over
    /// `x` in place, lanes on output channels. A kernel as wide as a
    /// one-channel input (the CNN's first layer) has output row `oy`'s
    /// patch at `x[oy * w..][..kh * w]`, contiguous and in `ky → kx` order:
    /// one GEMM per sample over its rows in place, `w` apart (the direct
    /// convolution would transpose all `kh * w` taps of every block into
    /// its stage). Every other shape skips patch materialization: the
    /// direct convolution stages one word of lanes per tap and block of
    /// positions.
    pub(crate) fn lowering(&self, h: usize, w: usize) -> Lowering {
        let (kh, kw) = self.kernel_hw();
        let unpadded = self.padding == (0, 0);
        if (h, w) == (kh, kw) && unpadded {
            Lowering::KernelSized
        } else if self.in_channels() == 1 && kw == w && unpadded {
            Lowering::FullWidth { h, w }
        } else {
            Lowering::Direct(self.direct(h, w))
        }
    }

    /// Runs `batch` samples at `lowering` (from [`Self::lowering`]) with
    /// its workspace: [`Self::stage_len`] elements for the direct
    /// convolution, none for the GEMMs. A caller that keeps the lowering
    /// (a streamed tick) derives nothing per call.
    ///
    /// # Panics
    ///
    /// Panics on buffer-length mismatches.
    pub(crate) fn run(
        &self,
        lowering: Lowering,
        x: &[f32],
        batch: usize,
        stage: &mut [f32],
        post: Store,
        out: &mut [f32],
    ) {
        let (in_c, out_c) = (self.in_channels(), self.out_channels());
        let (kh, kw) = self.kernel_hw();
        let k = in_c * kh * kw;
        let gemm =
            |x: &[f32], stride: usize, rows: usize, out: &mut [f32], store: (usize, usize)| {
                let seg = Segment::packed(self.packed.data(), k, x, stride);
                gemm_packed(seg, Some(&self.bias), rows, out_c, post, out, store);
            };
        match lowering {
            Lowering::KernelSized => gemm(x, k, batch, out, (out_c, 1)),
            Lowering::FullWidth { h, w } => {
                let oh = h + 1 - kh;
                let samples = x.chunks_exact(h * w).zip(out.chunks_exact_mut(out_c * oh));
                for (xs, o) in samples.take(batch) {
                    gemm(xs, w, oh, o, (1, oh));
                }
            }
            Lowering::Direct(shape) => {
                let (oh, ow) = shape.output_hw();
                let (x_len, out_len) = (in_c * shape.h * shape.w, out_c * oh * ow);
                let samples = x.chunks_exact(x_len).zip(out.chunks_exact_mut(out_len));
                for (xs, o) in samples.take(batch) {
                    self.forward_direct(shape, xs, stage, post, o);
                }
            }
        }
    }

    /// The direct convolution's shape for one `[in_c, h, w]` sample.
    pub(crate) fn direct(&self, h: usize, w: usize) -> DirectConv {
        let (kh, kw) = self.kernel_hw();
        DirectConv {
            in_c: self.in_channels(),
            h,
            w,
            kh,
            kw,
            sw: self.stride.1,
            ph: self.padding.0,
            out_c: self.out_channels(),
        }
    }

    /// The workspace [`Self::forward_direct`] needs, and so the most
    /// [`Self::forward_batch_packed`] works in at any shape.
    pub fn stage_len(&self) -> usize {
        let (kh, kw) = self.kernel_hw();
        conv2d_direct_stage_len(self.in_channels(), kh, kw)
    }

    /// One sample through the direct convolution at `shape` (from
    /// [`Self::direct`]), `post` of each sum stored in `out` (`[out_c, oh *
    /// ow]`): what [`Self::forward_batch_packed`] runs per sample on any
    /// shape that is not a GEMM over its input in place, for a caller whose
    /// samples are not back to back (a slice of each sample's channels).
    pub(crate) fn forward_direct(
        &self,
        shape: DirectConv,
        x: &[f32],
        stage: &mut [f32],
        post: Store,
        out: &mut [f32],
    ) {
        conv2d_direct_bf16(shape, self.kernel.data(), &self.bias, x, stage, post, out);
    }

    /// One convolution whose output channels are `parts`' in order: the
    /// same kernels and biases stacked, so each output channel is its
    /// part's, bit for bit, and one call serves all of them.
    ///
    /// # Panics
    ///
    /// Panics unless the parts agree in input channels, kernel, stride and
    /// padding.
    pub(crate) fn stacked(parts: &[Conv2d]) -> Self {
        let first = &parts[0];
        let shape_of = |c: &Conv2d| (c.in_channels(), c.kernel_hw(), c.stride, c.padding);
        let (mut kernel, mut bias) = (Vec::new(), Vec::new());
        for part in parts {
            assert_eq!(
                shape_of(part),
                shape_of(first),
                "stacked convolutions differ in shape"
            );
            kernel.extend_from_slice(part.kernel.data());
            bias.extend_from_slice(&part.bias);
        }
        let (kh, kw) = first.kernel_hw();
        let shape = [bias.len(), first.in_channels(), kh, kw];
        let kernel = Tensor::from_vec(kernel, &shape);
        Conv2d::with_weights(kernel, bias, first.stride, first.padding)
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
}

/// How [`Conv2d::run`] runs one input shape ([`Conv2d::lowering`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Lowering {
    /// Each sample is one kernel in size: one GEMM row, in place.
    KernelSized,
    /// A kernel as wide as a one-channel `[h, w]` input: a GEMM over each
    /// sample's overlapping patch rows, in place.
    FullWidth { h: usize, w: usize },
    /// The direct convolution, at this shape.
    Direct(DirectConv),
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
    /// MACs of a forward pass on an `(h, w)` input.
    fn macs(&self, h: usize, w: usize) -> u64 {
        let (oh, ow) = self.output_hw(h, w);
        let (kh, kw) = self.kernel_hw();
        let dims = [self.out_channels(), self.in_channels(), kh, kw, oh, ow];
        let [oc, ic, kh, kw, oh, ow] = dims.map(|d| d as u64);
        crate::ops::count::conv2d_macs(oc, ic, kh, kw, oh, ow)
    }

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
        Conv2d::with_weights(kernel, bias, stride, padding)
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
    /// reads `x` in place and works in no stage.
    #[test]
    fn kernel_sized_sample_reads_its_input_in_place() {
        // The CNN's conv1 and conv2 (each the direct convolution otherwise).
        for (in_c, (h, w)) in [(1, (4, 40)), (5, (4, 1))] {
            let conv = Conv2d::new(in_c, 9, (h, w), (1, 1), (0, 0), 3);
            let x = Tensor::random(&[in_c, h, w], 1.0, 4);
            let mut out = vec![f32::NAN; 9];
            conv.forward_batch_packed(x.data(), 1, h, w, &mut [], Store::Bf16, &mut out);
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
