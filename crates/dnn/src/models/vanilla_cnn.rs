//! The "Vanilla CNN" benchmark (Tsantekidis et al. style).
//!
//! Three convolution layers over the `[T, 40]` LOB feature map — the first
//! spanning the full feature width, the next two temporal — followed by
//! two dense layers and a three-way softmax.

use crate::batch::PackedWeights;
use crate::kernels::Store;
use crate::model::{Model, ModelKind, Prediction};
use crate::ops::activation::{relu, softmax_last_dim};
use crate::ops::count::{conv2d_macs, linear_macs, macs_to_ops};
use crate::ops::{Conv2d, Linear};
use crate::scratch::ScratchPad;
use crate::stream::{advance_trunk, trunk_lines, LineBuffer};
use crate::tensor::Tensor;

/// Dimensions of a Vanilla CNN instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CnnSpec {
    /// Tick-window length `T`.
    pub window: usize,
    /// Features per tick (40 in the paper's layout).
    pub features: usize,
    /// Channel width shared by the three convolution layers.
    pub channels: usize,
    /// Width of the first dense layer.
    pub hidden: usize,
}

/// Temporal kernel height of every convolution layer.
const KERNEL_T: usize = 4;

impl CnnSpec {
    /// The paper-scale spec: its [`Self::ops`] reproduces Table II's
    /// 93.0 G OPs within 0.1%.
    pub fn paper() -> Self {
        CnnSpec {
            window: 100,
            features: 40,
            channels: 7_885,
            hidden: 512,
        }
    }

    /// A tiny runnable spec for tests, examples, and the CGRA simulator.
    pub fn tiny() -> Self {
        CnnSpec {
            window: 20,
            features: 40,
            channels: 8,
            hidden: 16,
        }
    }

    /// Temporal length after the three valid convolutions.
    fn t_out(&self, layer: usize) -> usize {
        self.window - layer * (KERNEL_T - 1)
    }

    /// Analytic MACs of one forward pass.
    pub fn macs(&self) -> u64 {
        let c = self.channels as u64;
        let conv1 = conv2d_macs(
            c,
            1,
            KERNEL_T as u64,
            self.features as u64,
            self.t_out(1) as u64,
            1,
        );
        let conv2 = conv2d_macs(c, c, KERNEL_T as u64, 1, self.t_out(2) as u64, 1);
        let conv3 = conv2d_macs(c, c, KERNEL_T as u64, 1, self.t_out(3) as u64, 1);
        let fc1 = linear_macs(1, c * self.t_out(3) as u64, self.hidden as u64);
        let fc2 = linear_macs(1, self.hidden as u64, 3);
        conv1 + conv2 + conv3 + fc1 + fc2
    }

    /// Analytic OPs (2 per MAC).
    pub fn ops(&self) -> u64 {
        macs_to_ops(self.macs())
    }

    /// Instantiates the network with deterministic weights.
    ///
    /// Use only with small specs: a paper-scale build would allocate
    /// gigabytes of weights.
    ///
    /// # Panics
    ///
    /// Panics if the window is too short for the three convolutions.
    pub fn build(self, seed: u64) -> VanillaCnn {
        assert!(
            self.window > 3 * (KERNEL_T - 1),
            "window {} too short for three k={KERNEL_T} convolutions",
            self.window
        );
        VanillaCnn {
            conv1: Conv2d::new(
                1,
                self.channels,
                (KERNEL_T, self.features),
                (1, 1),
                (0, 0),
                seed,
            ),
            conv2: Conv2d::new(
                self.channels,
                self.channels,
                (KERNEL_T, 1),
                (1, 1),
                (0, 0),
                seed.wrapping_add(1),
            ),
            conv3: Conv2d::new(
                self.channels,
                self.channels,
                (KERNEL_T, 1),
                (1, 1),
                (0, 0),
                seed.wrapping_add(2),
            ),
            fc1: Linear::new(
                self.channels * self.t_out(3),
                self.hidden,
                seed.wrapping_add(3),
            ),
            fc2: Linear::new(self.hidden, 3, seed.wrapping_add(4)),
            spec: self,
        }
    }
}

/// An instantiated Vanilla CNN.
#[derive(Debug, Clone)]
pub struct VanillaCnn {
    spec: CnnSpec,
    conv1: Conv2d,
    conv2: Conv2d,
    conv3: Conv2d,
    fc1: Linear,
    fc2: Linear,
}

impl VanillaCnn {
    /// The spec this instance was built from.
    pub fn spec(&self) -> CnnSpec {
        self.spec
    }

    /// The naive reference forward pass, built entirely from the layers'
    /// `forward_reference` paths (kept for equivalence tests and the
    /// benchmark baseline); [`Model::forward_batch_scratch`] is `==` to it.
    pub fn forward_reference(&self, input: &Tensor) -> Prediction {
        assert_eq!(
            input.shape(),
            [self.spec.window, self.spec.features],
            "input must be [window, features]"
        );
        let x = input
            .clone()
            .reshape(&[1, self.spec.window, self.spec.features]);
        let mut x = self.conv1.forward_reference(&x);
        relu(&mut x);
        let mut x = self.conv2.forward_reference(&x);
        relu(&mut x);
        let mut x = self.conv3.forward_reference(&x);
        relu(&mut x);
        let flat_len = x.len();
        let flat = x.reshape(&[flat_len]);
        let mut h = self.fc1.forward_reference(&flat);
        relu(&mut h);
        let mut logits = self.fc2.forward_reference(&h);
        softmax_last_dim(&mut logits);
        let d = logits.data();
        Prediction::new([d[0], d[1], d[2]])
    }
}

/// The three-convolution trunk: stages `inputs` sample-major and returns
/// the ReLU'd `[batch, channels * t_out(3)]` activations in a buffer the
/// caller gives back to `pad`. `packed` holds the three kernels at panels
/// 0, 1, 2. A streamed miss passes its one input's `lines`, whose first
/// three are refilled with the convolutions' input rows on the way.
///
/// # Panics
///
/// Panics if any input is not `[window, features]`.
fn conv_trunk_batch_packed(
    spec: &CnnSpec,
    convs: [&Conv2d; 3],
    inputs: &[Tensor],
    mut lines: Option<&mut [LineBuffer]>,
    packed: &PackedWeights,
    pad: &mut ScratchPad,
) -> Vec<f32> {
    let batch = inputs.len();
    let (t, f) = (spec.window, spec.features);
    let c = spec.channels;
    let [conv1, conv2, conv3] = convs;
    // Every buffer is fully overwritten before it is read, so all of
    // them skip the pool's zero fill.
    let mut x0 = pad.take_dirty(batch * t * f);
    for (s, input) in inputs.iter().enumerate() {
        assert_eq!(input.shape(), [t, f], "input must be [window, features]");
        x0[s * t * f..(s + 1) * t * f].copy_from_slice(input.data());
    }
    // Three calls with literal widths, not a loop over `convs`: looping
    // with a carried `(h, w)` measured +10 % on `t2t_cnn`'s op_p50_us.
    let (t1, t2, t3) = (spec.t_out(1), spec.t_out(2), spec.t_out(3));
    if let Some(lines) = lines.as_deref_mut() {
        debug_assert_eq!(batch, 1, "lines follow one stream");
        lines[0].prime(&x0, t);
    }
    let mut a1 = pad.take_dirty(batch * c * t1);
    conv1.forward_batch_packed(&x0, batch, t, f, packed.panel(0), pad, Store::Relu, &mut a1);
    pad.give(x0);
    if let Some(lines) = lines.as_deref_mut() {
        lines[1].prime(&a1, t1);
    }
    let mut a2 = pad.take_dirty(batch * c * t2);
    conv2.forward_batch_packed(
        &a1,
        batch,
        t1,
        1,
        packed.panel(1),
        pad,
        Store::Relu,
        &mut a2,
    );
    pad.give(a1);
    if let Some(lines) = lines {
        lines[2].prime(&a2, t2);
    }
    let mut a3 = pad.take_dirty(batch * c * t3);
    conv3.forward_batch_packed(
        &a2,
        batch,
        t2,
        1,
        packed.panel(2),
        pad,
        Store::Relu,
        &mut a3,
    );
    pad.give(a2);
    a3
}

impl VanillaCnn {
    /// The whole-window packed forward behind both
    /// [`Model::forward_batch_scratch`] (`lines` = `None`) and a streamed
    /// miss, which passes its one input's `lines` to be refilled.
    fn forward_windows(
        &self,
        inputs: &[Tensor],
        mut lines: Option<&mut [LineBuffer]>,
        packed: &PackedWeights,
        pad: &mut ScratchPad,
        out: &mut Vec<Prediction>,
    ) {
        out.clear();
        let batch = inputs.len();
        if batch == 0 {
            return;
        }
        let convs = [&self.conv1, &self.conv2, &self.conv3];
        let a3 =
            conv_trunk_batch_packed(&self.spec, convs, inputs, lines.as_deref_mut(), packed, pad);
        if let Some(lines) = lines {
            lines[3].prime(&a3, self.spec.t_out(3));
        }
        self.tail(&a3, batch, packed, pad, out);
        pad.give(a3);
    }

    /// Everything after the trunk — two dense layers and the softmax —
    /// over its `[batch, C * t_out(3)]` output, pushing one prediction per
    /// sample.
    fn tail(
        &self,
        a3: &[f32],
        batch: usize,
        packed: &PackedWeights,
        pad: &mut ScratchPad,
        out: &mut Vec<Prediction>,
    ) {
        // Fully overwritten before it is read, like every buffer below.
        let mut h = pad.take_dirty(batch * self.spec.hidden);
        self.fc1
            .forward_batch_packed(a3, batch, packed.panel(3), Store::Relu, &mut h);
        self.fc2.softmax_head(&h, batch, out);
        pad.give(h);
    }
}

impl Model for VanillaCnn {
    fn kind(&self) -> ModelKind {
        ModelKind::VanillaCnn
    }

    fn window(&self) -> usize {
        self.spec.window
    }

    fn features(&self) -> usize {
        self.spec.features
    }

    /// Panel order: conv1, conv2, conv3, fc1 (the head reads fc2 unpacked).
    fn pack_weights(&self) -> PackedWeights {
        let mut pw = PackedWeights::new(self.kind());
        pw.push(self.conv1.pack());
        pw.push(self.conv2.pack());
        pw.push(self.conv3.pack());
        pw.push(self.fc1.pack());
        pw
    }

    fn forward_batch_scratch(
        &self,
        inputs: &[Tensor],
        packed: &PackedWeights,
        pad: &mut ScratchPad,
        out: &mut Vec<Prediction>,
    ) {
        self.forward_windows(inputs, None, packed, pad, out);
    }

    /// The three convolutions' input rows, then the `[C, t_out(3)]` trunk
    /// output `fc1` reads.
    fn stream_lines(&self) -> Vec<LineBuffer> {
        let convs = [&self.conv1, &self.conv2, &self.conv3];
        trunk_lines(convs, self.spec.features, self.spec.t_out(3))
    }

    fn forward_stream(
        &self,
        whole: Option<&Tensor>,
        rows: &[f32],
        lines: &mut [LineBuffer],
        packed: &PackedWeights,
        pad: &mut ScratchPad,
        out: &mut Vec<Prediction>,
    ) {
        out.clear();
        if let Some(window) = whole {
            let inputs = std::slice::from_ref(window);
            self.forward_windows(inputs, Some(&mut *lines), packed, pad, out);
        }
        if !rows.is_empty() {
            let convs = [&self.conv1, &self.conv2, &self.conv3];
            let tail = |trunk_out: &[f32], k: usize, pad: &mut ScratchPad| {
                self.tail(trunk_out, k, packed, pad, out)
            };
            advance_trunk(lines, convs, Store::Relu, rows, packed, pad, tail);
        }
    }

    fn total_macs(&self) -> u64 {
        self.spec.macs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::ModelRegistry;

    #[test]
    fn paper_spec_hits_table2() {
        let ops = CnnSpec::paper().ops() as f64;
        assert!(
            (ops - 93.0e9).abs() / 93.0e9 < 0.001,
            "paper CNN ops = {ops:.4e}"
        );
    }

    #[test]
    fn spec_macs_match_instance_layer_sums() {
        // The pure-arithmetic spec counter must agree with the counts the
        // instantiated layers report.
        let spec = CnnSpec::tiny();
        let model = spec.build(0);
        let t = spec.window;
        let f = spec.features;
        let layered = model.conv1.macs(t, f)
            + model.conv2.macs(t - 3, 1)
            + model.conv3.macs(t - 6, 1)
            + model.fc1.macs(1)
            + model.fc2.macs(1);
        assert_eq!(spec.macs(), layered);
    }

    fn registry() -> ModelRegistry {
        ModelRegistry::tiny_with_kinds(&[ModelKind::VanillaCnn], 7)
    }

    #[test]
    fn forward_produces_distribution() {
        let x = Tensor::random(&[20, 40], 1.0, 3);
        let p = registry().forward(ModelKind::VanillaCnn, &x);
        let sum: f32 = p.probs.iter().sum();
        assert!((sum - 1.0).abs() < 1e-4);
        assert!(p.probs.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn forward_is_deterministic() {
        let mut reg = registry();
        let x = Tensor::random(&[20, 40], 1.0, 3);
        let first = reg.forward(ModelKind::VanillaCnn, &x);
        assert_eq!(first.probs, reg.forward(ModelKind::VanillaCnn, &x).probs);
    }

    #[test]
    fn different_inputs_differ() {
        let mut reg = registry();
        let a = reg.forward(ModelKind::VanillaCnn, &Tensor::random(&[20, 40], 1.0, 3));
        let b = reg.forward(ModelKind::VanillaCnn, &Tensor::random(&[20, 40], 1.0, 4));
        assert_ne!(a.probs, b.probs);
    }

    #[test]
    #[should_panic(expected = "window")]
    fn too_short_window_panics() {
        let spec = CnnSpec {
            window: 8,
            ..CnnSpec::tiny()
        };
        let _ = spec.build(0);
    }
}
