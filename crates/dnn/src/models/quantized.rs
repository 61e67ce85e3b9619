//! The INT8 quantized inference path.
//!
//! "The lower INT precision, INT8 and INT4, are still supported for the
//! acceleration of the quantized networks for the case that the
//! processing latency is prioritized over the accuracy due to the
//! equations of the profit and loss in the target exchange servers"
//! (§III-C). [`QuantizedCnn`] post-training-quantizes a [`VanillaCnn`]
//! with symmetric per-tensor INT8 weights; the accelerator runs it at 4x
//! throughput (64 TOPS vs 16 TFLOPS) at the cost of small prediction
//! deviations that this module's tests quantify.

use crate::batch::PackedWeights;
use crate::bf16::{dequantize_int8, quantize_int8};
use crate::model::{Model, ModelKind, Prediction};
use crate::models::vanilla_cnn::{conv_trunk_batch_packed, CnnSpec, VanillaCnn};
use crate::ops::activation::{relu, relu_slice, softmax_last_dim, softmax_rows};
use crate::ops::{Conv2d, LinearInt8};
use crate::scratch::ScratchPad;
use crate::tensor::Tensor;

/// An INT8-quantized Vanilla CNN.
///
/// Convolution stays in BF16 (activation ranges vary per spatial
/// position; quantizing them per-tensor costs the most accuracy for the
/// least work), while the dense layers — the bulk of the parameters —
/// run the symmetric INT8 kernel. This mirrors the common mixed-precision
/// deployment the paper's latency-priority mode targets.
#[derive(Debug, Clone)]
pub struct QuantizedCnn {
    spec: CnnSpec,
    conv1: Conv2d,
    conv2: Conv2d,
    conv3: Conv2d,
    fc1: LinearInt8,
    fc2: LinearInt8,
}

impl QuantizedCnn {
    /// Quantizes an existing BF16 network.
    pub fn from_float(model: &VanillaCnn) -> Self {
        QuantizedCnn {
            spec: model.spec(),
            conv1: model.conv1_ref().clone(),
            conv2: model.conv2_ref().clone(),
            conv3: model.conv3_ref().clone(),
            fc1: LinearInt8::from_linear(model.fc1_ref()),
            fc2: LinearInt8::from_linear(model.fc2_ref()),
        }
    }

    /// The spec of the underlying architecture.
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

impl Model for QuantizedCnn {
    fn kind(&self) -> ModelKind {
        ModelKind::VanillaCnn
    }

    fn window(&self) -> usize {
        self.spec.window
    }

    fn features(&self) -> usize {
        self.spec.features
    }

    /// Panel order: conv1, conv2, conv3 — the INT8 dense layers multiply
    /// their row-major `i8` weights as they are.
    fn pack_weights(&self) -> PackedWeights {
        let mut pw = PackedWeights::new(self.kind());
        pw.push(self.conv1.pack());
        pw.push(self.conv2.pack());
        pw.push(self.conv3.pack());
        pw
    }

    fn forward_batch_scratch(
        &self,
        inputs: &[Tensor],
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
        let a3 = conv_trunk_batch_packed(&self.spec, convs, inputs, None, packed, pad);
        // Fully overwritten before it is read, like `logits` below.
        let mut h = pad.take_dirty(batch * self.spec.hidden);
        self.fc1.forward_rows(&a3, batch, pad, &mut h);
        pad.give(a3);
        relu_slice(&mut h);
        let mut logits = pad.take_dirty(batch * 3);
        self.fc2.forward_rows(&h, batch, pad, &mut logits);
        pad.give(h);
        softmax_rows(&mut logits, batch, 3);
        for row in logits.chunks_exact(3) {
            out.push(Prediction::new([row[0], row[1], row[2]]));
        }
        pad.give(logits);
    }

    fn total_macs(&self) -> u64 {
        self.spec.macs()
    }
}

/// Quantization error statistics between a float model and its INT8
/// counterpart, over a batch of inputs.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct QuantizationReport {
    /// Inputs evaluated.
    pub samples: usize,
    /// How often the predicted direction agreed.
    pub direction_agreement: f64,
    /// Mean absolute probability deviation across classes.
    pub mean_abs_prob_error: f64,
}

/// Compares a float model against its quantized twin over `inputs`.
pub fn quantization_report(
    float: &VanillaCnn,
    quant: &QuantizedCnn,
    inputs: &[Tensor],
) -> QuantizationReport {
    if inputs.is_empty() {
        return QuantizationReport::default();
    }
    let mut pad = ScratchPad::new();
    let (mut exact, mut approx) = (Vec::new(), Vec::new());
    float.forward_batch_scratch(inputs, &float.pack_weights(), &mut pad, &mut exact);
    quant.forward_batch_scratch(inputs, &quant.pack_weights(), &mut pad, &mut approx);
    let mut agree = 0usize;
    let mut abs_err = 0.0f64;
    for (a, b) in exact.iter().zip(&approx) {
        if a.direction() == b.direction() {
            agree += 1;
        }
        for (x, y) in a.probs.iter().zip(b.probs) {
            abs_err += (x - y).abs() as f64;
        }
    }
    QuantizationReport {
        samples: inputs.len(),
        direction_agreement: agree as f64 / inputs.len() as f64,
        mean_abs_prob_error: abs_err / (inputs.len() * 3) as f64,
    }
}

/// Round-trip sanity used by tests: weights survive quantize→dequantize
/// within half a step.
pub fn weight_round_trip_error(values: &[f32]) -> f32 {
    let (q, scale) = quantize_int8(values);
    let back = dequantize_int8(&q, scale);
    values
        .iter()
        .zip(&back)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::ModelRegistry;

    fn pair() -> (VanillaCnn, QuantizedCnn) {
        let float = CnnSpec::tiny().build(11);
        let quant = QuantizedCnn::from_float(&float);
        (float, quant)
    }

    #[test]
    fn quantized_model_runs_and_sums_to_one() {
        let (_, quant) = pair();
        assert_eq!(quant.kind(), ModelKind::VanillaCnn);
        assert_eq!(quant.window(), 20);
        let mut reg = ModelRegistry::new();
        reg.register(Box::new(quant));
        let x = Tensor::random(&[20, 40], 1.0, 1);
        let p = reg.forward(ModelKind::VanillaCnn, &x);
        assert!((p.probs.iter().sum::<f32>() - 1.0).abs() < 1e-4);
    }

    #[test]
    fn quantization_preserves_most_decisions() {
        let (float, quant) = pair();
        let inputs: Vec<Tensor> = (0..40)
            .map(|i| Tensor::random(&[20, 40], 1.0, 100 + i))
            .collect();
        let report = quantization_report(&float, &quant, &inputs);
        assert_eq!(report.samples, 40);
        assert!(
            report.direction_agreement >= 0.85,
            "agreement {:.2}",
            report.direction_agreement
        );
        assert!(
            report.mean_abs_prob_error < 0.05,
            "prob error {:.4}",
            report.mean_abs_prob_error
        );
        // But it is genuinely lossy.
        assert!(report.mean_abs_prob_error > 0.0);
    }

    #[test]
    fn weight_error_bounded_by_half_step() {
        let values: Vec<f32> = (0..256).map(|i| (i as f32 - 128.0) * 0.017).collect();
        let max_abs = values.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        let err = weight_round_trip_error(&values);
        assert!(err <= max_abs / 127.0 * 0.5 + 1e-6, "err {err}");
    }

    #[test]
    fn empty_report_is_default() {
        let (float, quant) = pair();
        assert_eq!(
            quantization_report(&float, &quant, &[]),
            QuantizationReport::default()
        );
    }
}
