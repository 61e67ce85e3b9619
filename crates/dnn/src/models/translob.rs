//! The TransLOB benchmark (CNN front-end + transformer encoder).
//!
//! Five temporal convolutions lift the `[T, 40]` feature map to `C`
//! channels, a dense projection maps into the `d_model` token space,
//! sinusoidal positional encodings are added, and a stack of pre-norm
//! transformer layers (self-attention + feed-forward, both residual)
//! precedes mean pooling and the three-way softmax head.

use crate::kernels::Store;
use crate::model::ModelKind;
use crate::net::{macs, LayerSpec, Net};
use crate::ops::count::macs_to_ops;

/// Dimensions of a TransLOB instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransLobSpec {
    /// Tick-window length `T`.
    pub window: usize,
    /// Features per tick.
    pub features: usize,
    /// Channel width of the five-layer convolutional front-end.
    pub conv_channels: usize,
    /// Transformer model width.
    pub d_model: usize,
    /// Attention heads (must divide `d_model`).
    pub heads: usize,
    /// Number of transformer layers.
    pub layers: usize,
}

/// Temporal kernel size of the convolution stack ("same" padded).
const CONV_K: usize = 3;
/// Number of convolution layers in the front-end.
const CONV_LAYERS: usize = 5;
/// Feed-forward expansion factor.
const FFN_MULT: usize = 4;

impl TransLobSpec {
    /// The paper-scale spec: [`Self::ops`] reproduces Table II's 203.9 G
    /// OPs within 0.1%.
    pub fn paper() -> Self {
        TransLobSpec {
            window: 100,
            features: 40,
            conv_channels: 512,
            d_model: 6_488,
            heads: 8,
            layers: 2,
        }
    }

    /// A tiny runnable spec.
    pub fn tiny() -> Self {
        TransLobSpec {
            window: 16,
            features: 40,
            conv_channels: 8,
            d_model: 16,
            heads: 2,
            layers: 2,
        }
    }

    /// The layers, with their seed offsets: the window to channels-first,
    /// five same-padded ReLU convolutions over time, back to
    /// sequence-major, the projection into `d_model`, the positional
    /// encoding, the transformer layers, mean pooling and the head.
    ///
    /// # Panics
    ///
    /// Panics unless `heads` divides `d_model`.
    pub(crate) fn layers(&self) -> Vec<LayerSpec> {
        assert_eq!(
            self.d_model % self.heads,
            0,
            "heads {} must divide d_model {}",
            self.heads,
            self.d_model
        );
        let convs = (0..CONV_LAYERS as u64).map(|seed| LayerSpec::Conv {
            out_c: self.conv_channels,
            kernel: (CONV_K, 1),
            stride_w: 1,
            pad_h: CONV_K / 2,
            post: Store::Relu,
            seed,
        });
        let blocks = (0..self.layers as u64).map(|l| LayerSpec::Transformer {
            heads: self.heads,
            ffn: FFN_MULT * self.d_model,
            seed: 100 + 10 * l,
        });
        let proj = LayerSpec::Dense {
            out: self.d_model,
            post: Store::Bf16,
            seed: 50,
        };
        let mut layers = vec![LayerSpec::Transpose];
        layers.extend(convs);
        layers.extend([LayerSpec::Transpose, proj, LayerSpec::Positional]);
        layers.extend(blocks);
        layers.extend([LayerSpec::MeanPool, LayerSpec::Head { seed: 51 }]);
        layers
    }

    /// Analytic OPs (2 per MAC) of one forward pass.
    pub fn ops(&self) -> u64 {
        macs_to_ops(macs(self.window, self.features, &self.layers()))
    }

    /// Instantiates the network with deterministic weights.
    ///
    /// Use only with small specs; see [`CnnSpec::build`](super::CnnSpec::build).
    pub fn build(self, seed: u64) -> Net {
        let dims = (self.window, self.features);
        Net::new(ModelKind::TransLob, dims, &self.layers(), seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::positional_encoding;
    use crate::registry::ModelRegistry;
    use crate::tensor::Tensor;

    #[test]
    fn forward_produces_distribution() {
        let mut reg = ModelRegistry::tiny_with_kinds(&[ModelKind::TransLob], 1);
        let x = Tensor::random(&[16, 40], 1.0, 2);
        let p = reg.forward(ModelKind::TransLob, &x);
        assert!((p.probs.iter().sum::<f32>() - 1.0).abs() < 1e-4);
    }

    #[test]
    fn positional_encoding_breaks_permutation_symmetry() {
        // Same token content in different positions must produce different
        // predictions thanks to the positional encoding.
        let mut reg = ModelRegistry::tiny_with_kinds(&[ModelKind::TransLob], 3);
        let base = Tensor::random(&[16, 40], 1.0, 5);
        // Reverse the window.
        let mut rev = Tensor::zeros(&[16, 40]);
        for t in 0..16 {
            for f in 0..40 {
                rev.set(&[t, f], base.at(&[15 - t, f]));
            }
        }
        let forward = reg.forward(ModelKind::TransLob, &base);
        assert_ne!(forward.probs, reg.forward(ModelKind::TransLob, &rev).probs);
    }

    #[test]
    fn positional_encoding_values_bounded() {
        let pe = positional_encoding(10, 8);
        assert!(pe.data().iter().all(|v| v.abs() <= 1.0));
        // Row 0: sin(0)=0, cos(0)=1 alternating.
        assert_eq!(pe.at(&[0, 0]), 0.0);
        assert_eq!(pe.at(&[0, 1]), 1.0);
    }
}
