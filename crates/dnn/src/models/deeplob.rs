//! The DeepLOB benchmark (convolutional blocks + inception + LSTM).
//!
//! Three convolutional blocks progressively fold the 40-wide level axis
//! (40 → 20 → 10 → 1) while temporal convolutions extract short-term
//! structure; an inception module mixes receptive fields; an LSTM
//! integrates the sequence; a dense softmax head classifies the move —
//! the architecture of Zhang et al. that the paper benchmarks at
//! 515.4 G OPs.

use crate::kernels::Store;
use crate::model::ModelKind;
use crate::net::{macs, LayerSpec, Net};
use crate::ops::count::macs_to_ops;

/// Dimensions of a DeepLOB instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeepLobSpec {
    /// Tick-window length `T`.
    pub window: usize,
    /// Features per tick; the level-folding convolutions require 40.
    pub features: usize,
    /// Channel width of the convolutional trunk.
    pub channels: usize,
    /// LSTM hidden width.
    pub lstm_hidden: usize,
}

/// Temporal kernel height of the in-block convolutions.
const KERNEL_T: usize = 4;
/// LeakyReLU slope used throughout (as in the DeepLOB paper).
const LEAK: f32 = 0.01;
/// Every convolution's store: its leaky ReLU of the BF16-rounded sum.
const ACT: Store = Store::LeakyRelu(LEAK);
/// Temporal shrinkage across the whole trunk: six valid k=4 convolutions.
const TRUNK_SHRINK: usize = 6 * (KERNEL_T - 1);

impl DeepLobSpec {
    /// The paper-scale spec: [`Self::ops`] reproduces Table II's 515.4 G
    /// OPs within 0.1%.
    pub fn paper() -> Self {
        DeepLobSpec {
            window: 100,
            features: 40,
            channels: 2_900,
            lstm_hidden: 6_520,
        }
    }

    /// A tiny runnable spec.
    pub fn tiny() -> Self {
        DeepLobSpec {
            window: 24,
            features: 40,
            channels: 4,
            lstm_hidden: 8,
        }
    }

    /// The layers, with their seed offsets: three blocks of a level fold
    /// (40 → 20 → 10 → 1) and two temporal convolutions, all valid and
    /// leaky-ReLU'd, then the inception, the LSTM's last hidden state and
    /// the head.
    pub(crate) fn layers(&self) -> Vec<LayerSpec> {
        let conv = |kernel, stride_w, seed| LayerSpec::Conv {
            out_c: self.channels,
            kernel,
            stride_w,
            pad_h: 0,
            post: ACT,
            seed,
        };
        let temporal = |seed| conv((KERNEL_T, 1), 1, seed);
        vec![
            conv((1, 2), 2, 0),
            temporal(1),
            temporal(2),
            conv((1, 2), 2, 3),
            temporal(4),
            temporal(5),
            conv((1, 10), 1, 6),
            temporal(7),
            temporal(8),
            LayerSpec::Inception {
                post: ACT,
                seeds: [9, 10, 12, 11, 13],
            },
            LayerSpec::LastHidden {
                hidden: self.lstm_hidden,
                seed: 14,
            },
            LayerSpec::Head { seed: 15 },
        ]
    }

    /// Analytic OPs (2 per MAC) of one forward pass.
    pub fn ops(&self) -> u64 {
        macs_to_ops(macs(self.window, self.features, &self.layers()))
    }

    /// Instantiates the network with deterministic weights.
    ///
    /// Use only with small specs; see [`CnnSpec::build`](super::CnnSpec::build).
    ///
    /// # Panics
    ///
    /// Panics if `features != 40` or the window is too short for the
    /// trunk's six temporal convolutions.
    pub fn build(self, seed: u64) -> Net {
        assert_eq!(
            self.features, 40,
            "DeepLOB's level-folding trunk requires 40 features"
        );
        assert!(
            self.window > TRUNK_SHRINK,
            "window {} too short: trunk consumes {TRUNK_SHRINK} ticks",
            self.window
        );
        let dims = (self.window, self.features);
        Net::new(ModelKind::DeepLob, dims, &self.layers(), seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::ModelRegistry;
    use crate::tensor::Tensor;

    #[test]
    fn forward_produces_distribution() {
        let mut reg = ModelRegistry::tiny_with_kinds(&[ModelKind::DeepLob], 1);
        let x = Tensor::random(&[24, 40], 1.0, 2);
        let p = reg.forward(ModelKind::DeepLob, &x);
        assert!((p.probs.iter().sum::<f32>() - 1.0).abs() < 1e-4);
    }

    /// The sequence the lowering hands the inception and the LSTM.
    #[test]
    fn lstm_steps_geometry() {
        let steps = |spec: DeepLobSpec| {
            let layers = spec.layers();
            let inception = layers
                .iter()
                .position(|l| matches!(l, LayerSpec::Inception { .. }))
                .expect("DeepLOB has an inception");
            crate::net::shapes(spec.window, spec.features, &layers)[inception].h
        };
        assert_eq!(steps(DeepLobSpec::paper()), 82);
        assert_eq!(steps(DeepLobSpec::tiny()), 6);
    }

    #[test]
    fn sensitive_to_recent_ticks() {
        // Perturbing the last tick of the window changes the prediction —
        // the LSTM must propagate late information.
        let mut reg = ModelRegistry::tiny_with_kinds(&[ModelKind::DeepLob], 5);
        let base = Tensor::random(&[24, 40], 1.0, 9);
        let mut bumped = base.clone();
        for fcol in 0..40 {
            bumped.set(&[23, fcol], base.at(&[23, fcol]) + 3.0);
        }
        let before = reg.forward(ModelKind::DeepLob, &base);
        assert_ne!(before.probs, reg.forward(ModelKind::DeepLob, &bumped).probs);
    }

    #[test]
    #[should_panic(expected = "40 features")]
    fn wrong_feature_count_panics() {
        let spec = DeepLobSpec {
            features: 20,
            ..DeepLobSpec::tiny()
        };
        let _ = spec.build(0);
    }
}
