//! The "Vanilla CNN" benchmark (Tsantekidis et al. style).
//!
//! Three convolution layers over the `[T, 40]` LOB feature map — the first
//! spanning the full feature width, the next two temporal — followed by
//! two dense layers and a three-way softmax.

use crate::kernels::Store;
use crate::model::ModelKind;
use crate::net::{macs, LayerSpec, Net};
use crate::ops::count::macs_to_ops;

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

    /// The layers, with their seed offsets: three valid ReLU convolutions
    /// (the first as wide as the features), a ReLU dense layer over their
    /// flattened output and the head.
    pub(crate) fn layers(&self) -> Vec<LayerSpec> {
        let conv = |kw, seed| LayerSpec::Conv {
            out_c: self.channels,
            kernel: (KERNEL_T, kw),
            stride_w: 1,
            pad_h: 0,
            post: Store::Relu,
            seed,
        };
        vec![
            conv(self.features, 0),
            conv(1, 1),
            conv(1, 2),
            LayerSpec::Dense {
                out: self.hidden,
                post: Store::Relu,
                seed: 3,
            },
            LayerSpec::Head { seed: 4 },
        ]
    }

    /// Analytic OPs (2 per MAC) of one forward pass.
    pub fn ops(&self) -> u64 {
        macs_to_ops(macs(self.window, self.features, &self.layers()))
    }

    /// Instantiates the network with deterministic weights.
    ///
    /// Use only with small specs: a paper-scale build would allocate
    /// gigabytes of weights.
    ///
    /// # Panics
    ///
    /// Panics if the window is too short for the three convolutions.
    pub fn build(self, seed: u64) -> Net {
        assert!(
            self.window > 3 * (KERNEL_T - 1),
            "window {} too short for three k={KERNEL_T} convolutions",
            self.window
        );
        let dims = (self.window, self.features);
        Net::new(ModelKind::VanillaCnn, dims, &self.layers(), seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::ModelRegistry;
    use crate::tensor::Tensor;

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
