//! Batched inference support: the prepacked weight panels every op keeps
//! beside its weights.
//!
//! The accelerator keeps weights stationary and streams batched queries
//! past them (paper §III); the software path mirrors that with each op's
//! own [`PackedPanels`], made once in its constructor. Every operand that
//! supplies the lanes of the packed register tile — the kernels of the
//! convolutions swept as a GEMM, dense and attention weights, the LSTM's
//! `wx`/`wh` stacks — is repacked into k-major panels
//! ([`crate::kernels::pack_bt_panels`]), and the op's packed forward reads
//! its own. Packing is a pure layout permutation: the packed path
//! preserves each output element's accumulation order, so every sample of
//! a batch is bit-identical to the same sample served alone, and `==` to
//! its `forward_reference` (pinned by the `batch_equivalence` proptests).
//!
//! A batch runs on the calling thread: layers sweep all of its samples
//! at once, or loop over them in order, and spawn nothing.

use crate::kernels::pack_bt_panels;

/// One GEMM operand repacked into register-tile panels, owned by the op
/// whose weights they are.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PackedPanels {
    data: Vec<f32>,
}

impl PackedPanels {
    /// Packs a row-major `[m, k]` operand (see
    /// [`crate::kernels::pack_bt_panels`] for the layout).
    pub(crate) fn pack(a: &[f32], m: usize, k: usize) -> Self {
        let mut data = Vec::new();
        pack_bt_panels(a, m, k, &mut data);
        PackedPanels { data }
    }

    /// The packed storage: `m` rounded up to whole panels, times `k`.
    pub(crate) fn data(&self) -> &[f32] {
        &self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packed_panels_record_shape() {
        let a: Vec<f32> = (0..6 * 5).map(|i| i as f32).collect();
        let p = PackedPanels::pack(&a, 6, 5);
        // One 8-lane panel, k-major; lanes 6 and 7 are zero padding.
        assert_eq!(p.data().len(), 8 * 5);
        for t in 0..5 {
            for l in 0..8 {
                let want = if l < 6 { a[l * 5 + t] } else { 0.0 };
                assert_eq!(p.data()[t * 8 + l], want, "t={t} lane={l}");
            }
        }
    }
}
