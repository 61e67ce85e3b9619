//! Batched inference support: the prepacked weight panels behind
//! `Net::forward_batch_scratch`.
//!
//! The accelerator keeps weights stationary and streams batched queries
//! past them (paper §III); the software path mirrors that with a
//! [`PackedWeights`] cache built once per model. Every operand that
//! supplies the lanes of the packed register tile — the kernels of the
//! convolutions swept as a GEMM, dense and attention weights, the LSTM's
//! `wx`/`wh` stacks —
//! is repacked into k-major panels
//! ([`crate::kernels::pack_bt_panels`]). Packing is a pure layout
//! permutation: the packed path preserves each output element's
//! accumulation order, so every sample of a batch is bit-identical to
//! the same sample served alone, and `==` to its `forward_reference`
//! (pinned by the `batch_equivalence` proptests).
//!
//! A batch runs on the calling thread: layers sweep all of its samples
//! at once, or loop over them in order, and spawn nothing.

use crate::kernels::pack_bt_panels;
use crate::model::ModelKind;

/// One GEMM operand repacked into register-tile panels.
#[derive(Debug, Clone)]
pub struct PackedPanels {
    data: Vec<f32>,
    m: usize,
    k: usize,
}

impl PackedPanels {
    /// Packs a row-major `[m, k]` operand (see
    /// [`crate::kernels::pack_bt_panels`] for the layout).
    pub fn pack(a: &[f32], m: usize, k: usize) -> Self {
        let mut data = Vec::new();
        pack_bt_panels(a, m, k, &mut data);
        PackedPanels { data, m, k }
    }

    /// The packed storage: `m` rounded up to whole panels, times `k`.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Row count of the packed operand.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Reduction width of the packed operand.
    pub fn k(&self) -> usize {
        self.k
    }
}

/// A net's full set of prepacked GEMM operands.
///
/// Built once per net by `Net::pack_weights` and held in
/// `ModelRegistry` beside each tier's `Arena`. The panels are in
/// layer order; the net's lowering records where each layer's begin.
#[derive(Debug, Clone)]
pub struct PackedWeights {
    kind: ModelKind,
    panels: Vec<PackedPanels>,
}

impl PackedWeights {
    /// A pack for `kind` holding no panels yet.
    pub fn new(kind: ModelKind) -> Self {
        PackedWeights {
            kind,
            panels: Vec::new(),
        }
    }

    /// Appends a packed operand, returning its index.
    pub fn push(&mut self, panels: PackedPanels) -> usize {
        self.panels.push(panels);
        self.panels.len() - 1
    }

    /// The packed operand at `idx`.
    ///
    /// # Panics
    ///
    /// Panics when the pack does not hold `idx` — a pack built for a
    /// different model.
    pub fn panel(&self, idx: usize) -> &PackedPanels {
        self.panels.get(idx).unwrap_or_else(|| {
            panic!(
                "packed weights for {} hold {} panels, layer {idx} requested",
                self.kind,
                self.panels.len()
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packed_panels_record_shape() {
        let a: Vec<f32> = (0..6 * 5).map(|i| i as f32).collect();
        let p = PackedPanels::pack(&a, 6, 5);
        assert_eq!(p.m(), 6);
        assert_eq!(p.k(), 5);
        // One 8-lane panel, k-major; lanes 6 and 7 are zero padding.
        assert_eq!(p.data().len(), 8 * 5);
        for t in 0..5 {
            for l in 0..8 {
                let want = if l < 6 { a[l * 5 + t] } else { 0.0 };
                assert_eq!(p.data()[t * 8 + l], want, "t={t} lane={l}");
            }
        }
    }

    #[test]
    fn packed_weights_index_panels_in_push_order() {
        let mut pw = PackedWeights::new(ModelKind::DeepLob);
        assert_eq!(pw.push(PackedPanels::pack(&[1.0, 2.0], 1, 2)), 0);
        assert_eq!(pw.push(PackedPanels::pack(&[1.0, 2.0, 3.0], 3, 1)), 1);
        assert_eq!(pw.panel(0).m(), 1);
        assert_eq!(pw.panel(1).m(), 3);
    }

    #[test]
    #[should_panic(expected = "panels")]
    fn missing_panel_panics_with_kind() {
        let pw = PackedWeights::new(ModelKind::TransLob);
        let _ = pw.panel(3);
    }
}
