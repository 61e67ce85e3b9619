//! The three benchmark networks of Table II, as specs.
//!
//! A spec is dimensions and the weightless layer list they make
//! (`crate::net::LayerSpec`), each layer carrying the offset from the
//! build seed its weights are drawn from. [`CnnSpec::ops`] and the others
//! price the list without allocating weights, so paper-scale networks can
//! be priced; `build(seed)` turns it into a runnable [`Net`]. The
//! `paper()` specs are dimensioned so their analytic op counts reproduce
//! Table II within 0.1%; the `tiny()` specs run functionally in
//! microseconds and share the exact same code path.

mod deeplob;
mod translob;
mod vanilla_cnn;

pub use deeplob::DeepLobSpec;
pub use translob::TransLobSpec;
pub use vanilla_cnn::CnnSpec;

use crate::model::ModelKind;
use crate::net::Net;

/// The analytic op count of a kind's paper-scale spec.
pub fn paper_spec_ops(kind: ModelKind) -> u64 {
    match kind {
        ModelKind::VanillaCnn => CnnSpec::paper().ops(),
        ModelKind::TransLob => TransLobSpec::paper().ops(),
        ModelKind::DeepLob => DeepLobSpec::paper().ops(),
    }
}

/// Builds a tiny (runnable) instance of `kind` with deterministic weights.
pub fn build_tiny(kind: ModelKind, seed: u64) -> Net {
    match kind {
        ModelKind::VanillaCnn => CnnSpec::tiny().build(seed),
        ModelKind::TransLob => TransLobSpec::tiny().build(seed),
        ModelKind::DeepLob => DeepLobSpec::tiny().build(seed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The central Table II reproduction check: each paper spec's analytic
    /// op count matches the paper within 0.1%.
    #[test]
    fn paper_specs_match_table2() {
        for kind in ModelKind::ALL {
            let computed = paper_spec_ops(kind) as f64;
            let target = kind.table2_ops() as f64;
            let err = (computed - target).abs() / target;
            assert!(
                err < 0.001,
                "{kind}: computed {computed:.3e} vs Table II {target:.3e} (err {:.4}%)",
                err * 100.0
            );
        }
    }

    /// Each tiny spec's multiply-accumulates, pinned: what its layer list
    /// prices is what one forward of the tiny net multiplies.
    #[test]
    fn tiny_spec_macs_are_pinned() {
        use crate::net::macs;
        let (cnn, translob, deeplob) = (CnnSpec::tiny(), TransLobSpec::tiny(), DeepLobSpec::tiny());
        let counts = [
            macs(cnn.window, cnn.features, &cnn.layers()),
            macs(translob.window, translob.features, &translob.layers()),
            macs(deeplob.window, deeplob.features, &deeplob.layers()),
        ];
        assert_eq!(counts, [29_616, 144_432, 84_600], "in ModelKind::ALL order");
    }

    /// Op counts are ordered as in the paper: CNN < TransLOB < DeepLOB.
    #[test]
    fn complexity_ordering() {
        let cnn = paper_spec_ops(ModelKind::VanillaCnn);
        let translob = paper_spec_ops(ModelKind::TransLob);
        let deeplob = paper_spec_ops(ModelKind::DeepLob);
        assert!(cnn < translob && translob < deeplob);
    }

    #[test]
    fn tiny_models_run() {
        for kind in ModelKind::ALL {
            let mut reg = crate::registry::ModelRegistry::tiny_with_kinds(&[kind], 42);
            let model = reg.model(kind).expect("kind was just registered");
            let input = crate::tensor::Tensor::random(&[model.window(), model.features()], 1.0, 1);
            assert_eq!(model.kind(), kind);
            let pred = reg.forward(kind, &input);
            let sum: f32 = pred.probs.iter().sum();
            assert!((sum - 1.0).abs() < 1e-4, "{kind}: probs {:?}", pred.probs);
        }
    }
}
