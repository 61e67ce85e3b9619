//! The model vocabulary shared by the pipeline, scheduler, and simulator:
//! which network, and what it answers.

use serde::{Deserialize, Serialize};

/// Which of the paper's three benchmark networks (Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ModelKind {
    /// Vanilla CNN (Tsantekidis et al. style), 93.0 G OPs.
    VanillaCnn,
    /// TransLOB (CNN + transformer, Wallbridge), 203.9 G OPs.
    TransLob,
    /// DeepLOB (CNN + LSTM, Zhang et al.), 515.4 G OPs.
    DeepLob,
}

impl ModelKind {
    /// All three benchmark kinds, in Table II order.
    pub const ALL: [ModelKind; 3] = [
        ModelKind::VanillaCnn,
        ModelKind::TransLob,
        ModelKind::DeepLob,
    ];

    /// Position of `self` in [`Self::ALL`] (Table II order, cheapest
    /// first): the discriminants follow that order.
    pub const fn index(self) -> usize {
        self as usize
    }

    /// The display name used in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::VanillaCnn => "Vanilla CNN",
            ModelKind::TransLob => "TransLOB",
            ModelKind::DeepLob => "DeepLOB",
        }
    }

    /// Network family string from Table II.
    pub fn network_family(self) -> &'static str {
        match self {
            ModelKind::VanillaCnn => "CNN",
            ModelKind::TransLob => "CNN+Transformer",
            ModelKind::DeepLob => "CNN+LSTM",
        }
    }

    /// The paper's Table II "Total OPs" figure.
    pub fn table2_ops(self) -> u64 {
        match self {
            ModelKind::VanillaCnn => 93_000_000_000,
            ModelKind::TransLob => 203_900_000_000,
            ModelKind::DeepLob => 515_400_000_000,
        }
    }
}

impl std::fmt::Display for ModelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The three-way price-movement classification of Fig. 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PriceDirection {
    /// Mid price expected to rise within the prediction horizon.
    Up,
    /// Mid price expected to stay within the stationary band.
    Stationary,
    /// Mid price expected to fall within the prediction horizon.
    Down,
}

impl PriceDirection {
    /// Class index in the models' output layout `[up, stationary, down]`.
    fn class_index(self) -> usize {
        match self {
            PriceDirection::Up => 0,
            PriceDirection::Stationary => 1,
            PriceDirection::Down => 2,
        }
    }

    /// Inverse of [`Self::class_index`].
    ///
    /// # Panics
    ///
    /// Panics for indices above 2.
    fn from_class_index(index: usize) -> Self {
        match index {
            0 => PriceDirection::Up,
            1 => PriceDirection::Stationary,
            2 => PriceDirection::Down,
            other => panic!("class index {other} out of range"),
        }
    }
}

impl std::fmt::Display for PriceDirection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PriceDirection::Up => f.write_str("up"),
            PriceDirection::Stationary => f.write_str("stationary"),
            PriceDirection::Down => f.write_str("down"),
        }
    }
}

/// A model's output: class probabilities over `[up, stationary, down]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prediction {
    /// Probabilities in class-index order; they sum to one.
    pub probs: [f32; 3],
}

impl Prediction {
    /// Wraps softmax output.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the probabilities do not sum to ~1.
    pub fn new(probs: [f32; 3]) -> Self {
        debug_assert!(
            (probs.iter().sum::<f32>() - 1.0).abs() < 1e-3,
            "probabilities must sum to one, got {probs:?}"
        );
        Prediction { probs }
    }

    /// The most likely direction.
    pub fn direction(&self) -> PriceDirection {
        let mut best = 0;
        for i in 1..3 {
            if self.probs[i] > self.probs[best] {
                best = i;
            }
        }
        PriceDirection::from_class_index(best)
    }

    /// The winning probability.
    pub fn confidence(&self) -> f32 {
        self.probs[self.direction().class_index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_constants() {
        assert_eq!(ModelKind::VanillaCnn.table2_ops(), 93_000_000_000);
        assert_eq!(ModelKind::TransLob.table2_ops(), 203_900_000_000);
        assert_eq!(ModelKind::DeepLob.table2_ops(), 515_400_000_000);
        assert_eq!(ModelKind::ALL.len(), 3);
        for (i, kind) in ModelKind::ALL.into_iter().enumerate() {
            assert_eq!(kind.index(), i, "{kind}");
        }
        assert_eq!(ModelKind::DeepLob.name(), "DeepLOB");
        assert_eq!(ModelKind::TransLob.network_family(), "CNN+Transformer");
    }

    #[test]
    fn prediction_direction_and_confidence() {
        let p = Prediction::new([0.1, 0.2, 0.7]);
        assert_eq!(p.direction(), PriceDirection::Down);
        assert!((p.confidence() - 0.7).abs() < 1e-6);
        let up = Prediction::new([0.5, 0.3, 0.2]);
        assert_eq!(up.direction(), PriceDirection::Up);
    }

    #[test]
    fn class_index_round_trip() {
        for d in [
            PriceDirection::Up,
            PriceDirection::Stationary,
            PriceDirection::Down,
        ] {
            assert_eq!(PriceDirection::from_class_index(d.class_index()), d);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_class_index_panics() {
        let _ = PriceDirection::from_class_index(3);
    }
}
