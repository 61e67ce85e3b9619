//! Historical normalization statistics for the offload engine.
//!
//! The offload engine "normalizes the LOB data according to the Z-score …
//! in which the mean and standard deviation values are obtained from
//! historical market data" (§III-A). [`NormStats`] plays the role of that
//! historical profile: it is fitted once over a calibration trace and then
//! applied tick-by-tick on the hot path.

use crate::trace::TickTrace;
use serde::{Deserialize, Serialize};

/// Per-feature mean and standard deviation for Z-score normalization.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NormStats {
    mean: Vec<f64>,
    std: Vec<f64>,
    depth: usize,
}

impl NormStats {
    /// Fits statistics over every tick of `trace` at book depth `depth`.
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty or `depth` is zero.
    pub fn fit(trace: &TickTrace, depth: usize) -> Self {
        assert!(depth > 0, "depth must be positive");
        assert!(!trace.is_empty(), "cannot fit stats on an empty trace");
        let width = depth * 4;
        let mut sum = vec![0.0f64; width];
        let mut sq = vec![0.0f64; width];
        for tick in trace {
            let features = tick.snapshot.to_features(depth);
            for (i, &f) in features.iter().enumerate() {
                sum[i] += f as f64;
                sq[i] += (f as f64) * (f as f64);
            }
        }
        let n = trace.len() as f64;
        let mean: Vec<f64> = sum.iter().map(|s| s / n).collect();
        let std: Vec<f64> = sq
            .iter()
            .zip(&mean)
            .map(|(&s, &m)| {
                let var = (s / n - m * m).max(0.0);
                // Guard degenerate features (constant over the window): use a
                // unit scale so normalization is a pure shift.
                let sd = var.sqrt();
                if sd < 1e-9 {
                    1.0
                } else {
                    sd
                }
            })
            .collect();
        NormStats { mean, std, depth }
    }

    /// Creates identity statistics (zero mean, unit std) for `depth`
    /// levels; normalization becomes a no-op. Useful in tests.
    pub fn identity(depth: usize) -> Self {
        let width = depth * 4;
        NormStats {
            mean: vec![0.0; width],
            std: vec![1.0; width],
            depth,
        }
    }

    /// The book depth these statistics were fitted at.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Number of features per tick (`4 * depth`).
    pub fn width(&self) -> usize {
        self.mean.len()
    }

    /// Z-score-normalizes a raw feature vector in place.
    ///
    /// # Panics
    ///
    /// Panics if `features.len()` differs from [`Self::width`].
    pub fn normalize(&self, features: &mut [f32]) {
        assert_eq!(
            features.len(),
            self.width(),
            "feature width mismatch: got {}, stats fitted for {}",
            features.len(),
            self.width()
        );
        for (i, f) in features.iter_mut().enumerate() {
            *f = ((*f as f64 - self.mean[i]) / self.std[i]) as f32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::SessionBuilder;
    use lt_lob::snapshot::SnapshotLevel;
    use lt_lob::{LobSnapshot, Price, Qty, Symbol, Timestamp};
    use proptest::prelude::*;

    fn snap(mid: i64, qty: u64) -> LobSnapshot {
        LobSnapshot {
            ts: Timestamp::ZERO,
            bids: vec![SnapshotLevel {
                price: Price::new(mid - 1),
                qty: Qty::new(qty),
            }],
            asks: vec![SnapshotLevel {
                price: Price::new(mid + 1),
                qty: Qty::new(qty + 2),
            }],
        }
    }

    fn trace() -> TickTrace {
        let mut t = TickTrace::new(Symbol::new("ESU6"));
        for i in 0..50u64 {
            t.push(
                Timestamp::from_micros(i),
                snap(100 + (i as i64 % 7), 1 + i % 5),
            );
        }
        t
    }

    #[test]
    fn normalized_features_have_zero_mean_unit_std() {
        let trace = trace();
        let stats = NormStats::fit(&trace, 1);
        let mut all: Vec<Vec<f32>> = Vec::new();
        for tick in &trace {
            let mut f = tick.snapshot.to_features(1);
            stats.normalize(&mut f);
            all.push(f);
        }
        for col in 0..stats.width() {
            let vals: Vec<f64> = all.iter().map(|row| row[col] as f64).collect();
            let mean = vals.iter().sum::<f64>() / vals.len() as f64;
            let var = vals.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / vals.len() as f64;
            assert!(mean.abs() < 1e-3, "col {col} mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "col {col} var {var}");
        }
    }

    /// Inverts [`NormStats::normalize`].
    fn denormalize(stats: &NormStats, features: &mut [f32]) {
        assert_eq!(features.len(), stats.width());
        for (i, f) in features.iter_mut().enumerate() {
            *f = (*f as f64 * stats.std[i] + stats.mean[i]) as f32;
        }
    }

    #[test]
    fn round_trip_normalize_denormalize() {
        let trace = trace();
        let stats = NormStats::fit(&trace, 1);
        let original = trace.ticks[7].snapshot.to_features(1);
        let mut f = original.clone();
        stats.normalize(&mut f);
        denormalize(&stats, &mut f);
        for (a, b) in original.iter().zip(&f) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    proptest! {
        /// Normalize/denormalize is the identity (within float tolerance)
        /// for stats fitted on any session.
        #[test]
        fn norm_round_trips(seed in 0u64..200) {
            let session = SessionBuilder::calm_traffic()
                .duration_secs(0.1)
                .seed(seed)
                .build();
            prop_assume!(session.trace.len() > 10);
            let stats = NormStats::fit(&session.trace, 10);
            let original = session.trace.ticks[5].snapshot.to_features(10);
            let mut f = original.clone();
            stats.normalize(&mut f);
            denormalize(&stats, &mut f);
            for (a, b) in original.iter().zip(&f) {
                let tol = 1e-2_f32.max(a.abs() * 1e-3);
                prop_assert!((a - b).abs() < tol, "{} vs {}", a, b);
            }
        }
    }

    #[test]
    fn identity_is_noop() {
        let stats = NormStats::identity(2);
        assert_eq!(stats.width(), 8);
        assert_eq!(stats.depth(), 2);
        let mut f = vec![5.0f32; 8];
        stats.normalize(&mut f);
        assert_eq!(f, vec![5.0f32; 8]);
    }

    #[test]
    fn degenerate_constant_feature_uses_unit_scale() {
        // All snapshots identical: std would be 0; fit must guard it.
        let mut t = TickTrace::new(Symbol::new("ESU6"));
        for i in 0..10u64 {
            t.push(Timestamp::from_micros(i), snap(100, 3));
        }
        let stats = NormStats::fit(&t, 1);
        let mut f = t.ticks[0].snapshot.to_features(1);
        stats.normalize(&mut f);
        assert!(f.iter().all(|v| v.is_finite()));
        assert!(f.iter().all(|v| v.abs() < 1e-6), "pure shift to zero");
    }

    #[test]
    #[should_panic(expected = "feature width mismatch")]
    fn width_mismatch_panics() {
        let stats = NormStats::identity(2);
        let mut f = vec![0.0f32; 4];
        stats.normalize(&mut f);
    }

    #[test]
    #[should_panic(expected = "empty trace")]
    fn empty_trace_panics() {
        let t = TickTrace::new(Symbol::new("ESU6"));
        let _ = NormStats::fit(&t, 1);
    }
}
