//! Flash-burst injection.
//!
//! On top of ordinary self-excited clustering, real tick streams contain
//! rare *flash events* — "even a small number of orders can trigger a
//! massive number of orders … this kind of market disruption occurred
//! more than once a day" (§II-C). These machine-speed cascades arrive as
//! trains of back-to-back packets with microsecond gaps and are exactly
//! what stresses an HFT system's throughput. [`FlashParams`] injects such
//! trains into a generated session at Poisson times.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Parameters of the injected flash bursts.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FlashParams {
    /// Mean bursts per second (Poisson).
    pub bursts_per_sec: f64,
    /// Mean burst length in events (geometric).
    pub mean_size: f64,
    /// Gap between consecutive events inside a burst, in seconds.
    pub intra_gap_secs: f64,
}

impl FlashParams {
    /// Creates parameters, validating positivity.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is non-positive or `mean_size < 1`.
    pub fn new(bursts_per_sec: f64, mean_size: f64, intra_gap_secs: f64) -> Self {
        assert!(bursts_per_sec > 0.0, "burst rate must be positive");
        assert!(mean_size >= 1.0, "mean burst size must be at least 1");
        assert!(intra_gap_secs > 0.0, "intra-burst gap must be positive");
        FlashParams {
            bursts_per_sec,
            mean_size,
            intra_gap_secs,
        }
    }

    /// Samples every flash-burst event time in `[0, horizon_secs)`,
    /// ascending. At storm intensities one burst's train can outlast the
    /// next burst's start, so the concatenated trains are re-sorted; the
    /// sort is the identity on non-overlapping (already ordered) streams.
    pub fn sample_for(&self, horizon_secs: f64, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = Vec::new();
        let mut t = 0.0;
        loop {
            // Next burst start: exponential inter-arrival.
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            t += -u.ln() / self.bursts_per_sec;
            if t >= horizon_secs {
                break;
            }
            // Geometric size with the configured mean (support >= 1).
            let p = 1.0 / self.mean_size;
            let mut size = 1usize;
            while rng.gen_range(0.0..1.0) > p && size < 10_000 {
                size += 1;
            }
            for k in 0..size {
                let at = t + k as f64 * self.intra_gap_secs;
                if at < horizon_secs {
                    out.push(at);
                }
            }
        }
        out.sort_by(f64::total_cmp);
        out
    }
}

/// Merges two ascending event-time streams into one ascending stream.
pub fn merge_sorted(a: Vec<f64>, b: Vec<f64>) -> Vec<f64> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i] <= b[j] {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_events_are_ordered_and_bounded() {
        let p = FlashParams::new(1.0, 20.0, 10e-6);
        let events = p.sample_for(10.0, 42);
        assert!(!events.is_empty());
        for w in events.windows(2) {
            assert!(w[0] <= w[1]);
        }
        assert!(events.iter().all(|&t| (0.0..10.0).contains(&t)));
    }

    #[test]
    fn mean_rate_roughly_matches() {
        let p = FlashParams::new(2.0, 25.0, 10e-6);
        let events = p.sample_for(200.0, 7);
        let rate = events.len() as f64 / 200.0;
        let theory = p.bursts_per_sec * p.mean_size;
        assert!(
            (rate - theory).abs() / theory < 0.3,
            "rate {rate:.1} vs theory {theory:.1}"
        );
    }

    #[test]
    fn bursts_are_tight_trains() {
        let p = FlashParams::new(0.5, 30.0, 10e-6);
        let events = p.sample_for(60.0, 3);
        // Most consecutive gaps inside the stream are the intra gap.
        let tight = events
            .windows(2)
            .filter(|w| (w[1] - w[0] - 10e-6).abs() < 1e-9)
            .count();
        assert!(tight * 2 > events.len(), "{tight} of {}", events.len());
    }

    #[test]
    fn deterministic_per_seed() {
        let p = FlashParams::new(1.0, 10.0, 5e-6);
        assert_eq!(p.sample_for(5.0, 9), p.sample_for(5.0, 9));
        assert_ne!(p.sample_for(5.0, 9), p.sample_for(5.0, 10));
    }

    #[test]
    fn overlapping_storm_trains_stay_ordered() {
        // Storm intensity: trains long enough that consecutive bursts
        // overlap; the samples must still come out ascending.
        let p = FlashParams::new(12.0, 50.0, 10e-6);
        let events = p.sample_for(20.0, 20230225);
        assert!(events.len() > 1_000);
        for w in events.windows(2) {
            assert!(w[0] <= w[1], "{} > {}", w[0], w[1]);
        }
    }

    #[test]
    fn merge_interleaves() {
        let merged = merge_sorted(vec![1.0, 3.0, 5.0], vec![2.0, 4.0]);
        assert_eq!(merged, vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(merge_sorted(vec![], vec![1.0]), vec![1.0]);
        assert_eq!(merge_sorted(vec![1.0], vec![]), vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "burst rate")]
    fn zero_rate_panics() {
        let _ = FlashParams::new(0.0, 10.0, 1e-6);
    }
}
