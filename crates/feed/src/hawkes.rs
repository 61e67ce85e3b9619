//! A univariate Hawkes (self-exciting) point process.
//!
//! Tick arrivals in high-frequency markets cluster: "even a small number of
//! orders can trigger a massive number of orders, which again triggers
//! other orders" (§II-C, citing the flash-crash literature). The Hawkes
//! process captures exactly this feedback: its intensity is
//!
//! ```text
//! λ(t) = μ + Σ_{tᵢ < t} α · exp(-β (t - tᵢ))
//! ```
//!
//! where `μ` is the exogenous baseline rate, `α` the excitation each event
//! adds, and `β` the decay rate. The branching ratio `α/β` must be `< 1`
//! for stationarity; the long-run mean rate is `μ / (1 - α/β)`.
//!
//! Sampling uses Ogata's thinning algorithm, which is exact.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Parameters of a Hawkes process.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HawkesParams {
    /// Baseline (exogenous) intensity in events per second.
    pub mu: f64,
    /// Excitation added by each event, in events per second.
    pub alpha: f64,
    /// Exponential decay rate of the excitation, per second.
    pub beta: f64,
}

impl HawkesParams {
    /// Creates parameters, validating stationarity.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is non-positive or if `alpha >= beta`
    /// (non-stationary process).
    pub fn new(mu: f64, alpha: f64, beta: f64) -> Self {
        assert!(mu > 0.0, "mu must be positive");
        assert!(alpha >= 0.0, "alpha must be non-negative");
        assert!(beta > 0.0, "beta must be positive");
        assert!(
            alpha < beta,
            "branching ratio alpha/beta must be < 1 for stationarity"
        );
        HawkesParams { mu, alpha, beta }
    }

    /// The branching ratio `α/β` (the expected number of direct children of
    /// one event).
    fn branching_ratio(&self) -> f64 {
        self.alpha / self.beta
    }

    /// The long-run mean event rate `μ / (1 - α/β)` in events per second.
    pub fn mean_rate(&self) -> f64 {
        self.mu / (1.0 - self.branching_ratio())
    }
}

/// A seeded Hawkes process sampler.
///
/// # Example
///
/// ```
/// use lt_feed::hawkes::{HawkesParams, HawkesProcess};
///
/// let params = HawkesParams::new(100.0, 50.0, 80.0); // mean ≈ 267 ev/s
/// let mut process = HawkesProcess::new(params, 42);
/// let arrivals = process.sample_for(1.0); // one simulated second
/// assert!(!arrivals.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct HawkesProcess {
    params: HawkesParams,
    rng: StdRng,
    /// Current time in seconds.
    now: f64,
    /// Current *excess* intensity (above mu) at `now`.
    excitation: f64,
}

impl HawkesProcess {
    /// Creates a sampler with a deterministic seed.
    pub fn new(params: HawkesParams, seed: u64) -> Self {
        HawkesProcess {
            params,
            rng: StdRng::seed_from_u64(seed),
            now: 0.0,
            excitation: 0.0,
        }
    }

    /// Samples the next arrival time in seconds (absolute, since process
    /// start) using Ogata thinning.
    fn next_arrival(&mut self) -> f64 {
        loop {
            let lambda_bar = self.params.mu + self.excitation;
            // Candidate wait from a homogeneous Poisson at the current
            // intensity upper bound.
            let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
            let wait = -u.ln() / lambda_bar;
            // Decay the excitation over the candidate interval.
            let decayed = self.excitation * (-self.params.beta * wait).exp();
            let lambda_at = self.params.mu + decayed;
            self.now += wait;
            self.excitation = decayed;
            let accept: f64 = self.rng.gen_range(0.0..1.0);
            if accept * lambda_bar <= lambda_at {
                // Register the event: it excites the future.
                self.excitation += self.params.alpha;
                return self.now;
            }
        }
    }

    /// Samples every arrival in the next `horizon_secs` of simulated time,
    /// returned as absolute times in seconds.
    pub fn sample_for(&mut self, horizon_secs: f64) -> Vec<f64> {
        let end = self.now + horizon_secs;
        let mut out = Vec::new();
        loop {
            let t = self.next_arrival();
            if t > end {
                // Rewind: the last candidate overshot the horizon. Keep the
                // decayed state at `end` so subsequent sampling continues
                // seamlessly.
                self.excitation -= self.params.alpha;
                let overshoot = self.now - end;
                self.excitation *= (self.params.beta * overshoot).exp();
                self.now = end;
                break;
            }
            out.push(t);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_rate_formula() {
        let p = HawkesParams::new(10.0, 5.0, 10.0);
        assert!((p.branching_ratio() - 0.5).abs() < 1e-12);
        assert!((p.mean_rate() - 20.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "stationarity")]
    fn non_stationary_rejected() {
        let _ = HawkesParams::new(10.0, 10.0, 5.0);
    }

    #[test]
    #[should_panic(expected = "mu must be positive")]
    fn zero_mu_rejected() {
        let _ = HawkesParams::new(0.0, 1.0, 2.0);
    }

    #[test]
    fn arrivals_strictly_increase() {
        let mut p = HawkesProcess::new(HawkesParams::new(100.0, 40.0, 60.0), 7);
        let mut last = 0.0;
        for _ in 0..500 {
            let t = p.next_arrival();
            assert!(t > last);
            last = t;
        }
    }

    #[test]
    fn deterministic_under_same_seed() {
        let params = HawkesParams::new(50.0, 20.0, 40.0);
        let a: Vec<f64> = HawkesProcess::new(params, 99).sample_for(2.0);
        let b: Vec<f64> = HawkesProcess::new(params, 99).sample_for(2.0);
        assert_eq!(a, b);
        let c: Vec<f64> = HawkesProcess::new(params, 100).sample_for(2.0);
        assert_ne!(a, c);
    }

    #[test]
    fn empirical_rate_matches_theory() {
        // Long sample: empirical rate within 15% of mu/(1 - a/b).
        let params = HawkesParams::new(200.0, 100.0, 200.0); // mean 400/s
        let mut p = HawkesProcess::new(params, 3);
        let horizon = 50.0;
        let n = p.sample_for(horizon).len() as f64;
        let rate = n / horizon;
        assert!(
            (rate - params.mean_rate()).abs() / params.mean_rate() < 0.15,
            "rate {rate} vs theory {}",
            params.mean_rate()
        );
    }

    #[test]
    fn hawkes_is_burstier_than_poisson() {
        // The coefficient of variation of inter-arrivals must exceed 1
        // (Poisson) when excitation is strong.
        let params = HawkesParams::new(50.0, 180.0, 200.0);
        let mut p = HawkesProcess::new(params, 11);
        let arr = p.sample_for(60.0);
        let gaps: Vec<f64> = arr.windows(2).map(|w| w[1] - w[0]).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        let cv = var.sqrt() / mean;
        assert!(cv > 1.3, "cv = {cv}, expected clustered arrivals");
    }

    #[test]
    fn sample_for_respects_horizon_and_resumes() {
        let mut p = HawkesProcess::new(HawkesParams::new(100.0, 10.0, 50.0), 5);
        let first = p.sample_for(1.0);
        assert!(first.iter().all(|&t| t <= 1.0));
        let second = p.sample_for(1.0);
        assert!(second.iter().all(|&t| t > 1.0 && t <= 2.0));
    }

    #[test]
    fn zero_alpha_degenerates_to_poisson() {
        // With alpha = 0 the intensity is constant mu.
        let params = HawkesParams::new(100.0, 0.0, 1.0);
        assert_eq!(params.mean_rate(), 100.0);
        let mut p = HawkesProcess::new(params, 1);
        let n = p.sample_for(20.0).len() as f64;
        assert!((n / 20.0 - 100.0).abs() < 15.0);
    }
}
