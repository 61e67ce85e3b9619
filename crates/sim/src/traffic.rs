//! The calibrated evaluation traffic and deadline.
//!
//! The paper back-tests on CME E-mini S&P 500 tick data; our substitute
//! is a synthetic session (see `lt-feed`) with two components:
//!
//! * a mildly self-excited Hawkes background (`µ = 70/s`, branching 0.1,
//!   decay 3 000/s) that sets the sustained load the baseline systems
//!   queue against, and
//! * rare machine-speed **flash bursts** (1.3/s, geometric mean 25
//!   events, 10 µs intra-burst gaps) — the paper's "market disruption
//!   occurred more than once a day" cascades — which stress LightTrader's
//!   own throughput.
//!
//! The parameters were fitted by `lt-bench`'s `calibrate` binary so that
//! single-accelerator response rates land on Fig. 11(b): measured
//! LightTrader 96.5/93.2/87.3% vs paper 94.2/91.9/87.1%, GPU
//! 74.7/72.5/60.5% vs ~71.9/70.2/66.5%, FPGA 79.4/78.5/74.9% vs
//! ~78.5/76.6/72.6% (30 s session). EXPERIMENTS.md records the
//! full-length runs.

use lt_feed::{
    FlashParams, HawkesParams, SessionArtifact, SessionBuilder, SessionSpec, TraceCache,
};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Seed used by every headline experiment (re-runnable back-tests).
pub const EVALUATION_SEED: u64 = 20230225; // HPCA 2023 conference date

/// The per-query available time (`t_avail`): the prediction-horizon
/// validity window within which an answer still has value (§II-C).
pub fn evaluation_deadline() -> Duration {
    Duration::from_millis(5)
}

/// The tighter available time used by the scheduling study (Fig. 13):
/// a genuinely constrained horizon makes Algorithm 1's batching and
/// Algorithm 2's boosting decisions matter, as in the paper's miss-rate
/// experiments. (The 5 ms response window above is what lets the GPU
/// baseline participate in Fig. 11 at all.)
pub fn scheduling_deadline() -> Duration {
    Duration::from_micros(620)
}

/// Per-model scheduling horizon: four times the model's batch-1 reference
/// service. LOB models are trained for horizons measured in *tick steps*,
/// and heavier models target proportionally longer horizons (the DeepLOB
/// paper evaluates k = 10..100); scaling the validity window with the
/// model keeps every benchmark in the regime where scheduling decisions
/// are neither trivial nor hopeless.
pub fn scheduling_deadline_for(kind: lt_dnn::ModelKind) -> Duration {
    match kind {
        lt_dnn::ModelKind::VanillaCnn => Duration::from_micros(480),
        lt_dnn::ModelKind::TransLob => Duration::from_micros(640),
        lt_dnn::ModelKind::DeepLob => Duration::from_micros(1_200),
    }
}

/// The calibrated Hawkes background.
pub fn evaluation_hawkes() -> HawkesParams {
    HawkesParams::new(70.0, 300.0, 3_000.0)
}

/// The calibrated flash-burst component.
pub fn evaluation_flash() -> FlashParams {
    FlashParams::new(1.3, 25.0, 10e-6)
}

/// The burst-storm stress profile: flash cascades an order of magnitude
/// more frequent and twice as deep as the calibrated evaluation traffic.
/// This is the deadline-tier scheduler's design workload — sustained
/// machine-speed storms where a fixed heavyweight model blows through
/// per-tick budgets and only graceful degradation keeps answers flowing.
pub fn burst_storm_flash() -> FlashParams {
    FlashParams::new(12.0, 50.0, 10e-6)
}

/// The burst-storm session's trace: the calibrated Hawkes background
/// overlaid with [`burst_storm_flash`] cascades.
pub fn burst_storm_trace(secs: f64, seed: u64) -> lt_feed::TickTrace {
    SessionBuilder::new(evaluation_hawkes())
        .flash_bursts(burst_storm_flash())
        .duration_secs(secs)
        .seed(seed)
        .build()
        .trace
}

/// Generates the shared evaluation trace: `secs` of synthetic E-mini
/// trading.
///
/// Deliberately uncached: the determinism suite relies on independently
/// regenerated traces to cover the whole feed → engine → metrics
/// pipeline. Callers that want sharing go through
/// [`cached_evaluation_session`].
pub fn evaluation_trace(secs: f64, seed: u64) -> lt_feed::TickTrace {
    SessionBuilder::new(evaluation_hawkes())
        .flash_bursts(evaluation_flash())
        .duration_secs(secs)
        .seed(seed)
        .build()
        .trace
}

/// The [`SessionSpec`] of [`evaluation_trace`]: same traffic, same
/// seed, cacheable. `spec.build()` is bit-identical to the direct
/// builder path.
fn evaluation_spec(secs: f64, seed: u64) -> SessionSpec {
    SessionSpec::single(evaluation_hawkes(), secs, seed).with_flash(evaluation_flash())
}

/// The process-wide trace cache shared by the experiment helpers and
/// any farm runner that opts in — one evaluation session build per
/// (secs, seed) per process, however many experiments replay it.
pub fn shared_trace_cache() -> Arc<TraceCache> {
    static CACHE: OnceLock<Arc<TraceCache>> = OnceLock::new();
    Arc::clone(CACHE.get_or_init(|| Arc::new(TraceCache::new())))
}

/// The session of [`evaluation_trace`] through [`shared_trace_cache`]: builds once
/// per (secs, seed) per process and hands out shared immutable `Arc`s.
pub fn cached_evaluation_session(secs: f64, seed: u64) -> Arc<SessionArtifact> {
    shared_trace_cache().get_or_build(&evaluation_spec(secs, seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traffic_is_bursty_at_the_right_rate() {
        let trace = evaluation_trace(30.0, EVALUATION_SEED);
        let stats = trace.stats();
        let mean_rate = stats.mean_rate();
        let flash = evaluation_flash();
        let theory = evaluation_hawkes().mean_rate() + flash.bursts_per_sec * flash.mean_size;
        assert!(
            (mean_rate - theory).abs() / theory < 0.25,
            "rate {mean_rate:.0}/s vs theory {theory:.0}/s"
        );
        assert!(
            stats.cv > 1.2,
            "cv {} — must be burstier than Poisson",
            stats.cv
        );
        // Gaps must span the paper's µs-to-seconds range.
        assert!(stats.min_gap_nanos < 100_000, "machine-speed gaps exist");
        assert!(stats.max_gap_nanos > 50_000_000, "long quiet periods exist");
    }

    #[test]
    fn deadline_fits_every_system_unloaded() {
        // Each system can answer at least an unqueued query in time,
        // otherwise Fig. 11(b) comparisons are vacuous.
        let deadline = evaluation_deadline();
        assert!(deadline > Duration::from_micros(3_400), "GPU DeepLOB fits");
    }

    #[test]
    fn cached_session_matches_the_direct_build_bit_for_bit() {
        let direct = evaluation_trace(2.0, 77);
        let spec = evaluation_spec(2.0, 77);
        assert_eq!(spec.build().single().trace, direct);
        let cached = cached_evaluation_session(2.0, 77);
        assert_eq!(cached.single().trace, direct);
        // A second lookup shares the same artifact, not a rebuild.
        let again = cached_evaluation_session(2.0, 77);
        assert!(std::sync::Arc::ptr_eq(&cached, &again));
    }

    #[test]
    fn burst_storm_is_heavier_than_evaluation_traffic() {
        let eval = evaluation_trace(10.0, EVALUATION_SEED);
        let storm = burst_storm_trace(10.0, EVALUATION_SEED);
        assert!(
            storm.len() as f64 > 1.5 * eval.len() as f64,
            "storm {} ticks vs evaluation {}",
            storm.len(),
            eval.len()
        );
        let tight = |t: &lt_feed::TickTrace| {
            t.ticks
                .windows(2)
                .filter(|w| w[1].ts.nanos_since(w[0].ts) < 20_000)
                .count()
        };
        assert!(
            tight(&storm) > 4 * tight(&eval),
            "storm {} machine-speed gaps vs evaluation {}",
            tight(&storm),
            tight(&eval)
        );
    }

    #[test]
    fn flash_bursts_visible_in_trace() {
        let trace = evaluation_trace(20.0, EVALUATION_SEED);
        // Count 10 µs gaps: the flash-burst signature.
        let tight = trace
            .ticks
            .windows(2)
            .filter(|w| w[1].ts.nanos_since(w[0].ts) < 20_000)
            .count();
        assert!(tight > 100, "only {tight} machine-speed gaps");
    }
}
