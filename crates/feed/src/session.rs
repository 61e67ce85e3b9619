//! One-call market session generation.
//!
//! A [`SessionBuilder`] wires the Hawkes arrival process to the agent
//! order flow and records the resulting tick trace plus the historical
//! normalization statistics the offload engine needs. Presets bundle the
//! calibrated traffic intensities used by the evaluation harness.

use crate::agents::{AgentFlow, AgentParams};
use crate::bursts::{merge_sorted, FlashParams};
use crate::hawkes::{HawkesParams, HawkesProcess};
use crate::stats::NormStats;
use crate::trace::TickTrace;
use lt_lob::{Symbol, Timestamp};

/// Book depth recorded in every trace (the paper's ten levels, §III-A).
pub const TRACE_DEPTH: usize = 10;

/// A generated market session: the trace plus fitted normalization stats.
#[derive(Debug, Clone)]
pub struct MarketSession {
    /// The replayable tick trace.
    pub trace: TickTrace,
    /// Z-score statistics fitted over the whole session (standing in for
    /// the paper's "historical market data" profile).
    pub norm: NormStats,
}

impl MarketSession {
    /// The one recorder behind both builders: merges the flash bursts
    /// (seed `seed + 17`) into `arrivals`, steps the default agent flow
    /// (seed `seed + 1`) once per arrival, snapshots the book after each
    /// step and fits the normalization statistics over the result.
    pub(crate) fn record(
        symbol: Symbol,
        flash: Option<FlashParams>,
        duration_secs: f64,
        seed: u64,
        mut arrivals: Vec<f64>,
    ) -> Self {
        if let Some(flash) = flash {
            let bursts = flash.sample_for(duration_secs, seed.wrapping_add(17));
            arrivals = merge_sorted(arrivals, bursts);
        }
        let mut flow = AgentFlow::new(symbol, AgentParams::default(), seed.wrapping_add(1));
        let mut trace = TickTrace::new(symbol);
        for t in arrivals {
            let ts = Timestamp::from_nanos((t * 1e9) as u64);
            let events = flow.step(ts);
            debug_assert!(!events.is_empty());
            let snapshot = flow.engine().book().snapshot(TRACE_DEPTH, ts);
            trace.push(ts, snapshot);
        }
        let norm = if trace.is_empty() {
            NormStats::identity(TRACE_DEPTH)
        } else {
            NormStats::fit(&trace, TRACE_DEPTH)
        };
        MarketSession { trace, norm }
    }
}

/// Builder for [`MarketSession`]s.
///
/// # Example
///
/// ```
/// use lt_feed::SessionBuilder;
///
/// let session = SessionBuilder::normal_traffic()
///     .duration_secs(0.5)
///     .seed(7)
///     .build();
/// assert!(session.trace.len() > 100);
/// ```
#[derive(Debug, Clone)]
pub struct SessionBuilder {
    symbol: Symbol,
    seed: u64,
    duration_secs: f64,
    hawkes: HawkesParams,
    flash: Option<FlashParams>,
}

impl SessionBuilder {
    /// Starts a builder with explicit Hawkes parameters.
    pub fn new(hawkes: HawkesParams) -> Self {
        SessionBuilder {
            symbol: Symbol::new("ESU6"),
            seed: 0,
            duration_secs: 1.0,
            hawkes,
            flash: None,
        }
    }

    /// Calm traffic: a few hundred ticks per second, mild clustering.
    pub fn calm_traffic() -> Self {
        SessionBuilder::new(HawkesParams::new(200.0, 30.0, 100.0))
    }

    /// The default evaluation traffic: ~2 000 ticks/s mean with strong
    /// self-excitation (branching ratio 0.8), producing the µs-to-ms gap
    /// range the paper's scheduler experiments stress.
    pub fn normal_traffic() -> Self {
        SessionBuilder::new(HawkesParams::new(400.0, 160.0, 200.0))
    }

    /// Stressed traffic: flash-crash-like cascades (branching ratio 0.9).
    pub fn stressed_traffic() -> Self {
        SessionBuilder::new(HawkesParams::new(300.0, 270.0, 300.0))
    }

    /// Sets the traded symbol (default `ESU6`).
    pub fn symbol(mut self, symbol: Symbol) -> Self {
        self.symbol = symbol;
        self
    }

    /// Sets the RNG seed shared by arrivals and agent flow.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the session length in simulated seconds (default 1.0).
    ///
    /// # Panics
    ///
    /// Panics if `secs` is not positive.
    pub fn duration_secs(mut self, secs: f64) -> Self {
        assert!(secs > 0.0, "duration must be positive");
        self.duration_secs = secs;
        self
    }

    /// Injects flash bursts (machine-speed order cascades) on top of the
    /// Hawkes background; see [`FlashParams`].
    pub fn flash_bursts(mut self, params: FlashParams) -> Self {
        self.flash = Some(params);
        self
    }

    /// Generates the session.
    pub fn build(&self) -> MarketSession {
        let arrivals = HawkesProcess::new(self.hawkes, self.seed).sample_for(self.duration_secs);
        MarketSession::record(
            self.symbol,
            self.flash,
            self.duration_secs,
            self.seed,
            arrivals,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_produces_ordered_trace() {
        let session = SessionBuilder::normal_traffic()
            .duration_secs(0.25)
            .seed(3)
            .build();
        assert!(session.trace.len() > 50);
        for pair in session.trace.ticks.windows(2) {
            assert!(pair[0].ts <= pair[1].ts);
        }
        assert_eq!(session.norm.depth(), TRACE_DEPTH);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = SessionBuilder::normal_traffic()
            .duration_secs(0.1)
            .seed(5)
            .build();
        let b = SessionBuilder::normal_traffic()
            .duration_secs(0.1)
            .seed(5)
            .build();
        assert_eq!(a.trace, b.trace);
        let c = SessionBuilder::normal_traffic()
            .duration_secs(0.1)
            .seed(6)
            .build();
        assert_ne!(a.trace, c.trace);
    }

    #[test]
    fn traffic_presets_are_ordered_by_rate() {
        let rate = |b: SessionBuilder| {
            b.duration_secs(2.0)
                .seed(1)
                .build()
                .trace
                .stats()
                .mean_rate()
        };
        let calm = rate(SessionBuilder::calm_traffic());
        let normal = rate(SessionBuilder::normal_traffic());
        let stressed = rate(SessionBuilder::stressed_traffic());
        assert!(calm < normal, "calm {calm} vs normal {normal}");
        assert!(normal < stressed, "normal {normal} vs stressed {stressed}");
    }

    #[test]
    fn normal_traffic_is_bursty() {
        let session = SessionBuilder::normal_traffic()
            .duration_secs(2.0)
            .seed(3)
            .build();
        let stats = session.trace.stats();
        assert!(stats.cv > 1.2, "cv {}", stats.cv);
        // Gaps span at least three orders of magnitude.
        assert!(stats.max_gap_nanos / stats.min_gap_nanos.max(1) > 100);
    }

    #[test]
    fn snapshots_are_two_sided_everywhere() {
        let session = SessionBuilder::normal_traffic()
            .duration_secs(0.2)
            .seed(8)
            .build();
        for tick in &session.trace {
            assert!(tick.snapshot.best_bid().is_some());
            assert!(tick.snapshot.best_ask().is_some());
        }
    }

    #[test]
    #[should_panic(expected = "duration must be positive")]
    fn zero_duration_rejected() {
        let _ = SessionBuilder::calm_traffic().duration_secs(0.0);
    }
}
