//! The multi-symbol sharded back-test.
//!
//! [`run_multi`] replays a correlated multi-instrument session
//! ([`lt_feed::MultiMarketSession`]) through ONE LightTrader system
//! model: every symbol's ticks feed a single coalesced ticket queue, so
//! one accelerator batch mixes queries from many instruments and the
//! whole fleet absorbs any one symbol's burst. The per-symbol traces are
//! k-way-merged into a single time-ordered stream whose shard map routes
//! every tick to its symbol's queue shard; completions fan back to the
//! right shard through the ticket's shard id.
//!
//! With one symbol the sharded core degenerates to the historical
//! single-instrument back-test **bit for bit** — the aggregate metrics
//! of `run_multi` on a 1-symbol session serialize byte-identically to
//! [`crate::run_lighttrader`] on the same trace.

use crate::config::BacktestConfig;
use crate::engine;
use crate::execution::ExecutionStats;
use crate::lighttrader::build_state;
use crate::metrics::{BacktestMetrics, TierOutcomes};
use lt_feed::MultiMarketSession;
use lt_lob::Symbol;
use serde::{Deserialize, Serialize};

/// Outcome tallies for one symbol of a sharded run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SymbolOutcome {
    /// The traded symbol.
    pub symbol: Symbol,
    /// Trace ticks ingested for this symbol (including feature warm-up).
    pub ticks: u64,
    /// Queries answered within the available time.
    pub responded: u64,
    /// Queries whose answer arrived after the deadline.
    pub late: u64,
    /// Queries dropped at admission (shared queue full).
    pub dropped_full: u64,
    /// Queries dropped while queued (deadline lapsed before issue).
    pub dropped_stale: u64,
    /// Queries shed by the deadline-tier planner (no tier fit the
    /// remaining budget).
    pub dropped_deadline: u64,
    /// Queries deferred to the conventional pipeline by Algorithm 1.
    pub deferred: u64,
    /// Per-tier serving outcomes of this symbol's scored queries.
    pub tiers: TierOutcomes,
    /// Execution & portfolio outcomes of this symbol, when the run
    /// traded; `None` for latency-only runs.
    pub execution: Option<ExecutionStats>,
}

impl SymbolOutcome {
    /// Total queries this symbol contributed across all outcome buckets.
    pub fn total(&self) -> u64 {
        self.responded
            + self.late
            + self.dropped_full
            + self.dropped_stale
            + self.dropped_deadline
            + self.deferred
    }

    /// Fraction of this symbol's queries answered in time.
    pub fn response_rate(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        self.responded as f64 / total as f64
    }
}

/// Metrics of a multi-symbol run: the fleet-wide aggregate plus the
/// per-symbol breakdown. The aggregate is a plain [`BacktestMetrics`]
/// (same serialization as single-instrument runs); the breakdown rides
/// alongside instead of inside it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MultiMetrics {
    /// Fleet-wide metrics over the merged stream.
    pub aggregate: BacktestMetrics,
    /// Per-symbol tallies, index position = shard id.
    pub per_symbol: Vec<SymbolOutcome>,
}

impl MultiMetrics {
    /// Panics unless every aggregate outcome counter equals the sum of
    /// its per-symbol attributions — the invariant that makes the
    /// breakdown trustworthy.
    pub fn assert_consistent(&self) {
        let sum = |f: fn(&SymbolOutcome) -> u64| self.per_symbol.iter().map(f).sum::<u64>();
        assert_eq!(self.aggregate.responded, sum(|s| s.responded), "responded");
        assert_eq!(self.aggregate.late, sum(|s| s.late), "late");
        assert_eq!(
            self.aggregate.dropped_full,
            sum(|s| s.dropped_full),
            "dropped_full"
        );
        assert_eq!(
            self.aggregate.dropped_stale,
            sum(|s| s.dropped_stale),
            "dropped_stale"
        );
        assert_eq!(
            self.aggregate.dropped_deadline,
            sum(|s| s.dropped_deadline),
            "dropped_deadline"
        );
        assert_eq!(self.aggregate.deferred, sum(|s| s.deferred), "deferred");
        let mut tiers = TierOutcomes::default();
        for s in &self.per_symbol {
            tiers.merge(&s.tiers);
        }
        assert_eq!(self.aggregate.tiers, tiers, "tiers");
        if let Some(agg) = self.aggregate.execution {
            // Fill outcomes tile per symbol, and the per-symbol stats sum
            // exactly to the fleet aggregate.
            agg.assert_tiles();
            let mut sum = ExecutionStats::default();
            for s in &self.per_symbol {
                let e = s
                    .execution
                    .expect("trading run must attribute execution per symbol");
                e.assert_tiles();
                sum.merge(&e);
            }
            assert_eq!(agg, sum, "execution");
        } else {
            assert!(
                self.per_symbol.iter().all(|s| s.execution.is_none()),
                "latency-only run must not carry per-symbol execution"
            );
        }
    }
}

/// Replays a multi-instrument session through one sharded LightTrader
/// configuration and reports aggregate plus per-symbol metrics.
///
/// The accelerator fleet, power condition, and scheduling policy come
/// from `cfg` exactly as in [`crate::run_lighttrader`]; the session
/// alone sets the symbol count.
///
/// # Panics
///
/// Panics if the configuration is invalid, or if it carries ingress
/// faults — the fault-injected A/B ingress models a single feed pair and
/// is not defined for merged multi-symbol streams.
pub fn run_multi(session: &MultiMarketSession, cfg: &BacktestConfig) -> MultiMetrics {
    let (trace, tick_shards) = session.merged();
    run_multi_merged(session, &trace, &tick_shards, cfg)
}

/// [`run_multi`] with the k-way merge precomputed by the caller.
///
/// `merged` and `tick_shards` must be exactly what
/// [`MultiMarketSession::merged`] returns for `session` — the back-test
/// farm caches that pair per session so hundreds of cells replay it
/// without re-merging. Bit-identical to [`run_multi`] by construction
/// (the latter is now a thin wrapper).
///
/// # Panics
///
/// As [`run_multi`], plus if `merged` and `tick_shards` disagree in
/// length.
pub fn run_multi_merged(
    session: &MultiMarketSession,
    merged: &lt_feed::TickTrace,
    tick_shards: &[u16],
    cfg: &BacktestConfig,
) -> MultiMetrics {
    cfg.validate();
    assert!(
        !cfg.faults.enabled(),
        "ingress fault injection is defined per feed pair, not for merged \
         multi-symbol streams; use a lossless fault profile"
    );
    assert_eq!(
        merged.len(),
        tick_shards.len(),
        "shard map must cover the merged trace"
    );
    let n = session.n_symbols();
    let mut state = build_state(cfg, n, tick_shards.to_vec());
    state.arm_execution(&cfg.execution, merged, tick_shards, n);
    let aggregate = engine::run(&mut state, merged);
    let per_symbol = session
        .symbols()
        .into_iter()
        .enumerate()
        .map(|(i, symbol)| {
            let score = state.shard_scores()[i];
            let counters = state.shard_counters(i);
            SymbolOutcome {
                symbol,
                ticks: score.ticks,
                responded: score.responded,
                late: score.late,
                dropped_full: counters.dropped_full,
                dropped_stale: counters.dropped_stale,
                dropped_deadline: counters.dropped_deadline,
                deferred: counters.deferred,
                tiers: score.tiers,
                execution: state.shard_execution(i),
            }
        })
        .collect();
    let metrics = MultiMetrics {
        aggregate,
        per_symbol,
    };
    metrics.assert_consistent();
    metrics
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::{multi_evaluation_session, scheduling_deadline_for};
    use lt_accel::PowerCondition;
    use lt_dnn::ModelKind;
    use lt_sched::Policy;

    fn quick_cfg() -> BacktestConfig {
        BacktestConfig::new(ModelKind::DeepLob, 4, PowerCondition::Sufficient)
            .with_policy(Policy::Both)
            .with_t_avail(scheduling_deadline_for(ModelKind::DeepLob))
    }

    #[test]
    fn shards_fan_back_to_their_symbols() {
        let session = multi_evaluation_session(2.0, 42, 4, 1.0);
        let m = run_multi(&session, &quick_cfg());
        assert_eq!(m.per_symbol.len(), 4);
        // Every symbol both contributed ticks and got answers.
        for s in &m.per_symbol {
            assert!(s.ticks > 0, "{:?}", s.symbol);
            assert!(s.responded > 0, "{:?}", s.symbol);
        }
        // assert_consistent ran inside run_multi; spot-check the tick sum.
        let ticks: u64 = m.per_symbol.iter().map(|s| s.ticks).sum();
        let session_ticks: usize = session.sessions.iter().map(|s| s.trace.len()).sum();
        assert_eq!(ticks, session_ticks as u64);
    }

    #[test]
    fn skew_shows_up_in_per_symbol_tallies() {
        let session = multi_evaluation_session(2.0, 42, 4, 2.0);
        let m = run_multi(&session, &quick_cfg());
        assert!(
            m.per_symbol[0].ticks > 2 * m.per_symbol[3].ticks,
            "hot symbol must dominate: {:?}",
            m.per_symbol.iter().map(|s| s.ticks).collect::<Vec<_>>()
        );
    }

    #[test]
    #[should_panic(expected = "lossless fault profile")]
    fn faulted_config_rejected() {
        let session = multi_evaluation_session(0.1, 1, 2, 0.0);
        let mut cfg = quick_cfg();
        cfg.faults.feed_a.drop = 0.1;
        let _ = run_multi(&session, &cfg);
    }
}
