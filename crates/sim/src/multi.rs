//! The multi-symbol sharded back-test.
//!
//! [`run_multi_merged`] replays a correlated multi-instrument session
//! ([`lt_feed::MultiMarketSession`]) through ONE LightTrader system
//! model: every symbol's ticks feed a single coalesced ticket queue, so
//! one accelerator batch mixes queries from many instruments and the
//! whole fleet absorbs any one symbol's burst. The per-symbol traces are
//! k-way-merged into a single time-ordered stream whose shard map routes
//! every tick to its symbol's queue shard; completions fan back to the
//! right shard through the ticket's shard id.
//!
//! The result is a plain [`BacktestMetrics`]: its outcome rows
//! ([`BacktestMetrics::shards`]) are the per-symbol tallies in shard
//! order (symbol `i` of [`MultiMarketSession::symbols`] is row `i`), and
//! its totals are their sum. With one symbol the sharded core is the
//! historical single-instrument back-test **bit for bit**:
//! `run_multi_merged` on a 1-symbol session serializes byte-identically to
//! [`crate::run_lighttrader`] on the same trace.

use crate::config::BacktestConfig;
use crate::engine;
use crate::lighttrader::build_state;
use crate::metrics::BacktestMetrics;
use lt_feed::MultiMarketSession;

/// Replays a multi-instrument session through one sharded LightTrader
/// configuration and reports its metrics, one outcome row per symbol.
///
/// `merged` and `tick_shards` must be exactly what
/// [`MultiMarketSession::merged`] returns for `session` — the back-test
/// farm caches that pair per session so hundreds of cells replay it
/// without re-merging. The accelerator fleet, power condition, and
/// scheduling policy come from `cfg` exactly as in
/// [`crate::run_lighttrader`]; the session alone sets the symbol count.
///
/// # Panics
///
/// Panics if the configuration is invalid, if it carries ingress
/// faults — the fault-injected A/B ingress models a single feed pair and
/// is not defined for merged multi-symbol streams — or if `merged` and
/// `tick_shards` disagree in length.
pub fn run_multi_merged(
    session: &MultiMarketSession,
    merged: &lt_feed::TickTrace,
    tick_shards: &[u16],
    cfg: &BacktestConfig,
) -> BacktestMetrics {
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
    engine::run(&mut state, merged, n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::{evaluation_flash, evaluation_hawkes, scheduling_deadline_for};
    use lt_accel::PowerCondition;
    use lt_dnn::ModelKind;
    use lt_feed::MultiSessionBuilder;
    use lt_sched::Policy;

    fn quick_cfg() -> BacktestConfig {
        BacktestConfig::new(ModelKind::DeepLob, 4, PowerCondition::Sufficient)
            .with_policy(Policy::Both)
            .with_t_avail(scheduling_deadline_for(ModelKind::DeepLob))
    }

    /// `symbols` evaluation-traffic feeds with a Zipf skew of `skew`.
    fn session(secs: f64, seed: u64, symbols: usize, skew: f64) -> MultiMarketSession {
        MultiSessionBuilder::new(evaluation_hawkes())
            .flash_bursts(evaluation_flash())
            .symbols(symbols)
            .skew(skew)
            .duration_secs(secs)
            .seed(seed)
            .build()
    }

    #[test]
    fn shards_fan_back_to_their_symbols() {
        let session = session(2.0, 42, 4, 1.0);
        let (trace, shards) = session.merged();
        let m = run_multi_merged(&session, &trace, &shards, &quick_cfg());
        assert_eq!(m.shards().len(), 4);
        // Every symbol took its own session's ticks and got answers.
        for (row, symbol) in m.shards().iter().zip(&session.sessions) {
            assert_eq!(row.ticks, symbol.trace.len() as u64);
            assert!(row.responded > 0, "{row:?}");
        }
    }

    #[test]
    fn skew_shows_up_in_per_symbol_tallies() {
        let session = session(2.0, 42, 4, 2.0);
        let (trace, shards) = session.merged();
        let m = run_multi_merged(&session, &trace, &shards, &quick_cfg());
        let ticks: Vec<u64> = m.shards().iter().map(|s| s.ticks).collect();
        assert!(
            ticks[0] > 2 * ticks[3],
            "hot symbol must dominate: {ticks:?}"
        );
    }

    #[test]
    #[should_panic(expected = "lossless fault profile")]
    fn faulted_config_rejected() {
        let session = session(0.1, 1, 2, 0.0);
        let mut cfg = quick_cfg();
        cfg.faults.feed_a.drop = 0.1;
        let (trace, shards) = session.merged();
        let _ = run_multi_merged(&session, &trace, &shards, &cfg);
    }
}
