//! The multi-symbol sharded back-test: parity, determinism, and
//! per-symbol accounting.
//!
//! The load-bearing guarantee is **single-symbol parity**: the sharded
//! core with one shard must be the historical single-instrument
//! back-test bit for bit — same counters, same latency stream, same
//! per-stage telemetry, same energy bit pattern. On top of that, a
//! multi-symbol run must be a pure function of (seed, config), and each
//! symbol's outcome row must account for its own session's queries.

mod support;

use lt_accel::PowerCondition;
use lt_dnn::ModelKind;
use lt_sched::Policy;
use lt_sim::traffic::scheduling_deadline_for;
use lt_sim::{run_lighttrader, run_multi_merged, BacktestConfig, BacktestMetrics, ShardOutcomes};
use support::multi_evaluation_session;

const SECS: f64 = 3.0;
const SEED: u64 = 4242;

fn serialize(m: &BacktestMetrics) -> String {
    let json = serde_json::to_string(m).expect("metrics serialize");
    format!("{json}|energy_bits={:016x}", m.energy_j.to_bits())
}

/// Queries across one row's outcome buckets.
fn queries(row: &ShardOutcomes) -> u64 {
    row.responded
        + row.late
        + row.dropped_full
        + row.dropped_stale
        + row.dropped_deadline
        + row.deferred
}

fn cfg_for(kind: ModelKind, n_accels: usize, policy: Policy) -> BacktestConfig {
    BacktestConfig::new(kind, n_accels, PowerCondition::Limited)
        .with_policy(policy)
        .with_t_avail(scheduling_deadline_for(kind))
}

/// One symbol through the sharded core == the single-instrument core,
/// byte for byte, under every scheduling policy.
#[test]
fn single_symbol_matches_run_lighttrader_exactly() {
    for policy in Policy::ALL {
        let session = multi_evaluation_session(SECS, SEED, 1, 0.0);
        let cfg = cfg_for(ModelKind::DeepLob, 4, policy);
        let (trace, shards) = session.merged();
        let multi = run_multi_merged(&session, &trace, &shards, &cfg);
        let single_cfg = cfg_for(ModelKind::DeepLob, 4, policy);
        let single = run_lighttrader(&session.sessions[0].trace, &single_cfg);
        assert_eq!(
            serialize(&multi),
            serialize(&single),
            "{policy:?}: sharded core with one shard diverged from the \
             single-instrument back-test"
        );
    }
}

/// A multi-symbol back-test is a pure function of (seed, config): two
/// independently generated runs serialize byte-identically, per-symbol
/// rows included.
#[test]
fn multi_symbol_runs_are_byte_identical() {
    for (symbols, skew) in [(2usize, 0.0), (4, 1.0), (8, 2.5)] {
        let run = || {
            let session = multi_evaluation_session(SECS, SEED, symbols, skew);
            let cfg = cfg_for(ModelKind::DeepLob, 8, Policy::Both);
            let (trace, shards) = session.merged();
            run_multi_merged(&session, &trace, &shards, &cfg)
        };
        let first = serialize(&run());
        let second = serialize(&run());
        assert_eq!(first, second, "{symbols} symbols @ skew {skew} diverged");
    }
}

/// Each symbol's row holds its own session's ticks, and every query
/// after the symbol's warm-up ends in one of the row's buckets; the
/// totals are the rows' sum.
#[test]
fn per_symbol_tallies_tile_the_aggregate() {
    let symbols = 4;
    let session = multi_evaluation_session(SECS, SEED, symbols, 1.5);
    let cfg = cfg_for(ModelKind::DeepLob, 4, Policy::Both);
    let (trace, shards) = session.merged();
    let m = run_multi_merged(&session, &trace, &shards, &cfg);
    assert_eq!(m.shards().len(), symbols);
    for (i, s) in m.shards().iter().enumerate() {
        // Each shard swallows window-1 warm-up ticks; all later ticks
        // become queries with some outcome.
        let ticks = session.sessions[i].trace.len() as u64;
        assert_eq!(s.ticks, ticks, "symbol {i}");
        assert_eq!(
            queries(s),
            ticks - (cfg.window as u64 - 1),
            "symbol {i} leaks queries"
        );
    }
    let rows_total: u64 = m.shards().iter().map(queries).sum();
    assert_eq!(m.total(), rows_total);
}

/// Skewed traffic concentrates load on the leading symbol, and the
/// shared fleet still answers the long tail.
#[test]
fn skew_concentrates_but_tail_still_answers() {
    let symbols = 8;
    let session = multi_evaluation_session(SECS, SEED, symbols, 2.5);
    let mut cfg = cfg_for(ModelKind::DeepLob, 8, Policy::Both);
    // The coldest tail symbol sees only tens of ticks in a short
    // session; a short feature window lets every shard warm up.
    cfg.window = 20;
    let (trace, shards) = session.merged();
    let m = run_multi_merged(&session, &trace, &shards, &cfg);
    let ticks: Vec<u64> = m.shards().iter().map(|s| s.ticks).collect();
    assert!(
        ticks[0] > 3 * ticks[symbols - 1],
        "skew 2.5 must concentrate traffic: {ticks:?}"
    );
    for (i, s) in m.shards().iter().enumerate() {
        assert!(
            s.responded > 0,
            "symbol {i} starved despite the shared fleet"
        );
    }
}

/// One sharded system with the whole fleet behind one tensor queue
/// against one single-symbol system per chip, each replaying its own
/// symbol in isolation. The skewed load overwhelms the hot symbol's
/// private chip while the tail's chips sit idle; coalescing removes
/// exactly that fragmentation. Simulated, so exact: 14 858 against
/// 8 874 in-time responses per second (1.67x) when this was written.
#[test]
fn coalesced_fleet_beats_independent_pipelines_under_skew() {
    const AGGREGATE_FLOOR: f64 = 1.5;
    let (symbols, skew) = (8, 2.5);
    let session = lt_feed::MultiSessionBuilder::normal_traffic()
        .symbols(symbols)
        .skew(skew)
        .duration_secs(2.0)
        .seed(SEED)
        .build();
    let fleet = |n_accels| {
        let mut cfg = cfg_for(ModelKind::DeepLob, n_accels, Policy::Both);
        cfg.condition = PowerCondition::Sufficient;
        cfg
    };
    let (trace, shards) = session.merged();
    let coalesced = run_multi_merged(&session, &trace, &shards, &fleet(symbols)).responded;
    let independent: u64 = session
        .sessions
        .iter()
        .map(|s| run_lighttrader(&s.trace, &fleet(1)).responded)
        .sum();
    // Same simulated span on both sides, so the response counts compare
    // as rates.
    assert!(
        coalesced as f64 >= AGGREGATE_FLOOR * independent as f64,
        "coalesced {coalesced} in-time responses vs {independent} from independent pipelines"
    );
}
