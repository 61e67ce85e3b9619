//! The multi-symbol sharded back-test: parity, determinism, and
//! per-symbol accounting.
//!
//! The load-bearing guarantee is **single-symbol parity**: the sharded
//! core with one shard must be the historical single-instrument
//! back-test bit for bit — same counters, same latency stream, same
//! per-stage telemetry, same energy bit pattern. On top of that, a
//! multi-symbol run must be a pure function of (seed, config), and its
//! per-symbol breakdown must tile the aggregate exactly.

use lt_accel::PowerCondition;
use lt_dnn::ModelKind;
use lt_sched::Policy;
use lt_sim::traffic::{multi_evaluation_session, scheduling_deadline_for};
use lt_sim::{run_lighttrader, run_multi, BacktestConfig, BacktestMetrics, MultiMetrics};

const SECS: f64 = 3.0;
const SEED: u64 = 4242;

fn serialize(m: &BacktestMetrics) -> String {
    let json = serde_json::to_string(m).expect("metrics serialize");
    format!("{json}|energy_bits={:016x}", m.energy_j.to_bits())
}

fn serialize_multi(m: &MultiMetrics) -> String {
    let json = serde_json::to_string(m).expect("multi metrics serialize");
    format!("{json}|energy_bits={:016x}", m.aggregate.energy_j.to_bits())
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
        let multi = run_multi(&session, &cfg);
        let single_cfg = cfg_for(ModelKind::DeepLob, 4, policy);
        let single = run_lighttrader(&session.sessions[0].trace, &single_cfg);
        assert_eq!(
            serialize(&multi.aggregate),
            serialize(&single),
            "{policy:?}: sharded core with one shard diverged from the \
             single-instrument back-test"
        );
    }
}

/// A multi-symbol back-test is a pure function of (seed, config): two
/// independently generated runs serialize byte-identically, per-symbol
/// breakdown included.
#[test]
fn multi_symbol_runs_are_byte_identical() {
    for (symbols, skew) in [(2usize, 0.0), (4, 1.0), (8, 2.5)] {
        let run = || {
            let session = multi_evaluation_session(SECS, SEED, symbols, skew);
            let cfg = cfg_for(ModelKind::DeepLob, 8, Policy::Both);
            run_multi(&session, &cfg)
        };
        let first = serialize_multi(&run());
        let second = serialize_multi(&run());
        assert_eq!(first, second, "{symbols} symbols @ skew {skew} diverged");
    }
}

/// The per-symbol breakdown tiles the aggregate: every outcome counter
/// equals the sum of its per-symbol attributions, and every symbol's
/// query total matches its warm ticks.
#[test]
fn per_symbol_tallies_tile_the_aggregate() {
    let symbols = 4;
    let session = multi_evaluation_session(SECS, SEED, symbols, 1.5);
    let cfg = cfg_for(ModelKind::DeepLob, 4, Policy::Both);
    let m = run_multi(&session, &cfg);
    m.assert_consistent();
    assert_eq!(m.per_symbol.len(), symbols);
    for (i, s) in m.per_symbol.iter().enumerate() {
        // Each shard's feature FIFO swallows window-1 warm-up ticks; all
        // later ticks become queries with some outcome.
        let expected = session.sessions[i].trace.len() as u64 - (cfg.window as u64 - 1);
        assert_eq!(s.total(), expected, "{:?} leaks queries", s.symbol);
    }
    let aggregate_total: u64 = m.per_symbol.iter().map(|s| s.total()).sum();
    assert_eq!(m.aggregate.total(), aggregate_total);
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
    let m = run_multi(&session, &cfg);
    let ticks: Vec<u64> = m.per_symbol.iter().map(|s| s.ticks).collect();
    assert!(
        ticks[0] > 3 * ticks[symbols - 1],
        "skew 2.5 must concentrate traffic: {ticks:?}"
    );
    for s in &m.per_symbol {
        assert!(
            s.responded > 0,
            "{:?} starved despite the shared fleet",
            s.symbol
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
    let coalesced = run_multi(&session, &fleet(symbols)).aggregate.responded;
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
