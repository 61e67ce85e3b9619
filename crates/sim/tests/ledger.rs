//! The outcome ledger at every back-test entry point.
//!
//! Each entry (`run_lighttrader` clean and with ingress faults,
//! `run_single_device`, and a 4-symbol `run_multi_merged`) reports one outcome
//! row per shard. The rows must hold every tick the run replayed, every
//! query after a shard's warm-up must end in one of its row's buckets,
//! the totals must be the rows' sum, and every response must carry one
//! sample in each stage column.

mod support;

use lt_accel::PowerCondition;
use lt_dnn::ModelKind;
use lt_sched::Policy;
use lt_sim::traffic::{evaluation_trace, scheduling_deadline_for};
use lt_sim::{
    degrade_trace, run_lighttrader, run_multi_merged, run_single_device, BacktestConfig,
    BacktestMetrics, ExecutionConfig, ExecutionStats, FaultRates, IngressFaults, ShardOutcomes,
    SingleDeviceSystem, TierOutcomes,
};
use std::time::Duration;
use support::multi_evaluation_session;

const SECS: f64 = 2.0;
const SEED: u64 = 4242;

fn cfg() -> BacktestConfig {
    BacktestConfig::new(ModelKind::DeepLob, 2, PowerCondition::Limited)
        .with_policy(Policy::Both)
        .with_t_avail(scheduling_deadline_for(ModelKind::DeepLob))
}

/// Asserts the ledger identities of `m`, a run that replayed
/// `replayed_ticks` ticks with a `window`-tick warm-up per shard.
fn assert_ledger(m: &BacktestMetrics, replayed_ticks: usize, window: usize) {
    let rows = m.shards();
    assert!(!rows.is_empty(), "every run has a row per shard");
    let sum = |f: fn(&ShardOutcomes) -> u64| rows.iter().map(f).sum::<u64>();
    assert_eq!(sum(|r| r.ticks), replayed_ticks as u64, "ticks");
    for (i, row) in rows.iter().enumerate() {
        let warm_up = (window as u64 - 1).min(row.ticks);
        let queries = row.responded
            + row.late
            + row.dropped_full
            + row.dropped_stale
            + row.dropped_deadline
            + row.deferred;
        assert_eq!(queries, row.ticks - warm_up, "shard {i} leaks queries");
        assert_eq!(
            row.tiers.served.iter().sum::<u64>(),
            row.responded + row.late,
            "shard {i} tiers"
        );
    }
    assert_eq!(m.responded, sum(|r| r.responded), "responded");
    assert_eq!(m.late, sum(|r| r.late), "late");
    assert_eq!(m.dropped_full, sum(|r| r.dropped_full), "dropped_full");
    assert_eq!(m.dropped_stale, sum(|r| r.dropped_stale), "dropped_stale");
    assert_eq!(
        m.dropped_deadline,
        sum(|r| r.dropped_deadline),
        "dropped_deadline"
    );
    assert_eq!(m.deferred, sum(|r| r.deferred), "deferred");
    let mut tiers = TierOutcomes::default();
    for row in rows {
        tiers.merge(&row.tiers);
    }
    assert_eq!(m.tiers, tiers, "tiers");
    let execution = rows
        .iter()
        .try_fold(ExecutionStats::default(), |mut sum, row| {
            sum.merge(&row.execution?);
            Some(sum)
        });
    assert_eq!(m.execution, execution, "execution");
    assert_eq!(m.latencies().len() as u64, m.responded);
    assert!(m.stage_sums_reconcile(0));
    assert!(m.responded > 0, "the run must answer something: {m}");
}

#[test]
fn run_lighttrader_rows_sum_to_the_totals() {
    let trace = evaluation_trace(SECS, SEED);
    let cfg = cfg().with_execution(ExecutionConfig::realistic());
    let m = run_lighttrader(&trace, &cfg);
    assert_eq!(m.shards().len(), 1);
    assert!(m.execution.is_some());
    assert_ledger(&m, trace.len(), cfg.window);
}

/// A faulted run replays the degraded trace: the rows hold what the
/// arbiter delivered, not what the exchange sent.
#[test]
fn faulted_run_rows_hold_the_degraded_trace() {
    let trace = evaluation_trace(SECS, SEED);
    let rates = FaultRates {
        drop: 0.3,
        ..FaultRates::lossless()
    };
    let cfg = cfg().with_faults(IngressFaults::symmetric(rates, 7));
    let (degraded, report) = degrade_trace(&trace, &cfg.faults);
    assert!(degraded.len() < trace.len(), "both feeds lose packets");
    let m = run_lighttrader(&trace, &cfg);
    assert_eq!(m.ingress, Some(report));
    assert_ledger(&m, degraded.len(), cfg.window);
}

#[test]
fn run_single_device_rows_sum_to_the_totals() {
    let trace = evaluation_trace(SECS, SEED);
    let window = 10;
    let m = run_single_device(
        &trace,
        &SingleDeviceSystem::fpga(),
        ModelKind::TransLob,
        Duration::from_millis(2),
        window,
    );
    assert_eq!(m.shards().len(), 1);
    assert!(m.dropped_stale > 0, "the device falls behind: {m}");
    assert_ledger(&m, trace.len(), window);
}

#[test]
fn four_symbol_run_multi_rows_sum_to_the_totals() {
    let session = multi_evaluation_session(SECS, SEED, 4, 1.0);
    let cfg = cfg().with_execution(ExecutionConfig::realistic());
    let (trace, shards) = session.merged();
    let m = run_multi_merged(&session, &trace, &shards, &cfg);
    assert_eq!(m.shards().len(), 4);
    for (row, symbol) in m.shards().iter().zip(&session.sessions) {
        assert_eq!(row.ticks, symbol.trace.len() as u64);
    }
    let ticks: usize = session.sessions.iter().map(|s| s.trace.len()).sum();
    assert_ledger(&m, ticks, cfg.window);
}
