//! Back-test outcome accounting.

use crate::execution::ExecutionStats;
use crate::ingress::IngressReport;
use crate::telemetry::{Stage, StageBreakdown};
use lt_dnn::ModelKind;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Per-tier serving outcomes of the deadline-aware scheduler. All-zero
/// for fixed-model policies (which never consult the tier planner).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TierOutcomes {
    /// Scored queries served per model tier, [`ModelKind::ALL`] order.
    pub served: [u64; 3],
    /// Scored queries served below the preferred tier (a subset of the
    /// `served` tally on cheaper tiers).
    pub degraded: u64,
}

impl TierOutcomes {
    /// Records one scored query served at `kind`; `degraded` marks a
    /// below-preferred tier.
    pub fn record(&mut self, kind: ModelKind, degraded: bool) {
        self.served[kind.index()] += 1;
        if degraded {
            self.degraded += 1;
        }
    }

    /// Scored queries served at `kind`.
    pub fn served_at(&self, kind: ModelKind) -> u64 {
        self.served[kind.index()]
    }

    /// Scored queries across all tiers.
    pub fn served_total(&self) -> u64 {
        self.served.iter().sum()
    }

    /// Merges another tally into this one.
    pub fn merge(&mut self, other: &TierOutcomes) {
        for (a, b) in self.served.iter_mut().zip(other.served) {
            *a += b;
        }
        self.degraded += other.degraded;
    }
}

/// Per-stage latency samples, parallel to the end-to-end latency stream.
///
/// `columns[stage as usize][i]` is the time response `i` spent in
/// `stage`, so for every response the stage columns sum to the recorded
/// tick-to-trade exactly (the decomposition is exact by construction, see
/// [`crate::telemetry::QueryTimeline::breakdown`]). One column a stage,
/// not one row a response: a growing column reallocates an eighth of the
/// samples at a time, where rows reallocate them all at once (on a
/// 2-core x86-64 host, rows raised `backtest_grid`'s peak RSS from 8.0
/// to 10.0 MB).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct StageSamples {
    columns: Vec<Vec<u64>>,
}

impl Default for StageSamples {
    fn default() -> Self {
        StageSamples {
            columns: vec![Vec::new(); Stage::ALL.len()],
        }
    }
}

/// p50/p99/p99.9 of one stage's latency distribution (report row).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageSummary {
    /// Stable stage name (snake_case).
    pub stage: &'static str,
    /// Median stage latency, nanoseconds.
    pub p50_ns: u64,
    /// 99th-percentile stage latency, nanoseconds.
    pub p99_ns: u64,
    /// 99.9th-percentile stage latency, nanoseconds.
    pub p999_ns: u64,
}

/// Aggregated results of one back-test run.
///
/// Every tick that produces an inference query (i.e. every tick after its
/// shard's `window`-tick warm-up) ends in exactly one of the outcome buckets;
/// `responded` is the only success. The paper's **response rate** is
/// `responded / total`; its **miss rate** is the complement.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct BacktestMetrics {
    /// Queries answered within the available time.
    pub responded: u64,
    /// Queries whose answer arrived after the deadline.
    pub late: u64,
    /// Queries dropped at admission (offload queue full).
    pub dropped_full: u64,
    /// Queries dropped while queued (deadline lapsed before issue).
    pub dropped_stale: u64,
    /// Queries deferred to the conventional pipeline by Algorithm 1.
    pub deferred: u64,
    /// Queries dropped by the deadline-tier planner (no registered tier's
    /// predicted cost fit the remaining budget). Zero for fixed policies.
    pub dropped_deadline: u64,
    /// Per-tier serving outcomes of the deadline-aware scheduler. For
    /// fixed policies every scored query lands on the configured kind.
    pub tiers: TierOutcomes,
    /// Tick-to-trade latencies of answered (in-time) queries, in nanos.
    latencies_ns: Vec<u64>,
    /// Per-stage decomposition of `latencies_ns` (one column per stage,
    /// one row per response).
    stages: StageSamples,
    /// Total energy the accelerator pool consumed, in joules.
    pub energy_j: f64,
    /// Total batches issued.
    pub batches: u64,
    /// Sum of issued batch sizes (for mean batch size).
    pub batched_queries: u64,
    /// What the fault-injected ingress did to the feed, when the run was
    /// degraded; `None` for a clean (lossless) run.
    pub ingress: Option<IngressReport>,
    /// Execution & portfolio outcomes, when the run traded
    /// ([`crate::execution::ExecutionConfig::enabled`]); `None` for the
    /// historical latency-only runs.
    pub execution: Option<ExecutionStats>,
}

impl BacktestMetrics {
    /// Creates empty metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total queries across all outcome buckets.
    pub fn total(&self) -> u64 {
        self.responded
            + self.late
            + self.dropped_full
            + self.dropped_stale
            + self.deferred
            + self.dropped_deadline
    }

    /// Fraction of queries answered in time (Fig. 11(b)/Fig. 12 metric).
    pub fn response_rate(&self) -> f64 {
        if self.total() == 0 {
            return 0.0;
        }
        self.responded as f64 / self.total() as f64
    }

    /// Fraction of queries missed (Fig. 13 metric).
    pub fn miss_rate(&self) -> f64 {
        if self.total() == 0 {
            return 0.0;
        }
        1.0 - self.response_rate()
    }

    /// Queries whose answer wired out within `budget` of the tick: the
    /// count of recorded tick-to-trade latencies at or under the budget.
    /// Late and dropped queries never hit (a budget is at most
    /// `t_avail`, and late answers already exceeded `t_avail`).
    pub fn deadline_hits(&self, budget: Duration) -> u64 {
        let budget_ns = budget.as_nanos() as u64;
        self.latencies_ns
            .iter()
            .filter(|&&ns| ns <= budget_ns)
            .count() as u64
    }

    /// Fraction of all queries answered within `budget` of their tick —
    /// the deadline-hit-rate the tiered scheduler optimizes. Computable
    /// for fixed policies too, which is what makes them comparable.
    pub fn deadline_hit_rate(&self, budget: Duration) -> f64 {
        if self.total() == 0 {
            return 0.0;
        }
        self.deadline_hits(budget) as f64 / self.total() as f64
    }

    /// Mean batch size over all issued batches.
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            return 0.0;
        }
        self.batched_queries as f64 / self.batches as f64
    }

    /// Mean tick-to-trade of in-time responses.
    pub fn mean_latency(&self) -> Duration {
        if self.latencies_ns.is_empty() {
            return Duration::ZERO;
        }
        let sum: u64 = self.latencies_ns.iter().sum();
        Duration::from_nanos(sum / self.latencies_ns.len() as u64)
    }

    /// The `q`-quantile (0.0–1.0) of in-time tick-to-trade latencies.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn latency_quantile(&self, q: f64) -> Duration {
        quantile(self.latencies_ns.clone(), q)
    }

    /// Number of recorded response latencies (equals [`Self::responded`]).
    pub fn latency_samples(&self) -> usize {
        self.latencies_ns.len()
    }

    /// The raw tick-to-trade latencies (nanoseconds) in recording order.
    pub fn latencies(&self) -> &[u64] {
        &self.latencies_ns
    }

    /// Records an in-time response with its exact per-stage split; the
    /// end-to-end latency is the breakdown's total.
    pub fn record_breakdown(&mut self, b: &StageBreakdown) {
        self.responded += 1;
        self.latencies_ns.push(b.total().as_nanos() as u64);
        for (column, stage) in self.stages.columns.iter_mut().zip(Stage::ALL) {
            column.push(b.get(stage).as_nanos() as u64);
        }
    }

    /// True once a response is recorded: each carries its per-stage
    /// decomposition.
    pub fn has_stage_samples(&self) -> bool {
        !self.latencies_ns.is_empty()
    }

    /// The `q`-quantile (0.0–1.0) of one stage's latency distribution.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn stage_quantile(&self, stage: Stage, q: f64) -> Duration {
        quantile(self.stages.columns[stage as usize].clone(), q)
    }

    /// p50/p99/p99.9 per stage, in pipeline order (the report surface;
    /// serializable per run).
    pub fn stage_summaries(&self) -> Vec<StageSummary> {
        Stage::ALL
            .iter()
            .map(|&stage| StageSummary {
                stage: stage.name(),
                p50_ns: self.stage_quantile(stage, 0.50).as_nanos() as u64,
                p99_ns: self.stage_quantile(stage, 0.99).as_nanos() as u64,
                p999_ns: self.stage_quantile(stage, 0.999).as_nanos() as u64,
            })
            .collect()
    }

    /// Verifies that every response's stage column sums to its recorded
    /// end-to-end latency within `tolerance_ns`. The engine's greedy
    /// decomposition makes this exact (tolerance 0 passes); the method
    /// exists so tests and reports can assert it.
    pub fn stage_sums_reconcile(&self, tolerance_ns: u64) -> bool {
        self.latencies_ns.iter().enumerate().all(|(i, &ns)| {
            let sum: u64 = self.stages.columns.iter().map(|column| column[i]).sum();
            sum.abs_diff(ns) <= tolerance_ns
        })
    }
}

/// The `q`-quantile (0.0–1.0) of `samples` in nanoseconds: the sample
/// at the rounded rank, zero when there is none.
///
/// # Panics
///
/// Panics if `q` is outside `[0, 1]`.
fn quantile(mut samples: Vec<u64>, q: f64) -> Duration {
    assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
    if samples.is_empty() {
        return Duration::ZERO;
    }
    samples.sort_unstable();
    let idx = ((samples.len() - 1) as f64 * q).round() as usize;
    Duration::from_nanos(samples[idx])
}

impl std::fmt::Display for BacktestMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} queries: {:.1}% responded (late {}, full {}, stale {}, deferred {}), \
             mean t2t {:?}, mean batch {:.2}",
            self.total(),
            self.response_rate() * 100.0,
            self.late,
            self.dropped_full,
            self.dropped_stale,
            self.deferred,
            self.mean_latency(),
            self.mean_batch(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn response(us: u64) -> StageBreakdown {
        StageBreakdown::inference_only(Duration::from_micros(us))
    }

    #[test]
    fn rates_sum_to_one() {
        let mut m = BacktestMetrics::new();
        m.record_breakdown(&response(100));
        m.record_breakdown(&response(200));
        m.late = 1;
        m.dropped_full = 1;
        m.dropped_stale = 1;
        m.deferred = 1;
        assert_eq!(m.total(), 6);
        assert!((m.response_rate() - 2.0 / 6.0).abs() < 1e-12);
        assert!((m.response_rate() + m.miss_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_metrics_are_safe() {
        let m = BacktestMetrics::new();
        assert_eq!(m.response_rate(), 0.0);
        assert_eq!(m.miss_rate(), 0.0);
        assert_eq!(m.mean_latency(), Duration::ZERO);
        assert_eq!(m.latency_quantile(0.99), Duration::ZERO);
        assert_eq!(m.mean_batch(), 0.0);
        assert!(!m.has_stage_samples());
        assert_eq!(m.stage_quantile(Stage::Inference, 0.5), Duration::ZERO);
        assert!(m.stage_sums_reconcile(0), "vacuously reconciled");
    }

    #[test]
    fn latency_statistics() {
        let mut m = BacktestMetrics::new();
        for us in [100u64, 200, 300, 400, 500] {
            m.record_breakdown(&response(us));
        }
        assert_eq!(m.mean_latency(), Duration::from_micros(300));
        assert_eq!(m.latency_quantile(0.0), Duration::from_micros(100));
        assert_eq!(m.latency_quantile(1.0), Duration::from_micros(500));
        assert_eq!(m.latency_quantile(0.5), Duration::from_micros(300));
        assert_eq!(m.latency_samples(), 5);
    }

    #[test]
    fn deadline_hit_rate_counts_in_budget_responses() {
        let mut m = BacktestMetrics::new();
        for us in [100u64, 200, 300, 400, 500] {
            m.record_breakdown(&response(us));
        }
        m.late = 3;
        m.dropped_deadline = 2;
        assert_eq!(m.total(), 10);
        assert_eq!(m.deadline_hits(Duration::from_micros(300)), 3);
        assert!((m.deadline_hit_rate(Duration::from_micros(300)) - 0.3).abs() < 1e-12);
        assert_eq!(m.deadline_hits(Duration::from_micros(50)), 0);
        assert_eq!(
            BacktestMetrics::new().deadline_hit_rate(Duration::from_micros(1)),
            0.0
        );
    }

    #[test]
    fn tier_outcomes_tally_and_merge() {
        let mut t = TierOutcomes::default();
        t.record(ModelKind::DeepLob, false);
        t.record(ModelKind::VanillaCnn, true);
        t.record(ModelKind::VanillaCnn, true);
        assert_eq!(t.served_at(ModelKind::VanillaCnn), 2);
        assert_eq!(t.served_at(ModelKind::DeepLob), 1);
        assert_eq!(t.served_total(), 3);
        assert_eq!(t.degraded, 2);
        let mut other = TierOutcomes::default();
        other.record(ModelKind::TransLob, true);
        t.merge(&other);
        assert_eq!(t.served_total(), 4);
        assert_eq!(t.degraded, 3);
        // dropped_deadline participates in the outcome tiling.
        let mut m = BacktestMetrics::new();
        m.responded = 2;
        m.dropped_deadline = 3;
        assert_eq!(m.total(), 5);
    }

    #[test]
    fn mean_batch_accounts_issued_sizes() {
        let mut m = BacktestMetrics::new();
        m.batches = 2;
        m.batched_queries = 6;
        assert_eq!(m.mean_batch(), 3.0);
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn bad_quantile_panics() {
        let m = BacktestMetrics::new();
        let _ = m.latency_quantile(1.5);
    }

    use crate::telemetry::QueryTimeline;
    use lt_lob::Timestamp;
    use lt_pipeline::PipelineLatencies;

    /// The stage breakdown of a well-ordered FPGA-budget timeline whose
    /// queue wait is `wait_ns`.
    fn breakdown(wait_ns: u64) -> StageBreakdown {
        let stages = PipelineLatencies::fpga();
        let tick_ts = Timestamp::from_nanos(1_000);
        let ready_at = tick_ts + stages.ingress();
        let issue = ready_at + Duration::from_nanos(wait_ns);
        QueryTimeline {
            tick_ts,
            ready_at,
            issue,
            completion: issue + Duration::from_micros(100),
            dvfs_switch: Duration::ZERO,
        }
        .breakdown(&stages)
    }

    #[test]
    fn breakdowns_feed_both_latency_and_stage_streams() {
        let mut m = BacktestMetrics::new();
        m.record_breakdown(&breakdown(500));
        m.record_breakdown(&breakdown(2_500));
        assert_eq!(m.responded, 2);
        assert_eq!(m.latency_samples(), 2);
        assert!(m.has_stage_samples());
        assert_eq!(m.stage_quantile(Stage::QueueWait, 0.0).as_nanos(), 500);
        assert_eq!(m.stage_quantile(Stage::QueueWait, 1.0).as_nanos(), 2_500);
        // Each response's stage column sums to its end-to-end latency.
        assert!(m.stage_sums_reconcile(0), "decomposition must be exact");
    }

    #[test]
    fn stage_quantiles_and_summaries() {
        let mut m = BacktestMetrics::new();
        for wait in [100u64, 200, 300, 400, 500] {
            m.record_breakdown(&breakdown(wait));
        }
        assert_eq!(
            m.stage_quantile(Stage::QueueWait, 0.5),
            Duration::from_nanos(300)
        );
        assert_eq!(
            m.stage_quantile(Stage::QueueWait, 1.0),
            Duration::from_nanos(500)
        );
        // The ingress stages are constant, so every quantile agrees.
        assert_eq!(
            m.stage_quantile(Stage::Parse, 0.99),
            PipelineLatencies::fpga().parse
        );
        let summaries = m.stage_summaries();
        assert_eq!(summaries.len(), Stage::ALL.len());
        let wait = summaries.iter().find(|s| s.stage == "queue_wait").unwrap();
        assert_eq!(wait.p50_ns, 300);
        assert_eq!(wait.p99_ns, 500);
        assert_eq!(wait.p999_ns, 500);
    }
}
