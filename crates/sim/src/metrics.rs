//! Back-test outcome accounting: the ledger.
//!
//! [`BacktestMetrics`] is the one place a back-test counts outcomes. It
//! holds one [`ShardOutcomes`] row per symbol shard, and every count
//! lands in a row through the ledger's own methods: the engine scores each
//! wired-out order ([`BacktestMetrics::score`]), the system models record
//! the tier that served it, the ticket queue's per-shard counters (ticks,
//! drops, defers) are read into the rows once at run end, and so are the
//! shards' execution stats. The fleet-wide totals are then written once,
//! as the rows' sum ([`BacktestMetrics::close`]), so every number the
//! paper's figures report has one writer.
//!
//! A response's tick-to-trade is stored once, as its row of the eight
//! stage columns: the end-to-end latency is that row's sum.

use crate::engine::PendingOrder;
use crate::execution::ExecutionStats;
use crate::ingress::IngressReport;
use crate::telemetry::Stage;
use lt_dnn::ModelKind;
use lt_pipeline::TicketQueue;
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

    /// Merges another tally into this one.
    pub fn merge(&mut self, other: &TierOutcomes) {
        for (a, b) in self.served.iter_mut().zip(other.served) {
            *a += b;
        }
        self.degraded += other.degraded;
    }
}

/// Per-stage latency samples of every in-time response.
///
/// `columns[stage as usize][i]` is the time response `i` spent in
/// `stage`, and response `i`'s tick-to-trade is the sum of its row (the
/// decomposition is exact by construction, see
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

impl StageSamples {
    /// Responses recorded: the length every column shares.
    fn len(&self) -> usize {
        self.columns[0].len()
    }

    /// Every response's tick-to-trade in nanoseconds, in recording order:
    /// the sums of the stage rows.
    fn tick_to_trade(&self) -> Vec<u64> {
        let mut sums = self.columns[0].clone();
        for column in &self.columns[1..] {
            for (sum, ns) in sums.iter_mut().zip(column) {
                *sum += ns;
            }
        }
        sums
    }
}

/// One symbol shard's outcome row. Every tick after the shard's
/// `window`-tick warm-up is one query, and every query ends in exactly
/// one of the six buckets from `responded` to `deferred`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardOutcomes {
    /// Trace ticks the shard took, warm-up included.
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
    /// Per-tier serving outcomes of the shard's scored queries.
    pub tiers: TierOutcomes,
    /// The shard's execution & portfolio outcomes, when the run traded;
    /// `None` for latency-only runs.
    pub execution: Option<ExecutionStats>,
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

/// Results of one back-test run: the per-shard outcome rows, their
/// fleet-wide totals, and the responses' stage latencies.
///
/// Every tick that produces an inference query (i.e. every tick after its
/// shard's `window`-tick warm-up) ends in exactly one of the outcome buckets;
/// `responded` is the only success. The paper's **response rate** is
/// `responded / total`; its **miss rate** is the complement. The totals,
/// from `responded` to `tiers` and `execution`, are the sums of the
/// shard rows, written once when the run closes.
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
    /// One outcome row per symbol shard, in shard order.
    shards: Vec<ShardOutcomes>,
    /// Every in-time response's stage latencies (one column per stage,
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
    /// Execution & portfolio outcomes summed over the shards, when the
    /// run traded ([`crate::execution::ExecutionConfig::enabled`]);
    /// `None` for the historical latency-only runs.
    pub execution: Option<ExecutionStats>,
}

impl BacktestMetrics {
    /// An empty ledger of `shards` rows.
    pub(crate) fn with_shards(shards: usize) -> Self {
        BacktestMetrics {
            shards: vec![ShardOutcomes::default(); shards],
            ..Self::default()
        }
    }

    /// Scores one wired-out order in its shard's row: in time, it is a
    /// response and its stage split is recorded; otherwise it is late.
    pub(crate) fn score(&mut self, order: &PendingOrder, in_time: bool) {
        let row = &mut self.shards[order.shard as usize];
        if !in_time {
            row.late += 1;
            return;
        }
        row.responded += 1;
        for (column, stage) in self.stages.columns.iter_mut().zip(Stage::ALL) {
            column.push(order.breakdown.get(stage).as_nanos() as u64);
        }
    }

    /// Records the tier that served one scored query of `shard`;
    /// `degraded` marks a below-preferred tier.
    pub(crate) fn record_tier(&mut self, shard: u16, kind: ModelKind, degraded: bool) {
        self.shards[shard as usize].tiers.record(kind, degraded);
    }

    /// Reads the ticket queue's per-shard counters into the rows: ticks
    /// taken, and every query the queue dropped or deferred. Called once,
    /// when the run's events have drained.
    pub(crate) fn read_queue(&mut self, queue: &TicketQueue) {
        for (row, c) in self.shards.iter_mut().zip(queue.shard_counters()) {
            row.ticks = c.ticks;
            row.dropped_full = c.dropped_full;
            row.dropped_stale = c.dropped_stale;
            row.dropped_deadline = c.dropped_deadline;
            row.deferred = c.deferred;
        }
    }

    /// Records every shard's finalized execution stats, in shard order.
    pub(crate) fn read_execution(&mut self, stats: impl IntoIterator<Item = ExecutionStats>) {
        for (row, s) in self.shards.iter_mut().zip(stats) {
            row.execution = Some(s);
        }
    }

    /// Writes the totals as the rows' sum. The engine calls it once, after
    /// the model has accounted for whatever never ran.
    pub(crate) fn close(&mut self) {
        let sum = |f: fn(&ShardOutcomes) -> u64| self.shards.iter().map(f).sum::<u64>();
        self.responded = sum(|r| r.responded);
        self.late = sum(|r| r.late);
        self.dropped_full = sum(|r| r.dropped_full);
        self.dropped_stale = sum(|r| r.dropped_stale);
        self.dropped_deadline = sum(|r| r.dropped_deadline);
        self.deferred = sum(|r| r.deferred);
        let mut tiers = TierOutcomes::default();
        let mut execution = None;
        for row in &self.shards {
            tiers.merge(&row.tiers);
            if let Some(stats) = &row.execution {
                execution
                    .get_or_insert_with(ExecutionStats::default)
                    .merge(stats);
            }
        }
        self.tiers = tiers;
        self.execution = execution;
    }

    /// The outcome rows, one per symbol shard in shard order (one row
    /// for a single-instrument run).
    pub fn shards(&self) -> &[ShardOutcomes] {
        &self.shards
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

    /// Mean batch size over all issued batches.
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            return 0.0;
        }
        self.batched_queries as f64 / self.batches as f64
    }

    /// Mean tick-to-trade of in-time responses.
    pub fn mean_latency(&self) -> Duration {
        let n = self.stages.len() as u64;
        if n == 0 {
            return Duration::ZERO;
        }
        let sum: u64 = self.stages.columns.iter().flatten().sum();
        Duration::from_nanos(sum / n)
    }

    /// The `q`-quantile (0.0–1.0) of in-time tick-to-trade latencies.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn latency_quantile(&self, q: f64) -> Duration {
        self.latency_quantiles([q])[0]
    }

    /// Several quantiles of in-time tick-to-trade latencies, off one
    /// sort.
    ///
    /// # Panics
    ///
    /// Panics if a `q` is outside `[0, 1]`.
    pub(crate) fn latency_quantiles<const N: usize>(&self, qs: [f64; N]) -> [Duration; N] {
        let sorted = sorted(self.latencies());
        qs.map(|q| quantile(&sorted, q))
    }

    /// Every in-time response's tick-to-trade (nanoseconds) in recording
    /// order, summed from its stage row.
    pub fn latencies(&self) -> Vec<u64> {
        self.stages.tick_to_trade()
    }

    /// The `q`-quantile (0.0–1.0) of one stage's latency distribution.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn stage_quantile(&self, stage: Stage, q: f64) -> Duration {
        quantile(&sorted(self.stages.columns[stage as usize].clone()), q)
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

    /// True when every stage column holds exactly one sample per counted
    /// response, so each response's tick-to-trade is the sum of a whole
    /// stage row. A response's latency *is* its row's sum, so no drift
    /// can exceed a tolerance; what can fail is a response counted
    /// without its stages, or stages pushed for an uncounted one.
    pub fn stage_sums_reconcile(&self, _tolerance_ns: u64) -> bool {
        self.stages
            .columns
            .iter()
            .all(|column| column.len() as u64 == self.responded)
    }
}

/// `samples` in ascending order.
fn sorted(mut samples: Vec<u64>) -> Vec<u64> {
    samples.sort_unstable();
    samples
}

/// The `q`-quantile (0.0–1.0) of ascending `sorted` nanoseconds: the
/// sample at the rounded rank, zero when there is none.
///
/// # Panics
///
/// Panics if `q` is outside `[0, 1]`.
fn quantile(sorted: &[u64], q: f64) -> Duration {
    assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    Duration::from_nanos(sorted[idx])
}

impl std::fmt::Display for BacktestMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} queries: {} responded ({:.1}%), late {}, full {}, stale {}, deadline {}, \
             deferred {}; mean t2t {:?}, mean batch {:.2}",
            self.total(),
            self.responded,
            self.response_rate() * 100.0,
            self.late,
            self.dropped_full,
            self.dropped_stale,
            self.dropped_deadline,
            self.deferred,
            self.mean_latency(),
            self.mean_batch(),
        )?;
        let shards = self.shards();
        if shards.len() > 1 {
            write!(f, "; responded per shard")?;
            for (i, row) in shards.iter().enumerate() {
                write!(f, "{} {}", if i == 0 { "" } else { "," }, row.responded)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
impl BacktestMetrics {
    /// Queries whose answer wired out within `budget` of the tick: the
    /// count of recorded tick-to-trade latencies at or under the budget.
    /// Late and dropped queries never hit (a budget is at most
    /// `t_avail`, and late answers already exceeded `t_avail`).
    pub(crate) fn deadline_hits(&self, budget: Duration) -> u64 {
        let budget_ns = budget.as_nanos() as u64;
        self.latencies()
            .into_iter()
            .filter(|&ns| ns <= budget_ns)
            .count() as u64
    }

    /// Fraction of all queries answered within `budget` of their tick —
    /// the deadline-hit-rate the tiered scheduler optimizes. Computable
    /// for fixed policies too, which is what makes them comparable.
    pub(crate) fn deadline_hit_rate(&self, budget: Duration) -> f64 {
        if self.total() == 0 {
            return 0.0;
        }
        self.deadline_hits(budget) as f64 / self.total() as f64
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::telemetry::{QueryTimeline, StageBreakdown};
    use lt_lob::Timestamp;
    use lt_pipeline::PipelineLatencies;

    fn response(us: u64) -> StageBreakdown {
        StageBreakdown::inference_only(Duration::from_micros(us))
    }

    /// An order of `shard` carrying `breakdown`.
    fn order(shard: u16, breakdown: StageBreakdown) -> PendingOrder {
        PendingOrder {
            tick_ts: Timestamp::ZERO,
            deadline: Timestamp::ZERO,
            breakdown,
            shard,
            tier: ModelKind::DeepLob,
            tick_id: 0,
        }
    }

    /// A closed one-shard ledger of in-time responses.
    pub(crate) fn responses(
        breakdowns: impl IntoIterator<Item = StageBreakdown>,
    ) -> BacktestMetrics {
        let mut m = BacktestMetrics::with_shards(1);
        for b in breakdowns {
            m.score(&order(0, b), true);
        }
        m.close();
        m
    }

    #[test]
    fn rates_sum_to_one() {
        let mut m = responses([response(100), response(200)]);
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
        let m = BacktestMetrics::default();
        assert_eq!(m.response_rate(), 0.0);
        assert_eq!(m.miss_rate(), 0.0);
        assert_eq!(m.mean_latency(), Duration::ZERO);
        assert_eq!(m.latency_quantile(0.99), Duration::ZERO);
        assert_eq!(m.mean_batch(), 0.0);
        assert!(m.latencies().is_empty());
        assert_eq!(m.stage_quantile(Stage::Inference, 0.5), Duration::ZERO);
        assert!(m.stage_sums_reconcile(0), "vacuously reconciled");
    }

    #[test]
    fn latency_statistics() {
        let m = responses([100u64, 200, 300, 400, 500].map(response));
        assert_eq!(m.mean_latency(), Duration::from_micros(300));
        assert_eq!(m.latency_quantile(0.0), Duration::from_micros(100));
        assert_eq!(m.latency_quantile(1.0), Duration::from_micros(500));
        assert_eq!(m.latency_quantile(0.5), Duration::from_micros(300));
        assert_eq!(
            m.latency_quantiles([0.0, 0.5, 1.0]),
            [100, 300, 500].map(Duration::from_micros)
        );
        assert_eq!(m.latencies().len(), 5);
    }

    #[test]
    fn deadline_hit_rate_counts_in_budget_responses() {
        let mut m = responses([100u64, 200, 300, 400, 500].map(response));
        m.late = 3;
        m.dropped_deadline = 2;
        assert_eq!(m.total(), 10);
        assert_eq!(m.deadline_hits(Duration::from_micros(300)), 3);
        assert!((m.deadline_hit_rate(Duration::from_micros(300)) - 0.3).abs() < 1e-12);
        assert_eq!(m.deadline_hits(Duration::from_micros(50)), 0);
        assert_eq!(
            BacktestMetrics::default().deadline_hit_rate(Duration::from_micros(1)),
            0.0
        );
    }

    #[test]
    fn tier_outcomes_tally_and_merge() {
        let mut t = TierOutcomes::default();
        t.record(ModelKind::DeepLob, false);
        t.record(ModelKind::VanillaCnn, true);
        t.record(ModelKind::VanillaCnn, true);
        assert_eq!(t.served, [2, 0, 1]);
        assert_eq!(t.degraded, 2);
        let mut other = TierOutcomes::default();
        other.record(ModelKind::TransLob, true);
        t.merge(&other);
        assert_eq!(t.served, [2, 1, 1]);
        assert_eq!(t.degraded, 3);
        // dropped_deadline participates in the outcome tiling.
        let m = BacktestMetrics {
            responded: 2,
            dropped_deadline: 3,
            ..BacktestMetrics::default()
        };
        assert_eq!(m.total(), 5);
    }

    /// Every count lands in its shard's row, and closing writes the
    /// totals as the rows' sum.
    #[test]
    fn totals_are_the_rows_sum() {
        let mut m = BacktestMetrics::with_shards(2);
        m.score(&order(1, response(100)), true);
        m.score(&order(1, response(300)), false);
        m.score(&order(0, response(200)), true);
        m.record_tier(1, ModelKind::VanillaCnn, true);
        m.record_tier(1, ModelKind::DeepLob, false);
        m.record_tier(0, ModelKind::DeepLob, false);
        let mut queue = TicketQueue::new(2, 1, 1);
        let at = Timestamp::from_micros(1);
        queue.on_tick(0, at, at);
        queue.on_tick(1, at, at);
        queue.defer_oldest();
        queue.on_tick(1, at, at);
        queue.drain_leftover();
        m.read_queue(&queue);
        let stats = |orders_sent| ExecutionStats {
            orders_sent,
            filled: orders_sent,
            ..ExecutionStats::default()
        };
        m.read_execution([stats(2), stats(3)]);
        m.close();
        let rows = m.shards();
        assert_eq!((rows[0].ticks, rows[1].ticks), (1, 2));
        assert_eq!((rows[0].responded, rows[1].responded), (1, 1));
        assert_eq!((rows[0].late, rows[1].late), (0, 1));
        assert_eq!((rows[0].deferred, rows[1].dropped_stale), (1, 2));
        assert_eq!(rows[1].tiers.degraded, 1);
        assert_eq!(
            (m.responded, m.late, m.deferred, m.dropped_stale),
            (2, 1, 1, 2)
        );
        assert_eq!(m.tiers.served.iter().sum::<u64>(), 3);
        assert_eq!(m.tiers.degraded, 1);
        assert_eq!(m.execution, Some(stats(5)));
        assert_eq!(m.latencies(), [100_000, 200_000]);
        assert!(m.stage_sums_reconcile(0));
    }

    /// A response counted without its stage row breaks the one-row-per-
    /// response invariant that `stage_sums_reconcile` checks.
    #[test]
    fn a_response_without_its_stages_does_not_reconcile() {
        let mut m = responses([response(100)]);
        assert!(m.stage_sums_reconcile(0));
        m.responded += 1;
        assert!(!m.stage_sums_reconcile(0));
    }

    /// Every bucket of the total is printed, so the printed counts add up.
    #[test]
    fn display_prints_every_bucket() {
        let mut m = responses([response(100)]);
        (m.late, m.dropped_full, m.dropped_stale) = (2, 3, 4);
        (m.dropped_deadline, m.deferred) = (5, 6);
        let shown = m.to_string();
        assert!(
            shown.starts_with(
                "21 queries: 1 responded (4.8%), late 2, full 3, stale 4, deadline 5, deferred 6;"
            ),
            "{shown}"
        );
    }

    #[test]
    fn mean_batch_accounts_issued_sizes() {
        let m = BacktestMetrics {
            batches: 2,
            batched_queries: 6,
            ..BacktestMetrics::default()
        };
        assert_eq!(m.mean_batch(), 3.0);
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn bad_quantile_panics() {
        let m = BacktestMetrics::default();
        let _ = m.latency_quantile(1.5);
    }

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
        let (a, b) = (breakdown(500), breakdown(2_500));
        let m = responses([a, b]);
        assert_eq!(m.responded, 2);
        assert_eq!(m.latencies().len(), 2);
        assert_eq!(m.stage_quantile(Stage::QueueWait, 0.0).as_nanos(), 500);
        assert_eq!(m.stage_quantile(Stage::QueueWait, 1.0).as_nanos(), 2_500);
        // Each response's tick-to-trade is its stage row's sum.
        let totals = [a, b].map(|b| b.total().as_nanos() as u64);
        assert_eq!(m.latencies(), totals);
        assert!(m.stage_sums_reconcile(0), "decomposition must be exact");
    }

    #[test]
    fn stage_quantiles_and_summaries() {
        let m = responses([100u64, 200, 300, 400, 500].map(breakdown));
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
