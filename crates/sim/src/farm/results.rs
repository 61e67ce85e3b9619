//! Farm results: one scalar row per cell.
//!
//! A grid must not hold one heavyweight [`BacktestMetrics`] per cell
//! (each carries every latency sample and its full per-stage
//! decomposition). [`FarmResults`] keeps one [`CellSummary`] per cell —
//! outcome counters, latency quantiles, energy, batching — and, beside
//! it, the cell's ingress accounting, both indexed in expansion order. A caller that wants one cell's full metrics runs
//! [`crate::run_lighttrader`] on the cached session.

use super::grid::FarmCell;
use crate::ingress::IngressReport;
use crate::metrics::BacktestMetrics;

/// The scalar summary of one cell — one row of [`FarmResults`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellSummary {
    /// Queries answered within the available time.
    pub responded: u64,
    /// Queries whose answer arrived after the deadline.
    pub late: u64,
    /// Queries dropped at admission (offload queue full).
    pub dropped_full: u64,
    /// Queries dropped while queued (deadline lapsed before issue).
    pub dropped_stale: u64,
    /// Queries shed by the deadline-tier planner.
    pub dropped_deadline: u64,
    /// Queries deferred to the conventional pipeline.
    pub deferred: u64,
    /// Mean in-time tick-to-trade, nanoseconds.
    pub mean_t2t_ns: u64,
    /// Median in-time tick-to-trade, nanoseconds.
    pub p50_ns: u64,
    /// 99th-percentile in-time tick-to-trade, nanoseconds.
    pub p99_ns: u64,
    /// 99.9th-percentile in-time tick-to-trade, nanoseconds.
    pub p999_ns: u64,
    /// Accelerator-pool energy, joules.
    pub energy_j: f64,
    /// Batches issued.
    pub batches: u64,
    /// Sum of issued batch sizes.
    pub batched_queries: u64,
    /// Orders wired out by the execution layer (0 for latency-only cells).
    pub orders_sent: u64,
    /// Orders fully filled at the venue.
    pub filled: u64,
    /// Orders that crossed nothing at arrival (complete miss).
    pub missed: u64,
    /// Contracts filled across all orders.
    pub contracts_filled: u64,
    /// Final mark-to-market equity, half-ticks × contracts.
    pub equity_half: i64,
    /// Total fees paid, half-ticks × contracts.
    pub fees_half: i64,
}

impl CellSummary {
    /// Extracts the scalar row from full metrics.
    pub fn from_metrics(m: &BacktestMetrics) -> Self {
        let exec = m.execution.unwrap_or_default();
        let [p50, p99, p999] = m.latency_quantiles([0.50, 0.99, 0.999]);
        CellSummary {
            responded: m.responded,
            late: m.late,
            dropped_full: m.dropped_full,
            dropped_stale: m.dropped_stale,
            dropped_deadline: m.dropped_deadline,
            deferred: m.deferred,
            mean_t2t_ns: m.mean_latency().as_nanos() as u64,
            p50_ns: p50.as_nanos() as u64,
            p99_ns: p99.as_nanos() as u64,
            p999_ns: p999.as_nanos() as u64,
            energy_j: m.energy_j,
            batches: m.batches,
            batched_queries: m.batched_queries,
            orders_sent: exec.orders_sent,
            filled: exec.filled,
            missed: exec.missed,
            contracts_filled: exec.contracts_filled,
            equity_half: exec.equity_half,
            fees_half: exec.fees_half,
        }
    }

    /// Total queries across all outcome buckets.
    pub fn total(&self) -> u64 {
        self.responded
            + self.late
            + self.dropped_full
            + self.dropped_stale
            + self.dropped_deadline
            + self.deferred
    }

    /// Fraction of queries answered in time.
    pub fn response_rate(&self) -> f64 {
        if self.total() == 0 {
            return 0.0;
        }
        self.responded as f64 / self.total() as f64
    }

    /// Fraction of queries missed.
    pub fn miss_rate(&self) -> f64 {
        if self.total() == 0 {
            return 0.0;
        }
        1.0 - self.response_rate()
    }

    /// Mean issued batch size.
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            return 0.0;
        }
        self.batched_queries as f64 / self.batches as f64
    }
}

/// Results of one farm run: cells, their scalar rows and their ingress
/// reports, all in expansion order.
#[derive(Debug, Clone, Default)]
pub struct FarmResults {
    cells: Vec<FarmCell>,
    rows: Vec<CellSummary>,
    /// Each cell's `BacktestMetrics::ingress`: a column of its own, so the
    /// rows (and the grid JSON made of them) stay as they are.
    ingress: Vec<Option<IngressReport>>,
}

impl FarmResults {
    /// An empty result set with room for `capacity` cells.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        FarmResults {
            cells: Vec::with_capacity(capacity),
            rows: Vec::with_capacity(capacity),
            ingress: Vec::with_capacity(capacity),
        }
    }

    /// Appends one cell's outcome.
    pub(crate) fn push(&mut self, cell: FarmCell, metrics: &BacktestMetrics) {
        self.cells.push(cell);
        self.rows.push(CellSummary::from_metrics(metrics));
        self.ingress.push(metrics.ingress);
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when the run produced no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The cells, in expansion order.
    pub fn cells(&self) -> &[FarmCell] {
        &self.cells
    }

    /// One cell's scalar row.
    pub fn summary(&self, i: usize) -> CellSummary {
        self.rows[i]
    }

    /// What one cell's fault-injected ingress did to its feed; `None` for
    /// a cell without ingress faults, whose back-test bypasses the stage.
    pub fn ingress(&self, i: usize) -> Option<IngressReport> {
        self.ingress[i]
    }

    /// Renders the grid as deterministic JSON: one row per cell with its
    /// ID, axis values, and scalar row. Formatting is fixed-notation
    /// (no float shortest-round-trip), so equal results are equal bytes.
    pub fn to_grid_json(&self) -> String {
        let rows: Vec<String> = self
            .cells
            .iter()
            .zip(&self.rows)
            .map(|(cell, s)| {
                format!(
                    "    {{\"id\": \"{}\", \"model\": \"{:?}\", \"n_accels\": {}, \
                     \"condition\": \"{:?}\", \"policy\": \"{}\", \"symbols\": {}, \
                     \"seed\": {}, \"responded\": {}, \"late\": {}, \"dropped_full\": {}, \
                     \"dropped_stale\": {}, \"dropped_deadline\": {}, \"deferred\": {}, \
                     \"response_rate\": {:.6}, \
                     \"mean_t2t_ns\": {}, \"p50_ns\": {}, \"p99_ns\": {}, \"p999_ns\": {}, \
                     \"energy_j\": {:.6}, \"batches\": {}, \"mean_batch\": {:.4}, \
                     \"orders_sent\": {}, \"filled\": {}, \"missed\": {}, \
                     \"contracts_filled\": {}, \"equity_half\": {}, \"fees_half\": {}}}",
                    cell.id,
                    cell.config.kind,
                    cell.config.n_accels,
                    cell.config.condition,
                    cell.config.policy.label(),
                    cell.spec.symbols,
                    cell.spec.seed,
                    s.responded,
                    s.late,
                    s.dropped_full,
                    s.dropped_stale,
                    s.dropped_deadline,
                    s.deferred,
                    s.response_rate(),
                    s.mean_t2t_ns,
                    s.p50_ns,
                    s.p99_ns,
                    s.p999_ns,
                    s.energy_j,
                    s.batches,
                    s.mean_batch(),
                    s.orders_sent,
                    s.filled,
                    s.missed,
                    s.contracts_filled,
                    s.equity_half,
                    s.fees_half,
                )
            })
            .collect();
        format!(
            "{{\n  \"n_cells\": {},\n  \"cells\": [\n{}\n  ]\n}}\n",
            self.len(),
            rows.join(",\n")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::farm::SweepGrid;
    use crate::metrics::tests::responses;
    use crate::telemetry::StageBreakdown;
    use std::time::Duration;

    fn metrics(responded: u64) -> BacktestMetrics {
        let mut m = responses(
            (0..responded).map(|i| StageBreakdown::inference_only(Duration::from_micros(100 + i))),
        );
        m.late = 2;
        m.deferred = 1;
        m.energy_j = 1.25 * responded as f64;
        m.batches = responded;
        m.batched_queries = responded * 2;
        m
    }

    fn cell(index: usize) -> FarmCell {
        let mut c = SweepGrid::evaluation(1.0).expand().remove(0);
        c.index = index;
        c.id = format!("cell-{index}");
        c
    }

    #[test]
    fn summary_rates_match_metrics() {
        let m = metrics(7);
        let s = CellSummary::from_metrics(&m);
        assert_eq!(s.total(), m.total());
        assert!((s.response_rate() - m.response_rate()).abs() < 1e-12);
        assert!((s.miss_rate() - m.miss_rate()).abs() < 1e-12);
        assert!((s.mean_batch() - m.mean_batch()).abs() < 1e-12);
        assert_eq!(s.p99_ns, m.latency_quantile(0.99).as_nanos() as u64);
    }

    #[test]
    fn grid_json_is_deterministic() {
        let mut a = FarmResults::with_capacity(1);
        a.push(cell(0), &metrics(4));
        let mut b = FarmResults::with_capacity(1);
        b.push(cell(0), &metrics(4));
        assert_eq!(a.to_grid_json(), b.to_grid_json());
        assert!(a.to_grid_json().contains("\"n_cells\": 1"));
        assert!(a.to_grid_json().contains("\"id\": \"cell-0\""));
    }
}
