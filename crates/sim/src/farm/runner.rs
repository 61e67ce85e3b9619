//! The farm runner: cached session builds + work-stealing cell scatter.
//!
//! A run has two phases. Phase one resolves the grid's *distinct*
//! session specs and builds each exactly once through the shared
//! [`TraceCache`] (itself in parallel — session generation is the
//! expensive part a naive sweep repeats per cell). Phase two scatters
//! the cells over the worker pool; every cell replays its session's
//! immutable `Arc`'d artifact through the serial engine, so results are
//! bit-identical to [`run_lighttrader`] / [`run_multi_merged`] on the
//! same inputs, at any worker count, merged back in expansion order.

use super::grid::{FarmCell, SweepGrid};
use super::pool::scatter;
use super::results::FarmResults;
use crate::config::BacktestConfig;
use crate::lighttrader::run_lighttrader;
use crate::metrics::BacktestMetrics;
use crate::multi::run_multi_merged;
use lt_feed::{SessionArtifact, SessionSpec, TraceCache};
use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

/// One failed cell of a farm run.
#[derive(Debug, Clone)]
pub struct CellFailure {
    /// Position in expansion order.
    pub index: usize,
    /// The cell's stable ID.
    pub id: String,
    /// The configuration that failed.
    pub config: BacktestConfig,
    /// The original panic message.
    pub message: String,
}

/// Every failure of a farm run — not just the first. With hundreds of
/// cells per grid a lone first failure hiding nine more is undebuggable.
#[derive(Debug, Clone)]
pub struct FarmFailures {
    /// Total cells attempted.
    pub total: usize,
    /// The failures, in expansion order.
    pub failures: Vec<CellFailure>,
}

impl fmt::Display for FarmFailures {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} of {} farm cells failed:",
            self.failures.len(),
            self.total
        )?;
        for c in &self.failures {
            writeln!(
                f,
                "farm cell #{} [{}] panicked: {}\n  config: {:?}",
                c.index, c.id, c.message, c.config
            )?;
        }
        Ok(())
    }
}

impl std::error::Error for FarmFailures {}

/// Runs a [`SweepGrid`] over the worker pool with shared-trace caching.
///
/// ```no_run
/// use lt_sim::farm::{FarmRunner, SweepGrid};
/// let grid = SweepGrid::evaluation(10.0).seeds([1, 2, 3]);
/// let results = FarmRunner::new().run(&grid);
/// assert_eq!(results.len(), 3);
/// ```
#[derive(Debug, Default)]
pub struct FarmRunner {
    workers: usize,
    cache: Option<Arc<TraceCache>>,
}

impl FarmRunner {
    /// A runner with auto worker count and a private trace cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Caps the worker count (0 = one per available CPU).
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Shares an external [`TraceCache`] (e.g. the process-wide
    /// [`crate::traffic::shared_trace_cache`]) so multiple grids reuse
    /// each other's session builds.
    #[must_use]
    pub fn cache(mut self, cache: Arc<TraceCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Expands the grid and runs every cell.
    ///
    /// # Errors
    ///
    /// Returns [`FarmFailures`] naming every failed cell when any cell
    /// panics; the remaining cells still ran.
    pub fn try_run(&self, grid: &SweepGrid) -> Result<FarmResults, FarmFailures> {
        self.try_run_cells(grid.expand())
    }

    /// [`Self::try_run`] on pre-expanded cells.
    pub fn try_run_cells(&self, cells: Vec<FarmCell>) -> Result<FarmResults, FarmFailures> {
        if cells.is_empty() {
            return Ok(FarmResults::default());
        }
        let cache = self
            .cache
            .clone()
            .unwrap_or_else(|| Arc::new(TraceCache::new()));

        // Phase 1: build each distinct session exactly once, in
        // parallel. Build panics are swallowed here — the failing
        // cell's own run re-triggers the build and reports it with
        // the cell's identity attached.
        let specs: Vec<SessionSpec> = {
            let mut seen = HashSet::new();
            cells
                .iter()
                .map(|c| c.spec)
                .filter(|s| seen.insert(*s))
                .collect()
        };
        let _ = scatter(specs.len(), self.workers, |i| cache.get_or_build(&specs[i]));

        // Phase 2: scatter the cells; each replays an immutable artifact.
        let outcomes = scatter(cells.len(), self.workers, |i| {
            run_cell(&cells[i].config, &cache.get_or_build(&cells[i].spec))
        });

        let total = cells.len();
        let mut results = FarmResults::with_capacity(total);
        let mut failures = Vec::new();
        for (cell, outcome) in cells.into_iter().zip(outcomes) {
            match outcome {
                Ok(metrics) => results.push(cell, &metrics),
                Err(message) => failures.push(CellFailure {
                    index: cell.index,
                    id: cell.id,
                    config: cell.config,
                    message,
                }),
            }
        }
        if failures.is_empty() {
            Ok(results)
        } else {
            Err(FarmFailures { total, failures })
        }
    }

    /// [`Self::try_run`], panicking with the full failure report.
    ///
    /// # Panics
    ///
    /// Panics when any cell fails, naming every failed cell.
    pub fn run(&self, grid: &SweepGrid) -> FarmResults {
        self.try_run(grid).unwrap_or_else(|f| panic!("{f}"))
    }
}

/// Replays one cell: single-symbol artifacts through the historical
/// [`run_lighttrader`] path (bit-parity with every existing experiment),
/// multi-symbol ones through the sharded engine on the precomputed
/// merge.
fn run_cell(config: &BacktestConfig, artifact: &SessionArtifact) -> BacktestMetrics {
    match artifact {
        SessionArtifact::Single(session) => run_lighttrader(&session.trace, config),
        SessionArtifact::Multi {
            session,
            merged,
            shards,
        } => run_multi_merged(session, merged, shards, config),
    }
}
