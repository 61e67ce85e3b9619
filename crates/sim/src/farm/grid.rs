//! Declarative sweep grids.
//!
//! A [`SweepGrid`] is the cross product of the evaluation's axes —
//! model × accelerators × power × policy × faults × symbols × seed —
//! plus the traffic that backs it. [`SweepGrid::expand`] turns it into a
//! flat, deterministically ordered list of [`FarmCell`]s, each pairing a
//! ready-to-run [`BacktestConfig`] with the [`SessionSpec`] of the trace
//! it replays; cells sharing a spec share one cached session build.

use crate::config::BacktestConfig;
use crate::ingress::IngressFaults;
use crate::traffic;
use lt_accel::PowerCondition;
use lt_dnn::ModelKind;
use lt_feed::{FlashParams, HawkesParams, SessionSpec};
use lt_sched::Policy;
use std::time::Duration;

/// How each cell's available time (`t_avail`) is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GridDeadline {
    /// The 5 ms response window of the Fig. 11 comparisons.
    Evaluation,
    /// The per-model scheduling horizon of the Fig. 13 study
    /// ([`traffic::scheduling_deadline_for`]).
    Scheduling,
}

impl GridDeadline {
    fn resolve(self, kind: ModelKind) -> Duration {
        match self {
            GridDeadline::Evaluation => traffic::evaluation_deadline(),
            GridDeadline::Scheduling => traffic::scheduling_deadline_for(kind),
        }
    }
}

/// One expanded grid cell: a stable ID, the back-test configuration, and
/// the spec of the session it replays.
#[derive(Debug, Clone)]
pub struct FarmCell {
    /// Position in expansion order (the merge order of results).
    pub index: usize,
    /// Stable human-readable ID, unique within the grid.
    pub id: String,
    /// The ready-to-run configuration.
    pub config: BacktestConfig,
    /// The session this cell replays; equal specs share one build.
    pub spec: SessionSpec,
}

/// A declarative back-test grid over the evaluation's axes.
///
/// Construct with [`SweepGrid::evaluation`], override the axes you
/// sweep, then [`expand`](SweepGrid::expand) (or hand the grid straight
/// to a [`crate::farm::FarmRunner`]). Every axis setter replaces the
/// whole axis; an axis left alone stays a single point, so the cell
/// count is always the product of exactly what you asked for.
///
/// Invalid combinations are pruned rather than expanded: ingress fault
/// injection is defined per A/B feed pair, not for merged multi-symbol
/// streams (see [`crate::run_multi_merged`]), so a fault-enabled profile
/// crossed with a `symbols > 1` axis point produces no cell.
#[derive(Debug, Clone)]
pub struct SweepGrid {
    /// DNN benchmarks served.
    pub models: Vec<ModelKind>,
    /// Accelerator fleet sizes.
    pub accel_counts: Vec<usize>,
    /// Co-location power conditions.
    pub conditions: Vec<PowerCondition>,
    /// Scheduling policies.
    pub policies: Vec<Policy>,
    /// Ingress fault profiles (lossless = clean run).
    pub faults: Vec<IngressFaults>,
    /// `(symbol count, Zipf skew)` axis points.
    pub symbols: Vec<(usize, f64)>,
    /// Session seeds.
    pub seeds: Vec<u64>,
    /// Session length in simulated seconds.
    pub secs: f64,
    /// Deadline scheme applied per cell.
    pub deadline: GridDeadline,
    /// Hawkes background behind every session.
    pub hawkes: HawkesParams,
    /// Optional flash-burst overlay behind every session.
    pub flash: Option<FlashParams>,
    /// Per-tick deadline budget applied to [`Policy::DeadlineTiered`]
    /// cells (`None` = unbounded); ignored by fixed-policy cells.
    pub tier_budget: Option<Duration>,
}

impl SweepGrid {
    /// A single-cell grid at the calibrated evaluation point: DeepLOB,
    /// one accelerator, sufficient power, WS+DS, lossless, one symbol,
    /// [`traffic::EVALUATION_SEED`], the 5 ms evaluation deadline, and
    /// the calibrated Hawkes + flash-burst traffic.
    pub fn evaluation(secs: f64) -> Self {
        SweepGrid {
            models: vec![ModelKind::DeepLob],
            accel_counts: vec![1],
            conditions: vec![PowerCondition::Sufficient],
            policies: vec![Policy::Both],
            faults: vec![IngressFaults::lossless()],
            symbols: vec![(1, 0.0)],
            seeds: vec![traffic::EVALUATION_SEED],
            secs,
            deadline: GridDeadline::Evaluation,
            hawkes: traffic::evaluation_hawkes(),
            flash: Some(traffic::evaluation_flash()),
            tier_budget: None,
        }
    }

    /// Sets the deadline budget for [`Policy::DeadlineTiered`] cells.
    #[must_use]
    pub fn tier_budget(mut self, budget: Option<Duration>) -> Self {
        self.tier_budget = budget;
        self
    }

    /// Replaces the model axis.
    #[must_use]
    pub fn models(mut self, models: impl IntoIterator<Item = ModelKind>) -> Self {
        self.models = models.into_iter().collect();
        self
    }

    /// Replaces the accelerator-count axis.
    #[must_use]
    pub fn accel_counts(mut self, counts: impl IntoIterator<Item = usize>) -> Self {
        self.accel_counts = counts.into_iter().collect();
        self
    }

    /// Replaces the power-condition axis.
    #[must_use]
    pub fn conditions(mut self, conditions: impl IntoIterator<Item = PowerCondition>) -> Self {
        self.conditions = conditions.into_iter().collect();
        self
    }

    /// Replaces the policy axis.
    #[must_use]
    pub fn policies(mut self, policies: impl IntoIterator<Item = Policy>) -> Self {
        self.policies = policies.into_iter().collect();
        self
    }

    /// Replaces the ingress-fault axis.
    #[must_use]
    pub fn faults(mut self, faults: impl IntoIterator<Item = IngressFaults>) -> Self {
        self.faults = faults.into_iter().collect();
        self
    }

    /// Replaces the `(symbols, skew)` axis.
    #[must_use]
    pub fn symbols(mut self, symbols: impl IntoIterator<Item = (usize, f64)>) -> Self {
        self.symbols = symbols.into_iter().collect();
        self
    }

    /// Replaces the seed axis.
    #[must_use]
    pub fn seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> Self {
        self.seeds = seeds.into_iter().collect();
        self
    }

    /// Sets the deadline scheme.
    #[must_use]
    pub fn deadline(mut self, deadline: GridDeadline) -> Self {
        self.deadline = deadline;
        self
    }

    /// Overrides the session traffic (Hawkes background + optional
    /// flash bursts).
    #[must_use]
    pub fn traffic(mut self, hawkes: HawkesParams, flash: Option<FlashParams>) -> Self {
        self.hawkes = hawkes;
        self.flash = flash;
        self
    }

    /// Number of cells [`expand`](Self::expand) will produce (invalid
    /// fault × multi-symbol combinations excluded).
    pub fn n_cells(&self) -> usize {
        let per_session = self.models.len()
            * self.accel_counts.len()
            * self.conditions.len()
            * self.policies.len();
        let faulted = self.faults.iter().filter(|f| f.enabled()).count();
        let clean = self.faults.len() - faulted;
        let multi = self.symbols.iter().filter(|(n, _)| *n > 1).count();
        let single = self.symbols.len() - multi;
        per_session * self.seeds.len() * (self.faults.len() * single + clean * multi)
    }

    /// Number of distinct sessions backing the grid — the build count a
    /// shared [`lt_feed::TraceCache`] pays.
    pub fn n_sessions(&self) -> usize {
        let specs: std::collections::HashSet<SessionSpec> =
            self.expand().into_iter().map(|c| c.spec).collect();
        specs.len()
    }

    /// Expands the grid into cells, in a deterministic nested-axis
    /// order (seed ▸ symbols ▸ faults ▸ model ▸ accelerators ▸ power ▸
    /// policy, innermost last). Cell IDs are stable across runs and
    /// worker counts: they encode only axis values, never timing.
    ///
    /// # Panics
    ///
    /// Panics on an empty axis or a non-positive duration.
    pub fn expand(&self) -> Vec<FarmCell> {
        assert!(self.secs > 0.0, "grid duration must be positive");
        for (axis, len) in [
            ("models", self.models.len()),
            ("accel_counts", self.accel_counts.len()),
            ("conditions", self.conditions.len()),
            ("policies", self.policies.len()),
            ("faults", self.faults.len()),
            ("symbols", self.symbols.len()),
            ("seeds", self.seeds.len()),
        ] {
            assert!(len > 0, "grid axis '{axis}' is empty");
        }
        let mut cells = Vec::with_capacity(self.n_cells());
        for &seed in &self.seeds {
            for &(symbols, skew) in &self.symbols {
                let mut spec = SessionSpec::single(self.hawkes, self.secs, seed);
                if let Some(flash) = self.flash {
                    spec = spec.with_flash(flash);
                }
                let spec = spec.with_symbols(symbols, skew);
                for (fault_idx, &faults) in self.faults.iter().enumerate() {
                    if faults.enabled() && symbols > 1 {
                        // Ingress faults model one A/B feed pair; a merged
                        // multi-symbol stream has no such pair to degrade.
                        continue;
                    }
                    for &kind in &self.models {
                        for &n_accels in &self.accel_counts {
                            for &condition in &self.conditions {
                                for &policy in &self.policies {
                                    let mut config = BacktestConfig::new(kind, n_accels, condition)
                                        .with_policy(policy)
                                        .with_t_avail(self.deadline.resolve(kind))
                                        .with_faults(faults);
                                    if policy == Policy::DeadlineTiered {
                                        config = config.with_deadline_tiered(self.tier_budget);
                                    }
                                    let id = cell_id(
                                        kind, n_accels, condition, policy, fault_idx, symbols,
                                        skew, seed,
                                    );
                                    cells.push(FarmCell {
                                        index: cells.len(),
                                        id,
                                        config,
                                        spec,
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
        cells
    }
}

/// Short stable slug per model for cell IDs.
fn model_slug(kind: ModelKind) -> &'static str {
    match kind {
        ModelKind::VanillaCnn => "cnn",
        ModelKind::TransLob => "translob",
        ModelKind::DeepLob => "deeplob",
    }
}

/// Short stable slug per power condition for cell IDs.
fn condition_slug(condition: PowerCondition) -> &'static str {
    match condition {
        PowerCondition::Sufficient => "suff",
        PowerCondition::Limited => "lim",
    }
}

#[allow(clippy::too_many_arguments)]
fn cell_id(
    kind: ModelKind,
    n_accels: usize,
    condition: PowerCondition,
    policy: Policy,
    fault_idx: usize,
    symbols: usize,
    skew: f64,
    seed: u64,
) -> String {
    format!(
        "m={}.n={}.c={}.p={}.f={}.s={}x{}.seed={}",
        model_slug(kind),
        n_accels,
        condition_slug(condition),
        policy.label(),
        fault_idx,
        symbols,
        skew,
        seed
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use lt_protocol::netem::FaultRates;

    fn lossy() -> IngressFaults {
        IngressFaults::symmetric(
            FaultRates {
                drop: 0.05,
                ..FaultRates::default()
            },
            7,
        )
    }

    #[test]
    fn expansion_is_the_axis_product() {
        let grid = SweepGrid::evaluation(1.0)
            .models(ModelKind::ALL)
            .accel_counts([1, 2, 4])
            .conditions([PowerCondition::Sufficient, PowerCondition::Limited])
            .policies(Policy::ALL)
            .seeds([1, 2, 3]);
        assert_eq!(grid.n_cells(), 3 * 3 * 2 * 4 * 3);
        let cells = grid.expand();
        assert_eq!(cells.len(), grid.n_cells());
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.index, i);
        }
    }

    #[test]
    fn cell_ids_are_unique_and_stable() {
        let grid = SweepGrid::evaluation(1.0)
            .models(ModelKind::ALL)
            .policies(Policy::ALL)
            .seeds([1, 2]);
        let a = grid.expand();
        let b = grid.expand();
        let ids: std::collections::HashSet<&str> = a.iter().map(|c| c.id.as_str()).collect();
        assert_eq!(ids.len(), a.len(), "IDs are unique");
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.id, y.id, "IDs are stable across expansions");
        }
        assert_eq!(a[0].id, "m=cnn.n=1.c=suff.p=baseline.f=0.s=1x0.seed=1");
    }

    #[test]
    fn fault_times_multi_symbol_is_pruned() {
        let grid = SweepGrid::evaluation(1.0)
            .faults([IngressFaults::lossless(), lossy()])
            .symbols([(1, 0.0), (4, 1.0)]);
        // 1 symbol point takes both fault profiles; the 4-symbol point
        // only the lossless one.
        assert_eq!(grid.n_cells(), 3);
        let cells = grid.expand();
        assert_eq!(cells.len(), 3);
        assert!(cells
            .iter()
            .all(|c| !(c.config.faults.enabled() && c.spec.symbols > 1)));
    }

    #[test]
    fn sessions_are_shared_across_config_axes() {
        let grid = SweepGrid::evaluation(1.0)
            .models(ModelKind::ALL)
            .policies(Policy::ALL)
            .seeds([1, 2, 3]);
        assert_eq!(grid.n_cells(), 36);
        assert_eq!(grid.n_sessions(), 3, "config axes never split a session");
    }

    #[test]
    fn scheduling_deadline_tracks_the_model() {
        let cells = SweepGrid::evaluation(1.0)
            .models(ModelKind::ALL)
            .deadline(GridDeadline::Scheduling)
            .expand();
        for c in &cells {
            assert_eq!(
                c.config.t_avail,
                traffic::scheduling_deadline_for(c.config.kind)
            );
        }
    }

    #[test]
    #[should_panic(expected = "axis 'seeds' is empty")]
    fn empty_axis_rejected() {
        let _ = SweepGrid::evaluation(1.0).seeds([]).expand();
    }

    #[test]
    fn tiered_cells_carry_the_grid_budget() {
        let budget = Duration::from_micros(450);
        let cells = SweepGrid::evaluation(1.0)
            .policies([Policy::Both, Policy::DeadlineTiered])
            .tier_budget(Some(budget))
            .expand();
        assert_eq!(cells.len(), 2);
        let fixed = &cells[0].config;
        let tiered = &cells[1].config;
        assert_eq!(fixed.policy, Policy::Both);
        assert_eq!(tiered.policy, Policy::DeadlineTiered);
        assert_eq!(tiered.tier_budget, Some(budget));
        assert!(cells[1].id.contains("p=tiered"));
        tiered.validate();
    }
}
