//! Back-test configuration.

use crate::execution::ExecutionConfig;
use crate::ingress::IngressFaults;
use lt_accel::PowerCondition;
use lt_dnn::ModelKind;
use lt_pipeline::PipelineLatencies;
use lt_sched::{Policy, TierLadder};
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Parameters of the deadline-aware model-tier scheduler, active when
/// the policy is [`Policy::DeadlineTiered`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TierParams {
    /// The fixed configuration whose WS/DS machinery the tiered
    /// scheduler runs on top of (one of the four Fig. 13 policies).
    pub base: Policy,
    /// Per-tick deadline budget the planner fits tiers into. `None`
    /// means unbounded: the planner always serves the best registered
    /// tier — with a single-tier ladder this reduces *exactly* to the
    /// base policy.
    pub budget: Option<Duration>,
    /// The registered model tiers; the best (most expensive) entry must
    /// be the config's preferred `kind`.
    pub ladder: TierLadder,
}

impl TierParams {
    /// The exact-reduction parameters for a preferred `kind`: only that
    /// tier registered, no budget. With these, `DeadlineTiered` behaves
    /// byte-identically to `base`.
    pub fn passthrough(kind: ModelKind, base: Policy) -> Self {
        TierParams {
            base,
            budget: None,
            ladder: TierLadder::single(kind),
        }
    }
}

/// Configuration of one LightTrader back-test run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BacktestConfig {
    /// The DNN benchmark being served.
    pub kind: ModelKind,
    /// Number of AI accelerators on the card (1–16 in the evaluation).
    pub n_accels: usize,
    /// Co-location power condition.
    pub condition: PowerCondition,
    /// Active scheduling schemes.
    pub policy: Policy,
    /// Available time per query (prediction-horizon validity window).
    pub t_avail: Duration,
    /// Ticket-queue slots per symbol shard.
    pub queue_capacity: usize,
    /// Feature-window length (ticks) before queries start.
    pub window: usize,
    /// Conventional-pipeline stage budget (ingress stamps + egress).
    pub stages: PipelineLatencies,
    /// Ingress fault injection for the redundant A/B feed pair. Defaults
    /// to lossless, which bypasses the ingress stage entirely — a config
    /// without faults behaves bit-identically to one predating the field.
    /// (The shim serde derive has no `default` attribute, so configs are
    /// always serialized in full.)
    pub faults: IngressFaults,
    /// Number of instruments served by the sharded pipeline. The default
    /// of 1 is the historical single-instrument configuration and stays
    /// bit-identical to configs predating the field.
    pub symbols: usize,
    /// Zipf traffic-skew exponent across symbols (0 = even split); only
    /// meaningful when `symbols > 1`.
    pub symbol_skew: f64,
    /// Deadline-tier scheduler parameters; only consulted when `policy`
    /// is [`Policy::DeadlineTiered`].
    pub tier: TierParams,
    /// The execution & portfolio layer. Disabled by default — and even
    /// enabled it never touches the latency/outcome surface (fills push
    /// no events), so configs predating the field stay bit-identical.
    pub execution: ExecutionConfig,
}

impl BacktestConfig {
    /// The evaluation defaults for `kind` with `n_accels` accelerators.
    pub fn new(kind: ModelKind, n_accels: usize, condition: PowerCondition) -> Self {
        BacktestConfig {
            kind,
            n_accels,
            condition,
            policy: Policy::Baseline,
            t_avail: crate::traffic::evaluation_deadline(),
            queue_capacity: 64,
            window: 100,
            stages: PipelineLatencies::fpga(),
            faults: IngressFaults::lossless(),
            symbols: 1,
            symbol_skew: 0.0,
            tier: TierParams::passthrough(kind, Policy::Both),
            execution: ExecutionConfig::default(),
        }
    }

    /// Sets the scheduling policy.
    #[must_use]
    pub fn with_policy(mut self, policy: Policy) -> Self {
        self.policy = policy;
        self
    }

    /// Overrides the per-query available time.
    #[must_use]
    pub fn with_t_avail(mut self, t_avail: Duration) -> Self {
        self.t_avail = t_avail;
        self
    }

    /// Injects ingress faults on the redundant A/B feed pair.
    #[must_use]
    pub fn with_faults(mut self, faults: IngressFaults) -> Self {
        self.faults = faults;
        self
    }

    /// Serves `symbols` instruments with a Zipf traffic skew of `skew`
    /// through the sharded pipeline (see [`crate::run_multi`]).
    #[must_use]
    pub fn with_symbols(mut self, symbols: usize, skew: f64) -> Self {
        self.symbols = symbols;
        self.symbol_skew = skew;
        self
    }

    /// Enables deadline-aware model-tier scheduling: the full degradation
    /// ladder up to the preferred `kind`, the Both (WS+DS) machinery as
    /// the base, and a per-tick deadline `budget` (`None` = unbounded).
    #[must_use]
    pub fn with_deadline_tiered(mut self, budget: Option<Duration>) -> Self {
        self.policy = Policy::DeadlineTiered;
        self.tier = TierParams {
            base: Policy::Both,
            budget,
            ladder: TierLadder::up_to(self.kind),
        };
        self
    }

    /// Overrides the tiered scheduler's base (fixed) policy.
    #[must_use]
    pub fn with_tier_base(mut self, base: Policy) -> Self {
        self.tier.base = base;
        self
    }

    /// Overrides the tiered scheduler's registered ladder.
    #[must_use]
    pub fn with_tier_ladder(mut self, ladder: TierLadder) -> Self {
        self.tier.ladder = ladder;
        self
    }

    /// Enables the execution & portfolio layer with `execution`.
    #[must_use]
    pub fn with_execution(mut self, execution: ExecutionConfig) -> Self {
        self.execution = execution;
        self
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on zero accelerators, zero capacity, a zero window, or a
    /// stage budget with a zero-latency stage.
    pub fn validate(&self) {
        assert!(self.n_accels > 0, "need at least one accelerator");
        assert!(self.queue_capacity > 0, "queue capacity must be positive");
        assert!(self.window > 0, "window must be positive");
        assert!(self.t_avail > Duration::ZERO, "t_avail must be positive");
        if let Err(stage) = self.stages.validate() {
            panic!("pipeline stage '{stage}' has zero latency");
        }
        assert!(self.symbols >= 1, "need at least one symbol");
        assert!(
            self.symbols <= lt_feed::multi::MAX_SYMBOLS,
            "at most {} symbols",
            lt_feed::multi::MAX_SYMBOLS
        );
        assert!(
            self.symbol_skew >= 0.0 && self.symbol_skew.is_finite(),
            "symbol skew must be >= 0"
        );
        if self.policy == Policy::DeadlineTiered {
            assert!(
                matches!(
                    self.tier.base,
                    Policy::Baseline
                        | Policy::WorkloadScheduling
                        | Policy::DvfsScheduling
                        | Policy::Both
                ),
                "tier base must be a fixed policy"
            );
            assert!(
                !self.tier.ladder.is_empty(),
                "tier ladder must be non-empty"
            );
            assert!(
                self.tier.ladder.best() == Some(self.kind),
                "the preferred kind must be the ladder's best tier"
            );
            if let Some(budget) = self.tier.budget {
                assert!(budget > Duration::ZERO, "tier budget must be positive");
                assert!(budget <= self.t_avail, "tier budget cannot exceed t_avail");
            }
        }
        self.faults.validate();
        self.execution.validate();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_composes() {
        let cfg = BacktestConfig::new(ModelKind::DeepLob, 4, PowerCondition::Limited)
            .with_policy(Policy::Both)
            .with_t_avail(Duration::from_millis(2));
        assert_eq!(cfg.kind, ModelKind::DeepLob);
        assert_eq!(cfg.n_accels, 4);
        assert_eq!(cfg.policy, Policy::Both);
        assert_eq!(cfg.t_avail, Duration::from_millis(2));
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "at least one accelerator")]
    fn zero_accels_invalid() {
        let mut cfg = BacktestConfig::new(ModelKind::VanillaCnn, 1, PowerCondition::Sufficient);
        cfg.n_accels = 0;
        cfg.validate();
    }

    #[test]
    fn deadline_tiered_builder_composes() {
        let cfg = BacktestConfig::new(ModelKind::DeepLob, 4, PowerCondition::Limited)
            .with_deadline_tiered(Some(Duration::from_micros(450)));
        assert_eq!(cfg.policy, Policy::DeadlineTiered);
        assert_eq!(cfg.tier.base, Policy::Both);
        assert_eq!(cfg.tier.budget, Some(Duration::from_micros(450)));
        assert_eq!(cfg.tier.ladder, TierLadder::up_to(ModelKind::DeepLob));
        cfg.validate();
        let pass = BacktestConfig::new(ModelKind::TransLob, 2, PowerCondition::Sufficient)
            .with_deadline_tiered(None)
            .with_tier_base(Policy::Baseline)
            .with_tier_ladder(TierLadder::single(ModelKind::TransLob));
        assert_eq!(
            pass.tier,
            TierParams::passthrough(ModelKind::TransLob, Policy::Baseline)
        );
        pass.validate();
    }

    #[test]
    #[should_panic(expected = "ladder's best tier")]
    fn ladder_must_top_out_at_preferred_kind() {
        let cfg = BacktestConfig::new(ModelKind::TransLob, 2, PowerCondition::Sufficient)
            .with_deadline_tiered(None)
            .with_tier_ladder(TierLadder::single(ModelKind::DeepLob));
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "cannot exceed t_avail")]
    fn tier_budget_capped_by_t_avail() {
        let cfg = BacktestConfig::new(ModelKind::DeepLob, 2, PowerCondition::Sufficient)
            .with_t_avail(Duration::from_micros(400))
            .with_deadline_tiered(Some(Duration::from_micros(500)));
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "tier base must be a fixed policy")]
    fn tier_base_cannot_recurse() {
        let cfg = BacktestConfig::new(ModelKind::DeepLob, 2, PowerCondition::Sufficient)
            .with_deadline_tiered(None)
            .with_tier_base(Policy::DeadlineTiered);
        cfg.validate();
    }
}
