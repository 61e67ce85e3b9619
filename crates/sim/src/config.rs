//! Back-test configuration.

use crate::execution::ExecutionConfig;
use crate::ingress::IngressFaults;
use lt_accel::PowerCondition;
use lt_dnn::ModelKind;
use lt_sched::Policy;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Ticket-queue slots per symbol shard, for every back-test.
pub const QUEUE_CAPACITY: usize = 64;

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
    /// Feature-window length (ticks) before queries start.
    pub window: usize,
    /// Ingress fault injection for the redundant A/B feed pair. Defaults
    /// to lossless, which bypasses the ingress stage entirely — a config
    /// without faults behaves bit-identically to one predating the field.
    /// (The shim serde derive has no `default` attribute, so configs are
    /// always serialized in full.)
    pub faults: IngressFaults,
    /// Per-tick deadline budget the tiered planner fits tiers into;
    /// only consulted when `policy` is [`Policy::DeadlineTiered`].
    /// `None` means unbounded: the planner always serves `kind`, the
    /// ladder's best tier.
    pub tier_budget: Option<Duration>,
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
            window: 100,
            faults: IngressFaults::lossless(),
            tier_budget: None,
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

    /// Enables deadline-aware model-tier scheduling: the WS+DS machinery
    /// over the degradation ladder up to `kind`, with a per-tick
    /// deadline `budget` (`None` = unbounded).
    #[must_use]
    pub fn with_deadline_tiered(mut self, budget: Option<Duration>) -> Self {
        self.policy = Policy::DeadlineTiered;
        self.tier_budget = budget;
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
    /// Panics on zero accelerators, a zero window, a zero `t_avail`, or
    /// a tier budget that is zero or exceeds `t_avail`.
    pub fn validate(&self) {
        assert!(self.n_accels > 0, "need at least one accelerator");
        assert!(self.window > 0, "window must be positive");
        assert!(self.t_avail > Duration::ZERO, "t_avail must be positive");
        if let (Policy::DeadlineTiered, Some(budget)) = (self.policy, self.tier_budget) {
            assert!(budget > Duration::ZERO, "tier budget must be positive");
            assert!(budget <= self.t_avail, "tier budget cannot exceed t_avail");
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
        let base = BacktestConfig::new(ModelKind::DeepLob, 4, PowerCondition::Limited);
        assert_eq!(base.tier_budget, None);
        let cfg = base.with_deadline_tiered(Some(Duration::from_micros(450)));
        assert_eq!(cfg.policy, Policy::DeadlineTiered);
        assert_eq!(cfg.tier_budget, Some(Duration::from_micros(450)));
        assert!(cfg.policy.workload_enabled() && cfg.policy.dvfs_enabled());
        assert_eq!(
            BacktestConfig {
                tier_budget: None,
                ..cfg
            },
            base.with_policy(Policy::DeadlineTiered),
            "the budget is the only value the tiered builder sets beyond the policy"
        );
        cfg.validate();
        base.with_deadline_tiered(None).validate();
    }

    #[test]
    #[should_panic(expected = "cannot exceed t_avail")]
    fn tier_budget_capped_by_t_avail() {
        let cfg = BacktestConfig::new(ModelKind::DeepLob, 2, PowerCondition::Sufficient)
            .with_t_avail(Duration::from_micros(400))
            .with_deadline_tiered(Some(Duration::from_micros(500)));
        cfg.validate();
    }
}
