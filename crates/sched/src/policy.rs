//! The four scheduling configurations of the Fig. 13 evaluation.

use serde::{Deserialize, Serialize};

/// Which scheduling schemes are active.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Policy {
    /// No runtime scheduling: batch 1, static Table III clocks.
    #[default]
    Baseline,
    /// Workload scheduling only (Algorithm 1).
    WorkloadScheduling,
    /// DVFS scheduling only (Algorithm 2).
    DvfsScheduling,
    /// Both schedulers (the full LightTrader configuration).
    Both,
    /// Deadline-aware model-tier scheduling (anytime inference) layered
    /// on top of the full WS+DS machinery: the [`crate::TierPlanner`]
    /// picks a model tier per query from its remaining deadline budget,
    /// over the ladder up to the configured model.
    DeadlineTiered,
}

impl Policy {
    /// All four configurations, in Fig. 13 order.
    pub const ALL: [Policy; 4] = [
        Policy::Baseline,
        Policy::WorkloadScheduling,
        Policy::DvfsScheduling,
        Policy::Both,
    ];

    /// True when Algorithm 1 (batch + DVFS candidate search) runs.
    /// `DeadlineTiered` runs on the full machinery.
    pub fn workload_enabled(self) -> bool {
        matches!(
            self,
            Policy::WorkloadScheduling | Policy::Both | Policy::DeadlineTiered
        )
    }

    /// True when Algorithm 2 (dynamic power distribution) runs.
    /// `DeadlineTiered` runs on the full machinery.
    pub fn dvfs_enabled(self) -> bool {
        matches!(
            self,
            Policy::DvfsScheduling | Policy::Both | Policy::DeadlineTiered
        )
    }

    /// The label used in the paper's Fig. 13 legend.
    pub fn label(self) -> &'static str {
        match self {
            Policy::Baseline => "baseline",
            Policy::WorkloadScheduling => "WS",
            Policy::DvfsScheduling => "DS",
            Policy::Both => "WS+DS",
            Policy::DeadlineTiered => "tiered",
        }
    }
}

impl std::fmt::Display for Policy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_match_configurations() {
        assert!(!Policy::Baseline.workload_enabled());
        assert!(!Policy::Baseline.dvfs_enabled());
        assert!(Policy::WorkloadScheduling.workload_enabled());
        assert!(!Policy::WorkloadScheduling.dvfs_enabled());
        assert!(!Policy::DvfsScheduling.workload_enabled());
        assert!(Policy::DvfsScheduling.dvfs_enabled());
        assert!(Policy::Both.workload_enabled());
        assert!(Policy::Both.dvfs_enabled());
    }

    #[test]
    fn labels_and_default() {
        assert_eq!(Policy::default(), Policy::Baseline);
        assert_eq!(Policy::Both.to_string(), "WS+DS");
        assert_eq!(Policy::ALL.len(), 4, "fixed Fig. 13 matrix is unchanged");
        assert!(!Policy::ALL.contains(&Policy::DeadlineTiered));
    }

    #[test]
    fn tiered_defaults_to_full_machinery() {
        assert!(Policy::DeadlineTiered.workload_enabled());
        assert!(Policy::DeadlineTiered.dvfs_enabled());
        assert_eq!(Policy::DeadlineTiered.label(), "tiered");
    }
}
