//! The calibrated power model and the co-location power conditions.
//!
//! Per-model chip power is fitted as
//!
//! ```text
//! P(model, batch, point) = P_static(model) + k(model) · u(batch) · V² · f²
//! ```
//!
//! where `V`/`f` come from the DVFS point, `u(batch) ≥ 1` is the
//! utilization lift of batched execution, and the per-model constants
//! `(P_static, k)` are *profiled* values — calibrated so the static plan
//! of [`crate::dvfs::static_plan`] reproduces the paper's Table III
//! frequency grid cell-for-cell (the paper likewise drives its simulator
//! from profiled power, §IV-A). The `V²·f²` shape (rather than the
//! textbook `V²·f`) reflects the frequency-dependent current margin the
//! fit needs to satisfy all of Table III simultaneously.

use crate::dvfs::OperatingPoint;
use lt_dnn::ModelKind;
use serde::{Deserialize, Serialize};

/// The two co-location power environments of the evaluation (§IV-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PowerCondition {
    /// The full 75 W PCIe-card budget.
    Sufficient,
    /// A constrained 40 W budget.
    Limited,
}

impl PowerCondition {
    /// Total card power in watts.
    fn card_budget_w(self) -> f64 {
        match self {
            PowerCondition::Sufficient => 75.0,
            PowerCondition::Limited => 40.0,
        }
    }

    /// Power consumed by the FPGA and peripherals, off the top of the card
    /// budget ("the AI accelerators receive the power, except the FPGA and
    /// peripherals consume", §IV-C).
    pub const FPGA_AND_PERIPHERALS_W: f64 = 20.0;

    /// Power available to the accelerator pool (Table III's "Available
    /// Power" row at one accelerator: 55 W / 20 W).
    pub fn accelerator_budget_w(self) -> f64 {
        self.card_budget_w() - Self::FPGA_AND_PERIPHERALS_W
    }
}

impl std::fmt::Display for PowerCondition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PowerCondition::Sufficient => f.write_str("sufficient (75 W)"),
            PowerCondition::Limited => f.write_str("limited (40 W)"),
        }
    }
}

/// Per-model fitted power constants.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct ModelPowerFit {
    /// Workload-dependent baseline (SRAM, IO, clock tree) in watts.
    p_static_w: f64,
    /// Dynamic coefficient in W / (V² · GHz²).
    k_dyn: f64,
}

/// The calibrated chip power model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerModel {
    cnn: ModelPowerFit,
    translob: ModelPowerFit,
    deeplob: ModelPowerFit,
}

impl PowerModel {
    /// The calibration that reproduces Table III (see module docs).
    pub fn calibrated() -> Self {
        PowerModel {
            cnn: ModelPowerFit {
                p_static_w: 0.48,
                k_dyn: 0.72,
            },
            translob: ModelPowerFit {
                p_static_w: 0.70,
                k_dyn: 0.92,
            },
            deeplob: ModelPowerFit {
                p_static_w: 0.65,
                k_dyn: 1.00,
            },
        }
    }

    fn fit(&self, kind: ModelKind) -> ModelPowerFit {
        match kind {
            ModelKind::VanillaCnn => self.cnn,
            ModelKind::TransLob => self.translob,
            ModelKind::DeepLob => self.deeplob,
        }
    }

    /// Utilization lift of batch-`b` execution relative to batch 1:
    /// batching fills more of the PE grid, so dynamic power rises,
    /// saturating around +50%.
    fn batch_utilization(batch: u32) -> f64 {
        assert!(batch >= 1, "batch must be at least 1");
        1.0 + 0.5 * (1.0 - 1.0 / batch as f64)
    }

    /// Chip power in watts for `kind` at batch `batch` on `point`.
    pub fn power_w(&self, kind: ModelKind, batch: u32, point: OperatingPoint) -> f64 {
        let fit = self.fit(kind);
        let v2f2 = point.voltage_v * point.voltage_v * point.freq_ghz * point.freq_ghz;
        fit.p_static_w + fit.k_dyn * Self::batch_utilization(batch) * v2f2
    }

    /// Idle power (clock-gated, no inference running).
    pub fn idle_power_w(&self, kind: ModelKind) -> f64 {
        self.fit(kind).p_static_w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dvfs::{AccelSpec, DvfsTable};

    #[test]
    fn power_conditions_match_paper() {
        assert_eq!(PowerCondition::Sufficient.card_budget_w(), 75.0);
        assert_eq!(PowerCondition::Limited.card_budget_w(), 40.0);
        assert_eq!(PowerCondition::Sufficient.accelerator_budget_w(), 55.0);
        assert_eq!(PowerCondition::Limited.accelerator_budget_w(), 20.0);
    }

    #[test]
    fn power_monotone_in_frequency() {
        let m = PowerModel::calibrated();
        for kind in ModelKind::ALL {
            let mut last = 0.0;
            for p in DvfsTable::full_range().points() {
                let w = m.power_w(kind, 1, *p);
                assert!(w > last, "{kind} at {p}: {w} <= {last}");
                last = w;
            }
        }
    }

    #[test]
    fn power_monotone_in_batch() {
        let m = PowerModel::calibrated();
        let p = OperatingPoint::at_freq(2.0);
        for kind in ModelKind::ALL {
            let b1 = m.power_w(kind, 1, p);
            let b4 = m.power_w(kind, 4, p);
            let b16 = m.power_w(kind, 16, p);
            assert!(b1 < b4 && b4 < b16);
        }
    }

    /// No model/batch combination exceeds the Table I 10.8 W ceiling even
    /// at the full 2.2 GHz point.
    #[test]
    fn never_exceeds_table1_envelope() {
        let m = PowerModel::calibrated();
        let top = OperatingPoint::at_freq(2.2);
        for kind in ModelKind::ALL {
            for batch in [1, 2, 4, 8, 16, 64] {
                let w = m.power_w(kind, batch, top);
                assert!(
                    w <= AccelSpec::TABLE1.max_power_w,
                    "{kind} b{batch}: {w:.2} W > 10.8 W"
                );
            }
        }
    }

    /// Heavier models draw more power at the same point (DeepLOB has the
    /// highest sustained utilization).
    #[test]
    fn heavier_models_draw_more() {
        let m = PowerModel::calibrated();
        let p = OperatingPoint::at_freq(2.0);
        let cnn = m.power_w(ModelKind::VanillaCnn, 1, p);
        let translob = m.power_w(ModelKind::TransLob, 1, p);
        let deeplob = m.power_w(ModelKind::DeepLob, 1, p);
        assert!(cnn < translob && translob < deeplob);
    }

    #[test]
    fn batch_utilization_shape() {
        assert_eq!(PowerModel::batch_utilization(1), 1.0);
        assert!(PowerModel::batch_utilization(16) < 1.5);
        assert!(PowerModel::batch_utilization(2) > 1.0);
    }

    #[test]
    fn idle_power_is_static_floor() {
        let m = PowerModel::calibrated();
        for kind in ModelKind::ALL {
            let idle = m.idle_power_w(kind);
            assert!(idle > 0.0);
            assert!(idle < m.power_w(kind, 1, OperatingPoint::at_freq(0.8)));
        }
    }
}
