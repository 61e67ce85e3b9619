//! DVFS operating points and the static (no-scheduling) power plan.
//!
//! Table I bounds the chip at 0.68–1.16 V and up to 2.2 GHz; the DVFS
//! table exposes that range in 0.1 GHz steps with a linear
//! voltage/frequency curve. [`static_plan`] reproduces the paper's
//! Table III: the conservative clock chosen per model when a fixed power
//! budget is split evenly across accelerators and no runtime scheduling
//! is active.

use crate::power::PowerCondition;
use crate::profile::DeviceProfile;
use lt_dnn::ModelKind;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// The Table I device envelope.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AccelSpec {
    /// Process node label.
    pub process: &'static str,
    /// Package edge in millimetres (square package).
    pub package_mm: f64,
    /// Supply range in volts.
    pub voltage_range: (f64, f64),
    /// Clock range in GHz.
    pub freq_range_ghz: (f64, f64),
    /// Maximum chip power in watts.
    pub max_power_w: f64,
    /// Peak BF16 throughput in TFLOPS (at max clock).
    pub peak_tflops_bf16: f64,
    /// Peak INT8 throughput in TOPS (at max clock).
    pub peak_tops_int8: f64,
}

impl AccelSpec {
    /// The Table I specification of the LightTrader accelerator.
    pub const TABLE1: AccelSpec = AccelSpec {
        process: "7 nm",
        package_mm: 8.7,
        voltage_range: (0.68, 1.16),
        freq_range_ghz: (0.8, 2.2),
        max_power_w: 10.8,
        peak_tflops_bf16: 16.0,
        peak_tops_int8: 64.0,
    };
}

/// One (frequency, voltage) pair the PMICs can configure.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OperatingPoint {
    /// Core clock in GHz.
    pub freq_ghz: f64,
    /// Supply voltage in volts.
    pub voltage_v: f64,
}

impl OperatingPoint {
    /// The voltage on the linear V/f curve for a given frequency.
    ///
    /// # Panics
    ///
    /// Panics if `freq_ghz` is outside the Table I range.
    pub fn at_freq(freq_ghz: f64) -> Self {
        let (f_lo, f_hi) = AccelSpec::TABLE1.freq_range_ghz;
        let (v_lo, v_hi) = AccelSpec::TABLE1.voltage_range;
        assert!(
            (f_lo..=f_hi + 1e-9).contains(&freq_ghz),
            "frequency {freq_ghz} GHz outside [{f_lo}, {f_hi}]"
        );
        OperatingPoint {
            freq_ghz,
            voltage_v: v_lo + (v_hi - v_lo) * (freq_ghz - f_lo) / (f_hi - f_lo),
        }
    }
}

impl std::fmt::Display for OperatingPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.1} GHz @ {:.3} V", self.freq_ghz, self.voltage_v)
    }
}

/// The discrete DVFS table the scheduler iterates over (`dvfs_options` in
/// Algorithm 1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DvfsTable {
    points: Vec<OperatingPoint>,
}

impl DvfsTable {
    /// PMIC reconfiguration delay charged on every DVFS switch; "frequent
    /// changing in DVFS policy ... increases the overall latency due to
    /// the power switching delay" (§III-D).
    pub const SWITCH_DELAY: Duration = Duration::from_micros(10);

    /// Minimum dwell time at a point before the next switch, limiting the
    /// power-failure risk the paper warns about.
    pub const MIN_DWELL: Duration = Duration::from_micros(50);

    /// The full Table I range in 0.1 GHz steps (0.8 ..= 2.2 GHz).
    pub fn full_range() -> Self {
        let points = (8..=22)
            .map(|tenths| OperatingPoint::at_freq(tenths as f64 / 10.0))
            .collect();
        DvfsTable { points }
    }

    /// The evaluation table: capped at 2.0 GHz, the conservative maximum
    /// the paper's experiments use (Table III never exceeds 2.0 GHz).
    pub fn evaluation() -> Self {
        let points = (8..=20)
            .map(|tenths| OperatingPoint::at_freq(tenths as f64 / 10.0))
            .collect();
        DvfsTable { points }
    }

    /// A copy of this table restricted to points at or above `freq_ghz`
    /// (used by schedulers that must never under-clock a floor).
    ///
    /// # Panics
    ///
    /// Panics if no point satisfies the floor.
    pub fn at_least(&self, freq_ghz: f64) -> DvfsTable {
        let points: Vec<OperatingPoint> = self
            .points
            .iter()
            .filter(|p| p.freq_ghz >= freq_ghz - 1e-9)
            .copied()
            .collect();
        assert!(
            !points.is_empty(),
            "no DVFS point at or above {freq_ghz} GHz"
        );
        DvfsTable { points }
    }

    /// Points in ascending frequency order.
    pub fn points(&self) -> &[OperatingPoint] {
        &self.points
    }

    /// The fastest point.
    pub fn max(&self) -> OperatingPoint {
        *self.points.last().expect("table is never empty")
    }

    /// The slowest point.
    pub fn min(&self) -> OperatingPoint {
        *self.points.first().expect("table is never empty")
    }

    /// The next point up from `p`, if any.
    pub fn step_up(&self, p: OperatingPoint) -> Option<OperatingPoint> {
        self.points
            .iter()
            .find(|q| q.freq_ghz > p.freq_ghz + 1e-9)
            .copied()
    }
}

/// The static configuration of one accelerator under an even power split —
/// the paper's no-scheduling baseline (Table III).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StaticPlan {
    /// Power available to each accelerator in watts.
    pub per_accel_power_w: f64,
    /// The conservative clock chosen (highest that fits the budget,
    /// capped at 2.0 GHz).
    pub point: OperatingPoint,
}

/// Computes the Table III static plan: split the condition's accelerator
/// power budget evenly across `n_accels` and pick the fastest evaluation
/// DVFS point whose batch-1 power fits.
///
/// # Panics
///
/// Panics if `n_accels` is zero or even the slowest point exceeds the
/// per-accelerator budget.
pub fn static_plan(kind: ModelKind, n_accels: usize, condition: PowerCondition) -> StaticPlan {
    assert!(n_accels > 0, "need at least one accelerator");
    let budget = condition.accelerator_budget_w() / n_accels as f64;
    let table = DvfsTable::evaluation();
    let point = DeviceProfile::lighttrader()
        .fastest_within(kind, 1, budget + 1e-9, &table)
        .unwrap_or_else(|| {
            panic!(
                "budget {budget:.2} W per accelerator cannot power {kind} even at {}",
                table.min()
            )
        });
    StaticPlan {
        per_accel_power_w: budget,
        point,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_constants() {
        let s = AccelSpec::TABLE1;
        assert_eq!(s.process, "7 nm");
        assert_eq!(s.voltage_range, (0.68, 1.16));
        assert_eq!(s.freq_range_ghz, (0.8, 2.2));
        assert_eq!(s.max_power_w, 10.8);
        assert_eq!(s.peak_tflops_bf16, 16.0);
        assert_eq!(s.peak_tops_int8, 64.0);
    }

    #[test]
    fn voltage_curve_endpoints() {
        assert!((OperatingPoint::at_freq(0.8).voltage_v - 0.68).abs() < 1e-12);
        assert!((OperatingPoint::at_freq(2.2).voltage_v - 1.16).abs() < 1e-12);
        let mid = OperatingPoint::at_freq(1.5);
        assert!(mid.voltage_v > 0.68 && mid.voltage_v < 1.16);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_range_frequency_panics() {
        let _ = OperatingPoint::at_freq(2.5);
    }

    #[test]
    fn tables_are_ordered_and_bounded() {
        let full = DvfsTable::full_range();
        assert_eq!(full.points().len(), 15);
        assert!((full.max().freq_ghz - 2.2).abs() < 1e-9);
        assert!((full.min().freq_ghz - 0.8).abs() < 1e-9);
        for w in full.points().windows(2) {
            assert!(w[0].freq_ghz < w[1].freq_ghz);
            assert!(w[0].voltage_v < w[1].voltage_v);
        }
        let eval = DvfsTable::evaluation();
        assert!((eval.max().freq_ghz - 2.0).abs() < 1e-9);
    }

    #[test]
    fn stepping_moves_one_notch() {
        let t = DvfsTable::evaluation();
        let p = OperatingPoint::at_freq(1.5);
        assert!((t.step_up(p).unwrap().freq_ghz - 1.6).abs() < 1e-9);
        assert!(t.step_up(t.max()).is_none());
    }

    /// The headline reproduction: `static_plan` regenerates every cell of
    /// the paper's Table III frequency grid.
    #[test]
    fn static_plan_reproduces_table3() {
        use ModelKind::*;
        use PowerCondition::*;
        // (condition, accels, [cnn, translob, deeplob] GHz) — Table III.
        let rows = [
            (Sufficient, 1, [2.0, 2.0, 2.0]),
            (Sufficient, 2, [2.0, 2.0, 2.0]),
            (Sufficient, 4, [2.0, 2.0, 2.0]),
            (Sufficient, 8, [2.0, 2.0, 2.0]),
            (Sufficient, 16, [1.9, 1.7, 1.6]),
            (Limited, 1, [2.0, 2.0, 2.0]),
            (Limited, 2, [2.0, 2.0, 2.0]),
            (Limited, 4, [2.0, 1.9, 1.9]),
            (Limited, 8, [1.6, 1.5, 1.4]),
            (Limited, 16, [1.2, 1.0, 1.0]),
        ];
        for (cond, n, freqs) in rows {
            for (kind, expect) in [VanillaCnn, TransLob, DeepLob].into_iter().zip(freqs) {
                let plan = static_plan(kind, n, cond);
                assert!(
                    (plan.point.freq_ghz - expect).abs() < 1e-9,
                    "{kind} x{n} {cond:?}: got {:.1} GHz, Table III says {expect:.1}",
                    plan.point.freq_ghz
                );
            }
        }
    }

    #[test]
    fn static_plan_splits_budget_evenly() {
        let p1 = static_plan(ModelKind::VanillaCnn, 1, PowerCondition::Sufficient);
        let p4 = static_plan(ModelKind::VanillaCnn, 4, PowerCondition::Sufficient);
        assert!((p1.per_accel_power_w - 55.0).abs() < 1e-9);
        assert!((p4.per_accel_power_w - 13.75).abs() < 1e-9);
    }
}
