//! The profiled device view the scheduler consumes.
//!
//! Algorithm 1 iterates `(dvfs, batch)` candidates and reads
//! `t_infer[dvfs][bs]`, `t_trans[bs]`, and `power[dvfs][bs]` from
//! profiles; Algorithm 2 additionally needs marginal PPW. This module
//! packages the calibrated latency and power models (plus the C2C link)
//! behind exactly that interface, including the PPW metric of §III-D:
//!
//! ```text
//! PPW = batch_size / (latency · consumed power)
//! ```

use crate::c2c::C2cLink;
use crate::dvfs::{DvfsTable, OperatingPoint};
use crate::latency::LatencyModel;
use crate::power::PowerModel;
use lt_dnn::ModelKind;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Latency/power/PPW lookups for one accelerator chip.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeviceProfile {
    latency: LatencyModel,
    power: PowerModel,
    link: C2cLink,
}

impl DeviceProfile {
    /// The calibrated LightTrader profile at BF16.
    pub fn lighttrader() -> Self {
        DeviceProfile {
            latency: LatencyModel::calibrated(),
            power: PowerModel::calibrated(),
            link: C2cLink::lighttrader(),
        }
    }

    /// Inference latency `t_infer[dvfs][bs]`.
    pub fn t_infer(&self, kind: ModelKind, batch: u32, point: OperatingPoint) -> Duration {
        self.latency.infer(kind, batch, point)
    }

    /// Transfer latency `t_trans[bs]`.
    fn t_trans(&self, kind: ModelKind, batch: u32) -> Duration {
        self.latency.transfer(kind, batch, &self.link)
    }

    /// End-to-end DNN-pipeline latency `t_total = t_infer + t_trans`.
    pub fn t_total(&self, kind: ModelKind, batch: u32, point: OperatingPoint) -> Duration {
        self.t_infer(kind, batch, point) + self.t_trans(kind, batch)
    }

    /// Chip power `power[dvfs][bs]` in watts.
    pub fn power_w(&self, kind: ModelKind, batch: u32, point: OperatingPoint) -> f64 {
        self.power.power_w(kind, batch, point)
    }

    /// Idle chip power in watts.
    pub fn idle_power_w(&self, kind: ModelKind) -> f64 {
        self.power.idle_power_w(kind)
    }

    /// The fastest point of `table` whose draw at `batch` fits within
    /// `watts`, or `None` when even the slowest one draws more.
    pub fn fastest_within(
        &self,
        kind: ModelKind,
        batch: u32,
        watts: f64,
        table: &DvfsTable,
    ) -> Option<OperatingPoint> {
        table
            .points()
            .iter()
            .rev()
            .find(|p| self.power_w(kind, batch, **p) <= watts)
            .copied()
    }

    /// The §III-D PPW metric: `batch / (latency_secs · power_watts)`, the
    /// queries a joule buys.
    pub fn ppw(&self, kind: ModelKind, batch: u32, point: OperatingPoint) -> f64 {
        batch as f64 / self.energy_j(kind, batch, point)
    }

    /// Energy per batch in joules.
    fn energy_j(&self, kind: ModelKind, batch: u32, point: OperatingPoint) -> f64 {
        self.t_total(kind, batch, point).as_secs_f64() * self.power_w(kind, batch, point)
    }

    /// Effective TFLOPS/W at batch 1 (Fig. 11(c)'s metric).
    pub fn effective_tflops_per_watt(&self, kind: ModelKind, point: OperatingPoint) -> f64 {
        self.latency.effective_tflops(kind, point) / self.power_w(kind, 1, point)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(f: f64) -> OperatingPoint {
        OperatingPoint::at_freq(f)
    }

    #[test]
    fn t_total_is_sum() {
        let prof = DeviceProfile::lighttrader();
        for kind in ModelKind::ALL {
            let total = prof.t_total(kind, 4, p(2.0));
            assert_eq!(total, prof.t_infer(kind, 4, p(2.0)) + prof.t_trans(kind, 4));
        }
    }

    /// Batching improves PPW: the throughput gain outweighs the power lift
    /// (this is why Algorithm 1 batches under bursts).
    #[test]
    fn ppw_increases_with_batch() {
        let prof = DeviceProfile::lighttrader();
        for kind in ModelKind::ALL {
            let p1 = prof.ppw(kind, 1, p(2.0));
            let p4 = prof.ppw(kind, 4, p(2.0));
            let p16 = prof.ppw(kind, 16, p(2.0));
            assert!(p1 < p4 && p4 < p16, "{kind}: {p1} {p4} {p16}");
        }
    }

    /// Scaling frequency up cuts latency but costs energy efficiency —
    /// the trade-off Algorithm 1 navigates (§III-D).
    #[test]
    fn frequency_trades_latency_for_efficiency() {
        let prof = DeviceProfile::lighttrader();
        let kind = ModelKind::TransLob;
        let fast = p(2.0);
        let slow = p(1.2);
        assert!(prof.t_infer(kind, 1, fast) < prof.t_infer(kind, 1, slow));
        assert!(
            prof.ppw(kind, 1, fast) < prof.ppw(kind, 1, slow),
            "higher clock must be less energy-efficient"
        );
    }

    #[test]
    fn energy_consistency() {
        let prof = DeviceProfile::lighttrader();
        let e = prof.energy_j(ModelKind::VanillaCnn, 2, p(1.5));
        let t = prof.t_total(ModelKind::VanillaCnn, 2, p(1.5)).as_secs_f64();
        let w = prof.power_w(ModelKind::VanillaCnn, 2, p(1.5));
        assert!((e - t * w).abs() < 1e-12);
        // PPW is the reciprocal energy per query.
        let ppw = prof.ppw(ModelKind::VanillaCnn, 2, p(1.5));
        assert!((ppw - 2.0 / e).abs() / ppw < 1e-9);
    }

    #[test]
    fn efficiency_metric_positive_and_finite() {
        let prof = DeviceProfile::lighttrader();
        for kind in ModelKind::ALL {
            let eff = prof.effective_tflops_per_watt(kind, p(2.0));
            assert!(eff.is_finite() && eff > 0.0);
        }
    }
}
