//! The calibrated inference-latency model.
//!
//! Anchored to the paper's Fig. 11(a): with a single accelerator at the
//! 2.0 GHz evaluation clock and batch size 1, LightTrader infers the
//! Vanilla CNN in 119 µs, TransLOB in 160 µs, and DeepLOB in 296 µs.
//! Around those anchors:
//!
//! * a small frequency-independent floor covers control, kernel launch,
//!   and interrupt turnaround;
//! * the compute portion scales as `1/f` with the DVFS point;
//! * batching amortizes: sample `b`'s marginal cost shrinks as the PE
//!   grid fills (`eff(b) = 0.5 + 0.5·b^-0.6`), matching the paper's
//!   "batch-insensitive" mapping that still leaves batching worthwhile
//!   under bursts (§III-D);
//! * transfer time (`t_trans` in Algorithm 1) is priced by the C2C link.
//!
//! Note on Table II: the paper's 16 TFLOPS peak cannot execute 93–515 G
//! OPs in 119–296 µs, so "Total OPs" must cover an evaluation bundle
//! rather than a single query. We therefore treat Table II as the model
//! complexity metric (reproduced analytically in `lt-dnn`) and calibrate
//! latency directly to the Fig. 11(a) anchors; effective-throughput
//! figures (Fig. 11c) divide the per-inference workload
//! `ops / INFERENCE_BUNDLE` by these latencies. See EXPERIMENTS.md.

use crate::c2c::C2cLink;
use crate::dvfs::OperatingPoint;
use lt_dnn::ModelKind;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Queries per Table II "Total OPs" bundle (see module docs).
pub const INFERENCE_BUNDLE: u64 = 500;

/// Reference clock of the Fig. 11(a) anchors.
pub const REFERENCE_FREQ_GHZ: f64 = 2.0;

/// The calibrated latency model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencyModel {
    /// Frequency-independent per-batch floor.
    fixed_ns: f64,
    /// Per-sample BF16 compute time at the reference clock, per model.
    sample_ns_cnn: f64,
    sample_ns_translob: f64,
    sample_ns_deeplob: f64,
}

impl LatencyModel {
    /// The calibration that reproduces Fig. 11(a)'s batch-1 anchors.
    pub fn calibrated() -> Self {
        const FIXED_NS: f64 = 5_000.0;
        LatencyModel {
            fixed_ns: FIXED_NS,
            sample_ns_cnn: 119_000.0 - FIXED_NS,
            sample_ns_translob: 160_000.0 - FIXED_NS,
            sample_ns_deeplob: 296_000.0 - FIXED_NS,
        }
    }

    fn sample_ns(&self, kind: ModelKind) -> f64 {
        match kind {
            ModelKind::VanillaCnn => self.sample_ns_cnn,
            ModelKind::TransLob => self.sample_ns_translob,
            ModelKind::DeepLob => self.sample_ns_deeplob,
        }
    }

    /// Marginal per-sample efficiency of batch-`b` execution: 1.0 at
    /// batch 1, falling toward 0.5 as the grid fills.
    fn batch_efficiency(batch: u32) -> f64 {
        assert!(batch >= 1, "batch must be at least 1");
        0.5 + 0.5 * (batch as f64).powf(-0.6)
    }

    /// Inference latency (`t_infer` in Algorithm 1) for a batch of
    /// `batch` queries of `kind` at `point`, in BF16.
    pub fn infer(&self, kind: ModelKind, batch: u32, point: OperatingPoint) -> Duration {
        assert!(batch >= 1, "batch must be at least 1");
        let scale = REFERENCE_FREQ_GHZ / point.freq_ghz;
        let compute = batch as f64 * Self::batch_efficiency(batch) * self.sample_ns(kind) * scale;
        Duration::from_nanos((self.fixed_ns + compute) as u64)
    }

    /// Input-tensor byte size of one query of `kind` (BF16: 2 bytes per
    /// feature over the `[window, 40]` map).
    fn query_bytes(kind: ModelKind) -> usize {
        // All three paper specs use a 100-tick window of 40 features.
        let _ = kind;
        100 * 40 * 2
    }

    /// Result transfer latency (`t_trans` in Algorithm 1) over the C2C
    /// link: the batched input tensors plus the (tiny) result vector.
    pub fn transfer(&self, kind: ModelKind, batch: u32, link: &C2cLink) -> Duration {
        let bytes = Self::query_bytes(kind) * batch as usize + 16;
        link.transfer_time(bytes)
    }

    /// The per-inference workload in OPs (`Table II ops / bundle`).
    pub fn ops_per_inference(kind: ModelKind) -> f64 {
        kind.table2_ops() as f64 / INFERENCE_BUNDLE as f64
    }

    /// Effective throughput in TFLOPS sustained at batch 1 on `point`
    /// (used by the Fig. 11(c) energy-efficiency comparison).
    pub fn effective_tflops(&self, kind: ModelKind, point: OperatingPoint) -> f64 {
        let t = self.infer(kind, 1, point).as_secs_f64();
        Self::ops_per_inference(kind) / t / 1e12
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(f: f64) -> OperatingPoint {
        OperatingPoint::at_freq(f)
    }

    /// The Fig. 11(a) anchors reproduce exactly at the reference clock.
    #[test]
    fn batch1_anchors_at_reference_clock() {
        let m = LatencyModel::calibrated();
        let cases = [
            (ModelKind::VanillaCnn, 119),
            (ModelKind::TransLob, 160),
            (ModelKind::DeepLob, 296),
        ];
        for (kind, micros) in cases {
            let t = m.infer(kind, 1, p(2.0));
            assert_eq!(t, Duration::from_micros(micros), "{kind}");
        }
    }

    #[test]
    fn latency_scales_inversely_with_frequency() {
        let m = LatencyModel::calibrated();
        let fast = m.infer(ModelKind::DeepLob, 1, p(2.0));
        let slow = m.infer(ModelKind::DeepLob, 1, p(1.0));
        // Compute portion doubles; fixed floor does not.
        assert!(slow > fast);
        let expected = 5_000.0 + 291_000.0 * 2.0;
        assert!((slow.as_nanos() as f64 - expected).abs() < 1_000.0);
    }

    #[test]
    fn batching_amortizes_but_costs_latency() {
        let m = LatencyModel::calibrated();
        let b1 = m.infer(ModelKind::VanillaCnn, 1, p(2.0));
        let b4 = m.infer(ModelKind::VanillaCnn, 4, p(2.0));
        // A batch of 4 is slower than one query...
        assert!(b4 > b1);
        // ...but much faster than four sequential queries.
        assert!(b4 < Duration::from_nanos(4 * b1.as_nanos() as u64));
        // Per-query throughput strictly improves with batch size.
        let per_q1 = b1.as_nanos() as f64;
        let per_q4 = b4.as_nanos() as f64 / 4.0;
        let per_q16 = m.infer(ModelKind::VanillaCnn, 16, p(2.0)).as_nanos() as f64 / 16.0;
        assert!(per_q4 < per_q1 && per_q16 < per_q4);
    }

    #[test]
    fn transfer_is_small_relative_to_inference() {
        let m = LatencyModel::calibrated();
        let link = C2cLink::lighttrader();
        for kind in ModelKind::ALL {
            let t_trans = m.transfer(kind, 1, &link);
            let t_infer = m.infer(kind, 1, p(2.0));
            assert!(t_trans.as_nanos() * 20 < t_infer.as_nanos());
        }
    }

    #[test]
    fn transfer_grows_with_batch() {
        let m = LatencyModel::calibrated();
        let link = C2cLink::lighttrader();
        let t1 = m.transfer(ModelKind::VanillaCnn, 1, &link);
        let t8 = m.transfer(ModelKind::VanillaCnn, 8, &link);
        assert!(t8 > t1);
    }

    #[test]
    fn effective_tflops_ordering_matches_paper_story() {
        // Bigger models utilize the CGRA grid better: DeepLOB sustains the
        // highest effective throughput.
        let m = LatencyModel::calibrated();
        let cnn = m.effective_tflops(ModelKind::VanillaCnn, p(2.0));
        let translob = m.effective_tflops(ModelKind::TransLob, p(2.0));
        let deeplob = m.effective_tflops(ModelKind::DeepLob, p(2.0));
        assert!(cnn < translob && translob < deeplob);
        // And all stay below the 16 TFLOPS peak.
        assert!(deeplob < 16.0);
    }

    #[test]
    fn batch_efficiency_shape() {
        assert_eq!(LatencyModel::batch_efficiency(1), 1.0);
        let e16 = LatencyModel::batch_efficiency(16);
        assert!(e16 > 0.5 && e16 < 0.7, "eff(16) = {e16}");
    }
}
