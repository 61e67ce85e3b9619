//! The conventional pipeline's stage latency budget.
//!
//! "The conventional tick-to-trade process without the AI algorithm
//! processing takes about one microsecond when implemented on an FPGA"
//! (§II-A). These constants allocate that microsecond across the stages
//! of Fig. 4(b); the DNN pipeline's latency comes from `lt-accel` and is
//! added by the simulator.

use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Per-stage latencies of the FPGA trading pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PipelineLatencies {
    /// Ethernet MAC + UDP/IP receive path.
    pub network_rx: Duration,
    /// SBE decode of one message.
    pub parse: Duration,
    /// Local LOB update.
    pub book_update: Duration,
    /// Offload engine: normalization + FIFO push + tensor registration.
    pub offload: Duration,
    /// Trading engine: post-processing + risk checks + order encode.
    pub order_gen: Duration,
    /// Ethernet MAC + TCP/IP transmit path.
    pub network_tx: Duration,
}

impl PipelineLatencies {
    /// The FPGA implementation's budget: ~1 µs end-to-end before DNN time.
    pub fn fpga() -> Self {
        PipelineLatencies {
            network_rx: Duration::from_nanos(180),
            parse: Duration::from_nanos(120),
            book_update: Duration::from_nanos(100),
            offload: Duration::from_nanos(200),
            order_gen: Duration::from_nanos(220),
            network_tx: Duration::from_nanos(180),
        }
    }

    /// A software (CPU + NIC) pipeline, as in the GPU-based baseline:
    /// kernel bypass still costs single-digit microseconds per stage.
    pub fn software() -> Self {
        PipelineLatencies {
            network_rx: Duration::from_micros(2),
            parse: Duration::from_nanos(800),
            book_update: Duration::from_nanos(600),
            offload: Duration::from_micros(3),
            order_gen: Duration::from_micros(1),
            network_tx: Duration::from_micros(2),
        }
    }

    /// Latency from wire-in to the tensor being ready for the DNN
    /// pipeline (the pre-DNN half).
    pub fn ingress(&self) -> Duration {
        self.network_rx + self.parse + self.book_update + self.offload
    }

    /// Latency from inference result to order on the wire (the post-DNN
    /// half).
    pub fn egress(&self) -> Duration {
        self.order_gen + self.network_tx
    }

    /// The whole conventional tick-to-trade (no DNN).
    pub fn total(&self) -> Duration {
        self.ingress() + self.egress()
    }

    /// Rejects degenerate budgets.
    ///
    /// The struct is `Copy + Eq` over raw `Duration` fields, so nothing
    /// stops a config from carrying a zero-latency stage — which would
    /// silently collapse the per-stage decomposition (a stage that takes
    /// no time attributes its cost to its neighbours) and breaks the
    /// "every physical stage costs time" modelling assumption. Returns
    /// the name of the first zero stage.
    pub fn validate(&self) -> Result<(), &'static str> {
        for (name, d) in [
            ("network_rx", self.network_rx),
            ("parse", self.parse),
            ("book_update", self.book_update),
            ("offload", self.offload),
            ("order_gen", self.order_gen),
            ("network_tx", self.network_tx),
        ] {
            if d.is_zero() {
                return Err(name);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fpga_budget_is_about_one_microsecond() {
        let t = PipelineLatencies::fpga().total();
        assert!(
            t >= Duration::from_nanos(800) && t <= Duration::from_nanos(1_200),
            "fpga conventional pipeline = {t:?}, paper says ~1 µs"
        );
    }

    #[test]
    fn software_pipeline_is_order_of_magnitude_slower() {
        let fpga = PipelineLatencies::fpga().total();
        let sw = PipelineLatencies::software().total();
        assert!(sw > fpga * 5);
    }

    #[test]
    fn halves_sum_to_total() {
        let l = PipelineLatencies::fpga();
        assert_eq!(l.ingress() + l.egress(), l.total());
    }

    #[test]
    fn builtin_budgets_validate() {
        assert_eq!(PipelineLatencies::fpga().validate(), Ok(()));
        assert_eq!(PipelineLatencies::software().validate(), Ok(()));
    }

    #[test]
    fn zero_stage_is_rejected_by_name() {
        let mut l = PipelineLatencies::fpga();
        l.book_update = Duration::ZERO;
        assert_eq!(l.validate(), Err("book_update"));
    }
}
