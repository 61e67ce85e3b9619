//! Per-stage tick-to-trade attribution.
//!
//! Every answered query's end-to-end latency is decomposed into the
//! stages it actually crossed: the four ingress stages and the egress
//! (order generation + transmit), priced by the model's stage budget
//! ([`lt_pipeline::PipelineLatencies`]), and the queue-wait /
//! DVFS-switch / inference time the event engine observes. The
//! decomposition is *exact by construction*: [`QueryTimeline::breakdown`]
//! allocates the integer nanoseconds of `order_out - tick_ts` greedily
//! across the stages, so the stage sums always reconcile with the
//! recorded tick-to-trade to the nanosecond.

use lt_lob::Timestamp;
use lt_pipeline::PipelineLatencies;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// The stages of the tick-to-trade decomposition, in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Stage {
    /// Ethernet MAC + UDP/IP receive path.
    NetworkRx,
    /// SBE decode of one message.
    Parse,
    /// Local LOB update.
    BookUpdate,
    /// Offload engine: normalization + FIFO push + tensor registration.
    Offload,
    /// Tensor queued, waiting for an accelerator to issue.
    QueueWait,
    /// PMIC switching (and dwell) delay charged to this batch.
    DvfsSwitch,
    /// DNN pipeline occupancy (DMA + inference).
    Inference,
    /// Trading engine post-processing + order transmit.
    Egress,
}

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; 8] = [
        Stage::NetworkRx,
        Stage::Parse,
        Stage::BookUpdate,
        Stage::Offload,
        Stage::QueueWait,
        Stage::DvfsSwitch,
        Stage::Inference,
        Stage::Egress,
    ];

    /// Stable snake_case name (report and serialization key).
    pub fn name(self) -> &'static str {
        match self {
            Stage::NetworkRx => "network_rx",
            Stage::Parse => "parse",
            Stage::BookUpdate => "book_update",
            Stage::Offload => "offload",
            Stage::QueueWait => "queue_wait",
            Stage::DvfsSwitch => "dvfs_switch",
            Stage::Inference => "inference",
            Stage::Egress => "egress",
        }
    }
}

/// One answered query's exact per-stage latency split, in nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageBreakdown {
    /// Nanoseconds per stage, indexed in [`Stage::ALL`] order.
    ns: [u64; 8],
}

impl StageBreakdown {
    /// The time attributed to `stage`.
    pub fn get(&self, stage: Stage) -> Duration {
        Duration::from_nanos(self.ns[stage as usize])
    }

    /// Sum of every stage — always exactly the query's tick-to-trade.
    pub fn total(&self) -> Duration {
        Duration::from_nanos(self.ns.iter().sum())
    }
}

/// The timing facts the simulator knows about one answered query; the
/// input to the stage decomposition.
#[derive(Debug, Clone, Copy)]
pub struct QueryTimeline {
    /// Exchange timestamp of the triggering tick.
    pub tick_ts: Timestamp,
    /// When the input tensor became ready (end of ingress).
    pub ready_at: Timestamp,
    /// When the batch claimed the accelerator (before any DVFS switch).
    pub issue: Timestamp,
    /// When the batch's results came back.
    pub completion: Timestamp,
    /// Total PMIC switch + dwell delay charged inside `issue..completion`.
    pub dvfs_switch: Duration,
}

impl QueryTimeline {
    /// Splits `order_out - tick_ts` (with `order_out = completion +
    /// stages.egress()`) exactly across the stages, pricing the ingress
    /// stages and the egress from `stages`, the budget the query ran
    /// under.
    ///
    /// Works greedily in pipeline order: each stage takes its nominal
    /// share, clamped to what remains, and **inference absorbs the
    /// remainder**. On every well-ordered timeline (`tick_ts <= ready_at
    /// <= issue <= completion`, which the simulator guarantees) each
    /// clamp is a no-op and every stage gets its true value; the greedy
    /// form just makes the sum invariant unconditional, so reconciliation
    /// can never drift even by a nanosecond.
    pub fn breakdown(&self, stages: &PipelineLatencies) -> StageBreakdown {
        let order_out = self.completion + stages.egress();
        let mut rem = order_out.nanos_since(self.tick_ts);
        let mut take = |want: u64| {
            let got = want.min(rem);
            rem -= got;
            got
        };
        let ingress_total = self.ready_at.nanos_since(self.tick_ts);
        let network_rx = take(stages.network_rx.as_nanos() as u64);
        let parse = take(stages.parse.as_nanos() as u64);
        let book_update = take(stages.book_update.as_nanos() as u64);
        // The offload stage absorbs whatever remains of the ingress gap —
        // a tick that arrived late is ready later than `tick_ts` plus the
        // budget — so the gap is attributed rather than lost.
        let offload = take(ingress_total.saturating_sub(network_rx + parse + book_update));
        let queue_wait = take(self.issue.nanos_since(self.ready_at));
        let dvfs_switch = take(self.dvfs_switch.as_nanos() as u64);
        let egress = take(stages.egress().as_nanos() as u64);
        let inference = rem;
        StageBreakdown {
            ns: [
                network_rx,
                parse,
                book_update,
                offload,
                queue_wait,
                dvfs_switch,
                inference,
                egress,
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(ns: u64) -> Timestamp {
        Timestamp::from_nanos(ns)
    }

    #[test]
    fn well_ordered_timeline_decomposes_exactly() {
        let stages = PipelineLatencies::fpga();
        let tl = QueryTimeline {
            tick_ts: ts(1_000),
            ready_at: ts(1_000) + stages.ingress(),
            issue: ts(5_000),
            completion: ts(305_000),
            dvfs_switch: Duration::from_nanos(10_000),
        };
        let b = tl.breakdown(&stages);
        assert_eq!(b.get(Stage::NetworkRx), stages.network_rx);
        assert_eq!(b.get(Stage::Parse), stages.parse);
        assert_eq!(b.get(Stage::BookUpdate), stages.book_update);
        assert_eq!(b.get(Stage::Offload), stages.offload);
        assert_eq!(
            b.get(Stage::QueueWait),
            tl.issue.since(ts(1_000) + stages.ingress())
        );
        assert_eq!(b.get(Stage::DvfsSwitch), Duration::from_nanos(10_000));
        assert_eq!(
            b.get(Stage::Inference),
            Duration::from_nanos(300_000 - 10_000)
        );
        assert_eq!(b.get(Stage::Egress), stages.egress());
        // The invariant: stage sum == order_out - tick_ts, exactly.
        assert_eq!(
            b.total(),
            (tl.completion + stages.egress()).since(tl.tick_ts)
        );
    }

    /// Offload absorbs whatever of the ingress gap the budget's first
    /// three stages leave: all of it under a zero budget, and the delay
    /// of a tick that arrived late under the FPGA one.
    #[test]
    fn zero_stamp_attributes_ingress_to_offload() {
        let zero = PipelineLatencies {
            network_rx: Duration::ZERO,
            parse: Duration::ZERO,
            book_update: Duration::ZERO,
            offload: Duration::ZERO,
            order_gen: Duration::from_nanos(400),
            network_tx: Duration::ZERO,
        };
        let tl = QueryTimeline {
            tick_ts: ts(0),
            ready_at: ts(700),
            issue: ts(700),
            completion: ts(10_700),
            dvfs_switch: Duration::ZERO,
        };
        let b = tl.breakdown(&zero);
        assert_eq!(b.get(Stage::Offload), Duration::from_nanos(700));
        assert_eq!(b.get(Stage::Inference), Duration::from_nanos(10_000));
        assert_eq!(b.total(), Duration::from_nanos(11_100));

        let fpga = PipelineLatencies::fpga();
        let late = Duration::from_nanos(2_500);
        let ready = ts(0) + late + fpga.ingress();
        let tl = QueryTimeline {
            ready_at: ready,
            issue: ready,
            ..tl
        };
        let b = tl.breakdown(&fpga);
        assert_eq!(b.get(Stage::Parse), fpga.parse);
        assert_eq!(b.get(Stage::Offload), fpga.offload + late);
        assert_eq!(b.total(), (tl.completion + fpga.egress()).since(tl.tick_ts));
    }

    #[test]
    fn pathological_orderings_still_sum_exactly() {
        // A rescale corner: completion landed before the nominal issue.
        let stages = PipelineLatencies::fpga();
        let tl = QueryTimeline {
            tick_ts: ts(1_000),
            ready_at: ts(1_705),
            issue: ts(9_000),
            completion: ts(2_000),
            dvfs_switch: Duration::from_nanos(50_000),
        };
        let b = tl.breakdown(&stages);
        assert_eq!(
            b.total(),
            (tl.completion + stages.egress()).since(tl.tick_ts)
        );
    }

    #[test]
    fn stage_names_are_stable() {
        let names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            [
                "network_rx",
                "parse",
                "book_update",
                "offload",
                "queue_wait",
                "dvfs_switch",
                "inference",
                "egress"
            ]
        );
    }
}
