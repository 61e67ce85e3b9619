//! The GPU-based and FPGA-based comparison systems (§II-D, §IV-A).
//!
//! Both baselines are profiled single-device systems: a fixed per-model
//! inference latency (no batching — "most job batch sizes in AI-enabled
//! HFT are set to single"), a software or FPGA conventional pipeline, and
//! a ticket queue with the same stale-management as LightTrader's.
//! Latency profiles are scaled from LightTrader's measured anchors by
//! per-model factors whose averages equal the paper's reported
//! speed-ups (13.92x over GPU, 7.28x over FPGA); device powers are
//! calibrated so the Fig. 11(c) energy-efficiency ratios (23.6x / 11.6x)
//! come out.

use crate::config::QUEUE_CAPACITY;
use crate::engine::{self, EngineCtx, Event, PendingOrder, SimModel};
use crate::metrics::BacktestMetrics;
use crate::telemetry::QueryTimeline;
use lt_dnn::ModelKind;
use lt_feed::{TickRecord, TickTrace};
use lt_lob::Timestamp;
use lt_pipeline::{PipelineLatencies, TicketQueue};
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// A profiled single-device system.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SingleDeviceSystem {
    /// Display name ("GPU-based" / "FPGA-based").
    pub name: &'static str,
    /// Batch-1 inference latency per model.
    latency_us: [f64; 3],
    /// Average device power during inference, in watts.
    pub power_w: f64,
    /// Conventional-pipeline stage costs.
    pub stages: PipelineLatencies,
}

impl SingleDeviceSystem {
    /// The GPU-based system: i7-11700 + X2522 NIC + Tesla V100.
    ///
    /// Per-model slowdowns (16.0x, 14.5x, 11.26x) average the paper's
    /// 13.92x; power is calibrated to Fig. 11(c) (see module docs).
    pub fn gpu() -> Self {
        SingleDeviceSystem {
            name: "GPU-based",
            latency_us: [119.0 * 16.0, 160.0 * 14.5, 296.0 * 11.26],
            power_w: 41.9,
            stages: PipelineLatencies::software(),
        }
    }

    /// The FPGA-based system: i7-11700 + Alveo U250.
    ///
    /// Per-model slowdowns (8.2x, 7.3x, 6.34x) average the paper's 7.28x.
    pub fn fpga() -> Self {
        SingleDeviceSystem {
            name: "FPGA-based",
            latency_us: [119.0 * 8.2, 160.0 * 7.3, 296.0 * 6.34],
            power_w: 39.4,
            stages: PipelineLatencies::fpga(),
        }
    }

    /// A custom profiled device serving every model kind at the same
    /// latency — used by the Fig. 8 model-complexity ladder (M1..M5).
    pub fn custom(name: &'static str, latency_us: f64, power_w: f64) -> Self {
        SingleDeviceSystem {
            name,
            latency_us: [latency_us; 3],
            power_w,
            stages: PipelineLatencies::fpga(),
        }
    }

    /// Batch-1 inference latency for `kind`.
    pub fn inference_latency(&self, kind: ModelKind) -> Duration {
        let us = match kind {
            ModelKind::VanillaCnn => self.latency_us[0],
            ModelKind::TransLob => self.latency_us[1],
            ModelKind::DeepLob => self.latency_us[2],
        };
        Duration::from_nanos((us * 1_000.0) as u64)
    }

    /// Effective TFLOPS/W at batch 1 (Fig. 11(c) metric), using the same
    /// per-inference workload convention as the accelerator profile.
    pub fn effective_tflops_per_watt(&self, kind: ModelKind) -> f64 {
        let ops = lt_accel::latency::LatencyModel::ops_per_inference(kind);
        let t = self.inference_latency(kind).as_secs_f64();
        ops / t / 1e12 / self.power_w
    }
}

/// The single-device back-test as a [`SimModel`]: one FIFO device, no
/// batching, stale management at issue time.
struct SingleDeviceModel<'a> {
    system: &'a SingleDeviceSystem,
    kind: ModelKind,
    service: Duration,
    egress: Duration,
    stale_budget: Duration,
    t_avail: Duration,
    /// One instrument: every tick is shard 0.
    queue: TicketQueue,
    /// The device is free from this time onward.
    device_free: Timestamp,
}

impl SingleDeviceModel<'_> {
    /// Issues queued queries whose start time has arrived; schedules a
    /// [`Event::BatchIssue`] wake-up when the device is idle but the
    /// oldest ticket is not ready yet (the completion event resumes the
    /// busy case).
    fn try_issue(&mut self, ctx: &mut EngineCtx) {
        let now = ctx.now;
        loop {
            // Work through queued tickets while the device can start.
            let start = self
                .device_free
                .max(self.queue.oldest().map_or(now, |t| t.ticket.ready_at));
            if start > now {
                if self.device_free <= now {
                    // Idle device waiting on ticket readiness: wake up
                    // exactly then. (A busy device resumes at its
                    // completion event instead.)
                    ctx.queue.push_at(start, Event::BatchIssue { aid: 0 });
                }
                break;
            }
            // Stale management at issue time.
            self.queue.drop_stale(start, self.stale_budget);
            let Some(ticket) = self.queue.pop_ticket().map(|t| t.ticket) else {
                break;
            };
            let issue = start.max(ticket.ready_at);
            let completion = issue + self.service;
            ctx.metrics.batches += 1;
            ctx.metrics.batched_queries += 1;
            self.device_free = completion;
            let breakdown = QueryTimeline {
                tick_ts: ticket.tick_ts,
                ready_at: ticket.ready_at,
                issue,
                completion,
                dvfs_switch: Duration::ZERO,
            }
            .breakdown(&self.system.stages);
            ctx.queue.push_at(
                completion + self.egress,
                Event::OrderOut {
                    orders: vec![PendingOrder {
                        tick_ts: ticket.tick_ts,
                        deadline: ticket.tick_ts + self.t_avail,
                        breakdown,
                        shard: 0,
                        tier: self.kind,
                        tick_id: ticket.tick_id,
                    }],
                },
            );
            ctx.queue
                .push_at(completion, Event::BatchComplete { aid: 0 });
        }
    }
}

impl SimModel for SingleDeviceModel<'_> {
    fn on_tick(&mut self, tick: &TickRecord, ctx: &mut EngineCtx) {
        self.queue
            .on_tick(0, tick.snapshot.ts, tick.ts + self.system.stages.ingress());
        self.try_issue(ctx);
    }

    fn on_batch_issue(&mut self, _aid: usize, ctx: &mut EngineCtx) {
        self.try_issue(ctx);
    }

    fn on_batch_complete(&mut self, _aid: usize, ctx: &mut EngineCtx) {
        // A single FIFO device never re-times a batch, so every
        // completion is due when it fires.
        self.try_issue(ctx);
    }

    fn on_order_scored(&mut self, order: &PendingOrder, ctx: &mut EngineCtx) {
        // A single device serves one fixed model: never degraded.
        ctx.metrics
            .record_tier(order.shard, order.tier, order.tier != self.kind);
    }

    fn on_finish(&mut self, ctx: &mut EngineCtx) {
        // Every ticket was served or dropped stale before the events
        // drained: an idle device always wakes for the oldest one.
        ctx.metrics.read_queue(&self.queue);
        ctx.metrics.energy_j =
            self.system.power_w * self.service.as_secs_f64() * ctx.metrics.batches as f64;
    }
}

/// Replays `trace` through a single-device system and reports metrics.
///
/// The device serves queries one at a time in FIFO order; queued queries
/// whose deadline lapses are dropped (stale management); the queue holds
/// [`QUEUE_CAPACITY`] tickets, like LightTrader's.
pub fn run_single_device(
    trace: &TickTrace,
    system: &SingleDeviceSystem,
    kind: ModelKind,
    t_avail: Duration,
    window: usize,
) -> BacktestMetrics {
    let service = system.inference_latency(kind);
    let egress = system.stages.egress();
    let mut model = SingleDeviceModel {
        system,
        kind,
        service,
        egress,
        stale_budget: t_avail.saturating_sub(egress + service),
        t_avail,
        queue: TicketQueue::new(1, window, QUEUE_CAPACITY),
        device_free: Timestamp::ZERO,
    };
    engine::run(&mut model, trace, 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lt_feed::{HawkesParams, SessionBuilder};

    #[test]
    fn latency_factors_average_to_paper_speedups() {
        let lt = [119.0, 160.0, 296.0];
        let gpu = SingleDeviceSystem::gpu();
        let fpga = SingleDeviceSystem::fpga();
        let avg = |sys: &SingleDeviceSystem| {
            ModelKind::ALL
                .iter()
                .zip(lt)
                .map(|(k, base)| sys.inference_latency(*k).as_nanos() as f64 / (base * 1_000.0))
                .sum::<f64>()
                / 3.0
        };
        assert!((avg(&gpu) - 13.92).abs() < 0.01, "gpu avg {:.3}", avg(&gpu));
        assert!(
            (avg(&fpga) - 7.28).abs() < 0.01,
            "fpga avg {:.3}",
            avg(&fpga)
        );
    }

    #[test]
    fn gpu_slower_than_fpga_slower_than_nothing() {
        for kind in ModelKind::ALL {
            assert!(
                SingleDeviceSystem::gpu().inference_latency(kind)
                    > SingleDeviceSystem::fpga().inference_latency(kind)
            );
        }
    }

    #[test]
    fn calm_traffic_yields_high_response_rate() {
        let trace = SessionBuilder::new(HawkesParams::new(200.0, 30.0, 100.0))
            .duration_secs(5.0)
            .seed(1)
            .build()
            .trace;
        let m = run_single_device(
            &trace,
            &SingleDeviceSystem::fpga(),
            ModelKind::VanillaCnn,
            Duration::from_millis(5),
            10,
        );
        assert!(m.total() > 100);
        assert!(
            m.response_rate() > 0.9,
            "calm traffic, fast system: {:.3}",
            m.response_rate()
        );
    }

    #[test]
    fn overload_yields_low_response_rate() {
        // Stressed traffic (thousands of ticks/s) vs a 3.3 ms service
        // time: the GPU system must miss most queries.
        let trace = SessionBuilder::new(HawkesParams::new(300.0, 270.0, 300.0))
            .duration_secs(2.0)
            .seed(2)
            .build()
            .trace;
        let m = run_single_device(
            &trace,
            &SingleDeviceSystem::gpu(),
            ModelKind::DeepLob,
            Duration::from_millis(5),
            10,
        );
        assert!(m.response_rate() < 0.2, "got {:.3}", m.response_rate());
        assert!(m.total() > 1_000);
    }

    #[test]
    fn deterministic_replay() {
        let trace = SessionBuilder::new(HawkesParams::new(200.0, 30.0, 100.0))
            .duration_secs(2.0)
            .seed(3)
            .build()
            .trace;
        let run = || {
            run_single_device(
                &trace,
                &SingleDeviceSystem::gpu(),
                ModelKind::TransLob,
                Duration::from_millis(5),
                10,
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a.responded, b.responded);
        assert_eq!(a.total(), b.total());
    }
}
