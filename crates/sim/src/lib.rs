//! The back-test simulation framework (§IV-A).
//!
//! "Because evaluating the HFT systems under real-time stock traffic is
//! difficult, it is imperative to set up a reliable and re-runnable
//! simulation environment." This crate is that environment: a
//! discrete-event simulator that replays a [`lt_feed::TickTrace`] through
//! a system model, tracks every query's tick-to-trade against the
//! available time, and reports response/miss rates — with a power-
//! constraint option for the co-location scenarios.
//!
//! Every back-test runs on one shared core: [`engine`] is the
//! discrete-event engine (virtual clock, typed event queue, the
//! [`SimModel`] trait), [`metrics`] is the ledger every outcome is
//! counted in, one row per symbol shard, and [`telemetry`] decomposes
//! each answered query's tick-to-trade across the stages it crossed. Two system models
//! plug into it, matching the paper's evaluation:
//!
//! * [`lighttrader`] — the full system: offload-engine queue, 1–16
//!   accelerators with DVFS state, and the four scheduling policies of
//!   Fig. 13 (baseline / WS / DS / WS+DS);
//! * [`baseline`] — the GPU-based (CPU + NIC + V100) and FPGA-based
//!   (CPU + Alveo U250) comparison systems, profiled per §IV-B;
//! * [`traffic`] — the calibrated market-traffic preset and deadline
//!   whose single-accelerator response rates land on Fig. 11(b).
//!
//! [`ingress`] closes the loop with the wire: it pushes a trace through
//! two independently seeded lossy channels (the redundant A/B multicast
//! pair) and re-assembles the survivors by feed arbitration, so
//! back-tests can sweep packet-loss rates against tick-to-trade and
//! response-rate degradation deterministically.

#![forbid(unsafe_code)]

pub mod baseline;
pub mod config;
pub mod engine;
pub mod execution;
pub mod farm;
pub mod ingress;
pub mod lighttrader;
pub mod metrics;
pub mod multi;
pub mod telemetry;
pub mod traffic;

pub use baseline::{run_single_device, SingleDeviceSystem};
pub use config::{BacktestConfig, QUEUE_CAPACITY};
pub use engine::{EngineCtx, Event, EventQueue, PendingOrder, SimModel};
pub use execution::{precompute_signals, ExecutionConfig, ExecutionStats, SignalConfig};
pub use farm::{
    CellSummary, FarmCell, FarmFailures, FarmResults, FarmRunner, GridDeadline, SweepGrid,
};
pub use ingress::{degrade_trace, FeedReport, IngressFaults, IngressReport};
pub use lighttrader::run_lighttrader;
pub use lt_protocol::netem::FaultRates;
pub use metrics::{BacktestMetrics, ShardOutcomes, StageSummary, TierOutcomes};
pub use multi::run_multi_merged;
pub use telemetry::{QueryTimeline, Stage, StageBreakdown};
pub use traffic::{
    burst_storm_trace, cached_evaluation_session, evaluation_deadline, evaluation_trace,
    shared_trace_cache, EVALUATION_SEED,
};
