//! # LightTrader
//!
//! A from-scratch Rust reproduction of **"LightTrader: A Standalone
//! High-Frequency Trading System with Deep Learning Inference
//! Accelerators and Proactive Scheduler"** (HPCA 2023).
//!
//! LightTrader is an AI-enabled HFT system: an FPGA trading pipeline
//! (packet parsing, local order book, offload engine, trading engine)
//! wrapped around custom CGRA AI accelerators, governed by a PPW-driven
//! workload scheduler (Algorithm 1) and DVFS power-distribution scheduler
//! (Algorithm 2), and evaluated through a re-runnable back-test
//! simulator. This crate is the public facade over the workspace:
//!
//! | area | crate | re-export |
//! |------|-------|-----------|
//! | order books & matching | `lt-lob` | [`lob`] |
//! | SBE / iLink3 / FIX codecs | `lt-protocol` | [`protocol`] |
//! | synthetic bursty market data | `lt-feed` | [`feed`] |
//! | BF16 tensors & the three DNNs | `lt-dnn` | [`dnn`] |
//! | accelerator latency/power profile | `lt-accel` | [`accel`] |
//! | Algorithms 1 & 2 | `lt-sched` | [`sched`] |
//! | FPGA trading pipeline | `lt-pipeline` | [`pipeline`] |
//! | back-test simulator | `lt-sim` | [`sim`] |
//!
//! [`experiments`] regenerates every table and figure of the paper's
//! evaluation; [`system`] offers a one-object end-to-end functional
//! LightTrader for applications, of one symbol shard or a fleet of N
//! ([`MultiSymbolTrader`] names the fleet).
//!
//! ## Quickstart
//!
//! ```
//! use lighttrader::prelude::*;
//!
//! // Generate half a second of bursty synthetic E-mini trading...
//! let session = SessionBuilder::normal_traffic().duration_secs(0.5).seed(1).build();
//! // ...and back-test a 4-accelerator LightTrader on it.
//! let cfg = BacktestConfig::new(ModelKind::VanillaCnn, 4, PowerCondition::Sufficient)
//!     .with_policy(Policy::Both);
//! let metrics = run_lighttrader(&session.trace, &cfg);
//! assert!(metrics.response_rate() > 0.5);
//! ```

#![forbid(unsafe_code)]

pub mod experiments;
pub mod report;
pub mod system;

pub use lt_accel as accel;
pub use lt_dnn as dnn;
pub use lt_feed as feed;
pub use lt_lob as lob;
pub use lt_pipeline as pipeline;
pub use lt_protocol as protocol;
pub use lt_sched as sched;
pub use lt_sim as sim;

pub use system::{LightTrader, LightTraderBuilder, MultiSymbolTrader, TickOutcome};

/// The names most applications need, in one import.
pub mod prelude {
    pub use crate::system::{LightTrader, LightTraderBuilder, MultiSymbolTrader, TickOutcome};
    pub use lt_accel::{AccelSpec, DeviceProfile, OperatingPoint, PowerCondition};
    pub use lt_dnn::{Model, ModelKind, Prediction, PriceDirection, Tensor};
    pub use lt_feed::{
        HawkesParams, MarketSession, MultiMarketSession, MultiSessionBuilder, SessionBuilder,
        SessionSpec, TickTrace, TraceCache,
    };
    pub use lt_lob::prelude::*;
    pub use lt_sched::Policy;
    pub use lt_sim::{
        run_lighttrader, run_multi, run_single_device, BacktestConfig, BacktestMetrics,
        ExecutionConfig, ExecutionStats, FarmResults, FarmRunner, GridDeadline, MultiMetrics,
        SignalConfig, SweepGrid,
    };
}
