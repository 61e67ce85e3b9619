//! The FPGA trading pipeline (§III-A).
//!
//! The trading pipeline is everything around the DNN: "market data
//! acquisition, packet processing, LOB look-up, and order generation".
//! This crate implements each stage functionally:
//!
//! * [`parser`] — the packet parser: datagram intake, checksum and
//!   sequence-gap tracking, SBE decoding;
//! * [`seq`] — channel-sequence tracking with outstanding-gap ranges,
//!   late-fill recovery, and wrap-safe widening;
//! * [`arbiter`] — A/B feed arbitration: first valid copy of each
//!   sequence wins, gaps on one feed fill from the other, and per-feed
//!   health plus recovered/lost accounting survive the session;
//! * [`local_book`] — the depth-limited local LOB mirror the HFT system
//!   maintains from tick data;
//! * [`multi_offload`] — the queueing half of Fig. 5's offload engine
//!   over N ≥ 1 instruments: [`TicketQueue`], the back-test's one
//!   coalesced ticket queue (warm-up, admission, tick ids, stale-ticket
//!   management, and the per-shard counts the back-test's ledger reads
//!   at run end), so a single accelerator batch mixes queries from many
//!   instruments; and [`MultiOffload`], a feature window per shard in
//!   front of it, which only the benchmark and the zero-alloc gates use;
//! * [`offload`] — the staging half: the [`FeatureWindow`] (Z-score
//!   normalization against historical statistics, BF16 conversion, the
//!   feature-vector FIFO that assembles `[window, 40]` input tensors),
//!   which the functional traders read directly since they never queue a
//!   query; the [`TensorTicket`]; and [`OffloadEngine`], a window in
//!   front of a one-shard queue, kept for the same callers as
//!   [`MultiOffload`];
//! * [`trading`] — the trading engine, the one risk path: every gate
//!   (kill switch, rate limiter, confidence, book and spread, position
//!   cap) between an inference result and an order, in one order, with
//!   the [`Portfolio`] ledger and iLink3/FIX encoding. The functional
//!   trader calls it per prediction; each back-test shard owns one and
//!   settles its arriving orders through it;
//! * [`rate_limit`] — the exchange messaging-rate window and the latching
//!   kill switch the trading engine holds;
//! * [`portfolio`] — the half-tick ledger of position, cash and fees;
//! * [`stages`] — the per-stage latency budget of the conventional
//!   pipeline (~1 µs end-to-end on an FPGA, §II-A), which the simulator
//!   holds as configuration.

#![forbid(unsafe_code)]

pub mod arbiter;
pub mod local_book;
pub mod multi_offload;
pub mod offload;
pub mod parser;
pub mod portfolio;
pub mod rate_limit;
pub mod seq;
pub mod stages;
pub mod trading;

pub use arbiter::{ArbiterStats, FeedArbiter, FeedHealth, FeedId};
pub use local_book::LocalBook;
pub use multi_offload::{MultiOffload, ShardCounters, ShardTicket, TicketQueue};
pub use offload::{FeatureWindow, OffloadEngine, TensorTicket};
pub use parser::{PacketParser, ParserStats};
pub use portfolio::Portfolio;
pub use rate_limit::{KillSwitch, OrderRateLimiter};
pub use seq::{SeqObservation, SeqTracker};
pub use stages::PipelineLatencies;
pub use trading::{RiskLimits, TradingEngine};
