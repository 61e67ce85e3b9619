//! Synthetic bursty market data for re-runnable back-tests.
//!
//! The paper back-tests LightTrader on CME E-mini S&P 500 tick data whose
//! defining property is *bursty, event-based arrival*: "the time interval
//! between ticks dynamically varies from a few microseconds to a few
//! seconds even if only a single symbol is subscribed" (§II-C). That data
//! is proprietary, so this crate substitutes a statistically faithful
//! synthetic feed:
//!
//! * [`hawkes`] — a self-exciting Hawkes point process (the standard model
//!   for high-frequency order-flow clustering) that generates tick arrival
//!   times with the µs-to-seconds dynamic range the scheduler experiments
//!   require;
//! * [`agents`] — a zero-intelligence agent flow that converts arrival
//!   times into order actions (adds, cancels, aggressive takes) against a
//!   real [`lt_lob::MatchingEngine`], producing genuine LOB evolution;
//! * [`trace`] — a serializable [`TickTrace`] of
//!   timestamped ten-level snapshots so every experiment is re-runnable
//!   bit-for-bit (the paper's "reliable and re-runnable simulation
//!   framework", §IV-A);
//! * [`stats`] — historical mean/std per feature for the offload engine's
//!   Z-score normalization (§III-A);
//! * [`session`] — one-call builders combining all of the above, with
//!   presets calibrated for the evaluation scenarios.

#![forbid(unsafe_code)]

pub mod agents;
pub mod bursts;
pub mod cache;
pub mod hawkes;
pub mod multi;
pub mod session;
pub mod stats;
pub mod trace;
pub mod trace_io;

pub use agents::{AgentFlow, AgentParams};
pub use bursts::FlashParams;
pub use cache::{CacheStats, SessionArtifact, SessionSpec, TraceCache};
pub use hawkes::{HawkesParams, HawkesProcess};
pub use multi::{MultiMarketSession, MultiSessionBuilder};
pub use session::{MarketSession, SessionBuilder};
pub use stats::NormStats;
pub use trace::{TickRecord, TickTrace, TraceStats};
pub use trace_io::TraceIoError;
