//! Wire protocols of the LightTrader trading pipeline.
//!
//! The paper's packet parser "decodes the packet data coded by the market
//! data protocol, such as simple binary encoding (SBE) used in Chicago
//! Mercantile Exchange (CME)" and its trading engine "supports the FIX
//! message protocol and CME iLink 3 order entry message format" (§III-A).
//! This crate implements from-scratch equivalents:
//!
//! * [`sbe`] — a little-endian, fixed-layout binary encoding of market data
//!   ticks ([`lt_lob::MarketEvent`]) with an 8-byte message header carrying
//!   block length / template id / schema id / version, mirroring CME MDP 3.0
//!   framing;
//! * [`ilink`] — a compact binary order-entry encoding (new / cancel /
//!   replace and execution-report acknowledgements);
//! * [`fix`] — classic `tag=value` FIX encoding of the same order messages,
//!   including the `10=` checksum trailer;
//! * [`framing`] — UDP-style market-data datagrams (channel sequence,
//!   packet time, message count, additive checksum) and wire-size
//!   accounting used by the latency model;
//! * [`netem`] — deterministic, seeded fault injection (drop / duplicate /
//!   reorder / delay / bit-corrupt) over encoded datagrams, used to drive
//!   the A/B feed arbitration experiments.
//!
//! All codecs round-trip losslessly; this is verified by unit tests and
//! property tests over arbitrary messages.

#![forbid(unsafe_code)]

pub mod error;
pub mod fix;
pub mod framing;
pub mod ilink;
pub mod netem;
pub mod sbe;

pub use error::DecodeError;
pub use fix::{FixDecoder, FixEncoder};
pub use framing::Datagram;
pub use ilink::{OrderMessage, OrderMessageKind};
pub use netem::{ChannelStats, Delivery, FaultRates, LossyChannel};
pub use sbe::{MessageHeader, SbeDecoder, SbeEncoder, SCHEMA_ID, SCHEMA_VERSION};
