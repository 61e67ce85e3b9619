//! Limit order books and a price/time-priority matching engine.
//!
//! This crate is the exchange-side substrate of the LightTrader
//! reproduction. It provides:
//!
//! * strongly typed market primitives ([`Price`], [`Qty`], [`Side`],
//!   [`OrderId`], [`Timestamp`], [`Symbol`]),
//! * [`LadderBook`], the contiguous, zero-steady-state-allocation book
//!   holding resting orders in price/time priority (its map-based oracle
//!   lives in `tests/`, not here),
//! * a [`MatchingEngine`] that accepts new,
//!   cancel, and replace orders and emits [`MarketEvent`]
//!   tick data exactly the way an exchange's market-data feed would,
//! * [`LobSnapshot`], the ten-level book view that the
//!   trading pipeline converts into DNN input feature maps (paper §II-B).
//!
//! # Example
//!
//! ```
//! use lt_lob::prelude::*;
//!
//! let mut engine = MatchingEngine::new(Symbol::new("ESU6"));
//! let ts = Timestamp::from_nanos(1);
//! engine.submit(NewOrder::limit(OrderId::new(1), Side::Bid, Price::new(5000), Qty::new(3)), ts);
//! engine.submit(NewOrder::limit(OrderId::new(2), Side::Ask, Price::new(5001), Qty::new(2)), ts);
//! let snap = engine.book().snapshot(10, ts);
//! assert_eq!(snap.best_bid().unwrap().price, Price::new(5000));
//! assert_eq!(snap.best_ask().unwrap().price, Price::new(5001));
//! ```

#![forbid(unsafe_code)]

pub mod events;
pub mod execution;
pub mod hash;
pub mod ladder;
pub mod matching;
pub mod order;
pub mod snapshot;
pub mod types;

pub use events::{BookDelta, MarketEvent, Trade};
pub use execution::{fill_ioc, FeeModel, Fill, FillModel, OrderIntent};
pub use hash::IdHashBuilder;
pub use ladder::{LadderBook, LevelView, PriceLadder};
pub use matching::{ExecutionReport, MatchOutcome, MatchingEngine, RejectReason};
pub use order::{NewOrder, Order, TimeInForce};
pub use snapshot::{LobSnapshot, SnapshotLevel};
pub use types::{OrderId, Price, Qty, Side, Symbol, Timestamp};

/// Convenient single-line import of every name a LOB user typically needs.
pub mod prelude {
    pub use crate::events::{BookDelta, MarketEvent, Trade};
    pub use crate::execution::{fill_ioc, FeeModel, Fill, FillModel, OrderIntent};
    pub use crate::ladder::{LadderBook, LevelView, PriceLadder};
    pub use crate::matching::{ExecutionReport, MatchOutcome, MatchingEngine, RejectReason};
    pub use crate::order::{NewOrder, Order, TimeInForce};
    pub use crate::snapshot::{LobSnapshot, SnapshotLevel};
    pub use crate::types::{OrderId, Price, Qty, Side, Symbol, Timestamp};
}
