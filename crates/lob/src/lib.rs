//! Limit order books and a price/time-priority matching engine.
//!
//! This crate is the exchange-side substrate of the LightTrader
//! reproduction. It provides:
//!
//! * strongly typed market primitives ([`Price`], [`Qty`], [`Side`],
//!   [`OrderId`], [`Timestamp`], [`Symbol`]),
//! * a [`Book`] holding resting orders in price/time priority — the
//!   contiguous, zero-steady-state-allocation [`LadderBook`] on the hot
//!   path, with the map-based [`ReferenceBook`] kept as the behavioral
//!   oracle behind the shared [`BookStore`] trait,
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

pub mod book;
pub mod events;
pub mod execution;
pub mod hash;
pub mod ladder;
pub mod matching;
pub mod order;
pub mod snapshot;
pub mod store;
pub mod types;

/// The default hot-path book; the map-based oracle is [`ReferenceBook`].
pub type Book = ladder::LadderBook;

pub use book::{LevelView, ReferenceBook};
pub use events::{BookDelta, MarketEvent, Trade};
pub use execution::{fill_ioc, FeeModel, Fill, FillModel, OrderIntent};
pub use hash::IdHashBuilder;
pub use ladder::{LadderBook, PriceLadder};
pub use matching::{
    ExecutionReport, MatchOutcome, MatchingEngine, ReferenceMatchingEngine, RejectReason,
};
pub use order::{NewOrder, Order, TimeInForce};
pub use snapshot::{LobSnapshot, SnapshotLevel};
pub use store::BookStore;
pub use types::{OrderId, Price, Qty, Side, Symbol, Timestamp};

/// Convenient single-line import of every name a LOB user typically needs.
pub mod prelude {
    pub use crate::book::{LevelView, ReferenceBook};
    pub use crate::events::{BookDelta, MarketEvent, Trade};
    pub use crate::execution::{fill_ioc, FeeModel, Fill, FillModel, OrderIntent};
    pub use crate::ladder::{LadderBook, PriceLadder};
    pub use crate::matching::{
        ExecutionReport, MatchOutcome, MatchingEngine, ReferenceMatchingEngine, RejectReason,
    };
    pub use crate::order::{NewOrder, Order, TimeInForce};
    pub use crate::snapshot::{LobSnapshot, SnapshotLevel};
    pub use crate::store::BookStore;
    pub use crate::types::{OrderId, Price, Qty, Side, Symbol, Timestamp};
    pub use crate::Book;
}
