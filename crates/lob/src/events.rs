//! Market (tick) events emitted by the matching engine.
//!
//! Every change to the book — an add, a modify, a delete, or a trade —
//! produces one event. These are the "tick data" of the paper: the market
//! data feed serializes them (see `lt-protocol`) and the HFT system's packet
//! parser decodes them to maintain its local book (§II-A).

use crate::types::{OrderId, Price, Qty, Side, Timestamp};
use serde::{Deserialize, Serialize};

/// A book-change notification (add / modify / delete of resting liquidity).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BookDelta {
    /// New resting quantity appeared at a level.
    Add {
        /// Resting order id.
        id: OrderId,
        /// Book side.
        side: Side,
        /// Level price.
        price: Price,
        /// Added quantity.
        qty: Qty,
    },
    /// A resting order's remaining quantity decreased (partial fill or
    /// cancel-replace downsize).
    Modify {
        /// Resting order id.
        id: OrderId,
        /// Book side.
        side: Side,
        /// Level price.
        price: Price,
        /// New remaining quantity.
        remaining: Qty,
    },
    /// A resting order left the book (filled or cancelled).
    Delete {
        /// Resting order id.
        id: OrderId,
        /// Book side.
        side: Side,
        /// Level price.
        price: Price,
    },
}

/// A completed trade between an incoming order and a resting order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Trade {
    /// The aggressing (incoming) order.
    pub taker: OrderId,
    /// The resting order that was hit.
    pub maker: OrderId,
    /// Execution price (the resting order's price).
    pub price: Price,
    /// Executed quantity.
    pub qty: Qty,
    /// Side of the *aggressor* — `Bid` means a buyer lifted the offer.
    pub aggressor: Side,
}

/// One tick of market data: a timestamped book change or trade.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MarketEvent {
    /// Exchange sequence number (gap detection at the parser).
    pub seq: u64,
    /// Exchange timestamp.
    pub ts: Timestamp,
    /// What happened.
    pub kind: MarketEventKind,
}

/// The payload of a [`MarketEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MarketEventKind {
    /// Book liquidity changed.
    Book(BookDelta),
    /// A trade printed.
    Trade(Trade),
}

#[cfg(test)]
impl MarketEvent {
    /// The trade payload, if this event is a trade.
    pub(crate) fn as_trade(&self) -> Option<&Trade> {
        match &self.kind {
            MarketEventKind::Trade(t) => Some(t),
            MarketEventKind::Book(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_discriminate_kinds() {
        let trade = MarketEvent {
            seq: 1,
            ts: Timestamp::from_nanos(10),
            kind: MarketEventKind::Trade(Trade {
                taker: OrderId::new(2),
                maker: OrderId::new(1),
                price: Price::new(100),
                qty: Qty::new(1),
                aggressor: Side::Bid,
            }),
        };
        assert!(trade.as_trade().is_some());

        let add = MarketEvent {
            seq: 2,
            ts: Timestamp::from_nanos(11),
            kind: MarketEventKind::Book(BookDelta::Add {
                id: OrderId::new(3),
                side: Side::Ask,
                price: Price::new(101),
                qty: Qty::new(4),
            }),
        };
        assert!(add.as_trade().is_none());
    }
}
