//! Order representations accepted by the matching engine.

use crate::types::{OrderId, Price, Qty, Side, Timestamp};
use serde::{Deserialize, Serialize};

/// How long an order remains eligible to rest on the book.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum TimeInForce {
    /// Good-till-cancel: rests until filled or cancelled (the default).
    #[default]
    Gtc,
    /// Immediate-or-cancel: any unfilled remainder is cancelled instead of
    /// resting.
    Ioc,
    /// Fill-or-kill: either fills completely and immediately or is rejected
    /// without trading at all.
    Fok,
}

/// A new order as submitted by a market participant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NewOrder {
    /// Participant-assigned identifier; must be unique per engine.
    pub id: OrderId,
    /// Buy or sell.
    pub side: Side,
    /// Limit price in ticks.
    pub price: Price,
    /// Total quantity to trade.
    pub qty: Qty,
    /// Time-in-force policy.
    pub tif: TimeInForce,
}

impl NewOrder {
    /// Creates a good-till-cancel limit order.
    pub fn limit(id: OrderId, side: Side, price: Price, qty: Qty) -> Self {
        NewOrder {
            id,
            side,
            price,
            qty,
            tif: TimeInForce::Gtc,
        }
    }

    /// Creates an immediate-or-cancel limit order (used for aggressive
    /// "take" orders in the trading engine).
    pub fn ioc(id: OrderId, side: Side, price: Price, qty: Qty) -> Self {
        NewOrder {
            id,
            side,
            price,
            qty,
            tif: TimeInForce::Ioc,
        }
    }
}

/// An order resting on the book.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Order {
    /// Participant-assigned identifier.
    pub id: OrderId,
    /// Buy or sell.
    pub side: Side,
    /// Limit price in ticks.
    pub price: Price,
    /// Remaining (unfilled) quantity.
    pub remaining: Qty,
    /// Original submitted quantity.
    pub original: Qty,
    /// Engine arrival time; earlier orders at a level fill first.
    pub arrival: Timestamp,
    /// Monotone sequence number used to break arrival-time ties
    /// deterministically.
    pub seq: u64,
}

#[cfg(test)]
impl Order {
    /// Quantity filled so far.
    fn filled(&self) -> Qty {
        self.original - self.remaining
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_tif() {
        let id = OrderId::new(7);
        let p = Price::new(10);
        let q = Qty::new(5);
        assert_eq!(NewOrder::limit(id, Side::Bid, p, q).tif, TimeInForce::Gtc);
        assert_eq!(NewOrder::ioc(id, Side::Bid, p, q).tif, TimeInForce::Ioc);
        assert_eq!(TimeInForce::default(), TimeInForce::Gtc);
    }

    #[test]
    fn filled_tracks_remaining() {
        let o = Order {
            id: OrderId::new(1),
            side: Side::Ask,
            price: Price::new(10),
            remaining: Qty::new(2),
            original: Qty::new(5),
            arrival: Timestamp::ZERO,
            seq: 0,
        };
        assert_eq!(o.filled(), Qty::new(3));
    }
}
