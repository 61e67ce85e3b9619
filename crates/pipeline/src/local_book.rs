//! The HFT system's local order-book mirror.
//!
//! "The HFT maintains a local LOB which represents a few lowest levels of
//! the global LOB to relieve the storage and management overhead"
//! (§II-A). [`LocalBook`] consumes the decoded tick stream and keeps an
//! aggregated per-level view plus the per-order index needed to apply
//! modifies and deletes.
//!
//! The per-level aggregates live in contiguous [`PriceLadder`]s rather
//! than `BTreeMap`s: after the price band warms up, applying a tick and
//! extracting a snapshot ([`LocalBook::snapshot_into`]) performs no heap
//! allocation — this is the first hop of the zero-alloc tick path proven
//! in `tests/zero_alloc.rs`. The feature row is read off that snapshot
//! ([`LobSnapshot::write_features`]), which the trading engine needs
//! anyway.

use lt_lob::events::MarketEventKind;
use lt_lob::IdHashBuilder;
use lt_lob::{
    BookDelta, LobSnapshot, MarketEvent, OrderId, Price, PriceLadder, Qty, Side, Timestamp,
};
use std::collections::HashMap;

/// A depth-limited mirror of the exchange book, maintained from ticks.
#[derive(Debug, Clone)]
pub struct LocalBook {
    bids: PriceLadder,
    asks: PriceLadder,
    orders: HashMap<OrderId, (Side, Price, Qty), IdHashBuilder>,
    /// The capacity `orders` was last reserved to: at least twice its
    /// live count. A rehash when deletion tombstones have used up the free
    /// slots then clears them in place; over half full, it would grow the
    /// table instead, an allocation long after warm-up.
    reserved: usize,
    out_of_span: u64,
}

impl Default for LocalBook {
    fn default() -> Self {
        Self::new()
    }
}

impl LocalBook {
    /// Creates an empty mirror.
    pub fn new() -> Self {
        LocalBook {
            bids: PriceLadder::new(Side::Bid),
            asks: PriceLadder::new(Side::Ask),
            orders: HashMap::default(),
            reserved: 0,
            out_of_span: 0,
        }
    }

    /// Adds ignored because their price lay further from the side's
    /// resting band than a ladder may span.
    pub fn out_of_span(&self) -> u64 {
        self.out_of_span
    }

    /// Best bid price.
    pub fn best_bid(&self) -> Option<Price> {
        self.bids.best_price()
    }

    /// Best ask price.
    pub fn best_ask(&self) -> Option<Price> {
        self.asks.best_price()
    }

    /// Applies one tick to the mirror.
    ///
    /// Unknown deletes/modifies (e.g. after joining mid-session) are
    /// ignored rather than treated as fatal, matching real feed handlers;
    /// so is an add priced out of the ladder's span, which is counted
    /// ([`Self::out_of_span`]).
    pub fn apply(&mut self, event: &MarketEvent) {
        // A trade print leaves the mirror as it is.
        if let MarketEventKind::Book(delta) = &event.kind {
            self.apply_delta(delta);
        }
    }

    fn apply_delta(&mut self, delta: &BookDelta) {
        match *delta {
            BookDelta::Add {
                id,
                side,
                price,
                qty,
            } => {
                if self.side_mut(side).deposit(price, qty) {
                    let live = self.orders.len() + 1;
                    if 2 * live > self.reserved {
                        self.orders.reserve(2 * live - self.orders.len());
                        self.reserved = self.orders.capacity();
                    }
                    self.orders.insert(id, (side, price, qty));
                } else {
                    self.out_of_span += 1;
                }
            }
            BookDelta::Modify {
                id,
                side,
                price,
                remaining,
            } => {
                let Some(entry) = self.orders.get_mut(&id) else {
                    return;
                };
                let old = entry.2;
                entry.2 = remaining;
                if remaining.is_zero() {
                    self.orders.remove(&id);
                }
                // level = level - old + remaining, never below zero; the
                // ladder drops the level when it reaches zero and ignores
                // prices it no longer tracks, exactly like the map did.
                self.side_mut(side).rescale(price, old, remaining);
            }
            BookDelta::Delete { id, side, price } => {
                let Some((_, _, qty)) = self.orders.remove(&id) else {
                    return;
                };
                self.side_mut(side).withdraw(price, qty);
            }
        }
    }

    fn side_mut(&mut self, side: Side) -> &mut PriceLadder {
        match side {
            Side::Bid => &mut self.bids,
            Side::Ask => &mut self.asks,
        }
    }

    /// Refills `out` with the `depth`-level snapshot the offload engine
    /// consumes, reusing its level buffers — the allocation-free path the
    /// tick loop uses.
    pub fn snapshot_into(&self, depth: usize, ts: Timestamp, out: &mut LobSnapshot) {
        out.fill_from_ladders(depth, ts, &self.bids, &self.asks);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lt_lob::snapshot::SnapshotLevel;

    /// `book`'s `depth`-level snapshot at `ts`, into a fresh buffer.
    fn snapshot_of(book: &LocalBook, depth: usize, ts: Timestamp) -> LobSnapshot {
        let mut out = LobSnapshot::default();
        book.snapshot_into(depth, ts, &mut out);
        out
    }

    fn add(seq: u64, id: u64, side: Side, price: i64, qty: u64) -> MarketEvent {
        MarketEvent {
            seq,
            ts: Timestamp::from_nanos(seq),
            kind: MarketEventKind::Book(BookDelta::Add {
                id: OrderId::new(id),
                side,
                price: Price::new(price),
                qty: Qty::new(qty),
            }),
        }
    }

    fn delete(seq: u64, id: u64, side: Side, price: i64) -> MarketEvent {
        MarketEvent {
            seq,
            ts: Timestamp::from_nanos(seq),
            kind: MarketEventKind::Book(BookDelta::Delete {
                id: OrderId::new(id),
                side,
                price: Price::new(price),
            }),
        }
    }

    #[test]
    fn adds_aggregate_per_level() {
        let mut book = LocalBook::new();
        book.apply(&add(1, 1, Side::Bid, 99, 5));
        book.apply(&add(2, 2, Side::Bid, 99, 7));
        book.apply(&add(3, 3, Side::Ask, 101, 2));
        let snap = snapshot_of(&book, 10, Timestamp::from_nanos(3));
        assert_eq!(snap.best_bid().unwrap().qty, Qty::new(12));
        assert_eq!(snap.best_ask().unwrap().price, Price::new(101));
    }

    #[test]
    fn delete_removes_order_quantity() {
        let mut book = LocalBook::new();
        book.apply(&add(1, 1, Side::Bid, 99, 5));
        book.apply(&add(2, 2, Side::Bid, 99, 7));
        book.apply(&delete(3, 1, Side::Bid, 99));
        let snap = snapshot_of(&book, 10, Timestamp::from_nanos(3));
        assert_eq!(snap.best_bid().unwrap().qty, Qty::new(7));
        // Deleting the last order clears the level.
        book.apply(&delete(4, 2, Side::Bid, 99));
        assert_eq!(book.best_bid(), None);
    }

    #[test]
    fn unknown_delete_is_ignored() {
        let mut book = LocalBook::new();
        book.apply(&delete(1, 42, Side::Ask, 101));
        assert_eq!(book.best_ask(), None);
    }

    #[test]
    fn snapshot_depth_limits_levels() {
        let mut book = LocalBook::new();
        for (i, p) in (90..110).enumerate() {
            book.apply(&add(i as u64, i as u64 + 1, Side::Bid, p, 1));
        }
        let snap = snapshot_of(&book, 3, Timestamp::ZERO);
        assert_eq!(snap.bids.len(), 3);
        assert_eq!(snap.bids[0].price, Price::new(109));
    }

    fn modify(seq: u64, id: u64, side: Side, price: i64, remaining: u64) -> MarketEvent {
        MarketEvent {
            seq,
            ts: Timestamp::from_nanos(seq),
            kind: MarketEventKind::Book(BookDelta::Modify {
                id: OrderId::new(id),
                side,
                price: Price::new(price),
                remaining: Qty::new(remaining),
            }),
        }
    }

    #[test]
    fn snapshot_into_reuses_buffers_and_matches_snapshot() {
        let mut book = LocalBook::new();
        for (i, p) in (95..105).enumerate() {
            book.apply(&add(i as u64, i as u64 + 1, Side::Bid, p, 2));
            book.apply(&add(i as u64 + 50, i as u64 + 51, Side::Ask, p + 20, 3));
        }
        let mut reused = LobSnapshot::default();
        // Pre-dirty the buffers to prove the refill clears them.
        reused.bids.push(SnapshotLevel {
            price: Price::new(1),
            qty: Qty::new(1),
        });
        for depth in [1usize, 3, 10, 20] {
            let ts = Timestamp::from_nanos(depth as u64);
            book.snapshot_into(depth, ts, &mut reused);
            assert_eq!(reused, snapshot_of(&book, depth, ts), "depth {depth}");
        }
    }

    #[test]
    fn modify_of_known_order_rescales_level() {
        let mut book = LocalBook::new();
        book.apply(&add(1, 1, Side::Ask, 101, 5));
        book.apply(&add(2, 2, Side::Ask, 101, 7));
        book.apply(&modify(3, 1, Side::Ask, 101, 2));
        let snap = snapshot_of(&book, 10, Timestamp::ZERO);
        assert_eq!(snap.best_ask().unwrap().qty, Qty::new(9));
        // Modify-to-zero drops the order; level keeps the survivor.
        book.apply(&modify(4, 1, Side::Ask, 101, 0));
        assert_eq!(
            snapshot_of(&book, 10, Timestamp::ZERO)
                .best_ask()
                .unwrap()
                .qty,
            Qty::new(7)
        );
        // Unknown modify is ignored.
        book.apply(&modify(5, 42, Side::Ask, 101, 1));
        assert_eq!(
            snapshot_of(&book, 10, Timestamp::ZERO)
                .best_ask()
                .unwrap()
                .qty,
            Qty::new(7)
        );
    }

    /// The mirror tracks the matching engine exactly for add/delete flows.
    #[test]
    fn mirror_matches_matching_engine() {
        use lt_lob::prelude::*;
        let mut engine = MatchingEngine::new(Symbol::new("ESU6"));
        let mut mirror = LocalBook::new();
        let ts = Timestamp::from_nanos(1);
        let actions: Vec<NewOrder> = (0..40)
            .map(|i| {
                let side = if i % 2 == 0 { Side::Bid } else { Side::Ask };
                let i_mod = (i % 5) as i64;
                let price = if i % 2 == 0 { 100 - i_mod } else { 101 + i_mod };
                NewOrder::limit(
                    OrderId::new(i + 1),
                    side,
                    Price::new(price),
                    Qty::new(1 + i % 3),
                )
            })
            .collect();
        for order in actions {
            for e in engine.submit(order, ts).events {
                mirror.apply(&e);
            }
        }
        // Cancel a few.
        for id in [2u64, 5, 8] {
            for e in engine.cancel(OrderId::new(id), ts).events {
                mirror.apply(&e);
            }
        }
        // Cross the book so trades, modifies, and deletes all flow.
        let sweep = NewOrder::limit(OrderId::new(100), Side::Bid, Price::new(103), Qty::new(5));
        for e in engine.submit(sweep, ts).events {
            mirror.apply(&e);
        }
        let truth = engine.book().snapshot(10, ts);
        let local = snapshot_of(&mirror, 10, ts);
        assert_eq!(truth, local);
    }
}
