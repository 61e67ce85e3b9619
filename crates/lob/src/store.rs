//! The storage contract behind the matching engine.
//!
//! [`BookStore`] abstracts over the two resting-book implementations in
//! this crate — the cache-friendly [`LadderBook`](crate::ladder::LadderBook)
//! used on the hot path and the map-based
//! [`ReferenceBook`](crate::book::ReferenceBook) kept as the behavioral
//! oracle — so the matching engine and the differential property tests can
//! drive either through one interface.

use crate::book::LevelView;
use crate::order::Order;
use crate::snapshot::{LobSnapshot, SnapshotLevel};
use crate::types::{OrderId, Price, Qty, Side, Timestamp};

/// Resting-order storage in price/time priority.
///
/// The mutating methods (`insert`, `remove`, `fill_front`) are
/// exchange-internal: they are normally driven by
/// [`MatchingEngine`](crate::matching::MatchingEngine), which enforces the
/// never-crossed invariant around them. Read methods mirror the public book
/// API.
///
/// `for_each_level` is the allocation-free primitive every depth query is
/// built on; `levels`/`snapshot` are thin wrappers that collect it into
/// containers for callers that want owned views.
pub trait BookStore: Default {
    /// Number of resting orders across both sides.
    fn len(&self) -> usize;

    /// Highest resting bid price, if any.
    fn best_bid(&self) -> Option<Price>;

    /// Lowest resting ask price, if any.
    fn best_ask(&self) -> Option<Price>;

    /// Aggregate resting quantity at `price` on `side`.
    fn qty_at(&self, side: Side, price: Price) -> Qty;

    /// Looks up a resting order by id.
    fn order(&self, id: OrderId) -> Option<&Order>;

    /// True if an order with `id` currently rests on the book.
    fn contains(&self, id: OrderId) -> bool;

    /// Visits the best `depth` levels of `side` from most to least
    /// aggressive without allocating.
    fn for_each_level<F: FnMut(LevelView)>(&self, side: Side, depth: usize, f: F);

    /// Inserts a resting order at the back of its price-level queue.
    ///
    /// # Panics
    ///
    /// Panics if an order with the same id already rests on the book; the
    /// matching engine rejects duplicates before insertion.
    fn insert(&mut self, order: Order);

    /// Removes a resting order, returning it if present.
    fn remove(&mut self, id: OrderId) -> Option<Order>;

    /// Peeks at the front (oldest) order at the best level of `side`.
    fn front(&self, side: Side) -> Option<&Order>;

    /// Reduces the front order at the best level of `side` by `fill`,
    /// removing it when fully filled. Returns the order's id.
    ///
    /// # Panics
    ///
    /// Panics if the side is empty or `fill` exceeds the front order's
    /// remaining quantity.
    fn fill_front(&mut self, side: Side, fill: Qty) -> OrderId;

    /// Total resting quantity on `side` at prices that cross `limit`
    /// (used for fill-or-kill feasibility checks).
    fn crossable_qty(&self, side: Side, limit: Price) -> Qty;

    /// True when no orders rest on either side.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Best price on `side`, if any.
    fn best(&self, side: Side) -> Option<Price> {
        match side {
            Side::Bid => self.best_bid(),
            Side::Ask => self.best_ask(),
        }
    }

    /// Mid price in half-ticks (`bid + ask`), or `None` if either side is
    /// empty. Returned doubled so that it stays an exact integer.
    fn mid_price_x2(&self) -> Option<i64> {
        Some(self.best_bid()?.ticks() + self.best_ask()?.ticks())
    }

    /// Bid/ask spread in ticks, or `None` if either side is empty.
    fn spread(&self) -> Option<i64> {
        Some(self.best_ask()? - self.best_bid()?)
    }

    /// True if the book is *crossed* (best bid >= best ask). A well-formed
    /// book maintained by the matching engine is never crossed.
    fn is_crossed(&self) -> bool {
        match (self.best_bid(), self.best_ask()) {
            (Some(b), Some(a)) => b >= a,
            _ => false,
        }
    }

    /// Collects the best `depth` levels of `side` into a `Vec`, most
    /// aggressive first. Thin allocating wrapper over `for_each_level`.
    fn levels(&self, side: Side, depth: usize) -> Vec<LevelView> {
        let mut out = Vec::with_capacity(depth.min(self.len()));
        self.for_each_level(side, depth, |v| out.push(v));
        out
    }

    /// Builds the `depth`-level snapshot consumed by the trading pipeline.
    fn snapshot(&self, depth: usize, ts: Timestamp) -> LobSnapshot {
        let mut out = LobSnapshot::default();
        self.snapshot_into(depth, ts, &mut out);
        out
    }

    /// Refills `out` with the `depth`-level snapshot, reusing its level
    /// buffers so steady-state snapshotting never allocates.
    fn snapshot_into(&self, depth: usize, ts: Timestamp, out: &mut LobSnapshot) {
        out.ts = ts;
        out.bids.clear();
        out.asks.clear();
        self.for_each_level(Side::Bid, depth, |v| {
            out.bids.push(SnapshotLevel {
                price: v.price,
                qty: v.qty,
            });
        });
        self.for_each_level(Side::Ask, depth, |v| {
            out.asks.push(SnapshotLevel {
                price: v.price,
                qty: v.qty,
            });
        });
    }
}
