//! The map-based resting limit order book: the oracle `book_equivalence`
//! checks the engine's ladder against.

use lt_lob::{LevelView, LobSnapshot, Order, OrderId, Price, Qty, Side, SnapshotLevel, Timestamp};
use std::collections::{BTreeMap, HashMap, VecDeque};

/// One price level: a FIFO of resting orders plus a cached aggregate.
#[derive(Debug, Clone, Default)]
struct Level {
    queue: VecDeque<Order>,
    total: Qty,
}

impl Level {
    fn push_back(&mut self, order: Order) {
        self.total += order.remaining;
        self.queue.push_back(order);
    }
}

/// The map-based limit order book for a single symbol.
///
/// Bids and asks are kept in separate [`BTreeMap`]s keyed by price so that
/// best-price lookups and level iteration are ordered; each level is a FIFO
/// queue, giving the exchange's price/time priority (paper §II-A).
///
/// The book only *stores* orders. Which orders trade, and how much, is
/// decided by the suite's `mirror`, one engine outcome at a time; the
/// engine itself runs on the contiguous `LadderBook`, and this
/// easy-to-audit book is what it is checked against.
#[derive(Debug, Clone, Default)]
pub struct ReferenceBook {
    bids: BTreeMap<Price, Level>,
    asks: BTreeMap<Price, Level>,
    /// Locates a resting order by id: (side, price).
    index: HashMap<OrderId, (Side, Price)>,
    /// Orders rested so far, the source of each new order's `seq`.
    rested: u64,
}

impl ReferenceBook {
    /// Creates an empty book.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of resting orders across both sides.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when no orders rest on either side.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Highest resting bid price, if any.
    pub fn best_bid(&self) -> Option<Price> {
        self.bids.keys().next_back().copied()
    }

    /// Lowest resting ask price, if any.
    pub fn best_ask(&self) -> Option<Price> {
        self.asks.keys().next().copied()
    }

    /// Mid price in half-ticks (`bid + ask`), or `None` if either side is
    /// empty. Returned doubled so that it stays an exact integer.
    pub fn mid_price_x2(&self) -> Option<i64> {
        Some(self.best_bid()?.ticks() + self.best_ask()?.ticks())
    }

    /// Bid/ask spread in ticks, or `None` if either side is empty.
    pub fn spread(&self) -> Option<i64> {
        Some(self.best_ask()? - self.best_bid()?)
    }

    /// True if the book is *crossed* (best bid >= best ask). A well-formed
    /// book maintained by the matching engine is never crossed; this is the
    /// central invariant checked by the property tests.
    pub fn is_crossed(&self) -> bool {
        match (self.best_bid(), self.best_ask()) {
            (Some(b), Some(a)) => b >= a,
            _ => false,
        }
    }

    /// Aggregate resting quantity at `price` on `side`.
    pub fn qty_at(&self, side: Side, price: Price) -> Qty {
        self.side_levels(side)
            .get(&price)
            .map_or(Qty::ZERO, |l| l.total)
    }

    /// Looks up a resting order by id.
    pub fn order(&self, id: OrderId) -> Option<&Order> {
        let &(side, price) = self.index.get(&id)?;
        self.side_levels(side)
            .get(&price)?
            .queue
            .iter()
            .find(|o| o.id == id)
    }

    /// True if an order with `id` currently rests on the book.
    pub fn contains(&self, id: OrderId) -> bool {
        self.index.contains_key(&id)
    }

    /// Visits the best `depth` levels of `side` from most to least
    /// aggressive without allocating.
    pub fn for_each_level<F: FnMut(LevelView)>(&self, side: Side, depth: usize, mut f: F) {
        let levels = self.side_levels(side);
        let view = |(&price, level): (&Price, &Level)| LevelView {
            price,
            qty: level.total,
            orders: level.queue.len(),
        };
        match side {
            Side::Bid => levels.iter().rev().take(depth).map(view).for_each(&mut f),
            Side::Ask => levels.iter().take(depth).map(view).for_each(&mut f),
        }
    }

    /// Iterates the best `depth` levels of `side` from most to least
    /// aggressive. Thin allocating wrapper over [`Self::for_each_level`].
    pub fn levels(&self, side: Side, depth: usize) -> Vec<LevelView> {
        let mut out = Vec::with_capacity(depth.min(self.len()));
        self.for_each_level(side, depth, |v| out.push(v));
        out
    }

    /// Refills `out` with the `depth`-level snapshot.
    pub fn snapshot_into(&self, depth: usize, ts: Timestamp, out: &mut LobSnapshot) {
        *out = self.snapshot(depth, ts);
    }

    /// Numbers the next order to rest: 1, 2, ... in the order orders came
    /// to rest on this book.
    pub fn next_seq(&mut self) -> u64 {
        self.rested += 1;
        self.rested
    }

    /// Builds the `depth`-level snapshot consumed by the trading pipeline.
    pub fn snapshot(&self, depth: usize, ts: Timestamp) -> LobSnapshot {
        let to_levels = |views: Vec<LevelView>| {
            views
                .into_iter()
                .map(|v| SnapshotLevel {
                    price: v.price,
                    qty: v.qty,
                })
                .collect()
        };
        LobSnapshot {
            ts,
            bids: to_levels(self.levels(Side::Bid, depth)),
            asks: to_levels(self.levels(Side::Ask, depth)),
        }
    }

    /// Inserts a resting order at the back of its price-level queue.
    ///
    /// # Panics
    ///
    /// Panics if an order with the same id already rests on the book; the
    /// matching engine rejects duplicates before insertion.
    pub fn insert(&mut self, order: Order) {
        let prior = self.index.insert(order.id, (order.side, order.price));
        assert!(prior.is_none(), "duplicate order id {}", order.id);
        self.side_levels_mut(order.side)
            .entry(order.price)
            .or_default()
            .push_back(order);
    }

    /// Removes a resting order, returning it if present.
    pub fn remove(&mut self, id: OrderId) -> Option<Order> {
        let (side, price) = self.index.remove(&id)?;
        let levels = self.side_levels_mut(side);
        let level = levels.get_mut(&price)?;
        let pos = level.queue.iter().position(|o| o.id == id)?;
        let order = level.queue.remove(pos).expect("position just found");
        level.total -= order.remaining;
        if level.queue.is_empty() {
            levels.remove(&price);
        }
        Some(order)
    }

    /// Peeks at the front (oldest) order at the best level of `side`.
    pub fn front(&self, side: Side) -> Option<&Order> {
        let levels = self.side_levels(side);
        let level = match side {
            Side::Bid => levels.values().next_back(),
            Side::Ask => levels.values().next(),
        }?;
        level.queue.front()
    }

    /// Reduces the front order at the best level of `side` by `fill`,
    /// removing it when fully filled. Returns the order's id.
    ///
    /// # Panics
    ///
    /// Panics if the side is empty or `fill` exceeds the front order's
    /// remaining quantity.
    pub fn fill_front(&mut self, side: Side, fill: Qty) -> OrderId {
        let (id, emptied_order, emptied_level, price) = {
            let levels = self.side_levels_mut(side);
            let (&price, level) = match side {
                Side::Bid => levels.iter_mut().next_back(),
                Side::Ask => levels.iter_mut().next(),
            }
            .expect("fill_front on empty side");
            let front = level.queue.front_mut().expect("non-empty level");
            assert!(fill <= front.remaining, "over-fill of {}", front.id);
            front.remaining -= fill;
            level.total -= fill;
            let id = front.id;
            let emptied_order = front.remaining.is_zero();
            if emptied_order {
                level.queue.pop_front();
            }
            (id, emptied_order, level.queue.is_empty(), price)
        };
        if emptied_order {
            self.index.remove(&id);
            if emptied_level {
                self.side_levels_mut(side).remove(&price);
            }
        }
        id
    }

    /// Total resting quantity on `side` at prices that cross `limit`
    /// (used for fill-or-kill feasibility checks).
    pub fn crossable_qty(&self, side: Side, limit: Price) -> Qty {
        let levels = self.side_levels(side);
        let crossing = |(&price, level): (&Price, &Level)| {
            if side.crosses(price, limit) {
                Some(level.total)
            } else {
                None
            }
        };
        match side {
            Side::Bid => levels.iter().rev().map_while(crossing).sum(),
            Side::Ask => levels.iter().map_while(crossing).sum(),
        }
    }

    fn side_levels(&self, side: Side) -> &BTreeMap<Price, Level> {
        match side {
            Side::Bid => &self.bids,
            Side::Ask => &self.asks,
        }
    }

    fn side_levels_mut(&mut self, side: Side) -> &mut BTreeMap<Price, Level> {
        match side {
            Side::Bid => &mut self.bids,
            Side::Ask => &mut self.asks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn order(id: u64, side: Side, price: i64, qty: u64, seq: u64) -> Order {
        Order {
            id: OrderId::new(id),
            side,
            price: Price::new(price),
            remaining: Qty::new(qty),
            original: Qty::new(qty),
            arrival: Timestamp::from_nanos(seq),
            seq,
        }
    }

    #[test]
    fn empty_book_has_no_best_prices() {
        let book = ReferenceBook::new();
        assert!(book.is_empty());
        assert_eq!(book.best_bid(), None);
        assert_eq!(book.best_ask(), None);
        assert_eq!(book.spread(), None);
        assert_eq!(book.mid_price_x2(), None);
        assert!(!book.is_crossed());
    }

    #[test]
    fn best_prices_and_spread() {
        let mut book = ReferenceBook::new();
        book.insert(order(1, Side::Bid, 99, 5, 1));
        book.insert(order(2, Side::Bid, 98, 5, 2));
        book.insert(order(3, Side::Ask, 101, 5, 3));
        book.insert(order(4, Side::Ask, 102, 5, 4));
        assert_eq!(book.best_bid(), Some(Price::new(99)));
        assert_eq!(book.best_ask(), Some(Price::new(101)));
        assert_eq!(book.spread(), Some(2));
        assert_eq!(book.mid_price_x2(), Some(200));
        assert_eq!(book.len(), 4);
    }

    #[test]
    fn level_aggregation_and_order_lookup() {
        let mut book = ReferenceBook::new();
        book.insert(order(1, Side::Bid, 99, 5, 1));
        book.insert(order(2, Side::Bid, 99, 7, 2));
        assert_eq!(book.qty_at(Side::Bid, Price::new(99)), Qty::new(12));
        assert_eq!(book.qty_at(Side::Bid, Price::new(98)), Qty::ZERO);
        let levels = book.levels(Side::Bid, 10);
        assert_eq!(levels.len(), 1);
        assert_eq!(levels[0].orders, 2);
        assert_eq!(book.order(OrderId::new(2)).unwrap().remaining, Qty::new(7));
        assert!(book.order(OrderId::new(9)).is_none());
    }

    #[test]
    fn levels_are_ordered_most_aggressive_first() {
        let mut book = ReferenceBook::new();
        for (i, p) in [97, 99, 98].iter().enumerate() {
            book.insert(order(i as u64 + 1, Side::Bid, *p, 1, i as u64));
        }
        for (i, p) in [103, 101, 102].iter().enumerate() {
            book.insert(order(i as u64 + 10, Side::Ask, *p, 1, i as u64));
        }
        let bid_prices: Vec<i64> = book
            .levels(Side::Bid, 10)
            .iter()
            .map(|l| l.price.ticks())
            .collect();
        let ask_prices: Vec<i64> = book
            .levels(Side::Ask, 10)
            .iter()
            .map(|l| l.price.ticks())
            .collect();
        assert_eq!(bid_prices, vec![99, 98, 97]);
        assert_eq!(ask_prices, vec![101, 102, 103]);
        // Depth limiting.
        assert_eq!(book.levels(Side::Bid, 2).len(), 2);
    }

    #[test]
    fn remove_clears_empty_levels() {
        let mut book = ReferenceBook::new();
        book.insert(order(1, Side::Ask, 101, 5, 1));
        let removed = book.remove(OrderId::new(1)).unwrap();
        assert_eq!(removed.remaining, Qty::new(5));
        assert!(book.is_empty());
        assert_eq!(book.best_ask(), None);
        assert!(book.remove(OrderId::new(1)).is_none(), "idempotent");
    }

    #[test]
    fn fill_front_respects_fifo() {
        let mut book = ReferenceBook::new();
        book.insert(order(1, Side::Bid, 99, 5, 1));
        book.insert(order(2, Side::Bid, 99, 5, 2));
        // Partial fill leaves order 1 at the front.
        assert_eq!(book.fill_front(Side::Bid, Qty::new(3)), OrderId::new(1));
        assert_eq!(book.order(OrderId::new(1)).unwrap().remaining, Qty::new(2));
        // Completing order 1 exposes order 2.
        assert_eq!(book.fill_front(Side::Bid, Qty::new(2)), OrderId::new(1));
        assert!(!book.contains(OrderId::new(1)));
        assert_eq!(book.front(Side::Bid).unwrap().id, OrderId::new(2));
        assert_eq!(book.qty_at(Side::Bid, Price::new(99)), Qty::new(5));
    }

    #[test]
    fn crossable_qty_stops_at_limit() {
        let mut book = ReferenceBook::new();
        book.insert(order(1, Side::Ask, 101, 5, 1));
        book.insert(order(2, Side::Ask, 102, 5, 2));
        book.insert(order(3, Side::Ask, 105, 5, 3));
        // An incoming bid at 102 can reach the first two levels only.
        assert_eq!(book.crossable_qty(Side::Ask, Price::new(102)), Qty::new(10));
        assert_eq!(book.crossable_qty(Side::Ask, Price::new(100)), Qty::ZERO);
        assert_eq!(book.crossable_qty(Side::Ask, Price::new(200)), Qty::new(15));
    }

    #[test]
    #[should_panic(expected = "duplicate order id")]
    fn duplicate_insert_panics() {
        let mut book = ReferenceBook::new();
        book.insert(order(1, Side::Bid, 99, 5, 1));
        book.insert(order(1, Side::Bid, 98, 5, 2));
    }
}
