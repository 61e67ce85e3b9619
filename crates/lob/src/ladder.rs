//! The contiguous price-ladder book: the zero-steady-state-allocation
//! resting book behind the matching engine and the pipeline's local book.
//!
//! A map-based book keeps each side in a `BTreeMap<Price, VecDeque<Order>>`
//! — clear, but every level lives behind a pointer chase and every
//! snapshot walks tree nodes. (That book survives as the test-side oracle
//! in `tests/support/reference_book.rs`.) Futures and equities tick in a
//! narrow price band around the last trade, so [`PriceLadder`] instead
//! stores levels in one contiguous array indexed by tick offset from a
//! moving origin (the JAX-LOB layout, arXiv:2308.13289):
//! best-price lookup is an index read, depth iteration is a linear scan,
//! and the only allocations left are range growth when prices escape the
//! current band — which settles after warm-up.
//!
//! Resting orders live in [`OrderArena`], a slab with an intrusive free
//! list; each level slot holds an intrusive doubly-linked FIFO of arena
//! indices, so insert/cancel/fill touch a handful of cache lines and
//! recycle nodes instead of allocating.

use crate::hash::IdHashBuilder;
use crate::order::Order;
use crate::snapshot::LobSnapshot;
use crate::types::{OrderId, Price, Qty, Side, Timestamp};
use std::collections::HashMap;

/// Null link / empty-slot sentinel for arena indices.
const NIL: u32 = u32::MAX;

/// Initial ladder span in ticks; sized so a session's normal price band
/// never forces a rehome.
const INITIAL_SPAN: usize = 256;

/// Widest ladder, in ticks, a rehome will allocate. Prices come off the
/// wire, so the span between the resting band and the next price is the
/// peer's to choose; a price that would stretch one side of the book past
/// this is refused instead of sized for. The widest band any generated
/// session in this repository occupies is 21 ticks and the widest span
/// any test asks for is 10 314; 65 536 ticks (1.5 MiB of slots a side)
/// is 256 × [`INITIAL_SPAN`].
const MAX_SPAN: usize = 1 << 16;

/// A read-only view of one price level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelView {
    /// Level price in ticks.
    pub price: Price,
    /// Aggregate resting quantity at the level.
    pub qty: Qty,
    /// Number of resting orders at the level.
    pub orders: usize,
}

/// One price level: aggregate totals plus an intrusive FIFO of arena nodes.
#[derive(Debug, Clone, Copy)]
struct LevelSlot {
    /// Aggregate resting quantity at the level.
    total: Qty,
    /// Number of resting orders (maintained by the order-level API only).
    orders: u32,
    /// True while the level exists. Kept separate from `total` so the
    /// aggregate API can mirror map semantics where a level may briefly
    /// exist with zero displayed quantity.
    present: bool,
    /// Arena index of the oldest resting order, or `NIL`.
    head: u32,
    /// Arena index of the newest resting order, or `NIL`.
    tail: u32,
}

impl LevelSlot {
    const EMPTY: LevelSlot = LevelSlot {
        total: Qty::ZERO,
        orders: 0,
        present: false,
        head: NIL,
        tail: NIL,
    };
}

/// One side of the book as a contiguous array of price levels.
///
/// `slots[i]` is the level at price `origin + i`. The occupied band is
/// tracked by tight `[lo, hi]` indices, which double as the best-price
/// cursors: the best bid is `hi`, the best ask is `lo`. Vacating an edge
/// level rescans toward worse prices, bounded by the band — the
/// "incrementally maintained best + depth cursor" scheme.
///
/// Out-of-band prices trigger the only allocating paths: a *rehome* copies
/// the occupied band into a larger array (geometric growth, so a session
/// settles after warm-up), and an empty ladder simply re-centers its
/// origin on the next price for free.
#[derive(Debug, Clone)]
pub struct PriceLadder {
    side: Side,
    slots: Vec<LevelSlot>,
    /// Price (in ticks) of `slots[0]`.
    origin: i64,
    /// Lowest occupied slot index; valid only when `occupied > 0`.
    lo: usize,
    /// Highest occupied slot index; valid only when `occupied > 0`.
    hi: usize,
    /// Number of occupied (present) levels.
    occupied: usize,
}

impl PriceLadder {
    /// Creates an empty ladder for `side`. No slots are allocated until the
    /// first level arrives.
    pub fn new(side: Side) -> Self {
        PriceLadder {
            side,
            slots: Vec::new(),
            origin: 0,
            lo: 0,
            hi: 0,
            occupied: 0,
        }
    }

    /// True when no levels are occupied.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.occupied == 0
    }

    /// Best (most aggressive) occupied price, if any.
    #[inline]
    pub fn best_price(&self) -> Option<Price> {
        self.best_index().map(|i| self.price_of(i))
    }

    /// Aggregate quantity at `price`, zero if the level is absent.
    #[inline]
    pub fn qty_at(&self, price: Price) -> Qty {
        match self.index_of(price) {
            Some(i) if self.slots[i].present => self.slots[i].total,
            _ => Qty::ZERO,
        }
    }

    /// Visits the best `depth` occupied levels, most aggressive first,
    /// without allocating.
    #[inline]
    pub fn for_each_level<F: FnMut(LevelView)>(&self, depth: usize, mut f: F) {
        if self.occupied == 0 || depth == 0 {
            return;
        }
        let mut remaining = depth;
        match self.side {
            Side::Bid => {
                let mut i = self.hi;
                loop {
                    let slot = &self.slots[i];
                    if slot.present {
                        f(self.view_of(i, slot));
                        remaining -= 1;
                        if remaining == 0 {
                            return;
                        }
                    }
                    if i == self.lo {
                        return;
                    }
                    i -= 1;
                }
            }
            Side::Ask => {
                for i in self.lo..=self.hi {
                    let slot = &self.slots[i];
                    if slot.present {
                        f(self.view_of(i, slot));
                        remaining -= 1;
                        if remaining == 0 {
                            return;
                        }
                    }
                }
            }
        }
    }

    /// Adds `qty` to the level at `price`, creating it if absent. The
    /// aggregate-only entry point used by market-data mirrors; it does not
    /// maintain per-level order counts.
    ///
    /// Returns `false`, leaving the ladder as it was, when `price` lies
    /// further from the resting band than a ladder may span.
    #[inline]
    pub fn deposit(&mut self, price: Price, qty: Qty) -> bool {
        let Some(i) = self.ensure_index(price) else {
            return false;
        };
        if !self.slots[i].present {
            self.occupy(i);
        }
        self.slots[i].total += qty;
        true
    }

    /// Subtracts `qty` (saturating) from the level at `price`, removing the
    /// level when its quantity reaches zero. A no-op on absent levels.
    #[inline]
    pub fn withdraw(&mut self, price: Price, qty: Qty) {
        let Some(i) = self.index_of(price) else {
            return;
        };
        if !self.slots[i].present {
            return;
        }
        let left = self.slots[i].total.saturating_sub(qty);
        self.slots[i].total = left;
        if left.is_zero() {
            self.vacate(i);
        }
    }

    /// Replaces an `old` contribution with `new` at `price`
    /// (`total − old + new`, saturating), removing the level at zero. A
    /// no-op on absent levels.
    #[inline]
    pub fn rescale(&mut self, price: Price, old: Qty, new: Qty) {
        let Some(i) = self.index_of(price) else {
            return;
        };
        if !self.slots[i].present {
            return;
        }
        let left = self.slots[i].total.saturating_sub(old) + new;
        self.slots[i].total = left;
        if left.is_zero() {
            self.vacate(i);
        }
    }

    #[inline]
    fn view_of(&self, idx: usize, slot: &LevelSlot) -> LevelView {
        LevelView {
            price: self.price_of(idx),
            qty: slot.total,
            orders: slot.orders as usize,
        }
    }

    #[inline]
    fn price_of(&self, idx: usize) -> Price {
        Price::new(self.origin + idx as i64)
    }

    #[inline]
    fn best_index(&self) -> Option<usize> {
        if self.occupied == 0 {
            None
        } else {
            Some(match self.side {
                Side::Bid => self.hi,
                Side::Ask => self.lo,
            })
        }
    }

    #[inline]
    fn index_of(&self, price: Price) -> Option<usize> {
        // Checked: a wire price may sit further from the origin than an
        // `i64` holds, and a wrapped offset could land inside the slots.
        let off = price.ticks().checked_sub(self.origin)?;
        if off >= 0 && (off as usize) < self.slots.len() {
            Some(off as usize)
        } else {
            None
        }
    }

    /// Slot index for `price`, growing or rehoming the ladder when the
    /// price falls outside the current band. This is the only allocating
    /// path; once the band covers the session's price range it is never
    /// taken again. `None`, with the ladder untouched, when covering both
    /// the occupied band and `price` would take more than [`MAX_SPAN`]
    /// slots.
    fn ensure_index(&mut self, price: Price) -> Option<usize> {
        if let Some(i) = self.index_of(price) {
            return Some(i);
        }
        let ticks = price.ticks();
        if self.occupied == 0 {
            // Nothing to preserve: re-center the (already empty) slots on
            // the new price, allocating only if this is the first use.
            if self.slots.is_empty() {
                self.slots.resize(INITIAL_SPAN, LevelSlot::EMPTY);
            }
            self.origin = ticks.saturating_sub(self.slots.len() as i64 / 2);
            return Some((ticks - self.origin) as usize);
        }
        // Rehome: copy the occupied band into a larger array whose span
        // covers both the band and the new price, with headroom on each
        // side. Growth is geometric so repeated excursions amortize.
        let band_lo = self.origin + self.lo as i64;
        let band_hi = self.origin + self.hi as i64;
        let new_lo = band_lo.min(ticks);
        let new_hi = band_hi.max(ticks);
        let needed = new_hi
            .checked_sub(new_lo)
            .and_then(|width| usize::try_from(width).ok())
            .filter(|&width| width < MAX_SPAN)?
            + 1;
        let span = needed.max(self.slots.len().saturating_mul(2)).min(MAX_SPAN);
        let pad = (span - needed) / 2;
        // Saturating: an origin clamped at `i64::MIN` still has `new_lo`
        // and, with it, the whole `needed` range inside the span.
        let new_origin = new_lo.saturating_sub(pad as i64);
        let mut slots = vec![LevelSlot::EMPTY; span];
        let delta = self.origin - new_origin;
        for i in self.lo..=self.hi {
            slots[(i as i64 + delta) as usize] = self.slots[i];
        }
        self.slots = slots;
        self.origin = new_origin;
        self.lo = (self.lo as i64 + delta) as usize;
        self.hi = (self.hi as i64 + delta) as usize;
        Some((ticks - self.origin) as usize)
    }

    /// Marks `idx` occupied and tightens the band / best cursors.
    #[inline]
    fn occupy(&mut self, idx: usize) {
        self.slots[idx].present = true;
        if self.occupied == 0 {
            self.lo = idx;
            self.hi = idx;
        } else {
            if idx < self.lo {
                self.lo = idx;
            }
            if idx > self.hi {
                self.hi = idx;
            }
        }
        self.occupied += 1;
    }

    /// Clears `idx` and re-tightens the band. When an edge (and therefore
    /// possibly the best price) vacates, scan toward worse prices for the
    /// next occupied level — bounded by the band width.
    #[inline]
    fn vacate(&mut self, idx: usize) {
        self.slots[idx] = LevelSlot::EMPTY;
        self.occupied -= 1;
        if self.occupied == 0 {
            self.lo = 0;
            self.hi = 0;
            return;
        }
        if idx == self.lo {
            let mut i = idx + 1;
            while !self.slots[i].present {
                i += 1;
            }
            self.lo = i;
        } else if idx == self.hi {
            let mut i = idx - 1;
            while !self.slots[i].present {
                i -= 1;
            }
            self.hi = i;
        }
    }
}

/// An intrusive doubly-linked node in the order slab.
#[derive(Debug, Clone, Copy)]
struct OrderNode {
    order: Order,
    prev: u32,
    next: u32,
}

/// Slab storage for resting orders with an intrusive free list: freed nodes
/// are threaded through their `next` links and recycled before the slab
/// grows, so steady-state order churn never allocates.
#[derive(Debug, Clone)]
struct OrderArena {
    nodes: Vec<OrderNode>,
    free_head: u32,
}

impl OrderArena {
    fn new() -> Self {
        OrderArena {
            nodes: Vec::new(),
            free_head: NIL,
        }
    }

    #[inline]
    fn alloc(&mut self, order: Order) -> u32 {
        if self.free_head != NIL {
            let idx = self.free_head;
            let node = &mut self.nodes[idx as usize];
            self.free_head = node.next;
            *node = OrderNode {
                order,
                prev: NIL,
                next: NIL,
            };
            idx
        } else {
            let idx = self.nodes.len() as u32;
            self.nodes.push(OrderNode {
                order,
                prev: NIL,
                next: NIL,
            });
            idx
        }
    }

    #[inline]
    fn free(&mut self, idx: u32) {
        let node = &mut self.nodes[idx as usize];
        node.prev = NIL;
        node.next = self.free_head;
        self.free_head = idx;
    }
}

/// The hot-path limit order book: two [`PriceLadder`]s over a shared
/// [`OrderArena`], plus an id → arena-index map.
///
/// It only *stores* orders in price/time priority (paper §II-A); crossing
/// and trade generation live in
/// [`MatchingEngine`](crate::matching::MatchingEngine), the only caller of
/// the crate-private mutators. Levels are array slots, FIFOs are intrusive
/// links, and after the price band and slab warm up, no operation
/// allocates. `tests/book_equivalence.rs` checks it, action by action,
/// against a map-based reference book that mirrors the engine's events.
#[derive(Debug, Clone)]
pub struct LadderBook {
    bids: PriceLadder,
    asks: PriceLadder,
    arena: OrderArena,
    /// Locates a resting order's arena node by id.
    index: HashMap<OrderId, u32, IdHashBuilder>,
}

impl Default for LadderBook {
    fn default() -> Self {
        Self::new()
    }
}

impl LadderBook {
    /// Creates an empty book.
    pub fn new() -> Self {
        LadderBook {
            bids: PriceLadder::new(Side::Bid),
            asks: PriceLadder::new(Side::Ask),
            arena: OrderArena::new(),
            index: HashMap::default(),
        }
    }

    /// Number of resting orders across both sides.
    #[inline]
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when no orders rest on either side.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Highest resting bid price, if any.
    #[inline]
    pub fn best_bid(&self) -> Option<Price> {
        self.bids.best_price()
    }

    /// Lowest resting ask price, if any.
    #[inline]
    pub fn best_ask(&self) -> Option<Price> {
        self.asks.best_price()
    }

    /// True if the book is *crossed* (best bid >= best ask).
    #[inline]
    pub fn is_crossed(&self) -> bool {
        match (self.best_bid(), self.best_ask()) {
            (Some(b), Some(a)) => b >= a,
            _ => false,
        }
    }

    /// Aggregate resting quantity at `price` on `side`.
    #[inline]
    pub fn qty_at(&self, side: Side, price: Price) -> Qty {
        self.ladder(side).qty_at(price)
    }

    /// Looks up a resting order by id (O(1) via the arena, unlike the
    /// reference book's level scan — same result, ids are unique).
    #[inline]
    pub fn order(&self, id: OrderId) -> Option<&Order> {
        let &node = self.index.get(&id)?;
        Some(&self.arena.nodes[node as usize].order)
    }

    /// True if an order with `id` currently rests on the book.
    #[inline]
    pub fn contains(&self, id: OrderId) -> bool {
        self.order(id).is_some()
    }

    /// Visits the best `depth` levels of `side`, most aggressive first,
    /// without allocating.
    #[inline]
    pub fn for_each_level<F: FnMut(LevelView)>(&self, side: Side, depth: usize, f: F) {
        self.ladder(side).for_each_level(depth, f);
    }

    /// Builds the `depth`-level snapshot consumed by the trading pipeline.
    pub fn snapshot(&self, depth: usize, ts: Timestamp) -> LobSnapshot {
        let mut out = LobSnapshot::default();
        self.snapshot_into(depth, ts, &mut out);
        out
    }

    /// Refills `out` with the `depth`-level snapshot, reusing its level
    /// buffers so steady-state snapshotting never allocates.
    pub fn snapshot_into(&self, depth: usize, ts: Timestamp, out: &mut LobSnapshot) {
        out.fill_from_ladders(depth, ts, &self.bids, &self.asks);
    }

    /// Inserts a resting order at the back of its price-level queue.
    ///
    /// # Panics
    ///
    /// Panics if an order with the same id already rests on the book; the
    /// matching engine rejects duplicates before insertion.
    #[inline]
    pub(crate) fn insert(&mut self, order: Order) {
        let node = self.arena.alloc(order);
        let prior = self.index.insert(order.id, node);
        assert!(prior.is_none(), "duplicate order id {}", order.id);
        let (ladder, arena) = self.split_mut(order.side);
        let i = ladder
            .ensure_index(order.price)
            .expect("resting price within MAX_SPAN ticks of the side's band");
        if !ladder.slots[i].present {
            ladder.occupy(i);
        }
        let slot = &mut ladder.slots[i];
        if slot.tail == NIL {
            slot.head = node;
        } else {
            arena.nodes[slot.tail as usize].next = node;
            arena.nodes[node as usize].prev = slot.tail;
        }
        slot.tail = node;
        slot.total += order.remaining;
        slot.orders += 1;
    }

    /// Removes a resting order, returning it if present.
    #[inline]
    pub(crate) fn remove(&mut self, id: OrderId) -> Option<Order> {
        let node = self.index.remove(&id)?;
        let order = self.arena.nodes[node as usize].order;
        let (ladder, arena) = self.split_mut(order.side);
        let i = ladder
            .index_of(order.price)
            .expect("resting order price inside ladder band");
        let (prev, next) = {
            let n = &arena.nodes[node as usize];
            (n.prev, n.next)
        };
        let slot = &mut ladder.slots[i];
        if prev == NIL {
            slot.head = next;
        } else {
            arena.nodes[prev as usize].next = next;
        }
        let slot = &mut ladder.slots[i];
        if next == NIL {
            slot.tail = prev;
        } else {
            arena.nodes[next as usize].prev = prev;
        }
        slot.total -= order.remaining;
        slot.orders -= 1;
        if slot.orders == 0 {
            ladder.vacate(i);
        }
        self.arena.free(node);
        Some(order)
    }

    /// Peeks at the front (oldest) order at the best level of `side`.
    #[inline]
    pub(crate) fn front(&self, side: Side) -> Option<&Order> {
        let ladder = self.ladder(side);
        let i = ladder.best_index()?;
        let head = ladder.slots[i].head;
        debug_assert_ne!(head, NIL, "occupied level has a queue head");
        Some(&self.arena.nodes[head as usize].order)
    }

    /// Reduces the front order at the best level of `side` by `fill`,
    /// removing it when fully filled. Returns the order's id.
    ///
    /// # Panics
    ///
    /// Panics if the side is empty or `fill` exceeds the front order's
    /// remaining quantity.
    #[inline]
    pub(crate) fn fill_front(&mut self, side: Side, fill: Qty) -> OrderId {
        let (ladder, arena) = self.split_mut(side);
        let i = ladder.best_index().expect("fill_front on empty side");
        let head = ladder.slots[i].head;
        let front = &mut arena.nodes[head as usize];
        assert!(
            fill <= front.order.remaining,
            "over-fill of {}",
            front.order.id
        );
        front.order.remaining -= fill;
        let id = front.order.id;
        let emptied = front.order.remaining.is_zero();
        let next = front.next;
        let slot = &mut ladder.slots[i];
        slot.total -= fill;
        if emptied {
            slot.head = next;
            if next == NIL {
                slot.tail = NIL;
            } else {
                arena.nodes[next as usize].prev = NIL;
            }
            slot.orders -= 1;
            if slot.orders == 0 {
                ladder.vacate(i);
            }
            self.index.remove(&id);
            self.arena.free(head);
        }
        id
    }

    /// Total resting quantity on `side` at prices that cross `limit`
    /// (the fill-or-kill feasibility check).
    #[inline]
    pub(crate) fn crossable_qty(&self, side: Side, limit: Price) -> Qty {
        let ladder = self.ladder(side);
        let Some(best) = ladder.best_index() else {
            return Qty::ZERO;
        };
        let mut sum = Qty::ZERO;
        match side {
            Side::Bid => {
                let mut i = best;
                loop {
                    let slot = &ladder.slots[i];
                    if slot.present {
                        if !side.crosses(ladder.price_of(i), limit) {
                            break;
                        }
                        sum += slot.total;
                    }
                    if i == ladder.lo {
                        break;
                    }
                    i -= 1;
                }
            }
            Side::Ask => {
                for i in best..=ladder.hi {
                    let slot = &ladder.slots[i];
                    if slot.present {
                        if !side.crosses(ladder.price_of(i), limit) {
                            break;
                        }
                        sum += slot.total;
                    }
                }
            }
        }
        sum
    }

    #[inline]
    fn ladder(&self, side: Side) -> &PriceLadder {
        match side {
            Side::Bid => &self.bids,
            Side::Ask => &self.asks,
        }
    }

    #[inline]
    fn split_mut(&mut self, side: Side) -> (&mut PriceLadder, &mut OrderArena) {
        match side {
            Side::Bid => (&mut self.bids, &mut self.arena),
            Side::Ask => (&mut self.asks, &mut self.arena),
        }
    }
}

#[cfg(test)]
impl PriceLadder {
    /// Number of occupied price levels.
    fn level_count(&self) -> usize {
        self.occupied
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Timestamp;

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
    fn ladder_tracks_best_and_band() {
        let mut ladder = PriceLadder::new(Side::Bid);
        assert!(ladder.is_empty());
        assert_eq!(ladder.best_price(), None);
        ladder.deposit(Price::new(100), Qty::new(5));
        ladder.deposit(Price::new(98), Qty::new(3));
        ladder.deposit(Price::new(102), Qty::new(1));
        assert_eq!(ladder.best_price(), Some(Price::new(102)));
        assert_eq!(ladder.level_count(), 3);
        assert_eq!(ladder.qty_at(Price::new(98)), Qty::new(3));
        ladder.withdraw(Price::new(102), Qty::new(1));
        assert_eq!(ladder.best_price(), Some(Price::new(100)), "best rescans");
        ladder.withdraw(Price::new(98), Qty::new(3));
        ladder.withdraw(Price::new(100), Qty::new(5));
        assert!(ladder.is_empty());
        assert_eq!(ladder.best_price(), None);
    }

    #[test]
    fn ladder_orders_levels_by_aggression() {
        let mut asks = PriceLadder::new(Side::Ask);
        for p in [105, 101, 103] {
            asks.deposit(Price::new(p), Qty::new(1));
        }
        let mut seen = Vec::new();
        asks.for_each_level(10, |v| seen.push(v.price.ticks()));
        assert_eq!(seen, vec![101, 103, 105]);
        seen.clear();
        asks.for_each_level(2, |v| seen.push(v.price.ticks()));
        assert_eq!(seen, vec![101, 103], "depth limits the visit");
    }

    #[test]
    fn ladder_rehomes_on_out_of_band_price() {
        let mut ladder = PriceLadder::new(Side::Bid);
        ladder.deposit(Price::new(10_000), Qty::new(1));
        // Far outside the initial span in both directions.
        ladder.deposit(Price::new(10_000 + 5_000), Qty::new(2));
        ladder.deposit(Price::new(10_000 - 5_000), Qty::new(3));
        assert_eq!(ladder.qty_at(Price::new(10_000)), Qty::new(1));
        assert_eq!(ladder.qty_at(Price::new(15_000)), Qty::new(2));
        assert_eq!(ladder.qty_at(Price::new(5_000)), Qty::new(3));
        assert_eq!(ladder.best_price(), Some(Price::new(15_000)));
        assert_eq!(ladder.level_count(), 3);
    }

    #[test]
    fn rehome_is_bounded_by_max_span() {
        let mut ladder = PriceLadder::new(Side::Ask);
        assert!(ladder.deposit(Price::new(18_000), Qty::new(1)));
        let span = ladder.slots.len();
        // Out of span in either direction, and past what an `i64`
        // difference holds: refused, nothing allocated or moved.
        for far in [
            18_000 + MAX_SPAN as i64,
            18_000 - (1 << 40),
            i64::MAX,
            i64::MIN,
        ] {
            assert!(!ladder.deposit(Price::new(far), Qty::new(1)), "{far}");
            assert_eq!(ladder.qty_at(Price::new(far)), Qty::ZERO);
        }
        assert_eq!(ladder.slots.len(), span);
        assert_eq!(ladder.best_price(), Some(Price::new(18_000)));
        assert_eq!(ladder.level_count(), 1);
        // The widest band that fits is accepted, and the doubling that
        // follows a drift stops at the bound.
        let edge = 18_000 + MAX_SPAN as i64 - 1;
        assert!(ladder.deposit(Price::new(edge), Qty::new(2)));
        assert_eq!(ladder.slots.len(), MAX_SPAN);
        ladder.withdraw(Price::new(18_000), Qty::new(1));
        assert!(ladder.deposit(Price::new(edge + 10), Qty::new(3)));
        assert_eq!(ladder.slots.len(), MAX_SPAN);
        assert_eq!(ladder.qty_at(Price::new(edge)), Qty::new(2));
        assert_eq!(ladder.best_price(), Some(Price::new(edge)));
        // An empty ladder re-centers on any price an `i64` holds.
        let mut empty = PriceLadder::new(Side::Bid);
        for extreme in [i64::MIN, i64::MAX] {
            assert!(empty.deposit(Price::new(extreme), Qty::new(1)));
            assert_eq!(empty.best_price(), Some(Price::new(extreme)));
            empty.withdraw(Price::new(extreme), Qty::new(1));
        }
    }

    #[test]
    fn empty_ladder_recenters_for_free() {
        let mut ladder = PriceLadder::new(Side::Ask);
        ladder.deposit(Price::new(100), Qty::new(1));
        ladder.withdraw(Price::new(100), Qty::new(1));
        let span = ladder.slots.len();
        // A wildly different price on an empty ladder must not grow slots.
        ladder.deposit(Price::new(1_000_000), Qty::new(1));
        assert_eq!(ladder.slots.len(), span);
        assert_eq!(ladder.best_price(), Some(Price::new(1_000_000)));
    }

    #[test]
    fn rescale_mirrors_map_arithmetic() {
        let mut ladder = PriceLadder::new(Side::Bid);
        ladder.deposit(Price::new(100), Qty::new(10));
        ladder.rescale(Price::new(100), Qty::new(10), Qty::new(4));
        assert_eq!(ladder.qty_at(Price::new(100)), Qty::new(4));
        ladder.rescale(Price::new(100), Qty::new(4), Qty::ZERO);
        assert!(ladder.is_empty(), "a zero rescale removes the level");
        // Rescale and withdraw on absent levels are no-ops.
        ladder.rescale(Price::new(100), Qty::new(1), Qty::new(2));
        ladder.withdraw(Price::new(100), Qty::new(1));
        assert!(ladder.is_empty());
    }

    #[test]
    fn zero_qty_level_exists_until_touched() {
        let mut ladder = PriceLadder::new(Side::Ask);
        ladder.deposit(Price::new(100), Qty::ZERO);
        assert!(!ladder.is_empty());
        assert_eq!(ladder.best_price(), Some(Price::new(100)));
        ladder.withdraw(Price::new(100), Qty::ZERO);
        assert!(ladder.is_empty());
    }

    #[test]
    fn book_fifo_and_recycling() {
        let mut book = LadderBook::new();
        book.insert(order(1, Side::Bid, 99, 5, 1));
        book.insert(order(2, Side::Bid, 99, 7, 2));
        assert_eq!(book.front(Side::Bid).unwrap().id, OrderId::new(1));
        assert_eq!(book.fill_front(Side::Bid, Qty::new(5)), OrderId::new(1));
        assert_eq!(book.front(Side::Bid).unwrap().id, OrderId::new(2));
        let slab = book.arena.nodes.len();
        // The freed node is recycled: inserting again must not grow the slab.
        book.insert(order(3, Side::Bid, 98, 1, 3));
        assert_eq!(book.arena.nodes.len(), slab);
        assert_eq!(book.len(), 2);
    }

    #[test]
    fn book_remove_from_middle_of_queue() {
        let mut book = LadderBook::new();
        for (id, seq) in [(1u64, 1u64), (2, 2), (3, 3)] {
            book.insert(order(id, Side::Ask, 101, 2, seq));
        }
        let removed = book.remove(OrderId::new(2)).unwrap();
        assert_eq!(removed.id, OrderId::new(2));
        assert_eq!(book.qty_at(Side::Ask, Price::new(101)), Qty::new(4));
        assert_eq!(book.fill_front(Side::Ask, Qty::new(2)), OrderId::new(1));
        assert_eq!(book.front(Side::Ask).unwrap().id, OrderId::new(3));
        assert!(book.remove(OrderId::new(2)).is_none(), "idempotent");
    }

    #[test]
    #[should_panic(expected = "duplicate order id")]
    fn duplicate_insert_panics() {
        let mut book = LadderBook::new();
        book.insert(order(1, Side::Bid, 99, 5, 1));
        book.insert(order(1, Side::Bid, 98, 5, 2));
    }
}
