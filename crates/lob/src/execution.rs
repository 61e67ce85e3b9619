//! Venue-side execution model: fills, fees, and slippage.
//!
//! The back-test's trading engine emits immediate-or-cancel orders, but
//! until now nothing ever *filled* them — cash was booked assuming every
//! IOC fills fully at its limit. This module is the venue's half of the
//! story: [`fill_ioc`] sweeps an IOC against the visible levels of a
//! [`LobSnapshot`] exactly as the [`crate::MatchingEngine`] would match
//! it against a book holding those levels (pinned by a differential
//! test), and [`FeeModel`] prices the resulting fill.
//!
//! All monetary amounts are carried in **half-tick fixed point**
//! (`2 × ticks × contracts`): the mid of a one-tick-wide market is not
//! representable in integer ticks, so inventory valuation, P&L, and fees
//! all use half-ticks end to end and convert to ticks only at the edges.

use crate::snapshot::{LobSnapshot, SnapshotLevel};
use crate::types::{Price, Qty, Side};
use serde::{Deserialize, Serialize};

/// How the venue fills an immediate-or-cancel order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FillModel {
    /// The historical fiction: the full order quantity fills at the limit
    /// price regardless of the book. Exists as the differential baseline —
    /// back-tests run with this model reproduce the pre-execution-layer
    /// numbers byte-for-byte.
    AssumeFill,
    /// Taker sweep of the visible levels at or better than the limit, in
    /// price priority; the remainder cancels (IOC semantics). This is what
    /// the matching engine does to an IOC arriving at a book showing
    /// exactly the snapshot's levels.
    SweepVisible,
}

/// Venue fee schedule in half-ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FeeModel {
    /// Fee per filled contract, in half-ticks.
    pub per_contract_half: i64,
    /// Fee per order that achieves any fill, in half-ticks. Missed orders
    /// (zero fill) cost nothing.
    pub per_order_half: i64,
}

impl FeeModel {
    /// The free venue: no fees at all.
    pub const fn zero() -> Self {
        FeeModel {
            per_contract_half: 0,
            per_order_half: 0,
        }
    }

    /// Total fee for a fill of `contracts`, in half-ticks. Zero when
    /// nothing filled.
    fn fee_half(&self, contracts: u64) -> i64 {
        if contracts == 0 {
            0
        } else {
            self.per_order_half + self.per_contract_half * contracts as i64
        }
    }
}

/// An order the strategy decided to send, captured at decision time:
/// everything the venue model needs to settle it when it arrives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OrderIntent {
    /// Order side.
    pub side: Side,
    /// Limit price (the touch at decision time for the IOC strategy).
    pub limit: Price,
    /// Order quantity.
    pub qty: Qty,
}

/// The outcome of settling one order against the venue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Fill {
    /// Contracts filled (possibly zero: the order missed).
    pub filled: Qty,
    /// Gross cash movement in half-ticks: negative for buys, positive for
    /// sells, before fees.
    pub cash_delta_half: i64,
    /// Fees charged, in half-ticks (non-negative; zero when missed).
    pub fee_half: i64,
    /// Execution-price shortfall versus the limit in half-ticks, summed
    /// over filled contracts. Positive means worse than the limit; for a
    /// marketable IOC it is never positive, so this measures price
    /// *improvement* as a negative number.
    pub slippage_half: i64,
}

impl Fill {
    /// A miss: nothing traded, nothing charged.
    pub const MISS: Fill = Fill {
        filled: Qty::ZERO,
        cash_delta_half: 0,
        fee_half: 0,
        slippage_half: 0,
    };
}

/// Settles an immediate-or-cancel order against the book state `book`,
/// under `model`, with `fees`.
///
/// For [`FillModel::SweepVisible`] the order sweeps the opposite side's
/// visible levels at or better than `limit` in price priority — the same
/// fills a [`crate::MatchingEngine`] produces for an IOC arriving at a
/// book resting exactly those levels. For [`FillModel::AssumeFill`] the
/// full `qty` fills at `limit` unconditionally.
pub fn fill_ioc(
    book: &LobSnapshot,
    side: Side,
    limit: Price,
    qty: Qty,
    model: FillModel,
    fees: &FeeModel,
) -> Fill {
    let mut filled = Qty::ZERO;
    let mut cash_half = 0i64;
    let mut slip_half = 0i64;
    let mut take_leg = |px: Price, q: Qty| {
        let contracts = q.contracts() as i64;
        let notional_half = 2 * px.ticks() * contracts;
        match side {
            Side::Bid => {
                cash_half -= notional_half;
                slip_half += 2 * (px.ticks() - limit.ticks()) * contracts;
            }
            Side::Ask => {
                cash_half += notional_half;
                slip_half += 2 * (limit.ticks() - px.ticks()) * contracts;
            }
        }
        filled += q;
    };
    match model {
        FillModel::AssumeFill => take_leg(limit, qty),
        FillModel::SweepVisible => {
            let levels: &[SnapshotLevel] = match side {
                Side::Bid => &book.asks,
                Side::Ask => &book.bids,
            };
            let mut remaining = qty;
            for level in levels {
                // A buy takes asks priced at or below the limit; a sell
                // takes bids at or above it. Levels are sorted best-first,
                // so the first non-crossing level ends the sweep.
                if remaining.is_zero() || !side.opposite().crosses(level.price, limit) {
                    break;
                }
                let take = remaining.min(level.qty);
                if !take.is_zero() {
                    take_leg(level.price, take);
                    remaining -= take;
                }
            }
        }
    }
    Fill {
        filled,
        cash_delta_half: cash_half,
        fee_half: fees.fee_half(filled.contracts()),
        slippage_half: slip_half,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matching::MatchingEngine;
    use crate::order::NewOrder;
    use crate::types::{OrderId, Symbol, Timestamp};

    fn level(price: i64, qty: u64) -> SnapshotLevel {
        SnapshotLevel {
            price: Price::new(price),
            qty: Qty::new(qty),
        }
    }

    fn snap(bids: Vec<SnapshotLevel>, asks: Vec<SnapshotLevel>) -> LobSnapshot {
        LobSnapshot {
            ts: Timestamp::from_nanos(1),
            bids,
            asks,
        }
    }

    #[test]
    fn assume_fill_books_full_qty_at_limit() {
        let book = snap(vec![level(99, 1)], vec![level(101, 1)]);
        let f = fill_ioc(
            &book,
            Side::Bid,
            Price::new(101),
            Qty::new(5),
            FillModel::AssumeFill,
            &FeeModel::zero(),
        );
        assert_eq!(f.filled, Qty::new(5));
        assert_eq!(f.cash_delta_half, -2 * 101 * 5);
        assert_eq!(f.slippage_half, 0);
        assert_eq!(f.fee_half, 0);
    }

    #[test]
    fn sweep_caps_at_visible_depth() {
        let book = snap(vec![level(99, 10)], vec![level(101, 3)]);
        let f = fill_ioc(
            &book,
            Side::Bid,
            Price::new(101),
            Qty::new(5),
            FillModel::SweepVisible,
            &FeeModel::zero(),
        );
        assert_eq!(f.filled, Qty::new(3), "only the visible 3 fill");
        assert_eq!(f.cash_delta_half, -2 * 101 * 3);
        assert_eq!(f.slippage_half, 0);
    }

    #[test]
    fn sweep_misses_when_market_ran_away() {
        // The ask moved above the stale limit: the IOC cancels unfilled.
        let book = snap(vec![level(100, 5)], vec![level(103, 5)]);
        let f = fill_ioc(
            &book,
            Side::Bid,
            Price::new(101),
            Qty::new(2),
            FillModel::SweepVisible,
            &FeeModel::zero(),
        );
        assert_eq!(f, Fill::MISS);
    }

    #[test]
    fn sweep_takes_price_improvement_as_negative_slippage() {
        // The ask dropped below the stale buy limit: fill at the better
        // price, slippage is negative (improvement).
        let book = snap(vec![level(97, 5)], vec![level(99, 4)]);
        let f = fill_ioc(
            &book,
            Side::Bid,
            Price::new(101),
            Qty::new(2),
            FillModel::SweepVisible,
            &FeeModel::zero(),
        );
        assert_eq!(f.filled, Qty::new(2));
        assert_eq!(f.cash_delta_half, -2 * 99 * 2);
        assert_eq!(f.slippage_half, 2 * (99 - 101) * 2);
        assert!(f.slippage_half < 0);
    }

    #[test]
    fn sell_sweeps_bids_downward() {
        let book = snap(vec![level(100, 1), level(99, 2)], vec![level(105, 9)]);
        let f = fill_ioc(
            &book,
            Side::Ask,
            Price::new(99),
            Qty::new(3),
            FillModel::SweepVisible,
            &FeeModel::zero(),
        );
        assert_eq!(f.filled, Qty::new(3));
        assert_eq!(f.cash_delta_half, 2 * (100 + 99 * 2));
        // One contract at 100 against a 99 limit: one tick of improvement.
        assert_eq!(f.slippage_half, -2);
    }

    #[test]
    fn fees_charged_only_on_fills() {
        let fees = FeeModel {
            per_contract_half: 1,
            per_order_half: 2,
        };
        let book = snap(vec![level(99, 10)], vec![level(101, 10)]);
        let hit = fill_ioc(
            &book,
            Side::Bid,
            Price::new(101),
            Qty::new(3),
            FillModel::SweepVisible,
            &fees,
        );
        assert_eq!(hit.fee_half, 2 + 3);
        assert_eq!(hit.cash_delta_half, -2 * 101 * 3);
        let miss = fill_ioc(
            &book,
            Side::Bid,
            Price::new(95),
            Qty::new(3),
            FillModel::SweepVisible,
            &fees,
        );
        assert_eq!(miss, Fill::MISS);
    }

    /// Reconstructs a book from snapshot levels inside the real matching
    /// engine, submits the same IOC, and checks the sweep model agrees on
    /// both filled quantity and gross cash — the "replayed via the
    /// existing MatchingEngine/LadderBook" pin.
    #[test]
    fn sweep_matches_matching_engine_on_reconstructed_book() {
        let cases = vec![
            // (bids, asks, side, limit, qty)
            (
                vec![level(99, 10)],
                vec![level(101, 3), level(102, 4)],
                Side::Bid,
                102,
                6,
            ),
            (
                vec![level(99, 10)],
                vec![level(101, 3), level(102, 4)],
                Side::Bid,
                101,
                6,
            ),
            (
                vec![level(100, 2), level(98, 5)],
                vec![level(103, 1)],
                Side::Ask,
                98,
                9,
            ),
            (vec![level(100, 2)], vec![level(104, 2)], Side::Bid, 101, 1),
            (vec![], vec![level(101, 2)], Side::Bid, 101, 2),
            (vec![level(99, 7)], vec![], Side::Ask, 99, 7),
        ];
        for (bids, asks, side, limit, qty) in cases {
            let book = snap(bids.clone(), asks.clone());
            let mut engine = MatchingEngine::new(Symbol::new("ESU6"));
            let t = Timestamp::from_nanos(0);
            let mut id = 1u64;
            for l in bids.iter().chain(asks.iter()) {
                let rest_side = if bids.contains(l) {
                    Side::Bid
                } else {
                    Side::Ask
                };
                engine.submit(
                    NewOrder::limit(OrderId::new(id), rest_side, l.price, l.qty),
                    t,
                );
                id += 1;
            }
            let out = engine.submit(
                NewOrder::ioc(OrderId::new(id), side, Price::new(limit), Qty::new(qty)),
                Timestamp::from_nanos(1),
            );
            let model = fill_ioc(
                &book,
                side,
                Price::new(limit),
                Qty::new(qty),
                FillModel::SweepVisible,
                &FeeModel::zero(),
            );
            // Filled quantity and gross cash from the engine's trade events.
            let (mut engine_filled, mut engine_cash_half) = (0u64, 0i64);
            for ev in &out.events {
                if let crate::events::MarketEventKind::Trade(tr) = &ev.kind {
                    engine_filled += tr.qty.contracts();
                    let notional = 2 * tr.price.ticks() * tr.qty.contracts() as i64;
                    match side {
                        Side::Bid => engine_cash_half -= notional,
                        Side::Ask => engine_cash_half += notional,
                    }
                }
            }
            assert_eq!(
                model.filled,
                Qty::new(engine_filled),
                "filled qty disagrees for {side:?} {qty}@{limit}"
            );
            assert_eq!(
                model.cash_delta_half, engine_cash_half,
                "cash disagrees for {side:?} {qty}@{limit}"
            );
        }
    }

    #[test]
    fn mid_half_ticks_is_exact() {
        let book = snap(vec![level(99, 1)], vec![level(102, 1)]);
        // (99 + 102) / 2 = 100.5 ticks = 201 half-ticks — exact where
        // integer-tick division truncates.
        assert_eq!(book.mid_half_ticks(), Some(201));
        assert_eq!(LobSnapshot::default().mid_half_ticks(), None);
    }
}
