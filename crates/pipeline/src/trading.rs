//! The trading engine: inference results to risk-checked orders.
//!
//! "The trading engine conducts the post-processing on the inference
//! output and generates orders … It allows HFT firms to combine the AI
//! algorithm with the conventional trading algorithms or risk check
//! logics, which are essential for managing the risk of black-box
//! properties of AI algorithms" (§III-A). The strategy here is the
//! paper's own illustration: a Down prediction sells holdings, an Up
//! prediction buys, a Stationary prediction does nothing — each gated by
//! confidence and position limits.

use crate::portfolio::Portfolio;
use lt_dnn::{Prediction, PriceDirection};
use lt_lob::execution::{fill_ioc, FeeModel, Fill, FillModel};
use lt_lob::{LobSnapshot, OrderId, Price, Qty, Side, Symbol};
use lt_protocol::ilink::{OrderMessage, OrderMessageKind};
use serde::{Deserialize, Serialize};

/// Risk gates applied before any order leaves the system.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RiskLimits {
    /// Minimum winning-class probability to act at all.
    pub min_confidence: f32,
    /// Absolute net-position cap in contracts.
    pub max_position: i64,
    /// Contracts per generated order.
    pub order_qty: u64,
    /// Maximum acceptable spread (ticks) to trade into; wider books are
    /// too thin to cross.
    pub max_spread_ticks: i64,
}

impl Default for RiskLimits {
    fn default() -> Self {
        RiskLimits {
            min_confidence: 0.45,
            max_position: 50,
            order_qty: 1,
            max_spread_ticks: 8,
        }
    }
}

/// Why the trading engine declined to send an order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NoOrderReason {
    /// The model predicted a stationary price.
    Stationary,
    /// The winning probability fell below the confidence gate.
    LowConfidence,
    /// Acting would breach the position cap.
    PositionLimit,
    /// The book is one-sided or wider than the spread gate.
    BadBook,
    /// The exchange messaging-rate limit would be breached.
    RateLimited,
    /// The kill switch is tripped; all trading is halted.
    Killed,
}

/// The order generator with position and P&L tracking.
#[derive(Debug, Clone)]
pub struct TradingEngine {
    symbol: Symbol,
    limits: RiskLimits,
    portfolio: Portfolio,
    next_order_id: u64,
    orders_sent: u64,
    suppressed: u64,
}

impl TradingEngine {
    /// Creates an engine with a flat position.
    pub fn new(symbol: Symbol, limits: RiskLimits) -> Self {
        TradingEngine {
            symbol,
            limits,
            portfolio: Portfolio::new(),
            next_order_id: 1,
            orders_sent: 0,
            suppressed: 0,
        }
    }

    /// Current net position in contracts (positive = long).
    pub fn position(&self) -> i64 {
        self.portfolio.position()
    }

    /// Realized cash in ticks x contracts (positive = net proceeds). The
    /// functional path fills fee-free at integer tick prices, so the
    /// half-tick ledger's cash is always an even number of half-ticks and
    /// this conversion is exact.
    pub fn cash_ticks(&self) -> i64 {
        self.portfolio.cash_half() / 2
    }

    /// Orders transmitted so far.
    pub fn orders_sent(&self) -> u64 {
        self.orders_sent
    }

    /// Mark-to-market P&L in ticks x contracts at `mid` (realized cash
    /// plus open inventory valued at the mid price).
    ///
    /// # Example
    ///
    /// ```
    /// # use lt_pipeline::{RiskLimits, TradingEngine};
    /// # use lt_lob::{Price, Symbol};
    /// let engine = TradingEngine::new(Symbol::new("ESU6"), RiskLimits::default());
    /// assert_eq!(engine.mark_to_market(Price::new(18_000)), 0);
    /// ```
    pub fn mark_to_market(&self, mid: Price) -> i64 {
        self.mark_to_market_half(2 * mid.ticks()) / 2
    }

    /// Mark-to-market P&L in **half-ticks** at a half-tick mid — exact on
    /// odd spreads where the integer-tick mid truncates. Pair with
    /// [`LobSnapshot::mid_half_ticks`].
    pub fn mark_to_market_half(&self, mid_half: i64) -> i64 {
        self.portfolio.equity_half(mid_half)
    }

    /// Signals suppressed by a risk gate so far.
    pub fn suppressed(&self) -> u64 {
        self.suppressed
    }

    /// Records a suppression decided *outside* the engine (the kill
    /// switch or the messaging-rate limiter short-circuits before
    /// [`Self::on_prediction`] runs), so the suppression total agrees
    /// with the per-tick outcomes the caller reports.
    pub fn note_suppressed(&mut self) {
        self.suppressed += 1;
    }

    /// Post-processes one inference result against the current book:
    /// [`Self::propose`] plus immediate settlement of the assumed fill.
    ///
    /// This is the *functional* path, where no venue model replays the
    /// book at order-arrival time. The order is assumed to fill at its
    /// limit, but — unlike the historical behavior that booked the full
    /// `order_qty` unconditionally — the assumed fill is capped at the
    /// quantity visible at the touch. The back-test does not come through
    /// here: it fills each order against the book at its arrival and
    /// books the fill in its own per-shard [`Portfolio`].
    pub fn on_prediction(
        &mut self,
        prediction: &Prediction,
        book: &LobSnapshot,
    ) -> Result<OrderMessage, NoOrderReason> {
        let order = self.propose(prediction, book)?;
        let OrderMessageKind::New {
            side, price, qty, ..
        } = order.kind
        else {
            unreachable!("propose only emits new orders");
        };
        let fill = fill_ioc(
            book,
            side,
            price,
            qty,
            FillModel::SweepVisible,
            &FeeModel::zero(),
        );
        self.settle(side, &fill);
        Ok(order)
    }

    /// Runs the risk gates against one inference result and generates the
    /// order to transmit — or the reason it was suppressed. An Up
    /// prediction lifts the best ask (IOC); a Down prediction hits the
    /// best bid. No fill is booked: [`Self::on_prediction`] settles the
    /// assumed fill through [`Self::settle`].
    fn propose(
        &mut self,
        prediction: &Prediction,
        book: &LobSnapshot,
    ) -> Result<OrderMessage, NoOrderReason> {
        let outcome = self.propose_inner(prediction, book);
        match &outcome {
            Ok(_) => self.orders_sent += 1,
            Err(_) => self.suppressed += 1,
        }
        outcome
    }

    fn propose_inner(
        &mut self,
        prediction: &Prediction,
        book: &LobSnapshot,
    ) -> Result<OrderMessage, NoOrderReason> {
        let direction = prediction.direction();
        if direction == PriceDirection::Stationary {
            return Err(NoOrderReason::Stationary);
        }
        // Negated so a NaN confidence is low: every NaN comparison is
        // false, and a NaN answer's direction reads as Up.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(prediction.confidence() >= self.limits.min_confidence) {
            return Err(NoOrderReason::LowConfidence);
        }
        let (Some(bid), Some(ask)) = (book.best_bid(), book.best_ask()) else {
            return Err(NoOrderReason::BadBook);
        };
        if ask.price - bid.price > self.limits.max_spread_ticks {
            return Err(NoOrderReason::BadBook);
        }
        let qty = self.limits.order_qty as i64;
        let (side, price, position_delta) = match direction {
            PriceDirection::Up => (Side::Bid, ask.price, qty),
            PriceDirection::Down => (Side::Ask, bid.price, -qty),
            PriceDirection::Stationary => unreachable!("handled above"),
        };
        if (self.portfolio.position() + position_delta).abs() > self.limits.max_position {
            return Err(NoOrderReason::PositionLimit);
        }
        let id = OrderId::new(self.next_order_id);
        self.next_order_id += 1;
        Ok(OrderMessage {
            cl_ord_id: id,
            symbol: self.symbol,
            kind: OrderMessageKind::New {
                side,
                price,
                qty: Qty::new(self.limits.order_qty),
                tif: lt_lob::TimeInForce::Ioc,
            },
        })
    }

    /// Books a settled fill for an order previously generated by
    /// [`Self::propose`] into the portfolio. A missed IOC (zero fill) is
    /// a no-op on the ledger.
    fn settle(&mut self, side: Side, fill: &Fill) {
        self.portfolio.apply(side, fill);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lt_lob::snapshot::SnapshotLevel;
    use lt_lob::Timestamp;

    fn book(bid: i64, ask: i64) -> LobSnapshot {
        LobSnapshot {
            ts: Timestamp::ZERO,
            bids: vec![SnapshotLevel {
                price: Price::new(bid),
                qty: Qty::new(10),
            }],
            asks: vec![SnapshotLevel {
                price: Price::new(ask),
                qty: Qty::new(10),
            }],
        }
    }

    fn engine() -> TradingEngine {
        TradingEngine::new(Symbol::new("ESU6"), RiskLimits::default())
    }

    fn pred(up: f32, stat: f32, down: f32) -> Prediction {
        Prediction::new([up, stat, down])
    }

    #[test]
    fn up_prediction_buys_at_ask() {
        let mut e = engine();
        let order = e
            .on_prediction(&pred(0.8, 0.1, 0.1), &book(99, 101))
            .unwrap();
        match order.kind {
            OrderMessageKind::New { side, price, .. } => {
                assert_eq!(side, Side::Bid);
                assert_eq!(price, Price::new(101), "lifts the offer");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(e.position(), 1);
        assert_eq!(e.orders_sent(), 1);
    }

    #[test]
    fn down_prediction_sells_at_bid() {
        let mut e = engine();
        let order = e
            .on_prediction(&pred(0.1, 0.1, 0.8), &book(99, 101))
            .unwrap();
        match order.kind {
            OrderMessageKind::New { side, price, .. } => {
                assert_eq!(side, Side::Ask);
                assert_eq!(price, Price::new(99), "hits the bid");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(e.position(), -1);
    }

    #[test]
    fn stationary_and_low_confidence_hold() {
        let mut e = engine();
        assert_eq!(
            e.on_prediction(&pred(0.2, 0.6, 0.2), &book(99, 101)),
            Err(NoOrderReason::Stationary)
        );
        assert_eq!(
            e.on_prediction(&pred(0.4, 0.3, 0.3), &book(99, 101)),
            Err(NoOrderReason::LowConfidence)
        );
        assert_eq!(e.position(), 0);
        assert_eq!(e.suppressed(), 2);
    }

    #[test]
    fn nan_prediction_never_trades() {
        // Built directly: `Prediction::new` debug-asserts a sum of one.
        let nan = Prediction {
            probs: [f32::NAN; 3],
        };
        assert_eq!(nan.direction(), PriceDirection::Up, "NaN compares false");
        for min_confidence in [0.0, 0.45] {
            let mut e = TradingEngine::new(
                Symbol::new("ESU6"),
                RiskLimits {
                    min_confidence,
                    ..RiskLimits::default()
                },
            );
            assert_eq!(
                e.on_prediction(&nan, &book(99, 101)),
                Err(NoOrderReason::LowConfidence)
            );
            assert_eq!((e.orders_sent(), e.suppressed()), (0, 1));
            assert_eq!(e.position(), 0);
        }
    }

    #[test]
    fn position_limit_blocks_runaway() {
        let mut e = TradingEngine::new(
            Symbol::new("ESU6"),
            RiskLimits {
                max_position: 2,
                ..RiskLimits::default()
            },
        );
        let p = pred(0.9, 0.05, 0.05);
        assert!(e.on_prediction(&p, &book(99, 101)).is_ok());
        assert!(e.on_prediction(&p, &book(99, 101)).is_ok());
        assert_eq!(
            e.on_prediction(&p, &book(99, 101)),
            Err(NoOrderReason::PositionLimit)
        );
        assert_eq!(e.position(), 2);
        // Selling is still allowed: it reduces exposure.
        assert!(e
            .on_prediction(&pred(0.05, 0.05, 0.9), &book(99, 101))
            .is_ok());
        assert_eq!(e.position(), 1);
    }

    #[test]
    fn wide_or_empty_books_rejected() {
        let mut e = engine();
        let p = pred(0.9, 0.05, 0.05);
        assert_eq!(
            e.on_prediction(&p, &book(90, 110)),
            Err(NoOrderReason::BadBook)
        );
        let empty = LobSnapshot::default();
        assert_eq!(e.on_prediction(&p, &empty), Err(NoOrderReason::BadBook));
    }

    #[test]
    fn pnl_tracks_round_trip() {
        let mut e = engine();
        // Buy at 101, sell at 105: +4 ticks realized.
        assert!(e
            .on_prediction(&pred(0.9, 0.05, 0.05), &book(99, 101))
            .is_ok());
        assert_eq!(e.position(), 1);
        assert_eq!(e.cash_ticks(), -101);
        assert_eq!(e.mark_to_market(Price::new(101)), 0, "flat at entry");
        assert!(e
            .on_prediction(&pred(0.05, 0.05, 0.9), &book(105, 107))
            .is_ok());
        assert_eq!(e.position(), 0);
        assert_eq!(e.cash_ticks(), 4);
        assert_eq!(
            e.mark_to_market(Price::new(1_000)),
            4,
            "flat book ignores mid"
        );
    }

    #[test]
    fn mark_to_market_values_open_inventory() {
        let mut e = engine();
        e.on_prediction(&pred(0.9, 0.05, 0.05), &book(99, 101))
            .unwrap();
        // Long 1 from 101; mid 103 -> +2.
        assert_eq!(e.mark_to_market(Price::new(103)), 2);
        // Mid 100 -> -1.
        assert_eq!(e.mark_to_market(Price::new(100)), -1);
    }

    #[test]
    fn assumed_fill_capped_at_visible_depth() {
        // The touch shows 3 contracts; a 5-lot IOC must not book 5.
        let mut e = TradingEngine::new(
            Symbol::new("ESU6"),
            RiskLimits {
                order_qty: 5,
                ..RiskLimits::default()
            },
        );
        let thin = LobSnapshot {
            ts: Timestamp::ZERO,
            bids: vec![SnapshotLevel {
                price: Price::new(99),
                qty: Qty::new(10),
            }],
            asks: vec![SnapshotLevel {
                price: Price::new(101),
                qty: Qty::new(3),
            }],
        };
        assert!(e.on_prediction(&pred(0.9, 0.05, 0.05), &thin).is_ok());
        assert_eq!(e.position(), 3, "only the visible 3 fill");
        assert_eq!(e.cash_ticks(), -3 * 101);
    }

    #[test]
    fn propose_books_nothing_until_settled() {
        let mut e = engine();
        let order = e.propose(&pred(0.9, 0.05, 0.05), &book(99, 101)).unwrap();
        assert_eq!(e.position(), 0, "no fill settled yet");
        assert_eq!(e.cash_ticks(), 0);
        assert_eq!(e.orders_sent(), 1);
        let OrderMessageKind::New {
            side, price, qty, ..
        } = order.kind
        else {
            panic!("expected a new order");
        };
        let fill = lt_lob::execution::fill_ioc(
            &book(99, 101),
            side,
            price,
            qty,
            lt_lob::FillModel::SweepVisible,
            &lt_lob::FeeModel::zero(),
        );
        e.settle(side, &fill);
        assert_eq!(e.position(), 1);
        assert_eq!(e.cash_ticks(), -101);
    }

    #[test]
    fn mark_to_market_half_is_exact_on_odd_spreads() {
        let mut e = engine();
        e.on_prediction(&pred(0.9, 0.05, 0.05), &book(99, 102))
            .unwrap();
        // Long 1 from 102; mid of 99/102 is 100.5 ticks = 201 half-ticks.
        assert_eq!(e.mark_to_market_half(201), 201 - 2 * 102);
    }

    #[test]
    fn orders_get_unique_ids_and_encode_both_formats() {
        let mut e = engine();
        let p = pred(0.9, 0.05, 0.05);
        let a = e.on_prediction(&p, &book(99, 101)).unwrap();
        let b = e.on_prediction(&p, &book(99, 101)).unwrap();
        assert_ne!(a.cl_ord_id, b.cl_ord_id);
        // Both wire formats round-trip.
        let bin = a.encode();
        assert_eq!(OrderMessage::decode(&bin).unwrap().0, a);
        let fix = lt_protocol::FixEncoder::new().encode(&a);
        assert_eq!(lt_protocol::FixDecoder::new().decode(&fix).unwrap(), a);
    }
}
