//! The trading engine: inference results to risk-checked orders.
//!
//! "The trading engine conducts the post-processing on the inference
//! output and generates orders … It allows HFT firms to combine the AI
//! algorithm with the conventional trading algorithms or risk check
//! logics, which are essential for managing the risk of black-box
//! properties of AI algorithms" (§III-A). The strategy here is the
//! paper's own illustration: a Down prediction sells holdings, an Up
//! prediction buys, a Stationary prediction does nothing — each gated by
//! confidence, the book, position limits, the messaging-rate limiter and
//! the kill switch.
//!
//! The rules are two steps, which the functional trader runs back to back
//! on one book and the back-test runs on two: [`TradingEngine::intent`],
//! the stateless touch rule (an IOC at the touch, or a bad book), at
//! decision time, and [`TradingEngine::settle`] (kill gate, position cap,
//! fill, ledger, re-mark) when the order reaches the venue.

use crate::portfolio::Portfolio;
use crate::rate_limit::{KillSwitch, OrderRateLimiter};
use lt_dnn::{Prediction, PriceDirection};
use lt_lob::execution::{fill_ioc, FeeModel, Fill, FillModel, OrderIntent};
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

/// The order generator with its risk gates and position and P&L tracking.
#[derive(Debug, Clone)]
pub struct TradingEngine {
    symbol: Symbol,
    limits: RiskLimits,
    portfolio: Portfolio,
    /// The messaging-rate gate; `None` passes every order.
    limiter: Option<OrderRateLimiter>,
    /// The loss-floor gate; `None` never halts.
    kill: Option<KillSwitch>,
    next_order_id: u64,
    orders_sent: u64,
    suppressed: u64,
    rate_limited: u64,
}

impl TradingEngine {
    /// Creates an engine with a flat position and neither a rate limiter
    /// nor a kill switch.
    pub fn new(symbol: Symbol, limits: RiskLimits) -> Self {
        TradingEngine {
            symbol,
            limits,
            portfolio: Portfolio::new(),
            limiter: None,
            kill: None,
            next_order_id: 1,
            orders_sent: 0,
            suppressed: 0,
            rate_limited: 0,
        }
    }

    /// Arms the two gates [`RiskLimits`] leaves out: at most
    /// `orders_per_second` orders in any one-second window (exchange
    /// messaging limits), and a kill switch that halts trading for good
    /// once the mark-to-market P&L falls to `loss_floor_ticks` (ticks x
    /// contracts). `None` leaves a gate off.
    ///
    /// # Panics
    ///
    /// Panics if `orders_per_second` is zero.
    #[must_use]
    pub fn with_gates(
        mut self,
        orders_per_second: Option<u32>,
        loss_floor_ticks: Option<i64>,
    ) -> Self {
        self.limiter = orders_per_second.map(OrderRateLimiter::per_second);
        self.kill = loss_floor_ticks.map(KillSwitch::new);
        self
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

    /// The ledger every settled fill is booked into.
    pub fn portfolio(&self) -> &Portfolio {
        &self.portfolio
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

    /// Signals the messaging-rate limiter suppressed: a subset of
    /// [`Self::suppressed`].
    pub fn rate_limited(&self) -> u64 {
        self.rate_limited
    }

    /// Marks the open position to market at `book`'s exact half-tick mid
    /// for the kill switch (a one-sided book marks nothing). It runs on
    /// every tick, orders in flight or not, so a drawdown on a held
    /// position halts trading on the tick that breaches the floor.
    pub fn mark(&mut self, book: &LobSnapshot) {
        if let Some(kill) = &mut self.kill {
            if let Some(mid_half) = book.mid_half_ticks() {
                kill.observe_pnl_half(self.portfolio.equity_half(mid_half));
            }
        }
    }

    /// Post-processes one inference result against the current book, at
    /// its timestamp: every gate in order — mark, kill switch, rate
    /// limiter, stationary, confidence, then [`Self::intent`]'s book and
    /// spread and [`Self::settle`]'s position cap — and, when all pass,
    /// the order to transmit, its assumed fill settled at once. The first
    /// gate that fires names the suppression.
    ///
    /// This is the *functional* path, where no venue model replays the
    /// book at order-arrival time: the IOC sweeps the levels `book`
    /// shows at or better than its limit, fee-free. The back-test settles
    /// its orders through [`Self::settle`] against the book at arrival.
    pub fn on_prediction(
        &mut self,
        prediction: &Prediction,
        book: &LobSnapshot,
    ) -> Result<OrderMessage, NoOrderReason> {
        self.mark(book);
        let intent = self
            .gate(prediction, book)
            .map_err(|reason| self.suppress(reason))?;
        self.settle(intent, book, FillModel::SweepVisible, &FeeModel::zero())?;
        if let Some(limiter) = &mut self.limiter {
            limiter.record(book.ts);
        }
        let id = OrderId::new(self.next_order_id);
        self.next_order_id += 1;
        Ok(OrderMessage {
            cl_ord_id: id,
            symbol: self.symbol,
            kind: OrderMessageKind::New {
                side: intent.side,
                price: intent.limit,
                qty: intent.qty,
                tif: lt_lob::TimeInForce::Ioc,
            },
        })
    }

    /// The gates ahead of the touch rule, in order: kill switch, rate
    /// limiter at `book.ts`, stationary, confidence; then the touch rule
    /// on the predicted side.
    fn gate(
        &mut self,
        prediction: &Prediction,
        book: &LobSnapshot,
    ) -> Result<OrderIntent, NoOrderReason> {
        if self.killed() {
            return Err(NoOrderReason::Killed);
        }
        if let Some(limiter) = &mut self.limiter {
            if !limiter.would_allow(book.ts) {
                return Err(NoOrderReason::RateLimited);
            }
        }
        let side = match prediction.direction() {
            PriceDirection::Stationary => return Err(NoOrderReason::Stationary),
            PriceDirection::Up => Side::Bid,
            PriceDirection::Down => Side::Ask,
        };
        // Negated so a NaN confidence is low: every NaN comparison is
        // false, and a NaN answer's direction reads as Up.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(prediction.confidence() >= self.limits.min_confidence) {
            return Err(NoOrderReason::LowConfidence);
        }
        self.intent(side, book)
    }

    /// The touch rule: an IOC for `order_qty` contracts on `side` at the
    /// touch it crosses (a buy lifts the best ask, a sell hits the best
    /// bid), or [`NoOrderReason::BadBook`] when `book` is one-sided or
    /// wider than the spread gate. It reads no state but the limits.
    pub fn intent(&self, side: Side, book: &LobSnapshot) -> Result<OrderIntent, NoOrderReason> {
        let (Some(bid), Some(ask)) = (book.best_bid(), book.best_ask()) else {
            return Err(NoOrderReason::BadBook);
        };
        if ask.price - bid.price > self.limits.max_spread_ticks {
            return Err(NoOrderReason::BadBook);
        }
        let limit = match side {
            Side::Bid => ask.price,
            Side::Ask => bid.price,
        };
        Ok(OrderIntent {
            side,
            limit,
            qty: Qty::new(self.limits.order_qty),
        })
    }

    /// The settle step: the kill switch and the position cap, then the
    /// order counts as sent, fills against `book` under `model` and
    /// `fees` (a miss books nothing), lands in the ledger, and the
    /// position is marked again at `book`'s mid, so the fill that opens a
    /// breach is the one that halts. A gate that fires counts the order
    /// suppressed.
    pub fn settle(
        &mut self,
        intent: OrderIntent,
        book: &LobSnapshot,
        model: FillModel,
        fees: &FeeModel,
    ) -> Result<Fill, NoOrderReason> {
        if self.killed() {
            return Err(self.suppress(NoOrderReason::Killed));
        }
        let qty = intent.qty.contracts() as i64;
        let delta = match intent.side {
            Side::Bid => qty,
            Side::Ask => -qty,
        };
        if (self.portfolio.position() + delta).abs() > self.limits.max_position {
            return Err(self.suppress(NoOrderReason::PositionLimit));
        }
        self.orders_sent += 1;
        let fill = fill_ioc(book, intent.side, intent.limit, intent.qty, model, fees);
        self.portfolio.apply(intent.side, &fill);
        self.mark(book);
        Ok(fill)
    }

    fn killed(&self) -> bool {
        self.kill.as_ref().is_some_and(|kill| !kill.is_armed())
    }

    /// Counts a suppression by `reason`'s gate and hands `reason` back.
    fn suppress(&mut self, reason: NoOrderReason) -> NoOrderReason {
        self.suppressed += 1;
        self.rate_limited += u64::from(reason == NoOrderReason::RateLimited);
        reason
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
        let intent = e.intent(Side::Bid, &book(99, 101)).unwrap();
        assert_eq!(e.position(), 0, "no fill settled yet");
        assert_eq!(e.cash_ticks(), 0);
        assert_eq!(e.orders_sent(), 0, "the touch rule sends nothing");
        assert_eq!((intent.limit, intent.qty), (Price::new(101), Qty::new(1)));
        let fill = e
            .settle(
                intent,
                &book(99, 101),
                FillModel::SweepVisible,
                &FeeModel::zero(),
            )
            .unwrap();
        assert_eq!(fill.filled, Qty::new(1));
        assert_eq!(e.orders_sent(), 1);
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

    /// An engine with both optional gates armed: one order a second and a
    /// kill switch at a 5-tick loss.
    fn gated(limits: RiskLimits) -> TradingEngine {
        TradingEngine::new(Symbol::new("ESU6"), limits).with_gates(Some(1), Some(-5))
    }

    /// When several gates fire on one tick, the first in decision order
    /// names the outcome (mark → kill → rate limit → stationary →
    /// confidence → book/spread → position), and the tick counts as one
    /// suppression, a rate-limited one only when the limiter fired first.
    #[test]
    fn the_first_firing_gate_names_the_outcome() {
        let up = pred(0.9, 0.05, 0.05);
        let one_sided = LobSnapshot {
            bids: Vec::new(),
            ..book(99, 101)
        };
        // (row, max position, orders placed first, probe prediction,
        //  probe book, first reason, suppressed, rate-limited)
        let rows = [
            // A long from 101 marked at 90 is 11 ticks under the −5 floor.
            (
                "killed and stationary",
                50,
                1,
                pred(0.05, 0.9, 0.05),
                book(89, 91),
                NoOrderReason::Killed,
                1,
                0,
            ),
            // The one order a second the limiter passes went out at t = 0.
            (
                "rate-limited and low confidence",
                50,
                1,
                pred(0.4, 0.3, 0.3),
                book(99, 101),
                NoOrderReason::RateLimited,
                1,
                1,
            ),
            (
                "one-sided book and position cap",
                0,
                0,
                up,
                one_sided,
                NoOrderReason::BadBook,
                1,
                0,
            ),
        ];
        for (row, max_position, placed, probe, probe_book, reason, suppressed, rate_limited) in rows
        {
            let mut e = gated(RiskLimits {
                max_position,
                ..RiskLimits::default()
            });
            for _ in 0..placed {
                assert!(e.on_prediction(&up, &book(99, 101)).is_ok(), "{row}");
            }
            assert_eq!(e.on_prediction(&probe, &probe_book), Err(reason), "{row}");
            assert_eq!(
                (e.suppressed(), e.rate_limited()),
                (suppressed, rate_limited),
                "{row}"
            );
        }
    }

    /// The kill switch latches at the mark that breaches the floor, and
    /// the settle step refuses every later order, as the back-test's
    /// arrivals meet it, even once the P&L has recovered.
    #[test]
    fn a_drawdown_trips_the_kill_switch_at_the_breach_mark() {
        let mut e = gated(RiskLimits::default());
        e.on_prediction(&pred(0.9, 0.05, 0.05), &book(99, 101))
            .unwrap();
        let armed = |e: &TradingEngine| e.kill.as_ref().unwrap().is_armed();
        // Long 1 from 101 against a −5-tick floor: a 96.5 mid is −4.5.
        e.mark(&book(95, 98));
        assert!(armed(&e), "the last mark above the floor");
        // A 96 mid is −5: at the floor.
        e.mark(&book(95, 97));
        assert!(!armed(&e), "the first mark at the floor");
        // Back to a 100 mid (−1): still halted.
        e.mark(&book(99, 101));
        assert!(!armed(&e));
        let intent = e.intent(Side::Ask, &book(99, 101)).unwrap();
        assert_eq!(
            e.settle(
                intent,
                &book(99, 101),
                FillModel::SweepVisible,
                &FeeModel::zero()
            ),
            Err(NoOrderReason::Killed)
        );
        assert_eq!((e.orders_sent(), e.suppressed()), (1, 1));
        assert_eq!(e.position(), 1);
    }
}
