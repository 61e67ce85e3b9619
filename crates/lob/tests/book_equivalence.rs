//! Differential suite pinning [`MatchingEngine`] and its [`LadderBook`] to
//! a map-based [`ReferenceBook`].
//!
//! Each action stream runs through one engine. For every outcome,
//! [`mirror`] follows the events the engine published and checks each
//! decision against the reference before applying it there: a trade's
//! maker is the reference's front and crosses the taker's limit, each
//! maker update is what the reference's fill leaves, a remainder leaves
//! nothing crossable, and every rejection (zero quantity, duplicate or
//! unknown id, unfillable fill-or-kill) holds exactly when the reference
//! says it should. The two books must then agree on every observable
//! surface — best prices, level views, snapshots, features, and each
//! order's `seq`, `original` and `arrival`.

#[path = "support/reference_book.rs"]
mod reference_book;

use lt_lob::events::MarketEventKind;
use lt_lob::prelude::*;
use proptest::prelude::*;
use reference_book::ReferenceBook;
use std::iter::Peekable;

/// A random order action the engine must process as the reference does.
#[derive(Debug, Clone)]
enum Action {
    New {
        side: Side,
        price: i64,
        qty: u64,
        tif: u8,
    },
    Cancel {
        target: u64,
    },
    Replace {
        target: u64,
        price: i64,
        qty: u64,
    },
}

/// Banded prices with occasional multi-thousand-tick excursions so streams
/// exercise the ladder's rehoming path, not just the warm band.
fn price_strategy() -> impl Strategy<Value = i64> {
    prop_oneof![
        8 => 9_990i64..10_010,
        1 => 8_000i64..12_000,
        1 => 1i64..20_000,
    ]
}

fn action_strategy() -> impl Strategy<Value = Action> {
    prop_oneof![
        5 => (any::<bool>(), price_strategy(), 1u64..20, 0u8..3).prop_map(
            |(bid, price, qty, tif)| Action::New {
                side: if bid { Side::Bid } else { Side::Ask },
                price,
                qty,
                tif,
            }
        ),
        2 => (0u64..96).prop_map(|target| Action::Cancel { target }),
        2 => (0u64..96, price_strategy(), 0u64..20).prop_map(|(target, price, qty)| {
            Action::Replace { target, price, qty }
        }),
    ]
}

/// One action with its ids resolved, as the engine receives it.
#[derive(Debug, Clone, Copy)]
enum Request {
    New(NewOrder),
    Cancel(OrderId),
    Replace { id: OrderId, price: Price, qty: Qty },
}

/// Resolves one action's ids exactly like the property suite does: a new
/// order takes the next id, a cancel or replace targets a known one.
fn resolve(next_id: &mut u64, known: &mut Vec<OrderId>, action: &Action) -> Request {
    let target = |t: u64, known: &[OrderId]| {
        known
            .get(t as usize % known.len().max(1))
            .copied()
            .unwrap_or(OrderId::new(9999))
    };
    match *action {
        Action::New {
            side,
            price,
            qty,
            tif,
        } => {
            let id = OrderId::new(*next_id);
            *next_id += 1;
            known.push(id);
            let (price, qty) = (Price::new(price), Qty::new(qty));
            Request::New(match tif {
                0 => NewOrder::limit(id, side, price, qty),
                1 => NewOrder::ioc(id, side, price, qty),
                _ => NewOrder {
                    tif: TimeInForce::Fok,
                    ..NewOrder::limit(id, side, price, qty)
                },
            })
        }
        Action::Cancel { target: t } => Request::Cancel(target(t, known)),
        Action::Replace {
            target: t,
            price,
            qty,
        } => Request::Replace {
            id: target(t, known),
            price: Price::new(price),
            qty: Qty::new(qty),
        },
    }
}

fn send(engine: &mut MatchingEngine, request: Request, ts: Timestamp) -> MatchOutcome {
    match request {
        Request::New(order) => engine.submit(order, ts),
        Request::Cancel(id) => engine.cancel(id, ts),
        Request::Replace { id, price, qty } => engine.replace(id, price, qty, ts),
    }
}

/// Checks one engine outcome against the reference book, one decision at a
/// time and before the reference applies it, so the reference ends where
/// the engine's book should be.
fn mirror(reference: &mut ReferenceBook, request: &Request, ts: Timestamp, outcome: &MatchOutcome) {
    let mut m = Mirror {
        reference,
        events: outcome.events.iter().peekable(),
        report: outcome.report,
        ts,
        at: format!("{ts:?} {request:?}"),
    };
    let report = match *request {
        Request::New(order) => m.submit(order),
        Request::Cancel(id) => match m.reference.remove(id) {
            None => ExecutionReport::Rejected(RejectReason::UnknownOrder),
            Some(old) => {
                m.expect(delete(&old), "cancel");
                ExecutionReport::Cancelled { filled: Qty::ZERO }
            }
        },
        Request::Replace { id, price, qty } => match m.reference.remove(id) {
            None => ExecutionReport::Rejected(RejectReason::UnknownOrder),
            Some(old) => {
                m.expect(delete(&old), "replace's delete");
                if qty.is_zero() {
                    ExecutionReport::Cancelled { filled: Qty::ZERO }
                } else {
                    m.submit(NewOrder::limit(id, old.side, price, qty))
                }
            }
        },
    };
    assert_eq!(m.report, report, "{}: report", m.at);
    assert_eq!(m.events.next(), None, "{}: an unexpected event", m.at);
}

fn delete(order: &Order) -> MarketEventKind {
    MarketEventKind::Book(BookDelta::Delete {
        id: order.id,
        side: order.side,
        price: order.price,
    })
}

/// One outcome's events, consumed as the reference checks them.
struct Mirror<'a> {
    reference: &'a mut ReferenceBook,
    events: Peekable<std::slice::Iter<'a, MarketEvent>>,
    report: ExecutionReport,
    ts: Timestamp,
    at: String,
}

impl Mirror<'_> {
    fn expect(&mut self, kind: MarketEventKind, what: &str) {
        let got = self.events.next().map(|e| e.kind);
        assert_eq!(got, Some(kind), "{}: {what}", self.at);
    }

    /// A new order (or a replace's re-entry): the reference decides each
    /// rejection, then follows the engine's sweep trade by trade and
    /// decides what the remainder does.
    fn submit(&mut self, order: NewOrder) -> ExecutionReport {
        let opposite = order.side.opposite();
        let reject = ExecutionReport::Rejected;
        if order.qty.is_zero() {
            return reject(RejectReason::ZeroQty);
        }
        if self.reference.contains(order.id) {
            return reject(RejectReason::DuplicateOrder);
        }
        if order.tif == TimeInForce::Fok
            && self.reference.crossable_qty(opposite, order.price) < order.qty
        {
            return reject(RejectReason::FokUnfillable);
        }
        let (at, report) = (&self.at, self.report);
        assert!(
            !report.is_rejected(),
            "{at}: the reference accepts: {report:?}"
        );
        let mut remaining = order.qty;
        while let Some(&&MarketEvent {
            kind: MarketEventKind::Trade(trade),
            ..
        }) = self.events.peek()
        {
            self.events.next();
            let at = &self.at;
            let maker = *self
                .reference
                .front(opposite)
                .unwrap_or_else(|| panic!("{at}: {trade:?} with no maker resting"));
            assert!(
                opposite.crosses(maker.price, order.price),
                "{at}: {trade:?} against {maker:?}, which does not cross"
            );
            let fill = remaining.min(maker.remaining);
            let want = Trade {
                taker: order.id,
                maker: maker.id,
                price: maker.price,
                qty: fill,
                aggressor: order.side,
            };
            assert_eq!(trade, want, "{at}: trade");
            self.reference.fill_front(opposite, fill);
            remaining -= fill;
            let left = maker.remaining - fill;
            let update = if left.is_zero() {
                delete(&maker)
            } else {
                MarketEventKind::Book(BookDelta::Modify {
                    id: maker.id,
                    side: opposite,
                    price: maker.price,
                    remaining: left,
                })
            };
            self.expect(update, "maker update");
        }
        let filled = order.qty - remaining;
        if remaining.is_zero() {
            return ExecutionReport::Filled { filled };
        }
        if let Some(front) = self.reference.front(opposite) {
            assert!(
                !opposite.crosses(front.price, order.price),
                "{}: a remainder of {remaining} left {front:?} crossing",
                self.at
            );
        }
        match order.tif {
            TimeInForce::Gtc => {
                let seq = self.reference.next_seq();
                self.reference.insert(Order {
                    id: order.id,
                    side: order.side,
                    price: order.price,
                    remaining,
                    original: order.qty,
                    arrival: self.ts,
                    seq,
                });
                let add = MarketEventKind::Book(BookDelta::Add {
                    id: order.id,
                    side: order.side,
                    price: order.price,
                    qty: remaining,
                });
                self.expect(add, "resting remainder");
                ExecutionReport::Resting { filled, remaining }
            }
            TimeInForce::Ioc => ExecutionReport::Cancelled { filled },
            TimeInForce::Fok => panic!("{}: a feasible FOK left {remaining}", self.at),
        }
    }
}

/// Asserts every observable surface of the two books agrees.
fn assert_books_match(step: usize, known: &[OrderId], engine: &MatchingEngine, rb: &ReferenceBook) {
    let lb = engine.book();
    assert_eq!(lb.len(), rb.len(), "step {step}: order count");
    assert_eq!(lb.best_bid(), rb.best_bid(), "step {step}: best bid");
    assert_eq!(lb.best_ask(), rb.best_ask(), "step {step}: best ask");
    assert_eq!(lb.is_crossed(), rb.is_crossed(), "step {step}: crossed");
    for side in [Side::Bid, Side::Ask] {
        let mut levels = Vec::new();
        lb.for_each_level(side, usize::MAX, |v| levels.push(v));
        assert_eq!(
            levels,
            rb.levels(side, usize::MAX),
            "step {step}: full {side:?} depth"
        );
    }
    let ts = Timestamp::from_nanos(step as u64 + 1);
    let scratch = &mut LobSnapshot::default();
    for depth in [1usize, 3, 10] {
        let ls = lb.snapshot(depth, ts);
        let rs = rb.snapshot(depth, ts);
        assert_eq!(ls, rs, "step {step}: snapshot depth {depth}");
        assert_eq!(
            ls.to_features(depth),
            rs.to_features(depth),
            "step {step}: features depth {depth}"
        );
        let mut written = vec![f32::NAN; LobSnapshot::feature_count(depth)];
        ls.write_features(depth, &mut written);
        assert_eq!(
            written,
            rs.to_features(depth),
            "step {step}: in-place features depth {depth}"
        );
        // The row production builds: a recycled `snapshot_into` buffer,
        // then `LobSnapshot::write_features`, on both stores.
        lb.snapshot_into(depth, ts, scratch);
        written.fill(f32::NAN);
        scratch.write_features(depth, &mut written);
        assert_eq!(
            written,
            rs.to_features(depth),
            "step {step}: ladder recycled-snapshot features depth {depth}"
        );
        rb.snapshot_into(depth, ts, scratch);
        written.fill(f32::NAN);
        scratch.write_features(depth, &mut written);
        assert_eq!(
            written,
            rs.to_features(depth),
            "step {step}: reference recycled-snapshot features depth {depth}"
        );
    }
    for &id in known {
        assert_eq!(
            lb.contains(id),
            rb.contains(id),
            "step {step}: contains {id}"
        );
        assert_eq!(
            lb.order(id).copied(),
            rb.order(id).copied(),
            "step {step}: order {id}"
        );
    }
}

/// Drives one engine through `actions`, checking every outcome against the
/// reference and then the full book state, action by action.
fn run_differential(actions: &[Action]) {
    let mut engine = MatchingEngine::new(Symbol::new("ESU6"));
    let mut reference = ReferenceBook::new();
    let (mut next_id, mut known) = (1u64, Vec::new());
    let mut next_seq = 1u64;
    for (step, action) in actions.iter().enumerate() {
        let ts = Timestamp::from_nanos(step as u64 + 1);
        let request = resolve(&mut next_id, &mut known, action);
        let outcome = send(&mut engine, request, ts);
        for event in &outcome.events {
            assert_eq!((event.seq, event.ts), (next_seq, ts), "step {step}: event");
            next_seq += 1;
        }
        mirror(&mut reference, &request, ts, &outcome);
        assert_books_match(step, &known, &engine, &reference);
    }
}

fn new(side: Side, price: i64, qty: u64) -> Action {
    Action::New {
        side,
        price,
        qty,
        tif: 0,
    }
}

proptest! {
    /// Random streams (with rehoming excursions) behave identically on
    /// both books, checked action by action.
    #[test]
    fn random_streams_are_equivalent(
        actions in proptest::collection::vec(action_strategy(), 1..80)
    ) {
        run_differential(&actions);
    }

    /// Tight-band, high-churn streams — the steady-state hot path.
    #[test]
    fn banded_churn_is_equivalent(
        actions in proptest::collection::vec(
            prop_oneof![
                3 => (any::<bool>(), 99i64..102, 1u64..5, 0u8..3).prop_map(
                    |(bid, price, qty, tif)| Action::New {
                        side: if bid { Side::Bid } else { Side::Ask },
                        price, qty, tif,
                    }),
                2 => (0u64..96).prop_map(|target| Action::Cancel { target }),
                2 => (0u64..96, 99i64..102, 0u64..5).prop_map(
                    |(target, price, qty)| Action::Replace { target, price, qty }),
            ],
            1..120,
        )
    ) {
        run_differential(&actions);
    }
}

#[test]
fn cancel_of_unknown_and_double_cancel() {
    run_differential(&[
        Action::Cancel { target: 7 },
        new(Side::Bid, 10_000, 5),
        Action::Cancel { target: 0 },
        Action::Cancel { target: 0 },
        Action::Replace {
            target: 0,
            price: 10_001,
            qty: 3,
        },
    ]);
}

#[test]
fn replace_to_cross_trades_identically() {
    run_differential(&[
        new(Side::Ask, 10_005, 4),
        new(Side::Ask, 10_006, 2),
        new(Side::Bid, 9_995, 3),
        // Replace the bid up through both ask levels: delete + sweep.
        Action::Replace {
            target: 2,
            price: 10_006,
            qty: 6,
        },
    ]);
}

#[test]
fn pivot_shifting_price_jumps() {
    run_differential(&[
        new(Side::Bid, 10_000, 5),
        new(Side::Ask, 10_002, 5),
        // Thousands of ticks away in both directions: forces rehomes.
        new(Side::Bid, 8_000, 2),
        new(Side::Ask, 12_000, 2),
        new(Side::Bid, 1, 1),
        new(Side::Ask, 19_999, 1),
        // Aggressive orders sweep across the rehomed band.
        Action::New {
            side: Side::Bid,
            price: 12_000,
            qty: 9,
            tif: 1,
        },
        Action::New {
            side: Side::Ask,
            price: 1,
            qty: 9,
            tif: 1,
        },
    ]);
}

#[test]
fn empty_and_one_sided_snapshots() {
    run_differential(&[
        // Empty book: cancel misses, snapshots compared while both sides
        // are empty.
        Action::Cancel { target: 3 },
        // One-sided book.
        new(Side::Bid, 10_000, 5),
        new(Side::Bid, 9_999, 2),
        // Sweep the side empty again with an aggressive IOC.
        Action::New {
            side: Side::Ask,
            price: 9_999,
            qty: 7,
            tif: 1,
        },
    ]);
}

#[test]
fn fok_duplicate_and_zero_qty_rejects() {
    run_differential(&[
        new(Side::Ask, 10_001, 2),
        // FOK for more than is crossable: rejected on both.
        Action::New {
            side: Side::Bid,
            price: 10_001,
            qty: 5,
            tif: 2,
        },
        // FOK that fills exactly.
        Action::New {
            side: Side::Bid,
            price: 10_001,
            qty: 2,
            tif: 2,
        },
        Action::New {
            side: Side::Bid,
            price: 10_000,
            qty: 0,
            tif: 0,
        },
    ]);
}

#[test]
fn queue_priority_preserved_across_partial_fills() {
    run_differential(&[
        new(Side::Ask, 10_001, 3),
        new(Side::Ask, 10_001, 4),
        new(Side::Ask, 10_001, 5),
        // Partial sweeps peel the FIFO in arrival order on both books.
        Action::New {
            side: Side::Bid,
            price: 10_001,
            qty: 2,
            tif: 1,
        },
        Action::New {
            side: Side::Bid,
            price: 10_001,
            qty: 4,
            tif: 1,
        },
        Action::Cancel { target: 1 },
        Action::New {
            side: Side::Bid,
            price: 10_001,
            qty: 6,
            tif: 1,
        },
    ]);
}
