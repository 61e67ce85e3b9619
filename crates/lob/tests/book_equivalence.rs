//! Differential suite pinning [`LadderBook`] to [`ReferenceBook`].
//!
//! The contiguous ladder replaces the map-based book on the hot path; its
//! contract is *bit-identical behavior* — same execution reports, same
//! market-data events, same snapshots, level views, and features — over
//! any action stream. Both books are driven through identical
//! [`MatchingEngine`] instances and compared after every single action,
//! mirroring the `forward_reference` pattern that pinned the PR 1 kernels.

use lt_lob::prelude::*;
use proptest::prelude::*;

/// A random order action both engines must process identically.
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

/// Applies one action to an engine, tracking ids exactly like the property
/// suite does so both engines see the same id stream.
fn apply<B: BookStore>(
    engine: &mut MatchingEngine<B>,
    next_id: &mut u64,
    known: &mut Vec<OrderId>,
    step: usize,
    action: &Action,
) -> MatchOutcome {
    let ts = Timestamp::from_nanos(step as u64 + 1);
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
            let order = match tif {
                0 => NewOrder::limit(id, side, Price::new(price), Qty::new(qty)),
                1 => NewOrder::ioc(id, side, Price::new(price), Qty::new(qty)),
                _ => NewOrder::fok(id, side, Price::new(price), Qty::new(qty)),
            };
            engine.submit(order, ts)
        }
        Action::Cancel { target } => {
            let id = known
                .get(target as usize % known.len().max(1))
                .copied()
                .unwrap_or(OrderId::new(9999));
            engine.cancel(id, ts)
        }
        Action::Replace { target, price, qty } => {
            let id = known
                .get(target as usize % known.len().max(1))
                .copied()
                .unwrap_or(OrderId::new(9999));
            engine.replace(id, Price::new(price), Qty::new(qty), ts)
        }
    }
}

/// Asserts every observable surface of the two books agrees.
fn assert_books_match(
    step: usize,
    known: &[OrderId],
    ladder: &MatchingEngine<LadderBook>,
    reference: &ReferenceMatchingEngine,
) {
    let lb = ladder.book();
    let rb = reference.book();
    assert_eq!(lb.len(), rb.len(), "step {step}: order count");
    assert_eq!(lb.best_bid(), rb.best_bid(), "step {step}: best bid");
    assert_eq!(lb.best_ask(), rb.best_ask(), "step {step}: best ask");
    assert_eq!(lb.spread(), rb.spread(), "step {step}: spread");
    assert_eq!(lb.mid_price_x2(), rb.mid_price_x2(), "step {step}: mid");
    assert_eq!(lb.is_crossed(), rb.is_crossed(), "step {step}: crossed");
    for side in [Side::Bid, Side::Ask] {
        assert_eq!(
            lb.levels(side, usize::MAX),
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
    assert_eq!(
        ladder.trade_count(),
        reference.trade_count(),
        "step {step}: trades"
    );
    assert_eq!(
        ladder.traded_volume(),
        reference.traded_volume(),
        "step {step}: volume"
    );
}

/// Drives both engines through `actions`, comparing outcomes and full book
/// state after every action.
fn run_differential(actions: &[Action]) {
    let mut ladder = MatchingEngine::new(Symbol::new("ESU6"));
    let mut reference = MatchingEngine::new_reference(Symbol::new("ESU6"));
    let mut ladder_ids = (1u64, Vec::new());
    let mut reference_ids = (1u64, Vec::new());
    for (step, action) in actions.iter().enumerate() {
        let lout = apply(
            &mut ladder,
            &mut ladder_ids.0,
            &mut ladder_ids.1,
            step,
            action,
        );
        let rout = apply(
            &mut reference,
            &mut reference_ids.0,
            &mut reference_ids.1,
            step,
            action,
        );
        assert_eq!(lout, rout, "step {step}: outcome for {action:?}");
        assert_books_match(step, &ladder_ids.1, &ladder, &reference);
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
