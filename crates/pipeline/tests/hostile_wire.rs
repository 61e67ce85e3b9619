//! Hostile bytes at the wire are counted, never fatal.
//!
//! Both binary codecs carry a `block_length` in their 8-byte message
//! header. A peer that declares a body shorter than the template's fixed
//! layout — and sends exactly that many bytes, correctly checksummed —
//! must come back as a decode error from every intake path. A
//! well-formed `Add` carries any `i64` as its price; one far from the
//! book must not size the ladder. Every intake path runs twice: as the
//! allocating wrapper, and as its `_into` form appending to a buffer that
//! holds a sentinel, which a rejected datagram must leave as it was. Run
//! in release too (`scripts/check.sh`): that is the build that serves,
//! and it drops the debug-only checks.

use lighttrader::{LightTrader, TickOutcome};
use lt_dnn::{ModelKind, Prediction};
use lt_lob::events::MarketEventKind;
use lt_lob::{BookDelta, MarketEvent, OrderId, Price, Qty, Side, Symbol, Timestamp, Trade};
use lt_pipeline::trading::NoOrderReason;
use lt_pipeline::{FeedArbiter, FeedId, LocalBook, PacketParser};
use lt_protocol::framing::Datagram;
use lt_protocol::ilink::{OrderMessage, OrderMessageKind};
use lt_protocol::sbe::{MessageHeader, SbeEncoder};

fn add_event(seq: u64, side: Side, price: i64) -> MarketEvent {
    MarketEvent {
        seq,
        ts: Timestamp::from_nanos(seq * 10),
        kind: MarketEventKind::Book(BookDelta::Add {
            id: OrderId::new(seq + 1),
            side,
            price: Price::new(price),
            qty: Qty::new(1),
        }),
    }
}

fn book_event(seq: u64) -> MarketEvent {
    add_event(seq, Side::Bid, 100)
}

fn trade_event(seq: u64) -> MarketEvent {
    MarketEvent {
        seq,
        ts: Timestamp::from_nanos(seq * 10),
        kind: MarketEventKind::Trade(Trade {
            taker: OrderId::new(2),
            maker: OrderId::new(1),
            price: Price::new(100),
            qty: Qty::new(3),
            aggressor: Side::Ask,
        }),
    }
}

fn encode(event: &MarketEvent) -> Vec<u8> {
    SbeEncoder::new().encode(event)
}

/// `message` with its header's `block_length` rewritten to `declared`
/// and its body cut to exactly that many bytes.
fn with_block_length(message: &[u8], declared: u16) -> Vec<u8> {
    let mut cut = message[..MessageHeader::SIZE + usize::from(declared)].to_vec();
    cut[..2].copy_from_slice(&declared.to_le_bytes());
    cut
}

/// A checksum-valid datagram packing `messages`, declaring their count.
fn datagram(channel_seq: u32, messages: &[Vec<u8>]) -> Vec<u8> {
    let count = messages.len() as u16;
    Datagram::new(
        channel_seq,
        Timestamp::from_nanos(1),
        count,
        messages.concat(),
    )
    .encode()
}

/// What the intake paths made of one datagram.
struct Intake {
    parsed: Vec<MarketEvent>,
    arbitrated: Vec<MarketEvent>,
    outcomes: usize,
}

/// Every intake path twice over: the allocating wrappers, and twin
/// instances driving the `_into` forms.
struct Paths {
    parser: PacketParser,
    arbiter: FeedArbiter,
    trader: LightTrader,
    parser_into: PacketParser,
    arbiter_into: FeedArbiter,
    trader_into: LightTrader,
}

impl Paths {
    fn new() -> Self {
        let trader = || LightTrader::builder(ModelKind::VanillaCnn).build();
        Paths {
            parser: PacketParser::new(),
            arbiter: FeedArbiter::new(),
            trader: trader(),
            parser_into: PacketParser::new(),
            arbiter_into: FeedArbiter::new(),
            trader_into: trader(),
        }
    }

    /// Offers `bytes` on `feed` to every path. Each `_into` form must
    /// append to its sentinel-holding buffer exactly what its wrapper
    /// returned (nothing, for a rejected datagram), and its instance must
    /// count what the wrapper's did.
    fn offer(&mut self, feed: FeedId, bytes: &[u8]) -> Intake {
        let event = book_event(u64::MAX / 16);
        let outcome = TickOutcome::NoOrder {
            prediction: Prediction::new([0.25, 0.5, 0.25]),
            reason: NoOrderReason::Killed,
        };

        let parsed = self.parser.ingest(bytes);
        let mut events = vec![event];
        self.parser_into.ingest_into(bytes, &mut events);
        assert_eq!(
            events,
            [vec![event], parsed.clone()].concat(),
            "ingest_into"
        );
        assert_eq!(self.parser_into.stats(), self.parser.stats());

        let arbitrated = self.arbiter.on_packet_events(feed, bytes);
        let mut events = vec![event];
        self.arbiter_into
            .on_packet_events_into(feed, bytes, &mut events);
        assert_eq!(
            events,
            [vec![event], arbitrated.clone()].concat(),
            "on_packet_events_into"
        );
        assert_eq!(self.arbiter_into.stats(), self.arbiter.stats());

        let outcomes = self.trader.on_datagram(bytes);
        let mut appended = vec![outcome.clone()];
        self.trader_into.on_datagram_into(bytes, &mut appended);
        assert_eq!(
            appended,
            [vec![outcome], outcomes.clone()].concat(),
            "on_datagram_into"
        );
        assert_eq!(self.trader_into.parser_stats(), self.trader.parser_stats());

        Intake {
            parsed,
            arbitrated,
            outcomes: outcomes.len(),
        }
    }
}

/// Both market-data templates, every `block_length` short of the fixed
/// body, through all three intake paths: no events, one more `corrupt`,
/// and each path still decodes the well-formed datagram that follows.
#[test]
fn short_blocks_are_counted_corrupt_on_every_intake_path() {
    let mut paths = Paths::new();
    let mut sent = 0u32;
    for event in [book_event(1), trade_event(2)] {
        let message = encode(&event);
        let fixed = (message.len() - MessageHeader::SIZE) as u16;
        for declared in 0..fixed {
            let bytes = datagram(sent, &[with_block_length(&message, declared)]);
            sent += 1;
            let case = format!("{:?} block_length {declared}", event.kind);
            let feed = FeedId::ALL[sent as usize % 2];
            let intake = paths.offer(feed, &bytes);
            assert!(intake.parsed.is_empty(), "{case}");
            assert_eq!(paths.parser.stats().corrupt, u64::from(sent), "{case}");
            assert!(intake.arbitrated.is_empty(), "{case}");
            assert_eq!(paths.arbiter.stats().corrupt, u64::from(sent), "{case}");
            assert_eq!(intake.outcomes, 0, "{case}");
            assert_eq!(
                paths.trader.parser_stats().corrupt,
                u64::from(sent),
                "{case}"
            );
        }
    }
    // A corrupt copy never marks its sequence delivered: an intact resend
    // of a sequence a corrupt datagram used is delivered by every path.
    assert_eq!(paths.arbiter.stats().delivered, 0);
    let resent = datagram(0, &[encode(&book_event(8))]);
    let intake = paths.offer(FeedId::B, &resent);
    assert_eq!(intake.parsed, vec![book_event(8)]);
    assert_eq!(intake.arbitrated, vec![book_event(8)]);
    assert_eq!(intake.outcomes, 1);
    assert_eq!(paths.parser.stats().duplicates, 0);
    assert_eq!(paths.trader.parser_stats().duplicates, 0);
    let good = datagram(sent, &[encode(&book_event(9))]);
    let intake = paths.offer(FeedId::A, &good);
    assert_eq!(intake.parsed, vec![book_event(9)]);
    assert_eq!(intake.arbitrated, vec![book_event(9)]);
    assert_eq!(intake.outcomes, 1);
}

/// Datagrams of `k` messages whose last one alone is malformed — an
/// out-of-range side, or a body one byte short — behind `k - 1` good
/// ones: every path rejects the whole datagram, appending nothing, and
/// takes the intact datagram that follows whole.
#[test]
fn a_malformed_last_message_rejects_the_whole_datagram() {
    let mut paths = Paths::new();
    let mut seq = 0u32;
    for k in [1, 2, 5, 16, 17, 40] {
        let events: Vec<MarketEvent> = (0..k)
            .map(|i| {
                if i % 3 == 2 {
                    trade_event(i)
                } else {
                    book_event(i)
                }
            })
            .collect();
        let good: Vec<Vec<u8>> = events[..events.len() - 1].iter().map(encode).collect();
        let intact = encode(&events[events.len() - 1]);
        let mut bad_side = intact.clone();
        // The side (book) or aggressor (trade) byte, out of range.
        let side_at = if k % 3 == 0 { 40 } else { 25 };
        bad_side[side_at] = 9;
        let short = intact[..intact.len() - 1].to_vec();
        let mut send = |last: Vec<u8>| {
            seq += 1;
            paths.offer(
                FeedId::A,
                &datagram(seq, &[good.clone(), vec![last]].concat()),
            )
        };
        for (name, last) in [("bad side", bad_side), ("short body", short)] {
            let case = format!("{k} messages, the last with a {name}");
            let intake = send(last);
            assert!(intake.parsed.is_empty(), "{case}");
            assert!(intake.arbitrated.is_empty(), "{case}");
            assert_eq!(intake.outcomes, 0, "{case}");
        }
        let intake = send(intact);
        assert_eq!(intake.parsed, events, "{k} intact messages");
        assert_eq!(intake.arbitrated, events, "{k} intact messages");
        assert_eq!(intake.outcomes, events.len(), "{k} intact messages");
    }
    // Two rejected datagrams per size, each counted once by every path.
    assert_eq!(paths.parser.stats().corrupt, 12);
    assert_eq!(paths.arbiter.stats().corrupt, 12);
    assert_eq!(paths.trader.parser_stats().corrupt, 12);
    assert_eq!(paths.arbiter.stats().delivered, 6);
}

/// The redundant copy of a delivered datagram decodes cleanly, and only
/// then does sequence accounting find it a cross-duplicate: the events
/// already appended are truncated away.
#[test]
fn a_cross_duplicate_is_decoded_then_truncated_away() {
    let mut paths = Paths::new();
    let events = vec![book_event(1), trade_event(2)];
    let bytes = datagram(0, &events.iter().map(encode).collect::<Vec<_>>());
    let first = paths.offer(FeedId::A, &bytes);
    assert_eq!(first.arbitrated, events);
    assert_eq!(first.parsed, events);
    assert_eq!(first.outcomes, 2);
    let copy = paths.offer(FeedId::B, &bytes);
    assert!(copy.arbitrated.is_empty());
    let stats = paths.arbiter.stats();
    assert_eq!(
        (
            stats.delivered,
            stats.events,
            stats.cross_duplicates,
            stats.corrupt
        ),
        (1, 2, 1, 0)
    );
    // One channel to the parser: the same sequence again is a duplicate.
    assert!(copy.parsed.is_empty());
    assert_eq!(copy.outcomes, 0);
    assert_eq!(paths.parser.stats().duplicates, 1);
    assert_eq!(paths.trader.parser_stats().duplicates, 1);
}

/// Checksum-valid adds priced 2^40 ticks from the book, at `i64::MAX`
/// and at `i64::MIN`, on either side, through all three intake paths:
/// each is decoded, ignored by the book and counted, and the next
/// in-band add lands on an untouched book.
#[test]
fn far_priced_adds_are_counted_and_leave_the_book_alone() {
    let mut paths = Paths::new();
    let mut parsed_book = LocalBook::new();
    let mut arbited_book = LocalBook::new();
    let mut seq = 0u32;
    // One add, one datagram, every path; the two mirrors agree, and
    // their refusal count and snapshot come back.
    let mut send = |side, price| {
        seq += 1;
        let event = add_event(u64::from(seq), side, price);
        let intake = paths.offer(FeedId::A, &datagram(seq, &[encode(&event)]));
        assert_eq!(intake.parsed, vec![event]);
        assert_eq!(intake.arbitrated, vec![event]);
        assert_eq!(intake.outcomes, 1, "{event:?}");
        assert_eq!(paths.trader.parser_stats().corrupt, 0);
        parsed_book.apply(&event);
        arbited_book.apply(&event);
        let snapshot = parsed_book.snapshot(10, Timestamp::ZERO);
        assert_eq!(arbited_book.snapshot(10, Timestamp::ZERO), snapshot);
        assert_eq!(arbited_book.out_of_span(), parsed_book.out_of_span());
        (parsed_book.out_of_span(), snapshot)
    };
    for tick in 0..5 {
        send(Side::Bid, 17_999 - tick);
        send(Side::Ask, 18_001 + tick);
    }
    let (_, resting) = send(Side::Bid, 17_990);
    let mut refused = 0u64;
    for side in [Side::Bid, Side::Ask] {
        for far in [18_000 + (1i64 << 40), i64::MAX, i64::MIN] {
            refused += 1;
            assert_eq!(
                send(side, far),
                (refused, resting.clone()),
                "{side:?} @ {far}"
            );
        }
    }
    let (count, after) = send(Side::Ask, 18_000);
    assert_eq!(count, refused);
    assert_eq!(after.best_ask().map(|l| l.price), Some(Price::new(18_000)));
    assert_eq!(after.bids, resting.bids);
}

#[test]
fn order_decode_rejects_short_blocks() {
    let new = OrderMessage::new_limit(
        OrderId::new(7),
        Symbol::new("ESU6"),
        Side::Bid,
        Price::new(100),
        Qty::new(2),
    );
    let replace = OrderMessageKind::Replace {
        price: Price::new(101),
        qty: Qty::new(1),
    };
    for kind in [new.kind, replace, OrderMessageKind::Cancel] {
        let order = OrderMessage { kind, ..new };
        let message = order.encode();
        assert_eq!(OrderMessage::decode(&message), Ok((order, message.len())));
        let fixed = (message.len() - MessageHeader::SIZE) as u16;
        for declared in 0..fixed {
            let cut = with_block_length(&message, declared);
            assert!(
                OrderMessage::decode(&cut).is_err(),
                "{kind:?} block_length {declared}"
            );
        }
    }
}
