//! Hostile bytes at the wire are counted, never fatal.
//!
//! Both binary codecs carry a `block_length` in their 8-byte message
//! header. A peer that declares a body shorter than the template's fixed
//! layout — and sends exactly that many bytes, correctly checksummed —
//! must come back as a decode error from every intake path. A
//! well-formed `Add` carries any `i64` as its price; one far from the
//! book must not size the ladder. Run in release too
//! (`scripts/check.sh`): that is the build that serves, and it drops the
//! debug-only checks.

use lighttrader::LightTrader;
use lt_dnn::ModelKind;
use lt_lob::events::MarketEventKind;
use lt_lob::{BookDelta, MarketEvent, OrderId, Price, Qty, Side, Symbol, Timestamp, Trade};
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

/// `message` with its header's `block_length` rewritten to `declared`
/// and its body cut to exactly that many bytes.
fn with_block_length(message: &[u8], declared: u16) -> Vec<u8> {
    let mut cut = message[..MessageHeader::SIZE + usize::from(declared)].to_vec();
    cut[..2].copy_from_slice(&declared.to_le_bytes());
    cut
}

fn datagram(channel_seq: u32, payload: Vec<u8>) -> Vec<u8> {
    Datagram::new(channel_seq, Timestamp::from_nanos(1), 1, payload).encode()
}

/// Both market-data templates, every `block_length` short of the fixed
/// body, through all three intake paths: no events, one more `corrupt`,
/// and each path still decodes the well-formed datagram that follows.
#[test]
fn short_blocks_are_counted_corrupt_on_every_intake_path() {
    let mut parser = PacketParser::new();
    let mut arbiter = FeedArbiter::new();
    let mut trader = LightTrader::builder(ModelKind::VanillaCnn).build();
    let mut sent = 0u32;
    for event in [book_event(1), trade_event(2)] {
        let message = SbeEncoder::new().encode(&event);
        let fixed = (message.len() - MessageHeader::SIZE) as u16;
        for declared in 0..fixed {
            let bytes = datagram(sent, with_block_length(&message, declared));
            sent += 1;
            let case = format!("{:?} block_length {declared}", event.kind);
            assert!(parser.ingest(&bytes).is_empty(), "{case}");
            assert_eq!(parser.stats().corrupt, u64::from(sent), "{case}");
            let feed = FeedId::ALL[sent as usize % 2];
            assert!(arbiter.on_packet_events(feed, &bytes).is_empty(), "{case}");
            assert_eq!(arbiter.stats().corrupt, u64::from(sent), "{case}");
            assert!(trader.on_datagram(&bytes).is_empty(), "{case}");
            assert_eq!(trader.parser_stats().corrupt, u64::from(sent), "{case}");
        }
    }
    // A corrupt copy never marks its sequence delivered.
    assert_eq!(arbiter.stats().delivered, 0);
    let good = datagram(sent, SbeEncoder::new().encode(&book_event(9)));
    assert_eq!(parser.ingest(&good), vec![book_event(9)]);
    assert_eq!(
        arbiter.on_packet_events(FeedId::A, &good),
        vec![book_event(9)]
    );
    assert_eq!(trader.on_datagram(&good).len(), 1);
}

/// Checksum-valid adds priced 2^40 ticks from the book, at `i64::MAX`
/// and at `i64::MIN`, on either side, through all three intake paths:
/// each is decoded, ignored by the book and counted, and the next
/// in-band add lands on an untouched book.
#[test]
fn far_priced_adds_are_counted_and_leave_the_book_alone() {
    let mut parser = PacketParser::new();
    let mut arbiter = FeedArbiter::new();
    let mut trader = LightTrader::builder(ModelKind::VanillaCnn).build();
    let mut parsed_book = LocalBook::new();
    let mut arbited_book = LocalBook::new();
    let mut seq = 0u32;
    // One add, one datagram, every path; the two mirrors agree, and
    // their refusal count and snapshot come back.
    let mut send = |side, price| {
        seq += 1;
        let event = add_event(u64::from(seq), side, price);
        let bytes = datagram(seq, SbeEncoder::new().encode(&event));
        assert_eq!(parser.ingest(&bytes), vec![event]);
        assert_eq!(arbiter.on_packet_events(FeedId::A, &bytes), vec![event]);
        assert_eq!(trader.on_datagram(&bytes).len(), 1, "{event:?}");
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
    assert_eq!(trader.parser_stats().corrupt, 0);
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
