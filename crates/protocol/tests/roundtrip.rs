//! Property tests: every codec round-trips arbitrary messages losslessly,
//! and the order decoders return errors for hostile bytes.

use lt_lob::events::MarketEventKind;
use lt_lob::{
    BookDelta, MarketEvent, OrderId, Price, Qty, Side, Symbol, TimeInForce, Timestamp, Trade,
};
use lt_protocol::framing::Datagram;
use lt_protocol::ilink::{OrderMessage, OrderMessageKind};
use lt_protocol::{FixDecoder, FixEncoder, SbeDecoder, SbeEncoder};
use proptest::prelude::*;

fn side_strategy() -> impl Strategy<Value = Side> {
    prop_oneof![Just(Side::Bid), Just(Side::Ask)]
}

fn tif_strategy() -> impl Strategy<Value = TimeInForce> {
    prop_oneof![
        Just(TimeInForce::Gtc),
        Just(TimeInForce::Ioc),
        Just(TimeInForce::Fok)
    ]
}

fn event_strategy() -> impl Strategy<Value = MarketEvent> {
    let book = (
        any::<u64>(),
        any::<u64>(),
        0u8..3,
        side_strategy(),
        any::<i64>(),
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(|(seq, ts, action, side, price, qty, id)| {
            let id = OrderId::new(id);
            let price = Price::new(price);
            let delta = match action {
                0 => BookDelta::Add {
                    id,
                    side,
                    price,
                    qty: Qty::new(qty),
                },
                1 => BookDelta::Modify {
                    id,
                    side,
                    price,
                    remaining: Qty::new(qty),
                },
                _ => BookDelta::Delete { id, side, price },
            };
            MarketEvent {
                seq,
                ts: Timestamp::from_nanos(ts),
                kind: MarketEventKind::Book(delta),
            }
        });
    let trade = (
        any::<u64>(),
        any::<u64>(),
        any::<i64>(),
        any::<u64>(),
        side_strategy(),
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(
            |(seq, ts, price, qty, aggressor, maker, taker)| MarketEvent {
                seq,
                ts: Timestamp::from_nanos(ts),
                kind: MarketEventKind::Trade(Trade {
                    taker: OrderId::new(taker),
                    maker: OrderId::new(maker),
                    price: Price::new(price),
                    qty: Qty::new(qty),
                    aggressor,
                }),
            },
        );
    prop_oneof![book, trade]
}

fn order_message_strategy() -> impl Strategy<Value = OrderMessage> {
    let sym =
        prop_oneof![Just("ESU6"), Just("NQZ6"), Just("A"), Just("LONGSYM8")].prop_map(Symbol::new);
    let kind = prop_oneof![
        (side_strategy(), any::<i64>(), any::<u64>(), tif_strategy()).prop_map(
            |(side, price, qty, tif)| OrderMessageKind::New {
                side,
                price: Price::new(price),
                qty: Qty::new(qty),
                tif,
            }
        ),
        (any::<i64>(), any::<u64>()).prop_map(|(price, qty)| OrderMessageKind::Replace {
            price: Price::new(price),
            qty: Qty::new(qty),
        }),
        Just(OrderMessageKind::Cancel),
    ];
    (any::<u64>(), sym, kind).prop_map(|(id, symbol, kind)| OrderMessage {
        cl_ord_id: OrderId::new(id),
        symbol,
        kind,
    })
}

proptest! {
    #[test]
    fn sbe_round_trips(event in event_strategy()) {
        let enc = SbeEncoder::new();
        let bytes = enc.encode(&event);
        prop_assert_eq!(bytes.len(), enc.encoded_len(&event));
        let (decoded, used) = SbeDecoder::new().decode(&bytes).unwrap();
        prop_assert_eq!(decoded, event);
        prop_assert_eq!(used, bytes.len());
    }

    #[test]
    fn sbe_decode_all_round_trips(events in proptest::collection::vec(event_strategy(), 0..20)) {
        let enc = SbeEncoder::new();
        let mut buf = bytes::BytesMut::new();
        for e in &events {
            enc.encode_into(e, &mut buf);
        }
        let decoded = SbeDecoder::new().decode_all(&buf).unwrap();
        prop_assert_eq!(decoded, events);
    }

    #[test]
    fn ilink_round_trips(msg in order_message_strategy()) {
        let bytes = msg.encode();
        let (decoded, used) = OrderMessage::decode(&bytes).unwrap();
        prop_assert_eq!(decoded, msg);
        prop_assert_eq!(used, bytes.len());
    }

    #[test]
    fn fix_round_trips(msg in order_message_strategy()) {
        let frame = FixEncoder::new().encode(&msg);
        let decoded = FixDecoder::new().decode(&frame).unwrap();
        prop_assert_eq!(decoded, msg);
    }

    #[test]
    fn datagram_round_trips(
        seq in any::<u32>(),
        ts in any::<u64>(),
        count in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let d = Datagram::new(seq, Timestamp::from_nanos(ts), count, payload);
        prop_assert_eq!(Datagram::decode(&d.encode()).unwrap(), d);
    }

    /// Any single-byte corruption of a datagram payload is caught.
    #[test]
    fn datagram_detects_any_payload_flip(
        payload in proptest::collection::vec(any::<u8>(), 1..128),
        at in any::<prop::sample::Index>(),
        flip in 1u8..=255,
    ) {
        let d = Datagram::new(1, Timestamp::ZERO, 1, payload.clone());
        let mut bytes = d.encode();
        let pos = Datagram::HEADER_SIZE + at.index(payload.len());
        bytes[pos] ^= flip;
        prop_assert!(Datagram::decode(&bytes).is_err());
    }

    /// Every single-bit flip anywhere in an encoded datagram — header
    /// fields, checksum, or payload — fails to decode. The checksum
    /// covering the header is what makes the header bits detectable.
    #[test]
    fn datagram_detects_every_single_bit_flip(
        seq in any::<u32>(),
        ts in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let d = Datagram::new(seq, Timestamp::from_nanos(ts), 1, payload);
        let clean = d.encode();
        for pos in 0..clean.len() {
            for bit in 0..8 {
                let mut bytes = clean.clone();
                bytes[pos] ^= 1 << bit;
                prop_assert!(
                    Datagram::decode(&bytes).is_err(),
                    "bit {} of byte {} slipped through", bit, pos
                );
            }
        }
    }
}

/// One order of each kind, the inputs of the hostile-byte cases below.
fn one_of_each_kind() -> [OrderMessage; 3] {
    let order = |id, kind| OrderMessage {
        cl_ord_id: OrderId::new(id),
        symbol: Symbol::new("ESU6"),
        kind,
    };
    [
        order(
            1,
            OrderMessageKind::New {
                side: Side::Ask,
                price: Price::new(18_000),
                qty: Qty::new(3),
                tif: TimeInForce::Ioc,
            },
        ),
        order(
            2,
            OrderMessageKind::Replace {
                price: Price::new(-5),
                qty: Qty::new(1),
            },
        ),
        order(3, OrderMessageKind::Cancel),
    ]
}

/// `fields` (SOH-terminated `tag=value` pairs) under a valid `10=` trailer.
fn fix_frame(fields: &[u8]) -> Vec<u8> {
    let checksum = fields.iter().map(|&b| u32::from(b)).sum::<u32>() % 256;
    [fields, format!("10={checksum:03}\u{1}").as_bytes()].concat()
}

fn malformed_symbol() -> lt_protocol::DecodeError {
    lt_protocol::DecodeError::MalformedField("symbol".to_string())
}

/// The symbol field sits after the 8-byte header and the 8-byte order id.
#[test]
fn ilink_all_zero_symbol_is_an_error() {
    for msg in one_of_each_kind() {
        let mut bytes = msg.encode().to_vec();
        bytes[16..24].fill(0);
        assert_eq!(
            OrderMessage::decode(&bytes).unwrap_err(),
            malformed_symbol()
        );
    }
}

#[test]
fn fix_empty_symbol_is_an_error() {
    let frame = fix_frame(b"8=FIX.4.4\x019=17\x0135=F\x0111=3\x0155=\x01");
    assert_eq!(
        FixDecoder::new().decode(&frame).unwrap_err(),
        malformed_symbol()
    );
}

#[test]
fn fix_overlong_symbol_is_an_error() {
    let frame = fix_frame(b"8=FIX.4.4\x019=30\x0135=F\x0111=3\x0155=TOOLONGSYMBOL\x01");
    assert_eq!(
        FixDecoder::new().decode(&frame).unwrap_err(),
        malformed_symbol()
    );
}

/// Every truncation and every single-byte change of a valid iLink3 order
/// and of a valid FIX frame decodes to `Ok` or `Err`, never a panic. A FIX
/// frame's change is tried twice, as is (the checksum refuses it) and under
/// a recomputed trailer (the field parsers see it).
#[test]
fn mutated_and_truncated_orders_never_panic() {
    fn each_change(clean: &[u8], mut decode: impl FnMut(&[u8])) {
        for len in 0..clean.len() {
            decode(&clean[..len]);
        }
        let mut bytes = clean.to_vec();
        for pos in 0..clean.len() {
            for value in (0..=255u8).filter(|&v| v != clean[pos]) {
                bytes[pos] = value;
                decode(&bytes);
            }
            bytes[pos] = clean[pos];
        }
    }
    for msg in one_of_each_kind() {
        each_change(&msg.encode(), |bytes| {
            let _ = OrderMessage::decode(bytes);
        });
        let frame = FixEncoder::new().encode(&msg);
        let trailer = "10=000\u{1}".len();
        each_change(&frame, |bytes| {
            let _ = FixDecoder::new().decode(bytes);
        });
        each_change(&frame[..frame.len() - trailer], |fields| {
            let _ = FixDecoder::new().decode(&fix_frame(fields));
        });
    }
}
