//! Golden wire-format tests: the exact bytes of each codec are part of
//! the public contract (a recorded feed must decode forever). Any change
//! to these vectors is a breaking protocol revision.

use lt_lob::events::MarketEventKind;
use lt_lob::{
    BookDelta, MarketEvent, OrderId, Price, Qty, Side, Symbol, TimeInForce, Timestamp, Trade,
};
use lt_protocol::framing::Datagram;
use lt_protocol::ilink::{OrderMessage, OrderMessageKind};
use lt_protocol::sbe::SbeEncoder;
use lt_protocol::FixEncoder;

#[test]
fn sbe_book_add_golden_bytes() {
    let event = MarketEvent {
        seq: 0x0102030405060708,
        ts: Timestamp::from_nanos(0x1112131415161718),
        kind: MarketEventKind::Book(BookDelta::Add {
            id: OrderId::new(0x2122232425262728),
            side: Side::Ask,
            price: Price::new(-2),
            qty: Qty::new(7),
        }),
    };
    let bytes = SbeEncoder::new().encode(&event);
    let expected: Vec<u8> = [
        // header: block_length=42, template=32, schema=0x4C54, version=1
        vec![42, 0, 32, 0, 0x54, 0x4C, 1, 0],
        // seq, ts (little endian)
        vec![8, 7, 6, 5, 4, 3, 2, 1],
        vec![0x18, 0x17, 0x16, 0x15, 0x14, 0x13, 0x12, 0x11],
        // action=0 (add), side=1 (ask)
        vec![0, 1],
        // price = -2 as i64 LE
        vec![0xFE, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF],
        // qty = 7
        vec![7, 0, 0, 0, 0, 0, 0, 0],
        // order id
        vec![0x28, 0x27, 0x26, 0x25, 0x24, 0x23, 0x22, 0x21],
    ]
    .concat();
    assert_eq!(bytes, expected, "SBE book-add layout changed");
}

#[test]
fn sbe_trade_golden_bytes() {
    let event = MarketEvent {
        seq: 1,
        ts: Timestamp::from_nanos(2),
        kind: MarketEventKind::Trade(Trade {
            taker: OrderId::new(4),
            maker: OrderId::new(3),
            price: Price::new(5),
            qty: Qty::new(6),
            aggressor: Side::Bid,
        }),
    };
    let bytes = SbeEncoder::new().encode(&event);
    let expected: Vec<u8> = [
        vec![49, 0, 33, 0, 0x54, 0x4C, 1, 0], // header: len=49, template=33
        vec![1, 0, 0, 0, 0, 0, 0, 0],         // seq
        vec![2, 0, 0, 0, 0, 0, 0, 0],         // ts
        vec![5, 0, 0, 0, 0, 0, 0, 0],         // price
        vec![6, 0, 0, 0, 0, 0, 0, 0],         // qty
        vec![0],                              // aggressor = bid
        vec![3, 0, 0, 0, 0, 0, 0, 0],         // maker
        vec![4, 0, 0, 0, 0, 0, 0, 0],         // taker
    ]
    .concat();
    assert_eq!(bytes, expected, "SBE trade layout changed");
}

#[test]
fn ilink_new_order_golden_bytes() {
    let msg = OrderMessage {
        cl_ord_id: OrderId::new(9),
        symbol: Symbol::new("ES"),
        kind: OrderMessageKind::New {
            side: Side::Bid,
            price: Price::new(18_000),
            qty: Qty::new(2),
            tif: lt_lob::TimeInForce::Ioc,
        },
    };
    let bytes = msg.encode();
    let expected: Vec<u8> = [
        vec![35, 0, 2, 2, 0x54, 0x4C, 1, 0], // header: len=35, template=514
        vec![9, 0, 0, 0, 0, 0, 0, 0],        // cl_ord_id
        vec![b'E', b'S', 0, 0, 0, 0, 0, 0],  // symbol, zero padded
        vec![0],                             // side = bid
        vec![0x50, 0x46, 0, 0, 0, 0, 0, 0],  // price 18000 = 0x4650
        vec![2, 0, 0, 0, 0, 0, 0, 0],        // qty
        vec![1],                             // tif = IOC
        vec![0],                             // reserved
    ]
    .concat();
    assert_eq!(bytes, expected, "iLink new-order layout changed");
}

#[test]
fn fix_new_order_golden_frame() {
    let msg = OrderMessage {
        cl_ord_id: OrderId::new(42),
        symbol: Symbol::new("ESU6"),
        kind: OrderMessageKind::New {
            side: Side::Bid,
            price: Price::new(18_000),
            qty: Qty::new(3),
            tif: TimeInForce::Gtc,
        },
    };
    let frame = FixEncoder::new().encode(&msg);
    let text = String::from_utf8(frame).unwrap();
    assert_eq!(
        text,
        "8=FIX.4.4\u{1}9=43\u{1}35=D\u{1}11=42\u{1}55=ESU6\u{1}54=1\u{1}\
         44=18000\u{1}38=3\u{1}59=1\u{1}10=234\u{1}",
        "FIX frame layout changed"
    );
}

#[test]
fn datagram_golden_bytes() {
    let d = Datagram::new(7, Timestamp::from_nanos(9), 1, vec![0xAA, 0xBB]);
    let bytes = d.encode();
    assert_eq!(&bytes[0..4], &[7, 0, 0, 0], "channel seq");
    assert_eq!(&bytes[4..12], &[9, 0, 0, 0, 0, 0, 0, 0], "sent ts");
    assert_eq!(&bytes[12..14], &[1, 0], "msg count");
    // checksum over header fields + payload with the 31-multiplier fold:
    // folding seq LE [7,0,0,0], sent LE [9,0,...,0], count LE [1,0],
    // then payload [0xAA, 0xBB] gives 0x703C6B20.
    assert_eq!(&bytes[14..18], &[0x20, 0x6B, 0x3C, 0x70], "checksum");
    assert_eq!(&bytes[18..], &[0xAA, 0xBB], "payload");
}

/// A payload long enough to run the checksum through many 8-byte chunks
/// and a tail, pinned to the byte-serial definition's value.
#[test]
fn datagram_long_payload_checksum_golden() {
    let payload: Vec<u8> = (0..130u32).map(|i| (i * 151 + 7) as u8).collect();
    let d = Datagram::new(
        0xDEAD_BEEF,
        Timestamp::from_nanos(0x0123_4567_89AB_CDEF),
        3,
        payload,
    );
    let bytes = d.encode();
    // Folding seq LE, sent LE, count LE [3, 0], then the 130 payload
    // bytes, one `acc·31 + b` step per byte, gives 0x2F05660C.
    assert_eq!(&bytes[14..18], &[0x0C, 0x66, 0x05, 0x2F], "checksum");
    assert_eq!(Datagram::decode(&bytes), Ok(d));
}
