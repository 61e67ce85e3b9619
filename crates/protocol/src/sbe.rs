//! Simple-Binary-Encoding-style market data codec.
//!
//! Layout mirrors CME MDP 3.0: every message starts with an 8-byte header
//! (`block_length`, `template_id`, `schema_id`, `version`, all little-endian
//! `u16`) followed by a fixed-layout body. Two templates cover the tick
//! stream: book-delta refreshes and trade summaries.

use crate::error::DecodeError;
use crate::framing::DatagramRef;
use bytes::{BufMut, BytesMut};
use lt_lob::events::MarketEventKind;
use lt_lob::{BookDelta, MarketEvent, OrderId, Price, Qty, Side, Timestamp, Trade};

/// Schema id carried by every message of this feed.
pub const SCHEMA_ID: u16 = 0x4C54; // "LT"
/// Schema version carried by every message of this feed.
pub const SCHEMA_VERSION: u16 = 1;

/// Template id of a book-delta (add/modify/delete) refresh.
pub const TEMPLATE_BOOK: u16 = 32;
/// Template id of a trade summary.
pub const TEMPLATE_TRADE: u16 = 33;

/// Body length of a book-delta message.
const BOOK_BLOCK: usize = 8 + 8 + 1 + 1 + 8 + 8 + 8; // 42
/// Body length of a trade message.
const TRADE_BLOCK: usize = 8 + 8 + 8 + 8 + 1 + 8 + 8; // 49

/// The `N` bytes at offset `at` of a fixed-layout block. Every caller
/// passes a constant offset inside a fixed-size block, so the range check
/// folds away.
pub(crate) fn field<const N: usize>(block: &[u8], at: usize) -> [u8; N] {
    let mut raw = [0u8; N];
    raw.copy_from_slice(&block[at..at + N]);
    raw
}

/// Writes `raw` at offset `at` of a fixed-layout frame: the inverse of
/// [`field`].
pub(crate) fn put<const N: usize>(frame: &mut [u8], at: usize, raw: [u8; N]) {
    frame[at..at + N].copy_from_slice(&raw);
}

/// The 8-byte SBE message header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MessageHeader {
    /// Length of the fixed body that follows the header.
    pub block_length: u16,
    /// Which template the body uses.
    pub template_id: u16,
    /// Schema identifier.
    pub schema_id: u16,
    /// Schema version.
    pub version: u16,
}

impl MessageHeader {
    /// Encoded size of the header in bytes.
    pub const SIZE: usize = 8;

    /// This feed's header for a template whose fixed body is `block`
    /// bytes.
    pub(crate) fn of_template(template_id: u16, block: usize) -> Self {
        MessageHeader {
            block_length: block as u16,
            template_id,
            schema_id: SCHEMA_ID,
            version: SCHEMA_VERSION,
        }
    }

    /// The header as it goes on the wire.
    pub(crate) fn to_le_bytes(self) -> [u8; Self::SIZE] {
        let mut raw = [0u8; Self::SIZE];
        put(&mut raw, 0, self.block_length.to_le_bytes());
        put(&mut raw, 2, self.template_id.to_le_bytes());
        put(&mut raw, 4, self.schema_id.to_le_bytes());
        put(&mut raw, 6, self.version.to_le_bytes());
        raw
    }

    /// Reads the header off the front of `buf`, checking that it names
    /// this feed's schema and that the body it declares is in the buffer.
    pub(crate) fn read(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        let available = buf.len();
        let Some((raw, body)) = buf.split_first_chunk::<{ Self::SIZE }>() else {
            return Err(DecodeError::Truncated {
                needed: Self::SIZE,
                available,
            });
        };
        let header = MessageHeader {
            block_length: u16::from_le_bytes(field(raw, 0)),
            template_id: u16::from_le_bytes(field(raw, 2)),
            schema_id: u16::from_le_bytes(field(raw, 4)),
            version: u16::from_le_bytes(field(raw, 6)),
        };
        if header.schema_id != SCHEMA_ID || header.version != SCHEMA_VERSION {
            return Err(DecodeError::SchemaMismatch {
                schema_id: header.schema_id,
                version: header.version,
            });
        }
        if available < header.encoded_len() {
            return Err(DecodeError::Truncated {
                needed: header.encoded_len(),
                available,
            });
        }
        *buf = body;
        Ok(header)
    }

    /// Header plus declared body, in bytes: what one message consumes.
    pub(crate) fn encoded_len(&self) -> usize {
        Self::SIZE + self.block_length as usize
    }

    /// The first `N` bytes of `body` (the bytes after the header): the
    /// fixed block a template's field reads consume. Rejects a
    /// `block_length` shorter than `N`: [`Self::read`] checked the buffer
    /// against the declared length only, so those reads could run off
    /// it. A longer block is legal — its tail is skipped.
    pub(crate) fn require_block<'b, const N: usize>(
        &self,
        body: &'b [u8],
    ) -> Result<&'b [u8; N], DecodeError> {
        match body.first_chunk() {
            Some(block) if usize::from(self.block_length) >= N => Ok(block),
            _ => Err(DecodeError::Truncated {
                needed: Self::SIZE + N,
                available: self.encoded_len(),
            }),
        }
    }
}

fn side_to_u8(side: Side) -> u8 {
    match side {
        Side::Bid => 0,
        Side::Ask => 1,
    }
}

fn side_from_u8(value: u8) -> Result<Side, DecodeError> {
    match value {
        0 => Ok(Side::Bid),
        1 => Ok(Side::Ask),
        other => Err(DecodeError::BadEnumValue {
            field: "side",
            value: other,
        }),
    }
}

/// Encodes [`MarketEvent`]s into SBE frames.
///
/// # Example
///
/// ```
/// # use lt_protocol::sbe::{SbeEncoder, SbeDecoder};
/// # use lt_lob::prelude::*;
/// # use lt_lob::events::MarketEventKind;
/// let event = MarketEvent {
///     seq: 7,
///     ts: Timestamp::from_nanos(100),
///     kind: MarketEventKind::Book(BookDelta::Add {
///         id: OrderId::new(1), side: Side::Bid, price: Price::new(50), qty: Qty::new(3),
///     }),
/// };
/// let bytes = SbeEncoder::new().encode(&event);
/// let (decoded, consumed) = SbeDecoder::new().decode(&bytes).unwrap();
/// assert_eq!(decoded, event);
/// assert_eq!(consumed, bytes.len());
/// ```
#[derive(Debug, Clone, Default)]
pub struct SbeEncoder {
    _private: (),
}

impl SbeEncoder {
    /// Creates an encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Encodes one event into a fresh buffer.
    pub fn encode(&self, event: &MarketEvent) -> Vec<u8> {
        let mut buf = BytesMut::with_capacity(MessageHeader::SIZE + 64);
        self.encode_into(event, &mut buf);
        buf.into()
    }

    /// Appends one encoded event to `buf`, returning the bytes written.
    pub fn encode_into(&self, event: &MarketEvent, buf: &mut BytesMut) -> usize {
        let start = buf.len();
        match &event.kind {
            MarketEventKind::Book(delta) => {
                buf.put_slice(&MessageHeader::of_template(TEMPLATE_BOOK, BOOK_BLOCK).to_le_bytes());
                buf.put_u64_le(event.seq);
                buf.put_u64_le(event.ts.nanos());
                let (action, id, side, price, qty) = match *delta {
                    BookDelta::Add {
                        id,
                        side,
                        price,
                        qty,
                    } => (0u8, id, side, price, qty),
                    BookDelta::Modify {
                        id,
                        side,
                        price,
                        remaining,
                    } => (1u8, id, side, price, remaining),
                    BookDelta::Delete { id, side, price } => (2u8, id, side, price, Qty::ZERO),
                };
                buf.put_u8(action);
                buf.put_u8(side_to_u8(side));
                buf.put_i64_le(price.ticks());
                buf.put_u64_le(qty.contracts());
                buf.put_u64_le(id.raw());
            }
            MarketEventKind::Trade(trade) => {
                buf.put_slice(
                    &MessageHeader::of_template(TEMPLATE_TRADE, TRADE_BLOCK).to_le_bytes(),
                );
                buf.put_u64_le(event.seq);
                buf.put_u64_le(event.ts.nanos());
                buf.put_i64_le(trade.price.ticks());
                buf.put_u64_le(trade.qty.contracts());
                buf.put_u8(side_to_u8(trade.aggressor));
                buf.put_u64_le(trade.maker.raw());
                buf.put_u64_le(trade.taker.raw());
            }
        }
        buf.len() - start
    }

    /// Encoded size of `event` in bytes, without encoding it.
    pub fn encoded_len(&self, event: &MarketEvent) -> usize {
        MessageHeader::SIZE
            + match event.kind {
                MarketEventKind::Book(_) => BOOK_BLOCK,
                MarketEventKind::Trade(_) => TRADE_BLOCK,
            }
    }
}

/// Decodes SBE frames back into [`MarketEvent`]s.
#[derive(Debug, Clone, Default)]
pub struct SbeDecoder {
    _private: (),
}

impl SbeDecoder {
    /// Creates a decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Decodes one event from the front of `bytes`.
    ///
    /// Returns the event and the number of bytes consumed, so callers can
    /// iterate over a packed datagram payload.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] when the buffer is truncated, the schema or
    /// template is unknown, or an enum field is out of range.
    pub fn decode(&self, bytes: &[u8]) -> Result<(MarketEvent, usize), DecodeError> {
        let mut buf = bytes;
        let header = MessageHeader::read(&mut buf)?;
        let event = match header.template_id {
            TEMPLATE_BOOK => {
                let body: &[u8; BOOK_BLOCK] = header.require_block(buf)?;
                let side = side_from_u8(body[17])?;
                let price = Price::new(i64::from_le_bytes(field(body, 18)));
                let qty = Qty::new(u64::from_le_bytes(field(body, 26)));
                let id = OrderId::new(u64::from_le_bytes(field(body, 34)));
                let delta = match body[16] {
                    0 => BookDelta::Add {
                        id,
                        side,
                        price,
                        qty,
                    },
                    1 => BookDelta::Modify {
                        id,
                        side,
                        price,
                        remaining: qty,
                    },
                    2 => BookDelta::Delete { id, side, price },
                    other => {
                        return Err(DecodeError::BadEnumValue {
                            field: "book_action",
                            value: other,
                        })
                    }
                };
                MarketEvent {
                    seq: u64::from_le_bytes(field(body, 0)),
                    ts: Timestamp::from_nanos(u64::from_le_bytes(field(body, 8))),
                    kind: MarketEventKind::Book(delta),
                }
            }
            TEMPLATE_TRADE => {
                let body: &[u8; TRADE_BLOCK] = header.require_block(buf)?;
                let aggressor = side_from_u8(body[32])?;
                MarketEvent {
                    seq: u64::from_le_bytes(field(body, 0)),
                    ts: Timestamp::from_nanos(u64::from_le_bytes(field(body, 8))),
                    kind: MarketEventKind::Trade(Trade {
                        taker: OrderId::new(u64::from_le_bytes(field(body, 41))),
                        maker: OrderId::new(u64::from_le_bytes(field(body, 33))),
                        price: Price::new(i64::from_le_bytes(field(body, 16))),
                        qty: Qty::new(u64::from_le_bytes(field(body, 24))),
                        aggressor,
                    }),
                }
            }
            other => return Err(DecodeError::UnknownTemplate(other)),
        };
        Ok((event, header.encoded_len()))
    }

    /// Decodes every message in a packed buffer.
    ///
    /// # Errors
    ///
    /// Fails on the first malformed message.
    pub fn decode_all(&self, bytes: &[u8]) -> Result<Vec<MarketEvent>, DecodeError> {
        let mut out = Vec::new();
        self.append_all(bytes, &mut out)?;
        Ok(out)
    }

    /// Decodes a datagram's whole payload onto the end of `out` — what
    /// every intake path runs on a checksum-valid datagram before its
    /// events may touch a book. All or nothing: on an error `out` is left
    /// as it was.
    ///
    /// # Errors
    ///
    /// Fails on the first malformed message, or with
    /// [`DecodeError::MessageCountMismatch`] when the payload holds a
    /// different number of messages than `msg_count` declares.
    pub fn decode_datagram_into(
        &self,
        datagram: DatagramRef<'_>,
        out: &mut Vec<MarketEvent>,
    ) -> Result<(), DecodeError> {
        let start = out.len();
        let decoded = self.append_all(datagram.payload, out).and_then(|()| {
            let decoded = out.len() - start;
            if decoded == usize::from(datagram.msg_count) {
                Ok(())
            } else {
                Err(DecodeError::MessageCountMismatch {
                    declared: datagram.msg_count,
                    decoded,
                })
            }
        });
        if decoded.is_err() {
            out.truncate(start);
        }
        decoded
    }

    /// Pushes every message in `bytes` onto `out`, stopping at the first
    /// malformed one (whatever decoded before it stays pushed).
    fn append_all(&self, mut bytes: &[u8], out: &mut Vec<MarketEvent>) -> Result<(), DecodeError> {
        while !bytes.is_empty() {
            let (event, used) = self.decode(bytes)?;
            out.push(event);
            bytes = &bytes[used..];
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn book_event(seq: u64) -> MarketEvent {
        MarketEvent {
            seq,
            ts: Timestamp::from_nanos(123_456),
            kind: MarketEventKind::Book(BookDelta::Add {
                id: OrderId::new(42),
                side: Side::Ask,
                price: Price::new(-17),
                qty: Qty::new(9),
            }),
        }
    }

    fn trade_event(seq: u64) -> MarketEvent {
        MarketEvent {
            seq,
            ts: Timestamp::from_nanos(99),
            kind: MarketEventKind::Trade(Trade {
                taker: OrderId::new(2),
                maker: OrderId::new(1),
                price: Price::new(100),
                qty: Qty::new(3),
                aggressor: Side::Bid,
            }),
        }
    }

    #[test]
    fn book_round_trip() {
        let event = book_event(7);
        let bytes = SbeEncoder::new().encode(&event);
        assert_eq!(bytes.len(), SbeEncoder::new().encoded_len(&event));
        let (decoded, used) = SbeDecoder::new().decode(&bytes).unwrap();
        assert_eq!(decoded, event);
        assert_eq!(used, bytes.len());
    }

    #[test]
    fn trade_round_trip() {
        let event = trade_event(8);
        let bytes = SbeEncoder::new().encode(&event);
        let (decoded, _) = SbeDecoder::new().decode(&bytes).unwrap();
        assert_eq!(decoded, event);
    }

    #[test]
    fn modify_and_delete_round_trip() {
        for delta in [
            BookDelta::Modify {
                id: OrderId::new(5),
                side: Side::Bid,
                price: Price::new(10),
                remaining: Qty::new(2),
            },
            BookDelta::Delete {
                id: OrderId::new(5),
                side: Side::Bid,
                price: Price::new(10),
            },
        ] {
            let event = MarketEvent {
                seq: 1,
                ts: Timestamp::ZERO,
                kind: MarketEventKind::Book(delta),
            };
            let bytes = SbeEncoder::new().encode(&event);
            let (decoded, _) = SbeDecoder::new().decode(&bytes).unwrap();
            assert_eq!(decoded, event);
        }
    }

    #[test]
    fn decode_all_packed_messages() {
        let mut buf = BytesMut::new();
        let enc = SbeEncoder::new();
        let events = vec![book_event(1), trade_event(2), book_event(3)];
        for e in &events {
            enc.encode_into(e, &mut buf);
        }
        let decoded = SbeDecoder::new().decode_all(&buf).unwrap();
        assert_eq!(decoded, events);
    }

    #[test]
    fn truncated_header_fails() {
        let err = SbeDecoder::new().decode(&[0u8; 3]).unwrap_err();
        assert!(matches!(err, DecodeError::Truncated { .. }));
    }

    #[test]
    fn truncated_body_fails() {
        let bytes = SbeEncoder::new().encode(&book_event(1));
        let err = SbeDecoder::new().decode(&bytes[..12]).unwrap_err();
        assert!(matches!(err, DecodeError::Truncated { .. }));
    }

    #[test]
    fn wrong_schema_fails() {
        let mut bytes = SbeEncoder::new().encode(&book_event(1));
        bytes[4] = 0xFF; // corrupt schema id
        let err = SbeDecoder::new().decode(&bytes).unwrap_err();
        assert!(matches!(err, DecodeError::SchemaMismatch { .. }));
    }

    #[test]
    fn unknown_template_fails() {
        let mut bytes = SbeEncoder::new().encode(&book_event(1));
        bytes[2] = 0x77; // corrupt template id
        let err = SbeDecoder::new().decode(&bytes).unwrap_err();
        assert!(matches!(err, DecodeError::UnknownTemplate(_)));
    }

    #[test]
    fn bad_side_enum_fails() {
        let mut bytes = SbeEncoder::new().encode(&book_event(1));
        // side byte sits after header(8) + seq(8) + ts(8) + action(1)
        bytes[25] = 9;
        let err = SbeDecoder::new().decode(&bytes).unwrap_err();
        assert_eq!(
            err,
            DecodeError::BadEnumValue {
                field: "side",
                value: 9
            }
        );
    }
}
