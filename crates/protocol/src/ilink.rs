//! iLink3-style binary order entry.
//!
//! The trading engine encodes generated orders into "the order message
//! format as specified by exchange servers", storing templates on-chip
//! (§III-A). This module provides the binary path: compact little-endian
//! messages with the same 8-byte header as the market-data feed.

use crate::error::DecodeError;
use crate::sbe::{field, put, MessageHeader};
use lt_lob::{OrderId, Price, Qty, Side, Symbol, TimeInForce};
use serde::{Deserialize, Serialize};

/// Template id for a new order single.
pub const TEMPLATE_NEW_ORDER: u16 = 514;
/// Template id for a cancel-replace request.
pub const TEMPLATE_REPLACE: u16 = 515;
/// Template id for a cancel request.
pub const TEMPLATE_CANCEL: u16 = 516;

/// The fields every template starts with: client order id + symbol.
const COMMON_BLOCK: usize = 8 + 8;
const NEW_ORDER_BLOCK: usize = 8 + 8 + 1 + 8 + 8 + 1 + 1; // 35
const REPLACE_BLOCK: usize = 8 + 8 + 8 + 8 + 1; // 33
const CANCEL_BLOCK: usize = 8 + 8 + 1; // 17
/// The longest frame, header included: a new order.
const MAX_FRAME: usize = MessageHeader::SIZE + NEW_ORDER_BLOCK;

/// What an order-entry message asks the exchange to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OrderMessageKind {
    /// Submit a new limit order.
    New {
        /// Buy or sell.
        side: Side,
        /// Limit price.
        price: Price,
        /// Quantity.
        qty: Qty,
        /// Time in force.
        tif: TimeInForce,
    },
    /// Replace the resting order's price and quantity.
    Replace {
        /// New limit price.
        price: Price,
        /// New total quantity.
        qty: Qty,
    },
    /// Cancel the resting order.
    Cancel,
}

/// A complete order-entry message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OrderMessage {
    /// Client order id.
    pub cl_ord_id: OrderId,
    /// Instrument.
    pub symbol: Symbol,
    /// The requested action.
    pub kind: OrderMessageKind,
}

impl OrderMessage {
    /// Encodes the message into a fresh buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(MAX_FRAME);
        self.encode_into(&mut buf);
        buf
    }

    /// Appends the encoded message to `buf`, returning bytes written. The
    /// frame is laid out at fixed offsets on the stack and appended in
    /// one copy; a `buf` with room for it does not allocate.
    pub fn encode_into(&self, buf: &mut Vec<u8>) -> usize {
        let (template, block) = match self.kind {
            OrderMessageKind::New { .. } => (TEMPLATE_NEW_ORDER, NEW_ORDER_BLOCK),
            OrderMessageKind::Replace { .. } => (TEMPLATE_REPLACE, REPLACE_BLOCK),
            OrderMessageKind::Cancel => (TEMPLATE_CANCEL, CANCEL_BLOCK),
        };
        // Unwritten bytes stay zero: the symbol's padding and each
        // template's trailing reserved byte.
        let mut frame = [0u8; MAX_FRAME];
        put(
            &mut frame,
            0,
            MessageHeader::of_template(template, block).to_le_bytes(),
        );
        put(&mut frame, 8, self.cl_ord_id.raw().to_le_bytes());
        let symbol = self.symbol.as_str().as_bytes();
        frame[16..16 + symbol.len()].copy_from_slice(symbol);
        match self.kind {
            OrderMessageKind::New {
                side,
                price,
                qty,
                tif,
            } => {
                frame[24] = match side {
                    Side::Bid => 0,
                    Side::Ask => 1,
                };
                put(&mut frame, 25, price.ticks().to_le_bytes());
                put(&mut frame, 33, qty.contracts().to_le_bytes());
                frame[41] = match tif {
                    TimeInForce::Gtc => 0,
                    TimeInForce::Ioc => 1,
                    TimeInForce::Fok => 2,
                };
            }
            OrderMessageKind::Replace { price, qty } => {
                put(&mut frame, 24, price.ticks().to_le_bytes());
                put(&mut frame, 32, qty.contracts().to_le_bytes());
            }
            OrderMessageKind::Cancel => {}
        }
        let len = MessageHeader::SIZE + block;
        buf.extend_from_slice(&frame[..len]);
        len
    }

    /// Decodes one message from the front of `bytes`, returning it together
    /// with the number of bytes consumed.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] for truncated buffers, schema mismatches,
    /// unknown templates, or out-of-range enum values.
    pub fn decode(bytes: &[u8]) -> Result<(Self, usize), DecodeError> {
        let mut buf = bytes;
        let header = MessageHeader::read(&mut buf)?;
        let common: &[u8; COMMON_BLOCK] = header.require_block(buf)?;
        let cl_ord_id = OrderId::new(u64::from_le_bytes(field(common, 0)));
        let sym: [u8; 8] = field(common, 8);
        let len = sym.iter().position(|&b| b == 0).unwrap_or(8);
        let symbol = std::str::from_utf8(&sym[..len])
            .ok()
            .and_then(Symbol::try_new)
            .ok_or_else(|| DecodeError::MalformedField("symbol".to_string()))?;
        let kind = match header.template_id {
            TEMPLATE_NEW_ORDER => {
                let body: &[u8; NEW_ORDER_BLOCK] = header.require_block(buf)?;
                let side = match body[16] {
                    0 => Side::Bid,
                    1 => Side::Ask,
                    v => {
                        return Err(DecodeError::BadEnumValue {
                            field: "side",
                            value: v,
                        })
                    }
                };
                let tif = match body[33] {
                    0 => TimeInForce::Gtc,
                    1 => TimeInForce::Ioc,
                    2 => TimeInForce::Fok,
                    v => {
                        return Err(DecodeError::BadEnumValue {
                            field: "tif",
                            value: v,
                        })
                    }
                };
                OrderMessageKind::New {
                    side,
                    price: Price::new(i64::from_le_bytes(field(body, 17))),
                    qty: Qty::new(u64::from_le_bytes(field(body, 25))),
                    tif,
                }
            }
            TEMPLATE_REPLACE => {
                let body: &[u8; REPLACE_BLOCK] = header.require_block(buf)?;
                OrderMessageKind::Replace {
                    price: Price::new(i64::from_le_bytes(field(body, 16))),
                    qty: Qty::new(u64::from_le_bytes(field(body, 24))),
                }
            }
            TEMPLATE_CANCEL => {
                header.require_block::<CANCEL_BLOCK>(buf)?;
                OrderMessageKind::Cancel
            }
            other => return Err(DecodeError::UnknownTemplate(other)),
        };
        Ok((
            OrderMessage {
                cl_ord_id,
                symbol,
                kind,
            },
            header.encoded_len(),
        ))
    }
}

#[cfg(test)]
impl OrderMessage {
    /// A new GTC limit order.
    pub(crate) fn new_limit(
        cl_ord_id: OrderId,
        symbol: Symbol,
        side: Side,
        price: Price,
        qty: Qty,
    ) -> Self {
        OrderMessage {
            cl_ord_id,
            symbol,
            kind: OrderMessageKind::New {
                side,
                price,
                qty,
                tif: TimeInForce::Gtc,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn symbol() -> Symbol {
        Symbol::new("ESU6")
    }

    #[test]
    fn new_order_round_trip() {
        for tif in [TimeInForce::Gtc, TimeInForce::Ioc, TimeInForce::Fok] {
            for side in [Side::Bid, Side::Ask] {
                let msg = OrderMessage {
                    cl_ord_id: OrderId::new(77),
                    symbol: symbol(),
                    kind: OrderMessageKind::New {
                        side,
                        price: Price::new(-5),
                        qty: Qty::new(12),
                        tif,
                    },
                };
                let bytes = msg.encode();
                let (decoded, used) = OrderMessage::decode(&bytes).unwrap();
                assert_eq!(decoded, msg);
                assert_eq!(used, bytes.len());
            }
        }
    }

    #[test]
    fn replace_and_cancel_round_trip() {
        let replace = OrderMessage {
            cl_ord_id: OrderId::new(1),
            symbol: symbol(),
            kind: OrderMessageKind::Replace {
                price: Price::new(10),
                qty: Qty::new(2),
            },
        };
        let cancel = OrderMessage {
            cl_ord_id: OrderId::new(2),
            symbol: symbol(),
            kind: OrderMessageKind::Cancel,
        };
        for msg in [replace, cancel] {
            let bytes = msg.encode();
            let (decoded, _) = OrderMessage::decode(&bytes).unwrap();
            assert_eq!(decoded, msg);
        }
    }

    #[test]
    fn cancel_is_smallest_message() {
        let cancel = OrderMessage {
            cl_ord_id: OrderId::new(2),
            symbol: symbol(),
            kind: OrderMessageKind::Cancel,
        };
        let new = OrderMessage::new_limit(
            OrderId::new(3),
            symbol(),
            Side::Bid,
            Price::new(10),
            Qty::new(1),
        );
        assert!(cancel.encode().len() < new.encode().len());
    }

    #[test]
    fn truncation_detected() {
        let msg = OrderMessage::new_limit(
            OrderId::new(3),
            symbol(),
            Side::Bid,
            Price::new(10),
            Qty::new(1),
        );
        let bytes = msg.encode();
        for cut in [0, 4, 10, bytes.len() - 1] {
            assert!(matches!(
                OrderMessage::decode(&bytes[..cut]),
                Err(DecodeError::Truncated { .. })
            ));
        }
    }

    #[test]
    fn bad_tif_rejected() {
        let msg = OrderMessage::new_limit(
            OrderId::new(3),
            symbol(),
            Side::Bid,
            Price::new(10),
            Qty::new(1),
        );
        let mut bytes = msg.encode();
        // tif sits at header(8) + cl_ord_id(8) + symbol(8) + side(1) + price(8) + qty(8)
        bytes[41] = 7;
        assert_eq!(
            OrderMessage::decode(&bytes).unwrap_err(),
            DecodeError::BadEnumValue {
                field: "tif",
                value: 7
            }
        );
    }
}
