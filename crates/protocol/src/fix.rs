//! FIX `tag=value` order-entry encoding.
//!
//! LightTrader "supports the FIX message protocol … by storing the message
//! templates at the on-chip SRAM" (§III-A). This module encodes the same
//! [`OrderMessage`]s as [`crate::ilink`] into classic FIX 4.4-style frames
//! with `8=`/`9=` headers and the `10=` modulo-256 checksum trailer, and
//! decodes them back.

use crate::error::DecodeError;
use crate::ilink::{OrderMessage, OrderMessageKind};
use lt_lob::{OrderId, Price, Qty, Side, Symbol, TimeInForce};
use std::collections::HashMap;

const SOH: u8 = 0x01;

/// Tag numbers used by this dialect.
mod tag {
    pub const BEGIN_STRING: u32 = 8;
    pub const BODY_LENGTH: u32 = 9;
    pub const CHECKSUM: u32 = 10;
    pub const CL_ORD_ID: u32 = 11;
    pub const MSG_TYPE: u32 = 35;
    pub const ORDER_QTY: u32 = 38;
    pub const PRICE: u32 = 44;
    pub const SIDE: u32 = 54;
    pub const SYMBOL: u32 = 55;
    pub const TIME_IN_FORCE: u32 = 59;
}

/// Encodes [`OrderMessage`]s into FIX frames.
#[derive(Debug, Clone, Default)]
pub struct FixEncoder {
    _private: (),
}

impl FixEncoder {
    /// Creates an encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Encodes one order message into a complete FIX frame.
    pub fn encode(&self, msg: &OrderMessage) -> Vec<u8> {
        let mut body = Vec::with_capacity(96);
        let push = |body: &mut Vec<u8>, t: u32, v: &str| {
            body.extend_from_slice(t.to_string().as_bytes());
            body.push(b'=');
            body.extend_from_slice(v.as_bytes());
            body.push(SOH);
        };
        let msg_type = match msg.kind {
            OrderMessageKind::New { .. } => "D",
            OrderMessageKind::Replace { .. } => "G",
            OrderMessageKind::Cancel => "F",
        };
        push(&mut body, tag::MSG_TYPE, msg_type);
        push(&mut body, tag::CL_ORD_ID, &msg.cl_ord_id.raw().to_string());
        push(&mut body, tag::SYMBOL, msg.symbol.as_str());
        match msg.kind {
            OrderMessageKind::New {
                side,
                price,
                qty,
                tif,
            } => {
                push(
                    &mut body,
                    tag::SIDE,
                    if side == Side::Bid { "1" } else { "2" },
                );
                push(&mut body, tag::PRICE, &price.ticks().to_string());
                push(&mut body, tag::ORDER_QTY, &qty.contracts().to_string());
                let tif_code = match tif {
                    TimeInForce::Gtc => "1",
                    TimeInForce::Ioc => "3",
                    TimeInForce::Fok => "4",
                };
                push(&mut body, tag::TIME_IN_FORCE, tif_code);
            }
            OrderMessageKind::Replace { price, qty } => {
                push(&mut body, tag::PRICE, &price.ticks().to_string());
                push(&mut body, tag::ORDER_QTY, &qty.contracts().to_string());
            }
            OrderMessageKind::Cancel => {}
        }

        let mut frame = Vec::with_capacity(body.len() + 32);
        let push_head = |frame: &mut Vec<u8>, t: u32, v: &str| {
            frame.extend_from_slice(t.to_string().as_bytes());
            frame.push(b'=');
            frame.extend_from_slice(v.as_bytes());
            frame.push(SOH);
        };
        push_head(&mut frame, tag::BEGIN_STRING, "FIX.4.4");
        push_head(&mut frame, tag::BODY_LENGTH, &body.len().to_string());
        frame.extend_from_slice(&body);
        let checksum: u32 = frame.iter().map(|&b| b as u32).sum::<u32>() % 256;
        push_head(&mut frame, tag::CHECKSUM, &format!("{checksum:03}"));
        frame
    }
}

/// Decodes FIX frames back into [`OrderMessage`]s.
#[derive(Debug, Clone, Default)]
pub struct FixDecoder {
    _private: (),
}

impl FixDecoder {
    /// Creates a decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Decodes a complete FIX frame.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] for malformed fields, a checksum mismatch, or
    /// missing required tags.
    pub fn decode(&self, frame: &[u8]) -> Result<OrderMessage, DecodeError> {
        let fields = self.split_fields(frame)?;
        // Verify checksum: sum of all bytes before the "10=" field.
        let checksum_field = fields
            .get(&tag::CHECKSUM)
            .ok_or(DecodeError::MissingTag(tag::CHECKSUM))?;
        let expected: u32 = checksum_field
            .parse()
            .map_err(|_| DecodeError::MalformedField(format!("10={checksum_field}")))?;
        let trailer = format!("10={checksum_field}\u{1}");
        let body_end = frame.len().saturating_sub(trailer.len());
        let computed: u32 = frame[..body_end].iter().map(|&b| b as u32).sum::<u32>() % 256;
        if computed != expected {
            return Err(DecodeError::BadChecksum { expected, computed });
        }

        let get = |t: u32| fields.get(&t).ok_or(DecodeError::MissingTag(t));
        let msg_type = get(tag::MSG_TYPE)?.clone();
        let cl_ord_id = OrderId::new(
            get(tag::CL_ORD_ID)?
                .parse()
                .map_err(|_| DecodeError::MalformedField("11".into()))?,
        );
        let symbol = Symbol::try_new(get(tag::SYMBOL)?)
            .ok_or_else(|| DecodeError::MalformedField("symbol".to_string()))?;
        let parse_price = |s: &str| -> Result<Price, DecodeError> {
            Ok(Price::new(
                s.parse()
                    .map_err(|_| DecodeError::MalformedField("44".into()))?,
            ))
        };
        let parse_qty = |s: &str| -> Result<Qty, DecodeError> {
            Ok(Qty::new(
                s.parse()
                    .map_err(|_| DecodeError::MalformedField("38".into()))?,
            ))
        };
        let kind = match msg_type.as_str() {
            "D" => {
                let side = match get(tag::SIDE)?.as_str() {
                    "1" => Side::Bid,
                    "2" => Side::Ask,
                    other => return Err(DecodeError::MalformedField(format!("54={other}"))),
                };
                let tif = match get(tag::TIME_IN_FORCE)?.as_str() {
                    "1" => TimeInForce::Gtc,
                    "3" => TimeInForce::Ioc,
                    "4" => TimeInForce::Fok,
                    other => return Err(DecodeError::MalformedField(format!("59={other}"))),
                };
                OrderMessageKind::New {
                    side,
                    price: parse_price(get(tag::PRICE)?)?,
                    qty: parse_qty(get(tag::ORDER_QTY)?)?,
                    tif,
                }
            }
            "G" => OrderMessageKind::Replace {
                price: parse_price(get(tag::PRICE)?)?,
                qty: parse_qty(get(tag::ORDER_QTY)?)?,
            },
            "F" => OrderMessageKind::Cancel,
            other => return Err(DecodeError::MalformedField(format!("35={other}"))),
        };
        Ok(OrderMessage {
            cl_ord_id,
            symbol,
            kind,
        })
    }

    fn split_fields(&self, frame: &[u8]) -> Result<HashMap<u32, String>, DecodeError> {
        let mut out = HashMap::new();
        for field in frame.split(|&b| b == SOH) {
            if field.is_empty() {
                continue;
            }
            let text = std::str::from_utf8(field)
                .map_err(|_| DecodeError::MalformedField("<non-utf8>".into()))?;
            let (t, v) = text
                .split_once('=')
                .ok_or_else(|| DecodeError::MalformedField(text.to_string()))?;
            let tag_num: u32 = t
                .parse()
                .map_err(|_| DecodeError::MalformedField(text.to_string()))?;
            out.insert(tag_num, v.to_string());
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg() -> OrderMessage {
        OrderMessage::new_limit(
            OrderId::new(42),
            Symbol::new("ESU6"),
            Side::Bid,
            Price::new(18_000),
            Qty::new(3),
        )
    }

    #[test]
    fn new_order_round_trip() {
        let frame = FixEncoder::new().encode(&msg());
        let decoded = FixDecoder::new().decode(&frame).unwrap();
        assert_eq!(decoded, msg());
    }

    #[test]
    fn all_kinds_round_trip() {
        let sym = Symbol::new("NQZ6");
        let messages = [
            OrderMessage {
                cl_ord_id: OrderId::new(1),
                symbol: sym,
                kind: OrderMessageKind::New {
                    side: Side::Ask,
                    price: Price::new(-3),
                    qty: Qty::new(9),
                    tif: TimeInForce::Fok,
                },
            },
            OrderMessage {
                cl_ord_id: OrderId::new(2),
                symbol: sym,
                kind: OrderMessageKind::Replace {
                    price: Price::new(5),
                    qty: Qty::new(1),
                },
            },
            OrderMessage {
                cl_ord_id: OrderId::new(3),
                symbol: sym,
                kind: OrderMessageKind::Cancel,
            },
        ];
        for m in messages {
            let frame = FixEncoder::new().encode(&m);
            assert_eq!(FixDecoder::new().decode(&frame).unwrap(), m);
        }
    }

    #[test]
    fn frame_structure_is_fix() {
        let frame = FixEncoder::new().encode(&msg());
        let text = String::from_utf8_lossy(&frame);
        assert!(text.starts_with("8=FIX.4.4\u{1}9="));
        assert!(text.contains("35=D\u{1}"));
        assert!(text.contains("11=42\u{1}"));
        // Trailer: 10=NNN<SOH> at the very end.
        assert_eq!(&frame[frame.len() - 1..], &[SOH]);
        assert_eq!(&frame[frame.len() - 7..frame.len() - 4], b"10=");
    }

    #[test]
    fn checksum_detects_corruption() {
        let mut frame = FixEncoder::new().encode(&msg());
        // Corrupt a body byte without touching the checksum field.
        let pos = frame.iter().position(|&b| b == b'D').unwrap();
        frame[pos] = b'E';
        let err = FixDecoder::new().decode(&frame).unwrap_err();
        assert!(matches!(err, DecodeError::BadChecksum { .. }), "{err}");
    }

    #[test]
    fn missing_tag_detected() {
        // Hand-build a frame lacking tag 38 for a new order.
        let mut frame = FixEncoder::new().encode(&msg());
        let text = String::from_utf8(frame.clone()).unwrap();
        let stripped: String = text
            .split('\u{1}')
            .filter(|f| !f.starts_with("38=") && !f.is_empty() && !f.starts_with("10="))
            .map(|f| format!("{f}\u{1}"))
            .collect();
        let checksum: u32 = stripped.bytes().map(|b| b as u32).sum::<u32>() % 256;
        frame = format!("{stripped}10={checksum:03}\u{1}").into_bytes();
        let err = FixDecoder::new().decode(&frame).unwrap_err();
        assert_eq!(err, DecodeError::MissingTag(38));
    }

    #[test]
    fn binary_encoding_is_denser_than_fix() {
        let m = msg();
        assert!(m.encode().len() < FixEncoder::new().encode(&m).len());
    }
}
