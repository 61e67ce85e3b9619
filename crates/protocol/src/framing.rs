//! Market-data datagram framing.
//!
//! The feed handler receives tick data "through the Ethernet and UDP/IP
//! connection" (§III-A). This module frames packed SBE payloads into
//! UDP-style datagrams with a channel sequence number, packet send time,
//! message count, and an additive checksum — enough structure for the
//! packet parser to detect gaps and corruption.

use crate::error::DecodeError;
use crate::sbe::field;
use bytes::{BufMut, BytesMut};
use lt_lob::Timestamp;

/// Header bytes the checksum covers: seq + sent + count, everything in
/// front of the checksum itself.
const COVERED: usize = 4 + 8 + 2;

/// `POW[i]` is 31^i in wrapping `u32` arithmetic.
const POW: [u32; 9] = {
    let mut pow = [1u32; 9];
    let mut i = 1;
    while i < pow.len() {
        pow[i] = pow[i - 1].wrapping_mul(31);
        i += 1;
    }
    pow
};

/// Folds `bytes` into the running checksum `acc`: `acc·31 + b` per byte,
/// in wrapping `u32` arithmetic. Eight bytes at a time that is Horner's
/// rule regrouped, `acc·31⁸ + Σ bᵢ·31⁷⁻ⁱ` — exact in the ring, so the same
/// value as the byte-serial fold — with one dependent multiply-add per
/// eight bytes instead of one per byte.
fn fold(acc: u32, bytes: &[u8]) -> u32 {
    let (chunks, tail) = bytes.as_chunks::<8>();
    let acc = chunks.iter().fold(acc, |acc, chunk| {
        let sum = chunk
            .iter()
            .zip(POW[..8].iter().rev())
            .fold(0u32, |sum, (&b, &pow)| {
                sum.wrapping_add(u32::from(b).wrapping_mul(pow))
            });
        acc.wrapping_mul(POW[8]).wrapping_add(sum)
    });
    tail.iter().fold(acc, |acc, &b| {
        acc.wrapping_mul(31).wrapping_add(u32::from(b))
    })
}

/// A datagram borrowed from the bytes it arrived in: the header fields,
/// and the payload as a slice of the receive buffer. What every intake
/// path decodes; [`Datagram`] is its owned copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DatagramRef<'a> {
    /// Per-channel packet sequence number (gap detection).
    pub channel_seq: u32,
    /// Exchange send time.
    pub sent: Timestamp,
    /// Number of messages packed in the payload.
    pub msg_count: u16,
    /// Packed message bytes (e.g. SBE frames).
    pub payload: &'a [u8],
}

impl<'a> DatagramRef<'a> {
    /// Reads a datagram off `bytes` without copying its payload,
    /// verifying its checksum.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::Truncated`] if the header is incomplete and
    /// [`DecodeError::BadChecksum`] on header or payload corruption.
    pub fn decode(bytes: &'a [u8]) -> Result<Self, DecodeError> {
        let Some((header, payload)) = bytes.split_first_chunk::<{ Datagram::HEADER_SIZE }>() else {
            return Err(DecodeError::Truncated {
                needed: Datagram::HEADER_SIZE,
                available: bytes.len(),
            });
        };
        let expected = u32::from_le_bytes(field(header, COVERED));
        let computed = Datagram::checksum(&header[..COVERED], payload);
        if computed != expected {
            return Err(DecodeError::BadChecksum { expected, computed });
        }
        Ok(DatagramRef {
            channel_seq: u32::from_le_bytes(field(header, 0)),
            sent: Timestamp::from_nanos(u64::from_le_bytes(field(header, 4))),
            msg_count: u16::from_le_bytes(field(header, 12)),
            payload,
        })
    }

    /// Copies the payload out into an owned [`Datagram`].
    pub fn to_owned(self) -> Datagram {
        Datagram::new(
            self.channel_seq,
            self.sent,
            self.msg_count,
            self.payload.to_vec(),
        )
    }
}

/// A market-data datagram: header + packed message payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Datagram {
    /// Per-channel packet sequence number (gap detection).
    pub channel_seq: u32,
    /// Exchange send time.
    pub sent: Timestamp,
    /// Number of messages packed in the payload.
    pub msg_count: u16,
    /// Packed message bytes (e.g. SBE frames).
    pub payload: Vec<u8>,
}

impl Datagram {
    /// Encoded header size in bytes (seq + sent + count + checksum).
    pub const HEADER_SIZE: usize = 4 + 8 + 2 + 4;

    /// Creates a datagram over a packed payload.
    pub fn new(channel_seq: u32, sent: Timestamp, msg_count: u16, payload: Vec<u8>) -> Self {
        Datagram {
            channel_seq,
            sent,
            msg_count,
            payload,
        }
    }

    /// Rolling 31-multiplier checksum over the header fields *and* the
    /// payload. Covering the header matters: a flipped bit in
    /// `channel_seq`, `sent`, or `msg_count` must fail validation, or gap
    /// tracking and timestamping run on corrupted values. The multiplier
    /// 31 is odd (invertible mod 2^32), so any single-bit corruption
    /// anywhere in the covered bytes changes the sum. `covered` is the
    /// header as it goes on the wire (seq, sent, count: little-endian),
    /// folded first.
    fn checksum(covered: &[u8], payload: &[u8]) -> u32 {
        fold(fold(0, covered), payload)
    }

    /// Serializes the datagram.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = BytesMut::with_capacity(Self::HEADER_SIZE + self.payload.len());
        buf.put_u32_le(self.channel_seq);
        buf.put_u64_le(self.sent.nanos());
        buf.put_u16_le(self.msg_count);
        let checksum = Self::checksum(&buf, &self.payload);
        buf.put_u32_le(checksum);
        buf.put_slice(&self.payload);
        buf.into()
    }

    /// Deserializes a datagram, verifying its checksum: a
    /// [`DatagramRef::decode`] whose payload is copied out.
    ///
    /// # Errors
    ///
    /// As [`DatagramRef::decode`].
    pub fn decode(bytes: &[u8]) -> Result<Self, DecodeError> {
        DatagramRef::decode(bytes).map(DatagramRef::to_owned)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let d = Datagram::new(9, Timestamp::from_nanos(1234), 2, vec![1, 2, 3, 4, 5]);
        let bytes = d.encode();
        let decoded = Datagram::decode(&bytes).unwrap();
        assert_eq!(decoded, d);
    }

    #[test]
    fn empty_payload_round_trip() {
        let d = Datagram::new(0, Timestamp::ZERO, 0, vec![]);
        assert_eq!(Datagram::decode(&d.encode()).unwrap(), d);
    }

    #[test]
    fn corruption_detected() {
        let d = Datagram::new(9, Timestamp::from_nanos(1), 1, vec![10, 20, 30]);
        let mut bytes = d.encode();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        assert!(matches!(
            Datagram::decode(&bytes),
            Err(DecodeError::BadChecksum { .. })
        ));
    }

    #[test]
    fn header_corruption_detected() {
        let d = Datagram::new(9, Timestamp::from_nanos(1), 1, vec![10, 20, 30]);
        let clean = d.encode();
        // Any single flipped byte in seq, sent, or msg_count must fail.
        for pos in 0..14 {
            let mut bytes = clean.clone();
            bytes[pos] ^= 0x01;
            assert!(
                matches!(
                    Datagram::decode(&bytes),
                    Err(DecodeError::BadChecksum { .. })
                ),
                "header byte {pos} corruption slipped through"
            );
        }
    }

    #[test]
    fn truncated_header_detected() {
        assert!(matches!(
            Datagram::decode(&[0u8; 5]),
            Err(DecodeError::Truncated { .. })
        ));
    }

    #[test]
    fn chunked_checksum_is_the_byte_serial_fold() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let serial = |bytes: &[u8]| {
            bytes.iter().fold(0u32, |acc, &b| {
                acc.wrapping_mul(31).wrapping_add(u32::from(b))
            })
        };
        let mut rng = StdRng::seed_from_u64(0x5eed);
        for len in 0..=300 {
            let bytes: Vec<u8> = (0..COVERED + len).map(|_| rng.gen()).collect();
            let (covered, payload) = bytes.split_at(COVERED);
            assert_eq!(
                Datagram::checksum(covered, payload),
                serial(&bytes),
                "payload of {len} bytes"
            );
        }
    }

    #[test]
    fn borrowed_decode_reads_the_payload_in_place() {
        let d = Datagram::new(9, Timestamp::from_nanos(1234), 2, vec![1, 2, 3, 4, 5]);
        let bytes = d.encode();
        let borrowed = DatagramRef::decode(&bytes).unwrap();
        assert_eq!(
            borrowed.payload.as_ptr(),
            bytes[Datagram::HEADER_SIZE..].as_ptr()
        );
        assert_eq!(borrowed.to_owned(), d);
    }
}
