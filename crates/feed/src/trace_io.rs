//! Binary persistence for tick traces.
//!
//! Back-tests must be "reliable and re-runnable" (§IV-A); this module
//! gives [`TickTrace`] a compact binary file format (`LTTR`) so recorded
//! sessions can be archived and replayed bit-for-bit: a magic/version
//! header, the symbol, a tick count, fixed-layout tick records, and a
//! trailing checksum that detects truncation or corruption.

use crate::trace::{TickRecord, TickTrace};
use bytes::{Buf, BufMut, BytesMut};
use lt_lob::snapshot::SnapshotLevel;
use lt_lob::{LobSnapshot, Price, Qty, Symbol, Timestamp};
use std::fmt;
use std::io::{self, Read, Write};

/// File magic: `LTTR`.
const MAGIC: [u8; 4] = *b"LTTR";
/// Current format version.
const VERSION: u16 = 1;

/// Why a trace file failed to load.
#[derive(Debug)]
pub enum TraceIoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Not an `LTTR` file.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u16),
    /// The trailing checksum did not match (truncation/corruption).
    BadChecksum,
    /// The payload ended mid-record.
    Truncated,
    /// The symbol is not 1..=8 bytes of UTF-8.
    BadSymbol,
}

impl fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceIoError::Io(e) => write!(f, "i/o error: {e}"),
            TraceIoError::BadMagic => f.write_str("not an LTTR trace file"),
            TraceIoError::BadVersion(v) => write!(f, "unsupported trace version {v}"),
            TraceIoError::BadChecksum => f.write_str("trace checksum mismatch"),
            TraceIoError::Truncated => f.write_str("trace file truncated"),
            TraceIoError::BadSymbol => f.write_str("trace symbol is not 1..=8 bytes of UTF-8"),
        }
    }
}

impl std::error::Error for TraceIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceIoError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceIoError {
    fn from(e: io::Error) -> Self {
        TraceIoError::Io(e)
    }
}

fn checksum(bytes: &[u8]) -> u64 {
    // FNV-1a, 64-bit: simple, dependency-free, adequate for corruption
    // detection (not cryptographic).
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x1000_0000_01b3);
    }
    hash
}

/// Serializes a trace into the `LTTR` binary format.
pub fn encode_trace(trace: &TickTrace) -> Vec<u8> {
    let mut body = BytesMut::with_capacity(32 + trace.len() * 128);
    body.put_slice(&MAGIC);
    body.put_u16_le(VERSION);
    let sym = trace.symbol.as_str().as_bytes();
    body.put_u8(sym.len() as u8);
    body.put_slice(sym);
    body.put_u64_le(trace.len() as u64);
    for tick in trace {
        body.put_u64_le(tick.ts.nanos());
        body.put_u64_le(tick.snapshot.ts.nanos());
        body.put_u8(tick.snapshot.bids.len() as u8);
        body.put_u8(tick.snapshot.asks.len() as u8);
        for level in tick.snapshot.bids.iter().chain(&tick.snapshot.asks) {
            body.put_i64_le(level.price.ticks());
            body.put_u64_le(level.qty.contracts());
        }
    }
    let sum = checksum(&body);
    body.put_u64_le(sum);
    body.to_vec()
}

/// Deserializes a trace from the `LTTR` binary format.
///
/// # Errors
///
/// Returns [`TraceIoError`] on any malformed input; never panics on
/// untrusted bytes.
pub fn decode_trace(bytes: &[u8]) -> Result<TickTrace, TraceIoError> {
    if bytes.len() < MAGIC.len() + 2 + 1 + 8 + 8 {
        return Err(TraceIoError::Truncated);
    }
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    let expected = u64::from_le_bytes(tail.try_into().expect("8 bytes"));
    if checksum(body) != expected {
        return Err(TraceIoError::BadChecksum);
    }
    let mut buf = body;
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if magic != MAGIC {
        return Err(TraceIoError::BadMagic);
    }
    let version = buf.get_u16_le();
    if version != VERSION {
        return Err(TraceIoError::BadVersion(version));
    }
    let sym_len = buf.get_u8() as usize;
    // `Symbol::new` asserts this range; a file must not reach the assert.
    if !(1..=8).contains(&sym_len) {
        return Err(TraceIoError::BadSymbol);
    }
    if buf.remaining() < sym_len + 8 {
        return Err(TraceIoError::Truncated);
    }
    let (sym, rest) = buf.split_at(sym_len);
    let symbol = Symbol::new(std::str::from_utf8(sym).map_err(|_| TraceIoError::BadSymbol)?);
    buf = rest;
    let count = buf.get_u64_le();
    let mut trace = TickTrace::new(symbol);
    for _ in 0..count {
        if buf.remaining() < 8 + 8 + 2 {
            return Err(TraceIoError::Truncated);
        }
        let ts = Timestamp::from_nanos(buf.get_u64_le());
        let snap_ts = Timestamp::from_nanos(buf.get_u64_le());
        let nbids = buf.get_u8() as usize;
        let nasks = buf.get_u8() as usize;
        if buf.remaining() < (nbids + nasks) * 16 {
            return Err(TraceIoError::Truncated);
        }
        let read_levels = |n: usize, buf: &mut &[u8]| {
            (0..n)
                .map(|_| SnapshotLevel {
                    price: Price::new(buf.get_i64_le()),
                    qty: Qty::new(buf.get_u64_le()),
                })
                .collect::<Vec<_>>()
        };
        let bids = read_levels(nbids, &mut buf);
        let asks = read_levels(nasks, &mut buf);
        trace.ticks.push(TickRecord {
            ts,
            snapshot: LobSnapshot {
                ts: snap_ts,
                bids,
                asks,
            },
        });
    }
    Ok(trace)
}

impl TickTrace {
    /// Writes the trace to `writer` in the `LTTR` binary format.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn write_to<W: Write>(&self, mut writer: W) -> Result<(), TraceIoError> {
        writer.write_all(&encode_trace(self))?;
        Ok(())
    }

    /// Reads a trace from `reader`.
    ///
    /// # Errors
    ///
    /// Returns [`TraceIoError`] on I/O failure or malformed content.
    pub fn read_from<R: Read>(mut reader: R) -> Result<Self, TraceIoError> {
        let mut bytes = Vec::new();
        reader.read_to_end(&mut bytes)?;
        decode_trace(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::SessionBuilder;

    fn trace() -> TickTrace {
        SessionBuilder::calm_traffic()
            .duration_secs(0.3)
            .seed(9)
            .build()
            .trace
    }

    #[test]
    fn round_trips_exactly() {
        let t = trace();
        let bytes = encode_trace(&t);
        let back = decode_trace(&bytes).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn io_round_trip_through_buffer() {
        let t = trace();
        let mut buf = Vec::new();
        t.write_to(&mut buf).unwrap();
        let back = TickTrace::read_from(&buf[..]).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn detects_corruption_anywhere() {
        let t = trace();
        let bytes = encode_trace(&t);
        for pos in [0, 5, bytes.len() / 2, bytes.len() - 1] {
            let mut corrupted = bytes.clone();
            corrupted[pos] ^= 0xA5;
            assert!(
                decode_trace(&corrupted).is_err(),
                "corruption at {pos} undetected"
            );
        }
    }

    #[test]
    fn detects_truncation() {
        let t = trace();
        let bytes = encode_trace(&t);
        for cut in [3, 20, bytes.len() - 9] {
            assert!(decode_trace(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    /// `body` with a valid trailer: the checksum is not a MAC, any
    /// writer can compute it.
    fn sealed(body: &[u8]) -> Vec<u8> {
        let mut bytes = body.to_vec();
        bytes.extend_from_slice(&checksum(body).to_le_bytes());
        bytes
    }

    #[test]
    fn rejects_wrong_magic_and_version() {
        let bytes = encode_trace(&trace());
        let body = &bytes[..bytes.len() - 8];
        // Wrong magic: flip a magic byte and fix the checksum.
        let mut wrong = body.to_vec();
        wrong[0] = b'X';
        assert!(matches!(
            decode_trace(&sealed(&wrong)),
            Err(TraceIoError::BadMagic)
        ));

        let mut wrong = body.to_vec();
        wrong[4] = 99; // version low byte
        assert!(matches!(
            decode_trace(&sealed(&wrong)),
            Err(TraceIoError::BadVersion(99))
        ));
    }

    #[test]
    fn crafted_headers_with_valid_checksums_are_errors() {
        let header = |sym: &[u8]| {
            let mut body = b"LTTR\x01\x00".to_vec();
            body.push(sym.len() as u8);
            body.extend_from_slice(sym);
            body
        };
        // An 8-byte symbol with nothing after it: no tick count.
        let no_count = sealed(&header(b"ESU6ESU6"));
        assert!(matches!(
            decode_trace(&no_count),
            Err(TraceIoError::Truncated)
        ));
        // Symbol lengths outside 1..=8, each followed by a zero count.
        for sym in [&b""[..], b"ESU6ESU6X"] {
            let mut body = header(sym);
            body.extend_from_slice(&0u64.to_le_bytes());
            assert!(
                matches!(decode_trace(&sealed(&body)), Err(TraceIoError::BadSymbol)),
                "symbol of {} bytes",
                sym.len()
            );
        }
    }

    #[test]
    fn no_resealed_mutation_panics() {
        let mut t = trace();
        t.ticks.truncate(3);
        let bytes = encode_trace(&t);
        let body = &bytes[..bytes.len() - 8];
        // Any `Ok` or `Err` passes; the test fails by panicking.
        for cut in 0..=body.len() {
            let _ = decode_trace(&sealed(&body[..cut]));
        }
        let header_len = 4 + 2 + 1 + t.symbol.as_str().len() + 8;
        for pos in 0..header_len {
            for byte in [0x00, 0xff] {
                let mut mutated = body.to_vec();
                mutated[pos] = byte;
                let _ = decode_trace(&sealed(&mutated));
            }
        }
    }

    #[test]
    fn empty_trace_round_trips() {
        let t = TickTrace::new(Symbol::new("ESU6"));
        let back = decode_trace(&encode_trace(&t)).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn error_display_is_informative() {
        assert!(TraceIoError::BadChecksum.to_string().contains("checksum"));
        assert!(TraceIoError::BadVersion(7).to_string().contains('7'));
    }
}
