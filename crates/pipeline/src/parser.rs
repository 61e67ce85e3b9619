//! The packet parser stage.
//!
//! "The packet parser filters messages of interest and decodes the packet
//! data coded by the market data protocol" (§III-A). This parser ingests
//! framed datagrams, verifies their checksums, tracks channel sequence
//! gaps (the classic A/B-feed arbitration concern), and decodes the SBE
//! payload into [`MarketEvent`]s.

use crate::seq::{SeqObservation, SeqTracker};
use lt_lob::MarketEvent;
use lt_protocol::framing::DatagramRef;
use lt_protocol::sbe::SbeDecoder;
use serde::{Deserialize, Serialize};

/// Intake counters the runtime driver exposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ParserStats {
    /// Datagrams accepted.
    pub packets: u64,
    /// Market events decoded.
    pub events: u64,
    /// Datagrams dropped for checksum or decode errors.
    pub corrupt: u64,
    /// Sequence gaps observed (number of missing datagrams, cumulative —
    /// a gap later filled by a late packet still counts here).
    pub gap_packets: u64,
    /// True duplicate datagrams skipped (already delivered).
    pub duplicates: u64,
    /// Late datagrams that filled a previously-recorded gap and were
    /// accepted.
    pub recovered: u64,
}

/// A stateful market-data packet parser for one channel.
#[derive(Debug, Clone, Default)]
pub struct PacketParser {
    decoder: SbeDecoder,
    tracker: SeqTracker,
    stats: ParserStats,
}

impl PacketParser {
    /// Creates a parser expecting the channel's first datagram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current intake counters.
    pub fn stats(&self) -> ParserStats {
        self.stats
    }

    /// Ingests one raw datagram, returning its decoded events in a fresh
    /// vector; the allocating wrapper over [`Self::ingest_into`].
    pub fn ingest(&mut self, bytes: &[u8]) -> Vec<MarketEvent> {
        let mut events = Vec::new();
        self.ingest_into(bytes, &mut events);
        events
    }

    /// Ingests one raw datagram, appending its decoded events to `out`.
    /// The payload is decoded where it lies; nothing is allocated once
    /// `out` has room for the datagram's events.
    ///
    /// Corrupt datagrams are counted and skipped (`out` is left as it
    /// was: a datagram is decoded whole or not at all); gapped sequence
    /// numbers are recorded but later data is still processed — the
    /// trading pipeline must keep up with the live feed rather than stall
    /// on retransmission. A late packet that fills a recorded gap is
    /// accepted and counted as `recovered`; only already-delivered
    /// sequences are dropped as duplicates.
    pub fn ingest_into(&mut self, bytes: &[u8], out: &mut Vec<MarketEvent>) {
        let start = out.len();
        // Decode *before* sequence accounting: a datagram whose events
        // cannot be decoded must not mark its sequence as delivered, or an
        // intact retransmission of it would be dropped as a duplicate.
        let decoded = DatagramRef::decode(bytes).and_then(|datagram| {
            self.decoder
                .decode_datagram_into(datagram, out)
                .map(|()| datagram)
        });
        let Ok(datagram) = decoded else {
            self.stats.corrupt += 1;
            return;
        };
        match self.tracker.observe(datagram.channel_seq) {
            SeqObservation::Duplicate => {
                self.stats.duplicates += 1;
                out.truncate(start);
                return;
            }
            SeqObservation::Recovered => self.stats.recovered += 1,
            SeqObservation::Gap { missing } => self.stats.gap_packets += missing,
            SeqObservation::First | SeqObservation::InOrder => {}
        }
        self.stats.packets += 1;
        self.stats.events += (out.len() - start) as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;
    use lt_lob::events::MarketEventKind;
    use lt_lob::{BookDelta, OrderId, Price, Qty, Side, Timestamp};
    use lt_protocol::framing::Datagram;
    use lt_protocol::sbe::SbeEncoder;

    fn event(seq: u64) -> MarketEvent {
        MarketEvent {
            seq,
            ts: Timestamp::from_nanos(seq * 10),
            kind: MarketEventKind::Book(BookDelta::Add {
                id: OrderId::new(seq),
                side: Side::Bid,
                price: Price::new(100),
                qty: Qty::new(1),
            }),
        }
    }

    fn datagram(channel_seq: u32, events: &[MarketEvent]) -> Vec<u8> {
        let enc = SbeEncoder::new();
        let mut payload = BytesMut::new();
        for e in events {
            enc.encode_into(e, &mut payload);
        }
        Datagram::new(
            channel_seq,
            Timestamp::from_nanos(1),
            events.len() as u16,
            payload.to_vec(),
        )
        .encode()
    }

    #[test]
    fn decodes_packed_events() {
        let mut parser = PacketParser::new();
        let events = vec![event(1), event(2), event(3)];
        let out = parser.ingest(&datagram(0, &events));
        assert_eq!(out, events);
        let s = parser.stats();
        assert_eq!(s.packets, 1);
        assert_eq!(s.events, 3);
        assert_eq!(s.corrupt, 0);
    }

    #[test]
    fn detects_sequence_gap_but_keeps_processing() {
        let mut parser = PacketParser::new();
        parser.ingest(&datagram(0, &[event(1)]));
        // Packets 1 and 2 lost; packet 3 arrives.
        let out = parser.ingest(&datagram(3, &[event(4)]));
        assert_eq!(out.len(), 1);
        assert_eq!(parser.stats().gap_packets, 2);
        assert_eq!(parser.stats().packets, 2);
    }

    #[test]
    fn skips_duplicates() {
        let mut parser = PacketParser::new();
        parser.ingest(&datagram(0, &[event(1)]));
        let out = parser.ingest(&datagram(0, &[event(1)]));
        assert!(out.is_empty());
        assert_eq!(parser.stats().duplicates, 1);
    }

    #[test]
    fn counts_corrupt_frames() {
        let mut parser = PacketParser::new();
        let mut bytes = datagram(0, &[event(1)]);
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        let out = parser.ingest(&bytes);
        assert!(out.is_empty());
        assert_eq!(parser.stats().corrupt, 1);
        // A garbage buffer is also just counted.
        assert!(parser.ingest(&[1, 2, 3]).is_empty());
        assert_eq!(parser.stats().corrupt, 2);
    }

    #[test]
    fn corrupt_sbe_payload_detected() {
        let mut parser = PacketParser::new();
        // Valid datagram framing around an invalid SBE payload.
        let d = Datagram::new(0, Timestamp::ZERO, 1, vec![0xAA; 20]).encode();
        assert!(parser.ingest(&d).is_empty());
        assert_eq!(parser.stats().corrupt, 1);
    }

    #[test]
    fn msg_count_mismatch_is_corrupt() {
        let mut parser = PacketParser::new();
        // Well-formed SBE payload of 2 events, but the header claims 3.
        let enc = SbeEncoder::new();
        let mut payload = BytesMut::new();
        enc.encode_into(&event(1), &mut payload);
        enc.encode_into(&event(2), &mut payload);
        let d = Datagram::new(0, Timestamp::from_nanos(1), 3, payload.to_vec()).encode();
        assert!(parser.ingest(&d).is_empty());
        assert_eq!(parser.stats().corrupt, 1);
        assert_eq!(parser.stats().events, 0);
    }

    #[test]
    fn late_gap_filler_is_recovered_not_duplicate() {
        let mut parser = PacketParser::new();
        parser.ingest(&datagram(0, &[event(1)]));
        // Packets 1 and 2 lost for now; 3 arrives and records the gap.
        parser.ingest(&datagram(3, &[event(4)]));
        assert_eq!(parser.stats().gap_packets, 2);
        // Packet 1 arrives late: accepted, decoded, counted as recovered.
        let out = parser.ingest(&datagram(1, &[event(2)]));
        assert_eq!(out, vec![event(2)]);
        let s = parser.stats();
        assert_eq!(s.recovered, 1);
        assert_eq!(s.duplicates, 0);
        assert_eq!(s.packets, 3);
        // Cumulative gap count is unchanged.
        assert_eq!(s.gap_packets, 2);
        // The same packet again *is* a duplicate.
        assert!(parser.ingest(&datagram(1, &[event(2)])).is_empty());
        assert_eq!(parser.stats().duplicates, 1);
        // Packet 2 is still outstanding: it recovers too.
        assert_eq!(parser.ingest(&datagram(2, &[event(3)])), vec![event(3)]);
        assert_eq!(parser.stats().recovered, 2);
    }

    #[test]
    fn sequence_wrap_does_not_panic() {
        let mut parser = PacketParser::new();
        parser.ingest(&datagram(u32::MAX - 1, &[event(1)]));
        parser.ingest(&datagram(u32::MAX, &[event(2)]));
        // The wire sequence wraps to 0; the parser keeps accepting.
        let out = parser.ingest(&datagram(0, &[event(3)]));
        assert_eq!(out.len(), 1);
        let s = parser.stats();
        assert_eq!(s.packets, 3);
        assert_eq!(s.gap_packets, 0);
        assert_eq!(s.duplicates, 0);
    }
}
