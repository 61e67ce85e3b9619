//! A/B feed arbitration.
//!
//! CME publishes every market-data channel twice, as redundant A and B
//! multicast feeds, because UDP loses, reorders, and duplicates packets.
//! A feed handler therefore listens to both copies and *arbitrates*: the
//! first valid copy of each channel sequence wins, the second is
//! discarded, and a packet lost on one feed is filled from the other.
//! [`FeedArbiter`] implements that layer over the [`Datagram`] framing:
//! it validates each arriving packet, dedupes across feeds by channel
//! sequence (via a shared [`SeqTracker`]), tracks per-feed health with an
//! independent tracker per feed, and — once the stream is closed — can
//! say exactly how many packets were recovered from the redundant feed
//! and how many were permanently lost on both.

use crate::seq::{SeqObservation, SeqTracker};
use lt_lob::MarketEvent;
use lt_protocol::framing::{Datagram, DatagramRef};
use lt_protocol::sbe::SbeDecoder;
use serde::{Deserialize, Serialize};

/// Which redundant feed a packet arrived on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FeedId {
    /// The A-side multicast feed.
    A,
    /// The B-side multicast feed.
    B,
}

impl FeedId {
    /// Both feeds, A first.
    pub const ALL: [FeedId; 2] = [FeedId::A, FeedId::B];

    fn index(self) -> usize {
        match self {
            FeedId::A => 0,
            FeedId::B => 1,
        }
    }
}

impl std::fmt::Display for FeedId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FeedId::A => write!(f, "A"),
            FeedId::B => write!(f, "B"),
        }
    }
}

/// Health counters for one side of the redundant pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FeedHealth {
    /// Packets that arrived on this feed (valid framing).
    pub received: u64,
    /// Packets rejected for checksum / framing / payload errors.
    pub corrupt: u64,
    /// Packets this feed delivered twice (within-feed duplicates).
    pub duplicates: u64,
    /// Sequences this feed is currently missing (its own gaps).
    pub missing: u64,
}

/// Aggregate arbitration counters across both feeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ArbiterStats {
    /// Packets delivered downstream (exactly once per channel sequence).
    pub delivered: u64,
    /// Market events decoded from delivered packets (event-level intake
    /// only; zero when arbitrating opaque datagrams).
    pub events: u64,
    /// Valid packets discarded because their sequence was already
    /// delivered — the redundant copy doing its job.
    pub cross_duplicates: u64,
    /// Delivered packets that filled a previously recorded gap in the
    /// combined stream (they arrived after a higher sequence had).
    pub late_recoveries: u64,
    /// Total corrupt packets across both feeds.
    pub corrupt: u64,
}

/// The A/B arbitration layer: first valid copy of each sequence wins.
#[derive(Debug, Clone)]
pub struct FeedArbiter {
    decoder: SbeDecoder,
    /// Combined delivery tracker: a sequence is delivered exactly once.
    combined: SeqTracker,
    /// Per-feed trackers (health accounting only).
    feeds: [SeqTracker; 2],
    health: [FeedHealth; 2],
    stats: ArbiterStats,
}

impl Default for FeedArbiter {
    fn default() -> Self {
        Self::new()
    }
}

impl FeedArbiter {
    /// Creates an arbiter for a session whose channel sequences start at
    /// zero. Anchoring every tracker at the session origin (rather than
    /// learning it from the first arrival) matters twice over: a packet
    /// reordered *ahead* of sequence 0 must not make the true first
    /// packet look like a duplicate, and packets lost before a feed's
    /// first successful delivery still count against that feed.
    pub fn new() -> Self {
        FeedArbiter {
            decoder: SbeDecoder::default(),
            combined: SeqTracker::starting_at(0),
            feeds: [SeqTracker::starting_at(0), SeqTracker::starting_at(0)],
            health: [FeedHealth::default(); 2],
            stats: ArbiterStats::default(),
        }
    }

    /// Aggregate arbitration counters.
    pub fn stats(&self) -> ArbiterStats {
        self.stats
    }

    /// Health counters for one feed. `missing` reflects that feed's own
    /// outstanding gaps at the time of the call.
    pub fn feed_health(&self, feed: FeedId) -> FeedHealth {
        let mut h = self.health[feed.index()];
        h.missing = self.feeds[feed.index()].outstanding();
        h
    }

    /// Sequences not yet delivered by *either* feed — permanently lost
    /// once the stream is closed.
    pub fn lost(&self) -> u64 {
        self.combined.outstanding()
    }

    /// Sequences one feed is missing but the arbiter delivered anyway:
    /// the count of gaps filled from the redundant side.
    pub fn recovered_for(&self, feed: FeedId) -> u64 {
        // The combined tracker's gaps are a subset of every feed's gaps,
        // so the difference is exactly the sequences this feed missed
        // that the other feed (or a late copy) supplied.
        self.feeds[feed.index()].outstanding() - self.combined.outstanding()
    }

    /// Total gap-fills across both feeds (a sequence lost on one feed and
    /// delivered from the other counts once; one lost on both counts
    /// zero).
    pub fn recovered(&self) -> u64 {
        FeedId::ALL.iter().map(|&f| self.recovered_for(f)).sum()
    }

    /// Closes the stream at `end_seq` (exclusive, widened sequence
    /// space): trailing packets that never arrived on a feed are recorded
    /// as that feed's missing sequences, and [`lost`](Self::lost) /
    /// [`recovered`](Self::recovered) become final.
    pub fn close(&mut self, end_seq: u64) {
        self.combined.close(end_seq);
        for tracker in &mut self.feeds {
            tracker.close(end_seq);
        }
    }

    /// Offers one raw packet from `feed`. Returns the decoded datagram
    /// the first time its channel sequence is seen on either feed, and
    /// `None` for corrupt packets and duplicates.
    pub fn on_packet(&mut self, feed: FeedId, bytes: &[u8]) -> Option<Datagram> {
        let Ok(datagram) = DatagramRef::decode(bytes) else {
            self.note_corrupt(feed);
            return None;
        };
        self.accept(feed, datagram.channel_seq)
            .then(|| datagram.to_owned())
    }

    /// Offers one raw packet from `feed`, returning its decoded events in
    /// a fresh vector; the allocating wrapper over
    /// [`Self::on_packet_events_into`].
    pub fn on_packet_events(&mut self, feed: FeedId, bytes: &[u8]) -> Vec<MarketEvent> {
        let mut events = Vec::new();
        self.on_packet_events_into(feed, bytes, &mut events);
        events
    }

    /// Offers one raw packet from `feed` and decodes its SBE payload in
    /// place, appending the market events to `out` on first delivery of
    /// the sequence. Corrupt packets (framing, SBE, or a header
    /// `msg_count` that disagrees with the payload) and duplicates leave
    /// `out` as it was.
    pub fn on_packet_events_into(
        &mut self,
        feed: FeedId,
        bytes: &[u8],
        out: &mut Vec<MarketEvent>,
    ) {
        let start = out.len();
        // Validate the payload *before* sequence accounting: a packet
        // whose events cannot be decoded must not mark its sequence as
        // delivered (the redundant copy may still be intact).
        let decoded = DatagramRef::decode(bytes).and_then(|datagram| {
            self.decoder
                .decode_datagram_into(datagram, out)
                .map(|()| datagram)
        });
        let Ok(datagram) = decoded else {
            self.note_corrupt(feed);
            return;
        };
        if self.accept(feed, datagram.channel_seq) {
            self.stats.events += (out.len() - start) as u64;
        } else {
            out.truncate(start);
        }
    }

    fn note_corrupt(&mut self, feed: FeedId) {
        self.health[feed.index()].corrupt += 1;
        self.stats.corrupt += 1;
    }

    /// Runs the sequence accounting for a validated datagram's `seq`;
    /// `true` means first delivery.
    fn accept(&mut self, feed: FeedId, seq: u32) -> bool {
        // Per-feed health first: this feed saw the sequence, whatever the
        // combined stream decides.
        match self.feeds[feed.index()].observe(seq) {
            SeqObservation::Duplicate => self.health[feed.index()].duplicates += 1,
            _ => self.health[feed.index()].received += 1,
        }
        match self.combined.observe(seq) {
            SeqObservation::Duplicate => {
                self.stats.cross_duplicates += 1;
                false
            }
            SeqObservation::Recovered => {
                self.stats.late_recoveries += 1;
                self.stats.delivered += 1;
                true
            }
            SeqObservation::First | SeqObservation::InOrder | SeqObservation::Gap { .. } => {
                self.stats.delivered += 1;
                true
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;
    use lt_lob::events::MarketEventKind;
    use lt_lob::{BookDelta, OrderId, Price, Qty, Side, Timestamp};
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

    fn packet(channel_seq: u32) -> Vec<u8> {
        let enc = SbeEncoder::new();
        let mut payload = BytesMut::new();
        enc.encode_into(&event(u64::from(channel_seq)), &mut payload);
        Datagram::new(channel_seq, Timestamp::from_nanos(1), 1, payload.to_vec()).encode()
    }

    #[test]
    fn first_copy_wins_second_is_cross_duplicate() {
        let mut arb = FeedArbiter::new();
        assert!(arb.on_packet(FeedId::A, &packet(0)).is_some());
        assert!(arb.on_packet(FeedId::B, &packet(0)).is_none());
        let s = arb.stats();
        assert_eq!(s.delivered, 1);
        assert_eq!(s.cross_duplicates, 1);
        // Both feeds are healthy: each saw the sequence once.
        assert_eq!(arb.feed_health(FeedId::A).received, 1);
        assert_eq!(arb.feed_health(FeedId::B).received, 1);
    }

    #[test]
    fn gap_on_one_feed_is_filled_from_the_other() {
        let mut arb = FeedArbiter::new();
        // Feed A loses packet 1; feed B delivers everything.
        for (feed, seq) in [
            (FeedId::A, 0),
            (FeedId::B, 0),
            (FeedId::B, 1),
            (FeedId::A, 2),
            (FeedId::B, 2),
        ] {
            arb.on_packet(feed, &packet(seq));
        }
        arb.close(3);
        assert_eq!(arb.stats().delivered, 3);
        assert_eq!(arb.lost(), 0);
        assert_eq!(arb.recovered_for(FeedId::A), 1);
        assert_eq!(arb.recovered_for(FeedId::B), 0);
        assert_eq!(arb.recovered(), 1);
        assert_eq!(arb.feed_health(FeedId::A).missing, 1);
    }

    #[test]
    fn lost_on_both_feeds_is_permanent() {
        let mut arb = FeedArbiter::new();
        for feed in FeedId::ALL {
            arb.on_packet(feed, &packet(0));
            arb.on_packet(feed, &packet(2));
        }
        arb.close(3);
        assert_eq!(arb.lost(), 1);
        assert_eq!(arb.recovered(), 0);
        assert_eq!(arb.stats().delivered, 2);
    }

    #[test]
    fn late_copy_filling_combined_gap_counts_as_late_recovery() {
        let mut arb = FeedArbiter::new();
        arb.on_packet(FeedId::A, &packet(0));
        arb.on_packet(FeedId::A, &packet(2));
        // Packet 1 was reordered on feed B and shows up after 2.
        assert!(arb.on_packet(FeedId::B, &packet(1)).is_some());
        assert_eq!(arb.stats().late_recoveries, 1);
        arb.close(3);
        assert_eq!(arb.lost(), 0);
        assert_eq!(arb.recovered_for(FeedId::A), 1);
    }

    #[test]
    fn corrupt_packet_does_not_consume_the_sequence() {
        let mut arb = FeedArbiter::new();
        let mut broken = packet(0);
        let last = broken.len() - 1;
        broken[last] ^= 0x10;
        assert!(arb.on_packet(FeedId::A, &broken).is_none());
        assert_eq!(arb.feed_health(FeedId::A).corrupt, 1);
        // The intact copy from the other feed still delivers.
        assert!(arb.on_packet(FeedId::B, &packet(0)).is_some());
        assert_eq!(arb.stats().delivered, 1);
    }

    #[test]
    fn event_intake_validates_payload_before_sequencing() {
        let mut arb = FeedArbiter::new();
        // Valid framing, but the header claims 2 messages and the payload
        // holds 1: the packet is corrupt and must not consume seq 0.
        let enc = SbeEncoder::new();
        let mut payload = BytesMut::new();
        enc.encode_into(&event(0), &mut payload);
        let lying = Datagram::new(0, Timestamp::from_nanos(1), 2, payload.to_vec()).encode();
        assert!(arb.on_packet_events(FeedId::A, &lying).is_empty());
        assert_eq!(arb.stats().corrupt, 1);
        // The honest copy from feed B still delivers its event.
        let out = arb.on_packet_events(FeedId::B, &packet(0));
        assert_eq!(out, vec![event(0)]);
        assert_eq!(arb.stats().events, 1);
    }

    #[test]
    fn within_feed_duplicates_are_tracked_per_feed() {
        let mut arb = FeedArbiter::new();
        arb.on_packet(FeedId::A, &packet(0));
        arb.on_packet(FeedId::A, &packet(0));
        assert_eq!(arb.feed_health(FeedId::A).duplicates, 1);
        assert_eq!(arb.feed_health(FeedId::A).received, 1);
        assert_eq!(arb.stats().cross_duplicates, 1);
    }
}
