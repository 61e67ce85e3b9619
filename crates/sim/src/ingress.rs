//! Fault-injected dual-feed ingress for the back-test.
//!
//! Real market data reaches the trading system over UDP multicast, which
//! drops, duplicates, reorders, and corrupts packets; exchanges publish
//! every channel twice (the redundant A and B feeds) so receivers can
//! arbitrate. This module closes the loop between that reality and the
//! back-test: [`degrade_trace`] encodes each tick of a [`TickTrace`] as a
//! framed datagram, pushes it through two independently seeded
//! [`LossyChannel`]s, re-assembles whatever survives with a
//! [`FeedArbiter`], and returns the degraded trace (ticks lost on both
//! feeds vanish; delayed copies arrive late) together with an
//! [`IngressReport`] of exactly what the network did.
//!
//! Everything is deterministic: a given `(faults, seed)` pair replays the
//! same drop/duplicate/reorder/corrupt pattern on every run, so degraded
//! back-tests stay re-runnable and byte-identical.

use lt_feed::{TickRecord, TickTrace};
use lt_pipeline::{FeedArbiter, FeedId};
use lt_protocol::framing::Datagram;
use lt_protocol::netem::{ChannelStats, FaultRates, LossyChannel};
use serde::{Deserialize, Serialize};

/// Fault profiles for the redundant A/B ingress pair plus the seed that
/// makes them replayable.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct IngressFaults {
    /// Fault profile of the A-side path.
    pub feed_a: FaultRates,
    /// Fault profile of the B-side path.
    pub feed_b: FaultRates,
    /// Seed for both channels (each derives its own RNG stream).
    pub seed: u64,
}

impl IngressFaults {
    /// Two perfect paths: ingress is the identity.
    pub fn lossless() -> Self {
        IngressFaults::default()
    }

    /// Applies the same fault profile to both feeds.
    pub fn symmetric(rates: FaultRates, seed: u64) -> Self {
        IngressFaults {
            feed_a: rates,
            feed_b: rates,
            seed,
        }
    }

    /// True when either path injects any fault or delay. When false the
    /// back-test bypasses the ingress stage entirely, so a lossless
    /// configuration is bit-identical to one with no faults configured.
    pub fn enabled(&self) -> bool {
        self.feed_a.enabled() || self.feed_b.enabled()
    }

    /// Validates both fault profiles.
    ///
    /// # Panics
    ///
    /// Panics if any probability lies outside `[0, 1]`.
    pub fn validate(&self) {
        self.feed_a.validate();
        self.feed_b.validate();
    }
}

/// What one side of the redundant pair experienced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FeedReport {
    /// What the channel did to the traffic (sent/dropped/duplicated/...).
    pub channel: ChannelStats,
    /// Valid packets that arrived on this feed.
    pub received: u64,
    /// Packets rejected at the parser (checksum/framing failures).
    pub corrupt: u64,
    /// Within-feed duplicate deliveries.
    pub duplicates: u64,
    /// Sequences this feed never delivered intact.
    pub lost_on_feed: u64,
    /// Of those, how many the redundant feed supplied anyway.
    pub recovered_from_other: u64,
}

/// Final accounting of one fault-injected ingress pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct IngressReport {
    /// Ticks offered to the channels (the original trace length).
    pub offered: u64,
    /// Ticks delivered downstream exactly once.
    pub delivered: u64,
    /// Ticks lost on one feed but recovered from the other.
    pub recovered: u64,
    /// Ticks lost on both feeds — gone for good.
    pub lost: u64,
    /// Valid redundant copies discarded by arbitration.
    pub cross_duplicates: u64,
    /// Deliveries that filled an already-recorded gap (reordered or
    /// redundant copies arriving after a higher sequence).
    pub late_recoveries: u64,
    /// Corrupt packets rejected across both feeds.
    pub corrupt: u64,
    /// A-side detail.
    pub feed_a: FeedReport,
    /// B-side detail.
    pub feed_b: FeedReport,
}

/// Pushes every tick of `trace` through two independently faulted paths
/// and re-assembles the survivors by A/B arbitration.
///
/// Each tick `i` is framed as a checksummed [`Datagram`] with channel
/// sequence `i` and the tick index as payload, transmitted on both
/// channels at its exchange timestamp, and delivered in arrival order
/// (ties broken by transmission order, A before B). The first valid copy
/// of each sequence wins; its tick is appended to the degraded trace at
/// the copy's *arrival* time, so delayed packets show up late and ticks
/// lost on both feeds never show up at all. With two lossless channels
/// the result is the identity.
///
/// # Panics
///
/// Panics if `faults` fails validation, or (debug builds) if the trace
/// exceeds `u32::MAX` ticks (the channel-sequence width).
pub fn degrade_trace(trace: &TickTrace, faults: &IngressFaults) -> (TickTrace, IngressReport) {
    faults.validate();
    debug_assert!(
        trace.len() <= u32::MAX as usize,
        "trace exceeds channel-sequence width"
    );
    let mut channel_a = LossyChannel::new(faults.feed_a, faults.seed);
    let mut channel_b = LossyChannel::new(faults.feed_b, faults.seed ^ 0x9E37_79B9_7F4A_7C15);

    // Transmit every tick on both paths, tagging each surviving copy
    // with a global emission index so the arrival sort is stable and
    // deterministic (same arrival => A's copy before B's, earlier packet
    // before later).
    struct Copy {
        arrival: lt_lob::Timestamp,
        emission: u64,
        feed: FeedId,
        bytes: Vec<u8>,
    }
    let mut copies: Vec<Copy> = Vec::with_capacity(trace.len() * 2);
    let mut emission = 0u64;
    for (i, tick) in trace.iter().enumerate() {
        let wire = Datagram::new(i as u32, tick.ts, 1, (i as u64).to_le_bytes().to_vec()).encode();
        for (feed, channel) in [(FeedId::A, &mut channel_a), (FeedId::B, &mut channel_b)] {
            for delivery in channel.transmit(&wire, tick.ts) {
                copies.push(Copy {
                    arrival: delivery.arrival,
                    emission,
                    feed,
                    bytes: delivery.bytes,
                });
                emission += 1;
            }
        }
    }
    copies.sort_unstable_by_key(|c| (c.arrival, c.emission));

    // Arbitrate in arrival order; first valid copy of each sequence wins
    // and lands in the degraded trace at its arrival time.
    let mut arbiter = FeedArbiter::new();
    let mut records: Vec<TickRecord> = Vec::with_capacity(trace.len());
    for copy in &copies {
        if let Some(datagram) = arbiter.on_packet(copy.feed, &copy.bytes) {
            let idx = payload_index(&datagram.payload);
            // A corrupted index that still passed the checksum is
            // astronomically unlikely; drop it rather than panic.
            let Some(idx) = idx.filter(|&i| i < trace.len()) else {
                continue;
            };
            records.push(TickRecord {
                ts: copy.arrival,
                snapshot: trace.ticks[idx].snapshot.clone(),
            });
        }
    }
    arbiter.close(trace.len() as u64);

    let stats = arbiter.stats();
    let report = IngressReport {
        offered: trace.len() as u64,
        delivered: stats.delivered,
        recovered: arbiter.recovered(),
        lost: arbiter.lost(),
        cross_duplicates: stats.cross_duplicates,
        late_recoveries: stats.late_recoveries,
        corrupt: stats.corrupt,
        feed_a: feed_report(&arbiter, FeedId::A, channel_a.stats()),
        feed_b: feed_report(&arbiter, FeedId::B, channel_b.stats()),
    };
    (TickTrace::from_records(trace.symbol, records), report)
}

fn payload_index(payload: &[u8]) -> Option<usize> {
    let bytes: [u8; 8] = payload.try_into().ok()?;
    usize::try_from(u64::from_le_bytes(bytes)).ok()
}

fn feed_report(arbiter: &FeedArbiter, feed: FeedId, channel: ChannelStats) -> FeedReport {
    let health = arbiter.feed_health(feed);
    FeedReport {
        channel,
        received: health.received,
        corrupt: health.corrupt,
        duplicates: health.duplicates,
        lost_on_feed: health.missing,
        recovered_from_other: arbiter.recovered_for(feed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::evaluation_trace;

    fn loss(drop: f64) -> FaultRates {
        FaultRates {
            drop,
            ..FaultRates::lossless()
        }
    }

    #[test]
    fn lossless_ingress_is_the_identity() {
        let trace = evaluation_trace(1.0, 5);
        let (degraded, report) = degrade_trace(&trace, &IngressFaults::lossless());
        assert_eq!(degraded, trace);
        assert_eq!(report.offered, trace.len() as u64);
        assert_eq!(report.delivered, report.offered);
        assert_eq!(report.lost, 0);
        assert_eq!(report.recovered, 0);
        // Every tick arrived on both feeds: one copy wins, one dedupes.
        assert_eq!(report.cross_duplicates, report.offered);
    }

    #[test]
    fn loss_on_one_feed_recovers_fully_from_the_other() {
        let trace = evaluation_trace(1.0, 5);
        let faults = IngressFaults {
            feed_a: FaultRates {
                drop: 0.05,
                reorder: 0.02,
                reorder_delay_ns: 0, // keep arrivals at the send time
                ..FaultRates::lossless()
            },
            feed_b: FaultRates::lossless(),
            seed: 11,
        };
        let (degraded, report) = degrade_trace(&trace, &faults);
        assert_eq!(report.lost, 0, "feed B carried every packet");
        assert_eq!(report.delivered, report.offered);
        assert_eq!(report.recovered, report.feed_a.channel.dropped);
        assert!(report.recovered > 0, "5% over the trace must drop some");
        assert_eq!(report.feed_a.recovered_from_other, report.recovered);
        assert_eq!(report.feed_b.recovered_from_other, 0);
        // Zero delay everywhere: the degraded trace is the original.
        assert_eq!(degraded, trace);
    }

    #[test]
    fn loss_on_both_feeds_is_permanent() {
        let trace = evaluation_trace(1.0, 5);
        let faults = IngressFaults::symmetric(loss(0.3), 13);
        let (degraded, report) = degrade_trace(&trace, &faults);
        assert!(report.lost > 0, "30% on both sides must lose overlap");
        assert_eq!(report.delivered + report.lost, report.offered);
        assert_eq!(degraded.len() as u64, report.delivered);
        assert_eq!(
            report.recovered,
            report.feed_a.recovered_from_other + report.feed_b.recovered_from_other
        );
    }

    #[test]
    fn corruption_is_caught_and_recovered() {
        let trace = evaluation_trace(0.5, 5);
        let faults = IngressFaults {
            feed_a: FaultRates {
                corrupt: 1.0,
                ..FaultRates::lossless()
            },
            feed_b: FaultRates::lossless(),
            seed: 17,
        };
        let (degraded, report) = degrade_trace(&trace, &faults);
        // Every A copy has one bit flipped; the checksum rejects each
        // one, and feed B supplies the lot.
        assert_eq!(report.feed_a.corrupt, report.offered);
        assert_eq!(report.lost, 0);
        assert_eq!(report.delivered, report.offered);
        assert_eq!(degraded, trace);
    }

    #[test]
    fn same_seed_is_byte_identical() {
        let trace = evaluation_trace(1.0, 5);
        let faults = IngressFaults::symmetric(
            FaultRates {
                drop: 0.1,
                duplicate: 0.05,
                reorder: 0.1,
                corrupt: 0.02,
                delay_ns: 500,
                jitter_ns: 300,
                reorder_delay_ns: 5_000,
            },
            29,
        );
        let (t1, r1) = degrade_trace(&trace, &faults);
        let (t2, r2) = degrade_trace(&trace, &faults);
        assert_eq!(t1, t2);
        assert_eq!(r1, r2);
        let mut other = faults;
        other.seed = 30;
        let (t3, _) = degrade_trace(&trace, &other);
        assert_ne!(t1, t3, "different seeds must change the fault pattern");
    }

    #[test]
    fn delayed_copies_arrive_late_but_ordered() {
        let trace = evaluation_trace(0.5, 5);
        let faults = IngressFaults::symmetric(
            FaultRates {
                delay_ns: 2_000,
                jitter_ns: 1_000,
                ..FaultRates::lossless()
            },
            31,
        );
        let (degraded, report) = degrade_trace(&trace, &faults);
        assert_eq!(report.delivered, report.offered);
        assert_eq!(degraded.len(), trace.len());
        // from_records debug-asserts ordering; spot-check arrival shift.
        let first_orig = trace.ticks[0].ts;
        let first_deg = degraded.ticks[0].ts;
        let shift = first_deg.nanos_since(first_orig);
        assert!((2_000..=3_000).contains(&shift), "shift {shift}");
    }
}
