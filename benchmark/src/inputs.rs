//! Input generation. Everything here is a function of the seed; the
//! program under test sees only the bytes and snapshots made here.

use lighttrader::feed::bursts::merge_sorted;
use lighttrader::feed::{
    AgentFlow, AgentParams, FlashParams, HawkesParams, HawkesProcess, NormStats, TickTrace,
};
use lighttrader::lob::{Symbol, Timestamp};
use lighttrader::pipeline::FeedId;
use lighttrader::protocol::framing::Datagram;
use lighttrader::protocol::netem::{FaultRates, LossyChannel};
use lighttrader::protocol::sbe::SbeEncoder;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Book depth the pipeline snapshots (the paper's ten levels).
pub const DEPTH: usize = 10;

/// One tick in this many contributes a snapshot to the normalization
/// fit: the statistics need no more, and a snapshot per tick would be
/// most of the benchmark's resident memory.
const NORM_STRIDE: usize = 16;

/// Packets stored back to back: one allocation, no per-packet header,
/// so resident memory is the bytes themselves.
#[derive(Debug, Clone, Default)]
pub struct Packets {
    bytes: Vec<u8>,
    ends: Vec<usize>,
}

impl Packets {
    fn push(&mut self, packet: &[u8]) {
        self.bytes.extend_from_slice(packet);
        self.ends.push(self.bytes.len());
    }

    /// Number of packets.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when there are none.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Packet `i`.
    pub fn get(&self, i: usize) -> &[u8] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.bytes[start..self.ends[i]]
    }
}

/// One exchange session as the wire carries it: a clean, in-order stream
/// of SBE datagrams, one per exchange tick.
#[derive(Debug, Clone)]
pub struct WireSession {
    /// The encoded datagrams; channel sequence = index.
    pub datagrams: Packets,
    /// When each datagram is due at the system, nanoseconds.
    pub due_ns: Vec<u64>,
    /// Market events packed into each datagram.
    pub events: Vec<u16>,
    /// Z-score statistics fitted over the session's own snapshots.
    pub norm: NormStats,
}

/// Flash-burst event times in `[0, secs)`, ascending, with the
/// distribution of `FlashParams::sample_for` and none of its sampling
/// noise: one burst in every slot of `1 / bursts_per_sec` seconds, at a
/// place in it the seed chooses, and for the sizes the geometric
/// distribution's quantiles at the slots' midpoints, in an order the
/// seed chooses.
///
/// Tick-to-trade under bursts rests on the few bursts of a trace that
/// are several times the mean size. Sampled, their number differs so
/// much between seeds that the p99 of a 100 s trace moved by 13 %
/// whatever the machine did; here every trace holds the same sizes, and
/// one short enough for thirty passes in a run is as steady as any.
pub fn stratified_bursts(flash: FlashParams, secs: f64, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let bursts = (flash.bursts_per_sec * secs).round() as usize;
    let stay = (1.0 - 1.0 / flash.mean_size).ln();
    let mut sizes: Vec<usize> = (0..bursts)
        .map(|i| {
            let u = (i as f64 + 0.5) / bursts as f64;
            1 + ((1.0 - u).ln() / stay) as usize
        })
        .collect();
    for i in (1..bursts).rev() {
        sizes.swap(i, rng.gen_range(0..=i));
    }
    let mut out = Vec::new();
    for (slot, size) in sizes.into_iter().enumerate() {
        let start = (slot as f64 + rng.gen_range(0.0..1.0)) / flash.bursts_per_sec;
        out.extend(
            (0..size)
                .map(|k| start + k as f64 * flash.intra_gap_secs)
                .filter(|&at| at < secs),
        );
    }
    out.sort_by(f64::total_cmp);
    out
}

/// Generates `secs` of exchange traffic — Hawkes arrivals, optionally
/// overlaid with [`stratified_bursts`], driving a zero-intelligence
/// agent flow against a real matching engine — and encodes every tick's
/// market events as one framed SBE datagram. Mirrors
/// `SessionBuilder::build`, which keeps snapshots and discards the
/// events this benchmark needs.
pub fn wire_session(
    hawkes: HawkesParams,
    flash: Option<FlashParams>,
    secs: f64,
    seed: u64,
) -> WireSession {
    let mut arrivals = HawkesProcess::new(hawkes, seed).sample_for(secs);
    if let Some(flash) = flash {
        arrivals = merge_sorted(
            arrivals,
            stratified_bursts(flash, secs, seed.wrapping_add(17)),
        );
    }
    let symbol = Symbol::new("ESU6");
    let mut flow = AgentFlow::new(symbol, AgentParams::default(), seed.wrapping_add(1));
    let encoder = SbeEncoder::new();
    let mut trace = TickTrace::new(symbol);
    let mut session = WireSession {
        datagrams: Packets::default(),
        due_ns: Vec::with_capacity(arrivals.len()),
        events: Vec::with_capacity(arrivals.len()),
        norm: NormStats::identity(DEPTH),
    };
    for (seq, t) in arrivals.into_iter().enumerate() {
        let ts = Timestamp::from_nanos((t * 1e9) as u64);
        let events = flow.step(ts);
        let mut payload = Vec::new();
        for event in &events {
            payload.extend_from_slice(&encoder.encode(event));
        }
        let datagram = Datagram::new(seq as u32, ts, events.len() as u16, payload);
        session.datagrams.push(&datagram.encode());
        session.due_ns.push(ts.nanos());
        session.events.push(events.len() as u16);
        if seq % NORM_STRIDE == 0 {
            trace.push(ts, flow.engine().book().snapshot(DEPTH, ts));
        }
    }
    if !trace.is_empty() {
        session.norm = NormStats::fit(&trace, DEPTH);
    }
    session
}

/// A [`WireSession`] as two lossy redundant feeds deliver it.
#[derive(Debug, Clone)]
pub struct AbSession {
    /// Every packet either feed delivered, in arrival order (for each
    /// datagram: feed A's copies, then feed B's).
    pub packets: Packets,
    /// The feed each packet arrived on.
    pub feeds: Vec<FeedId>,
    /// Datagrams the exchange sent.
    pub sent: u64,
    /// Datagrams of which at least one byte-intact copy arrived — what a
    /// correct arbiter delivers.
    pub intact: u64,
    /// Market events inside those datagrams.
    pub intact_events: u64,
    /// Normalization statistics of the underlying session.
    pub norm: NormStats,
}

/// The fault profile of both feeds: drop 2 %, duplicate 1 %, corrupt
/// 0.5 %, no reordering, no delay.
pub fn ab_fault_rates() -> FaultRates {
    FaultRates {
        drop: 0.02,
        duplicate: 0.01,
        corrupt: 0.005,
        ..FaultRates::lossless()
    }
}

/// Sends `session` through two independently seeded [`LossyChannel`]s.
pub fn ab_session(session: &WireSession, seed: u64) -> AbSession {
    let mut channels = [
        (FeedId::A, LossyChannel::new(ab_fault_rates(), seed)),
        (
            FeedId::B,
            LossyChannel::new(ab_fault_rates(), seed ^ 0x9e37_79b9_7f4a_7c15),
        ),
    ];
    let mut out = AbSession {
        packets: Packets::default(),
        feeds: Vec::new(),
        sent: session.datagrams.len() as u64,
        intact: 0,
        intact_events: 0,
        norm: session.norm.clone(),
    };
    for i in 0..session.datagrams.len() {
        let original = session.datagrams.get(i);
        let sent = Timestamp::from_nanos(session.due_ns[i]);
        let mut intact = false;
        for (feed, channel) in &mut channels {
            for delivery in channel.transmit(original, sent) {
                intact |= delivery.bytes == original;
                out.packets.push(&delivery.bytes);
                out.feeds.push(*feed);
            }
        }
        if intact {
            out.intact += 1;
            out.intact_events += u64::from(session.events[i]);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lighttrader::sim::traffic;

    #[test]
    fn the_same_seed_gives_the_same_bytes() {
        let make = |seed| {
            wire_session(
                traffic::evaluation_hawkes(),
                Some(traffic::burst_storm_flash()),
                0.5,
                seed,
            )
        };
        let (a, b, c) = (make(5), make(5), make(6));
        assert_eq!(a.datagrams.bytes, b.datagrams.bytes);
        assert_eq!(a.due_ns, b.due_ns);
        assert_ne!(a.datagrams.bytes, c.datagrams.bytes);
        assert_eq!(a.datagrams.len(), a.events.len());
        assert!(a.due_ns.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn every_seed_gets_the_same_burst_sizes() {
        let flash = traffic::burst_storm_flash();
        let sizes = |seed| {
            let times = stratified_bursts(flash, 20.0, seed);
            assert!(times.windows(2).all(|w| w[0] <= w[1]));
            assert!(times.iter().all(|&t| (0.0..20.0).contains(&t)));
            times.len()
        };
        // 240 bursts of mean size 50; only a burst cut off by the end of
        // the trace can differ.
        let (a, b) = (sizes(1), sizes(2));
        assert!(a.abs_diff(b) < 400, "{a} and {b} events");
        assert!((11_000..13_000).contains(&a), "{a} events");
        assert_ne!(
            stratified_bursts(flash, 20.0, 1),
            stratified_bursts(flash, 20.0, 2)
        );
    }

    #[test]
    fn lossy_feeds_lose_duplicate_and_corrupt() {
        let wire = wire_session(HawkesParams::new(400.0, 160.0, 200.0), None, 2.0, 9);
        let ab = ab_session(&wire, 9);
        assert_eq!(ab.packets.len(), ab.feeds.len());
        assert!(ab.intact <= ab.sent);
        assert!(
            ab.intact > ab.sent * 99 / 100,
            "two feeds recover nearly all"
        );
        assert!(ab.packets.len() as u64 > ab.sent * 19 / 10);
    }
}
