//! Deterministic network fault injection for encoded datagrams.
//!
//! Real CME market data arrives over UDP multicast, which drops,
//! duplicates, reorders, and corrupts packets — that is why the exchange
//! publishes every channel twice as redundant A and B feeds. This module
//! models one such lossy path: a [`LossyChannel`] takes encoded datagram
//! bytes and produces zero or more [`Delivery`] records (dropped,
//! duplicated, delayed, or bit-corrupted copies) according to seeded
//! [`FaultRates`]. Every decision comes from a [`rand::rngs::StdRng`]
//! stream, so a given `(rates, seed)` pair replays the exact same fault
//! pattern on every run — the property the back-test's determinism suite
//! depends on.

use lt_lob::Timestamp;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Fault probabilities and delay parameters for one simulated path.
///
/// All probabilities are in `[0, 1]` and are drawn independently per
/// packet (drop) or per surviving copy (duplicate / corrupt / reorder).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultRates {
    /// Probability a packet is lost outright.
    pub drop: f64,
    /// Probability a surviving packet is delivered twice.
    pub duplicate: f64,
    /// Probability a copy is held back by an extra reorder delay.
    pub reorder: f64,
    /// Probability a copy has one random bit flipped.
    pub corrupt: f64,
    /// Fixed propagation delay applied to every copy, in nanoseconds.
    pub delay_ns: u64,
    /// Uniform jitter bound: each copy waits an extra `[0, jitter_ns]`.
    pub jitter_ns: u64,
    /// Extra delay added to reordered copies, in nanoseconds.
    pub reorder_delay_ns: u64,
}

impl FaultRates {
    /// A perfect path: nothing dropped, delayed, or corrupted.
    pub fn lossless() -> Self {
        FaultRates {
            drop: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
            corrupt: 0.0,
            delay_ns: 0,
            jitter_ns: 0,
            reorder_delay_ns: 0,
        }
    }

    /// True if any fault or delay is configured.
    pub fn enabled(&self) -> bool {
        self.drop > 0.0
            || self.duplicate > 0.0
            || self.reorder > 0.0
            || self.corrupt > 0.0
            || self.delay_ns > 0
            || self.jitter_ns > 0
            || self.reorder_delay_ns > 0
    }

    /// Checks every probability is a valid probability.
    ///
    /// # Panics
    ///
    /// Panics if any rate lies outside `[0, 1]` or is NaN.
    pub fn validate(&self) {
        for (name, p) in [
            ("drop", self.drop),
            ("duplicate", self.duplicate),
            ("reorder", self.reorder),
            ("corrupt", self.corrupt),
        ] {
            assert!(
                (0.0..=1.0).contains(&p),
                "fault rate `{name}` must be in [0, 1], got {p}"
            );
        }
    }
}

impl Default for FaultRates {
    fn default() -> Self {
        FaultRates::lossless()
    }
}

/// One copy of a packet emerging from a lossy path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery {
    /// The (possibly corrupted) encoded datagram bytes.
    pub bytes: Vec<u8>,
    /// When this copy reaches the receiver.
    pub arrival: Timestamp,
}

/// Running totals of what the channel did to its traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ChannelStats {
    /// Packets offered to the channel.
    pub sent: u64,
    /// Packets lost outright.
    pub dropped: u64,
    /// Extra copies produced by duplication.
    pub duplicated: u64,
    /// Copies that had a bit flipped.
    pub corrupted: u64,
    /// Copies held back by the reorder delay.
    pub reordered: u64,
}

/// A seeded lossy path from sender to receiver.
///
/// Faults are drawn in a fixed order per packet — drop, then per copy:
/// corrupt, jitter, reorder — so the stream consumed from the RNG depends
/// only on the packet sequence and the configured rates, never on wall
/// clock or iteration order elsewhere.
#[derive(Debug, Clone)]
pub struct LossyChannel {
    rates: FaultRates,
    rng: StdRng,
    stats: ChannelStats,
}

impl LossyChannel {
    /// Creates a channel with the given fault profile and seed.
    ///
    /// # Panics
    ///
    /// Panics if `rates` fails [`FaultRates::validate`].
    pub fn new(rates: FaultRates, seed: u64) -> Self {
        rates.validate();
        LossyChannel {
            rates,
            rng: StdRng::seed_from_u64(seed),
            stats: ChannelStats::default(),
        }
    }

    /// What the channel has done to its traffic so far.
    pub fn stats(&self) -> ChannelStats {
        self.stats
    }

    /// Pushes one encoded packet through the path, returning every copy
    /// that survives with its arrival time.
    pub fn transmit(&mut self, bytes: &[u8], sent: Timestamp) -> Vec<Delivery> {
        self.stats.sent += 1;
        if self.rates.drop > 0.0 && self.rng.gen::<f64>() < self.rates.drop {
            self.stats.dropped += 1;
            return Vec::new();
        }
        let copies = if self.rates.duplicate > 0.0 && self.rng.gen::<f64>() < self.rates.duplicate {
            self.stats.duplicated += 1;
            2
        } else {
            1
        };
        let mut out = Vec::with_capacity(copies);
        for _ in 0..copies {
            let mut copy = bytes.to_vec();
            if self.rates.corrupt > 0.0 && self.rng.gen::<f64>() < self.rates.corrupt {
                self.stats.corrupted += 1;
                if !copy.is_empty() {
                    let bit = self.rng.gen_range(0..copy.len() * 8);
                    copy[bit / 8] ^= 1 << (bit % 8);
                }
            }
            let mut delay = self.rates.delay_ns;
            if self.rates.jitter_ns > 0 {
                delay += self.rng.gen_range(0..=self.rates.jitter_ns);
            }
            if self.rates.reorder > 0.0 && self.rng.gen::<f64>() < self.rates.reorder {
                self.stats.reordered += 1;
                delay += self.rates.reorder_delay_ns;
            }
            out.push(Delivery {
                bytes: copy,
                arrival: sent + std::time::Duration::from_nanos(delay),
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn faulty() -> FaultRates {
        FaultRates {
            drop: 0.2,
            duplicate: 0.1,
            reorder: 0.1,
            corrupt: 0.05,
            delay_ns: 1_000,
            jitter_ns: 500,
            reorder_delay_ns: 10_000,
        }
    }

    #[test]
    fn lossless_channel_is_identity_with_delay() {
        let mut ch = LossyChannel::new(FaultRates::lossless(), 1);
        for i in 0..100u64 {
            let sent = Timestamp::from_nanos(i * 10);
            let out = ch.transmit(&[1, 2, 3], sent);
            assert_eq!(out.len(), 1);
            assert_eq!(out[0].bytes, vec![1, 2, 3]);
            assert_eq!(out[0].arrival, sent);
        }
        assert_eq!(ch.stats().sent, 100);
        assert_eq!(ch.stats().dropped, 0);
        assert_eq!(ch.stats().corrupted, 0);
    }

    #[test]
    fn same_seed_replays_identical_faults() {
        let mut a = LossyChannel::new(faulty(), 42);
        let mut b = LossyChannel::new(faulty(), 42);
        for i in 0..500u64 {
            let sent = Timestamp::from_nanos(i * 100);
            let payload = i.to_le_bytes();
            assert_eq!(a.transmit(&payload, sent), b.transmit(&payload, sent));
        }
        assert_eq!(a.stats(), b.stats());
        assert!(a.stats().dropped > 0, "20% drop over 500 packets");
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = LossyChannel::new(faulty(), 1);
        let mut b = LossyChannel::new(faulty(), 2);
        let mut same = true;
        for i in 0..200u64 {
            let sent = Timestamp::from_nanos(i);
            if a.transmit(&i.to_le_bytes(), sent) != b.transmit(&i.to_le_bytes(), sent) {
                same = false;
            }
        }
        assert!(!same, "independent seeds produced identical fault streams");
    }

    #[test]
    fn drop_rate_is_roughly_honoured() {
        let rates = FaultRates {
            drop: 0.3,
            ..FaultRates::lossless()
        };
        let mut ch = LossyChannel::new(rates, 7);
        for i in 0..10_000u64 {
            ch.transmit(&[0], Timestamp::from_nanos(i));
        }
        let dropped = ch.stats().dropped;
        assert!(
            (2_500..3_500).contains(&dropped),
            "expected ~3000 drops, got {dropped}"
        );
    }

    #[test]
    fn corrupt_flips_exactly_one_bit() {
        let rates = FaultRates {
            corrupt: 1.0,
            ..FaultRates::lossless()
        };
        let mut ch = LossyChannel::new(rates, 9);
        let original = [0u8; 16];
        for i in 0..100u64 {
            let out = ch.transmit(&original, Timestamp::from_nanos(i));
            assert_eq!(out.len(), 1);
            let flipped: u32 = out[0]
                .bytes
                .iter()
                .zip(original.iter())
                .map(|(a, b)| (a ^ b).count_ones())
                .sum();
            assert_eq!(flipped, 1, "exactly one bit must differ");
        }
    }

    #[test]
    fn duplicate_emits_two_copies() {
        let rates = FaultRates {
            duplicate: 1.0,
            ..FaultRates::lossless()
        };
        let mut ch = LossyChannel::new(rates, 3);
        let out = ch.transmit(&[5, 6], Timestamp::ZERO);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].bytes, out[1].bytes);
        assert_eq!(ch.stats().duplicated, 1);
    }

    #[test]
    fn delay_and_jitter_bound_arrival() {
        let rates = FaultRates {
            delay_ns: 1_000,
            jitter_ns: 200,
            ..FaultRates::lossless()
        };
        let mut ch = LossyChannel::new(rates, 11);
        for i in 0..500u64 {
            let sent = Timestamp::from_nanos(i * 10_000);
            let out = ch.transmit(&[1], sent);
            let delta = out[0].arrival.nanos() - sent.nanos();
            assert!(
                (1_000..=1_200).contains(&delta),
                "delay {delta} out of bounds"
            );
        }
    }

    #[test]
    #[should_panic(expected = "fault rate `drop` must be in [0, 1]")]
    fn invalid_rate_panics() {
        let rates = FaultRates {
            drop: 1.5,
            ..FaultRates::lossless()
        };
        let _ = LossyChannel::new(rates, 0);
    }
}
