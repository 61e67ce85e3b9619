//! Correlated multi-instrument market sessions.
//!
//! A real HFT deployment subscribes to many instruments at once, and
//! their order flow is *correlated*: index futures, their options, and
//! the large constituents burst together when the market moves. The
//! [`MultiSessionBuilder`] models this with one **shared market-factor
//! Hawkes stream** — sampled once and merged into every symbol's own
//! arrivals — plus a per-symbol idiosyncratic Hawkes process with its own
//! seed. A Zipf-style `skew` knob concentrates traffic on the leading
//! symbols (the realistic case: one hot contract and a long tail), while
//! `skew = 0` splits load evenly.
//!
//! The per-symbol traces stay independent, replayable artefacts; the
//! [`MultiMarketSession::merged`] view k-way-merges them into one
//! time-ordered stream with a parallel shard map, which is exactly what
//! the sharded back-test core consumes.

use crate::bursts::{merge_sorted, FlashParams};
use crate::hawkes::{HawkesParams, HawkesProcess};
use crate::session::MarketSession;
use crate::trace::TickTrace;
use lt_lob::{Symbol, Timestamp};

/// Largest symbol count the builder accepts: shard ids travel as `u16`
/// and symbol names are two decimal digits ("S00".."S98").
pub const MAX_SYMBOLS: usize = 99;

/// Zipf-style traffic weights: `w_i ∝ (i+1)^-skew`, normalized so the
/// weights sum to `n`. With `skew = 0` every weight is exactly 1.0, so
/// each symbol carries the single-instrument base load and aggregate
/// traffic scales linearly with the symbol count.
fn zipf_weights(n: usize, skew: f64) -> Vec<f64> {
    assert!(n >= 1, "need at least one symbol");
    assert!(skew >= 0.0 && skew.is_finite(), "skew must be >= 0");
    let raw: Vec<f64> = (0..n).map(|i| ((i + 1) as f64).powf(-skew)).collect();
    let sum: f64 = raw.iter().sum();
    raw.iter().map(|w| w * n as f64 / sum).collect()
}

/// Deterministic symbol name for shard `i`: "S00", "S01", ...
fn symbol_for(i: usize) -> Symbol {
    assert!(i < MAX_SYMBOLS, "symbol index out of range");
    let bytes = [b'S', b'0' + (i / 10) as u8, b'0' + (i % 10) as u8];
    Symbol::new(std::str::from_utf8(&bytes).expect("ascii"))
}

/// A generated multi-instrument session: one [`MarketSession`] per
/// symbol, index position = shard id.
#[derive(Debug, Clone)]
pub struct MultiMarketSession {
    /// Per-symbol sessions; `sessions[i]` is shard `i`.
    pub sessions: Vec<MarketSession>,
}

impl MultiMarketSession {
    /// Number of instruments.
    pub fn n_symbols(&self) -> usize {
        self.sessions.len()
    }

    /// The traded symbols in shard order.
    pub fn symbols(&self) -> Vec<Symbol> {
        self.sessions.iter().map(|s| s.trace.symbol).collect()
    }

    /// K-way-merges the per-symbol traces into one time-ordered stream
    /// plus a parallel shard map (`map[k]` is the shard of merged tick
    /// `k`). Timestamp ties break by shard index, so the merge is fully
    /// deterministic. For a single-symbol session the merged trace is the
    /// symbol's own trace, tick for tick.
    pub fn merged(&self) -> (TickTrace, Vec<u16>) {
        let n = self.sessions.len();
        let total: usize = self.sessions.iter().map(|s| s.trace.len()).sum();
        let mut merged = TickTrace::new(self.sessions[0].trace.symbol);
        merged.ticks.reserve(total);
        let mut shards = Vec::with_capacity(total);
        let mut cursors = vec![0usize; n];
        for _ in 0..total {
            // Linear scan over <= MAX_SYMBOLS cursors: the lowest shard
            // index wins timestamp ties.
            let mut best: Option<(usize, Timestamp)> = None;
            for (i, &c) in cursors.iter().enumerate() {
                if let Some(tick) = self.sessions[i].trace.ticks.get(c) {
                    if best.is_none_or(|(_, ts)| tick.ts < ts) {
                        best = Some((i, tick.ts));
                    }
                }
            }
            let (i, _) = best.expect("total counts remaining ticks");
            let tick = &self.sessions[i].trace.ticks[cursors[i]];
            merged.push(tick.ts, tick.snapshot.clone());
            shards.push(i as u16);
            cursors[i] += 1;
        }
        (merged, shards)
    }
}

/// Builder for correlated multi-instrument sessions.
///
/// # Example
///
/// ```
/// use lt_feed::MultiSessionBuilder;
///
/// let session = MultiSessionBuilder::normal_traffic()
///     .symbols(4)
///     .skew(1.0)
///     .duration_secs(0.2)
///     .seed(7)
///     .build();
/// assert_eq!(session.n_symbols(), 4);
/// let (trace, shards) = session.merged();
/// assert_eq!(trace.len(), shards.len());
/// ```
#[derive(Debug, Clone)]
pub struct MultiSessionBuilder {
    symbols: usize,
    skew: f64,
    /// Fraction of the baseline intensity carried by the shared
    /// market-factor stream (0 disables correlation).
    shared_fraction: f64,
    seed: u64,
    duration_secs: f64,
    hawkes: HawkesParams,
    flash: Option<FlashParams>,
}

impl MultiSessionBuilder {
    /// Starts a builder with explicit per-symbol base Hawkes parameters.
    pub fn new(hawkes: HawkesParams) -> Self {
        MultiSessionBuilder {
            symbols: 1,
            skew: 0.0,
            shared_fraction: 0.25,
            seed: 0,
            duration_secs: 1.0,
            hawkes,
            flash: None,
        }
    }

    /// The default evaluation traffic (see [`crate::SessionBuilder`]).
    pub fn normal_traffic() -> Self {
        MultiSessionBuilder::new(HawkesParams::new(400.0, 160.0, 200.0))
    }

    /// Sets the instrument count (1..=[`MAX_SYMBOLS`]).
    ///
    /// # Panics
    ///
    /// Panics when `n` is zero or exceeds [`MAX_SYMBOLS`].
    pub fn symbols(mut self, n: usize) -> Self {
        assert!(n >= 1, "need at least one symbol");
        assert!(n <= MAX_SYMBOLS, "at most {MAX_SYMBOLS} symbols");
        self.symbols = n;
        self
    }

    /// Sets the Zipf traffic-skew exponent (0 = even split).
    ///
    /// # Panics
    ///
    /// Panics on a negative or non-finite skew.
    pub fn skew(mut self, skew: f64) -> Self {
        assert!(skew >= 0.0 && skew.is_finite(), "skew must be >= 0");
        self.skew = skew;
        self
    }

    /// Sets the shared market-factor fraction (default 0.25).
    ///
    /// # Panics
    ///
    /// Panics unless `f` is in `[0, 1)`.
    pub fn shared_fraction(mut self, f: f64) -> Self {
        assert!((0.0..1.0).contains(&f), "shared fraction must be in [0,1)");
        self.shared_fraction = f;
        self
    }

    /// Sets the master RNG seed; per-symbol seeds derive from it.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the session length in simulated seconds (default 1.0).
    ///
    /// # Panics
    ///
    /// Panics if `secs` is not positive.
    pub fn duration_secs(mut self, secs: f64) -> Self {
        assert!(secs > 0.0, "duration must be positive");
        self.duration_secs = secs;
        self
    }

    /// Injects flash bursts on every symbol (per-symbol burst seeds).
    pub fn flash_bursts(mut self, params: FlashParams) -> Self {
        self.flash = Some(params);
        self
    }

    /// Generates the session: one correlated trace per symbol.
    pub fn build(&self) -> MultiMarketSession {
        let weights = zipf_weights(self.symbols, self.skew);
        // The market factor is sampled ONCE from the master seed and
        // merged into every symbol's arrivals: a common burst fires
        // queries on all books at the same instants.
        let shared = if self.shared_fraction > 0.0 {
            let factor = HawkesParams::new(
                self.hawkes.mu * self.shared_fraction,
                self.hawkes.alpha,
                self.hawkes.beta,
            );
            HawkesProcess::new(factor, self.seed).sample_for(self.duration_secs)
        } else {
            Vec::new()
        };
        let own_fraction = 1.0 - self.shared_fraction;
        let sessions = (0..self.symbols)
            .map(|i| {
                let seed_i = self.seed ^ ((i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
                let own = HawkesParams::new(
                    (self.hawkes.mu * own_fraction * weights[i]).max(1e-6),
                    self.hawkes.alpha,
                    self.hawkes.beta,
                );
                let own = HawkesProcess::new(own, seed_i).sample_for(self.duration_secs);
                MarketSession::record(
                    symbol_for(i),
                    self.flash,
                    self.duration_secs,
                    seed_i,
                    merge_sorted(own, shared.clone()),
                )
            })
            .collect();
        MultiMarketSession { sessions }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_sum_to_n_and_skew_concentrates() {
        for n in [1usize, 2, 4, 8] {
            for skew in [0.0, 1.0, 2.5] {
                let w = zipf_weights(n, skew);
                let sum: f64 = w.iter().sum();
                assert!((sum - n as f64).abs() < 1e-9, "n={n} skew={skew}");
                assert!(w.windows(2).all(|p| p[0] >= p[1]), "monotone");
            }
        }
        assert_eq!(zipf_weights(4, 0.0), vec![1.0; 4]);
        let skewed = zipf_weights(8, 2.5);
        assert!(skewed[0] > 4.0, "hot symbol dominates: {:?}", skewed[0]);
    }

    #[test]
    fn symbol_names_are_unique_and_short() {
        let names: Vec<Symbol> = (0..MAX_SYMBOLS).map(symbol_for).collect();
        for pair in names.windows(2) {
            assert!(pair[0] < pair[1], "names must be strictly ordered");
        }
        assert_eq!(symbol_for(0).as_str(), "S00");
        assert_eq!(symbol_for(11).as_str(), "S11");
    }

    #[test]
    fn build_is_deterministic_per_seed() {
        let build = |seed| {
            MultiSessionBuilder::normal_traffic()
                .symbols(3)
                .skew(1.0)
                .duration_secs(0.1)
                .seed(seed)
                .build()
        };
        let a = build(9);
        let b = build(9);
        for (sa, sb) in a.sessions.iter().zip(&b.sessions) {
            assert_eq!(sa.trace, sb.trace);
        }
        let c = build(10);
        assert_ne!(a.sessions[0].trace, c.sessions[0].trace);
    }

    #[test]
    fn symbols_share_market_factor_bursts() {
        // With a shared factor, distinct symbols tick at identical
        // instants (the merged common stream); without it they never do
        // (continuous arrival times collide with probability zero).
        let correlated = MultiSessionBuilder::normal_traffic()
            .symbols(2)
            .duration_secs(0.5)
            .seed(4)
            .build();
        let shared_ticks = |s: &MultiMarketSession| {
            let a: std::collections::HashSet<u64> =
                s.sessions[0].trace.iter().map(|t| t.ts.nanos()).collect();
            s.sessions[1]
                .trace
                .iter()
                .filter(|t| a.contains(&t.ts.nanos()))
                .count()
        };
        assert!(shared_ticks(&correlated) > 10, "market factor visible");
        let independent = MultiSessionBuilder::normal_traffic()
            .symbols(2)
            .shared_fraction(0.0)
            .duration_secs(0.5)
            .seed(4)
            .build();
        assert_eq!(shared_ticks(&independent), 0);
    }

    #[test]
    fn skew_concentrates_observed_traffic() {
        let session = MultiSessionBuilder::normal_traffic()
            .symbols(4)
            .skew(2.0)
            .duration_secs(0.5)
            .seed(6)
            .build();
        let lens: Vec<usize> = session.sessions.iter().map(|s| s.trace.len()).collect();
        assert!(
            lens[0] > 2 * lens[3],
            "hot symbol must dominate the tail: {lens:?}"
        );
    }

    #[test]
    fn merged_is_ordered_with_shard_map() {
        let session = MultiSessionBuilder::normal_traffic()
            .symbols(3)
            .duration_secs(0.2)
            .seed(11)
            .build();
        let (trace, shards) = session.merged();
        assert_eq!(trace.len(), shards.len());
        assert_eq!(
            trace.len(),
            session
                .sessions
                .iter()
                .map(|s| s.trace.len())
                .sum::<usize>()
        );
        for pair in trace.ticks.windows(2) {
            assert!(pair[0].ts <= pair[1].ts);
        }
        // Per-shard subsequences reproduce the per-symbol traces exactly.
        for (i, s) in session.sessions.iter().enumerate() {
            let sub: Vec<_> = trace
                .ticks
                .iter()
                .zip(&shards)
                .filter(|(_, &sh)| sh as usize == i)
                .map(|(t, _)| t.clone())
                .collect();
            assert_eq!(sub, s.trace.ticks);
        }
    }

    #[test]
    fn single_symbol_merge_is_identity() {
        let session = MultiSessionBuilder::normal_traffic()
            .symbols(1)
            .duration_secs(0.2)
            .seed(13)
            .build();
        let (trace, shards) = session.merged();
        assert_eq!(trace, session.sessions[0].trace);
        assert!(shards.iter().all(|&s| s == 0));
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn too_many_symbols_rejected() {
        let _ = MultiSessionBuilder::normal_traffic().symbols(100);
    }
}
