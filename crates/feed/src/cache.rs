//! Shared-trace caching for the back-test farm.
//!
//! A sweep grid expands into hundreds of cells, but only a handful of
//! *sessions* back them: every cell sharing a (traffic, duration, seed,
//! symbols) tuple replays the same immutable trace. [`SessionSpec`] is
//! the hashable description of one session build, [`SessionArtifact`]
//! the built result (single- or multi-instrument, with the k-way merge
//! precomputed once for multi), and [`TraceCache`] the concurrent map
//! that guarantees each spec is built exactly once per cache and handed
//! out as a cheap `Arc` clone afterwards, with hit/miss accounting.

use crate::bursts::FlashParams;
use crate::hawkes::HawkesParams;
use crate::multi::{MultiMarketSession, MultiSessionBuilder};
use crate::session::{MarketSession, SessionBuilder};
use crate::trace::TickTrace;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A hashable description of one session build: everything that
/// determines the generated trace(s), nothing else.
///
/// Two specs that compare equal build bit-identical sessions, so a
/// [`TraceCache`] may serve either build for both. Floats participate in
/// equality and hashing through their bit patterns — the spec describes
/// an exact generator input, not an approximate one.
///
/// Single-symbol specs build through [`SessionBuilder`] (the historical
/// evaluation path, bit-identical to `evaluation_trace`); multi-symbol
/// specs build through [`MultiSessionBuilder`] with
/// [`DEFAULT_SHARED_FRACTION`]. The `skew` knob only exists for
/// multi-symbol sessions, so [`SessionSpec::with_symbols`] normalizes it
/// to zero when `symbols == 1` — a 1-symbol spec never splits the cache
/// by a knob that cannot affect its build.
#[derive(Debug, Clone, Copy)]
pub struct SessionSpec {
    /// Per-symbol base Hawkes arrival parameters.
    pub hawkes: HawkesParams,
    /// Optional flash-burst overlay.
    pub flash: Option<FlashParams>,
    /// Session length in simulated seconds.
    pub duration_secs: f64,
    /// Master RNG seed.
    pub seed: u64,
    /// Instrument count (1 = the historical single-symbol path).
    pub symbols: usize,
    /// Zipf traffic skew across symbols (0 when `symbols == 1`).
    pub skew: f64,
}

/// Shared market-factor fraction of every multi-symbol spec, matching
/// [`MultiSessionBuilder`]'s default.
pub const DEFAULT_SHARED_FRACTION: f64 = 0.25;

impl SessionSpec {
    /// A single-symbol spec with no flash bursts.
    pub fn single(hawkes: HawkesParams, duration_secs: f64, seed: u64) -> Self {
        assert!(duration_secs > 0.0, "duration must be positive");
        SessionSpec {
            hawkes,
            flash: None,
            duration_secs,
            seed,
            symbols: 1,
            skew: 0.0,
        }
    }

    /// Adds a flash-burst overlay.
    #[must_use]
    pub fn with_flash(mut self, flash: FlashParams) -> Self {
        self.flash = Some(flash);
        self
    }

    /// Makes this a `symbols`-instrument spec with Zipf skew `skew`. With
    /// `symbols == 1` the skew normalizes to zero so the spec stays on
    /// (and hashes onto) the single-symbol build path.
    #[must_use]
    pub fn with_symbols(mut self, symbols: usize, skew: f64) -> Self {
        assert!(symbols >= 1, "need at least one symbol");
        assert!(
            symbols <= crate::multi::MAX_SYMBOLS,
            "at most {} symbols",
            crate::multi::MAX_SYMBOLS
        );
        assert!(skew >= 0.0 && skew.is_finite(), "skew must be >= 0");
        self.symbols = symbols;
        self.skew = if symbols == 1 { 0.0 } else { skew };
        self
    }

    /// Builds the session this spec describes. Deterministic: equal
    /// specs produce bit-identical artifacts.
    pub fn build(&self) -> SessionArtifact {
        if self.symbols == 1 {
            let mut b = SessionBuilder::new(self.hawkes)
                .duration_secs(self.duration_secs)
                .seed(self.seed);
            if let Some(flash) = self.flash {
                b = b.flash_bursts(flash);
            }
            SessionArtifact::Single(b.build())
        } else {
            let mut b = MultiSessionBuilder::new(self.hawkes)
                .symbols(self.symbols)
                .skew(self.skew)
                .shared_fraction(DEFAULT_SHARED_FRACTION)
                .duration_secs(self.duration_secs)
                .seed(self.seed);
            if let Some(flash) = self.flash {
                b = b.flash_bursts(flash);
            }
            let session = b.build();
            let (merged, shards) = session.merged();
            SessionArtifact::Multi {
                session,
                merged,
                shards,
            }
        }
    }
}

impl PartialEq for SessionSpec {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for SessionSpec {}

impl Hash for SessionSpec {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.key().hash(state);
    }
}

impl SessionSpec {
    /// The spec's identity as plain bits (floats by `to_bits`), shared
    /// by `Eq` and `Hash` so the two can never disagree.
    fn key(&self) -> ([u64; 3], Option<[u64; 3]>, u64, u64, usize, u64) {
        (
            [
                self.hawkes.mu.to_bits(),
                self.hawkes.alpha.to_bits(),
                self.hawkes.beta.to_bits(),
            ],
            self.flash.map(|f| {
                [
                    f.bursts_per_sec.to_bits(),
                    f.mean_size.to_bits(),
                    f.intra_gap_secs.to_bits(),
                ]
            }),
            self.duration_secs.to_bits(),
            self.seed,
            self.symbols,
            self.skew.to_bits(),
        )
    }
}

/// A built session: the immutable replay input one or more back-test
/// cells share.
#[derive(Debug, Clone)]
pub enum SessionArtifact {
    /// A single-instrument session (the historical evaluation path).
    Single(MarketSession),
    /// A multi-instrument session with its deterministic k-way merge
    /// precomputed once — every cell replays the same merged stream
    /// without re-merging.
    Multi {
        /// The per-symbol sessions.
        session: MultiMarketSession,
        /// The time-ordered merged trace.
        merged: TickTrace,
        /// Shard of each merged tick (parallel to `merged`).
        shards: Vec<u16>,
    },
}

impl SessionArtifact {
    /// The replayable trace: the session's own trace for single-symbol
    /// artifacts, the precomputed merge for multi-symbol ones.
    pub fn trace(&self) -> &TickTrace {
        match self {
            SessionArtifact::Single(s) => &s.trace,
            SessionArtifact::Multi { merged, .. } => merged,
        }
    }

    /// Number of instruments in the session.
    pub fn n_symbols(&self) -> usize {
        match self {
            SessionArtifact::Single(_) => 1,
            SessionArtifact::Multi { session, .. } => session.n_symbols(),
        }
    }

    /// The single-instrument session.
    ///
    /// # Panics
    ///
    /// Panics on a multi-symbol artifact.
    pub fn single(&self) -> &MarketSession {
        match self {
            SessionArtifact::Single(s) => s,
            SessionArtifact::Multi { .. } => panic!("multi-symbol artifact has no single session"),
        }
    }
}

/// Hit/miss/occupancy counters of a [`TraceCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from an already-built artifact.
    pub hits: u64,
    /// Lookups that had to build (equals the number of session builds
    /// this cache performed).
    pub misses: u64,
    /// Distinct specs currently held.
    pub entries: usize,
}

/// A concurrent spec-keyed session cache.
///
/// `get_or_build` builds outside the map lock, so a slow session build
/// never blocks workers resolving *other* specs. If two workers race on
/// the same unbuilt spec both build (each counting a miss) and the first
/// insert wins — builds are deterministic, so the duplicates are
/// bit-identical and the race only costs time. The farm runner avoids
/// even that by pre-building the unique specs before fanning out cells.
#[derive(Debug, Default)]
pub struct TraceCache {
    entries: Mutex<HashMap<SessionSpec, Arc<SessionArtifact>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl TraceCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the artifact for `spec`, building it exactly once per
    /// cache (modulo the benign same-spec race documented on the type).
    pub fn get_or_build(&self, spec: &SessionSpec) -> Arc<SessionArtifact> {
        if let Some(hit) = self.entries.lock().expect("cache poisoned").get(spec) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(hit);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let built = Arc::new(spec.build());
        Arc::clone(
            self.entries
                .lock()
                .expect("cache poisoned")
                .entry(*spec)
                .or_insert(built),
        )
    }

    /// The artifact for `spec` if already built; counts as a hit or miss.
    pub fn get(&self, spec: &SessionSpec) -> Option<Arc<SessionArtifact>> {
        let found = self
            .entries
            .lock()
            .expect("cache poisoned")
            .get(spec)
            .cloned();
        match found {
            Some(a) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(a)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Hit/miss/occupancy counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.entries.lock().expect("cache poisoned").len(),
        }
    }

    /// Number of distinct specs held.
    pub fn len(&self) -> usize {
        self.entries.lock().expect("cache poisoned").len()
    }

    /// True when no spec has been built yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every cached artifact (counters are kept).
    pub fn clear(&self) {
        self.entries.lock().expect("cache poisoned").clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn calm() -> HawkesParams {
        HawkesParams::new(200.0, 30.0, 100.0)
    }

    #[test]
    fn equal_specs_build_identical_sessions() {
        let spec = SessionSpec::single(calm(), 0.2, 7);
        let a = spec.build();
        let b = spec.build();
        assert_eq!(a.trace(), b.trace());
        assert_eq!(a.n_symbols(), 1);
    }

    #[test]
    fn single_spec_matches_session_builder_bit_for_bit() {
        let spec =
            SessionSpec::single(calm(), 0.3, 11).with_flash(FlashParams::new(2.0, 10.0, 1e-5));
        let direct = SessionBuilder::new(calm())
            .flash_bursts(FlashParams::new(2.0, 10.0, 1e-5))
            .duration_secs(0.3)
            .seed(11)
            .build();
        assert_eq!(spec.build().single().trace, direct.trace);
    }

    #[test]
    fn multi_spec_precomputes_the_merge() {
        let spec = SessionSpec::single(calm(), 0.2, 3).with_symbols(3, 1.0);
        let artifact = spec.build();
        assert_eq!(artifact.n_symbols(), 3);
        let SessionArtifact::Multi {
            session,
            merged,
            shards,
        } = &artifact
        else {
            panic!("expected multi artifact");
        };
        let (expect_trace, expect_shards) = session.merged();
        assert_eq!(merged, &expect_trace);
        assert_eq!(shards, &expect_shards);
        assert_eq!(artifact.trace().len(), shards.len());
    }

    #[test]
    fn single_symbol_normalizes_multi_knobs() {
        let a = SessionSpec::single(calm(), 0.5, 1);
        let b = SessionSpec::single(calm(), 0.5, 1).with_symbols(1, 2.5);
        assert_eq!(a, b, "skew cannot split the 1-symbol cache");
        let c = SessionSpec::single(calm(), 0.5, 2);
        assert_ne!(a, c);
    }

    #[test]
    fn cache_builds_once_and_counts() {
        let cache = TraceCache::new();
        let spec_a = SessionSpec::single(calm(), 0.2, 1);
        let spec_b = SessionSpec::single(calm(), 0.2, 2);
        assert!(cache.get(&spec_a).is_none(), "cold lookup misses");
        let first = cache.get_or_build(&spec_a);
        let again = cache.get_or_build(&spec_a);
        assert!(Arc::ptr_eq(&first, &again), "same artifact, not a rebuild");
        let _ = cache.get_or_build(&spec_b);
        let stats = cache.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.misses, 3, "one get miss + two builds");
        assert_eq!(stats.hits, 1);
        assert_eq!(cache.len(), 2);
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn concurrent_get_or_build_shares_one_artifact() {
        let cache = TraceCache::new();
        let spec = SessionSpec::single(calm(), 0.2, 9);
        let arcs: Vec<Arc<SessionArtifact>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| s.spawn(|| cache.get_or_build(&spec)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for pair in arcs.windows(2) {
            assert_eq!(pair[0].trace(), pair[1].trace());
        }
        assert_eq!(cache.len(), 1, "one entry survives the race");
    }

    #[test]
    #[should_panic(expected = "multi-symbol artifact")]
    fn single_accessor_rejects_multi() {
        let artifact = SessionSpec::single(calm(), 0.1, 1)
            .with_symbols(2, 0.0)
            .build();
        let _ = artifact.single();
    }
}
