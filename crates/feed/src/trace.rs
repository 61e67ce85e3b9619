//! Replayable tick traces.
//!
//! A [`TickTrace`] is the unit of back-testing: an ordered list of
//! timestamped ten-level LOB snapshots, exactly the "historical market
//! data, including timestamp and LOB snapshot, which consists of the price
//! and volume of each level on the ask and bid side at each tick" the
//! paper's simulation framework consumes (§IV-A). Traces serialize with
//! serde so experiments are re-runnable from disk.

use lt_lob::{LobSnapshot, Symbol, Timestamp};
use serde::{Deserialize, Serialize};

/// One tick: a timestamp plus the book state after the tick applied.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TickRecord {
    /// Exchange timestamp of the tick.
    pub ts: Timestamp,
    /// Ten-level snapshot after the tick.
    pub snapshot: LobSnapshot,
}

/// An ordered, replayable sequence of ticks for one symbol.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TickTrace {
    /// The traded symbol.
    pub symbol: Symbol,
    /// Ticks in non-decreasing timestamp order.
    pub ticks: Vec<TickRecord>,
}

impl TickTrace {
    /// Creates an empty trace.
    pub fn new(symbol: Symbol) -> Self {
        TickTrace {
            symbol,
            ticks: Vec::new(),
        }
    }

    /// Builds a trace from already-ordered records (e.g. a replayed
    /// delivery stream from a degraded ingress path).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the records are not in non-decreasing
    /// timestamp order.
    pub fn from_records(symbol: Symbol, records: Vec<TickRecord>) -> Self {
        debug_assert!(
            records.windows(2).all(|w| w[0].ts <= w[1].ts),
            "ticks must be time-ordered"
        );
        TickTrace {
            symbol,
            ticks: records,
        }
    }

    /// Appends a tick.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `ts` precedes the previous tick.
    pub fn push(&mut self, ts: Timestamp, snapshot: LobSnapshot) {
        debug_assert!(
            self.ticks.last().is_none_or(|last| last.ts <= ts),
            "ticks must be time-ordered"
        );
        self.ticks.push(TickRecord { ts, snapshot });
    }

    /// Number of ticks.
    pub fn len(&self) -> usize {
        self.ticks.len()
    }

    /// True when the trace holds no ticks.
    pub fn is_empty(&self) -> bool {
        self.ticks.is_empty()
    }

    /// Iterates the ticks in time order.
    pub fn iter(&self) -> std::slice::Iter<'_, TickRecord> {
        self.ticks.iter()
    }

    /// Computes arrival statistics over the trace.
    pub fn stats(&self) -> TraceStats {
        let gaps: Vec<f64> = self
            .ticks
            .windows(2)
            .map(|w| w[1].ts.nanos_since(w[0].ts) as f64)
            .collect();
        if gaps.is_empty() {
            return TraceStats::default();
        }
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        let min = gaps.iter().copied().fold(f64::INFINITY, f64::min);
        let max = gaps.iter().copied().fold(0.0f64, f64::max);
        TraceStats {
            ticks: self.ticks.len(),
            mean_gap_nanos: mean,
            cv: if mean > 0.0 { var.sqrt() / mean } else { 0.0 },
            min_gap_nanos: min as u64,
            max_gap_nanos: max as u64,
        }
    }
}

impl<'a> IntoIterator for &'a TickTrace {
    type Item = &'a TickRecord;
    type IntoIter = std::slice::Iter<'a, TickRecord>;
    fn into_iter(self) -> Self::IntoIter {
        self.ticks.iter()
    }
}

/// Summary statistics of tick arrivals in a trace.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct TraceStats {
    /// Number of ticks.
    pub ticks: usize,
    /// Mean inter-tick gap in nanoseconds.
    pub mean_gap_nanos: f64,
    /// Coefficient of variation of inter-tick gaps (1.0 for Poisson; larger
    /// means burstier).
    pub cv: f64,
    /// Smallest gap observed.
    pub min_gap_nanos: u64,
    /// Largest gap observed.
    pub max_gap_nanos: u64,
}

impl TraceStats {
    /// Mean tick rate in events per second.
    pub fn mean_rate(&self) -> f64 {
        if self.mean_gap_nanos > 0.0 {
            1e9 / self.mean_gap_nanos
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lt_lob::snapshot::SnapshotLevel;
    use lt_lob::{Price, Qty};

    fn snap(mid: i64) -> LobSnapshot {
        LobSnapshot {
            ts: Timestamp::ZERO,
            bids: vec![SnapshotLevel {
                price: Price::new(mid - 1),
                qty: Qty::new(1),
            }],
            asks: vec![SnapshotLevel {
                price: Price::new(mid + 1),
                qty: Qty::new(1),
            }],
        }
    }

    #[test]
    fn push_and_iterate() {
        let mut trace = TickTrace::new(Symbol::new("ESU6"));
        assert!(trace.is_empty());
        trace.push(Timestamp::from_micros(1), snap(100));
        trace.push(Timestamp::from_micros(3), snap(101));
        assert_eq!(trace.len(), 2);
        let mids: Vec<i64> = trace
            .iter()
            .filter_map(|t| t.snapshot.mid_half_ticks())
            .collect();
        assert_eq!(mids, vec![200, 202]);
        // IntoIterator on &trace works in for loops.
        let mut n = 0;
        for _ in &trace {
            n += 1;
        }
        assert_eq!(n, 2);
    }

    #[test]
    fn stats_computes_gaps() {
        let mut trace = TickTrace::new(Symbol::new("ESU6"));
        for (i, us) in [0u64, 10, 20, 30].iter().enumerate() {
            trace.push(Timestamp::from_micros(*us), snap(100 + i as i64));
        }
        let stats = trace.stats();
        assert_eq!(stats.ticks, 4);
        assert!((stats.mean_gap_nanos - 10_000.0).abs() < 1e-9);
        assert!(stats.cv.abs() < 1e-9, "uniform gaps have zero cv");
        assert_eq!(stats.min_gap_nanos, 10_000);
        assert_eq!(stats.max_gap_nanos, 10_000);
        assert!((stats.mean_rate() - 100_000.0).abs() < 1e-6);
    }

    #[test]
    fn empty_trace_stats_are_zero() {
        let trace = TickTrace::new(Symbol::new("ESU6"));
        assert_eq!(trace.stats(), TraceStats::default());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "time-ordered")]
    fn out_of_order_push_panics() {
        let mut trace = TickTrace::new(Symbol::new("ESU6"));
        trace.push(Timestamp::from_micros(5), snap(100));
        trace.push(Timestamp::from_micros(1), snap(100));
    }
}
