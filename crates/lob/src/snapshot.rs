//! Ten-level book snapshots — the raw material of DNN input feature maps.

use crate::ladder::{LevelView, PriceLadder};
use crate::types::{Price, Qty, Timestamp};
use serde::{Deserialize, Serialize};

/// One side-level of a snapshot: price and aggregate quantity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SnapshotLevel {
    /// Level price in ticks.
    pub price: Price,
    /// Aggregate resting quantity at the level.
    pub qty: Qty,
}

/// A top-of-book snapshot with up to N levels per side.
///
/// The paper's offload engine consumes ten levels of bids and asks, each
/// carrying `(price, qty)` (§III-A), i.e. 40 raw features per tick. Levels
/// are ordered from most to least aggressive (bids descending, asks
/// ascending).
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct LobSnapshot {
    /// Exchange timestamp of the tick that produced this snapshot.
    pub ts: Timestamp,
    /// Bid levels, best (highest) first.
    pub bids: Vec<SnapshotLevel>,
    /// Ask levels, best (lowest) first.
    pub asks: Vec<SnapshotLevel>,
}

impl LobSnapshot {
    /// The number of `f32` features a `depth`-level snapshot flattens to:
    /// `(price, qty) x 2 sides x depth`.
    pub const fn feature_count(depth: usize) -> usize {
        depth * 4
    }

    /// Best bid level, if present.
    pub fn best_bid(&self) -> Option<SnapshotLevel> {
        self.bids.first().copied()
    }

    /// Best ask level, if present.
    pub fn best_ask(&self) -> Option<SnapshotLevel> {
        self.asks.first().copied()
    }

    /// Mid price in **half-ticks** (`bid + ask` in ticks), or `None` if
    /// either side is empty: exact where the integer-tick mid truncates
    /// on odd spreads.
    pub fn mid_half_ticks(&self) -> Option<i64> {
        let b = self.best_bid()?.price.ticks();
        let a = self.best_ask()?.price.ticks();
        Some(a + b)
    }

    /// Flattens the snapshot into the fixed-layout feature vector the
    /// offload engine normalizes: for each level `i` in `0..depth`,
    /// `[ask_price_i, ask_qty_i, bid_price_i, bid_qty_i]` — the DeepLOB
    /// input layout. Missing levels are padded by extrapolating the last
    /// seen price one tick further (zero quantity), so the vector length is
    /// always `4 * depth`. Allocating wrapper over
    /// [`Self::write_features`].
    pub fn to_features(&self, depth: usize) -> Vec<f32> {
        let mut out = vec![0.0; Self::feature_count(depth)];
        self.write_features(depth, &mut out);
        out
    }

    /// Writes the `depth`-level feature vector into `out` in place — the
    /// allocation-free path the offload engine's recycled row buffers use.
    /// Layout and padding are identical to [`Self::to_features`].
    ///
    /// # Panics
    ///
    /// Panics unless `out.len() == Self::feature_count(depth)`.
    pub fn write_features(&self, depth: usize, out: &mut [f32]) {
        assert_eq!(
            out.len(),
            Self::feature_count(depth),
            "feature buffer sized for depth"
        );
        let last_ask = self.asks.last().map(|l| l.price.ticks()).unwrap_or(0);
        let last_bid = self.bids.last().map(|l| l.price.ticks()).unwrap_or(0);
        for i in 0..depth {
            let base = i * 4;
            match self.asks.get(i) {
                Some(l) => {
                    out[base] = l.price.ticks() as f32;
                    out[base + 1] = l.qty.contracts() as f32;
                }
                None => {
                    let pad = last_ask + (i as i64 - self.asks.len() as i64 + 1);
                    out[base] = pad as f32;
                    out[base + 1] = 0.0;
                }
            }
            match self.bids.get(i) {
                Some(l) => {
                    out[base + 2] = l.price.ticks() as f32;
                    out[base + 3] = l.qty.contracts() as f32;
                }
                None => {
                    let pad = last_bid - (i as i64 - self.bids.len() as i64 + 1);
                    out[base + 2] = pad as f32;
                    out[base + 3] = 0.0;
                }
            }
        }
    }

    /// Refills this snapshot with the best `depth` levels of `bids` and
    /// `asks` at `ts`, reusing its level buffers: once they have grown to
    /// `depth`, a refill never allocates. Both books' `snapshot_into`.
    #[inline]
    pub fn fill_from_ladders(
        &mut self,
        depth: usize,
        ts: Timestamp,
        bids: &PriceLadder,
        asks: &PriceLadder,
    ) {
        self.ts = ts;
        self.bids.clear();
        self.asks.clear();
        let level = |v: LevelView| SnapshotLevel {
            price: v.price,
            qty: v.qty,
        };
        bids.for_each_level(depth, |v| self.bids.push(level(v)));
        asks.for_each_level(depth, |v| self.asks.push(level(v)));
    }
}

#[cfg(test)]
impl LobSnapshot {
    /// Order-book imbalance at the top level in `[-1, 1]`
    /// (`(bid_qty - ask_qty) / (bid_qty + ask_qty)`), or 0 when empty.
    fn top_imbalance(&self) -> f64 {
        let b = self.best_bid().map_or(0.0, |l| l.qty.contracts() as f64);
        let a = self.best_ask().map_or(0.0, |l| l.qty.contracts() as f64);
        if b + a == 0.0 {
            0.0
        } else {
            (b - a) / (b + a)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn level(price: i64, qty: u64) -> SnapshotLevel {
        SnapshotLevel {
            price: Price::new(price),
            qty: Qty::new(qty),
        }
    }

    fn snap() -> LobSnapshot {
        LobSnapshot {
            ts: Timestamp::from_nanos(42),
            bids: vec![level(99, 10), level(98, 20)],
            asks: vec![level(101, 5), level(103, 7)],
        }
    }

    #[test]
    fn mid_price_and_imbalance() {
        let s = snap();
        assert_eq!(s.mid_half_ticks(), Some(200));
        let imb = s.top_imbalance();
        assert!((imb - (10.0 - 5.0) / 15.0).abs() < 1e-12);
        assert_eq!(LobSnapshot::default().mid_half_ticks(), None);
        assert_eq!(LobSnapshot::default().top_imbalance(), 0.0);
    }

    #[test]
    fn features_follow_deeplob_layout() {
        let s = snap();
        let f = s.to_features(2);
        assert_eq!(f.len(), 8);
        assert_eq!(
            f,
            vec![101.0, 5.0, 99.0, 10.0, 103.0, 7.0, 98.0, 20.0],
            "ask_p, ask_q, bid_p, bid_q per level"
        );
    }

    #[test]
    fn features_pad_missing_levels() {
        let s = snap();
        let f = s.to_features(4);
        assert_eq!(f.len(), LobSnapshot::feature_count(4));
        // Level 2 (index 2) is padded: ask extrapolates upward, bid downward,
        // both with zero quantity.
        assert_eq!(f[8], 104.0);
        assert_eq!(f[9], 0.0);
        assert_eq!(f[10], 97.0);
        assert_eq!(f[11], 0.0);
        // Level 3 pads one tick further out.
        assert_eq!(f[12], 105.0);
        assert_eq!(f[14], 96.0);
    }

    #[test]
    fn write_features_matches_to_features() {
        let s = snap();
        for depth in [0usize, 1, 2, 4, 8] {
            let mut buf = vec![123.0; LobSnapshot::feature_count(depth)];
            s.write_features(depth, &mut buf);
            assert_eq!(buf, s.to_features(depth), "depth {depth}");
        }
        let empty = LobSnapshot::default();
        let mut buf = vec![123.0; LobSnapshot::feature_count(3)];
        empty.write_features(3, &mut buf);
        assert_eq!(buf, empty.to_features(3));
    }

    #[test]
    fn feature_count_matches_paper_geometry() {
        // Ten levels x (price, qty) x 2 sides = 40 features per tick (§III-A).
        assert_eq!(LobSnapshot::feature_count(10), 40);
    }
}
