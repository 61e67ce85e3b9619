//! The back-test's execution & portfolio layer.
//!
//! Until this layer existed, the back-test scored queries purely on
//! latency: an answered query was a "response" and no order ever
//! *traded*. This module closes the loop with the venue through the
//! same risk rules the functional trader runs: each shard owns a
//! [`TradingEngine`]. At every tick the engine marks the shard's
//! position to market (its kill switch watches every tick) and, when the
//! signal fires, its touch rule ([`TradingEngine::intent`]) captures an
//! [`OrderIntent`] (an IOC at the decision-time touch), recorded under
//! the tick's per-shard id. When the simulator's `OrderOut` event fires
//! for that tick's ticket — after the full tick-to-trade pipeline
//! latency — the engine's settle step ([`TradingEngine::settle`]) applies
//! the kill gate and position cap and fills the order against the book
//! *at arrival time*, under the configured fill model and fees, into the
//! engine's ledger (cash, position, realized/unrealized P&L, fees — all
//! in half-tick fixed point).
//!
//! The signal is an **oracle momentum** signal: the back-test has no
//! real DNN alpha, so the per-tick direction is precomputed from the
//! *future* mid move over a configurable horizon and then deliberately
//! corrupted to a configured accuracy. This makes adverse selection
//! measurable: an IOC priced at the decision-time touch fills when the
//! market sat still or came toward it and *misses* exactly when the
//! signal was right and the market ran — which is why the historical
//! assume-fill accounting overstates P&L (see `bench_fills`).

use crate::engine::PendingOrder;
use lt_feed::TickTrace;
use lt_lob::{FeeModel, FillModel, LobSnapshot, OrderIntent, Side, Symbol};
use lt_pipeline::{RiskLimits, TradingEngine};
use serde::{Deserialize, Serialize};

/// The oracle momentum signal's parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SignalConfig {
    /// Look-ahead horizon in same-shard ticks.
    pub horizon_ticks: usize,
    /// Minimum absolute future mid move (half-ticks) to emit a signal.
    pub threshold_half: i64,
    /// Signal accuracy in per-mille: a correct direction is kept with
    /// probability `accuracy_pm / 1000`, flipped otherwise. 1000 is
    /// perfect foresight, 500 a coin toss.
    pub accuracy_pm: u32,
    /// Seed of the deterministic corruption hash.
    pub seed: u64,
}

impl Default for SignalConfig {
    fn default() -> Self {
        SignalConfig {
            horizon_ticks: 100,
            threshold_half: 2,
            accuracy_pm: 800,
            seed: 1,
        }
    }
}

/// Configuration of the execution & portfolio layer. Disabled by
/// default: a config predating the field behaves bit-identically, and
/// even the *enabled* layer pushes no events and touches no scheduling
/// state, so the latency/outcome surface stays byte-identical either
/// way (gated by the assume-fill golden differential test).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExecutionConfig {
    /// Master switch; `false` skips the layer entirely.
    pub enabled: bool,
    /// How arriving orders fill: `AssumeFill` reproduces the historical
    /// fiction (full quantity at the decision-time limit), `SweepVisible`
    /// is the venue-side taker sweep of the arrival-time book.
    pub fill_model: FillModel,
    /// Contracts per order (the touch rule's size).
    pub order_qty: u64,
    /// Widest spread, in ticks, the touch rule trades into.
    pub max_spread_ticks: i64,
    /// Absolute net-position cap in contracts, checked at arrival.
    pub max_position: i64,
    /// The oracle momentum signal.
    pub signal: SignalConfig,
    /// Venue fee schedule.
    pub fees: FeeModel,
    /// Kill-switch loss floor in whole ticks (`None` = no kill switch).
    pub kill_floor_ticks: Option<i64>,
}

impl Default for ExecutionConfig {
    fn default() -> Self {
        // The functional trader's default limits.
        let limits = RiskLimits::default();
        ExecutionConfig {
            enabled: false,
            fill_model: FillModel::SweepVisible,
            order_qty: limits.order_qty,
            max_spread_ticks: limits.max_spread_ticks,
            max_position: limits.max_position,
            signal: SignalConfig::default(),
            fees: FeeModel::zero(),
            kill_floor_ticks: None,
        }
    }
}

impl ExecutionConfig {
    /// The enabled layer with realistic (sweep) fills.
    pub fn realistic() -> Self {
        ExecutionConfig {
            enabled: true,
            ..Self::default()
        }
    }

    /// The enabled layer with assume-fill settlement — the differential
    /// baseline that reproduces the pre-execution-layer accounting.
    pub fn assume_fill() -> Self {
        ExecutionConfig {
            enabled: true,
            fill_model: FillModel::AssumeFill,
            ..Self::default()
        }
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on a zero horizon, an accuracy above 1000 ‰, a zero order
    /// quantity, negative fees, or a negative signal threshold.
    pub fn validate(&self) {
        if !self.enabled {
            return;
        }
        assert!(
            self.signal.horizon_ticks > 0,
            "signal horizon must be positive"
        );
        assert!(
            self.signal.accuracy_pm <= 1000,
            "signal accuracy is per-mille (<= 1000)"
        );
        assert!(
            self.signal.threshold_half >= 0,
            "signal threshold must be non-negative"
        );
        assert!(self.order_qty > 0, "order quantity must be positive");
        assert!(
            self.fees.per_contract_half >= 0 && self.fees.per_order_half >= 0,
            "fees must be non-negative"
        );
    }
}

/// Aggregated execution outcomes (all-integer, so per-shard stats merge
/// exactly and per-symbol breakdowns tile the aggregate bit for bit).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecutionStats {
    /// Orders that reached the venue boundary and passed the risk gates.
    pub orders_sent: u64,
    /// Orders that filled their full quantity.
    pub filled: u64,
    /// Orders that filled partially (IOC remainder cancelled).
    pub partial: u64,
    /// Orders that missed entirely (book ran away from the stale limit).
    pub missed: u64,
    /// Orders suppressed at arrival by a risk gate (kill switch tripped
    /// or position cap); never sent, so outside the fill tiling.
    pub suppressed: u64,
    /// Total contracts filled across all orders.
    pub contracts_filled: u64,
    /// Fees paid, half-ticks.
    pub fees_half: i64,
    /// Execution-price shortfall vs the limit, half-ticks (negative =
    /// price improvement; see [`lt_lob::Fill::slippage_half`]).
    pub slippage_half: i64,
    /// Final net position, contracts.
    pub position: i64,
    /// Final cash net of fees, half-ticks.
    pub cash_half: i64,
    /// Final equity (cash + inventory at the last mid), half-ticks.
    pub equity_half: i64,
    /// Realized P&L net of fees, half-ticks.
    pub realized_half: i64,
    /// Unrealized P&L of the open position at the last mid, half-ticks.
    pub unrealized_half: i64,
}

impl ExecutionStats {
    /// Merges another tally into this one (valuation fields are additive
    /// across shards: each shard's equity is priced at its own mid).
    pub fn merge(&mut self, other: &ExecutionStats) {
        self.orders_sent += other.orders_sent;
        self.filled += other.filled;
        self.partial += other.partial;
        self.missed += other.missed;
        self.suppressed += other.suppressed;
        self.contracts_filled += other.contracts_filled;
        self.fees_half += other.fees_half;
        self.slippage_half += other.slippage_half;
        self.position += other.position;
        self.cash_half += other.cash_half;
        self.equity_half += other.equity_half;
        self.realized_half += other.realized_half;
        self.unrealized_half += other.unrealized_half;
    }

    /// Panics unless fill outcomes tile the sent orders exactly:
    /// `filled + partial + missed == orders_sent`.
    pub fn assert_tiles(&self) {
        assert_eq!(
            self.filled + self.partial + self.missed,
            self.orders_sent,
            "fill outcomes must tile orders sent: {self:?}"
        );
    }
}

/// SplitMix64-style avalanche over `(tick index, seed)` — the
/// deterministic coin behind signal corruption.
fn corrupt_hash(tick: u64, seed: u64) -> u64 {
    let mut x = tick
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(seed ^ 0x2545_F491_4F6C_DD1D);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

/// Precomputes the per-tick oracle momentum direction for `trace`:
/// `+1` buy, `-1` sell, `0` hold, indexed by trace position. The future
/// mid move is measured within the tick's own shard (`tick_shards` maps
/// trace position to shard; empty means everything is shard 0), then
/// corrupted per [`SignalConfig::accuracy_pm`] with a deterministic
/// hash, so the same `(trace, config)` always yields the same signals.
pub fn precompute_signals(
    trace: &TickTrace,
    tick_shards: &[u16],
    n_shards: usize,
    cfg: &SignalConfig,
) -> Vec<i8> {
    let n = trace.ticks.len();
    let mut per_shard: Vec<Vec<(usize, i64)>> = vec![Vec::new(); n_shards.max(1)];
    for (i, tick) in trace.ticks.iter().enumerate() {
        let shard = if tick_shards.is_empty() {
            0
        } else {
            tick_shards[i] as usize
        };
        if let Some(mid) = tick.snapshot.mid_half_ticks() {
            per_shard[shard].push((i, mid));
        }
    }
    let mut dirs = vec![0i8; n];
    for rows in &per_shard {
        for (k, &(i, mid)) in rows.iter().enumerate() {
            let Some(&(_, future)) = rows.get(k + cfg.horizon_ticks) else {
                continue;
            };
            let diff = future - mid;
            let dir: i8 = if diff >= cfg.threshold_half {
                1
            } else if diff <= -cfg.threshold_half {
                -1
            } else {
                0
            };
            if dir == 0 {
                continue;
            }
            let keep = corrupt_hash(i as u64, cfg.seed) % 1000 < u64::from(cfg.accuracy_pm);
            dirs[i] = if keep { dir } else { -dir };
        }
    }
    dirs
}

/// Per-shard execution state: the venue-side view of one instrument.
struct ShardExec {
    /// The shard's risk gates and ledger.
    engine: TradingEngine,
    /// The book state at-or-before order arrival (the simulator delivers
    /// `OrderOut` before the same-instant tick, so the snapshot captured
    /// on the previous tick IS the arrival-time book).
    last_snap: LobSnapshot,
    /// The decision of every tick so far, indexed by the shard's tick id
    /// (`None`: the strategy held).
    decided: Vec<Option<OrderIntent>>,
    stats: ExecutionStats,
}

/// Runtime state of the execution layer: per-shard trading engines and
/// the decisions their orders settle.
pub(crate) struct ExecState {
    fill_model: FillModel,
    fees: FeeModel,
    /// Precomputed per-tick signal directions, indexed by trace position.
    signals: Vec<i8>,
    shards: Vec<ShardExec>,
}

impl ExecState {
    pub(crate) fn new(cfg: &ExecutionConfig, n_shards: usize, signals: Vec<i8>) -> Self {
        // The oracle signal carries no confidence, so the confidence gate
        // keeps its default: the back-test never reaches it.
        let limits = RiskLimits {
            order_qty: cfg.order_qty,
            max_spread_ticks: cfg.max_spread_ticks,
            max_position: cfg.max_position,
            ..RiskLimits::default()
        };
        ExecState {
            fill_model: cfg.fill_model,
            fees: cfg.fees,
            signals,
            shards: (0..n_shards.max(1))
                .map(|_| ShardExec {
                    // The symbol stamps order messages only, and the
                    // back-test builds none.
                    engine: TradingEngine::new(Symbol::new("ESU6"), limits)
                        .with_gates(None, cfg.kill_floor_ticks),
                    last_snap: LobSnapshot::default(),
                    decided: Vec::new(),
                    stats: ExecutionStats::default(),
                })
                .collect(),
        }
    }

    /// Handles one arriving tick for `shard`: refreshes the venue-side
    /// book view, marks the position to market (the kill switch observes
    /// P&L on *every* tick, orders in flight or not), and records the
    /// tick's decision under its per-shard tick id: the touch rule's
    /// intent when the signal fires on a tradeable book, else `None`.
    pub(crate) fn on_tick(&mut self, shard: usize, tick_index: usize, snap: &LobSnapshot) {
        let s = &mut self.shards[shard];
        s.last_snap.ts = snap.ts;
        s.last_snap.bids.clone_from(&snap.bids);
        s.last_snap.asks.clone_from(&snap.asks);
        s.engine.mark(snap);
        let side = match self.signals.get(tick_index).copied().unwrap_or(0) {
            0 => None,
            dir if dir > 0 => Some(Side::Bid),
            _ => Some(Side::Ask),
        };
        s.decided
            .push(side.and_then(|side| s.engine.intent(side, snap).ok()));
    }

    /// Settles one wired-out order against the arrival-time book. Both
    /// in-time and late orders trade — a late order still went out on
    /// the wire; it just finds a book that moved even further.
    pub(crate) fn settle_order(&mut self, order: &PendingOrder) {
        let s = &mut self.shards[order.shard as usize];
        let Some(intent) = s.decided[order.tick_id as usize] else {
            return;
        };
        let Ok(fill) = s
            .engine
            .settle(intent, &s.last_snap, self.fill_model, &self.fees)
        else {
            return;
        };
        if fill.filled == intent.qty {
            s.stats.filled += 1;
        } else if fill.filled.is_zero() {
            s.stats.missed += 1;
        } else {
            s.stats.partial += 1;
        }
        s.stats.contracts_filled += fill.filled.contracts();
        s.stats.fees_half += fill.fee_half;
        s.stats.slippage_half += fill.slippage_half;
    }

    /// Freezes the engines' counts and final valuation into every
    /// shard's stats (inventory priced at the shard's last observed mid)
    /// and returns them in shard order.
    pub(crate) fn finalize(&mut self) -> impl Iterator<Item = ExecutionStats> + '_ {
        for s in &mut self.shards {
            let mid = s.last_snap.mid_half_ticks().unwrap_or(0);
            let ledger = s.engine.portfolio();
            s.stats.orders_sent = s.engine.orders_sent();
            s.stats.suppressed = s.engine.suppressed();
            s.stats.position = ledger.position();
            s.stats.cash_half = ledger.cash_half();
            s.stats.equity_half = ledger.equity_half(mid);
            s.stats.realized_half = ledger.realized_half();
            s.stats.unrealized_half = ledger.unrealized_half(mid);
            debug_assert_eq!(s.stats.fees_half, ledger.fees_half());
            s.stats.assert_tiles();
        }
        self.shards.iter().map(|s| s.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lt_feed::{HawkesParams, SessionBuilder};

    #[test]
    fn disabled_config_validates_anything() {
        let mut cfg = ExecutionConfig::default();
        cfg.signal.horizon_ticks = 0; // invalid if enabled
        cfg.validate(); // disabled: not checked
    }

    #[test]
    #[should_panic(expected = "horizon must be positive")]
    fn enabled_config_rejects_zero_horizon() {
        let mut cfg = ExecutionConfig::realistic();
        cfg.signal.horizon_ticks = 0;
        cfg.validate();
    }

    #[test]
    fn signals_are_deterministic_and_bounded() {
        let trace = SessionBuilder::new(HawkesParams::new(200.0, 30.0, 100.0))
            .duration_secs(1.0)
            .seed(9)
            .build()
            .trace;
        let cfg = SignalConfig::default();
        let a = precompute_signals(&trace, &[], 1, &cfg);
        let b = precompute_signals(&trace, &[], 1, &cfg);
        assert_eq!(a, b, "same trace + config => same signals");
        assert_eq!(a.len(), trace.ticks.len());
        assert!(a.iter().all(|d| (-1..=1).contains(d)));
        // The last `horizon` ticks have no future mid: always hold.
        assert!(a
            .iter()
            .rev()
            .take(cfg.horizon_ticks.min(a.len()))
            .all(|&d| d == 0));
    }

    #[test]
    fn perfect_signal_points_at_the_future_move() {
        let trace = SessionBuilder::new(HawkesParams::new(200.0, 30.0, 100.0))
            .duration_secs(1.0)
            .seed(5)
            .build()
            .trace;
        let cfg = SignalConfig {
            accuracy_pm: 1000,
            ..SignalConfig::default()
        };
        let dirs = precompute_signals(&trace, &[], 1, &cfg);
        let mids: Vec<Option<i64>> = trace
            .ticks
            .iter()
            .map(|t| t.snapshot.mid_half_ticks())
            .collect();
        let idx: Vec<usize> = (0..trace.ticks.len())
            .filter(|&i| mids[i].is_some())
            .collect();
        let mut checked = 0;
        for (k, &i) in idx.iter().enumerate() {
            if dirs[i] == 0 {
                continue;
            }
            let Some(&j) = idx.get(k + cfg.horizon_ticks) else {
                continue;
            };
            let diff = mids[j].unwrap() - mids[i].unwrap();
            assert!(
                (dirs[i] > 0) == (diff > 0),
                "perfect signal disagrees with the future at tick {i}"
            );
            checked += 1;
        }
        assert!(checked > 0, "trace produced no signals at all");
    }

    #[test]
    fn stats_merge_and_tile() {
        let mut a = ExecutionStats {
            orders_sent: 3,
            filled: 1,
            partial: 1,
            missed: 1,
            contracts_filled: 4,
            fees_half: 5,
            ..ExecutionStats::default()
        };
        let b = ExecutionStats {
            orders_sent: 2,
            filled: 2,
            equity_half: -7,
            ..ExecutionStats::default()
        };
        a.assert_tiles();
        b.assert_tiles();
        a.merge(&b);
        assert_eq!(a.orders_sent, 5);
        assert_eq!(a.filled, 3);
        assert_eq!(a.equity_half, -7);
        a.assert_tiles();
        assert_eq!(a.partial, 1);
    }

    #[test]
    #[should_panic(expected = "must tile")]
    fn broken_tiling_is_caught() {
        let s = ExecutionStats {
            orders_sent: 2,
            filled: 1,
            ..ExecutionStats::default()
        };
        s.assert_tiles();
    }
}
