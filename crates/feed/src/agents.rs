//! Zero-intelligence agent order flow.
//!
//! Each tick arrival produced by the Hawkes process is realized as one
//! order action against a real matching engine: mostly passive limit
//! orders near the touch, a fraction of cancels/replaces of resting
//! orders, and a fraction of aggressive marketable orders that consume
//! liquidity and print trades. The resulting LOB evolution has realistic
//! structure (non-degenerate spread, depth imbalances, trade clustering)
//! without modeling strategic behaviour — the standard zero-intelligence
//! market-microstructure setup.

use lt_lob::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Tuning knobs of the agent flow.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AgentParams {
    /// Probability an action is an aggressive (marketable) order.
    pub p_market: f64,
    /// Probability an action cancels a random resting order.
    pub p_cancel: f64,
    /// Maximum distance (ticks) from the touch for passive orders.
    pub max_depth_ticks: i64,
    /// Largest order size in contracts (uniform in `1..=max_qty`).
    pub max_qty: u64,
    /// Price around which the book is seeded at start.
    pub initial_mid: Price,
    /// Quantity placed per level when seeding the book.
    pub seed_qty: Qty,
    /// Levels per side seeded at start.
    pub seed_levels: i64,
}

impl Default for AgentParams {
    fn default() -> Self {
        AgentParams {
            p_market: 0.12,
            p_cancel: 0.25,
            max_depth_ticks: 12,
            max_qty: 10,
            // E-mini S&P 500 around 4500.00 points = 18_000 quarter-ticks.
            initial_mid: Price::new(18_000),
            seed_qty: Qty::new(25),
            seed_levels: 10,
        }
    }
}

/// Generates order flow and applies it to an owned matching engine.
#[derive(Debug, Clone)]
pub struct AgentFlow {
    params: AgentParams,
    engine: MatchingEngine,
    rng: StdRng,
    next_id: u64,
    /// Resting ids the agents may cancel. Lazily pruned.
    live_orders: Vec<OrderId>,
}

impl AgentFlow {
    /// Creates a flow over a freshly seeded book.
    pub fn new(symbol: Symbol, params: AgentParams, seed: u64) -> Self {
        let mut flow = AgentFlow {
            params,
            engine: MatchingEngine::new(symbol),
            rng: StdRng::seed_from_u64(seed),
            next_id: 1,
            live_orders: Vec::new(),
        };
        flow.seed_book();
        flow
    }

    /// The engine (and thus the current book).
    pub fn engine(&self) -> &MatchingEngine {
        &self.engine
    }

    fn seed_book(&mut self) {
        let mid = self.params.initial_mid;
        for lvl in 1..=self.params.seed_levels {
            for (side, price) in [(Side::Bid, mid - lvl), (Side::Ask, mid + lvl)] {
                let id = self.alloc_id();
                let out = self.engine.submit(
                    NewOrder::limit(id, side, price, self.params.seed_qty),
                    Timestamp::ZERO,
                );
                debug_assert!(!out.report.is_rejected());
                self.live_orders.push(id);
            }
        }
    }

    fn alloc_id(&mut self) -> OrderId {
        let id = OrderId::new(self.next_id);
        self.next_id += 1;
        id
    }

    /// Executes one random action at `ts`, returning the emitted market
    /// events (at least one for any non-rejected action).
    pub fn step(&mut self, ts: Timestamp) -> Vec<MarketEvent> {
        let roll: f64 = self.rng.gen();
        let events = if roll < self.params.p_cancel && !self.live_orders.is_empty() {
            self.cancel_random(ts)
        } else if roll < self.params.p_cancel + self.params.p_market {
            self.aggressive_order(ts)
        } else {
            self.passive_order(ts)
        };
        if events.is_empty() {
            // The action degenerated (e.g. stale cancel). Fall back to a
            // passive add so every tick changes the book.
            self.passive_order(ts)
        } else {
            events
        }
    }

    fn cancel_random(&mut self, ts: Timestamp) -> Vec<MarketEvent> {
        // Prune stale ids opportunistically.
        while !self.live_orders.is_empty() {
            let idx = self.rng.gen_range(0..self.live_orders.len());
            let id = self.live_orders.swap_remove(idx);
            if self.engine.book().contains(id) {
                return self.engine.cancel(id, ts).events;
            }
        }
        Vec::new()
    }

    fn passive_order(&mut self, ts: Timestamp) -> Vec<MarketEvent> {
        let side = if self.rng.gen::<bool>() {
            Side::Bid
        } else {
            Side::Ask
        };
        let depth = self.rng.gen_range(1..=self.params.max_depth_ticks);
        let reference = match side {
            Side::Bid => self
                .engine
                .book()
                .best_ask()
                .unwrap_or(self.params.initial_mid),
            Side::Ask => self
                .engine
                .book()
                .best_bid()
                .unwrap_or(self.params.initial_mid),
        };
        let price = match side {
            Side::Bid => reference - depth,
            Side::Ask => reference + depth,
        };
        let qty = Qty::new(self.rng.gen_range(1..=self.params.max_qty));
        let id = self.alloc_id();
        let out = self
            .engine
            .submit(NewOrder::limit(id, side, price, qty), ts);
        if matches!(out.report, ExecutionReport::Resting { .. }) {
            self.live_orders.push(id);
        }
        out.events
    }

    fn aggressive_order(&mut self, ts: Timestamp) -> Vec<MarketEvent> {
        let side = if self.rng.gen::<bool>() {
            Side::Bid
        } else {
            Side::Ask
        };
        let touch = match side {
            Side::Bid => self.engine.book().best_ask(),
            Side::Ask => self.engine.book().best_bid(),
        };
        let Some(touch) = touch else {
            return self.passive_order(ts);
        };
        let qty = Qty::new(self.rng.gen_range(1..=self.params.max_qty));
        let id = self.alloc_id();
        // IOC at the touch: consumes top-of-book liquidity, never rests.
        self.engine
            .submit(NewOrder::ioc(id, side, touch, qty), ts)
            .events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow(seed: u64) -> AgentFlow {
        AgentFlow::new(Symbol::new("ESU6"), AgentParams::default(), seed)
    }

    #[test]
    fn seeded_book_is_two_sided() {
        let f = flow(1);
        let book = f.engine().book();
        assert!(book.best_bid().is_some());
        assert!(book.best_ask().is_some());
        assert!(!book.is_crossed());
        assert_eq!(book.best_ask().unwrap() - book.best_bid().unwrap(), 2);
    }

    #[test]
    fn every_step_emits_events() {
        let mut f = flow(2);
        for i in 0..2_000u64 {
            let events = f.step(Timestamp::from_micros(i));
            assert!(!events.is_empty(), "step {i} emitted nothing");
        }
        assert!(!f.engine().book().is_crossed());
    }

    #[test]
    fn flow_produces_trades_and_book_changes() {
        let mut f = flow(3);
        let mut trades = 0;
        let mut book_changes = 0;
        for i in 0..5_000u64 {
            for e in f.step(Timestamp::from_micros(i)) {
                if matches!(e.kind, lt_lob::events::MarketEventKind::Trade(_)) {
                    trades += 1;
                } else {
                    book_changes += 1;
                }
            }
        }
        assert!(trades > 50, "only {trades} trades");
        assert!(book_changes > 1_000);
    }

    #[test]
    fn deterministic_under_seed() {
        let run = |seed| {
            let mut f = flow(seed);
            let mut all = Vec::new();
            for i in 0..500u64 {
                all.extend(f.step(Timestamp::from_micros(i)));
            }
            all
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn book_stays_populated_over_long_run() {
        let mut f = flow(4);
        for i in 0..20_000u64 {
            f.step(Timestamp::from_micros(i));
        }
        let book = f.engine().book();
        assert!(book.best_bid().is_some(), "bid side drained");
        assert!(book.best_ask().is_some(), "ask side drained");
        // Price should not have wandered absurdly far from the seed mid.
        let mid = (book.best_bid().unwrap().ticks() + book.best_ask().unwrap().ticks()) / 2;
        assert!((mid - 18_000).abs() < 4_000, "mid drifted to {mid}");
    }
}
