//! Functional cross-symbol batched inference.
//!
//! [`MultiSymbolTrader`] is the multi-instrument sibling of
//! [`LightTrader`](crate::system::LightTrader): each of N symbol shards
//! keeps its own [`FeatureWindow`], and each drain serves the shards with
//! a pending ticket through **one** batched forward pass through the
//! registry's prepacked weight panels (`ModelRegistry::forward_batch`) —
//! per layer, every pending symbol's window runs through a single packed
//! GEMM instead of one forward per symbol. Per-sample outputs are
//! bit-identical to serving each shard alone (pinned by the tests
//! below), so batching is purely a throughput lever.
//!
//! Like `LightTrader`, the fleet serves its newest windows: a shard holds
//! at most one pending ticket, and a warm tick that arrives before the
//! shard's ticket is drained replaces that ticket in place (counted in
//! [`MultiSymbolTrader::superseded`]). A shard's window only ever holds
//! its newest tick, so that is the one query it can answer.

use lt_dnn::{ModelKind, ModelRegistry, Prediction, Tensor};
use lt_feed::NormStats;
use lt_lob::{LobSnapshot, Timestamp};
use lt_pipeline::{FeatureWindow, ShardTicket, TensorTicket};

/// A functional multi-symbol pipeline serving cross-symbol batches.
pub struct MultiSymbolTrader {
    /// One feature window per symbol shard.
    windows: Vec<FeatureWindow>,
    /// Ticks seen per shard, warm-up included: the next ticket's id.
    ticks: Vec<u64>,
    /// Tickets awaiting a drain, oldest first, at most one per shard.
    pending: Vec<ShardTicket>,
    registry: ModelRegistry,
    active: ModelKind,
    /// Most tickets one drain coalesces into a single batched forward.
    batch_cap: usize,
    /// Reusable per-lane `[window, features]` staging tensors, one per
    /// batch slot, filled from each ticket's shard window.
    lanes: Vec<Tensor>,
    /// Reusable prediction output buffer.
    preds: Vec<Prediction>,
    inferences: u64,
    batches: u64,
    superseded: u64,
}

impl MultiSymbolTrader {
    /// Creates a trader with one shard per entry of `norms`, serving
    /// tier `kind` with deterministic tiny weights derived from `seed`.
    ///
    /// # Panics
    ///
    /// Panics when `norms` is empty or holds more shards than a `u16`
    /// indexes, or when a normalization depth does not match the model's
    /// feature width.
    pub fn new(kind: ModelKind, norms: Vec<NormStats>, seed: u64) -> Self {
        assert!(!norms.is_empty(), "need at least one shard");
        assert!(norms.len() <= u16::MAX as usize, "shard index must fit u16");
        let registry = ModelRegistry::tiny_with_kinds(&[kind], seed);
        let window = registry.max_window();
        let features = registry.model(kind).expect("just registered").features();
        let windows: Vec<FeatureWindow> = norms
            .into_iter()
            .map(|norm| FeatureWindow::new(norm, window))
            .collect();
        assert!(
            windows.iter().all(|w| w.width() == features),
            "normalization depth must match the model's feature width"
        );
        MultiSymbolTrader {
            ticks: vec![0; windows.len()],
            pending: Vec::with_capacity(windows.len()),
            windows,
            registry,
            active: kind,
            batch_cap: 16,
            lanes: Vec::new(),
            preds: Vec::new(),
            inferences: 0,
            batches: 0,
            superseded: 0,
        }
    }

    /// Caps how many tickets one drain coalesces (minimum 1).
    pub fn with_batch_cap(mut self, cap: usize) -> Self {
        self.batch_cap = cap.max(1);
        self
    }

    /// Kept only for the benchmark's callers, which pass 1; ROADMAP item
    /// 0 deletes it. Batched forwards run on the calling thread.
    ///
    /// # Panics
    ///
    /// Panics unless `threads` is 1.
    pub fn set_batch_threads(&mut self, threads: usize) {
        assert_eq!(threads, 1, "batched forwards run on the calling thread");
    }

    /// Tickets currently pending across all shards (at most one each).
    pub fn queue_len(&self) -> usize {
        self.pending.len()
    }

    /// Inferences served so far (one per batched query).
    pub fn inferences(&self) -> u64 {
        self.inferences
    }

    /// Batched forwards executed so far.
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// Pending tickets replaced, unanswered, by a newer warm tick of
    /// their shard.
    pub fn superseded(&self) -> u64 {
        self.superseded
    }

    /// Ingests one tick for `shard` arriving at `ts`, returning its
    /// ticket once the shard's window is warm. The ticket replaces the
    /// shard's pending one, if any, in its place in the drain order.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn on_tick(
        &mut self,
        shard: u16,
        snapshot: &LobSnapshot,
        ts: Timestamp,
    ) -> Option<ShardTicket> {
        let i = shard as usize;
        let warm = self.windows[i].push(snapshot);
        let tick_id = self.ticks[i];
        self.ticks[i] += 1;
        if !warm {
            return None;
        }
        let ticket = ShardTicket {
            shard,
            ticket: TensorTicket {
                tick_id,
                tick_ts: snapshot.ts,
                ready_at: ts,
            },
        };
        match self.pending.iter_mut().find(|t| t.shard == shard) {
            Some(older) => {
                *older = ticket;
                self.superseded += 1;
            }
            None => self.pending.push(ticket),
        }
        Some(ticket)
    }

    /// Drains up to the batch cap of pending tickets (oldest first across
    /// all shards) and serves them with **one** batched forward, pushing
    /// `(ticket, prediction)` pairs onto `out` (which is cleared first)
    /// in drain order. Returns the number of queries served.
    ///
    /// Steady-state drains at or below the largest batch seen are
    /// allocation-free: tickets, staging lanes, and predictions all live
    /// in recycled buffers (`lt-pipeline`'s `tests/zero_alloc.rs`).
    pub fn drain_batch(&mut self, out: &mut Vec<(ShardTicket, Prediction)>) -> usize {
        out.clear();
        let n = self.batch_cap.min(self.pending.len());
        if n == 0 {
            return 0;
        }
        let (window, width) = (self.windows[0].window(), self.windows[0].width());
        while self.lanes.len() < n {
            self.lanes.push(Tensor::zeros(&[window, width]));
        }
        for (t, lane) in self.pending[..n].iter().zip(&mut self.lanes) {
            self.windows[t.shard as usize].write_into(lane.data_mut());
        }
        self.registry
            .forward_batch(self.active, &self.lanes[..n], &mut self.preds);
        self.inferences += n as u64;
        self.batches += 1;
        out.extend(self.pending.drain(..n).zip(self.preds.iter().copied()));
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lt_feed::MultiSessionBuilder;

    fn session(symbols: usize, seed: u64) -> lt_feed::MultiMarketSession {
        MultiSessionBuilder::normal_traffic()
            .symbols(symbols)
            .duration_secs(0.3)
            .seed(seed)
            .build()
    }

    /// The cross-symbol batch is bit-identical, ticket for ticket, to
    /// running each shard through its own feature window and a plain
    /// registry forward — batching never changes an answer.
    #[test]
    fn cross_symbol_batch_matches_single_symbol_forwards() {
        let multi = session(3, 21);
        let norms: Vec<NormStats> = multi.sessions.iter().map(|s| s.norm.clone()).collect();
        let mut trader = MultiSymbolTrader::new(ModelKind::VanillaCnn, norms.clone(), 5);
        let mut reference = ModelRegistry::tiny_with_kinds(&[ModelKind::VanillaCnn], 5);
        let (window, width) = (trader.windows[0].window(), trader.windows[0].width());
        let mut singles: Vec<FeatureWindow> = norms
            .into_iter()
            .map(|n| FeatureWindow::new(n, window))
            .collect();
        let mut alone = Tensor::zeros(&[window, width]);

        let rounds = multi.sessions.iter().map(|s| s.trace.len()).min().unwrap();
        let mut out = Vec::new();
        let mut served = 0usize;
        for round in 0..rounds {
            for (shard, session) in multi.sessions.iter().enumerate() {
                let tick = &session.trace.ticks[round];
                trader.on_tick(shard as u16, &tick.snapshot, tick.ts);
                singles[shard].push(&tick.snapshot);
            }
            let n = trader.drain_batch(&mut out);
            assert_eq!(n, trader.queue_len().max(n), "drain empties the queue");
            for (ticket, prediction) in &out {
                let shard = ticket.shard as usize;
                singles[shard].write_into(alone.data_mut());
                let expect = reference.forward(ModelKind::VanillaCnn, &alone);
                assert_eq!(
                    prediction.probs.map(f32::to_bits),
                    expect.probs.map(f32::to_bits),
                    "round {round} shard {shard}"
                );
            }
            served += n;
        }
        assert!(served > 0, "session long enough to warm every shard");
        // One batched forward per non-empty drain, one inference per
        // drained query.
        assert_eq!(trader.inferences(), served as u64);
        assert!(trader.batches() < trader.inferences());
    }

    /// With more shards than the batch cap, a shard's ticket can wait
    /// while its shard ticks again. The newer tick replaces it, and every
    /// answer is its own tick's batch-1 forward, bit for bit. (This
    /// covers what `duplicate_shard_in_one_batch_panics` guarded: a
    /// drain cannot meet one shard twice.)
    #[test]
    fn a_ticket_is_answered_with_its_own_window() {
        let multi = session(2, 9);
        let norms: Vec<NormStats> = multi.sessions.iter().map(|s| s.norm.clone()).collect();
        let mut trader =
            MultiSymbolTrader::new(ModelKind::VanillaCnn, norms.clone(), 5).with_batch_cap(1);
        let mut reference = ModelRegistry::tiny_with_kinds(&[ModelKind::VanillaCnn], 5);
        let (window, width) = (trader.windows[0].window(), trader.windows[0].width());
        let mut singles: Vec<FeatureWindow> = norms
            .into_iter()
            .map(|n| FeatureWindow::new(n, window))
            .collect();
        let mut alone = Tensor::zeros(&[window, width]);
        // Per shard, the batch-1 answer of every tick id, and the ids
        // issued but not yet answered or replaced.
        let mut expected: Vec<Vec<Option<Prediction>>> = vec![Vec::new(); 2];
        let mut unanswered: Vec<Option<u64>> = vec![None; 2];
        let (mut replaced, mut answered) = (0u64, 0usize);
        let mut out = Vec::new();
        let rounds = multi.sessions.iter().map(|s| s.trace.len()).min().unwrap();
        for round in 0..rounds {
            for (shard, session) in multi.sessions.iter().enumerate() {
                let tick = &session.trace.ticks[round];
                let ticket = trader.on_tick(shard as u16, &tick.snapshot, tick.ts);
                let answer = singles[shard].push(&tick.snapshot).then(|| {
                    singles[shard].write_into(alone.data_mut());
                    reference.forward(ModelKind::VanillaCnn, &alone)
                });
                expected[shard].push(answer);
                assert_eq!(
                    ticket.map(|t| t.ticket.tick_id),
                    answer.map(|_| round as u64),
                    "a warm tick issues a ticket with its own tick id"
                );
                if let Some(t) = ticket {
                    replaced += u64::from(unanswered[shard].is_some());
                    unanswered[shard] = Some(t.ticket.tick_id);
                }
            }
            trader.drain_batch(&mut out);
            for (ticket, prediction) in &out {
                let (shard, id) = (ticket.shard as usize, ticket.ticket.tick_id);
                assert_eq!(unanswered[shard].take(), Some(id), "newest ticket served");
                let want = expected[shard][id as usize].expect("a warm tick");
                assert_eq!(
                    prediction.probs.map(f32::to_bits),
                    want.probs.map(f32::to_bits),
                    "shard {shard} tick {id} answered from another window"
                );
                answered += 1;
            }
        }
        assert!(
            answered > 20 && replaced > 0,
            "{answered} answers, {replaced} replaced"
        );
        assert_eq!(trader.superseded(), replaced);
        assert_eq!(trader.inferences(), answered as u64);
    }

    /// The batch cap bounds each drain; leftovers stay queued for the
    /// next drain rather than being dropped.
    #[test]
    fn batch_cap_bounds_each_drain() {
        let multi = session(4, 33);
        let norms: Vec<NormStats> = multi.sessions.iter().map(|s| s.norm.clone()).collect();
        let mut trader = MultiSymbolTrader::new(ModelKind::VanillaCnn, norms, 5).with_batch_cap(2);
        let rounds = multi.sessions.iter().map(|s| s.trace.len()).min().unwrap();
        let mut out = Vec::new();
        let mut saw_split = false;
        for round in 0..rounds {
            for (shard, session) in multi.sessions.iter().enumerate() {
                let tick = &session.trace.ticks[round];
                trader.on_tick(shard as u16, &tick.snapshot, tick.ts);
            }
            let queued = trader.queue_len();
            let n = trader.drain_batch(&mut out);
            assert!(n <= 2, "cap respected");
            if queued > 2 {
                saw_split = true;
                assert_eq!(trader.queue_len(), queued - n, "leftovers stay queued");
                while trader.drain_batch(&mut out) > 0 {}
            }
            assert_eq!(trader.queue_len(), 0);
        }
        assert!(saw_split, "four shards must overflow a cap of two");
    }
}
