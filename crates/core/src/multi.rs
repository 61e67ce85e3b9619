//! Functional cross-symbol batched inference.
//!
//! [`MultiSymbolTrader`] is the multi-instrument sibling of
//! [`LightTrader`](crate::system::LightTrader): N symbol shards feed one
//! shared [`MultiOffload`] queue, and each drain serves the coalesced
//! cross-symbol batch with **one** batched forward pass through the
//! registry's prepacked weight panels (`ModelRegistry::forward_batch`) —
//! per layer, every queued symbol's window runs through a single packed
//! GEMM instead of one forward per symbol. Per-sample outputs are
//! bit-identical to serving each shard alone (pinned by the tests
//! below), so batching is purely a throughput lever.

use lt_dnn::{ModelKind, ModelRegistry, Prediction, Tensor};
use lt_feed::NormStats;
use lt_lob::{LobSnapshot, Timestamp};
use lt_pipeline::{MultiOffload, PipelineLatencies, ShardTicket};

/// A functional multi-symbol pipeline serving cross-symbol batches.
pub struct MultiSymbolTrader {
    offload: MultiOffload,
    registry: ModelRegistry,
    active: ModelKind,
    stages: PipelineLatencies,
    /// Most tickets one drain coalesces into a single batched forward.
    batch_cap: usize,
    /// Reusable ticket drain buffer.
    tickets: Vec<ShardTicket>,
    /// Reusable per-lane `[window, features]` staging tensors, one per
    /// batch slot, filled from each ticket's shard ring.
    lanes: Vec<Tensor>,
    /// Reusable prediction output buffer.
    preds: Vec<Prediction>,
    inferences: u64,
    batches: u64,
}

impl MultiSymbolTrader {
    /// Creates a trader with one shard per entry of `norms`, serving
    /// tier `kind` with deterministic tiny weights derived from `seed`.
    ///
    /// # Panics
    ///
    /// Panics when `norms` is empty or its normalization depth does not
    /// match the model's feature width.
    pub fn new(kind: ModelKind, norms: Vec<NormStats>, seed: u64) -> Self {
        let registry = ModelRegistry::tiny_with_kinds(&[kind], seed);
        let window = registry.max_window();
        let offload = MultiOffload::new(norms, window, 64);
        assert_eq!(
            offload.width(),
            registry.model(kind).expect("just registered").features(),
            "normalization depth must match the model's feature width"
        );
        MultiSymbolTrader {
            offload,
            registry,
            active: kind,
            stages: PipelineLatencies::fpga(),
            batch_cap: 16,
            tickets: Vec::new(),
            lanes: Vec::new(),
            preds: Vec::new(),
            inferences: 0,
            batches: 0,
        }
    }

    /// Caps how many tickets one drain coalesces (minimum 1).
    pub fn with_batch_cap(mut self, cap: usize) -> Self {
        self.batch_cap = cap.max(1);
        self
    }

    /// Sets the row-block worker count for the batched forwards (see
    /// `PackedWeights::set_threads`; `0` = auto, `1` = serial).
    pub fn set_batch_threads(&mut self, threads: usize) {
        self.registry.set_batch_threads(threads);
    }

    /// Number of symbol shards.
    pub fn n_shards(&self) -> usize {
        self.offload.n_shards()
    }

    /// Tickets currently queued across all shards.
    pub fn queue_len(&self) -> usize {
        self.offload.queue_len()
    }

    /// Inferences served so far (one per batched query).
    pub fn inferences(&self) -> u64 {
        self.inferences
    }

    /// Batched forwards executed so far.
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// Ingests one tick for `shard`, returning its ticket once the
    /// shard's window is warm and the shared queue admits it.
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
        self.offload
            .on_tick_staged(shard, snapshot, ts, &self.stages)
    }

    /// Drains up to the batch cap of queued tickets (oldest first across
    /// all shards) and serves them with **one** batched forward, pushing
    /// `(ticket, prediction)` pairs onto `out` (which is cleared first)
    /// in queue order. Returns the number of queries served.
    ///
    /// Steady-state drains at or below the largest batch seen are
    /// allocation-free: tickets, staging lanes, and predictions all live
    /// in recycled buffers.
    ///
    /// # Panics
    ///
    /// Panics when one drained batch holds two tickets from the same
    /// shard: a shard ring only retains its *current* window, so the
    /// older ticket's input no longer exists and serving the fresh
    /// window twice would silently answer a different query. Drain at
    /// least once per per-shard tick round to uphold the invariant.
    pub fn drain_batch(&mut self, out: &mut Vec<(ShardTicket, Prediction)>) -> usize {
        out.clear();
        self.tickets.clear();
        self.offload
            .pop_batch_into(self.batch_cap, &mut self.tickets);
        if self.tickets.is_empty() {
            return 0;
        }
        let (window, width) = (self.offload.window(), self.offload.width());
        while self.lanes.len() < self.tickets.len() {
            self.lanes.push(Tensor::zeros(&[window, width]));
        }
        for (i, t) in self.tickets.iter().enumerate() {
            assert!(
                self.tickets[..i].iter().all(|p| p.shard != t.shard),
                "shard {} queued twice in one batch; drain between tick rounds",
                t.shard
            );
            self.offload
                .write_shard_window_into(t.shard as usize, self.lanes[i].data_mut());
        }
        self.registry.forward_batch(
            self.active,
            &self.lanes[..self.tickets.len()],
            &mut self.preds,
        );
        self.inferences += self.preds.len() as u64;
        self.batches += 1;
        out.extend(self.tickets.iter().copied().zip(self.preds.iter().copied()));
        out.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lt_feed::MultiSessionBuilder;
    use lt_pipeline::FeatureWindow;

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
        let (window, width) = (trader.offload.window(), trader.offload.width());
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

    /// Two tickets from one shard in a single drained batch would serve
    /// a window the older query never saw — rejected loudly.
    #[test]
    #[should_panic(expected = "queued twice in one batch")]
    fn duplicate_shard_in_one_batch_panics() {
        let multi = session(1, 9);
        let norms = vec![multi.sessions[0].norm.clone()];
        let mut trader = MultiSymbolTrader::new(ModelKind::VanillaCnn, norms, 5);
        let mut out = Vec::new();
        for tick in &multi.sessions[0].trace {
            trader.on_tick(0, &tick.snapshot, tick.ts);
            if trader.queue_len() >= 2 {
                trader.drain_batch(&mut out);
                unreachable!("drain must reject the stale duplicate");
            }
        }
        panic!("trace too short to queue two tickets");
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
