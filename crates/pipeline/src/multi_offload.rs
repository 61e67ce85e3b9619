//! The cross-symbol offload engine: per-symbol feature shards feeding
//! one coalesced tensor queue.
//!
//! The paper's offload engine (Fig. 5) serves a single instrument. To
//! serve N symbols with one accelerator fleet, each symbol keeps its own
//! sliding [`FeatureWindow`] (its book history is independent), but every
//! warm tick enqueues into a *shared* FIFO of [`ShardTicket`]s. The
//! scheduler batches straight off that shared queue, so a single
//! accelerator batch coalesces feature rows from many symbols and the
//! per-batch fixed costs (DMA descriptor setup, kernel launch) amortize
//! across the whole fleet's traffic instead of fragmenting per symbol.
//! Tickets carry their shard index, so completions fan back out to the
//! right symbol's trading engine.
//!
//! All steady-state storage (every shard's ring, the shared queue) is
//! allocated up front; the ingest → pop path is allocation-free after
//! warm-up (`tests/zero_alloc.rs`). One shard is the paper's
//! single-instrument engine; the single-device baseline runs it so.

use crate::offload::{FeatureWindow, TensorTicket};
use crate::stages::PipelineLatencies;
use lt_feed::NormStats;
use lt_lob::{LobSnapshot, Timestamp};
use std::collections::vec_deque::{Drain, VecDeque};

/// A queued inference request tagged with the symbol shard it came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardTicket {
    /// Index of the originating symbol shard.
    pub shard: u16,
    /// The tick identity and timing of the request.
    pub ticket: TensorTicket,
}

/// Outcome counters of one symbol shard.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardCounters {
    /// Ticks dropped at admission because the shared queue was full.
    pub dropped_full: u64,
    /// Tensors dropped because their deadline lapsed while queued.
    pub dropped_stale: u64,
    /// Tensors deferred to the conventional pipeline by Algorithm 1.
    pub deferred: u64,
    /// Tensors dropped by the deadline-tier planner: no registered model
    /// tier's predicted cost fit the remaining budget.
    pub dropped_deadline: u64,
}

/// One symbol's slice of the engine: its feature window, tick counter,
/// and outcome counters.
#[derive(Debug, Clone)]
struct Shard {
    features: FeatureWindow,
    next_tick_id: u64,
    counters: ShardCounters,
}

/// The cross-symbol offload engine: N feature shards, one shared
/// coalesced ticket queue.
#[derive(Debug, Clone)]
pub struct MultiOffload {
    shards: Vec<Shard>,
    /// The shared tensor queue, FIFO across all shards.
    queue: VecDeque<ShardTicket>,
    /// Shared capacity: `capacity_per_shard × n_shards`.
    capacity: usize,
    dropped_full: u64,
    dropped_stale: u64,
}

impl MultiOffload {
    /// Creates an engine with one shard per entry of `norms`, each with
    /// the same `window`, sharing a queue of `capacity_per_shard` slots
    /// per shard. One shard is the paper's single-instrument engine.
    ///
    /// # Panics
    ///
    /// Panics if `norms` is empty, any window/stats is unusable, or
    /// `capacity_per_shard` is zero.
    pub fn new(norms: Vec<NormStats>, window: usize, capacity_per_shard: usize) -> Self {
        assert!(!norms.is_empty(), "need at least one shard");
        assert!(capacity_per_shard > 0, "capacity must be positive");
        assert!(norms.len() <= u16::MAX as usize, "shard index must fit u16");
        let capacity = capacity_per_shard * norms.len();
        MultiOffload {
            shards: norms
                .into_iter()
                .map(|norm| Shard {
                    features: FeatureWindow::new(norm, window),
                    next_tick_id: 0,
                    counters: ShardCounters::default(),
                })
                .collect(),
            queue: VecDeque::with_capacity(capacity),
            capacity,
            dropped_full: 0,
            dropped_stale: 0,
        }
    }

    /// Number of symbol shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Tensors currently queued for the DNN pipeline, across all shards.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// The oldest queued ticket across all shards, if any.
    pub fn oldest(&self) -> Option<ShardTicket> {
        self.queue.front().copied()
    }

    /// Ticks dropped because the shared queue was full (all shards).
    pub fn dropped_full(&self) -> u64 {
        self.dropped_full
    }

    /// Tensors dropped stale while queued (all shards).
    pub fn dropped_stale(&self) -> u64 {
        self.dropped_stale
    }

    /// Outcome counters of one shard.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn shard_counters(&self, shard: usize) -> ShardCounters {
        self.shards[shard].counters
    }

    /// True once `shard`'s feature ring holds a full window.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn shard_is_warm(&self, shard: usize) -> bool {
        self.shards[shard].features.is_warm()
    }

    /// The configured window length, in ticks (identical across shards).
    pub fn window(&self) -> usize {
        self.shards[0].features.window()
    }

    /// Feature columns per row (`4 × depth`, identical across shards).
    pub fn width(&self) -> usize {
        self.shards[0].features.width()
    }

    /// Writes `shard`'s current window into `out` (`window × 4·depth`
    /// floats, chronological) without allocating — the staging step of
    /// the cross-symbol batched forward: each popped [`ShardTicket`]
    /// fills one lane of a recycled batch buffer from its shard's ring.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range, the shard is not warm yet, or
    /// `out` has the wrong length.
    pub fn write_shard_window_into(&self, shard: usize, out: &mut [f32]) {
        self.shards[shard].features.write_into(out);
    }

    /// Ingests one tick for `shard` arriving at `now`: normalizes its
    /// features into the shard's FIFO and, once that window is warm,
    /// enqueues an inference request that is ready after the pipeline's
    /// ingress budget.
    ///
    /// Returns the ticket if one was enqueued (`None` while the shard is
    /// warming up or when the shared queue is full).
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn on_tick_staged(
        &mut self,
        shard: u16,
        snapshot: &LobSnapshot,
        now: Timestamp,
        stages: &PipelineLatencies,
    ) -> Option<ShardTicket> {
        let s = &mut self.shards[shard as usize];
        let warm = s.features.push(snapshot);
        let tick_id = s.next_tick_id;
        s.next_tick_id += 1;
        if !warm {
            return None;
        }
        if self.queue.len() >= self.capacity {
            s.counters.dropped_full += 1;
            self.dropped_full += 1;
            return None;
        }
        let ticket = ShardTicket {
            shard,
            ticket: TensorTicket {
                tick_id,
                tick_ts: snapshot.ts,
                ready_at: now + stages.ingress(),
            },
        };
        self.queue.push_back(ticket);
        Some(ticket)
    }

    /// Pops the oldest queued ticket, if any.
    pub fn pop_ticket(&mut self) -> Option<ShardTicket> {
        self.queue.pop_front()
    }

    /// Pops up to `batch` tickets, oldest first across all shards,
    /// appending them to `out` — the cross-symbol coalescing step.
    /// Allocation-free with a recycled caller-owned buffer.
    pub fn pop_batch_into(&mut self, batch: usize, out: &mut Vec<ShardTicket>) {
        out.extend(self.drain_front(batch));
    }

    /// The oldest `batch` tickets (fewer if fewer are queued), removed
    /// from the queue in FIFO order.
    pub(crate) fn drain_front(&mut self, batch: usize) -> Drain<'_, ShardTicket> {
        let n = batch.min(self.queue.len());
        self.queue.drain(..n)
    }

    /// Removes the oldest ticket (Algorithm 1's defer path), attributing
    /// it to its shard.
    pub fn defer_oldest(&mut self) -> Option<ShardTicket> {
        let t = self.queue.pop_front();
        if let Some(t) = t {
            self.shards[t.shard as usize].counters.deferred += 1;
        }
        t
    }

    /// Removes the oldest ticket because the deadline-tier planner found
    /// no feasible tier for it, attributing it to its shard.
    pub fn drop_oldest_deadline(&mut self) -> Option<ShardTicket> {
        let t = self.queue.pop_front();
        if let Some(t) = t {
            self.shards[t.shard as usize].counters.dropped_deadline += 1;
        }
        t
    }

    /// Drops every queued ticket whose `tick_ts + deadline` is already in
    /// the past, attributing each to its shard, and returns how many
    /// were dropped. Allocation-free.
    pub fn drop_stale(&mut self, now: Timestamp, deadline: std::time::Duration) -> u64 {
        self.drop_stale_with(now, deadline, |_| {})
    }

    /// [`Self::drop_stale`] with a per-ticket observer — the execution
    /// layer uses it to retire the order intents of dropped queries in
    /// queue order.
    pub fn drop_stale_with(
        &mut self,
        now: Timestamp,
        deadline: std::time::Duration,
        mut observe: impl FnMut(&ShardTicket),
    ) -> u64 {
        let mut dropped = 0u64;
        while let Some(front) = self.queue.front() {
            if (front.ticket.tick_ts + deadline) <= now {
                let t = self.queue.pop_front().expect("front just seen");
                self.shards[t.shard as usize].counters.dropped_stale += 1;
                observe(&t);
                dropped += 1;
            } else {
                break;
            }
        }
        self.dropped_stale += dropped;
        dropped
    }

    /// Drains every still-queued ticket as stale (end-of-session
    /// accounting), attributing each to its shard and showing it to
    /// `observe` in queue order, and returns the count.
    pub fn drain_leftover_with(&mut self, mut observe: impl FnMut(&ShardTicket)) -> u64 {
        let mut dropped = 0u64;
        while let Some(t) = self.queue.pop_front() {
            self.shards[t.shard as usize].counters.dropped_stale += 1;
            observe(&t);
            dropped += 1;
        }
        self.dropped_stale += dropped;
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::offload::tests::snap;
    use std::time::Duration;

    fn engine(shards: usize, window: usize, capacity_per_shard: usize) -> MultiOffload {
        MultiOffload::new(
            vec![NormStats::identity(1); shards],
            window,
            capacity_per_shard,
        )
    }

    /// One tick for `shard` at `ts_us` with the book centred on `mid`.
    fn tick(e: &mut MultiOffload, shard: u16, ts_us: u64, mid: i64) -> Option<ShardTicket> {
        let stages = PipelineLatencies::fpga();
        e.on_tick_staged(
            shard,
            &snap(ts_us, mid),
            Timestamp::from_micros(ts_us),
            &stages,
        )
    }

    #[test]
    fn shards_warm_independently() {
        let mut e = engine(2, 2, 8);
        // Shard 0 gets two ticks (warm), shard 1 only one (still cold).
        assert!(tick(&mut e, 0, 1, 100).is_none());
        assert!(tick(&mut e, 1, 2, 200).is_none());
        let t = tick(&mut e, 0, 3, 100).unwrap();
        assert_eq!(t.shard, 0);
        assert_eq!(t.ticket.tick_id, 1);
        assert!(tick(&mut e, 1, 4, 200).is_some());
        assert_eq!(e.queue_len(), 2);
    }

    #[test]
    fn queue_is_fifo_across_shards() {
        let mut e = engine(3, 1, 8);
        for (i, shard) in [(1u64, 2u16), (2, 0), (3, 1), (4, 2)] {
            tick(&mut e, shard, i, 100);
        }
        let mut out = Vec::new();
        e.pop_batch_into(3, &mut out);
        let shards: Vec<u16> = out.iter().map(|t| t.shard).collect();
        assert_eq!(shards, vec![2, 0, 1], "arrival order, not shard order");
        assert_eq!(e.oldest().unwrap().shard, 2);
    }

    #[test]
    fn per_shard_tick_ids_are_independent() {
        let mut e = engine(2, 1, 8);
        tick(&mut e, 0, 1, 100);
        tick(&mut e, 0, 2, 100);
        tick(&mut e, 1, 3, 100);
        let mut out = Vec::new();
        e.pop_batch_into(8, &mut out);
        assert_eq!(out[0].ticket.tick_id, 0);
        assert_eq!(out[1].ticket.tick_id, 1);
        assert_eq!(out[2].ticket.tick_id, 0, "shard 1 counts from zero");
    }

    #[test]
    fn shared_capacity_scales_with_shards_and_attributes_drops() {
        let mut e = engine(2, 1, 2); // shared capacity 4
        for i in 0..6u64 {
            tick(&mut e, (i % 2) as u16, i, 100);
        }
        assert_eq!(e.queue_len(), 4);
        assert_eq!(e.dropped_full(), 2);
        assert_eq!(e.shard_counters(0).dropped_full, 1);
        assert_eq!(e.shard_counters(1).dropped_full, 1);
    }

    #[test]
    fn stale_drops_and_defers_attribute_to_shards() {
        let mut e = engine(2, 1, 8);
        tick(&mut e, 0, 0, 100);
        tick(&mut e, 1, 10, 100);
        tick(&mut e, 0, 900, 100);
        let dropped = e.drop_stale(Timestamp::from_micros(1_200), Duration::from_millis(1));
        assert_eq!(dropped, 2);
        assert_eq!(e.shard_counters(0).dropped_stale, 1);
        assert_eq!(e.shard_counters(1).dropped_stale, 1);
        let d = e.defer_oldest().unwrap();
        assert_eq!(d.shard, 0);
        assert_eq!(e.shard_counters(0).deferred, 1);
        assert_eq!(e.queue_len(), 0);
    }

    #[test]
    fn deadline_drops_attribute_to_shards() {
        let mut e = engine(2, 1, 8);
        tick(&mut e, 1, 0, 100);
        tick(&mut e, 0, 1, 100);
        let d = e.drop_oldest_deadline().unwrap();
        assert_eq!(d.shard, 1);
        assert_eq!(e.shard_counters(1).dropped_deadline, 1);
        assert_eq!(e.shard_counters(0).dropped_deadline, 0);
        assert_eq!(e.queue_len(), 1);
        e.pop_ticket();
        assert!(e.drop_oldest_deadline().is_none());
        assert_eq!(e.shard_counters(1).dropped_deadline, 1);
    }

    #[test]
    fn drain_leftover_accounts_every_queued_ticket() {
        let mut e = engine(2, 1, 8);
        for i in 0..5u64 {
            tick(&mut e, (i % 2) as u16, i, 100);
        }
        assert_eq!(e.drain_leftover_with(|_| {}), 5);
        assert_eq!(e.dropped_stale(), 5);
        assert_eq!(
            e.shard_counters(0).dropped_stale + e.shard_counters(1).dropped_stale,
            5
        );
        assert_eq!(e.queue_len(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = MultiOffload::new(Vec::new(), 3, 4);
    }
}
