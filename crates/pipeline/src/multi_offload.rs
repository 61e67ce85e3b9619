//! The back-test's ticket queue, and the benchmark's cross-symbol
//! offload view over it.
//!
//! The paper's offload engine (Fig. 5) stages feature windows for the
//! accelerators and queues tickets so Algorithms 1 and 2 can batch, defer
//! and drop stale work. The simulator needs only the queueing, so
//! [`TicketQueue`] is that alone: one *shared* FIFO of [`ShardTicket`]s
//! across N ≥ 1 symbol shards, so one accelerator batch coalesces queries
//! from many symbols, and one [`ShardCounters`] per shard (its tick count,
//! warm-up included, and every way a ticket leaves the queue unserved).
//! The counters are the only copy of those counts: the back-test reads
//! them into its ledger's per-shard rows once, at run end, and the
//! queue-wide getters are their sums. Tickets carry their shard index,
//! so completions fan back out to the right symbol. All storage is
//! allocated up front; intake → pop allocates nothing
//! (`tests/zero_alloc.rs`).

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

/// One symbol shard's tick count and outcome counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardCounters {
    /// Ticks the shard has taken, warm-up included: the next tick's id.
    pub ticks: u64,
    /// Ticks dropped at admission because the shared queue was full.
    pub dropped_full: u64,
    /// Tickets dropped because their deadline lapsed while queued.
    pub dropped_stale: u64,
    /// Tickets deferred to the conventional pipeline by Algorithm 1.
    pub deferred: u64,
    /// Tickets dropped by the deadline-tier planner: no registered model
    /// tier's predicted cost fit the remaining budget.
    pub dropped_deadline: u64,
}

/// The back-test's ticket queue: N symbol shards, one shared FIFO.
#[derive(Debug, Clone)]
pub struct TicketQueue {
    shards: Vec<ShardCounters>,
    /// Ticks a shard takes to warm up: its first ticket is tick
    /// `window - 1`, the first with a full window behind it.
    window: usize,
    /// The shared ticket FIFO, across all shards.
    queue: VecDeque<ShardTicket>,
    /// Shared capacity: `capacity_per_shard × shards`.
    capacity: usize,
}

impl TicketQueue {
    /// Creates a queue of `shards` shards, each warming up over `window`
    /// ticks, sharing `capacity_per_shard` slots per shard.
    ///
    /// # Panics
    ///
    /// Panics if `shards`, `window` or `capacity_per_shard` is zero, or
    /// `shards` does not fit a `u16` index.
    pub fn new(shards: usize, window: usize, capacity_per_shard: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        assert!(window > 0, "window must be positive");
        assert!(capacity_per_shard > 0, "capacity must be positive");
        assert!(shards <= u16::MAX as usize, "shard index must fit u16");
        let capacity = capacity_per_shard * shards;
        TicketQueue {
            shards: vec![ShardCounters::default(); shards],
            window,
            queue: VecDeque::with_capacity(capacity),
            capacity,
        }
    }

    /// Counts one tick for `shard`, stamped `tick_ts` by the exchange and
    /// ready for the accelerators at `ready_at`, and once the shard is
    /// warm enqueues its ticket.
    ///
    /// Returns the ticket if one was enqueued (`None` while the shard is
    /// warming up or when the shared queue is full).
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn on_tick(
        &mut self,
        shard: u16,
        tick_ts: Timestamp,
        ready_at: Timestamp,
    ) -> Option<ShardTicket> {
        let s = &mut self.shards[shard as usize];
        let tick_id = s.ticks;
        s.ticks += 1;
        if tick_id + 1 < self.window as u64 {
            return None;
        }
        if self.queue.len() >= self.capacity {
            s.dropped_full += 1;
            return None;
        }
        let ticket = ShardTicket {
            shard,
            ticket: TensorTicket {
                tick_id,
                tick_ts,
                ready_at,
            },
        };
        self.queue.push_back(ticket);
        Some(ticket)
    }

    /// Tickets currently queued, across all shards.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// The oldest queued ticket across all shards, if any.
    pub fn oldest(&self) -> Option<ShardTicket> {
        self.queue.front().copied()
    }

    /// Ticks dropped because the shared queue was full (all shards).
    pub fn dropped_full(&self) -> u64 {
        self.shards.iter().map(|s| s.dropped_full).sum()
    }

    /// Tickets dropped stale while queued (all shards).
    pub fn dropped_stale(&self) -> u64 {
        self.shards.iter().map(|s| s.dropped_stale).sum()
    }

    /// Every shard's tick count and outcome counters, in shard order.
    pub fn shard_counters(&self) -> &[ShardCounters] {
        &self.shards
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
            self.shards[t.shard as usize].deferred += 1;
        }
        t
    }

    /// Removes the oldest ticket because the deadline-tier planner found
    /// no feasible tier for it, attributing it to its shard.
    pub fn drop_oldest_deadline(&mut self) -> Option<ShardTicket> {
        let t = self.queue.pop_front();
        if let Some(t) = t {
            self.shards[t.shard as usize].dropped_deadline += 1;
        }
        t
    }

    /// Drops every queued ticket whose `tick_ts + deadline` is already in
    /// the past, attributing each to its shard. Allocation-free.
    pub fn drop_stale(&mut self, now: Timestamp, deadline: std::time::Duration) {
        while let Some(front) = self.queue.front() {
            if front.ticket.tick_ts + deadline > now {
                break;
            }
            let t = self.queue.pop_front().expect("front just seen");
            self.shards[t.shard as usize].dropped_stale += 1;
        }
    }

    /// Drains every still-queued ticket as stale (end-of-session
    /// accounting), attributing each to its shard.
    pub fn drain_leftover(&mut self) {
        while let Some(t) = self.queue.pop_front() {
            self.shards[t.shard as usize].dropped_stale += 1;
        }
    }
}

/// The cross-symbol offload engine: one [`FeatureWindow`] per shard in
/// front of a [`TicketQueue`]. Kept only because the benchmark's shadow
/// batch path and the zero-alloc gates name it; no library code uses it.
#[derive(Debug, Clone)]
pub struct MultiOffload {
    windows: Vec<FeatureWindow>,
    queue: TicketQueue,
}

impl MultiOffload {
    /// One window per entry of `norms` in front of a [`TicketQueue`] of
    /// `capacity_per_shard` slots per shard; panics as that queue does.
    pub fn new(norms: Vec<NormStats>, window: usize, capacity_per_shard: usize) -> Self {
        MultiOffload {
            queue: TicketQueue::new(norms.len(), window, capacity_per_shard),
            windows: norms
                .into_iter()
                .map(|norm| FeatureWindow::new(norm, window))
                .collect(),
        }
    }

    /// The configured window length, in ticks (identical across shards).
    pub fn window(&self) -> usize {
        self.windows[0].window()
    }

    /// Feature columns per row (`4 × depth`, identical across shards).
    pub fn width(&self) -> usize {
        self.windows[0].width()
    }

    /// Writes `shard`'s current window into `out`, which must be one
    /// window long.
    pub fn write_shard_window_into(&self, shard: usize, out: &mut [f32]) {
        assert_eq!(
            out.len(),
            self.window() * self.width(),
            "window buffer size"
        );
        self.windows[shard].write_newest_rows_into(out);
    }

    /// Stages one tick for `shard` arriving at `now` into its window and
    /// hands it to the queue, ready after the pipeline's ingress budget.
    pub fn on_tick_staged(
        &mut self,
        shard: u16,
        snapshot: &LobSnapshot,
        now: Timestamp,
        stages: &PipelineLatencies,
    ) -> Option<ShardTicket> {
        self.windows[shard as usize].push(snapshot);
        self.queue
            .on_tick(shard, snapshot.ts, now + stages.ingress())
    }

    /// As [`TicketQueue::pop_batch_into`].
    pub fn pop_batch_into(&mut self, batch: usize, out: &mut Vec<ShardTicket>) {
        self.queue.pop_batch_into(batch, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::offload::tests::snap;
    use crate::offload::OffloadEngine;
    use std::time::Duration;

    /// One tick for `shard` stamped and arriving at `ts_us`.
    fn tick(q: &mut TicketQueue, shard: u16, ts_us: u64) -> Option<ShardTicket> {
        let ts = Timestamp::from_micros(ts_us);
        q.on_tick(shard, ts, ts + PipelineLatencies::fpga().ingress())
    }

    #[test]
    fn shards_warm_independently() {
        let mut q = TicketQueue::new(2, 2, 8);
        // Shard 0 gets two ticks (warm), shard 1 only one (still cold).
        assert!(tick(&mut q, 0, 1).is_none());
        assert!(tick(&mut q, 1, 2).is_none());
        let t = tick(&mut q, 0, 3).unwrap();
        assert_eq!(t.shard, 0);
        assert_eq!(t.ticket.tick_id, 1);
        assert!(tick(&mut q, 1, 4).is_some());
        assert_eq!(q.queue_len(), 2);
    }

    #[test]
    fn queue_is_fifo_across_shards() {
        let mut q = TicketQueue::new(3, 1, 8);
        for (i, shard) in [(1u64, 2u16), (2, 0), (3, 1), (4, 2)] {
            tick(&mut q, shard, i);
        }
        let mut out = Vec::new();
        q.pop_batch_into(3, &mut out);
        let shards: Vec<u16> = out.iter().map(|t| t.shard).collect();
        assert_eq!(shards, vec![2, 0, 1], "arrival order, not shard order");
        assert_eq!(q.oldest().unwrap().shard, 2);
    }

    #[test]
    fn per_shard_tick_ids_are_independent() {
        let mut q = TicketQueue::new(2, 1, 8);
        tick(&mut q, 0, 1);
        tick(&mut q, 0, 2);
        tick(&mut q, 1, 3);
        let mut out = Vec::new();
        q.pop_batch_into(8, &mut out);
        assert_eq!(out[0].ticket.tick_id, 0);
        assert_eq!(out[1].ticket.tick_id, 1);
        assert_eq!(out[2].ticket.tick_id, 0, "shard 1 counts from zero");
    }

    #[test]
    fn shared_capacity_scales_with_shards_and_attributes_drops() {
        let mut q = TicketQueue::new(2, 1, 2); // shared capacity 4
        for i in 0..6u64 {
            tick(&mut q, (i % 2) as u16, i);
        }
        assert_eq!(q.queue_len(), 4);
        assert_eq!(q.dropped_full(), 2);
        assert_eq!(q.shard_counters()[0].dropped_full, 1);
        assert_eq!(q.shard_counters()[1].dropped_full, 1);
        assert_eq!(q.shard_counters()[0].ticks, 3);
    }

    #[test]
    fn stale_drops_and_defers_attribute_to_shards() {
        let mut q = TicketQueue::new(2, 1, 8);
        tick(&mut q, 0, 0);
        tick(&mut q, 1, 10);
        tick(&mut q, 0, 900);
        q.drop_stale(Timestamp::from_micros(1_200), Duration::from_millis(1));
        assert_eq!(q.dropped_stale(), 2);
        assert_eq!(q.shard_counters()[0].dropped_stale, 1);
        assert_eq!(q.shard_counters()[1].dropped_stale, 1);
        let d = q.defer_oldest().unwrap();
        assert_eq!(d.shard, 0);
        assert_eq!(q.shard_counters()[0].deferred, 1);
        assert_eq!(q.queue_len(), 0);
    }

    #[test]
    fn deadline_drops_attribute_to_shards() {
        let mut q = TicketQueue::new(2, 1, 8);
        tick(&mut q, 1, 0);
        tick(&mut q, 0, 1);
        let d = q.drop_oldest_deadline().unwrap();
        assert_eq!(d.shard, 1);
        assert_eq!(q.shard_counters()[1].dropped_deadline, 1);
        assert_eq!(q.shard_counters()[0].dropped_deadline, 0);
        assert_eq!(q.queue_len(), 1);
        q.pop_ticket();
        assert!(q.drop_oldest_deadline().is_none());
        assert_eq!(q.shard_counters()[1].dropped_deadline, 1);
    }

    #[test]
    fn drain_leftover_accounts_every_queued_ticket() {
        let mut q = TicketQueue::new(2, 1, 8);
        for i in 0..5u64 {
            tick(&mut q, (i % 2) as u16, i);
        }
        q.drain_leftover();
        assert_eq!(q.dropped_stale(), 5);
        assert_eq!(
            q.shard_counters()[0].dropped_stale + q.shard_counters()[1].dropped_stale,
            5
        );
        assert_eq!(q.queue_len(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = TicketQueue::new(0, 3, 4);
    }

    /// Tick `i` of the drift walk: its shard, and a snapshot stamped at
    /// the exchange that arrives up to 10 µs late, so `ready_at` is not
    /// `tick_ts` plus ingress.
    fn drift_tick(i: u64, shards: u64) -> (u16, LobSnapshot, Timestamp) {
        let shard = ((i * 7 + i / 3) % shards) as u16;
        let s = snap(10 * i, 100 + (i % 5) as i64);
        let now = s.ts + Duration::from_micros(5 * (i % 3));
        (shard, s, now)
    }

    /// The benchmark's two views issue exactly the bare queue's tickets,
    /// drop exactly its overflow, and have a full feature window behind
    /// every ticket they issue.
    #[test]
    fn views_issue_the_queues_tickets() {
        let stages = PipelineLatencies::fpga();
        let ingress = stages.ingress();
        let (mut multi, mut bare) = (
            MultiOffload::new(vec![NormStats::identity(1); 3], 4, 2),
            TicketQueue::new(3, 4, 2),
        );
        let (mut got, mut want) = (Vec::new(), Vec::new());
        let mut issued = [0u64; 3];
        for i in 0..40 {
            let (shard, s, now) = drift_tick(i, 3);
            let ticket = multi.on_tick_staged(shard, &s, now, &stages);
            assert_eq!(ticket, bare.on_tick(shard, s.ts, now + ingress), "tick {i}");
            if ticket.is_some() && issued[shard as usize] == 0 {
                assert!(multi.windows[shard as usize].is_warm(), "tick {i}");
            }
            issued[shard as usize] += u64::from(ticket.is_some());
            if i % 5 == 4 {
                multi.pop_batch_into(2, &mut got);
                bare.pop_batch_into(2, &mut want);
            }
        }
        assert_eq!(got, want);
        assert_eq!(multi.queue.dropped_full(), bare.dropped_full());
        assert!(bare.dropped_full() > 0);
        assert!(issued.iter().all(|&n| n > 0));

        let mut single = OffloadEngine::new(NormStats::identity(1), 4, 2);
        let mut bare = TicketQueue::new(1, 4, 2);
        let mut first = true;
        for i in 0..40 {
            let (_, s, now) = drift_tick(i, 1);
            let ticket = single.on_tick_staged(&s, now, &stages);
            let want = bare.on_tick(0, s.ts, now + ingress).map(|t| t.ticket);
            assert_eq!(ticket, want, "tick {i}");
            if ticket.is_some() && first {
                assert!(single.is_warm(), "tick {i}");
                first = false;
            }
            if i % 5 == 4 {
                assert_eq!(single.pop_ticket(), bare.pop_ticket().map(|t| t.ticket));
            }
        }
        assert_eq!(single.dropped_full(), bare.dropped_full());
        assert!(bare.dropped_full() > 0);
        assert!(!first);
    }
}
