//! The shared discrete-event engine driving every back-test core.
//!
//! Both back-test cores — the single-device baselines and the full
//! LightTrader model — used to hand-roll their own virtual time,
//! completion ordering, and deadline scoring. This module extracts that
//! machinery once: a virtual clock, a typed binary-heap event queue, and
//! the [`SimModel`] trait a system model implements to be driven by
//! [`run`]. Future device models (fault injection, new accelerators)
//! are one `SimModel` implementation each.
//!
//! # Event ordering
//!
//! The heap orders events by `(timestamp, kind, tie, seq)`:
//!
//! | rank | event          | why this rank                                  |
//! |------|----------------|------------------------------------------------|
//! | 1    | `BatchComplete`| completions at `t` settle before the tick at `t` is ingested (ties broken by accelerator id, matching "lowest device first") |
//! | 2    | `BatchIssue`   | deferred issue opportunities run after the completion that may have freed the device |
//! | 3    | `OrderOut`     | deadline scoring happens at wire-out time       |
//! | 4    | `TickArrival`  | a tick at `t` sees every consequence of events at `t` |
//!
//! `seq` (insertion order) breaks remaining ties, so equal-priority
//! events replay deterministically in the order the model raised them.
//!
//! A completion event names only its accelerator. A DVFS rescale moves a
//! running batch's due time in place and pushes a completion at the new
//! time; the event pushed for the old time still fires, finds the batch
//! due at another instant and does nothing. A model therefore settles a
//! batch only at the instant it is due.

use crate::metrics::BacktestMetrics;
use crate::telemetry::StageBreakdown;
use lt_dnn::ModelKind;
use lt_feed::{TickRecord, TickTrace};
use lt_lob::Timestamp;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One answered query en route to the wire: scored against its deadline
/// by the engine when its `OrderOut` event fires.
#[derive(Debug, Clone)]
pub struct PendingOrder {
    /// Exchange timestamp of the triggering tick.
    pub tick_ts: Timestamp,
    /// Latest acceptable wire-out time (`tick_ts + t_avail`).
    pub deadline: Timestamp,
    /// Exact per-stage split of `order_out - tick_ts`.
    pub breakdown: StageBreakdown,
    /// Symbol shard the triggering tick belonged to (0 for
    /// single-instrument runs), so completions fan back out to the right
    /// shard's accounting.
    pub shard: u16,
    /// The model tier that served the query (always the configured kind
    /// for fixed-model policies; the planner's pick under
    /// `DeadlineTiered`).
    pub tier: ModelKind,
    /// The triggering tick's index within its shard, warm-up ticks
    /// included (the ticket's `tick_id`): the execution layer settles
    /// the decision it recorded on that tick.
    pub tick_id: u64,
}

/// A scheduled simulation event.
#[derive(Debug, Clone)]
pub enum Event {
    /// The next trace tick reaches the system (engine-generated; models
    /// receive it through [`SimModel::on_tick`]).
    TickArrival {
        /// Index into the trace.
        idx: usize,
    },
    /// A deferred issue opportunity (e.g. the oldest tensor becomes
    /// ready while the device sits idle).
    BatchIssue {
        /// Accelerator the opportunity belongs to.
        aid: usize,
    },
    /// The batch on accelerator `aid` may be due: it finishes if it is
    /// due at this instant (a DVFS rescale may have moved it).
    BatchComplete {
        /// Accelerator the batch runs on.
        aid: usize,
    },
    /// Answered queries leaving on the wire; the engine scores each
    /// against its deadline in the ledger.
    OrderOut {
        /// The orders going out at this instant, in settlement order.
        orders: Vec<PendingOrder>,
    },
}

impl Event {
    /// Same-timestamp priority (lower runs first); see module docs.
    fn rank(&self) -> u8 {
        match self {
            Event::BatchComplete { .. } => 1,
            Event::BatchIssue { .. } => 2,
            Event::OrderOut { .. } => 3,
            Event::TickArrival { .. } => 4,
        }
    }

    /// Same-timestamp, same-rank tie key: completions settle lowest
    /// accelerator first (the order the hand-rolled loops used).
    fn tie(&self) -> u64 {
        match self {
            Event::BatchComplete { aid } => *aid as u64,
            _ => 0,
        }
    }
}

struct Entry {
    ts: Timestamp,
    rank: u8,
    tie: u64,
    seq: u64,
    event: Event,
}

impl Entry {
    fn key(&self) -> (Timestamp, u8, u64, u64) {
        (self.ts, self.rank, self.tie, self.seq)
    }
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest event.
        other.key().cmp(&self.key())
    }
}

/// The typed event queue (min-heap over `(ts, rank, tie, seq)`).
#[derive(Default)]
pub struct EventQueue {
    heap: BinaryHeap<Entry>,
    seq: u64,
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `event` at `ts`.
    pub fn push_at(&mut self, ts: Timestamp, event: Event) {
        let entry = Entry {
            ts,
            rank: event.rank(),
            tie: event.tie(),
            seq: self.seq,
            event,
        };
        self.seq += 1;
        self.heap.push(entry);
    }

    /// Pops the earliest event, if any.
    pub(crate) fn pop(&mut self) -> Option<(Timestamp, Event)> {
        self.heap.pop().map(|e| (e.ts, e.event))
    }

    /// Events still scheduled.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// What a model sees while handling an event: the virtual clock, the
/// event queue to schedule against, and the run's metrics.
pub struct EngineCtx<'a> {
    /// The virtual clock (timestamp of the event being handled).
    pub now: Timestamp,
    /// The event queue; push follow-up events here.
    pub queue: &'a mut EventQueue,
    /// The run's ledger: the engine scores responses and lateness when
    /// `OrderOut` events fire, models count through its methods.
    pub metrics: &'a mut BacktestMetrics,
}

/// A system model driven by the engine: the per-event behaviour of one
/// back-test core. All bookkeeping that is *not* model-specific (virtual
/// time, event ordering, deadline scoring, latency recording) lives in
/// [`run`].
pub trait SimModel {
    /// A trace tick reaches the system.
    fn on_tick(&mut self, tick: &TickRecord, ctx: &mut EngineCtx);

    /// A previously scheduled issue opportunity fires.
    fn on_batch_issue(&mut self, _aid: usize, _ctx: &mut EngineCtx) {}

    /// A batch completion event fires. The model must ignore it unless
    /// the batch on `aid` is due at `ctx.now`.
    fn on_batch_complete(&mut self, aid: usize, ctx: &mut EngineCtx);

    /// The engine scored one wired-out order against its deadline in the
    /// ledger; the model records the tier that served it (and settles
    /// it, when it trades).
    fn on_order_scored(&mut self, order: &PendingOrder, ctx: &mut EngineCtx);

    /// The event queue has drained: account for whatever never ran and
    /// read the model's per-shard counts into the ledger.
    fn on_finish(&mut self, ctx: &mut EngineCtx);
}

/// Replays `trace` through `model` and returns the run's metrics, one
/// outcome row for each of its `shards` symbol shards.
///
/// The engine owns the virtual clock and the ledger; it feeds ticks in
/// trace order, dispatches model events in `(ts, rank, tie, seq)` order,
/// scores `OrderOut` events against their deadlines (recording the
/// per-stage breakdown of in-time responses), calls
/// [`SimModel::on_finish`] once every event has drained, and then
/// closes the ledger: the totals become the rows' sum.
pub fn run<M: SimModel>(model: &mut M, trace: &TickTrace, shards: usize) -> BacktestMetrics {
    let mut queue = EventQueue::new();
    let mut metrics = BacktestMetrics::with_shards(shards);
    let ticks = &trace.ticks;
    if let Some(first) = ticks.first() {
        queue.push_at(first.ts, Event::TickArrival { idx: 0 });
    }
    let mut clock = Timestamp::ZERO;
    while let Some((ts, event)) = queue.pop() {
        debug_assert!(ts >= clock, "event queue went backwards");
        clock = ts;
        let mut ctx = EngineCtx {
            now: ts,
            queue: &mut queue,
            metrics: &mut metrics,
        };
        match event {
            Event::TickArrival { idx } => {
                if let Some(next) = ticks.get(idx + 1) {
                    ctx.queue
                        .push_at(next.ts, Event::TickArrival { idx: idx + 1 });
                }
                model.on_tick(&ticks[idx], &mut ctx);
            }
            Event::BatchIssue { aid } => model.on_batch_issue(aid, &mut ctx),
            Event::BatchComplete { aid } => model.on_batch_complete(aid, &mut ctx),
            Event::OrderOut { orders } => {
                for order in orders {
                    ctx.metrics.score(&order, ts <= order.deadline);
                    model.on_order_scored(&order, &mut ctx);
                }
            }
        }
    }
    let mut ctx = EngineCtx {
        now: clock,
        queue: &mut queue,
        metrics: &mut metrics,
    };
    model.on_finish(&mut ctx);
    metrics.close();
    metrics
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(ns: u64) -> Timestamp {
        Timestamp::from_nanos(ns)
    }

    #[test]
    fn events_pop_in_time_then_rank_then_tie_then_seq_order() {
        let mut q = EventQueue::new();
        q.push_at(ts(200), Event::TickArrival { idx: 1 });
        q.push_at(ts(100), Event::TickArrival { idx: 0 });
        q.push_at(ts(200), Event::BatchIssue { aid: 7 });
        q.push_at(ts(200), Event::OrderOut { orders: vec![] });
        let order: Vec<u8> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| e.rank())
            .collect();
        // t=100 tick first, then at t=200: issue (2) < order-out (3) < tick (4).
        assert_eq!(order, vec![4, 2, 3, 4]);
    }

    #[test]
    fn completions_tie_break_by_accelerator_id() {
        let mut q = EventQueue::new();
        q.push_at(ts(100), Event::BatchComplete { aid: 3 });
        q.push_at(ts(100), Event::BatchComplete { aid: 1 });
        let aids: Vec<usize> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Event::BatchComplete { aid } => aid,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(aids, vec![1, 3]);
    }

    #[test]
    fn same_key_events_pop_in_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..5 {
            q.push_at(ts(10), Event::BatchIssue { aid: i });
        }
        let aids: Vec<usize> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Event::BatchIssue { aid } => aid,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(aids, vec![0, 1, 2, 3, 4]);
    }
}
