//! Proof that the steady-state tick hot path performs **zero heap
//! allocations**: feed event → [`LocalBook`] update → depth-10 snapshot →
//! feature extraction → normalization → ticket queue.
//!
//! So is the whole wire path on top of it: datagram bytes through
//! `LightTrader::on_datagram_into` to iLink3 order bytes from
//! `OrderMessage::encode_into`, into kept buffers, allocates nothing per
//! datagram, and nor does `FeedArbiter::on_packet_events_into` decoding
//! both feeds' copies into the parser's events; the allocating
//! `on_datagram` wrapper allocates exactly the `Vec` it returns. The fleet's `MultiSymbolTrader` rounds — one tick
//! per shard, then one batched drain — allocate nothing either, and nor
//! does the back-test's `TicketQueue` under its scheduler's calls.
//!
//! Same counting-global-allocator technique as `lt-dnn`'s
//! `tests/zero_alloc.rs`: every allocation on this thread bumps a
//! thread-local counter, warm-up replays size the ladder band, order
//! index, snapshot buffers, and feature ring, and one more replay of the
//! identical event stream is then asserted to allocate nothing at all.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use lighttrader::{LightTrader, MultiSymbolTrader, TickOutcome};
use lt_dnn::ModelKind;
use lt_feed::NormStats;
use lt_lob::events::MarketEventKind;
use lt_lob::prelude::*;
use lt_pipeline::stages::PipelineLatencies;
use lt_pipeline::{
    FeedArbiter, FeedId, LocalBook, MultiOffload, OffloadEngine, PacketParser, RiskLimits,
    ShardTicket, TensorTicket, TicketQueue,
};
use lt_protocol::framing::Datagram;
use lt_protocol::sbe::SbeEncoder;
use std::time::Duration;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

impl CountingAlloc {
    fn bump() {
        // `try_with`: the TLS slot may already be torn down during thread
        // exit, and the allocator must never panic.
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::bump();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::bump();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::bump();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCS.with(|c| c.get())
}

/// Builds a realistic tick-data stream by running a matching engine:
/// passive adds around the touch, cancels, and aggressive IOC sweeps so
/// the stream contains Add, Modify (partial fills), Delete, and Trade
/// events. Allocation here is irrelevant — only the replay is counted.
fn generate_events(n_actions: u64) -> Vec<MarketEvent> {
    let mut engine = MatchingEngine::new(Symbol::new("ESU6"));
    let mut events = Vec::new();
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut rng = move || {
        // xorshift64*: deterministic, dependency-free.
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_f491_4f6c_dd1d)
    };
    let mut live: Vec<OrderId> = Vec::new();
    let mut next_id = 1u64;
    for step in 0..n_actions {
        let ts = Timestamp::from_nanos(step + 1);
        let roll = rng() % 10;
        let outcome = if roll < 5 || live.is_empty() {
            // Passive add within ±8 ticks of the pivot.
            let side = if rng() % 2 == 0 { Side::Bid } else { Side::Ask };
            let base = if side == Side::Bid { 9_992 } else { 10_001 };
            let price = Price::new(base + (rng() % 8) as i64);
            let id = OrderId::new(next_id);
            next_id += 1;
            live.push(id);
            engine.submit(
                NewOrder::limit(id, side, price, Qty::new(1 + rng() % 9)),
                ts,
            )
        } else if roll < 7 {
            let id = live.swap_remove((rng() % live.len() as u64) as usize);
            engine.cancel(id, ts)
        } else {
            // Aggressive IOC sweeping into the far side.
            let side = if rng() % 2 == 0 { Side::Bid } else { Side::Ask };
            let price = Price::new(if side == Side::Bid { 10_004 } else { 9_996 });
            let id = OrderId::new(next_id);
            next_id += 1;
            engine.submit(NewOrder::ioc(id, side, price, Qty::new(1 + rng() % 12)), ts)
        };
        events.extend(outcome.events);
    }
    events
}

/// Replays the full stream through the book→snapshot→offload path,
/// returning how many tickets were enqueued (a trivial checksum so the
/// optimizer cannot elide the work).
fn replay(
    events: &[MarketEvent],
    book: &mut LocalBook,
    offload: &mut OffloadEngine,
    snap: &mut LobSnapshot,
    stages: &PipelineLatencies,
) -> u64 {
    let mut tickets = 0u64;
    for event in events {
        book.apply(event);
        book.snapshot_into(10, event.ts, snap);
        if offload.on_tick_staged(snap, event.ts, stages).is_some() {
            tickets += 1;
        }
        if offload.pop_ticket().is_some() {
            tickets += 1;
        }
    }
    tickets
}

#[test]
fn tick_hot_path_is_allocation_free_after_warmup() {
    let events = generate_events(2_000);
    assert!(
        events.len() > 2_000,
        "stream should include fills/cancels beyond the raw adds"
    );

    let mut book = LocalBook::new();
    let mut offload = OffloadEngine::new(NormStats::identity(10), 100, 64);
    let mut snap = LobSnapshot::default();
    let stages = PipelineLatencies::fpga();

    // Warm-up: three full replays. The first sizes the ladder band, the
    // snapshot vectors, and fills the feature ring; the second covers
    // capacity high-water effects of replaying onto an already-populated
    // book (the order index briefly holds both the leftover resting
    // orders and the stream's own). In the third, the order index's
    // deletion tombstones use up its free slots, and the rehash that
    // follows grows it once more: the book is not pre-sized, as the
    // trader's is not.
    for _ in 0..3 {
        let warm = replay(&events, &mut book, &mut offload, &mut snap, &stages);
        assert!(warm > 0, "offload engine must emit tickets");
    }

    let before = allocations();
    let tickets = replay(&events, &mut book, &mut offload, &mut snap, &stages);
    let after = allocations();

    assert!(tickets > 0);
    assert_eq!(
        after - before,
        0,
        "steady-state tick path (book update + snapshot_into + \
         on_tick_staged + pop_ticket) must not allocate"
    );
}

/// One book's order index over a long session: once the first replay has
/// sized it, replaying the same stream again and again allocates nothing.
/// Every replay deletes thousands of orders, and their tombstones use up
/// the index's free slots; the rehash that follows clears them in place
/// only while the index is at most half full, and grows it otherwise.
#[test]
fn order_index_allocates_nothing_after_the_first_pass() {
    let events = generate_events(2_000);
    let mut book = LocalBook::new();
    for event in &events {
        book.apply(event);
    }
    let before = allocations();
    for pass in 2..=10 {
        for event in &events {
            book.apply(event);
        }
        assert_eq!(
            allocations() - before,
            0,
            "the order index allocated by pass {pass}"
        );
    }
}

/// The batched pop path: ingest as usual, and every fourth event drain a
/// coalesced batch into a recycled caller-owned buffer via
/// `pop_batch_into`. The warm-up replays size the buffer once; after
/// that, popping batches must allocate nothing.
fn replay_batched(
    events: &[MarketEvent],
    book: &mut LocalBook,
    offload: &mut OffloadEngine,
    snap: &mut LobSnapshot,
    stages: &PipelineLatencies,
    batch_buf: &mut Vec<TensorTicket>,
) -> u64 {
    let mut tickets = 0u64;
    for (i, event) in events.iter().enumerate() {
        book.apply(event);
        book.snapshot_into(10, event.ts, snap);
        offload.on_tick_staged(snap, event.ts, stages);
        if i % 4 == 3 {
            batch_buf.clear();
            offload.pop_batch_into(4, batch_buf);
            tickets += batch_buf.len() as u64;
        }
    }
    tickets
}

#[test]
fn batched_pop_path_is_allocation_free_after_warmup() {
    let events = generate_events(2_000);
    let mut book = LocalBook::new();
    let mut offload = OffloadEngine::new(NormStats::identity(10), 100, 64);
    let mut snap = LobSnapshot::default();
    let stages = PipelineLatencies::fpga();
    let mut batch_buf: Vec<TensorTicket> = Vec::new();

    // Three warm-up replays, as on the unbatched path.
    for _ in 0..3 {
        let warm = replay_batched(
            &events,
            &mut book,
            &mut offload,
            &mut snap,
            &stages,
            &mut batch_buf,
        );
        assert!(warm > 0, "batched pops must drain tickets");
    }

    let before = allocations();
    let tickets = replay_batched(
        &events,
        &mut book,
        &mut offload,
        &mut snap,
        &stages,
        &mut batch_buf,
    );
    let after = allocations();

    assert!(tickets > 0);
    assert_eq!(
        after - before,
        0,
        "steady-state batched pop path (on_tick_staged + pop_batch_into \
         into a recycled buffer) must not allocate"
    );
}

/// The cross-symbol hot path: one book per shard, every event fanned to
/// its shard's book and ingested into the shared `MultiOffload` queue,
/// with coalesced cross-shard batches drained into a recycled buffer.
fn replay_multi(
    events: &[MarketEvent],
    books: &mut [LocalBook],
    offload: &mut MultiOffload,
    snap: &mut LobSnapshot,
    stages: &PipelineLatencies,
    batch_buf: &mut Vec<ShardTicket>,
) -> u64 {
    let n = books.len();
    let mut tickets = 0u64;
    for (i, event) in events.iter().enumerate() {
        let shard = i % n;
        books[shard].apply(event);
        books[shard].snapshot_into(10, event.ts, snap);
        offload.on_tick_staged(shard as u16, snap, event.ts, stages);
        if i % 4 == 3 {
            batch_buf.clear();
            offload.pop_batch_into(4, batch_buf);
            tickets += batch_buf.len() as u64;
        }
    }
    tickets
}

#[test]
fn cross_symbol_path_is_allocation_free_after_warmup() {
    let events = generate_events(2_000);
    let mut books: Vec<LocalBook> = (0..4).map(|_| LocalBook::new()).collect();
    let mut offload = MultiOffload::new(vec![NormStats::identity(10); 4], 50, 64);
    let mut snap = LobSnapshot::default();
    let stages = PipelineLatencies::fpga();
    let mut batch_buf: Vec<ShardTicket> = Vec::new();

    let warm_a = replay_multi(
        &events,
        &mut books,
        &mut offload,
        &mut snap,
        &stages,
        &mut batch_buf,
    );
    let warm_b = replay_multi(
        &events,
        &mut books,
        &mut offload,
        &mut snap,
        &stages,
        &mut batch_buf,
    );
    assert!(warm_a > 0 && warm_b > 0, "shards must emit tickets");

    let before = allocations();
    let tickets = replay_multi(
        &events,
        &mut books,
        &mut offload,
        &mut snap,
        &stages,
        &mut batch_buf,
    );
    let after = allocations();

    assert!(tickets > 0);
    assert_eq!(
        after - before,
        0,
        "steady-state cross-symbol path (per-shard book update + shared \
         MultiOffload ingest + coalesced pop_batch_into) must not allocate"
    );
}

/// The back-test's queue walk, driven as `SimState` drives its
/// `TicketQueue`: every event is one of four shards' ticks, stale
/// tickets go before each scheduling look at the oldest, and at fixed
/// strides the oldest is deferred (Algorithm 1), shed by the tier
/// planner, or popped with its batch into a recycled buffer. Returns the
/// tickets popped.
fn replay_queue(
    events: &[MarketEvent],
    queue: &mut TicketQueue,
    ingress: Duration,
    batch_buf: &mut Vec<ShardTicket>,
) -> u64 {
    let mut popped = 0u64;
    for (i, event) in events.iter().enumerate() {
        queue.on_tick((i % 4) as u16, event.ts, event.ts + ingress);
        queue.drop_stale(event.ts, Duration::from_nanos(300));
        if queue.oldest().is_none() {
            continue;
        }
        if i % 7 == 3 {
            queue.defer_oldest();
        } else if i % 11 == 5 {
            queue.drop_oldest_deadline();
        } else if i % 8 == 7 {
            batch_buf.clear();
            queue.pop_batch_into(4, batch_buf);
            popped += batch_buf.len() as u64;
        }
    }
    popped
}

#[test]
fn backtest_ticket_queue_allocates_nothing_after_warmup() {
    let events = generate_events(2_000);
    let mut queue = TicketQueue::new(4, 50, 64);
    let ingress = PipelineLatencies::fpga().ingress();
    let mut batch_buf: Vec<ShardTicket> = Vec::new();

    let warm_a = replay_queue(&events, &mut queue, ingress, &mut batch_buf);
    let warm_b = replay_queue(&events, &mut queue, ingress, &mut batch_buf);
    assert!(warm_a > 0 && warm_b > 0, "the walk must pop batches");

    let before = allocations();
    let popped = replay_queue(&events, &mut queue, ingress, &mut batch_buf);
    let after = allocations();

    assert!(popped > 0);
    let counters = queue.shard_counters().iter();
    let (stale, deferred, deadline) = counters.fold((0, 0, 0), |acc, c| {
        (
            acc.0 + c.dropped_stale,
            acc.1 + c.deferred,
            acc.2 + c.dropped_deadline,
        )
    });
    assert!(
        stale > 0 && deferred > 0 && deadline > 0,
        "every exit must be taken: stale {stale}, deferred {deferred}, deadline {deadline}"
    );
    assert_eq!(
        after - before,
        0,
        "steady-state back-test queue walk (on_tick + drop_stale + \
         defer_oldest + drop_oldest_deadline + pop_batch_into) must not allocate"
    );
}

/// The fleet's rounds: each event goes to the next shard's book, and
/// once every shard has ticked, one drain serves them as a single batch.
fn replay_fleet(
    events: &[MarketEvent],
    books: &mut [LocalBook],
    trader: &mut MultiSymbolTrader,
    snap: &mut LobSnapshot,
    answers: &mut Vec<(ShardTicket, lt_dnn::Prediction)>,
) -> u64 {
    let n = books.len();
    let mut served = 0u64;
    for (i, event) in events.iter().enumerate() {
        let shard = i % n;
        books[shard].apply(event);
        books[shard].snapshot_into(10, event.ts, snap);
        trader.on_tick(shard as u16, snap, event.ts);
        if shard == n - 1 {
            served += trader.drain_batch(answers) as u64;
        }
    }
    served
}

#[test]
fn fleet_rounds_allocate_nothing_after_warmup() {
    // Short: every drain is a batch-4 DeepLOB forward, and tier-1 runs
    // this unoptimized.
    let events = generate_events(600);
    let mut books: Vec<LocalBook> = (0..4).map(|_| LocalBook::new()).collect();
    let mut trader =
        MultiSymbolTrader::new(ModelKind::DeepLob, vec![NormStats::identity(10); 4], 3)
            .with_batch_cap(4);
    let mut snap = LobSnapshot::default();
    let mut answers = Vec::new();

    let warm_a = replay_fleet(&events, &mut books, &mut trader, &mut snap, &mut answers);
    let warm_b = replay_fleet(&events, &mut books, &mut trader, &mut snap, &mut answers);
    assert!(warm_a > 0 && warm_b > 0, "the fleet must serve batches");

    let before = allocations();
    let served = replay_fleet(&events, &mut books, &mut trader, &mut snap, &mut answers);
    let after = allocations();

    assert_eq!(
        served,
        4 * (events.len() / 4) as u64,
        "every round serves all four"
    );
    assert_eq!(
        after - before,
        0,
        "steady-state fleet rounds (per-shard book update + on_tick + \
         batch-4 drain_batch) must not allocate"
    );
}

/// Datagrams of 1 to 40 events — under, at and over the 16-window sweep —
/// that change the book without growing it: twenty resting orders a side,
/// then nothing but quantity changes on them.
fn resizing_session(passes: usize) -> Vec<Vec<u8>> {
    const SIZES: [usize; 12] = [1, 1, 2, 1, 6, 1, 3, 12, 1, 16, 1, 40];
    let encoder = SbeEncoder::new();
    let resting = |n: u64| {
        let side = if n.is_multiple_of(2) {
            Side::Bid
        } else {
            Side::Ask
        };
        let away = 1 + (n / 2) as i64;
        let price = Price::new(if side == Side::Bid {
            10_000 - away
        } else {
            10_000 + away
        });
        (OrderId::new(n + 1), side, price)
    };
    let mut seq = 0u64;
    let mut datagram = |kinds: Vec<BookDelta>| {
        let mut payload = Vec::new();
        for (i, kind) in kinds.iter().enumerate() {
            let event = MarketEvent {
                seq: seq * 64 + i as u64,
                ts: Timestamp::from_micros(seq * 50 + i as u64),
                kind: MarketEventKind::Book(*kind),
            };
            payload.extend_from_slice(&encoder.encode(&event));
        }
        let sent = Timestamp::from_micros(seq * 50);
        seq += 1;
        Datagram::new(seq as u32 - 1, sent, kinds.len() as u16, payload).encode()
    };
    let adds = (0..40)
        .map(|n| {
            let (id, side, price) = resting(n);
            let qty = Qty::new(5);
            BookDelta::Add {
                id,
                side,
                price,
                qty,
            }
        })
        .collect();
    let mut session = vec![datagram(adds)];
    let mut step = 0u64;
    for _ in 0..passes {
        for size in SIZES {
            let resizes = (0..size)
                .map(|_| {
                    step += 1;
                    let (id, side, price) = resting(step * 7 % 40);
                    let remaining = Qty::new(1 + step * 5 % 9);
                    BookDelta::Modify {
                        id,
                        side,
                        price,
                        remaining,
                    }
                })
                .collect();
            session.push(datagram(resizes));
        }
    }
    session
}

/// Appends the iLink3 bytes of every order among `outcomes` to `wire`,
/// returning how many there were.
fn encode_orders(outcomes: &[TickOutcome], wire: &mut Vec<u8>) -> usize {
    let mut orders = 0;
    for outcome in outcomes {
        if let TickOutcome::Order { order, .. } = outcome {
            order.encode_into(wire);
            orders += 1;
        }
    }
    orders
}

#[test]
fn datagram_to_order_bytes_allocates_nothing() {
    let session = resizing_session(3);
    let steady = session.len() - (session.len() - 1) / 3;
    // Gates wide open, so that every tier's orders reach the encoder.
    let risk = RiskLimits {
        min_confidence: 0.0,
        max_position: i64::MAX / 2,
        order_qty: 1,
        max_spread_ticks: i64::MAX / 2,
    };
    for kind in ModelKind::ALL {
        let build = || LightTrader::builder(kind).seed(3).risk(risk).build();
        let (mut direct, mut wrapped) = (build(), build());
        let (mut arbiter, mut parser) = (FeedArbiter::new(), PacketParser::new());
        let (mut outcomes, mut wire) = (Vec::new(), Vec::new());
        let (mut events, mut parsed) = (Vec::new(), Vec::new());
        let (mut served, mut orders) = (0, 0);
        for (i, bytes) in session.iter().enumerate() {
            let before = allocations();
            outcomes.clear();
            wire.clear();
            direct.on_datagram_into(bytes, &mut outcomes);
            let sent = encode_orders(&outcomes, &mut wire);
            let direct_allocs = allocations() - before;

            // Both feeds carry the datagram: the B copy is decoded, found
            // a cross-duplicate and truncated away, leaving the events the
            // parser decodes.
            let before = allocations();
            events.clear();
            for feed in FeedId::ALL {
                arbiter.on_packet_events_into(feed, bytes, &mut events);
            }
            let arbitrated_allocs = allocations() - before;

            let before = allocations();
            let returned = wrapped.on_datagram(bytes);
            let wrapper_allocs = allocations() - before;

            parsed.clear();
            parser.ingest_into(bytes, &mut parsed);
            assert_eq!(events, parsed, "{kind}: datagram {i}");
            assert_eq!(returned, outcomes, "{kind}: datagram {i}");
            // Two passes size the events, snapshots, pads, lanes and wire
            // for the widest datagram and sweep; the third allocates
            // nothing but the wrapper's returned `Vec`.
            if i >= steady {
                served += outcomes.len();
                orders += sent;
                let case = format!("{kind}: datagram {i} of {} events", outcomes.len());
                assert_eq!(direct_allocs, 0, "direct intake, {case}");
                assert_eq!(arbitrated_allocs, 0, "arbiter, {case}");
                assert_eq!(wrapper_allocs, 1, "on_datagram wrapper, {case}");
            }
        }
        assert_eq!(served, 85, "{kind}: one pass of the size ladder");
        assert!(orders > 0, "{kind}: the steady pass must encode orders");
    }
}
