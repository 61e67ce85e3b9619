//! An end-to-end functional LightTrader instance.
//!
//! [`LightTrader`] wires the whole tick-to-trade path of Fig. 4(b)
//! together for applications: datagram in → packet parser → local book →
//! feature window → DNN inference → trading engine → order out. It runs
//! *functionally* (real parsing, real tensors, real inference on the
//! tiny model configurations); use `lt-sim` when you need timing,
//! response rates, queueing or scheduling studies instead. The host
//! serves every warm tick before the next sweep, so no query ever waits:
//! there is no ticket queue to batch, defer or drop from.
//!
//! One trader holds N ≥ 1 symbol shards, each with its own
//! [`FeatureWindow`]; shard 0 is the traded symbol, which datagrams feed.
//! [`LightTrader::on_tick`] takes any shard's snapshots, and
//! [`LightTrader::drain_batch`] answers every pending ticket, at most one
//! per shard, with one batched forward. The fleet trades nothing yet.

use lt_dnn::{ModelKind, ModelRegistry, Prediction, StreamStats, Tensor, MAX_SWEEP};
use lt_feed::NormStats;
use lt_lob::{LobSnapshot, MarketEvent, Symbol, Timestamp};
use lt_pipeline::trading::NoOrderReason;
use lt_pipeline::{
    FeatureWindow, LocalBook, PacketParser, RiskLimits, ShardTicket, TensorTicket, TradingEngine,
};
use lt_protocol::ilink::OrderMessage;

/// What one tick produced end to end.
#[derive(Debug, Clone, PartialEq)]
pub enum TickOutcome {
    /// The feature window is still warming up; no inference ran.
    Warmup,
    /// Inference ran but a risk gate suppressed the order.
    NoOrder {
        /// The model's output.
        prediction: Prediction,
        /// Which gate suppressed it.
        reason: NoOrderReason,
    },
    /// An order was generated.
    Order {
        /// The model's output.
        prediction: Prediction,
        /// The order message (encode with
        /// [`OrderMessage::encode`] or FIX).
        order: OrderMessage,
    },
}

/// Builder for a functional [`LightTrader`].
#[derive(Debug, Clone)]
pub struct LightTraderBuilder {
    kind: ModelKind,
    tiers: Vec<ModelKind>,
    seed: u64,
    risk: RiskLimits,
    /// One normalization per shard, shard 0 the traded symbol.
    norms: Vec<NormStats>,
    rate_limit: Option<u32>,
    loss_floor_ticks: Option<i64>,
}

impl LightTraderBuilder {
    /// Starts a builder for the given benchmark model.
    pub fn new(kind: ModelKind) -> Self {
        LightTraderBuilder {
            kind,
            tiers: Vec::new(),
            seed: 0,
            risk: RiskLimits::default(),
            norms: vec![NormStats::identity(10)],
            rate_limit: None,
            loss_floor_ticks: None,
        }
    }

    /// Sets the weight-initialization seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the trading-engine risk limits.
    #[must_use]
    pub fn risk(mut self, risk: RiskLimits) -> Self {
        self.risk = risk;
        self
    }

    /// Supplies historical normalization statistics (defaults to
    /// identity, i.e. raw features).
    #[must_use]
    pub fn normalization(mut self, norm: NormStats) -> Self {
        self.norms = vec![norm];
        self
    }

    /// Caps outbound orders per second (exchange messaging limits).
    #[must_use]
    pub fn order_rate_limit(mut self, per_second: u32) -> Self {
        self.rate_limit = Some(per_second);
        self
    }

    /// Arms a kill switch that halts trading when mark-to-market P&L
    /// falls to `loss_floor_ticks` (ticks x contracts).
    #[must_use]
    pub fn kill_switch(mut self, loss_floor_ticks: i64) -> Self {
        self.loss_floor_ticks = Some(loss_floor_ticks);
        self
    }

    /// Builds the system.
    ///
    /// # Panics
    ///
    /// Panics when there is no shard or more than a `u16` indexes, or
    /// when a shard's normalization stats do not cover ten book levels.
    pub fn build(self) -> LightTrader {
        let mut kinds = self.tiers.clone();
        if !kinds.contains(&self.kind) {
            kinds.push(self.kind);
        }
        let registry = ModelRegistry::tiny_with_kinds(&kinds, self.seed);
        let shards = self.norms.len();
        assert!(shards > 0, "need at least one shard");
        assert!(shards <= u16::MAX as usize, "shard index must fit u16");
        assert!(
            self.norms.iter().all(|norm| norm.depth() == 10),
            "normalization stats must cover ten book levels"
        );
        let window = registry.max_window();
        let width = LobSnapshot::feature_count(10);
        LightTrader {
            parser: PacketParser::new(),
            book: LocalBook::new(),
            windows: self
                .norms
                .into_iter()
                .map(|norm| FeatureWindow::new(norm, window))
                .collect(),
            ticks: vec![0; shards],
            pending: Vec::with_capacity(shards),
            trading: TradingEngine::new(Symbol::new("ESU6"), self.risk)
                .with_gates(self.rate_limit, self.loss_floor_ticks),
            events: Vec::new(),
            window_buf: Tensor::zeros(&[window + MAX_SWEEP - 1, width]),
            lanes: Vec::new(),
            snaps: vec![LobSnapshot::default(); MAX_SWEEP],
            preds: Vec::with_capacity(MAX_SWEEP),
            active: self.kind,
            registry,
            inferences: 0,
            batches: 0,
        }
    }
}

/// The fleet's name: a [`LightTrader`] built by [`LightTrader::new`].
pub type MultiSymbolTrader = LightTrader;

/// The functional end-to-end system.
pub struct LightTrader {
    parser: PacketParser,
    book: LocalBook,
    /// One feature window per shard, each sized for the widest
    /// registered tier; shard 0 is the traded symbol.
    windows: Vec<FeatureWindow>,
    /// Ticks seen per shard, warm-up included: the next tick's id.
    ticks: Vec<u64>,
    /// Tickets awaiting a drain, oldest first, at most one per shard.
    pending: Vec<ShardTicket>,
    /// Every registered tier's weights and the memory its forwards run
    /// in, made at registration: inference allocates nothing.
    registry: ModelRegistry,
    /// The tier currently serving queries.
    active: ModelKind,
    /// Every risk gate, the position and the P&L.
    trading: TradingEngine,
    /// Reusable buffer for a datagram's decoded events: once it has held
    /// the largest datagram, intake takes no allocation.
    events: Vec<MarketEvent>,
    /// Reusable `[max_window + MAX_SWEEP - 1, features]` staging tensor: a
    /// sweep of `k` ticks fills its trailing `max_window + k - 1` rows, so
    /// window `j` is rows `j..j + max_window` of those and steady-state
    /// ticks never materialize a fresh window tensor.
    window_buf: Tensor,
    /// Reusable per-lane staging tensors of a drain, one per batch slot,
    /// each the active tier's `[window, features]`.
    lanes: Vec<Tensor>,
    /// One snapshot slot per tick of a sweep, reused across sweeps: once
    /// their level vectors reach depth capacity, the tick path takes no
    /// snapshot allocation.
    snaps: Vec<LobSnapshot>,
    /// Reusable buffer for a sweep's or a drain's predictions.
    preds: Vec<Prediction>,
    inferences: u64,
    batches: u64,
}

impl LightTrader {
    /// Starts a builder.
    pub fn builder(kind: ModelKind) -> LightTraderBuilder {
        LightTraderBuilder::new(kind)
    }

    /// Builds a fleet with one shard per entry of `norms`, serving tier
    /// `kind` with deterministic tiny weights derived from `seed`.
    ///
    /// # Panics
    ///
    /// As [`LightTraderBuilder::build`].
    pub fn new(kind: ModelKind, norms: Vec<NormStats>, seed: u64) -> Self {
        LightTraderBuilder {
            norms,
            ..Self::builder(kind).seed(seed)
        }
        .build()
    }

    /// Kept only for the benchmark, which passes its shard count; ROADMAP
    /// item 0 deletes it. A drain serves every pending ticket.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is below the shard count.
    pub fn with_batch_cap(self, cap: usize) -> Self {
        assert!(
            cap >= self.windows.len(),
            "a drain serves every shard: cap {cap} < {} shards",
            self.windows.len()
        );
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

    /// Inferences executed so far, swept and batched: every swept one
    /// ends as exactly one order or one suppression.
    pub fn inferences(&self) -> u64 {
        self.inferences
    }

    /// Batched forwards executed so far.
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// Tickets currently pending across all shards (at most one each).
    pub fn queue_len(&self) -> usize {
        self.pending.len()
    }

    /// How tier `kind`'s inferences were served: `hits` pushed only the
    /// newest tick row through the model's trunk (the window was the
    /// tier's previous one slid by a row), `misses` ran the whole window.
    /// One stream served tick after tick misses once per tier switch.
    ///
    /// # Panics
    ///
    /// Panics when `kind` is not a registered tier.
    pub fn stream_stats(&self, kind: ModelKind) -> StreamStats {
        self.registry.stream_stats(kind)
    }

    /// Net position in contracts.
    pub fn position(&self) -> i64 {
        self.trading.position()
    }

    /// Orders generated so far.
    pub fn orders_sent(&self) -> u64 {
        self.trading.orders_sent()
    }

    /// Signals suppressed by any risk gate — the trading engine's own
    /// gates, the kill switch, or the rate limiter.
    pub fn suppressed(&self) -> u64 {
        self.trading.suppressed()
    }

    /// Orders rejected by the messaging-rate limiter (zero when no
    /// limiter is configured). A subset of [`Self::suppressed`].
    pub fn rate_limited(&self) -> u64 {
        self.trading.rate_limited()
    }

    /// Realized cash in ticks x contracts (each IOC fills what the
    /// decision's book shows at or inside its limit).
    pub fn cash_ticks(&self) -> i64 {
        self.trading.cash_ticks()
    }

    /// Mark-to-market P&L in ticks x contracts against the local book's
    /// current mid price (`None` when the book is one-sided): the P&L in
    /// half-ticks at the exact mid (`bid + ask` in ticks), truncated
    /// toward zero.
    pub fn mark_to_market(&self) -> Option<i64> {
        let bid = self.book.best_bid()?;
        let ask = self.book.best_ask()?;
        Some(self.trading.mark_to_market_half(bid.ticks() + ask.ticks()) / 2)
    }

    /// Packet-parser intake counters.
    pub fn parser_stats(&self) -> lt_pipeline::ParserStats {
        self.parser.stats()
    }

    /// Book adds the local book ignored, each priced more than
    /// `lt_lob::MAX_SPAN` ticks from its side's band.
    pub fn book_out_of_span(&self) -> u64 {
        self.book.out_of_span()
    }

    /// Feeds one raw market-data datagram through the full pipeline,
    /// returning its outcomes in a fresh vector; the allocating wrapper
    /// over [`Self::on_datagram_into`].
    pub fn on_datagram(&mut self, bytes: &[u8]) -> Vec<TickOutcome> {
        let mut outcomes = Vec::new();
        self.on_datagram_into(bytes, &mut outcomes);
        outcomes
    }

    /// Feeds one raw market-data datagram through the full pipeline,
    /// appending one outcome per decoded tick to `out`, in arrival order
    /// (none for a datagram the parser rejects). The datagram, not the
    /// tick, is the unit of inference: its ticks are served in sweeps of
    /// up to [`MAX_SWEEP`], each one registry call, and every outcome is
    /// what the same tick, alone in its own datagram, produces.
    ///
    /// Once the buffers have seen the largest datagram and sweep, this
    /// allocates nothing, `out` included when it has room.
    pub fn on_datagram_into(&mut self, bytes: &[u8], out: &mut Vec<TickOutcome>) {
        let mut events = std::mem::take(&mut self.events);
        events.clear();
        self.parser.ingest_into(bytes, &mut events);
        out.reserve(events.len());
        self.on_events(&events, |outcome| out.push(outcome));
        self.events = events;
    }

    /// Applies `events` to the book and serves them, a sweep at a time,
    /// handing `sink` one outcome per event in arrival order.
    fn on_events(&mut self, events: &[MarketEvent], mut sink: impl FnMut(TickOutcome)) {
        // The snapshot slots are taken out of `self` for the duration
        // (`serve` needs `&mut self` alongside them) and put back
        // afterwards, keeping their level capacity.
        let mut snaps = std::mem::take(&mut self.snaps);
        let mut rest = events;
        while !rest.is_empty() {
            // The event count is the peer's to choose; a sweep is not. A
            // cold window is served tick by tick, so that every sweep is
            // served whole or not at all.
            let warm = self.windows[0].is_warm();
            let cap = if warm { MAX_SWEEP } else { 1 };
            let (sweep, later) = rest.split_at(rest.len().min(cap));
            for (event, snap) in sweep.iter().zip(&mut snaps) {
                self.book.apply(event);
                self.book.snapshot_into(10, event.ts, snap);
            }
            self.serve(&snaps[..sweep.len()], &mut sink);
            rest = later;
        }
        self.snaps = snaps;
    }

    /// One sweep from its ticks' book snapshots to their outcomes: pushes
    /// every feature row into shard 0's window and, once it is warm,
    /// serves all the queries with one registry call and gates the
    /// decisions one by one in arrival order, each against its own
    /// snapshot and timestamp. Nothing downstream of a prediction feeds
    /// back into book or features, so the trading engine's gates see
    /// what a sweep per tick shows them.
    fn serve(&mut self, snaps: &[LobSnapshot], mut sink: impl FnMut(TickOutcome)) {
        let served = snaps
            .iter()
            .filter(|snap| self.push(0, snap).is_some())
            .count();
        // Once warm a window stays warm: the served ticks are the last.
        for _ in served..snaps.len() {
            sink(TickOutcome::Warmup);
        }
        if served == 0 {
            return;
        }
        // The traded shard's window has moved on: a ticket pending there
        // would be answered from it, not from its own.
        if let Some(i) = self.pending.iter().position(|t| t.shard == 0) {
            self.pending.remove(i);
        }
        let width = self.window_buf.shape()[1];
        self.windows[0].write_newest_rows_into(
            &mut self.window_buf.data_mut()[(MAX_SWEEP - served) * width..],
        );
        // In the functional path the "accelerator" is the host: it runs
        // the tiny model on the staged windows before the next sweep.
        self.registry
            .forward_slides(self.active, &self.window_buf, served, &mut self.preds);
        self.inferences += served as u64;
        for (i, snap) in snaps[snaps.len() - served..].iter().enumerate() {
            let prediction = self.preds[i];
            sink(match self.trading.on_prediction(&prediction, snap) {
                Ok(order) => TickOutcome::Order { prediction, order },
                Err(reason) => TickOutcome::NoOrder { prediction, reason },
            });
        }
    }

    /// Pushes `snapshot`'s feature row into `shard`'s window, returning
    /// the tick's id once the window is warm.
    fn push(&mut self, shard: usize, snapshot: &LobSnapshot) -> Option<u64> {
        let warm = self.windows[shard].push(snapshot);
        let tick_id = self.ticks[shard];
        self.ticks[shard] += 1;
        warm.then_some(tick_id)
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
        let ticket = ShardTicket {
            shard,
            ticket: TensorTicket {
                tick_id: self.push(shard as usize, snapshot)?,
                tick_ts: snapshot.ts,
                ready_at: ts,
            },
        };
        match self.pending.iter_mut().find(|t| t.shard == shard) {
            Some(older) => *older = ticket,
            None => self.pending.push(ticket),
        }
        Some(ticket)
    }

    /// Serves every pending ticket (oldest first across all shards, at
    /// most one per shard) with **one** batched forward of the active
    /// tier, pushing `(ticket, prediction)` pairs onto `out` (which is
    /// cleared first) in drain order. Returns the number of queries
    /// served.
    ///
    /// Steady-state drains at or below the largest batch seen are
    /// allocation-free: tickets, staging lanes, and predictions all live
    /// in recycled buffers (`lt-pipeline`'s `tests/zero_alloc.rs`).
    pub fn drain_batch(&mut self, out: &mut Vec<(ShardTicket, Prediction)>) -> usize {
        out.clear();
        let n = self.pending.len();
        if n == 0 {
            return 0;
        }
        let model = self.registry.model(self.active).expect("a registered tier");
        let shape = [model.window(), model.features()];
        if self.lanes.first().is_some_and(|lane| lane.shape() != shape) {
            self.lanes.clear();
        }
        while self.lanes.len() < n {
            self.lanes.push(Tensor::zeros(&shape));
        }
        for (t, lane) in self.pending.iter().zip(&mut self.lanes) {
            self.windows[t.shard as usize].write_newest_rows_into(lane.data_mut());
        }
        self.registry
            .forward_batch(self.active, &self.lanes[..n], &mut self.preds);
        self.inferences += n as u64;
        self.batches += 1;
        out.extend(self.pending.drain(..).zip(self.preds.iter().copied()));
        n
    }
}

impl std::fmt::Debug for LightTrader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LightTrader")
            .field("model", &self.active)
            .field("inferences", &self.inferences())
            .field("position", &self.trading.position())
            .field("orders_sent", &self.trading.orders_sent())
            .finish()
    }
}

#[cfg(test)]
impl LightTraderBuilder {
    /// Registers additional model tiers alongside the preferred kind so
    /// the system can serve at any of them ([`LightTrader::serve_tier`])
    /// without a rebuild — the substrate for deadline-aware anytime
    /// inference. The preferred kind is always registered; the feature
    /// window is sized for the widest registered tier.
    #[must_use]
    fn tier_models(mut self, kinds: &[ModelKind]) -> Self {
        self.tiers = kinds.to_vec();
        self
    }
}

#[cfg(test)]
impl LightTrader {
    /// Switches the serving tier (anytime inference: a deadline-aware
    /// scheduler degrades to a cheaper registered tier under load).
    ///
    /// # Panics
    ///
    /// Panics when `kind` was not registered at build time
    /// (`LightTraderBuilder::tier_models`).
    fn serve_tier(&mut self, kind: ModelKind) {
        assert!(
            self.registry.contains(kind),
            "{kind} is not a registered tier"
        );
        self.active = kind;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lt_feed::{HawkesParams, MultiSessionBuilder, SessionBuilder, TickRecord};

    /// Serves a recorded trace's ticks from their book snapshots, each
    /// one a sweep of one, returning one outcome per tick.
    fn serve_ticks(system: &mut LightTrader, ticks: &[TickRecord]) -> Vec<TickOutcome> {
        let mut outcomes = Vec::with_capacity(ticks.len());
        for tick in ticks {
            system.serve(std::slice::from_ref(&tick.snapshot), |o| outcomes.push(o));
        }
        outcomes
    }

    /// How many of `outcomes` sent an order.
    fn orders(outcomes: &[TickOutcome]) -> usize {
        outcomes
            .iter()
            .filter(|o| matches!(o, TickOutcome::Order { .. }))
            .count()
    }

    /// The model output an outcome carries: `None` while warming up.
    fn prediction_of(outcome: &TickOutcome) -> Option<Prediction> {
        match outcome {
            TickOutcome::Warmup => None,
            TickOutcome::NoOrder { prediction, .. } | TickOutcome::Order { prediction, .. } => {
                Some(*prediction)
            }
        }
    }

    #[test]
    fn warms_up_then_infers() {
        let mut system = LightTrader::builder(ModelKind::VanillaCnn).seed(1).build();
        let session = SessionBuilder::new(HawkesParams::new(200.0, 30.0, 100.0))
            .duration_secs(0.5)
            .seed(2)
            .build();
        // A minimal Add event per tick, carrying the tick's timestamp.
        let events: Vec<MarketEvent> = (1..)
            .zip(session.trace.iter().take(60))
            .map(|(id, tick)| MarketEvent {
                seq: 1,
                ts: tick.ts,
                kind: lt_lob::events::MarketEventKind::Book(lt_lob::BookDelta::Add {
                    id: lt_lob::OrderId::new(id),
                    side: lt_lob::Side::Bid,
                    price: lt_lob::Price::new(100),
                    qty: lt_lob::Qty::new(1),
                }),
            })
            .collect();
        let outcomes = one_by_one(&mut system, &events);
        let warmups = outcomes
            .iter()
            .filter(|o| **o == TickOutcome::Warmup)
            .count();
        let decided = outcomes.len() - warmups;
        // The CNN window is 20 ticks: 19 warmups, the rest decided.
        assert_eq!(warmups, 19);
        assert_eq!(decided, 41);
        assert_eq!(system.inferences(), 41);
    }

    #[test]
    fn replay_generates_orders_on_realistic_flow() {
        let session = SessionBuilder::normal_traffic()
            .duration_secs(0.5)
            .seed(3)
            .build();
        let mut system = LightTrader::builder(ModelKind::VanillaCnn)
            .seed(7)
            .normalization(session.norm.clone())
            .build();
        let outcomes = serve_ticks(&mut system, &session.trace.ticks);
        assert!(system.inferences() > 100);
        // Random-weight models still fire sometimes; position stays capped.
        assert!(system.position().unsigned_abs() <= 50);
        for (tick, outcome) in session.trace.iter().zip(&outcomes) {
            let TickOutcome::Order { order, .. } = outcome else {
                continue;
            };
            assert!(tick.ts.nanos() > 0);
            // Orders round-trip the binary codec.
            let (decoded, _) = OrderMessage::decode(&order.encode()).unwrap();
            assert_eq!(&decoded, order);
        }
    }

    #[test]
    fn rate_limiter_gates_orders() {
        let session = SessionBuilder::normal_traffic()
            .duration_secs(0.3)
            .seed(3)
            .build();
        // An aggressive strategy (no confidence gate, huge position cap)
        // fires on nearly every non-stationary prediction.
        let aggressive = RiskLimits {
            min_confidence: 0.0,
            max_position: 100_000,
            order_qty: 1,
            max_spread_ticks: 1_000,
        };
        let mut free = LightTrader::builder(ModelKind::VanillaCnn)
            .seed(7)
            .risk(aggressive)
            .normalization(session.norm.clone())
            .build();
        let mut capped = LightTrader::builder(ModelKind::VanillaCnn)
            .seed(7)
            .risk(aggressive)
            .normalization(session.norm.clone())
            .order_rate_limit(5)
            .build();
        let unlimited = orders(&serve_ticks(&mut free, &session.trace.ticks));
        let limited = orders(&serve_ticks(&mut capped, &session.trace.ticks));
        assert!(unlimited > 20, "aggressive strategy fired only {unlimited}");
        assert!(limited < unlimited, "{limited} vs {unlimited}");
        // The 0.5 s session can pass at most ~5/s plus window slop.
        assert!(limited <= 10, "limited sent {limited}");
    }

    #[test]
    fn kill_switch_halts_after_losses() {
        let session = SessionBuilder::normal_traffic()
            .duration_secs(0.3)
            .seed(3)
            .build();
        // A zero-loss floor trips on the first negative mark.
        let mut system = LightTrader::builder(ModelKind::VanillaCnn)
            .seed(7)
            .normalization(session.norm.clone())
            .kill_switch(-1)
            .build();
        let with_kill = orders(&serve_ticks(&mut system, &session.trace.ticks));
        let mut free = LightTrader::builder(ModelKind::VanillaCnn)
            .seed(7)
            .normalization(session.norm.clone())
            .build();
        let without = orders(&serve_ticks(&mut free, &session.trace.ticks));
        // The switch can only reduce (or match) order flow.
        assert!(with_kill <= without);
    }

    #[test]
    fn drawdown_on_held_position_trips_kill_with_no_orders_in_flight() {
        let book = |bid: i64, ask: i64| lt_lob::LobSnapshot {
            ts: Timestamp::ZERO,
            bids: vec![lt_lob::SnapshotLevel {
                price: lt_lob::Price::new(bid),
                qty: lt_lob::Qty::new(10),
            }],
            asks: vec![lt_lob::SnapshotLevel {
                price: lt_lob::Price::new(ask),
                qty: lt_lob::Qty::new(10),
            }],
        };
        let mut system = LightTrader::builder(ModelKind::VanillaCnn)
            .kill_switch(-5)
            .build();
        // Establish a long position: buy 1 at the 101 ask.
        let up = Prediction::new([0.9, 0.05, 0.05]);
        system.trading.on_prediction(&up, &book(99, 101)).unwrap();
        assert_eq!(system.position(), 1);
        // The market gaps down while the model stays Stationary — no
        // order is ever proposed, yet the held position is 11 ticks
        // under water (mid 90 vs. 101 entry), breaching the −5 floor.
        // The trip P&L itself is pinned in `lt_pipeline::trading`'s tests.
        let stationary = Prediction::new([0.05, 0.9, 0.05]);
        assert_eq!(
            system.trading.on_prediction(&stationary, &book(89, 91)),
            Err(NoOrderReason::Killed),
            "the breach tick itself must halt"
        );
        // Trading stays halted on subsequent ticks.
        assert_eq!(
            system.trading.on_prediction(&up, &book(99, 101)),
            Err(NoOrderReason::Killed)
        );
        assert_eq!(system.orders_sent(), 1, "only the position-opening order");
    }

    #[test]
    fn mark_to_market_uses_exact_half_tick_mid() {
        let mut system = LightTrader::builder(ModelKind::VanillaCnn).build();
        // Long 1 from 102 on an odd-spread book: 99/102 has mid 100.5.
        let up = Prediction::new([0.9, 0.05, 0.05]);
        let book = lt_lob::LobSnapshot {
            ts: Timestamp::ZERO,
            bids: vec![lt_lob::SnapshotLevel {
                price: lt_lob::Price::new(99),
                qty: lt_lob::Qty::new(10),
            }],
            asks: vec![lt_lob::SnapshotLevel {
                price: lt_lob::Price::new(102),
                qty: lt_lob::Qty::new(10),
            }],
        };
        system.trading.on_prediction(&up, &book).unwrap();
        // Mirror the book into the local mirror via direct snapshot math:
        // the engine-side mark agrees with the half-tick mid exactly.
        assert_eq!(book.mid_half_ticks(), Some(201));
        assert_eq!(
            system.trading.mark_to_market_half(201),
            201 - 204,
            "−1.5 ticks, representable only in half-ticks"
        );
    }

    #[test]
    fn suppression_counters_agree_with_outcomes() {
        let session = SessionBuilder::normal_traffic()
            .duration_secs(0.3)
            .seed(3)
            .build();
        let aggressive = RiskLimits {
            min_confidence: 0.0,
            max_position: 100_000,
            order_qty: 1,
            max_spread_ticks: 1_000,
        };
        // A tight rate limit exercises the gate that used to bypass the
        // counters.
        let mut system = LightTrader::builder(ModelKind::VanillaCnn)
            .seed(7)
            .risk(aggressive)
            .normalization(session.norm.clone())
            .order_rate_limit(5)
            .build();
        let mut sent = 0u64;
        let mut no_orders = 0u64;
        let mut rate_limited = 0u64;
        for outcome in serve_ticks(&mut system, &session.trace.ticks) {
            match outcome {
                TickOutcome::Warmup => {}
                TickOutcome::Order { .. } => sent += 1,
                TickOutcome::NoOrder { reason, .. } => {
                    no_orders += 1;
                    if reason == NoOrderReason::RateLimited {
                        rate_limited += 1;
                    }
                }
            }
        }
        // Every inference is exactly one order or one suppression, and
        // the engine/limiter counters must agree with the outcomes.
        assert_eq!(system.inferences(), sent + no_orders);
        assert_eq!(system.orders_sent(), sent);
        assert_eq!(system.suppressed(), no_orders);
        assert_eq!(system.rate_limited(), rate_limited);
        assert!(rate_limited > 0, "rate limiter never engaged");

        // Same invariant through the kill-switch path.
        let mut killed_system = LightTrader::builder(ModelKind::VanillaCnn)
            .seed(7)
            .risk(aggressive)
            .normalization(session.norm.clone())
            .kill_switch(-1)
            .build();
        let outcomes = serve_ticks(&mut killed_system, &session.trace.ticks);
        let killed = outcomes
            .iter()
            .filter(|o| {
                matches!(
                    o,
                    TickOutcome::NoOrder {
                        reason: NoOrderReason::Killed,
                        ..
                    }
                )
            })
            .count() as u64;
        let decided = outcomes
            .iter()
            .filter(|o| **o != TickOutcome::Warmup)
            .count() as u64;
        let kill_orders = orders(&outcomes) as u64;
        assert!(killed > 0, "kill switch never engaged");
        assert_eq!(killed_system.inferences(), decided);
        assert_eq!(
            killed_system.suppressed(),
            decided - kill_orders,
            "kill-switch suppressions must land in the counter"
        );
    }

    #[test]
    fn tier_switching_serves_each_registered_model() {
        let session = SessionBuilder::normal_traffic()
            .duration_secs(0.4)
            .seed(3)
            .build();
        let mut system = LightTrader::builder(ModelKind::DeepLob)
            .seed(7)
            .tier_models(&ModelKind::ALL)
            .normalization(session.norm.clone())
            .build();
        // Serve a stretch at each tier on the same staged window; every
        // tier must produce valid predictions from the shared pipeline.
        let mut per_tier = [0u64; 3];
        for (chunk, tick) in session.trace.iter().enumerate() {
            let tier = ModelKind::ALL[(chunk / 50) % 3];
            system.serve_tier(tier);
            let outcome = &serve_ticks(&mut system, std::slice::from_ref(tick))[0];
            let Some(prediction) = prediction_of(outcome) else {
                continue;
            };
            let sum: f32 = prediction.probs.iter().sum();
            assert!((sum - 1.0).abs() < 1e-3, "{tier}: {:?}", prediction.probs);
            per_tier[(chunk / 50) % 3] += 1;
        }
        assert!(
            per_tier.iter().all(|&n| n > 0),
            "every tier served: {per_tier:?}"
        );
        // A degraded (cheaper) tier slices the trailing window of the
        // wide staged input; the preferred tier uses it whole.
        let max_window = system.registry.max_window();
        assert_eq!(
            max_window,
            system.registry.model(ModelKind::DeepLob).unwrap().window()
        );
        assert!(
            system
                .registry
                .model(ModelKind::VanillaCnn)
                .unwrap()
                .window()
                < max_window,
            "ladder spans distinct windows"
        );
    }

    /// What `kind` must count after `served` inferences of which `first`
    /// opened a stretch: TransLOB has no streaming trunk and runs every
    /// window whole.
    fn streamed(kind: ModelKind, served: u64, first: u64) -> StreamStats {
        let misses = if kind == ModelKind::TransLob {
            served
        } else {
            first
        };
        StreamStats {
            hits: served - misses,
            misses,
        }
    }

    /// One stream, one query per warm tick: after a tier's first query
    /// every window is the previous one slid by a row.
    #[test]
    fn clean_replay_misses_once_per_served_tier() {
        let session = SessionBuilder::normal_traffic()
            .duration_secs(0.4)
            .seed(3)
            .build();
        for kind in ModelKind::ALL {
            let mut system = LightTrader::builder(kind)
                .seed(7)
                .normalization(session.norm.clone())
                .build();
            serve_ticks(&mut system, &session.trace.ticks);
            let served = system.inferences();
            assert!(served > 100, "{kind}: {served} inferences");
            assert_eq!(
                system.stream_stats(kind),
                streamed(kind, served, 1),
                "{kind}"
            );
        }
    }

    /// Switching the serving tier costs the tier switched to exactly one
    /// miss (its own last window has gone stale) and changes no answer:
    /// every prediction is bit for bit what a registry that keeps nothing
    /// between calls — `forward_batch` on that one window — returns, so
    /// every outcome downstream of it is the same too.
    #[test]
    fn tier_switches_cost_one_miss_each_and_change_no_answer() {
        let session = SessionBuilder::normal_traffic()
            .duration_secs(0.4)
            .seed(3)
            .build();
        let mut system = LightTrader::builder(ModelKind::DeepLob)
            .seed(7)
            .tier_models(&ModelKind::ALL)
            .normalization(session.norm.clone())
            .build();
        let mut stateless = ModelRegistry::tiny(7);
        let mut alone = Vec::new();
        let mut served = [0u64; 3];
        let mut stretches = [0u64; 3];
        let mut last = None;
        for (i, tick) in session.trace.iter().enumerate() {
            let t = (i / 37) % 3;
            system.serve_tier(ModelKind::ALL[t]);
            let outcome = &serve_ticks(&mut system, std::slice::from_ref(tick))[0];
            let Some(prediction) = prediction_of(outcome) else {
                continue;
            };
            let model = stateless.model(ModelKind::ALL[t]).expect("registered");
            let (window, features) = (model.window(), model.features());
            let staged = system.window_buf.data();
            let trailing = staged[staged.len() - window * features..].to_vec();
            let input = Tensor::from_vec(trailing, &[window, features]);
            stateless.forward_batch(ModelKind::ALL[t], &[input], &mut alone);
            assert_eq!(
                prediction.probs.map(f32::to_bits),
                alone[0].probs.map(f32::to_bits),
                "tick {i} on {}",
                ModelKind::ALL[t]
            );
            served[t] += 1;
            stretches[t] += u64::from(last != Some(t));
            last = Some(t);
        }
        assert!(stretches.iter().all(|&n| n >= 2), "{stretches:?}");
        for (t, kind) in ModelKind::ALL.into_iter().enumerate() {
            let want = streamed(kind, served[t], stretches[t]);
            assert_eq!(system.stream_stats(kind), want, "{kind}");
        }
    }

    /// The first `n` market events of a seeded agent flow against a real
    /// matching engine, 5 ms apart.
    fn flow_events(seed: u64, n: usize) -> Vec<MarketEvent> {
        let params = lt_feed::AgentParams::default();
        let mut flow = lt_feed::AgentFlow::new(Symbol::new("ESU6"), params, seed);
        let mut events = Vec::new();
        for tick in 1.. {
            events.extend(flow.step(Timestamp::from_micros(5_000 * tick)));
            if events.len() >= n {
                break;
            }
        }
        events.truncate(n);
        events
    }

    /// `events` as one framed, checksummed SBE datagram.
    fn datagram(channel_seq: u32, events: &[MarketEvent]) -> Vec<u8> {
        let encoder = lt_protocol::sbe::SbeEncoder::new();
        let mut payload = Vec::new();
        for event in events {
            payload.extend_from_slice(&encoder.encode(event));
        }
        let sent = Timestamp::from_nanos(1);
        lt_protocol::framing::Datagram::new(channel_seq, sent, events.len() as u16, payload)
            .encode()
    }

    /// The reference intake: `events` fed to `system` one datagram each,
    /// sequenced on from the datagrams it has taken, one outcome per
    /// event. Its parser must take every datagram whole: one event each,
    /// no sequence gap, none rejected.
    fn one_by_one(system: &mut LightTrader, events: &[MarketEvent]) -> Vec<TickOutcome> {
        let mut outcomes = Vec::with_capacity(events.len());
        for event in events {
            let seq = system.parser_stats().packets as u32;
            system.on_datagram_into(&datagram(seq, std::slice::from_ref(event)), &mut outcomes);
        }
        let stats = system.parser_stats();
        assert_eq!(stats.events, stats.packets, "one event per datagram");
        assert_eq!(stats.gap_packets, 0, "no sequence gap");
        assert_eq!((stats.corrupt, stats.duplicates), (0, 0), "none rejected");
        outcomes
    }

    /// A trader with every gate armed, so that decision order shows.
    fn gated(kind: ModelKind) -> LightTrader {
        LightTrader::builder(kind)
            .seed(7)
            .tier_models(&ModelKind::ALL)
            .risk(RiskLimits {
                min_confidence: 0.0,
                max_position: 100_000,
                order_qty: 1,
                max_spread_ticks: 1_000,
            })
            .order_rate_limit(30)
            .kill_switch(-150)
            .build()
    }

    /// Everything a trader shows of what it did.
    fn books(system: &LightTrader) -> (u64, u64, u64, u64, i64, i64, [StreamStats; 3]) {
        (
            system.inferences(),
            system.orders_sent(),
            system.suppressed(),
            system.rate_limited(),
            system.position(),
            system.cash_ticks(),
            ModelKind::ALL.map(|kind| system.stream_stats(kind)),
        )
    }

    /// A datagram that serves no query — empty, corrupt, or all of it
    /// inside the warm-up — reaches no model.
    #[test]
    fn datagrams_that_serve_nothing_make_no_registry_call() {
        let kind = ModelKind::VanillaCnn;
        let events = flow_events(5, 60);
        let mut system = LightTrader::builder(kind).seed(7).build();
        let mut corrupt = datagram(1, &events[..3]);
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0x40;
        assert!(system.on_datagram(&datagram(0, &[])).is_empty());
        assert!(system.on_datagram(&corrupt).is_empty());
        assert_eq!(system.parser_stats().corrupt, 1);
        // The CNN's window is 20 ticks: 19 events in are all warm-up.
        let outcomes = system.on_datagram(&datagram(2, &events[..19]));
        assert_eq!(outcomes, vec![TickOutcome::Warmup; 19]);
        assert_eq!(system.stream_stats(kind), StreamStats::default());
        assert_eq!(system.inferences(), 0);
        // And the same once warm: one miss, then hits, then nothing moves.
        assert_eq!(system.on_datagram(&datagram(3, &events[19..30])).len(), 11);
        let warm = system.stream_stats(kind);
        assert_eq!(warm, streamed(kind, 11, 1));
        assert!(system.on_datagram(&datagram(4, &[])).is_empty());
        corrupt[..4].copy_from_slice(&5u32.to_le_bytes());
        assert!(system.on_datagram(&corrupt).is_empty());
        assert_eq!(system.parser_stats().corrupt, 2);
        assert_eq!(system.stream_stats(kind), warm);
        assert_eq!(system.inferences(), 11);
    }

    /// A datagram that crosses the warm-up boundary answers `Warmup` for
    /// its leading events, in place, and serves the rest: the first served
    /// window is the stream's one miss, whatever `k` it arrives in.
    #[test]
    fn a_datagram_across_the_warmup_boundary_warms_in_place_and_misses_once() {
        let events = flow_events(6, 40);
        for kind in ModelKind::ALL {
            let mut swept = gated(kind);
            let mut single = gated(kind);
            let window = swept.registry.max_window();
            let cut = window - 8;
            let mut outcomes = swept.on_datagram(&datagram(0, &events[..cut]));
            outcomes.extend(swept.on_datagram(&datagram(1, &events[cut..])));
            assert_eq!(outcomes, one_by_one(&mut single, &events), "{kind}");
            let warmups = outcomes
                .iter()
                .take_while(|o| **o == TickOutcome::Warmup)
                .count();
            assert_eq!(warmups, window - 1, "{kind}");
            assert!(
                !outcomes[warmups..].contains(&TickOutcome::Warmup),
                "{kind}"
            );
            let served = (events.len() - warmups) as u64;
            assert_eq!(
                swept.stream_stats(kind),
                streamed(kind, served, 1),
                "{kind}"
            );
            assert_eq!(books(&swept), books(&single), "{kind}");
        }
    }

    /// Switching the serving tier between two datagrams costs the tier
    /// switched to exactly one miss, on the first window of its next
    /// sweep; the rest of that sweep streams behind it.
    #[test]
    fn a_tier_switch_between_datagrams_costs_the_next_sweeps_first_window() {
        let events = flow_events(7, 24 + 5 + 6 + 4 + 7);
        let mut swept = gated(ModelKind::DeepLob);
        let mut single = gated(ModelKind::DeepLob);
        // Warm-up and one miss, then datagrams of 5, 6, 4 and 7 events on
        // DeepLOB, the CNN, TransLOB and DeepLOB again.
        let legs = [
            (ModelKind::DeepLob, 24),
            (ModelKind::DeepLob, 5),
            (ModelKind::VanillaCnn, 6),
            (ModelKind::TransLob, 4),
            (ModelKind::DeepLob, 7),
        ];
        let mut want = [StreamStats::default(); 3];
        let mut at = 0;
        for (seq, (kind, k)) in legs.into_iter().enumerate() {
            swept.serve_tier(kind);
            single.serve_tier(kind);
            let leg = &events[at..at + k];
            at += k;
            let outcomes = swept.on_datagram(&datagram(seq as u32, leg));
            assert_eq!(
                outcomes,
                one_by_one(&mut single, leg),
                "leg {seq} on {kind}"
            );
            // Leg 0 serves only its last event; DeepLOB's later legs follow
            // its own last window (leg 1) or a stretch it sat out (leg 4).
            let (served, first) = match seq {
                0 => (1, 1),
                1 => (k as u64, 0),
                _ => (k as u64, 1),
            };
            let leg_stats = streamed(kind, served, first);
            want[kind.index()].hits += leg_stats.hits;
            want[kind.index()].misses += leg_stats.misses;
            let stats = ModelKind::ALL.map(|tier| swept.stream_stats(tier));
            assert_eq!(stats, want, "leg {seq} on {kind}");
        }
        assert_eq!(books(&swept), books(&single));
    }

    /// The event count of a datagram is its sender's to choose: 300 of
    /// them are 300 one-event datagrams, served in bounded sweeps that leave
    /// every staging buffer the size a 16-event datagram leaves it.
    #[test]
    fn a_300_event_datagram_is_300_events_in_bounded_sweeps() {
        let events = flow_events(8, 30 + 300);
        for kind in ModelKind::ALL {
            let mut swept = gated(kind);
            let mut small = gated(kind);
            let mut single = gated(kind);
            let warm_up = datagram(0, &events[..30]);
            let mut outcomes = swept.on_datagram(&warm_up);
            small.on_datagram(&warm_up);
            small.on_datagram(&datagram(1, &events[30..30 + MAX_SWEEP]));
            outcomes.extend(swept.on_datagram(&datagram(1, &events[30..])));
            assert_eq!(outcomes.len(), 330, "{kind}");
            assert_eq!(outcomes, one_by_one(&mut single, &events), "{kind}");
            assert_eq!(books(&swept), books(&single), "{kind}");
            assert_eq!(
                swept.stream_stats(kind),
                streamed(kind, 330 - 23, 1),
                "{kind}"
            );
            let staging = |system: &LightTrader| {
                (
                    system.window_buf.len(),
                    system.snaps.len(),
                    system.preds.capacity(),
                )
            };
            assert_eq!(staging(&swept), staging(&small), "{kind}");
        }
    }

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
                singles[shard].write_newest_rows_into(alone.data_mut());
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

    /// Drained every other round, a shard's ticket can wait while its
    /// shard ticks again. The newer tick replaces it, and every answer is
    /// its own tick's batch-1 forward, bit for bit. (This covers what
    /// `duplicate_shard_in_one_batch_panics` guarded: a drain cannot meet
    /// one shard twice.)
    #[test]
    fn a_ticket_is_answered_with_its_own_window() {
        let multi = session(2, 9);
        let norms: Vec<NormStats> = multi.sessions.iter().map(|s| s.norm.clone()).collect();
        let mut trader = MultiSymbolTrader::new(ModelKind::VanillaCnn, norms.clone(), 5);
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
                    singles[shard].write_newest_rows_into(alone.data_mut());
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
            if round % 2 == 0 {
                continue;
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
        assert_eq!(trader.inferences(), answered as u64);
    }

    /// Shard 0 takes both intakes. A datagram tick served there moves
    /// its window on, so the ticket `on_tick` left pending on it is
    /// superseded, not answered from the newer window.
    #[test]
    fn a_served_datagram_tick_supersedes_the_traded_shards_ticket() {
        let events = flow_events(5, 26);
        let session = SessionBuilder::normal_traffic()
            .duration_secs(0.3)
            .seed(3)
            .build();
        let mut system = LightTrader::builder(ModelKind::VanillaCnn).seed(7).build();
        // The CNN's window is 20 ticks: events 19 to 24 are served.
        one_by_one(&mut system, &events[..25]);
        let tick = &session.trace.ticks[0];
        let ticket = system.on_tick(0, &tick.snapshot, tick.ts);
        assert_eq!(ticket.map(|t| t.ticket.tick_id), Some(25));
        assert_ne!(
            one_by_one(&mut system, &events[25..]),
            [TickOutcome::Warmup]
        );
        let mut out = Vec::new();
        assert_eq!(system.drain_batch(&mut out), 0, "answered {out:?}");
        assert_eq!(system.queue_len(), 0, "the superseded ticket is dropped");
        assert_eq!(system.inferences(), 7);
    }

    /// A drain's lanes are the active tier's window: switching tiers
    /// between drains changes no answer from a batch-1 forward of that
    /// tier on the ticket's trailing window.
    #[test]
    fn drains_serve_the_active_tier_across_switches() {
        let multi = session(3, 17);
        let norms: Vec<NormStats> = multi.sessions.iter().map(|s| s.norm.clone()).collect();
        let mut trader = LightTraderBuilder {
            norms: norms.clone(),
            ..LightTrader::builder(ModelKind::DeepLob)
                .seed(5)
                .tier_models(&ModelKind::ALL)
        }
        .build();
        let mut reference = ModelRegistry::tiny(5);
        let window = trader.windows[0].window();
        let mut singles: Vec<FeatureWindow> = norms
            .into_iter()
            .map(|n| FeatureWindow::new(n, window))
            .collect();
        let (mut alone, mut out) = (Vec::new(), Vec::new());
        let mut served = [0usize; 3];
        let rounds = multi.sessions.iter().map(|s| s.trace.len()).min().unwrap();
        for round in 0..rounds.min(window + 42) {
            let t = (round / 7) % 3;
            let kind = ModelKind::ALL[t];
            trader.serve_tier(kind);
            for (shard, session) in multi.sessions.iter().enumerate() {
                let tick = &session.trace.ticks[round];
                trader.on_tick(shard as u16, &tick.snapshot, tick.ts);
                singles[shard].push(&tick.snapshot);
            }
            trader.drain_batch(&mut out);
            let model = reference.model(kind).expect("registered");
            let shape = [model.window(), model.features()];
            for (ticket, prediction) in &out {
                let shard = ticket.shard as usize;
                let mut lane = Tensor::zeros(&shape);
                singles[shard].write_newest_rows_into(lane.data_mut());
                reference.forward_batch(kind, &[lane], &mut alone);
                assert_eq!(
                    prediction.probs.map(f32::to_bits),
                    alone[0].probs.map(f32::to_bits),
                    "round {round} shard {shard} on {kind}"
                );
                served[t] += 1;
            }
        }
        assert!(served.iter().all(|&n| n > 0), "{served:?}");
    }

    #[test]
    #[should_panic(expected = "not a registered tier")]
    fn serving_an_unregistered_tier_panics() {
        let mut system = LightTrader::builder(ModelKind::VanillaCnn).build();
        system.serve_tier(ModelKind::DeepLob);
    }

    #[test]
    fn debug_format_is_informative() {
        let system = LightTrader::builder(ModelKind::TransLob).build();
        let s = format!("{system:?}");
        assert!(s.contains("TransLOB") || s.contains("TransLob"));
    }
}
