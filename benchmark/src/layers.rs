//! The one file that calls into single layers of the program.
//!
//! End-to-end numbers come from the facade (`LightTrader`,
//! `MultiSymbolTrader`, `FarmRunner`); everything that reaches below it
//! lives here, so a later API move touches this file only. The shadow
//! paths mirror `LightTrader::process_event` and
//! `MultiSymbolTrader::{on_tick, drain_batch}` call for call, with a
//! span around each call; their output digest must equal the facade's,
//! which is what makes the layer table a decomposition of the same
//! program.

use crate::inputs::DEPTH;
use crate::trace::Recorder;
use lighttrader::dnn::{ModelKind, ModelRegistry, Prediction, Tensor};
use lighttrader::feed::NormStats;
use lighttrader::feed::SessionArtifact;
use lighttrader::lob::{LobSnapshot, MarketEvent, Symbol, Timestamp};
use lighttrader::pipeline::trading::NoOrderReason;
use lighttrader::pipeline::{
    FeedArbiter, FeedId, LocalBook, MultiOffload, OffloadEngine, PacketParser, ParserStats,
    PipelineLatencies, RiskLimits, ShardTicket, TensorTicket, TradingEngine,
};
use lighttrader::protocol::framing::Datagram;
use lighttrader::protocol::sbe::SbeDecoder;
use lighttrader::sim::farm::{CellSummary, FarmCell};
use lighttrader::sim::{run_lighttrader, BacktestMetrics, Stage};
use lighttrader::TickOutcome;

/// Every span name, layer = module path. Index 0 is the root span of an
/// operation.
pub const SPANS: [&str; 19] = [
    "op",
    "pipeline.parser.ingest",
    "protocol.framing.decode",
    "protocol.sbe.decode_all",
    "pipeline.arbiter.on_packet_events",
    "pipeline.local_book.apply",
    "pipeline.local_book.snapshot_into",
    "pipeline.offload.on_tick_staged",
    "pipeline.offload.stage_window",
    "dnn.registry.forward",
    "pipeline.multi_offload.on_tick_staged",
    "pipeline.multi_offload.pop_batch_into",
    "pipeline.multi_offload.write_shard_window_into",
    "dnn.registry.forward_batch",
    "pipeline.trading.on_prediction",
    "protocol.ilink.encode",
    "sim.run_lighttrader",
    "feed.session_build",
    "harness.outputs",
];

/// Indices into [`SPANS`].
pub mod span {
    pub const OP: u8 = 0;
    pub const PARSER_INGEST: u8 = 1;
    pub const FRAMING_DECODE: u8 = 2;
    pub const SBE_DECODE_ALL: u8 = 3;
    pub const ARBITER: u8 = 4;
    pub const BOOK_APPLY: u8 = 5;
    pub const SNAPSHOT_INTO: u8 = 6;
    pub const ON_TICK_STAGED: u8 = 7;
    pub const STAGE_WINDOW: u8 = 8;
    pub const FORWARD: u8 = 9;
    pub const MULTI_ON_TICK_STAGED: u8 = 10;
    pub const MULTI_POP_BATCH: u8 = 11;
    pub const MULTI_WRITE_WINDOW: u8 = 12;
    pub const FORWARD_BATCH: u8 = 13;
    pub const ON_PREDICTION: u8 = 14;
    pub const ILINK_ENCODE: u8 = 15;
    pub const RUN_LIGHTTRADER: u8 = 16;
    pub const SESSION_BUILD: u8 = 17;
    /// The benchmark's own output logging, timed so that it is not
    /// charged to the layer that happens to follow it.
    pub const OUTPUTS: u8 = 18;
}

/// Spans recorded outside any operation, so not part of the sum that
/// must reconcile with the facade: the parser's two callees re-run on
/// the same bytes after the operation has ended, and the session build.
pub fn is_isolated(name: u8) -> bool {
    matches!(
        name,
        span::FRAMING_DECODE | span::SBE_DECODE_ALL | span::SESSION_BUILD
    )
}

/// Ticket-queue capacity, as `LightTraderBuilder::build` sets it.
const QUEUE_CAPACITY: usize = 64;

/// Risk limits that never bind, so every post-warm-up event ends in
/// encoded order bytes or a model-level suppression (a stationary
/// prediction), never in a risk gate.
pub fn open_risk() -> RiskLimits {
    RiskLimits {
        min_confidence: 0.0,
        max_position: 10_000_000,
        order_qty: 1,
        max_spread_ticks: 1_000_000,
    }
}

/// Everything a pass put out, appended as it is produced and digested
/// after the clock has stopped.
#[derive(Debug, Default)]
pub struct Outputs {
    /// The raw output bytes.
    pub bytes: Vec<u8>,
}

impl Outputs {
    /// An empty log with room for `capacity` bytes.
    pub fn with_capacity(capacity: usize) -> Self {
        Outputs {
            bytes: Vec::with_capacity(capacity),
        }
    }

    fn prediction(&mut self, p: &Prediction) {
        for prob in p.probs {
            self.bytes.extend_from_slice(&prob.to_bits().to_le_bytes());
        }
    }

    fn suppressed(&mut self, reason: NoOrderReason) {
        self.bytes.extend_from_slice(&[0xff, reason as u8]);
    }

    /// Logs one facade outcome: the prediction bits, then the encoded
    /// iLink3 order or the suppression reason. Returns false for a
    /// warm-up tick, which puts nothing out.
    pub fn outcome(&mut self, outcome: &TickOutcome) -> bool {
        match outcome {
            TickOutcome::Warmup => return false,
            TickOutcome::NoOrder { prediction, reason } => {
                self.prediction(prediction);
                self.suppressed(*reason);
            }
            TickOutcome::Order { prediction, order } => {
                self.prediction(prediction);
                self.bytes.extend_from_slice(&order.encode());
            }
        }
        true
    }

    /// Logs one batched answer: which query, and the prediction bits.
    pub fn answer(&mut self, ticket: &ShardTicket, prediction: &Prediction) {
        self.bytes.extend_from_slice(&ticket.shard.to_le_bytes());
        self.ticket(&ticket.ticket);
        self.prediction(prediction);
    }

    fn ticket(&mut self, ticket: &TensorTicket) {
        self.bytes.extend_from_slice(&ticket.tick_id.to_le_bytes());
        self.bytes
            .extend_from_slice(&ticket.tick_ts.nanos().to_le_bytes());
    }

    fn floats(&mut self, values: &[f32]) {
        for v in values {
            self.bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }
}

/// The shadow of `LightTrader`: the same components, built the same
/// way, driven in the same order.
pub struct TickPath {
    parser: PacketParser,
    book: LocalBook,
    offload: OffloadEngine,
    registry: ModelRegistry,
    kind: ModelKind,
    trading: TradingEngine,
    tickets: Vec<TensorTicket>,
    window_buf: Tensor,
    snap: LobSnapshot,
    stages: PipelineLatencies,
    decoder: SbeDecoder,
    inferences: u64,
}

impl TickPath {
    /// Mirrors `LightTrader::builder(kind).seed(seed).risk(open_risk())
    /// .normalization(norm).build()`.
    pub fn new(kind: ModelKind, norm: NormStats, seed: u64) -> Self {
        let registry = ModelRegistry::tiny_with_kinds(&[kind], seed);
        let window = registry.max_window();
        let width = norm.depth() * 4;
        TickPath {
            parser: PacketParser::new(),
            book: LocalBook::new(),
            offload: OffloadEngine::new(norm, window, QUEUE_CAPACITY),
            trading: TradingEngine::new(Symbol::new("ESU6"), open_risk()),
            tickets: Vec::with_capacity(4),
            window_buf: Tensor::zeros(&[window, width]),
            snap: LobSnapshot::default(),
            stages: PipelineLatencies::fpga(),
            decoder: SbeDecoder::new(),
            inferences: 0,
            kind,
            registry,
        }
    }

    /// One datagram through the mirrored path, a span around each call.
    /// Returns the number of outcomes and whether any was past warm-up.
    pub fn on_datagram(
        &mut self,
        op: u32,
        bytes: &[u8],
        rec: &mut Recorder,
        out: &mut Outputs,
    ) -> (usize, bool) {
        let begin = rec.begin(op);
        let events = self.parser.ingest(bytes);
        rec.lap(span::PARSER_INGEST);
        let mut attempted = false;
        for event in &events {
            self.book.apply(event);
            rec.lap(span::BOOK_APPLY);
            self.book.snapshot_into(DEPTH, event.ts, &mut self.snap);
            rec.lap(span::SNAPSHOT_INTO);
            self.offload
                .on_tick_staged(&self.snap, event.ts, &self.stages);
            rec.lap(span::ON_TICK_STAGED);
            if !self.offload.is_warm() {
                continue;
            }
            attempted = true;
            self.tickets.clear();
            self.offload.pop_batch_into(usize::MAX, &mut self.tickets);
            assert_eq!(self.tickets.len(), 1, "one ticket per warm tick");
            self.offload.write_window_into(self.window_buf.data_mut());
            rec.lap(span::STAGE_WINDOW);
            let prediction = self.registry.forward(self.kind, &self.window_buf);
            self.inferences += 1;
            rec.lap(span::FORWARD);
            let decision = self.trading.on_prediction(&prediction, &self.snap);
            rec.lap(span::ON_PREDICTION);
            let wire = decision.map(|order| order.encode());
            if wire.is_ok() {
                rec.lap(span::ILINK_ENCODE);
            }
            out.prediction(&prediction);
            match wire {
                Ok(wire) => out.bytes.extend_from_slice(&wire),
                Err(reason) => out.suppressed(reason),
            }
            rec.lap(span::OUTPUTS);
        }
        rec.end(begin);
        // The parser's two callees again on the same bytes, outside the
        // operation, to split `parser.ingest` into framing, SBE and self.
        rec.begin(op);
        let datagram = Datagram::decode(bytes);
        rec.lap(span::FRAMING_DECODE);
        if let Ok(datagram) = datagram {
            let decoded = self.decoder.decode_all(&datagram.payload);
            rec.lap(span::SBE_DECODE_ALL);
            std::hint::black_box(decoded.is_ok());
        }
        (events.len(), attempted)
    }

    /// Counts read at the layer boundaries after a pass.
    pub fn counts(&self) -> Vec<(&'static str, f64)> {
        let mut counts = tick_counts(
            self.parser.stats(),
            self.inferences,
            self.trading.orders_sent(),
            self.trading.suppressed(),
        );
        counts.push((
            "offload.dropped",
            (self.offload.dropped_full() + self.offload.dropped_stale()) as f64,
        ));
        counts
    }
}

/// The same counts as [`TickPath::counts`], read from the facade (which
/// asserts one ticket per warm tick where the shadow counts drops).
pub fn trader_counts(trader: &lighttrader::LightTrader) -> Vec<(&'static str, f64)> {
    tick_counts(
        trader.parser_stats(),
        trader.inferences(),
        trader.orders_sent(),
        trader.suppressed(),
    )
}

/// The tick-to-trade counts of a pass, from either path.
fn tick_counts(
    stats: ParserStats,
    inferences: u64,
    orders_sent: u64,
    suppressed: u64,
) -> Vec<(&'static str, f64)> {
    vec![
        ("parser.packets", stats.packets as f64),
        ("parser.events", stats.events as f64),
        (
            "parser.faults",
            (stats.corrupt + stats.gap_packets + stats.duplicates) as f64,
        ),
        ("core.inferences", inferences as f64),
        ("trading.orders_sent", orders_sent as f64),
        ("trading.suppressed", suppressed as f64),
    ]
}

/// The shadow of `MultiSymbolTrader` at a fixed batch cap.
pub struct BatchPath {
    offload: MultiOffload,
    registry: ModelRegistry,
    kind: ModelKind,
    stages: PipelineLatencies,
    batch_cap: usize,
    tickets: Vec<ShardTicket>,
    lanes: Vec<Tensor>,
    preds: Vec<Prediction>,
    inferences: u64,
    batches: u64,
}

impl BatchPath {
    /// Mirrors `MultiSymbolTrader::new(kind, norms, seed)
    /// .with_batch_cap(batch_cap)` with one batch thread.
    pub fn new(kind: ModelKind, norms: Vec<NormStats>, seed: u64, batch_cap: usize) -> Self {
        let mut registry = ModelRegistry::tiny_with_kinds(&[kind], seed);
        registry.set_batch_threads(1);
        let window = registry.max_window();
        BatchPath {
            offload: MultiOffload::new(norms, window, QUEUE_CAPACITY),
            registry,
            kind,
            stages: PipelineLatencies::fpga(),
            batch_cap,
            tickets: Vec::new(),
            lanes: Vec::new(),
            preds: Vec::new(),
            inferences: 0,
            batches: 0,
        }
    }

    /// One shard's tick, as `MultiSymbolTrader::on_tick`.
    pub fn on_tick(
        &mut self,
        shard: u16,
        snapshot: &LobSnapshot,
        ts: Timestamp,
        rec: &mut Recorder,
    ) {
        self.offload
            .on_tick_staged(shard, snapshot, ts, &self.stages);
        rec.lap(span::MULTI_ON_TICK_STAGED);
    }

    /// One drain, as `MultiSymbolTrader::drain_batch`. Returns the
    /// number of queries served.
    pub fn drain_batch(&mut self, rec: &mut Recorder, out: &mut Outputs) -> usize {
        self.tickets.clear();
        self.offload
            .pop_batch_into(self.batch_cap, &mut self.tickets);
        rec.lap(span::MULTI_POP_BATCH);
        if self.tickets.is_empty() {
            return 0;
        }
        let (window, width) = (self.offload.window(), self.offload.width());
        while self.lanes.len() < self.tickets.len() {
            self.lanes.push(Tensor::zeros(&[window, width]));
        }
        for (i, t) in self.tickets.iter().enumerate() {
            self.offload
                .write_shard_window_into(t.shard as usize, self.lanes[i].data_mut());
            rec.lap(span::MULTI_WRITE_WINDOW);
        }
        self.registry.forward_batch(
            self.kind,
            &self.lanes[..self.tickets.len()],
            &mut self.preds,
        );
        rec.lap(span::FORWARD_BATCH);
        self.inferences += self.preds.len() as u64;
        self.batches += 1;
        for (ticket, prediction) in self.tickets.iter().zip(&self.preds) {
            out.answer(ticket, prediction);
        }
        rec.lap(span::OUTPUTS);
        self.tickets.len()
    }

    /// Counts read at the layer boundaries after a pass.
    pub fn counts(&self) -> Vec<(&'static str, f64)> {
        multi_counts(self.batches, self.inferences)
    }
}

/// The batching counts of a pass, from either path.
pub fn multi_counts(batches: u64, inferences: u64) -> Vec<(&'static str, f64)> {
    vec![
        ("multi.batches", batches as f64),
        ("multi.inferences", inferences as f64),
        (
            "multi.mean_batch",
            if batches == 0 {
                0.0
            } else {
                inferences as f64 / batches as f64
            },
        ),
    ]
}

/// Checks batched answers against batch-1 forwards: replays each
/// shard's ticks through its own single-symbol `OffloadEngine` and
/// compares a batched prediction bit for bit with
/// `ModelRegistry::forward` on that shard's window.
pub struct BatchOneReference {
    registry: ModelRegistry,
    kind: ModelKind,
    singles: Vec<OffloadEngine>,
    stages: PipelineLatencies,
}

impl BatchOneReference {
    /// A reference with the trader's weights and window.
    pub fn new(kind: ModelKind, norms: Vec<NormStats>, seed: u64) -> Self {
        let registry = ModelRegistry::tiny_with_kinds(&[kind], seed);
        let window = registry.max_window();
        BatchOneReference {
            singles: norms
                .into_iter()
                .map(|n| OffloadEngine::new(n, window, QUEUE_CAPACITY))
                .collect(),
            registry,
            kind,
            stages: PipelineLatencies::fpga(),
        }
    }

    /// Feeds one shard's tick to its single-symbol engine.
    pub fn on_tick(&mut self, shard: usize, snapshot: &LobSnapshot, ts: Timestamp) {
        self.singles[shard].on_tick_staged(snapshot, ts, &self.stages);
        self.singles[shard].pop_ticket();
    }

    /// True when the batch-1 forward on `shard`'s current window equals
    /// `batched` bit for bit.
    pub fn matches(&mut self, shard: usize, batched: &Prediction) -> bool {
        let expect = self
            .registry
            .forward(self.kind, &self.singles[shard].latest_tensor());
        expect.probs.map(f32::to_bits) == batched.probs.map(f32::to_bits)
    }
}

/// Feature-window length of the front-end workload: the widest tiny
/// tier's (DeepLOB), what a `LightTrader` with every tier registered
/// stages per tick.
const INGEST_WINDOW: usize = 24;

/// The wire-to-tensor front end with no inference behind it: A/B
/// arbitration and SBE decode, local book, snapshot, offload staging.
/// No facade covers this path (`LightTrader` reads one clean feed), so
/// the end-to-end pass and the traced pass both drive it from here.
pub struct IngestPath {
    arbiter: FeedArbiter,
    book: LocalBook,
    offload: OffloadEngine,
    tickets: Vec<TensorTicket>,
    window_buf: Vec<f32>,
    snap: LobSnapshot,
    stages: PipelineLatencies,
    /// Market events delivered downstream so far.
    pub events: u64,
}

/// Layers of [`IngestPath`] in call order; a traced pass runs the first
/// `depth` of them.
pub const INGEST_LAYERS: [u8; 5] = [
    span::ARBITER,
    span::BOOK_APPLY,
    span::SNAPSHOT_INTO,
    span::ON_TICK_STAGED,
    span::STAGE_WINDOW,
];

impl IngestPath {
    /// A fresh front end.
    pub fn new(norm: NormStats) -> Self {
        let width = norm.depth() * 4;
        IngestPath {
            arbiter: FeedArbiter::new(),
            book: LocalBook::new(),
            offload: OffloadEngine::new(norm, INGEST_WINDOW, QUEUE_CAPACITY),
            tickets: Vec::with_capacity(4),
            window_buf: vec![0.0; INGEST_WINDOW * width],
            snap: LobSnapshot::default(),
            stages: PipelineLatencies::fpga(),
            events: 0,
        }
    }

    /// One packet through the first `depth` layers (all five end to
    /// end). Staged tickets are logged to `out`.
    #[inline]
    pub fn on_packet(&mut self, feed: FeedId, bytes: &[u8], depth: usize, out: &mut Outputs) {
        let events: Vec<MarketEvent> = self.arbiter.on_packet_events(feed, bytes);
        self.events += events.len() as u64;
        if depth < 2 {
            return;
        }
        for event in &events {
            self.book.apply(event);
            if depth < 3 {
                continue;
            }
            self.book.snapshot_into(DEPTH, event.ts, &mut self.snap);
            if depth < 4 {
                continue;
            }
            self.offload
                .on_tick_staged(&self.snap, event.ts, &self.stages);
            if depth < 5 || !self.offload.is_warm() {
                continue;
            }
            self.tickets.clear();
            self.offload.pop_batch_into(usize::MAX, &mut self.tickets);
            self.offload.write_window_into(&mut self.window_buf);
            for ticket in &self.tickets {
                out.ticket(ticket);
            }
        }
    }

    /// Closes the stream after `sent` sequences, logs the last staged
    /// window, and returns the counts read at the layer boundaries.
    pub fn finish(&mut self, sent: u64, out: &mut Outputs) -> Vec<(&'static str, f64)> {
        self.arbiter.close(sent);
        out.floats(&self.window_buf);
        let stats = self.arbiter.stats();
        vec![
            ("arbiter.delivered", stats.delivered as f64),
            ("arbiter.events", stats.events as f64),
            ("arbiter.duplicates", stats.cross_duplicates as f64),
            ("arbiter.corrupt", stats.corrupt as f64),
            ("arbiter.lost", self.arbiter.lost() as f64),
            (
                "arbiter.recovered_a",
                self.arbiter.recovered_for(FeedId::A) as f64,
            ),
            (
                "arbiter.recovered_b",
                self.arbiter.recovered_for(FeedId::B) as f64,
            ),
            (
                "offload.dropped",
                (self.offload.dropped_full() + self.offload.dropped_stale()) as f64,
            ),
        ]
    }
}

/// The session a grid cell replays, built from its spec.
pub fn build_session(cell: &FarmCell) -> SessionArtifact {
    cell.spec.build()
}

/// What a serial run of one grid cell is checked and reported by.
pub struct SerialCell {
    /// The scalar row the farm would have kept.
    pub summary: CellSummary,
    /// Every response's stages sum exactly to its latency.
    pub reconciles: bool,
    /// Simulated `sim.stage.<name>.p50_ns` / `.p99_ns` of this cell.
    pub stages: Vec<(String, f64)>,
}

/// Runs `cell` through `run_lighttrader` directly, outside the farm,
/// keeping the full metrics.
pub fn run_cell_serial(cell: &FarmCell, session: &SessionArtifact) -> BacktestMetrics {
    run_lighttrader(session.trace(), &cell.config)
}

/// Reads the summary, the reconciliation and the stage percentiles off
/// a serial run's metrics.
pub fn serial_cell(metrics: &BacktestMetrics) -> SerialCell {
    let stages = Stage::ALL
        .iter()
        .flat_map(|&stage| {
            [("p50_ns", 0.50), ("p99_ns", 0.99)].map(|(stat, q)| {
                (
                    format!("sim.stage.{}.{stat}", stage.name()),
                    metrics.stage_quantile(stage, q).as_nanos() as f64,
                )
            })
        })
        .collect();
    SerialCell {
        summary: CellSummary::from_metrics(metrics),
        reconciles: metrics.stage_sums_reconcile(0),
        stages,
    }
}
