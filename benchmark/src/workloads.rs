//! The five workloads. Each generates its inputs from the seed, runs
//! passes through the facade on a freshly built system, and can run the
//! same input through the traced shadow path of `layers.rs`.

use crate::harness::{self, Fnv, Group, Pass};
use crate::inputs::{self, AbSession, WireSession};
use crate::layers::{self, span, BatchOneReference, BatchPath, IngestPath, Outputs, TickPath};
use crate::trace::{Recorder, Span, SpanTable};
use lighttrader::prelude::*;
use lighttrader::sim::farm::{CellSummary, FarmCell};
use lighttrader::sim::traffic;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Seed of every model's weights: the workload seed varies the traffic,
/// not the program.
const WEIGHT_SEED: u64 = 7;

/// How much traffic a workload generates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Size {
    /// The measured size.
    Full,
    /// A few hundred operations per workload, for the crate's tests.
    Smoke,
}

impl Size {
    fn secs(self, full: f64, smoke: f64) -> f64 {
        match self {
            Size::Full => full,
            Size::Smoke => smoke,
        }
    }
}

/// What one group of traced passes of a workload found.
#[derive(Debug, Default)]
pub struct Traced {
    /// Per span name ([`layers::SPANS`]), span durations in ns, each the
    /// fastest across the group's passes, warm-up operations left out.
    pub samples: Vec<Vec<f64>>,
    /// Layer calls one sample covers: 1, or the block size where single
    /// calls are too short to time.
    pub calls_per_sample: f64,
    /// Output digest of the shadow path; must equal the facade's.
    pub digest: u64,
    /// Counts read at the layer boundaries.
    pub counts: Vec<(String, f64)>,
    /// Wall time of the fastest traced pass, ns.
    pub wall_ns: u64,
    /// Checks that failed inside the traced passes.
    pub failed: u64,
    /// `trace.json` of the group's first pass.
    pub json: String,
}

/// One workload: inputs made from a seed, and the ways to run them.
pub trait Workload {
    /// Operations in one full pass, warm-up included.
    fn ops(&self) -> usize;

    /// One pass over the first `limit` operations, through the facade,
    /// on a freshly built system.
    fn pass(&self, limit: usize) -> Pass;

    /// Operations of the warm-up prefix that is part of set-up: enough
    /// to fill every feature window and pay for lazy initialisation.
    fn warm_up_ops(&self) -> usize {
        (self.ops() / 8).max(32).min(self.ops())
    }

    /// What `op_p50_us` and `op_tail_us` summarise, given the time of
    /// every attempted facade call: the call itself, unless one call
    /// covers many operations or requests arrive on their own schedule.
    fn latency_ns(&self, call_ns: &[f64]) -> Vec<f64> {
        call_ns.to_vec()
    }

    /// Output checks beyond those every pass makes; returns failures.
    fn verify(&self) -> u64 {
        0
    }

    /// One group of `passes` traced passes.
    fn traced(&self, passes: usize) -> Traced;

    /// What a traced pass costs, in facade passes: a traced run splits
    /// its seconds by it.
    fn traced_pass_cost(&self) -> f64 {
        1.0
    }

    /// Layer metrics only this workload has, from a group's
    /// per-operation service times and its counts.
    fn layer_extras(&self, _service_ns: &[f64], _group: &Group) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}

/// Builds workload `name` from `seed`.
pub fn build(name: &str, seed: u64, size: Size) -> Option<Box<dyn Workload>> {
    Some(match name {
        "t2t_cnn" => Box::new(TickWorkload {
            kind: ModelKind::VanillaCnn,
            wire: inputs::wire_session(
                HawkesParams::new(400.0, 160.0, 200.0),
                None,
                size.secs(20.0, 0.5),
                seed,
            ),
            open_loop: false,
        }),
        "storm_deeplob" => Box::new(TickWorkload {
            kind: ModelKind::DeepLob,
            wire: inputs::wire_session(
                traffic::evaluation_hawkes(),
                Some(traffic::burst_storm_flash()),
                size.secs(20.0, 1.0),
                seed,
            ),
            open_loop: true,
        }),
        "multi_translob" => Box::new(MultiWorkload::new(seed, size)),
        "ingest_ab" => Box::new(IngestWorkload::new(seed, size)),
        "backtest_grid" => Box::new(GridWorkload::new(seed, size)),
        _ => return None,
    })
}

fn digest(out: &Outputs) -> u64 {
    let mut h = Fnv::default();
    h.write(&out.bytes);
    h.finish()
}

/// Closes a facade pass: digests its output log and notes what the log
/// and the per-operation times take in memory.
fn seal(pass: &mut Pass, out: &Outputs) {
    pass.digest = digest(out);
    pass.log_bytes = (out.bytes.len() + 4 * pass.op_ns.len()) as u64;
}

/// Fails the whole pass (every attempted operation) unless `ok`.
fn gate(pass: &mut Pass, ok: bool) {
    if !ok {
        pass.failed = pass.op_ns.len().max(1) as u64;
    }
}

// ------------------------------------------------------------ tick-to-trade

/// Datagrams through `LightTrader::on_datagram`, every order encoded:
/// `t2t_cnn` and `storm_deeplob`.
struct TickWorkload {
    kind: ModelKind,
    wire: WireSession,
    /// Requests arrive at the datagrams' own timestamps, whatever the
    /// system is doing: latency runs from each datagram's due time.
    open_loop: bool,
}

impl TickWorkload {
    /// Due times of the last `n` datagrams: the attempted ones, the
    /// warm-up being a prefix.
    fn due(&self, n: usize) -> &[u64] {
        &self.wire.due_ns[self.ops() - n..]
    }

    /// The pass-level output checks shared by facade and shadow.
    fn check(&self, pass: &mut Pass, limit: usize) {
        let ok = pass.count("parser.packets") == limit as f64
            && pass.count("parser.faults") == 0.0
            && pass.count("offload.dropped") == 0.0
            && pass.count("core.inferences")
                == pass.count("trading.orders_sent") + pass.count("trading.suppressed");
        gate(pass, ok);
    }
}

impl Workload for TickWorkload {
    fn ops(&self) -> usize {
        self.wire.datagrams.len()
    }

    fn pass(&self, limit: usize) -> Pass {
        let mut trader = LightTrader::builder(self.kind)
            .seed(WEIGHT_SEED)
            .risk(layers::open_risk())
            .normalization(self.wire.norm.clone())
            .build();
        let mut out = Outputs::with_capacity(limit * 96);
        let mut pass = Pass {
            op_ns: Vec::with_capacity(limit),
            ..Pass::default()
        };
        let start = Instant::now();
        let mut last = 0u64;
        for i in 0..limit {
            let outcomes = trader.on_datagram(self.wire.datagrams.get(i));
            let mut warm = false;
            for outcome in &outcomes {
                warm |= out.outcome(outcome);
            }
            let now = start.elapsed().as_nanos() as u64;
            if warm {
                pass.op_ns.push((now - last) as u32);
            }
            last = now;
            pass.failed += u64::from(outcomes.len() != usize::from(self.wire.events[i]));
        }
        pass.wall_ns = last;
        pass.work = pass.op_ns.len() as u64;
        seal(&mut pass, &out);
        pass.counts = layers::trader_counts(&trader);
        self.check(&mut pass, limit);
        pass
    }

    /// Open loop: `LightTrader` reads no clock, so a datagram's service
    /// time does not depend on when it is sent, and replaying the due
    /// times against the measured service times through a single FIFO
    /// server gives each datagram's tick-to-trade from its due time.
    fn latency_ns(&self, call_ns: &[f64]) -> Vec<f64> {
        if self.open_loop {
            harness::single_server(self.due(call_ns.len()), call_ns).sojourn_ns
        } else {
            call_ns.to_vec()
        }
    }

    fn traced(&self, passes: usize) -> Traced {
        let n = self.ops();
        let mut table = SpanTable::default();
        let mut traced = Traced::default();
        let group = Group::run(passes, || {
            let mut path = TickPath::new(self.kind, self.wire.norm.clone(), WEIGHT_SEED);
            let mut out = Outputs::with_capacity(n * 96);
            let mut rec = Recorder::new(&layers::SPANS, n * 16);
            let mut pass = Pass::default();
            let start = Instant::now();
            for i in 0..n {
                let (outcomes, warm) =
                    path.on_datagram(i as u32, self.wire.datagrams.get(i), &mut rec, &mut out);
                pass.op_ns.extend(warm.then_some(0));
                pass.failed += u64::from(outcomes != usize::from(self.wire.events[i]));
            }
            pass.wall_ns = start.elapsed().as_nanos() as u64;
            pass.digest = digest(&out);
            pass.counts = path.counts();
            self.check(&mut pass, n);
            table.add(rec);
            pass
        });
        traced.samples = table.samples((n - group.best_ns.len()) as u32);
        traced.json = table.to_json();
        finish_traced(traced, group)
    }

    fn layer_extras(&self, service_ns: &[f64], group: &Group) -> Vec<(&'static str, f64)> {
        let due = self.due(service_ns.len());
        let service = harness::summarize(service_ns);
        let mut extras = vec![
            ("harness.service_p50_us", service.p50 / 1e3),
            ("harness.service_p99_us", service.tail / 1e3),
            (
                "events_per_datagram",
                group.count("parser.events") / group.count("parser.packets"),
            ),
        ];
        let (sojourn, wait, backlog, busy) = if self.open_loop {
            let run = harness::single_server(due, service_ns);
            (run.sojourn_ns, run.wait_ns, run.backlog_max, run.busy_share)
        } else {
            // A closed loop never queues: one request in flight.
            let span = (due[due.len() - 1] - due[0]) as f64;
            let busy = service_ns.iter().sum::<f64>() / span;
            (service_ns.to_vec(), vec![0.0; service_ns.len()], 1, busy)
        };
        let t2t = harness::summarize(&sojourn);
        let waits = harness::summarize(&wait);
        let deadline_ns = traffic::scheduling_deadline_for(self.kind).as_nanos() as f64;
        let hits = sojourn.iter().filter(|&&s| s <= deadline_ns).count();
        extras.extend([
            ("harness.queue_wait_p50_us", waits.p50 / 1e3),
            ("harness.queue_wait_p99_us", waits.tail / 1e3),
            ("harness.backlog_max", backlog as f64),
            ("harness.busy_share", busy),
            ("harness.t2t_p50_us", t2t.p50 / 1e3),
            ("harness.t2t_p99_us", t2t.tail / 1e3),
            ("harness.t2t_p999_us", t2t.p999 / 1e3),
            (
                "harness.deadline_hit_rate",
                hits.saturating_sub(group.failed as usize) as f64 / sojourn.len() as f64,
            ),
        ]);
        extras
    }
}

/// Folds a group of traced passes into `traced`: the digest must repeat
/// exactly.
fn finish_traced(mut traced: Traced, group: Group) -> Traced {
    traced.calls_per_sample = traced.calls_per_sample.max(1.0);
    traced.digest = group.digest;
    traced.counts = group
        .counts
        .iter()
        .map(|&(name, v)| (name.to_string(), v))
        .collect();
    traced.failed = group.failed + u64::from(!group.digests_agree);
    traced.wall_ns = group.wall_ns;
    traced
}

// ------------------------------------------------------------ batched rounds

/// Symbols (= batch size) of the batched workload.
const SHARDS: usize = 8;
/// Answers checked against batch-1 forwards.
const SAMPLED_TICKETS: usize = 64;
/// Rounds of a pass: the first of a session long enough to hold them
/// whatever the seed. About 1 100 are attempted, the fewest that leave
/// the p99 its ten samples beyond with some to spare, so that a run
/// holds as many passes as it can.
const ROUNDS: usize = 1200;

/// One tick per shard per round into `MultiSymbolTrader`, then one
/// `drain_batch`: a batch-8 TransLOB forward per round.
struct MultiWorkload {
    session: MultiMarketSession,
    rounds: usize,
}

impl MultiWorkload {
    fn new(seed: u64, size: Size) -> Self {
        let session = MultiSessionBuilder::normal_traffic()
            .symbols(SHARDS)
            .duration_secs(size.secs(1.2, 0.12))
            .seed(seed)
            .build();
        let rounds = session
            .sessions
            .iter()
            .map(|s| s.trace.len())
            .min()
            .expect("eight sessions")
            .min(ROUNDS);
        MultiWorkload { session, rounds }
    }

    fn norms(&self) -> Vec<lighttrader::feed::NormStats> {
        self.session
            .sessions
            .iter()
            .map(|s| s.norm.clone())
            .collect()
    }

    fn trader(&self) -> MultiSymbolTrader {
        let mut trader = MultiSymbolTrader::new(ModelKind::TransLob, self.norms(), WEIGHT_SEED)
            .with_batch_cap(SHARDS);
        trader.set_batch_threads(1);
        trader
    }

    fn check(pass: &mut Pass) {
        let ok = pass.count("multi.batches") == pass.op_ns.len() as f64
            && pass.count("multi.inferences") == pass.work as f64;
        gate(pass, ok);
    }
}

impl Workload for MultiWorkload {
    fn ops(&self) -> usize {
        self.rounds
    }

    fn pass(&self, limit: usize) -> Pass {
        let mut trader = self.trader();
        let mut out = Outputs::with_capacity(limit * SHARDS * 32);
        let mut answers = Vec::with_capacity(SHARDS);
        let mut pass = Pass {
            op_ns: Vec::with_capacity(limit),
            ..Pass::default()
        };
        let start = Instant::now();
        let mut last = 0u64;
        for round in 0..limit {
            for (shard, session) in self.session.sessions.iter().enumerate() {
                let tick = &session.trace.ticks[round];
                trader.on_tick(shard as u16, &tick.snapshot, tick.ts);
            }
            let served = trader.drain_batch(&mut answers);
            for (ticket, prediction) in &answers {
                out.answer(ticket, prediction);
            }
            let now = start.elapsed().as_nanos() as u64;
            if served > 0 {
                pass.op_ns.push((now - last) as u32);
                pass.work += served as u64;
                pass.failed += u64::from(served != SHARDS || trader.queue_len() != 0);
            }
            last = now;
        }
        pass.wall_ns = last;
        seal(&mut pass, &out);
        pass.counts = layers::multi_counts(trader.batches(), trader.inferences());
        Self::check(&mut pass);
        pass
    }

    /// 64 batched answers, one per round over the first warm rounds and
    /// rotating through the shards, against batch-1 forwards.
    fn verify(&self) -> u64 {
        let mut trader = self.trader();
        let mut reference = BatchOneReference::new(ModelKind::TransLob, self.norms(), WEIGHT_SEED);
        let mut answers = Vec::new();
        let (mut checked, mut mismatched) = (0usize, 0u64);
        for round in 0..self.rounds {
            for (shard, session) in self.session.sessions.iter().enumerate() {
                let tick = &session.trace.ticks[round];
                trader.on_tick(shard as u16, &tick.snapshot, tick.ts);
                reference.on_tick(shard, &tick.snapshot, tick.ts);
            }
            if trader.drain_batch(&mut answers) == 0 {
                continue;
            }
            let (ticket, prediction) = &answers[checked % answers.len()];
            mismatched += u64::from(!reference.matches(ticket.shard as usize, prediction));
            checked += 1;
            if checked == SAMPLED_TICKETS {
                break;
            }
        }
        mismatched + u64::from(checked == 0)
    }

    fn traced(&self, passes: usize) -> Traced {
        let mut table = SpanTable::default();
        let mut traced = Traced::default();
        let group = Group::run(passes, || {
            let mut path = BatchPath::new(ModelKind::TransLob, self.norms(), WEIGHT_SEED, SHARDS);
            let mut out = Outputs::with_capacity(self.rounds * SHARDS * 32);
            let mut rec = Recorder::new(&layers::SPANS, self.rounds * 24);
            let mut pass = Pass::default();
            let start = Instant::now();
            for round in 0..self.rounds {
                let begin = rec.begin(round as u32);
                for (shard, session) in self.session.sessions.iter().enumerate() {
                    let tick = &session.trace.ticks[round];
                    path.on_tick(shard as u16, &tick.snapshot, tick.ts, &mut rec);
                }
                let served = path.drain_batch(&mut rec, &mut out);
                rec.end(begin);
                if served > 0 {
                    pass.op_ns.push(0);
                    pass.work += served as u64;
                }
            }
            pass.wall_ns = start.elapsed().as_nanos() as u64;
            pass.digest = digest(&out);
            pass.counts = path.counts();
            Self::check(&mut pass);
            table.add(rec);
            pass
        });
        traced.samples = table.samples((self.rounds - group.best_ns.len()) as u32);
        traced.json = table.to_json();
        finish_traced(traced, group)
    }
}

// ------------------------------------------------------------ front end

/// Packets per timed block of the traced front-end pass: a layer call is
/// ~100 ns, so a span per call would be mostly clock reads.
const BLOCK: usize = 64;

/// Two lossy feeds into the arbiter → book → snapshot → offload staging,
/// with no inference behind it.
struct IngestWorkload {
    ab: AbSession,
}

impl IngestWorkload {
    fn new(seed: u64, size: Size) -> Self {
        let wire = inputs::wire_session(
            HawkesParams::new(400.0, 160.0, 200.0),
            None,
            size.secs(150.0, 1.0),
            seed,
        );
        IngestWorkload {
            ab: inputs::ab_session(&wire, seed),
        }
    }

    /// Checks the arbiter's counts against the generator's.
    fn check(&self, pass: &mut Pass) {
        let ok = pass.count("arbiter.delivered") + pass.count("arbiter.lost")
            == self.ab.sent as f64
            && pass.count("arbiter.delivered") == self.ab.intact as f64
            && pass.count("arbiter.events") == self.ab.intact_events as f64
            && pass.count("offload.dropped") == 0.0;
        gate(pass, ok);
    }
}

impl Workload for IngestWorkload {
    fn ops(&self) -> usize {
        self.ab.packets.len()
    }

    fn pass(&self, limit: usize) -> Pass {
        let mut path = IngestPath::new(self.ab.norm.clone());
        let mut out = Outputs::with_capacity(limit * 16);
        let mut pass = Pass {
            op_ns: Vec::with_capacity(limit),
            ..Pass::default()
        };
        let start = Instant::now();
        let mut last = 0u64;
        for i in 0..limit {
            path.on_packet(self.ab.feeds[i], self.ab.packets.get(i), 5, &mut out);
            let now = start.elapsed().as_nanos() as u64;
            pass.op_ns.push((now - last) as u32);
            last = now;
        }
        pass.wall_ns = last;
        pass.work = path.events;
        pass.counts = path.finish(self.ab.sent, &mut out);
        seal(&mut pass, &out);
        if limit == self.ops() {
            self.check(&mut pass);
        }
        pass
    }

    /// A traced pass runs 1 + 2 + … + 5 layers where a facade pass runs 5.
    fn traced_pass_cost(&self) -> f64 {
        (layers::INGEST_LAYERS.len() + 1) as f64 / 2.0
    }

    /// Runs the first 1..=5 layers over the whole input, timing blocks of
    /// [`BLOCK`] packets; layer k's time is prefix k minus prefix k − 1.
    fn traced(&self, passes: usize) -> Traced {
        let n = self.ops();
        let blocks = n.div_ceil(BLOCK);
        let depths = layers::INGEST_LAYERS.len();
        // Per prefix depth, every block's fastest time across passes.
        let mut prefix: Vec<Vec<u32>> = vec![Vec::new(); depths];
        let mut traced = Traced::default();
        let group = Group::run(passes, || {
            let mut full = Pass::default();
            let begin = Instant::now();
            for depth in 1..=depths {
                let mut path = IngestPath::new(self.ab.norm.clone());
                let mut out = Outputs::with_capacity(n * 16);
                let mut durations = Vec::with_capacity(blocks);
                let start = Instant::now();
                let mut last = 0u64;
                for block in 0..blocks {
                    for i in block * BLOCK..((block + 1) * BLOCK).min(n) {
                        path.on_packet(self.ab.feeds[i], self.ab.packets.get(i), depth, &mut out);
                    }
                    let now = start.elapsed().as_nanos() as u64;
                    durations.push((now - last) as u32);
                    last = now;
                }
                harness::fold_best(&mut prefix[depth - 1], &durations);
                if depth == depths {
                    full.counts = path.finish(self.ab.sent, &mut out);
                    full.digest = digest(&out);
                    self.check(&mut full);
                }
            }
            full.wall_ns = begin.elapsed().as_nanos() as u64;
            full
        });
        // Per layer, the difference of neighbouring prefixes.
        traced.samples = vec![Vec::new(); layers::SPANS.len()];
        traced.calls_per_sample = BLOCK as f64;
        let mut spans = Vec::new();
        let mut at = 0.0;
        for block in 0..blocks {
            let mut below = 0.0f64;
            for (layer, &name) in prefix.iter().zip(&layers::INGEST_LAYERS) {
                let upto = f64::from(layer[block]).max(below);
                traced.samples[usize::from(name)].push(upto - below);
                spans.push(Span {
                    name,
                    op: block as u32,
                    start_ns: (at + below) as u64,
                    end_ns: (at + upto) as u64,
                });
                below = upto;
            }
            traced.samples[usize::from(span::OP)].push(below);
            spans.push(Span {
                name: span::OP,
                op: block as u32,
                start_ns: at as u64,
                end_ns: (at + below) as u64,
            });
            at += below;
        }
        traced.json = crate::trace::to_json(&layers::SPANS, &spans);
        finish_traced(traced, group)
    }
}

// ------------------------------------------------------------ back-test grid

/// The reference cell whose simulated statistics are reported.
fn is_reference(cell: &FarmCell) -> bool {
    let c = &cell.config;
    c.kind == ModelKind::DeepLob
        && c.n_accels == 4
        && c.condition == PowerCondition::Limited
        && c.policy == Policy::Both
}

/// A 90-cell scheduling grid over storm traffic through the farm, one
/// worker: the host speed of the simulator, the scheduler and the
/// accelerator model, and the simulated statistics the paper reports.
struct GridWorkload {
    cells: Vec<FarmCell>,
    cache: Arc<TraceCache>,
    ticks: u64,
}

impl GridWorkload {
    fn new(seed: u64, size: Size) -> Self {
        let grid = SweepGrid::evaluation(size.secs(10.0, 1.0))
            .models(ModelKind::ALL)
            .accel_counts([1, 4, 16])
            .conditions([PowerCondition::Sufficient, PowerCondition::Limited])
            .policies(Policy::ALL.into_iter().chain([Policy::DeadlineTiered]))
            .tier_budget(Some(Duration::from_micros(450)))
            .deadline(GridDeadline::Scheduling)
            .traffic(
                traffic::evaluation_hawkes(),
                Some(traffic::burst_storm_flash()),
            )
            .seeds([seed]);
        let cells = grid.expand();
        let cache = Arc::new(TraceCache::new());
        let ticks = cache.get_or_build(&cells[0].spec).trace().len() as u64;
        GridWorkload {
            cells,
            cache,
            ticks,
        }
    }

    fn fold(h: &mut Fnv, summary: &CellSummary) {
        h.write(format!("{summary:?}").as_bytes());
    }

    /// Simulated statistics over the whole grid and of the reference
    /// cell; they repeat exactly for a seed.
    fn simulated(summaries: &[(bool, CellSummary)]) -> Vec<(&'static str, f64)> {
        let sum = |f: fn(&CellSummary) -> u64| summaries.iter().map(|(_, s)| f(s)).sum::<u64>();
        let reference = summaries
            .iter()
            .find(|(is_ref, _)| *is_ref)
            .map(|(_, s)| *s)
            .expect("the grid holds the reference cell");
        let batches = sum(|s| s.batches);
        vec![
            (
                "sim.response_rate",
                sum(|s| s.responded) as f64 / sum(CellSummary::total) as f64,
            ),
            ("sim.t2t_p99_us", reference.p99_ns as f64 / 1e3),
            ("sched.batches", batches as f64),
            (
                "sched.mean_batch",
                sum(|s| s.batched_queries) as f64 / batches.max(1) as f64,
            ),
            ("sched.deferred", sum(|s| s.deferred) as f64),
            ("sim.dropped_full", sum(|s| s.dropped_full) as f64),
            ("sim.dropped_stale", sum(|s| s.dropped_stale) as f64),
            ("sim.dropped_deadline", sum(|s| s.dropped_deadline) as f64),
            (
                "accel.energy_j",
                summaries.iter().map(|(_, s)| s.energy_j).sum(),
            ),
        ]
    }
}

impl Workload for GridWorkload {
    fn ops(&self) -> usize {
        self.cells.len()
    }

    /// The operation is one simulated tick: a cell's host time over its
    /// ticks. The trace length varies with the seed; this does not.
    fn latency_ns(&self, call_ns: &[f64]) -> Vec<f64> {
        call_ns.iter().map(|ns| ns / self.ticks as f64).collect()
    }

    fn pass(&self, limit: usize) -> Pass {
        let runner = FarmRunner::new().workers(1).cache(Arc::clone(&self.cache));
        let mut h = Fnv::default();
        let mut summaries = Vec::with_capacity(limit);
        let mut pass = Pass {
            op_ns: Vec::with_capacity(limit),
            ..Pass::default()
        };
        let start = Instant::now();
        let mut last = 0u64;
        for cell in &self.cells[..limit] {
            let result = runner.try_run_cells(vec![cell.clone()]);
            let now = start.elapsed().as_nanos() as u64;
            pass.op_ns.push((now - last) as u32);
            last = now;
            match result {
                Ok(results) => {
                    let summary = results.summary(0);
                    Self::fold(&mut h, &summary);
                    let warm_up = cell.config.window as u64 - 1;
                    pass.failed += u64::from(summary.total() != self.ticks - warm_up);
                    summaries.push((is_reference(cell), summary));
                }
                Err(_) => pass.failed += 1,
            }
        }
        pass.wall_ns = last;
        pass.work = limit as u64 * self.ticks;
        pass.digest = h.finish();
        if limit == self.ops() && summaries.len() == limit {
            pass.counts = Self::simulated(&summaries);
        }
        pass
    }

    /// A traced pass runs every cell twice: serially, and through the
    /// farm for the check.
    fn traced_pass_cost(&self) -> f64 {
        2.0
    }

    /// Every cell again through `run_lighttrader`, serially and with
    /// full metrics: the farm's summary must equal the serial one and
    /// every response's stages must sum to its latency.
    fn traced(&self, passes: usize) -> Traced {
        let runner = FarmRunner::new().workers(1).cache(Arc::clone(&self.cache));
        let mut table = SpanTable::default();
        let mut traced = Traced::default();
        let mut stages = Vec::new();
        let group = Group::run(passes, || {
            let mut rec = Recorder::new(&layers::SPANS, self.cells.len() * 2 + 2);
            let mut h = Fnv::default();
            let mut summaries = Vec::with_capacity(self.cells.len());
            let mut pass = Pass {
                op_ns: vec![0; self.cells.len()],
                ..Pass::default()
            };
            rec.begin(0);
            let session = layers::build_session(&self.cells[0]);
            rec.lap(span::SESSION_BUILD);
            for (i, cell) in self.cells.iter().enumerate() {
                let begin = rec.begin(i as u32);
                let metrics = layers::run_cell_serial(cell, &session);
                rec.lap(span::RUN_LIGHTTRADER);
                rec.end(begin);
                let serial = layers::serial_cell(&metrics);
                Self::fold(&mut h, &serial.summary);
                let farm = runner
                    .try_run_cells(vec![cell.clone()])
                    .map(|r| r.summary(0));
                pass.failed += u64::from(farm.ok() != Some(serial.summary) || !serial.reconciles);
                summaries.push((is_reference(cell), serial.summary));
                if is_reference(cell) {
                    stages = serial.stages;
                }
            }
            // The serial runs alone: the farm's run of each cell beside
            // them is a check, not the traced path.
            pass.wall_ns = rec
                .spans()
                .iter()
                .filter(|s| s.name == span::RUN_LIGHTTRADER)
                .map(|s| s.end_ns - s.start_ns)
                .sum();
            pass.digest = h.finish();
            pass.counts = Self::simulated(&summaries);
            table.add(rec);
            pass
        });
        traced.samples = table.samples(0);
        traced.json = table.to_json();
        let mut traced = finish_traced(traced, group);
        traced.counts.extend(stages);
        traced
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_storm_is_timed_from_each_datagrams_due_time() {
        let storm = build("storm_deeplob", 3, Size::Smoke).expect("listed");
        let calm = build("t2t_cnn", 3, Size::Smoke).expect("listed");
        let service = vec![30_000.0; storm.ops().min(calm.ops()) / 2];
        assert_eq!(calm.latency_ns(&service), service);
        let t2t = storm.latency_ns(&service);
        assert!(t2t.iter().all(|&t| t >= 30_000.0));
        assert!(
            t2t.iter().any(|&t| t > 300_000.0),
            "burst ticks 10 µs apart queue behind a 30 µs service"
        );
    }
}
