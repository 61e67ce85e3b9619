//! The LightTrader system model: the discrete-event back-test core.
//!
//! Scheduling semantics (§III-D), as implemented:
//!
//! * **Baseline** — batch 1, every accelerator pinned at the Table III
//!   static clock, exact stale management.
//! * **Workload scheduling (Algorithm 1)** — on every issue opportunity,
//!   enumerate `(dvfs, batch)` pairs, keep the deadline- and power-
//!   feasible ones, commit the max-PPW candidate; when the oldest tensor
//!   cannot meet its deadline at any affordable speed, defer it to the
//!   conventional pipeline ("remove oldest input tensor"). Two
//!   risk-management refinements the bursty traffic forces: candidate
//!   DVFS options never drop below the static plan (under-clocking
//!   gambles on no burst arriving during the longer occupancy), and a
//!   power-blocked queue *waits* for the next completion instead of
//!   deferring (power frees within one batch; the deadline might not).
//! * **DVFS scheduling (Algorithm 2)** — power is accounted by *claims*:
//!   busy chips claim `max(actual draw, reservation)` and idle chips a
//!   reservation equal to their static-plan draw, so the sum of claims
//!   never exceeds the pool budget and a burst activating every chip can
//!   always start at the Table III clock — DVFS scheduling strictly
//!   boosts relative to the baseline. An issue may spend the pool's
//!   unclaimed power on a faster point (including the 2.0–2.2 GHz
//!   headroom the conservative static grid leaves unused), and completed
//!   batches return their excess, which is the save/redistribute cycle
//!   of Algorithm 2 in steady state; a `rebalance` pass
//!   additionally climbs running batches by maximal marginal PPW when
//!   budget frees mid-flight.
//!
//! Every DVFS change pays the PMIC switching delay (and dwell-time
//! penalty) through [`Accelerator::set_point`]; an issue sticks with the
//! accelerator's current point when the chosen one is within a single
//! notch, and mid-flight climbs require at least two notches — "frequent
//! changing in DVFS policy ... increases the risk of a power failure as
//! well as the overall latency" (§III-D).

use crate::config::BacktestConfig;
use crate::engine::{self, EngineCtx, Event, PendingOrder, SimModel};
use crate::execution::{precompute_signals, ExecState, ExecutionConfig};
use crate::metrics::{BacktestMetrics, TierOutcomes};
use crate::telemetry::QueryTimeline;
use lt_accel::device::BatchId;
use lt_accel::dvfs::{static_plan, DvfsTable, OperatingPoint};
use lt_accel::{Accelerator, DeviceProfile};
use lt_dnn::ModelKind;
use lt_feed::{TickRecord, TickTrace};
use lt_lob::Timestamp;
use lt_pipeline::{PipelineLatencies, ShardTicket, TicketQueue};
use lt_sched::{plan_uprates, schedule_workload, LatencyModel, TierDecision, TierPlanner};
use std::time::Duration;

/// One batch in flight on an accelerator.
#[derive(Debug, Clone)]
struct InFlight {
    completion: Timestamp,
    /// Start of the current power segment (issue or last rescale).
    segment_start: Timestamp,
    /// Energy consumed by finished segments of this batch.
    energy_j: f64,
    batch: u32,
    point: OperatingPoint,
    /// The model tier this batch runs (always the configured kind for
    /// fixed-model policies).
    kind: ModelKind,
    tickets: Vec<ShardTicket>,
    /// Completion token; a rescale invalidates the previous one.
    batch_id: BatchId,
    /// When the batch claimed the accelerator (before the DVFS switch).
    issue_base: Timestamp,
    /// Accumulated PMIC switch + dwell delay charged to this batch.
    switch_total: Duration,
}

/// The deadline-tier scheduler's runtime state: the pure planner plus
/// the online latency model its predictions come from. `None` for the
/// four fixed-model policies.
struct TieredSched {
    planner: TierPlanner,
    latency: LatencyModel,
    /// Per-query wire-out budget on the DNN side (config budget minus
    /// egress); `None` = unbounded (always serve the best tier).
    budget: Option<Duration>,
}

/// Per-shard outcome tallies the engine cannot see (it scores orders
/// shard-blind); drops and defers live in the ticket queue's own
/// per-shard counters.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ShardScore {
    /// Raw trace ticks ingested for this shard (including warm-up).
    pub(crate) ticks: u64,
    /// Queries answered within the available time.
    pub(crate) responded: u64,
    /// Queries whose answer arrived after the deadline.
    pub(crate) late: u64,
    /// Per-tier serving outcomes of this shard's scored queries.
    pub(crate) tiers: TierOutcomes,
}

/// The LightTrader system model driven by the shared event engine.
///
/// One instance serves both the single-instrument back-test (one shard,
/// the historical configuration) and the sharded multi-symbol back-test:
/// every symbol's ticks feed one coalesced ticket queue, and the
/// scheduler batches across symbols off that shared queue.
pub(crate) struct SimState {
    profile: DeviceProfile,
    /// Full candidate table for DVFS decisions.
    table: DvfsTable,
    /// Table restricted to clocks >= the static plan (the WS risk guard).
    ws_table: DvfsTable,
    kind: ModelKind,
    /// Effective Algorithm 1 flag (the base policy's for `DeadlineTiered`).
    ws_on: bool,
    /// Effective Algorithm 2 flag (the base policy's for `DeadlineTiered`).
    dvfs_on: bool,
    /// Deadline-tier scheduler state; `None` for fixed-model policies.
    tiered: Option<TieredSched>,
    t_avail: Duration,
    /// Conventional-pipeline stage budget: when a ticket is ready, and
    /// how each answered query's ingress and egress split into stages.
    stages: PipelineLatencies,
    egress: Duration,
    /// Deadline budget for the DNN pipeline (t_avail minus egress).
    dnn_budget: Duration,
    /// Stale-drop budget (dnn_budget minus the fastest possible service).
    stale_budget: Duration,
    static_point: OperatingPoint,
    pool_budget_w: f64,
    per_accel_budget_w: f64,
    accels: Vec<Accelerator>,
    in_flight: Vec<Option<InFlight>>,
    queue: TicketQueue,
    /// Shard of each trace tick, parallel to the merged trace (empty for
    /// single-instrument runs, where every tick is shard 0).
    tick_shards: Vec<u16>,
    /// Global tick index (every tick, all shards; ticks arrive strictly
    /// in trace order) — the key into the shard map and the execution
    /// layer's precomputed signal stream.
    tick_index: usize,
    /// The execution & portfolio layer; `None` when disabled.
    exec: Option<ExecState>,
    /// Per-shard outcome tallies (always at least one entry).
    per_shard: Vec<ShardScore>,
    /// Recycled ticket buffers: batches pop into one of these and settle
    /// returns it, so steady-state issue never allocates ticket storage.
    spare: Vec<Vec<ShardTicket>>,
}

impl SimState {
    /// Rescales a busy accelerator to `target` at `ctx.now`, stretching
    /// or shrinking the remaining compute by the clock ratio, charging
    /// the PMIC switch delay, and re-scheduling the completion event
    /// under a fresh token (the old completion event goes stale).
    fn rescale(&mut self, aid: usize, target: OperatingPoint, ctx: &mut EngineCtx) {
        let now = ctx.now;
        let profile = self.profile;
        let switch = {
            let flight = self.in_flight[aid]
                .as_ref()
                .expect("rescale needs a busy accel");
            if (flight.point.freq_ghz - target.freq_ghz).abs() < 1e-12 {
                return;
            }
            let _ = flight;
            self.accels[aid].set_point(target, now)
        };
        let flight = self.in_flight[aid].as_mut().expect("still busy");
        // Close the current power segment.
        let seg_start = flight.segment_start.min(now);
        flight.energy_j += now.since(seg_start).as_secs_f64()
            * profile.power_w(flight.kind, flight.batch, flight.point);
        let remaining = if flight.completion > now {
            flight.completion.since(now)
        } else {
            Duration::ZERO
        };
        let ratio = flight.point.freq_ghz / target.freq_ghz;
        let stretched = Duration::from_secs_f64(remaining.as_secs_f64() * ratio);
        flight.point = target;
        flight.segment_start = now;
        flight.completion = now + switch + stretched;
        flight.switch_total += switch;
        flight.batch_id = self.accels[aid].retime_batch(flight.completion);
        ctx.queue.push_at(
            flight.completion,
            Event::BatchComplete {
                aid,
                batch: flight.batch_id,
            },
        );
    }

    /// The power reserved for an idle accelerator: its batch-1 draw at
    /// the Table III static clock. Charging this reservation for every
    /// idle chip means a burst that activates the whole pool always
    /// finds at least the no-scheduling configuration startable — DVFS
    /// scheduling can only ever *boost* relative to the baseline, never
    /// starve it (the conservative stance the co-location power
    /// constraint demands).
    fn idle_reservation(&self) -> f64 {
        self.profile
            .idle_power_w(self.kind)
            .max(self.profile.power_w(self.kind, 1, self.static_point))
    }

    /// Distributable power for an issue on `aid`: the pool budget minus
    /// every other accelerator's *claim* — busy chips claim the larger of
    /// their actual draw and the reservation, idle chips their
    /// reservation. Granting at most this keeps the sum of claims within
    /// budget, so a burst activating the whole pool can always start
    /// everyone at the static plan: DVFS scheduling only ever boosts
    /// relative to the baseline. When boosted neighbours leave less than
    /// one reservation of headroom, the issue may still proceed at the
    /// static plan provided the pool's *actual* draw allows it (the
    /// boosted batch finishes shortly and returns its excess).
    fn power_avail_for(&self, aid: usize) -> f64 {
        let reservation = self.idle_reservation();
        let mut claims = 0.0;
        let mut actual = 0.0;
        for i in (0..self.accels.len()).filter(|&i| i != aid) {
            match &self.in_flight[i] {
                Some(f) => {
                    let draw = self.profile.power_w(f.kind, f.batch, f.point);
                    claims += draw.max(reservation);
                    actual += draw;
                }
                None => {
                    claims += reservation;
                    actual += self.profile.idle_power_w(self.kind);
                }
            }
        }
        let by_claims = self.pool_budget_w - claims;
        if by_claims >= reservation {
            return by_claims;
        }
        let by_actual = self.pool_budget_w - actual;
        if by_actual >= reservation {
            reservation
        } else {
            by_claims.max(0.0)
        }
    }

    /// Algorithm 2's redistribution, applied to running batches when
    /// budget frees up: climb the busy accelerator with the highest
    /// marginal PPW gain while the pool (with idle reservations) stays
    /// within budget. Down-rescales never happen mid-flight — stretching
    /// a running batch risks the very deadline it was scheduled against —
    /// and climbs are applied with hysteresis (at least two DVFS notches)
    /// because "frequent changing in DVFS policy ... increases the risk
    /// of a power failure as well as the overall latency" (§III-D).
    fn rebalance(&mut self, ctx: &mut EngineCtx) {
        let now = ctx.now;
        // Pure planning first (Algorithm 2, in lt-sched): desired points
        // per busy accelerator.
        let n = self.accels.len();
        let mut desired: Vec<Option<(u32, OperatingPoint)>> = (0..n)
            .map(|aid| match &self.in_flight[aid] {
                Some(f) if f.completion > now => Some((f.batch, f.point)),
                _ => None,
            })
            .collect();
        plan_uprates(
            &self.profile,
            self.kind,
            self.idle_reservation(),
            self.pool_budget_w,
            &self.table,
            &mut desired,
        );
        // Apply with hysteresis — one jump per accelerator, >= 2 notches
        // — as DVFS-rescale events. They carry the current completion
        // token and fire before any other same-instant event (rank 0),
        // so the re-timing lands before the next completion is examined.
        for (aid, want) in desired.iter().enumerate().take(n) {
            if let (Some(flight), Some((_, target))) = (&self.in_flight[aid], *want) {
                if target.freq_ghz - flight.point.freq_ghz > 0.15 {
                    ctx.queue.push_at(
                        now,
                        Event::DvfsRescale {
                            aid,
                            batch: flight.batch_id,
                            target,
                        },
                    );
                }
            }
        }
    }

    /// Settles one completed batch: accumulates its energy and emits the
    /// order-out event that scores every ticket against the available
    /// time at wire-out.
    fn settle(&mut self, flight: InFlight, ctx: &mut EngineCtx) {
        let seg_start = flight.segment_start.min(flight.completion);
        ctx.metrics.energy_j += flight.energy_j
            + flight.completion.since(seg_start).as_secs_f64()
                * self
                    .profile
                    .power_w(flight.kind, flight.batch, flight.point);
        let order_out = flight.completion + self.egress;
        let orders: Vec<PendingOrder> = flight
            .tickets
            .iter()
            .map(|t| PendingOrder {
                tick_ts: t.ticket.tick_ts,
                deadline: t.ticket.tick_ts + self.t_avail,
                breakdown: QueryTimeline {
                    tick_ts: t.ticket.tick_ts,
                    ready_at: t.ticket.ready_at,
                    issue: flight.issue_base,
                    completion: flight.completion,
                    dvfs_switch: flight.switch_total,
                }
                .breakdown(&self.stages),
                shard: t.shard,
                tier: flight.kind,
                tick_id: t.ticket.tick_id,
            })
            .collect();
        ctx.queue.push_at(order_out, Event::OrderOut { orders });
        // Feed the online latency model from the batch that just landed.
        if let Some(t) = self.tiered.as_mut() {
            t.latency.observe_slack(flight.switch_total);
            let service = flight
                .completion
                .since(flight.issue_base)
                .saturating_sub(flight.switch_total);
            // Normalize the observed batch service to its batch-1
            // equivalent (profile ratio at the issued point): the
            // planner costs a query against an idle-start serve, and
            // feeding raw batch-16 storm services would inflate the
            // estimate and shed queries a batch-1 issue could still win.
            let t_b = self
                .profile
                .t_total(flight.kind, flight.batch, flight.point);
            let t_1 = self.profile.t_total(flight.kind, 1, flight.point);
            let sample = if t_b.is_zero() {
                service
            } else {
                service.mul_f64(t_1.as_secs_f64() / t_b.as_secs_f64())
            };
            t.latency.observe_service(flight.kind, sample);
            for tk in &flight.tickets {
                if flight.issue_base >= tk.ticket.ready_at {
                    t.latency
                        .observe_wait(flight.issue_base.since(tk.ticket.ready_at));
                }
            }
        }
        // Recycle the ticket buffer for the next issued batch.
        let mut tickets = flight.tickets;
        tickets.clear();
        self.spare.push(tickets);
    }

    /// Issues work onto every idle accelerator at `ctx.now`.
    fn try_issue(&mut self, ctx: &mut EngineCtx) {
        let now = ctx.now;
        'accels: for aid in 0..self.accels.len() {
            if self.in_flight[aid].is_some() {
                continue;
            }
            loop {
                // Stale management before every scheduling attempt: a
                // dropped ticket means its tick's order is never sent.
                ctx.metrics.dropped_stale += self.queue.drop_stale(now, self.stale_budget);
                let Some(oldest) = self.queue.oldest() else {
                    break 'accels; // queue empty: nothing for any accel
                };
                let deadline = oldest.ticket.tick_ts + self.dnn_budget;
                let effective_now = now.max(oldest.ticket.ready_at);
                let t_remaining = deadline.since(effective_now.min(deadline));
                let queued = self.queue.queue_len() as u32;

                // Tier planning: pick which registered model the oldest
                // query gets, from the remaining per-query budget and the
                // online latency model. Fixed-model policies skip this and
                // always serve the configured kind.
                let tier_decision = self.tiered.as_ref().map(|t| {
                    let remaining = t.budget.map(|b| {
                        let d = oldest.ticket.tick_ts + b;
                        d.since(effective_now.min(d))
                    });
                    let congested = match (remaining, t.budget) {
                        (Some(rem), Some(b)) => {
                            let cheapest = t.planner.ladder().cheapest().expect("non-empty ladder");
                            let best = t.planner.ladder().best().expect("non-empty ladder");
                            // Lagged signal: the observed wait tail
                            // already blows the headroom a cheapest-tier
                            // serve would leave.
                            let waiting = t
                                .latency
                                .congested(rem.saturating_sub(t.latency.predicted_cost(cheapest)));
                            // Proactive signal: draining the present
                            // backlog at the preferred tier would eat
                            // more than one full budget, so the queries
                            // behind this one are doomed unless it
                            // degrades. Catches burst onsets the lagged
                            // wait estimator has not seen yet.
                            let backlog = t.latency.predicted_cost(best).saturating_mul(queued) > b;
                            waiting || backlog
                        }
                        _ => false,
                    };
                    let plan = t
                        .planner
                        .plan(remaining, congested, |k| t.latency.predicted_cost(k));
                    (plan, remaining)
                });
                let (serve_kind, horizon) = match tier_decision {
                    None => (self.kind, t_remaining),
                    // A tiered serve targets the per-query hit budget,
                    // not just the hard t_avail deadline: cap the
                    // scheduling horizon so workload batching cannot
                    // trade the oldest query's hit away for throughput.
                    Some((TierDecision::Serve(k), rem)) => {
                        (k, rem.map_or(t_remaining, |r| t_remaining.min(r)))
                    }
                    Some((TierDecision::Drop, _)) => {
                        // No registered tier fits the remaining budget:
                        // shed the query outright instead of burning
                        // accelerator time on a guaranteed miss.
                        self.queue.drop_oldest_deadline();
                        ctx.metrics.dropped_deadline += 1;
                        continue;
                    }
                };

                let decision =
                    self.decide(aid, queued, horizon, serve_kind)
                        .map(|(batch, point)| {
                            let current = self.accels[aid].point();
                            let near = (current.freq_ghz - point.freq_ghz).abs() <= 0.15;
                            let in_range = !self.ws_on
                                || current.freq_ghz >= self.ws_table.min().freq_ghz - 1e-9;
                            if near
                                && in_range
                                && (current.freq_ghz - point.freq_ghz).abs() > 1e-12
                                && self.profile.t_total(serve_kind, batch, current) <= horizon
                            {
                                // Staying put is one notch worse at most but
                                // skips the PMIC switch + dwell cost.
                                (batch, current)
                            } else {
                                (batch, point)
                            }
                        });
                match decision {
                    Some((batch, point)) => {
                        let switch = self.accels[aid].set_point(point, effective_now);
                        let mut tickets = self.spare.pop().unwrap_or_default();
                        self.queue.pop_batch_into(batch as usize, &mut tickets);
                        debug_assert_eq!(tickets.len(), batch as usize);
                        let ready = tickets
                            .iter()
                            .map(|t| t.ticket.ready_at)
                            .max()
                            .expect("non-empty batch");
                        let issue_base = effective_now.max(ready);
                        let start = issue_base + switch;
                        let completion = start + self.profile.t_total(serve_kind, batch, point);
                        let batch_id = self.accels[aid].start_batch(start, completion);
                        self.in_flight[aid] = Some(InFlight {
                            completion,
                            segment_start: start,
                            energy_j: 0.0,
                            batch,
                            point,
                            kind: serve_kind,
                            tickets,
                            batch_id,
                            issue_base,
                            switch_total: switch,
                        });
                        ctx.metrics.batches += 1;
                        ctx.metrics.batched_queries += u64::from(batch);
                        ctx.queue.push_at(
                            completion,
                            Event::BatchComplete {
                                aid,
                                batch: batch_id,
                            },
                        );
                        continue 'accels;
                    }
                    None if self.hopeless(aid, t_remaining, serve_kind) => {
                        // The oldest ticket cannot make its deadline at
                        // any affordable speed — defer it to the
                        // conventional pipeline (Algorithm 1's "remove
                        // oldest input tensor") and reschedule.
                        if self.queue.defer_oldest().is_some() {
                            ctx.metrics.deferred += 1;
                            continue;
                        }
                        break 'accels;
                    }
                    None => {
                        // Power headroom is momentarily insufficient;
                        // the ticket stays queued until a completion
                        // frees budget.
                        continue 'accels;
                    }
                }
            }
        }
        if self.dvfs_on {
            self.rebalance(ctx);
        }
    }

    /// True when the oldest ticket cannot meet its deadline even at the
    /// fastest point the *currently affordable* power allows on `aid` —
    /// the signal to drop it rather than waste accelerator time (or block
    /// the queue) on a doomed query. A power-blocked state (no point
    /// affordable at all) is not hopeless: budget frees at the next
    /// completion.
    fn hopeless(&self, aid: usize, t_remaining: Duration, kind: ModelKind) -> bool {
        if t_remaining.is_zero() {
            return true;
        }
        let grant = if self.dvfs_on {
            self.power_avail_for(aid).max(self.idle_reservation())
        } else {
            self.per_accel_budget_w
        };
        let candidates = if self.ws_on {
            &self.ws_table
        } else {
            &self.table
        };
        let best = candidates
            .points()
            .iter()
            .rev()
            .find(|p| self.profile.power_w(kind, 1, **p) <= grant);
        match best {
            Some(p) => self.profile.t_total(kind, 1, *p) > t_remaining,
            None => false,
        }
    }

    /// Picks `(batch, point)` for accelerator `aid` under the active
    /// policy, or `None` when nothing can be issued.
    fn decide(
        &mut self,
        aid: usize,
        queued: u32,
        t_remaining: Duration,
        kind: ModelKind,
    ) -> Option<(u32, OperatingPoint)> {
        if t_remaining.is_zero() && self.ws_on {
            // The oldest query is at its deadline: Algorithm 1 defers it.
            return None;
        }
        let power_avail = if self.dvfs_on {
            self.power_avail_for(aid)
        } else {
            self.per_accel_budget_w
        };
        if self.ws_on {
            let d = schedule_workload(
                &self.profile,
                kind,
                queued,
                t_remaining,
                power_avail,
                &self.ws_table,
            )?;
            if self.dvfs_on {
                // Algorithm 2 runs after workload scheduling: boost the
                // chosen point to the fastest one the distributable
                // budget allows ("maximize the performance of AI
                // accelerators while fully consuming the constrained
                // power"), keeping the batch.
                let boosted = self
                    .table
                    .points()
                    .iter()
                    .rev()
                    .find(|p| {
                        p.freq_ghz >= d.point.freq_ghz - 1e-12
                            && self.profile.power_w(kind, d.batch, **p) <= power_avail
                    })
                    .copied()
                    .unwrap_or(d.point);
                return Some((d.batch, boosted));
            }
            Some((d.batch, d.point))
        } else if self.dvfs_on {
            // DS without WS: batch stays 1; issue at the fastest point the
            // distributable budget allows (performance-maximizing use of
            // the freed power). The idle reservations guarantee at least
            // the slowest point is always affordable.
            let point = self
                .table
                .points()
                .iter()
                .rev()
                .find(|p| self.profile.power_w(kind, 1, **p) <= power_avail)
                .copied()?;
            if self.profile.t_total(kind, 1, point) > t_remaining {
                return None; // doomed at achievable speed -> None arm
            }
            Some((1, point))
        } else {
            Some((1, self.static_point))
        }
    }
}

impl SimModel for SimState {
    fn on_tick(&mut self, tick: &TickRecord, ctx: &mut EngineCtx) {
        // Single-instrument runs carry no shard map and route everything
        // to shard 0.
        let shard = if self.tick_shards.is_empty() {
            0
        } else {
            self.tick_shards[self.tick_index]
        };
        self.per_shard[shard as usize].ticks += 1;
        let before_full = self.queue.dropped_full();
        self.queue
            .on_tick(shard, tick.snapshot.ts, tick.ts + self.stages.ingress());
        ctx.metrics.dropped_full += self.queue.dropped_full() - before_full;
        if let Some(exec) = self.exec.as_mut() {
            // The strategy decides on every tick (mark-to-market and the
            // kill switch run tick-by-tick); a decision reaches the venue
            // only if its tick's ticket is served, since an order settles
            // the decision recorded under its ticket's tick id.
            exec.on_tick(shard as usize, self.tick_index, &tick.snapshot);
        }
        self.tick_index += 1;
        self.try_issue(ctx);
    }

    fn on_order_scored(&mut self, order: &PendingOrder, in_time: bool, ctx: &mut EngineCtx) {
        let score = &mut self.per_shard[order.shard as usize];
        if in_time {
            score.responded += 1;
        } else {
            score.late += 1;
        }
        let degraded = order.tier != self.kind;
        ctx.metrics.tiers.record(order.tier, degraded);
        score.tiers.record(order.tier, degraded);
        // Execution settles at wire-out for in-time AND late orders —
        // a late order still hit the wire; it just finds a book that
        // moved even further. Fills push no events and touch no
        // scheduling state, so the latency surface stays byte-identical.
        if let Some(exec) = self.exec.as_mut() {
            exec.settle_order(order);
        }
    }

    fn on_batch_complete(&mut self, aid: usize, batch: BatchId, ctx: &mut EngineCtx) {
        // A rescale re-timed this batch and invalidated the token the
        // event was scheduled with: the re-scheduled completion event is
        // already in the queue.
        if self.accels[aid].current_batch() != Some(batch) {
            return;
        }
        let flight = self.in_flight[aid].take().expect("in flight");
        debug_assert_eq!(flight.completion, ctx.now);
        self.accels[aid].finish_batch();
        self.settle(flight, ctx);
        self.try_issue(ctx);
    }

    fn on_dvfs_rescale(
        &mut self,
        aid: usize,
        batch: BatchId,
        target: OperatingPoint,
        ctx: &mut EngineCtx,
    ) {
        // Rescale events fire at the instant they are raised (rank 0
        // outruns every other same-instant event), so the flight can not
        // have changed under the token; the guard is pure defence.
        if self.in_flight[aid]
            .as_ref()
            .is_some_and(|f| f.batch_id == batch)
        {
            self.rescale(aid, target, ctx);
        }
    }

    fn on_finish(&mut self, ctx: &mut EngineCtx) {
        // Any tickets still queued at session end can never be answered.
        ctx.metrics.dropped_stale += self.queue.drain_leftover();
        if let Some(exec) = self.exec.as_mut() {
            exec.finalize();
            ctx.metrics.execution = Some(exec.aggregate());
        }
    }
}

/// Replays `trace` through a LightTrader configuration and reports the
/// back-test metrics.
///
/// When the configuration carries ingress faults
/// ([`BacktestConfig::with_faults`]), the trace is first pushed through
/// the fault-injected A/B ingress ([`crate::ingress::degrade_trace`]):
/// ticks lost on both feeds never reach the book, delayed copies arrive
/// late, and the resulting [`crate::ingress::IngressReport`] is attached
/// to the metrics. A lossless fault profile skips the ingress stage
/// entirely, so the default configuration is bit-identical to the
/// pre-fault behaviour.
///
/// # Panics
///
/// Panics if the configuration is invalid (see
/// [`BacktestConfig::validate`]).
pub fn run_lighttrader(trace: &TickTrace, cfg: &BacktestConfig) -> BacktestMetrics {
    cfg.validate();
    if cfg.faults.enabled() {
        let (degraded, report) = crate::ingress::degrade_trace(trace, &cfg.faults);
        let mut metrics = run_clean(&degraded, cfg);
        metrics.ingress = Some(report);
        return metrics;
    }
    run_clean(trace, cfg)
}

/// The fault-free back-test core: replays an (already degraded or
/// pristine) trace through the system model.
fn run_clean(trace: &TickTrace, cfg: &BacktestConfig) -> BacktestMetrics {
    let mut state = build_state(cfg, 1, Vec::new());
    state.arm_execution(&cfg.execution, trace, &[], 1);
    engine::run(&mut state, trace)
}

/// Builds the system model for `n_shards` instruments sharing one
/// accelerator fleet. `tick_shards` maps every trace tick to its shard
/// (parallel to the merged trace); empty means single-instrument, where
/// everything routes to shard 0 — that path is the exact historical
/// configuration, bit for bit.
pub(crate) fn build_state(
    cfg: &BacktestConfig,
    n_shards: usize,
    tick_shards: Vec<u16>,
) -> SimState {
    let profile = DeviceProfile::lighttrader();
    // DeadlineTiered runs whichever WS/DS machinery its configured base
    // policy enables; the fixed policies use their own flags.
    let (ws_on, dvfs_on) = if cfg.policy == lt_sched::Policy::DeadlineTiered {
        (
            cfg.tier.base.workload_enabled(),
            cfg.tier.base.dvfs_enabled(),
        )
    } else {
        (cfg.policy.workload_enabled(), cfg.policy.dvfs_enabled())
    };
    // The static (conservative) grid is capped at 2.0 GHz — Table III
    // never exceeds it — but the chip itself reaches 2.2 GHz (Table I).
    // DVFS scheduling, which tracks the pool's actual draw, may exploit
    // that headroom; the baseline and plain WS stay within the
    // conservative cap.
    let table = if dvfs_on {
        DvfsTable::full_range()
    } else {
        DvfsTable::evaluation()
    };
    let stages = cfg.stages;
    let plan = static_plan(cfg.kind, cfg.n_accels, cfg.condition);
    let egress = stages.egress();
    // The WS risk guard: never under-clock below the static plan.
    let ws_table = table.at_least(plan.point.freq_ghz);
    // A query is hopeless once even the fastest *affordable* service
    // misses its deadline. "Affordable" depends on the policy: the static
    // share for baseline/WS, or the lone-boost grant (pool budget minus
    // every other accelerator's reservation) when DVFS scheduling can
    // concentrate power.
    let reservation = profile
        .idle_power_w(cfg.kind)
        .max(profile.power_w(cfg.kind, 1, plan.point));
    let best_share = if dvfs_on {
        cfg.condition.accelerator_budget_w() - (cfg.n_accels as f64 - 1.0) * reservation
    } else {
        plan.per_accel_power_w
    };
    let candidate_table = if ws_on { &ws_table } else { &table };
    let fastest_point = candidate_table
        .points()
        .iter()
        .rev()
        .find(|p| profile.power_w(cfg.kind, 1, **p) <= best_share + 1e-9)
        .copied()
        .unwrap_or(plan.point);
    let fastest = profile.t_total(cfg.kind, 1, fastest_point);
    let dnn_budget = cfg.t_avail.saturating_sub(egress);
    let stale_budget = dnn_budget
        .saturating_sub(fastest)
        .max(Duration::from_nanos(1));
    // The tiered scheduler's latency model is seeded with the static-plan
    // batch-1 service times so the very first plan is already sane.
    let tiered = (cfg.policy == lt_sched::Policy::DeadlineTiered).then(|| TieredSched {
        planner: TierPlanner::new(cfg.tier.ladder),
        latency: LatencyModel::with_priors(
            ModelKind::ALL.map(|k| profile.t_total(k, 1, plan.point)),
        ),
        budget: cfg.tier.budget.map(|b| b.saturating_sub(egress)),
    });

    SimState {
        profile,
        table,
        ws_table,
        kind: cfg.kind,
        ws_on,
        dvfs_on,
        tiered,
        t_avail: cfg.t_avail,
        stages,
        egress,
        dnn_budget,
        stale_budget,
        static_point: plan.point,
        pool_budget_w: cfg.condition.accelerator_budget_w(),
        per_accel_budget_w: cfg.condition.accelerator_budget_w() / cfg.n_accels as f64,
        accels: (0..cfg.n_accels)
            .map(|i| Accelerator::new(i, plan.point))
            .collect(),
        in_flight: vec![None; cfg.n_accels],
        queue: TicketQueue::new(n_shards, cfg.window, cfg.queue_capacity),
        tick_shards,
        tick_index: 0,
        exec: None,
        per_shard: vec![ShardScore::default(); n_shards],
        spare: Vec::new(),
    }
}

impl SimState {
    /// Per-shard outcome tallies accumulated so far.
    pub(crate) fn shard_scores(&self) -> &[ShardScore] {
        &self.per_shard
    }

    /// Per-shard drop/defer counters from the ticket queue.
    pub(crate) fn shard_counters(&self, shard: usize) -> lt_pipeline::ShardCounters {
        self.queue.shard_counters(shard)
    }

    /// Arms the execution & portfolio layer when `cfg` enables it: the
    /// oracle signal stream is precomputed over the (possibly degraded)
    /// trace the engine will actually replay, so decisions and fills see
    /// exactly what arrives.
    pub(crate) fn arm_execution(
        &mut self,
        cfg: &ExecutionConfig,
        trace: &TickTrace,
        tick_shards: &[u16],
        n_shards: usize,
    ) {
        if !cfg.enabled {
            return;
        }
        let signals = precompute_signals(trace, tick_shards, n_shards, &cfg.signal);
        self.exec = Some(ExecState::new(cfg, n_shards, signals));
    }

    /// One shard's finalized execution stats; `None` when the execution
    /// layer is disabled. Only meaningful after the run finished.
    pub(crate) fn shard_execution(&self, shard: usize) -> Option<crate::ExecutionStats> {
        self.exec.as_ref().map(|e| e.shard_stats(shard))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::{evaluation_trace, scheduling_deadline};
    use lt_accel::PowerCondition;
    use lt_feed::SessionBuilder;
    use lt_sched::Policy;

    fn quick_trace() -> TickTrace {
        evaluation_trace(8.0, 7)
    }

    #[test]
    fn every_query_is_accounted() {
        let trace = quick_trace();
        let cfg = BacktestConfig::new(ModelKind::DeepLob, 2, PowerCondition::Sufficient);
        let m = run_lighttrader(&trace, &cfg);
        let expected = trace.len() as u64 - (cfg.window as u64 - 1);
        assert_eq!(m.total(), expected, "{m}");
    }

    #[test]
    fn calm_traffic_achieves_high_response() {
        let trace = SessionBuilder::calm_traffic()
            .duration_secs(5.0)
            .seed(3)
            .build()
            .trace;
        let cfg = BacktestConfig::new(ModelKind::VanillaCnn, 4, PowerCondition::Sufficient);
        let m = run_lighttrader(&trace, &cfg);
        assert!(m.response_rate() > 0.95, "{m}");
    }

    #[test]
    fn more_accelerators_do_not_hurt_under_sufficient_power() {
        let trace = quick_trace();
        let rate = |n| {
            let cfg = BacktestConfig::new(ModelKind::DeepLob, n, PowerCondition::Sufficient);
            run_lighttrader(&trace, &cfg).response_rate()
        };
        let r1 = rate(1);
        let r4 = rate(4);
        assert!(r4 >= r1, "1 accel {r1:.3} vs 4 accels {r4:.3}");
    }

    #[test]
    fn workload_scheduling_batches_under_bursts() {
        // The CNN's short service leaves deadline room for batches; the
        // scheduler must exploit it and reduce the miss rate.
        let trace = quick_trace();
        let base = BacktestConfig::new(ModelKind::VanillaCnn, 1, PowerCondition::Sufficient)
            .with_t_avail(scheduling_deadline());
        let ws = base.with_policy(Policy::WorkloadScheduling);
        let m_base = run_lighttrader(&trace, &base);
        let m_ws = run_lighttrader(&trace, &ws);
        assert!(m_base.mean_batch() <= 1.0 + 1e-9);
        assert!(m_ws.mean_batch() > 1.05, "WS never batched: {m_ws}");
        assert!(
            m_ws.miss_rate() < m_base.miss_rate(),
            "WS {:.4} vs baseline {:.4}",
            m_ws.miss_rate(),
            m_base.miss_rate()
        );
    }

    #[test]
    fn workload_scheduling_never_hurts_deeplob() {
        // DeepLOB's 296 µs service leaves little batching room inside the
        // prediction horizon; WS must degrade gracefully to the baseline.
        let trace = quick_trace();
        let base = BacktestConfig::new(ModelKind::DeepLob, 1, PowerCondition::Sufficient)
            .with_t_avail(scheduling_deadline());
        let ws = base.with_policy(Policy::WorkloadScheduling);
        let m_base = run_lighttrader(&trace, &base);
        let m_ws = run_lighttrader(&trace, &ws);
        assert!(
            m_ws.miss_rate() <= m_base.miss_rate() + 0.005,
            "WS {:.4} vs baseline {:.4}",
            m_ws.miss_rate(),
            m_base.miss_rate()
        );
    }

    #[test]
    fn dvfs_scheduling_helps_at_many_accelerators() {
        let trace = quick_trace();
        let base = BacktestConfig::new(ModelKind::TransLob, 8, PowerCondition::Limited)
            .with_t_avail(scheduling_deadline());
        let ds = base.with_policy(Policy::DvfsScheduling);
        let m_base = run_lighttrader(&trace, &base);
        let m_ds = run_lighttrader(&trace, &ds);
        assert!(
            m_ds.miss_rate() <= m_base.miss_rate() + 1e-9,
            "DS {:.4} vs baseline {:.4}",
            m_ds.miss_rate(),
            m_base.miss_rate()
        );
    }

    #[test]
    fn deterministic_replay() {
        let trace = quick_trace();
        let cfg = BacktestConfig::new(ModelKind::TransLob, 4, PowerCondition::Limited)
            .with_policy(Policy::Both)
            .with_t_avail(scheduling_deadline());
        let a = run_lighttrader(&trace, &cfg);
        let b = run_lighttrader(&trace, &cfg);
        assert_eq!(a.responded, b.responded);
        assert_eq!(a.total(), b.total());
        assert_eq!(a.batches, b.batches);
    }

    #[test]
    fn energy_is_positive_and_bounded_by_budget() {
        let trace = quick_trace();
        let cfg = BacktestConfig::new(ModelKind::DeepLob, 4, PowerCondition::Limited);
        let m = run_lighttrader(&trace, &cfg);
        assert!(m.energy_j > 0.0);
        // Busy energy can never exceed budget x wall-clock.
        let wall = trace.duration().as_secs_f64() + 1.0;
        assert!(m.energy_j <= cfg.condition.accelerator_budget_w() * wall);
    }

    #[test]
    fn deadline_of_zero_slack_misses_everything() {
        let trace = quick_trace();
        let cfg = BacktestConfig::new(ModelKind::DeepLob, 4, PowerCondition::Sufficient)
            .with_t_avail(Duration::from_micros(50));
        let m = run_lighttrader(&trace, &cfg);
        assert_eq!(m.responded, 0, "{m}");
        assert!(m.total() > 0);
    }

    /// DS must never let the pool exceed the power budget.
    #[test]
    fn ds_respects_budget_at_sixteen_accels() {
        let trace = quick_trace();
        let cfg = BacktestConfig::new(ModelKind::DeepLob, 16, PowerCondition::Limited)
            .with_policy(Policy::DvfsScheduling)
            .with_t_avail(scheduling_deadline());
        let m = run_lighttrader(&trace, &cfg);
        let wall = trace.duration().as_secs_f64() + 1.0;
        assert!(m.energy_j <= 20.0 * wall, "{} J over {wall} s", m.energy_j);
        assert!(m.total() > 0);
    }
}
