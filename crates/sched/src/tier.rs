//! Deadline-aware model-tier planning (anytime inference).
//!
//! The paper's scheduler always serves ONE model; the three benchmark
//! networks span a real latency/accuracy frontier (Table II: Vanilla CNN
//! < TransLOB < DeepLOB). This module adds the tier dimension: a
//! [`TierPlanner`] picks, per issue opportunity, the *largest* registered
//! tier whose predicted cost (residual start slack + batch service) fits
//! the query's remaining deadline budget, degrading to cheaper tiers as
//! the budget shrinks and dropping outright when even the cheapest tier
//! cannot make it. Under queue congestion (observed queue-wait quantile
//! above the feasible horizon) the planner flips to *cheapest-feasible*
//! so the backlog drains before the whole queue goes stale.
//!
//! Predictions come from [`LatencyModel`]: online, deterministic
//! estimators fed by the per-stage telemetry already flowing through the
//! simulator (`QueryTimeline` breakdowns) — an EWMA per tier for batch
//! service, an EWMA for start slack, and a Robbins–Monro quantile
//! tracker for queue wait. The planner itself is pure (costs are
//! injected), so its invariants are property-testable without a
//! simulator in the loop.

use lt_dnn::ModelKind;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// The set of model tiers registered with a deadline-tiered scheduler,
/// as a bitmask over [`ModelKind::ALL`] (cheapest tier = lowest bit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TierLadder {
    mask: u8,
}

impl TierLadder {
    /// Exactly one registered tier.
    pub fn single(kind: ModelKind) -> Self {
        TierLadder {
            mask: 1 << kind.index(),
        }
    }

    /// Every tier up to and including `kind` (the natural degradation
    /// ladder for a system whose preferred model is `kind`).
    pub fn up_to(kind: ModelKind) -> Self {
        TierLadder {
            mask: (1u8 << (kind.index() + 1)) - 1,
        }
    }

    /// This ladder with `kind` added.
    #[must_use]
    pub fn with(mut self, kind: ModelKind) -> Self {
        self.mask |= 1 << kind.index();
        self
    }

    /// True when `kind` is registered.
    pub fn contains(&self, kind: ModelKind) -> bool {
        self.mask & (1 << kind.index()) != 0
    }

    /// Number of registered tiers.
    pub fn len(&self) -> usize {
        self.mask.count_ones() as usize
    }

    /// True when no tier is registered.
    pub fn is_empty(&self) -> bool {
        self.mask == 0
    }

    /// Registered tiers, cheapest first.
    pub fn tiers(&self) -> impl Iterator<Item = ModelKind> + '_ {
        ModelKind::ALL.into_iter().filter(|&k| self.contains(k))
    }

    /// The most accurate (most expensive) registered tier.
    pub fn best(&self) -> Option<ModelKind> {
        self.tiers().last()
    }

    /// The cheapest registered tier.
    pub fn cheapest(&self) -> Option<ModelKind> {
        self.tiers().next()
    }
}

/// Deterministic exponentially-weighted moving average over durations.
///
/// State is two scalars; updates are pure f64 arithmetic, so a replayed
/// observation stream reproduces the state bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct EwmaEstimator {
    alpha: f64,
    mean_ns: f64,
    samples: u64,
    seeded: bool,
}

impl EwmaEstimator {
    /// An empty estimator; the first observation seeds the mean.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < alpha <= 1`.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        EwmaEstimator {
            alpha,
            mean_ns: 0.0,
            samples: 0,
            seeded: false,
        }
    }

    /// An estimator seeded with a prior prediction (e.g. the analytic
    /// device-profile service time) so the first plans are sane before
    /// any telemetry has flowed.
    pub fn with_prior(alpha: f64, prior: Duration) -> Self {
        let mut e = Self::new(alpha);
        e.mean_ns = prior.as_nanos() as f64;
        e.seeded = true;
        e
    }

    /// Folds one observation into the mean.
    pub fn observe(&mut self, sample: Duration) {
        let x = sample.as_nanos() as f64;
        if self.seeded {
            self.mean_ns += self.alpha * (x - self.mean_ns);
        } else {
            self.mean_ns = x;
            self.seeded = true;
        }
        self.samples += 1;
    }

    /// The current prediction (zero before any observation or prior).
    pub fn predicted(&self) -> Duration {
        Duration::from_nanos(self.mean_ns.max(0.0).ceil() as u64)
    }

    /// Observations folded in so far (priors excluded).
    pub fn samples(&self) -> u64 {
        self.samples
    }
}

/// Deterministic streaming quantile tracker (Robbins–Monro with a
/// direction-adaptive step), used for the queue-wait tail.
///
/// The estimate moves toward the `q`-quantile: up by `step · q` when a
/// sample lands above it, down by `step · (1 − q)` when below. The step
/// grows 10% while consecutive samples push the same way (fast tracking
/// after a regime change) and halves on a direction flip (convergence on
/// a stationary stream). All state is f64/integer scalars — replaying a
/// stream reproduces the state bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileEstimator {
    q: f64,
    estimate_ns: f64,
    step_ns: f64,
    last_dir: i8,
    samples: u64,
    seeded: bool,
}

impl QuantileEstimator {
    /// Minimum adaptive step, nanoseconds.
    const MIN_STEP_NS: f64 = 16.0;

    /// Tracks the `q`-quantile (0 < q < 1).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < q < 1`.
    pub fn new(q: f64) -> Self {
        assert!(q > 0.0 && q < 1.0, "quantile must be in (0, 1)");
        QuantileEstimator {
            q,
            estimate_ns: 0.0,
            step_ns: Self::MIN_STEP_NS,
            last_dir: 0,
            samples: 0,
            seeded: false,
        }
    }

    /// Folds one observation into the estimate.
    pub fn observe(&mut self, sample: Duration) {
        let x = sample.as_nanos() as f64;
        if !self.seeded {
            self.estimate_ns = x;
            self.step_ns = (x / 8.0).max(Self::MIN_STEP_NS);
            self.seeded = true;
            self.samples = 1;
            return;
        }
        let dir: i8 = if x > self.estimate_ns { 1 } else { -1 };
        if dir == self.last_dir {
            self.step_ns *= 1.1;
        } else {
            self.step_ns = (self.step_ns * 0.5).max(Self::MIN_STEP_NS);
        }
        self.last_dir = dir;
        if dir > 0 {
            self.estimate_ns += self.step_ns * self.q;
        } else {
            self.estimate_ns = (self.estimate_ns - self.step_ns * (1.0 - self.q)).max(0.0);
        }
        self.samples += 1;
    }

    /// The current quantile estimate (zero before any observation).
    pub fn predicted(&self) -> Duration {
        Duration::from_nanos(self.estimate_ns.max(0.0).ceil() as u64)
    }

    /// Observations folded in so far.
    pub fn samples(&self) -> u64 {
        self.samples
    }
}

/// The online latency model behind a deadline-tiered scheduler: one
/// service EWMA per tier, a start-slack EWMA, and a queue-wait quantile
/// tracker. Fed from the simulator's per-query timelines; every update
/// is deterministic.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyModel {
    /// Residual slack between the issue decision and the batch actually
    /// starting (DVFS switch + dwell + ready skew).
    slack: EwmaEstimator,
    /// Observed queue waits (ready → issue); the upper tail signals
    /// congestion.
    wait: QuantileEstimator,
    /// Per-tier batch service (issue → completion), [`ModelKind::ALL`]
    /// order.
    service: [EwmaEstimator; 3],
}

/// EWMA smoothing for service/slack estimators.
const SERVICE_ALPHA: f64 = 0.2;
/// Queue-wait quantile tracked for the congestion signal.
const WAIT_QUANTILE: f64 = 0.9;

impl LatencyModel {
    /// A model seeded with per-tier service priors (analytic profile
    /// times) so the first issues plan sensibly before telemetry flows.
    pub fn with_priors(service_priors: [Duration; 3]) -> Self {
        LatencyModel {
            slack: EwmaEstimator::with_prior(SERVICE_ALPHA, Duration::ZERO),
            wait: QuantileEstimator::new(WAIT_QUANTILE),
            service: service_priors.map(|p| EwmaEstimator::with_prior(SERVICE_ALPHA, p)),
        }
    }

    /// Records the slack between an issue decision and the batch start.
    pub fn observe_slack(&mut self, slack: Duration) {
        self.slack.observe(slack);
    }

    /// Records one query's queue wait (ready → issue).
    pub fn observe_wait(&mut self, wait: Duration) {
        self.wait.observe(wait);
    }

    /// Records one batch's service time (issue → completion) for `kind`.
    pub fn observe_service(&mut self, kind: ModelKind, service: Duration) {
        self.service[kind.index()].observe(service);
    }

    /// Predicted cost of serving at `kind` from an idle accelerator now:
    /// start slack plus batch service.
    pub fn predicted_cost(&self, kind: ModelKind) -> Duration {
        self.slack.predicted() + self.service[kind.index()].predicted()
    }

    /// True when the observed queue-wait tail exceeds `horizon`: queries
    /// are typically spending more of their budget waiting than the
    /// horizon allows, so the planner should drain with cheap tiers.
    pub fn congested(&self, horizon: Duration) -> bool {
        self.wait.samples() > 0 && self.wait.predicted() > horizon
    }
}

/// The planner's verdict for the oldest queued query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TierDecision {
    /// Serve at this tier (the largest feasible one, or the cheapest
    /// feasible one under congestion).
    Serve(ModelKind),
    /// No registered tier's predicted cost fits the remaining budget:
    /// drop the query rather than burn accelerator time on a miss.
    Drop,
}

/// Pure tier selection over a [`TierLadder`]: predicted costs are
/// injected, so the decision algebra is property-testable in isolation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierPlanner {
    ladder: TierLadder,
}

impl TierPlanner {
    /// A planner over `ladder`.
    ///
    /// # Panics
    ///
    /// Panics when the ladder is empty.
    pub fn new(ladder: TierLadder) -> Self {
        assert!(!ladder.is_empty(), "tier ladder must register a model");
        TierPlanner { ladder }
    }

    /// The registered ladder.
    pub fn ladder(&self) -> TierLadder {
        self.ladder
    }

    /// Picks the tier for a query with `remaining` deadline budget
    /// (`None` = unbounded), given `cost(kind)` = predicted time to a
    /// wired-out answer from now.
    ///
    /// * Unbounded budget always serves the best registered tier.
    /// * Otherwise the *largest* tier with `cost <= remaining` is
    ///   served — unless `congested`, where the *cheapest* feasible tier
    ///   is served so the backlog drains.
    /// * When no tier is feasible the query is dropped.
    pub fn plan(
        &self,
        remaining: Option<Duration>,
        congested: bool,
        cost: impl Fn(ModelKind) -> Duration,
    ) -> TierDecision {
        let Some(remaining) = remaining else {
            return TierDecision::Serve(self.ladder.best().expect("non-empty ladder"));
        };
        let mut feasible = self.ladder.tiers().filter(|&k| cost(k) <= remaining);
        let pick = if congested {
            feasible.next()
        } else {
            feasible.last()
        };
        match pick {
            Some(kind) => TierDecision::Serve(kind),
            None => TierDecision::Drop,
        }
    }
}

#[cfg(test)]
impl TierLadder {
    /// All three benchmark tiers.
    fn full() -> Self {
        TierLadder {
            mask: (1 << ModelKind::ALL.len()) - 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_set_operations() {
        let full = TierLadder::full();
        assert_eq!(full.len(), 3);
        assert_eq!(full.best(), Some(ModelKind::DeepLob));
        assert_eq!(full.cheapest(), Some(ModelKind::VanillaCnn));
        let single = TierLadder::single(ModelKind::TransLob);
        assert_eq!(single.len(), 1);
        assert_eq!(single.best(), Some(ModelKind::TransLob));
        assert!(!single.contains(ModelKind::DeepLob));
        let up = TierLadder::up_to(ModelKind::TransLob);
        assert!(up.contains(ModelKind::VanillaCnn) && up.contains(ModelKind::TransLob));
        assert!(!up.contains(ModelKind::DeepLob));
        assert_eq!(
            TierLadder::single(ModelKind::VanillaCnn).with(ModelKind::TransLob),
            up
        );
        let order: Vec<ModelKind> = full.tiers().collect();
        assert_eq!(order, ModelKind::ALL.to_vec(), "cheapest first");
    }

    #[test]
    fn ewma_tracks_mean() {
        let mut e = EwmaEstimator::new(0.5);
        assert_eq!(e.predicted(), Duration::ZERO);
        e.observe(Duration::from_micros(100));
        assert_eq!(e.predicted(), Duration::from_micros(100), "first seeds");
        e.observe(Duration::from_micros(200));
        assert_eq!(e.predicted(), Duration::from_micros(150));
        assert_eq!(e.samples(), 2);
    }

    #[test]
    fn ewma_prior_seeds_prediction() {
        let e = EwmaEstimator::with_prior(0.2, Duration::from_micros(42));
        assert_eq!(e.predicted(), Duration::from_micros(42));
        assert_eq!(e.samples(), 0);
    }

    #[test]
    fn quantile_brackets_a_constant_stream() {
        let mut q = QuantileEstimator::new(0.9);
        for _ in 0..200 {
            q.observe(Duration::from_micros(50));
        }
        let p = q.predicted().as_nanos() as i64;
        assert!((p - 50_000).abs() < 5_000, "estimate {p} ns vs 50 µs");
    }

    #[test]
    fn planner_unbounded_serves_best() {
        let p = TierPlanner::new(TierLadder::full());
        assert_eq!(
            p.plan(None, false, |_| Duration::from_secs(1)),
            TierDecision::Serve(ModelKind::DeepLob)
        );
    }

    #[test]
    fn planner_degrades_then_drops() {
        let p = TierPlanner::new(TierLadder::full());
        let cost = |k: ModelKind| match k {
            ModelKind::VanillaCnn => Duration::from_micros(14),
            ModelKind::TransLob => Duration::from_micros(79),
            ModelKind::DeepLob => Duration::from_micros(133),
        };
        let plan = |rem_us: u64| p.plan(Some(Duration::from_micros(rem_us)), false, cost);
        assert_eq!(plan(200), TierDecision::Serve(ModelKind::DeepLob));
        assert_eq!(plan(100), TierDecision::Serve(ModelKind::TransLob));
        assert_eq!(plan(50), TierDecision::Serve(ModelKind::VanillaCnn));
        assert_eq!(plan(13), TierDecision::Drop);
    }

    #[test]
    fn planner_congested_picks_cheapest_feasible() {
        let p = TierPlanner::new(TierLadder::full());
        let cost = |_| Duration::from_micros(10);
        assert_eq!(
            p.plan(Some(Duration::from_micros(100)), true, cost),
            TierDecision::Serve(ModelKind::VanillaCnn)
        );
    }

    #[test]
    #[should_panic(expected = "register a model")]
    fn empty_ladder_rejected() {
        let _ = TierPlanner::new(TierLadder { mask: 0 });
    }
}
