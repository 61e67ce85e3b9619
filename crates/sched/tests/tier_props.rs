//! Property tests for the deadline-aware tier planner and the online
//! latency estimators behind it.
//!
//! The planner is pure (predicted costs are injected), so its invariants
//! are checked against arbitrary cost tables and budgets without a
//! simulator in the loop:
//!
//! * the tier choice is monotone in the remaining budget;
//! * an unbounded budget always serves the best registered tier;
//! * a budget below every tier's cost drops;
//! * a served tier's predicted cost never exceeds the budget, and a drop
//!   implies no registered tier was feasible.

use lt_dnn::ModelKind;
use lt_sched::{
    EwmaEstimator, LatencyModel, QuantileEstimator, TierDecision, TierLadder, TierPlanner,
};
use proptest::prelude::*;
use std::time::Duration;

/// Table II batch-1 reference costs, cheapest first (µs).
const REFERENCE_COST_US: [u64; 3] = [14, 79, 133];

fn reference_cost(kind: ModelKind) -> Duration {
    let idx = ModelKind::ALL.iter().position(|&k| k == kind).unwrap();
    Duration::from_micros(REFERENCE_COST_US[idx])
}

fn ladder_strategy() -> impl Strategy<Value = TierLadder> {
    // Non-empty subsets of the three tiers.
    (1u8..8).prop_map(|mask| {
        let mut kinds = (0..ModelKind::ALL.len())
            .filter(|i| mask & (1 << i) != 0)
            .map(|i| ModelKind::ALL[i]);
        let first = TierLadder::single(kinds.next().expect("a non-empty mask"));
        kinds.fold(first, TierLadder::with)
    })
}

/// Arbitrary monotone cost tables: cheaper tiers never cost more.
fn cost_table_strategy() -> impl Strategy<Value = [u64; 3]> {
    (1u64..500, 0u64..500, 0u64..500).prop_map(|(a, b, c)| [a, a + b, a + b + c])
}

/// Rank of a decision on the degradation order: Drop < cheapest < ... <
/// best. Monotonicity in budget is monotonicity of this rank.
fn decision_rank(d: TierDecision) -> usize {
    match d {
        TierDecision::Drop => 0,
        TierDecision::Serve(kind) => 1 + ModelKind::ALL.iter().position(|&k| k == kind).unwrap(),
    }
}

proptest! {
    /// More remaining budget never yields a cheaper decision (fixed
    /// costs, uncongested): the serve tier is monotone non-decreasing in
    /// the budget, with Drop at the bottom.
    #[test]
    fn tier_choice_is_monotone_in_remaining_budget(
        ladder in ladder_strategy(),
        costs in cost_table_strategy(),
        lo_us in 0u64..2_000,
        extra_us in 0u64..2_000,
    ) {
        let planner = TierPlanner::new(ladder);
        let cost = |k: ModelKind| {
            let idx = ModelKind::ALL.iter().position(|&x| x == k).unwrap();
            Duration::from_micros(costs[idx])
        };
        let lo = planner.plan(Some(Duration::from_micros(lo_us)), false, cost);
        let hi = planner.plan(Some(Duration::from_micros(lo_us + extra_us)), false, cost);
        prop_assert!(
            decision_rank(hi) >= decision_rank(lo),
            "budget {}µs -> {:?} but {}µs -> {:?}",
            lo_us, lo, lo_us + extra_us, hi
        );
    }

    /// An unbounded budget serves the best registered tier, whatever the
    /// costs or congestion state.
    #[test]
    fn infinite_deadline_serves_the_best_tier(
        ladder in ladder_strategy(),
        costs in cost_table_strategy(),
        congested in any::<bool>(),
    ) {
        let planner = TierPlanner::new(ladder);
        let cost = |k: ModelKind| {
            let idx = ModelKind::ALL.iter().position(|&x| x == k).unwrap();
            Duration::from_micros(costs[idx])
        };
        prop_assert_eq!(
            planner.plan(None, congested, cost),
            TierDecision::Serve(ladder.best().unwrap())
        );
    }

    /// Under the Table II reference costs, any budget below the cheapest
    /// tier's 14 µs drops — no registered subset can save it.
    #[test]
    fn sub_cheapest_budget_always_drops(
        ladder in ladder_strategy(),
        budget_us in 0u64..14,
        congested in any::<bool>(),
    ) {
        let planner = TierPlanner::new(ladder);
        prop_assert_eq!(
            planner.plan(Some(Duration::from_micros(budget_us)), congested, reference_cost),
            TierDecision::Drop
        );
    }

    /// A serve decision's cost fits the budget, and a drop implies no
    /// registered tier was feasible — the planner never wastes a feasible
    /// query and never commits to a predicted miss.
    #[test]
    fn serves_are_feasible_and_drops_are_forced(
        ladder in ladder_strategy(),
        costs in cost_table_strategy(),
        budget_us in 0u64..2_000,
        congested in any::<bool>(),
    ) {
        let planner = TierPlanner::new(ladder);
        let cost = |k: ModelKind| {
            let idx = ModelKind::ALL.iter().position(|&x| x == k).unwrap();
            Duration::from_micros(costs[idx])
        };
        let budget = Duration::from_micros(budget_us);
        match planner.plan(Some(budget), congested, cost) {
            TierDecision::Serve(kind) => {
                prop_assert!(ladder.contains(kind), "served an unregistered tier");
                prop_assert!(
                    cost(kind) <= budget,
                    "served {kind:?} at {:?} over budget {budget:?}",
                    cost(kind)
                );
                if !congested {
                    // Largest-feasible: no more expensive registered tier
                    // also fits.
                    for other in ladder.tiers() {
                        if decision_rank(TierDecision::Serve(other))
                            > decision_rank(TierDecision::Serve(kind))
                        {
                            prop_assert!(cost(other) > budget);
                        }
                    }
                }
            }
            TierDecision::Drop => {
                for kind in ladder.tiers() {
                    prop_assert!(
                        cost(kind) > budget,
                        "dropped while {kind:?} at {:?} fit {budget:?}",
                        cost(kind)
                    );
                }
            }
        }
    }

    /// Replaying an observation stream reproduces every estimator's
    /// state bit for bit.
    #[test]
    fn estimator_replay_is_byte_identical(
        samples in prop::collection::vec((0u64..1_000_000, 0usize..3), 1..200),
    ) {
        let priors = [Duration::from_micros(14), Duration::from_micros(79), Duration::from_micros(133)];
        let run = || {
            let mut m = LatencyModel::with_priors(priors);
            for &(ns, lane) in &samples {
                let d = Duration::from_nanos(ns);
                match lane {
                    0 => m.observe_wait(d),
                    1 => m.observe_slack(d),
                    _ => m.observe_service(ModelKind::ALL[ns as usize % 3], d),
                }
            }
            // `Debug` prints every f64 of the state exactly.
            format!("{m:?}")
        };
        prop_assert_eq!(run(), run());
    }
}

#[test]
fn ewma_converges_on_a_stationary_stream() {
    let mut e = EwmaEstimator::new(0.2);
    for _ in 0..100 {
        e.observe(Duration::from_micros(250));
    }
    assert_eq!(e.predicted(), Duration::from_micros(250));
    // With a prior far away the mean still converges geometrically.
    let mut seeded = EwmaEstimator::with_prior(0.2, Duration::from_millis(10));
    for _ in 0..100 {
        seeded.observe(Duration::from_micros(250));
    }
    let err = seeded.predicted().as_nanos() as i64 - 250_000;
    assert!(err.abs() < 1_000, "converged to {:?}", seeded.predicted());
}

#[test]
fn ewma_adapts_to_a_step_change_within_bounded_samples() {
    let mut e = EwmaEstimator::new(0.2);
    for _ in 0..50 {
        e.observe(Duration::from_micros(100));
    }
    // Step: the stream jumps 5x. Within 40 samples (alpha 0.2 => ~8
    // samples per time constant) the estimate must close 99% of the gap.
    for _ in 0..40 {
        e.observe(Duration::from_micros(500));
    }
    let v = e.predicted().as_nanos() as i64;
    assert!((v - 500_000).abs() < 4_000, "estimate {v} ns after step");
}

#[test]
fn quantile_tracker_converges_then_adapts() {
    let mut q = QuantileEstimator::new(0.9);
    // Stationary bimodal stream: 90% at 10 µs, 10% at 100 µs; the 0.9
    // quantile sits at the boundary.
    for i in 0..1_000 {
        let us = if i % 10 == 9 { 100 } else { 10 };
        q.observe(Duration::from_micros(us));
    }
    let p = q.predicted().as_micros() as i64;
    assert!((5..=110).contains(&p), "0.9-quantile estimate {p} µs");
    // Regime change: all samples jump to 1 ms. The direction-adaptive
    // step must carry the estimate most of the way within 200 samples.
    for _ in 0..200 {
        q.observe(Duration::from_millis(1));
    }
    let after = q.predicted().as_micros() as i64;
    assert!(after > 500, "estimate {after} µs after regime change");
    assert!(q.samples() == 1_200);
}

#[test]
fn latency_model_congestion_signal_tracks_the_wait_tail() {
    let priors = [
        Duration::from_micros(14),
        Duration::from_micros(79),
        Duration::from_micros(133),
    ];
    let mut m = LatencyModel::with_priors(priors);
    // No wait observations: never congested.
    assert!(!m.congested(Duration::ZERO));
    for _ in 0..100 {
        m.observe_wait(Duration::from_micros(300));
    }
    assert!(m.congested(Duration::from_micros(50)));
    assert!(!m.congested(Duration::from_millis(5)));
}
