//! Property tests of the back-test simulator's invariants across random
//! traffic and configurations.

use lt_accel::PowerCondition;
use lt_dnn::ModelKind;
use lt_feed::{FlashParams, HawkesParams, SessionBuilder};
use lt_sched::Policy;
use lt_sim::{run_lighttrader, run_single_device, BacktestConfig, SingleDeviceSystem};
use proptest::prelude::*;
use std::time::Duration;

fn kind_strategy() -> impl Strategy<Value = ModelKind> {
    prop_oneof![
        Just(ModelKind::VanillaCnn),
        Just(ModelKind::TransLob),
        Just(ModelKind::DeepLob),
    ]
}

fn policy_strategy() -> impl Strategy<Value = Policy> {
    prop_oneof![
        Just(Policy::Baseline),
        Just(Policy::WorkloadScheduling),
        Just(Policy::DvfsScheduling),
        Just(Policy::Both),
    ]
}

fn trace_strategy() -> impl Strategy<Value = lt_feed::TickTrace> {
    (1u64..1_000, 50.0f64..300.0, 0.0f64..0.6).prop_map(|(seed, mu, branching)| {
        SessionBuilder::new(HawkesParams::new(mu, branching * 2_000.0, 2_000.0))
            .flash_bursts(FlashParams::new(1.0, 20.0, 10e-6))
            .duration_secs(1.5)
            .seed(seed)
            .build()
            .trace
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Conservation: every post-warmup tick lands in exactly one outcome
    /// bucket, for any traffic, model, policy, and accelerator count.
    #[test]
    fn outcome_conservation(
        trace in trace_strategy(),
        kind in kind_strategy(),
        policy in policy_strategy(),
        n in 1usize..9,
        deadline_us in 400u64..6_000,
    ) {
        let cfg = BacktestConfig::new(kind, n, PowerCondition::Limited)
            .with_policy(policy)
            .with_t_avail(Duration::from_micros(deadline_us));
        let m = run_lighttrader(&trace, &cfg);
        let expected = (trace.len() as u64).saturating_sub(cfg.window as u64 - 1);
        prop_assert_eq!(m.total(), expected);
        prop_assert_eq!(m.latencies().len() as u64, m.responded);
        prop_assert!(m.batched_queries >= m.batches);
    }

    /// Energy never exceeds budget x wall-clock, for any policy.
    #[test]
    fn energy_bounded_by_budget(
        trace in trace_strategy(),
        policy in policy_strategy(),
        n in 1usize..9,
    ) {
        let cfg = BacktestConfig::new(ModelKind::TransLob, n, PowerCondition::Limited)
            .with_policy(policy);
        let m = run_lighttrader(&trace, &cfg);
        let wall = trace
            .ticks
            .last()
            .map_or(0.0, |last| last.ts.since(trace.ticks[0].ts).as_secs_f64())
            + 1.0;
        prop_assert!(
            m.energy_j <= PowerCondition::Limited.accelerator_budget_w() * wall + 1e-6,
            "energy {} over {} s", m.energy_j, wall
        );
    }

    /// Recorded tick-to-trade latencies never exceed the deadline (that
    /// is the definition of a response).
    #[test]
    fn responses_meet_their_deadline(
        trace in trace_strategy(),
        kind in kind_strategy(),
        deadline_us in 500u64..6_000,
    ) {
        let cfg = BacktestConfig::new(kind, 2, PowerCondition::Sufficient)
            .with_t_avail(Duration::from_micros(deadline_us));
        let m = run_lighttrader(&trace, &cfg);
        if m.responded > 0 {
            prop_assert!(m.latency_quantile(1.0) <= cfg.t_avail);
        }
    }

    /// The single-device harness obeys the same conservation law.
    #[test]
    fn single_device_conservation(
        trace in trace_strategy(),
        kind in kind_strategy(),
    ) {
        let m = run_single_device(
            &trace,
            &SingleDeviceSystem::fpga(),
            kind,
            Duration::from_millis(5),
            100,
        );
        let expected = (trace.len() as u64).saturating_sub(99);
        prop_assert_eq!(m.total(), expected);
    }

    /// Longer deadlines never reduce the response rate (same trace,
    /// baseline policy).
    #[test]
    fn response_monotone_in_deadline(
        trace in trace_strategy(),
        kind in kind_strategy(),
    ) {
        let rate = |us: u64| {
            let cfg = BacktestConfig::new(kind, 2, PowerCondition::Sufficient)
                .with_t_avail(Duration::from_micros(us));
            run_lighttrader(&trace, &cfg).response_rate()
        };
        prop_assert!(rate(4_000) >= rate(1_000) - 1e-9);
        prop_assert!(rate(8_000) >= rate(4_000) - 1e-9);
    }
}
