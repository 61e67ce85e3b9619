//! Determinism: the discrete-event engine is a pure function of
//! (trace seed, config). Two runs of the same back-test must produce
//! byte-identical serialized metrics — counters, the full latency
//! stream, every per-stage telemetry column, and the energy bit
//! pattern — under every scheduling policy and for both system models.

use lt_accel::PowerCondition;
use lt_dnn::ModelKind;
use lt_sched::Policy;
use lt_sim::traffic::{evaluation_trace, scheduling_deadline_for};
use lt_sim::{
    run_lighttrader, run_single_device, BacktestConfig, BacktestMetrics, SingleDeviceSystem,
};
use std::time::Duration;

const SECS: f64 = 3.0;
const SEED: u64 = 4242;

fn serialize(m: &BacktestMetrics) -> String {
    let json = serde_json::to_string(m).expect("metrics serialize");
    // The energy field must round-trip bit-exactly, not just textually:
    // append the bit pattern so any formatting leniency cannot hide a
    // float divergence.
    format!("{json}|energy_bits={:016x}", m.energy_j.to_bits())
}

#[test]
fn lighttrader_runs_are_byte_identical_for_every_policy() {
    for policy in Policy::ALL {
        for (kind, n) in [
            (ModelKind::VanillaCnn, 1usize),
            (ModelKind::DeepLob, 4),
            (ModelKind::TransLob, 8),
        ] {
            let cfg = BacktestConfig::new(kind, n, PowerCondition::Limited)
                .with_policy(policy)
                .with_t_avail(scheduling_deadline_for(kind));
            // Independently generated traces from the same seed, so the
            // whole pipeline (feed -> engine -> metrics) is covered.
            let first = serialize(&run_lighttrader(&evaluation_trace(SECS, SEED), &cfg));
            let second = serialize(&run_lighttrader(&evaluation_trace(SECS, SEED), &cfg));
            assert_eq!(first, second, "{policy:?}/{kind}/{n} diverged");
        }
    }
}

#[test]
fn single_device_runs_are_byte_identical() {
    for system in [SingleDeviceSystem::gpu(), SingleDeviceSystem::fpga()] {
        for kind in ModelKind::ALL {
            let run = || {
                run_single_device(
                    &evaluation_trace(SECS, SEED),
                    &system,
                    kind,
                    Duration::from_millis(5),
                    100,
                )
            };
            let first = serialize(&run());
            let second = serialize(&run());
            assert_eq!(first, second, "{}/{kind} diverged", system.name);
        }
    }
}

#[test]
fn stage_sums_reconcile_for_every_policy() {
    for policy in Policy::ALL {
        let cfg = BacktestConfig::new(ModelKind::DeepLob, 4, PowerCondition::Limited)
            .with_policy(policy)
            .with_t_avail(scheduling_deadline_for(ModelKind::DeepLob));
        let m = run_lighttrader(&evaluation_trace(SECS, SEED), &cfg);
        assert!(m.responded > 0, "{policy:?}: no responses to decompose");
        assert!(
            !m.latencies().is_empty(),
            "{policy:?}: missing stage samples"
        );
        assert!(
            m.stage_sums_reconcile(1),
            "{policy:?}: stage sums drifted more than 1 ns"
        );
    }
}
