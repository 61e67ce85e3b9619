//! Golden parity: the unified discrete-event engine must reproduce the
//! pre-refactor back-test results bit-identically.
//!
//! The goldens under `tests/goldens/` were captured from the seed HEAD
//! (commit 886d879, before the engine refactor) by running the then
//! hand-rolled loops in `baseline.rs` and `lighttrader.rs` over two
//! seeded traces. Every outcome counter, the exact tick-to-trade latency
//! stream (order included), and the bit pattern of the accumulated energy
//! must match: the engine is a refactor, not a re-model.
//!
//! Regenerate (only after an *intentional* semantic change, with the
//! change explained in CHANGES.md):
//!
//! ```text
//! cargo test -p lt-sim --release --test golden_parity -- --ignored
//! ```

mod support;

use lt_accel::PowerCondition;
use lt_dnn::ModelKind;
use lt_feed::TickTrace;
use lt_sched::Policy;
use lt_sim::traffic::{burst_storm_trace, evaluation_trace, scheduling_deadline_for};
use lt_sim::{
    run_lighttrader, run_multi_merged, run_single_device, BacktestConfig, BacktestMetrics,
    ExecutionConfig, SignalConfig, SingleDeviceSystem,
};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Duration;
use support::multi_evaluation_session;

/// One golden scenario: a named back-test whose metrics are pinned.
struct Scenario {
    name: &'static str,
    trace_secs: f64,
    trace_seed: u64,
    run: fn(&TickTrace) -> BacktestMetrics,
}

fn lt_cfg(kind: ModelKind, n: usize, condition: PowerCondition, policy: Policy) -> BacktestConfig {
    let cfg = BacktestConfig::new(kind, n, condition).with_policy(policy);
    if policy == Policy::Baseline {
        cfg
    } else {
        // The scheduling policies only bite under a constrained horizon.
        cfg.with_t_avail(scheduling_deadline_for(kind))
    }
}

/// The pinned scenario matrix: both profiled single-device baselines and
/// all four LightTrader policies, each on two independently seeded traces.
fn scenarios() -> Vec<Scenario> {
    let mut out = Vec::new();
    for (tag, seed) in [("a", 101u64), ("b", 20230225u64)] {
        macro_rules! scenario {
            ($name:expr, $run:expr) => {
                out.push(Scenario {
                    name: $name,
                    trace_secs: 4.0,
                    trace_seed: seed,
                    run: $run,
                })
            };
        }
        match tag {
            "a" => {
                scenario!("a_gpu_deeplob", |t| run_single_device(
                    t,
                    &SingleDeviceSystem::gpu(),
                    ModelKind::DeepLob,
                    Duration::from_millis(5),
                    100,
                ));
                scenario!("a_fpga_translob", |t| run_single_device(
                    t,
                    &SingleDeviceSystem::fpga(),
                    ModelKind::TransLob,
                    Duration::from_millis(5),
                    100,
                ));
                scenario!("a_lt_baseline", |t| run_lighttrader(
                    t,
                    &lt_cfg(
                        ModelKind::DeepLob,
                        2,
                        PowerCondition::Sufficient,
                        Policy::Baseline,
                    ),
                ));
                scenario!("a_lt_ws", |t| run_lighttrader(
                    t,
                    &lt_cfg(
                        ModelKind::VanillaCnn,
                        1,
                        PowerCondition::Sufficient,
                        Policy::WorkloadScheduling,
                    ),
                ));
                scenario!("a_lt_ds", |t| run_lighttrader(
                    t,
                    &lt_cfg(
                        ModelKind::TransLob,
                        8,
                        PowerCondition::Limited,
                        Policy::DvfsScheduling,
                    ),
                ));
                scenario!("a_lt_both", |t| run_lighttrader(
                    t,
                    &lt_cfg(ModelKind::DeepLob, 4, PowerCondition::Limited, Policy::Both,),
                ));
                // A tight horizon under limited power on a wide pool
                // forces Algorithm 1's "remove oldest input tensor" path
                // (deferred > 0): the lone-boost stale budget assumes
                // power the busy pool cannot actually grant.
                scenario!("a_lt_defer", |t| run_lighttrader(
                    t,
                    &BacktestConfig::new(ModelKind::DeepLob, 16, PowerCondition::Limited)
                        .with_policy(Policy::Both)
                        .with_t_avail(Duration::from_micros(900)),
                ));
            }
            _ => {
                scenario!("b_gpu_deeplob", |t| run_single_device(
                    t,
                    &SingleDeviceSystem::gpu(),
                    ModelKind::DeepLob,
                    Duration::from_millis(5),
                    100,
                ));
                scenario!("b_fpga_translob", |t| run_single_device(
                    t,
                    &SingleDeviceSystem::fpga(),
                    ModelKind::TransLob,
                    Duration::from_millis(5),
                    100,
                ));
                scenario!("b_lt_baseline", |t| run_lighttrader(
                    t,
                    &lt_cfg(
                        ModelKind::VanillaCnn,
                        2,
                        PowerCondition::Limited,
                        Policy::Baseline,
                    ),
                ));
                scenario!("b_lt_ws", |t| run_lighttrader(
                    t,
                    &lt_cfg(
                        ModelKind::VanillaCnn,
                        2,
                        PowerCondition::Sufficient,
                        Policy::WorkloadScheduling,
                    ),
                ));
                scenario!("b_lt_ds", |t| run_lighttrader(
                    t,
                    &lt_cfg(
                        ModelKind::DeepLob,
                        8,
                        PowerCondition::Limited,
                        Policy::DvfsScheduling,
                    ),
                ));
                scenario!("b_lt_both", |t| run_lighttrader(
                    t,
                    &lt_cfg(
                        ModelKind::TransLob,
                        4,
                        PowerCondition::Sufficient,
                        Policy::Both,
                    ),
                ));
            }
        }
    }
    out
}

/// Serializes the pre-refactor-visible metric surface to a stable text
/// format. Energy is stored as the f64 bit pattern so parity is exact,
/// not within-epsilon; the latency stream pins both values and order.
fn encode(m: &BacktestMetrics) -> String {
    let mut s = String::new();
    writeln!(s, "responded {}", m.responded).unwrap();
    writeln!(s, "late {}", m.late).unwrap();
    writeln!(s, "dropped_full {}", m.dropped_full).unwrap();
    writeln!(s, "dropped_stale {}", m.dropped_stale).unwrap();
    writeln!(s, "deferred {}", m.deferred).unwrap();
    writeln!(s, "batches {}", m.batches).unwrap();
    writeln!(s, "batched_queries {}", m.batched_queries).unwrap();
    writeln!(s, "energy_bits {}", m.energy_j.to_bits()).unwrap();
    write!(s, "latencies_ns").unwrap();
    for l in m.latencies() {
        write!(s, " {l}").unwrap();
    }
    writeln!(s).unwrap();
    s
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens")
        .join(format!("{name}.golden"))
}

#[test]
fn engine_reproduces_pre_refactor_metrics() {
    let mut traces: Vec<(u64, TickTrace)> = Vec::new();
    for s in scenarios() {
        if !traces.iter().any(|(seed, _)| *seed == s.trace_seed) {
            traces.push((s.trace_seed, evaluation_trace(s.trace_secs, s.trace_seed)));
        }
        let trace = &traces
            .iter()
            .find(|(seed, _)| *seed == s.trace_seed)
            .unwrap()
            .1;
        let got = encode(&(s.run)(trace));
        let want = std::fs::read_to_string(golden_path(s.name))
            .unwrap_or_else(|e| panic!("missing golden {}: {e}", s.name));
        assert_eq!(
            got, want,
            "scenario {} diverged from the pre-refactor golden",
            s.name
        );
    }
}

/// Every LightTrader scenario from the pinned matrix as `(golden name,
/// config)` — the configs behind the `run_lighttrader` closures above.
fn lighttrader_scenarios() -> Vec<(&'static str, BacktestConfig)> {
    use ModelKind::*;
    use PowerCondition::*;
    vec![
        (
            "a_lt_baseline",
            lt_cfg(DeepLob, 2, Sufficient, Policy::Baseline),
        ),
        (
            "a_lt_ws",
            lt_cfg(VanillaCnn, 1, Sufficient, Policy::WorkloadScheduling),
        ),
        (
            "a_lt_ds",
            lt_cfg(TransLob, 8, Limited, Policy::DvfsScheduling),
        ),
        ("a_lt_both", lt_cfg(DeepLob, 4, Limited, Policy::Both)),
        (
            "a_lt_defer",
            BacktestConfig::new(DeepLob, 16, Limited)
                .with_policy(Policy::Both)
                .with_t_avail(Duration::from_micros(900)),
        ),
        (
            "b_lt_baseline",
            lt_cfg(VanillaCnn, 2, Limited, Policy::Baseline),
        ),
        (
            "b_lt_ws",
            lt_cfg(VanillaCnn, 2, Sufficient, Policy::WorkloadScheduling),
        ),
        (
            "b_lt_ds",
            lt_cfg(DeepLob, 8, Limited, Policy::DvfsScheduling),
        ),
        ("b_lt_both", lt_cfg(TransLob, 4, Sufficient, Policy::Both)),
    ]
}

/// Differential reduction: `DeadlineTiered` with an unbounded budget
/// always serves the ladder's best tier, the configured kind, on the
/// WS+DS machinery, so it must be **byte-identical** to the fixed WS+DS
/// policy — checked against the very same golden files, for every WS+DS
/// scenario in the pinned matrix.
#[test]
fn tiered_passthrough_matches_fixed_policy_goldens() {
    let mut traces: Vec<(u64, TickTrace)> = Vec::new();
    let both = lighttrader_scenarios()
        .into_iter()
        .filter(|(_, cfg)| cfg.policy == Policy::Both);
    let mut checked = Vec::new();
    for (name, fixed_cfg) in both {
        let seed = if name.starts_with('a') {
            101u64
        } else {
            20230225u64
        };
        if !traces.iter().any(|(s, _)| *s == seed) {
            traces.push((seed, evaluation_trace(4.0, seed)));
        }
        let trace = &traces.iter().find(|(s, _)| *s == seed).unwrap().1;
        let tiered_cfg = fixed_cfg.with_deadline_tiered(None);
        let got = encode(&run_lighttrader(trace, &tiered_cfg));
        let want = std::fs::read_to_string(golden_path(name))
            .unwrap_or_else(|e| panic!("missing golden {name}: {e}"));
        assert_eq!(
            got, want,
            "tiered passthrough diverged from the {name} golden"
        );
        checked.push(name);
    }
    assert_eq!(checked, ["a_lt_both", "a_lt_defer", "b_lt_both"]);
}

/// Differential isolation: enabling the execution & portfolio layer in
/// assume-fill mode (the historical accounting, now made explicit) must
/// leave the latency/outcome surface **byte-identical** — fills push no
/// events and touch no scheduling state — checked against the very same
/// golden files, for every LightTrader scenario in the pinned matrix.
#[test]
fn assume_fill_mode_matches_goldens() {
    let mut traces: Vec<(u64, TickTrace)> = Vec::new();
    for (name, fixed_cfg) in lighttrader_scenarios() {
        let seed = if name.starts_with('a') {
            101u64
        } else {
            20230225u64
        };
        if !traces.iter().any(|(s, _)| *s == seed) {
            traces.push((seed, evaluation_trace(4.0, seed)));
        }
        let trace = &traces.iter().find(|(s, _)| *s == seed).unwrap().1;
        let trading_cfg = fixed_cfg.with_execution(ExecutionConfig::assume_fill());
        let m = run_lighttrader(trace, &trading_cfg);
        let exec = m
            .execution
            .expect("enabled execution layer must report stats");
        exec.assert_tiles();
        let got = encode(&m);
        let want = std::fs::read_to_string(golden_path(name))
            .unwrap_or_else(|e| panic!("missing golden {name}: {e}"));
        assert_eq!(
            got, want,
            "assume-fill execution diverged from the {name} golden"
        );
    }
}

/// The exact [`lt_sim::ExecutionStats`] of every scheduler under every
/// fill mode on one storm, then per symbol of a sharded run at one and
/// four accelerators, one line each. Every fill, miss, suppression and
/// half-tick of P&L is pinned, so an order settled with another tick's
/// decision moves a line even where the relative floors of
/// `tests/execution.rs` would still hold.
fn fills_report() -> String {
    let mut s = String::new();
    let storm = burst_storm_trace(4.0, 70_823);
    let base = BacktestConfig::new(ModelKind::DeepLob, 2, PowerCondition::Limited)
        .with_t_avail(scheduling_deadline_for(ModelKind::DeepLob));
    let schedulers = Policy::ALL
        .iter()
        .map(|&p| (format!("{p:?}"), base.with_policy(p)))
        .chain([(
            "DeadlineTiered(450us)".to_string(),
            base.with_deadline_tiered(Some(Duration::from_micros(450))),
        )]);
    let modes = [
        ("realistic", ExecutionConfig::realistic()),
        ("assume_fill", ExecutionConfig::assume_fill()),
        (
            "kill_floor_-40",
            ExecutionConfig {
                kill_floor_ticks: Some(-40),
                ..ExecutionConfig::realistic()
            },
        ),
    ];
    for (scheduler, cfg) in schedulers {
        for (mode, exec) in modes {
            let stats = run_lighttrader(&storm, &cfg.with_execution(exec))
                .execution
                .expect("enabled layer reports stats");
            writeln!(s, "storm {scheduler} {mode} {stats:?}").unwrap();
        }
    }
    let session = multi_evaluation_session(2.0, 42, 4, 1.0);
    // The default 100-tick horizon leaves every symbol but the hot one
    // without a signal once its window is warm; at 10 ticks two trade.
    let signal = SignalConfig {
        horizon_ticks: 10,
        ..SignalConfig::default()
    };
    for accels in [1, 4] {
        let cfg = BacktestConfig::new(ModelKind::DeepLob, accels, PowerCondition::Sufficient)
            .with_policy(Policy::Both)
            .with_t_avail(scheduling_deadline_for(ModelKind::DeepLob))
            .with_execution(ExecutionConfig {
                signal,
                ..ExecutionConfig::realistic()
            });
        let (trace, shards) = session.merged();
        for (i, symbol) in run_multi_merged(&session, &trace, &shards, &cfg)
            .shards()
            .iter()
            .enumerate()
        {
            let stats = symbol.execution.expect("trading run reports per symbol");
            writeln!(s, "multi {accels} accels, symbol {i} {stats:?}").unwrap();
        }
    }
    s
}

/// Fills are pinned exactly, not only by the floors and tiling checks of
/// `tests/execution.rs`: each order must trade its own tick's decision.
#[test]
fn execution_fills_match_goldens() {
    let got = fills_report();
    let want = std::fs::read_to_string(golden_path("fills"))
        .unwrap_or_else(|e| panic!("missing golden fills: {e}"));
    for (got, want) in got.lines().zip(want.lines()) {
        assert_eq!(got, want, "fills diverged from the golden");
    }
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "fills golden rows"
    );
}

/// Rewrites every golden from the current implementation. Run only when a
/// semantic change is intended; the diff is the review artifact.
#[test]
#[ignore = "regenerates the goldens from the current implementation"]
fn regenerate_goldens() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/goldens");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(golden_path("fills"), fills_report()).unwrap();
    let mut traces: Vec<(u64, TickTrace)> = Vec::new();
    for s in scenarios() {
        if !traces.iter().any(|(seed, _)| *seed == s.trace_seed) {
            traces.push((s.trace_seed, evaluation_trace(s.trace_secs, s.trace_seed)));
        }
        let trace = &traces
            .iter()
            .find(|(seed, _)| *seed == s.trace_seed)
            .unwrap()
            .1;
        std::fs::write(golden_path(s.name), encode(&(s.run)(trace))).unwrap();
    }
}
