//! Back-test farm correctness gates.
//!
//! The farm is only worth having if it is *boringly* correct: every
//! cell's result must be bit-identical to the serial engine on the same
//! inputs, at any worker count, with byte-identical reruns; the trace
//! cache must build each distinct session exactly once; and the cheap
//! SoA columns must tile the full metrics they summarize.

use lt_dnn::ModelKind;
use lt_feed::{HawkesParams, SessionArtifact, TraceCache};
use lt_sched::Policy;
use lt_sim::farm::{FarmRunner, GridDeadline, RetainFull, SweepGrid};
use lt_sim::{
    run_lighttrader, run_multi, try_run_farm, BacktestMetrics, FaultRates, IngressFaults,
};
use std::sync::Arc;

fn serialize(m: &BacktestMetrics) -> String {
    let json = serde_json::to_string(m).expect("metrics serialize");
    // The energy field must round-trip bit-exactly, not just textually.
    format!("{json}|energy_bits={:016x}", m.energy_j.to_bits())
}

fn calm() -> HawkesParams {
    HawkesParams::new(200.0, 30.0, 100.0)
}

fn lossy(drop: f64) -> IngressFaults {
    IngressFaults::symmetric(
        FaultRates {
            drop,
            ..FaultRates::lossless()
        },
        9,
    )
}

/// A mixed grid crossing policies, faults, and 1-and-4-symbol cells —
/// the shapes with genuinely different execution paths (clean single,
/// degraded single, sharded multi).
fn mixed_grid() -> SweepGrid {
    SweepGrid::evaluation(0.6)
        .traffic(calm(), None)
        .models([ModelKind::VanillaCnn, ModelKind::DeepLob])
        .policies([Policy::Baseline, Policy::Both])
        .faults([IngressFaults::lossless(), lossy(0.05)])
        .symbols([(1, 0.0), (4, 1.0)])
        .seeds([1, 2])
        .deadline(GridDeadline::Scheduling)
}

#[test]
fn farm_matches_serial_engine_bit_for_bit() {
    let grid = mixed_grid();
    let results = FarmRunner::new()
        .workers(4)
        .retain(RetainFull::All)
        .run(&grid);
    assert_eq!(results.len(), grid.n_cells());
    for cell in results.cells() {
        // Rebuild the session independently and run the serial engine —
        // the farm must not have perturbed anything.
        let serial = match cell.spec.build() {
            SessionArtifact::Single(session) => run_lighttrader(&session.trace, &cell.config),
            SessionArtifact::Multi { session, .. } => run_multi(&session, &cell.config).aggregate,
        };
        let farm = results
            .full_metrics(cell.index)
            .expect("RetainFull::All keeps every cell");
        assert_eq!(
            serialize(farm),
            serialize(&serial),
            "cell {} diverged from the serial engine",
            cell.id
        );
    }
}

#[test]
fn reruns_are_byte_identical_at_any_worker_count() {
    let grid = mixed_grid();
    let baseline = try_run_farm(&grid, 1).expect("clean grid").to_grid_json();
    for workers in [2, 7, 0] {
        let rerun = try_run_farm(&grid, workers)
            .expect("clean grid")
            .to_grid_json();
        assert_eq!(baseline, rerun, "grid JSON diverged at workers={workers}");
    }
}

#[test]
fn trace_cache_builds_each_session_exactly_once() {
    let grid = mixed_grid();
    let n_cells = grid.n_cells();
    let n_sessions = grid.n_sessions();
    assert!(
        n_sessions < n_cells,
        "grid must share sessions to test reuse"
    );
    let cache = Arc::new(TraceCache::new());
    let results = FarmRunner::new()
        .cache(Arc::clone(&cache))
        .workers(3)
        .run(&grid);
    assert_eq!(results.len(), n_cells);
    let stats = cache.stats();
    assert_eq!(stats.entries, n_sessions, "one entry per distinct spec");
    assert_eq!(
        stats.misses as usize, n_sessions,
        "each session built exactly once (prebuild phase)"
    );
    assert_eq!(
        stats.hits as usize, n_cells,
        "every cell run is a cache hit after prebuild"
    );
}

#[test]
fn soa_columns_tile_the_retained_full_metrics() {
    let grid = mixed_grid();
    let all = FarmRunner::new().retain(RetainFull::All).run(&grid);
    assert_eq!(all.n_retained(), all.len());
    all.assert_full_consistent();

    let some = FarmRunner::new()
        .retain(RetainFull::Cells(vec![0, 3]))
        .run(&grid);
    assert_eq!(some.n_retained(), 2);
    assert!(some.full_metrics(0).is_some());
    assert!(some.full_metrics(1).is_none());
    some.assert_full_consistent();
    // Columns are identical whether or not full metrics ride along.
    assert_eq!(all.to_grid_json(), some.to_grid_json());

    let none = FarmRunner::new().run(&grid);
    assert_eq!(none.n_retained(), 0);
    none.assert_full_consistent();
}

#[test]
fn every_failing_cell_is_reported_and_the_rest_still_run() {
    // drop = 1.5 is an invalid fault rate: config validation panics
    // inside the worker for exactly the cells carrying that profile.
    let grid = SweepGrid::evaluation(0.4)
        .traffic(calm(), None)
        .policies([Policy::Baseline, Policy::Both])
        .faults([IngressFaults::lossless(), lossy(1.5)])
        .seeds([1]);
    let err = try_run_farm(&grid, 2).expect_err("invalid fault rate must fail");
    assert_eq!(err.total, 4);
    assert_eq!(err.failures.len(), 2, "exactly the lossy cells fail");
    for f in &err.failures {
        assert!(f.config.faults.enabled());
        assert!(f.message.contains("must be in [0, 1]"), "{}", f.message);
        assert!(
            f.id.contains("f=1"),
            "failure names the fault axis: {}",
            f.id
        );
    }
    let report = format!("{err}");
    assert!(report.contains("2 of 4 farm cells failed"), "{report}");
    assert!(report.contains("farm cell #"), "{report}");

    // The panicking wrapper carries the same report.
    let panic = std::panic::catch_unwind(|| lt_sim::run_farm(&grid, 2))
        .expect_err("run_farm must panic on failures");
    let message = panic
        .downcast_ref::<String>()
        .expect("panic message is a string");
    assert!(message.contains("2 of 4 farm cells failed"), "{message}");
}
