//! Back-test farm correctness gates.
//!
//! The farm is only worth having if it is *boringly* correct: every
//! cell's result must be bit-identical to the serial engine on the same
//! inputs, at any worker count, with byte-identical reruns; and the
//! trace cache must build each distinct session exactly once.

use lt_dnn::ModelKind;
use lt_feed::{HawkesParams, SessionArtifact, TraceCache};
use lt_sched::Policy;
use lt_sim::farm::{CellSummary, FarmRunner, GridDeadline, SweepGrid};
use lt_sim::{run_lighttrader, run_multi_merged, FaultRates, IngressFaults, IngressReport};
use std::sync::Arc;

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
    // Rebuild every session independently and run the serial engine —
    // the farm must not have perturbed anything.
    let serial: Vec<(CellSummary, Option<IngressReport>)> = grid
        .expand()
        .iter()
        .map(|cell| {
            let metrics = match cell.spec.build() {
                SessionArtifact::Single(session) => run_lighttrader(&session.trace, &cell.config),
                SessionArtifact::Multi {
                    session,
                    merged,
                    shards,
                } => run_multi_merged(&session, &merged, &shards, &cell.config),
            };
            (CellSummary::from_metrics(&metrics), metrics.ingress)
        })
        .collect();
    assert!(
        serial.iter().any(|(_, ingress)| ingress.is_some()),
        "the grid must have faulted cells"
    );
    for workers in [1, 4, 0] {
        let results = FarmRunner::new().workers(workers).run(&grid);
        assert_eq!(results.len(), grid.n_cells());
        for (cell, (expect, ingress)) in results.cells().iter().zip(&serial) {
            let row = results.summary(cell.index);
            assert!(
                row == *expect && row.energy_j.to_bits() == expect.energy_j.to_bits(),
                "cell {} diverged from the serial engine at workers={workers}: \
                 {row:?} vs {expect:?}",
                cell.id
            );
            assert_eq!(
                results.ingress(cell.index),
                *ingress,
                "cell {} ingress diverged at workers={workers}",
                cell.id
            );
        }
    }
}

#[test]
fn reruns_are_byte_identical_at_any_worker_count() {
    let grid = mixed_grid();
    let run = |workers| {
        FarmRunner::new()
            .workers(workers)
            .try_run(&grid)
            .expect("clean grid")
            .to_grid_json()
    };
    let baseline = run(1);
    for workers in [2, 7, 0] {
        assert_eq!(
            baseline,
            run(workers),
            "grid JSON diverged at workers={workers}"
        );
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
fn every_failing_cell_is_reported_and_the_rest_still_run() {
    // drop = 1.5 is an invalid fault rate: config validation panics
    // inside the worker for exactly the cells carrying that profile.
    let grid = SweepGrid::evaluation(0.4)
        .traffic(calm(), None)
        .policies([Policy::Baseline, Policy::Both])
        .faults([IngressFaults::lossless(), lossy(1.5)])
        .seeds([1]);
    let runner = FarmRunner::new().workers(2);
    let err = runner
        .try_run(&grid)
        .expect_err("invalid fault rate must fail");
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
    let panic =
        std::panic::catch_unwind(|| runner.run(&grid)).expect_err("`run` must panic on failures");
    let message = panic
        .downcast_ref::<String>()
        .expect("panic message is a string");
    assert!(message.contains("2 of 4 farm cells failed"), "{message}");
}
