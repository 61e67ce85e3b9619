//! The farm's worker pool: work-stealing scatter into disjoint slots.
//!
//! One helper backs both phases of the farm runner: `jobs` indices are
//! claimed off a shared atomic counter by `workers` scoped threads, and
//! each outcome is written straight into its own pre-allocated slot. No collector channel, no second pass over a
//! `Vec<Option<_>>` — a slot is a `OnceLock` only its claiming worker
//! ever touches, so the scatter is race-free by construction and the
//! results come back in input order for free.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Extracts a printable message from a panic payload.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "<non-string panic payload>"
    }
}

/// Resolves a worker-count request: 0 means one worker per available
/// CPU, and the pool never exceeds the job count.
pub(crate) fn resolve_workers(jobs: usize, workers: usize) -> usize {
    let workers = if workers == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    } else {
        workers
    };
    workers.min(jobs).max(1)
}

/// Runs `run(i)` for every `i in 0..jobs` across `workers` threads
/// (0 = auto), returning per-job outcomes in input order. A panicking
/// job becomes `Err(panic message)` in its slot; the other jobs keep
/// running.
pub(crate) fn scatter<T, F>(jobs: usize, workers: usize, run: F) -> Vec<Result<T, String>>
where
    T: Send + Sync,
    F: Fn(usize) -> T + Sync,
{
    if jobs == 0 {
        return Vec::new();
    }
    let workers = resolve_workers(jobs, workers);
    let slots: Vec<OnceLock<Result<T, String>>> = (0..jobs).map(|_| OnceLock::new()).collect();
    let next = AtomicUsize::new(0);
    crossbeam::scope(|scope| {
        for _ in 0..workers {
            let slots = &slots;
            let next = &next;
            let run = &run;
            scope.spawn(move |_| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= jobs {
                    break;
                }
                let outcome = catch_unwind(AssertUnwindSafe(|| run(i)))
                    .map_err(|payload| panic_message(payload.as_ref()).to_owned());
                slots[i].set(outcome).unwrap_or_else(|_| {
                    unreachable!("slot {i} is written once by its claiming worker")
                });
            });
        }
    })
    .expect("scatter workers never propagate panics");
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("every claimed slot is filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scatter_preserves_input_order() {
        let out = scatter(100, 7, |i| i * i);
        for (i, r) in out.iter().enumerate() {
            assert_eq!(r.as_ref().unwrap(), &(i * i));
        }
    }

    #[test]
    fn scatter_isolates_panics_per_job() {
        let out = scatter(10, 3, |i| {
            if i % 4 == 1 {
                panic!("job {i} exploded");
            }
            i
        });
        for (i, r) in out.iter().enumerate() {
            if i % 4 == 1 {
                assert_eq!(r.as_ref().unwrap_err(), &format!("job {i} exploded"));
            } else {
                assert_eq!(r.as_ref().unwrap(), &i);
            }
        }
    }

    #[test]
    fn scatter_empty_and_worker_resolution() {
        assert!(scatter(0, 4, |i| i).is_empty());
        assert_eq!(resolve_workers(3, 8), 3, "never more workers than jobs");
        assert_eq!(resolve_workers(8, 3), 3);
        assert!(resolve_workers(8, 0) >= 1, "auto resolves to at least one");
    }
}
