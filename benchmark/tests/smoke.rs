//! Every workload at smoke size, tracing off and on: all output checks
//! hold and every metric of `BENCHMARK.json` is emitted exactly once.

use lt_benchmark::report::{self, Options, Report};
use lt_benchmark::workloads::Size;
use lt_benchmark::{compare, manifest};

fn smoke(workload: &str, trace: bool) -> Report {
    report::run(&Options {
        workload: workload.to_string(),
        seed: 11,
        seconds: 0.0,
        trace,
        size: Size::Smoke,
    })
    .expect("a listed workload")
}

fn names(report: &Report) -> Vec<&str> {
    report.metrics.iter().map(|m| m.name).collect()
}

fn workloads() -> impl Iterator<Item = &'static str> {
    manifest::get().workloads.iter().map(|w| w.name)
}

#[test]
fn every_workload_emits_every_end_to_end_metric_and_passes_its_checks() {
    let want: Vec<&str> = manifest::get().end_to_end.iter().map(|m| m.name).collect();
    for workload in workloads() {
        let report = smoke(workload, false);
        assert!(report.correct, "{workload}: {}", report.table());
        assert_eq!(report.failed, 0, "{workload}");
        assert!(report.attempted >= 50, "{workload}");
        assert_eq!(names(&report), want, "{workload}");
        for m in &report.metrics {
            assert!(
                m.value > 0.0 && m.value.is_finite(),
                "{workload} {}",
                m.name
            );
        }
        assert!(report
            .contract_line()
            .starts_with("{\"correct\": true, \"attempted\": "));
    }
}

#[test]
fn every_workload_emits_every_layer_metric_and_its_shadow_agrees() {
    let want: Vec<&str> = manifest::get().per_layer.iter().map(|m| m.name).collect();
    let value = |report: &Report, name: &str| {
        report
            .metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
            .expect("a listed metric")
    };
    for workload in workloads() {
        let report = smoke(workload, true);
        // `correct` covers: digests identical across passes, the traced
        // shadow's digest equal to the facade's, and every count check.
        assert!(report.correct, "{workload}: {}", report.table());
        assert_eq!(names(&report), want, "{workload}");
        assert!(report
            .trace_json
            .as_deref()
            .is_some_and(|j| j.contains("\"op_id\":")));
    }
    let ingest = smoke("ingest_ab", true);
    assert!(
        names(&ingest)
            .iter()
            .filter(|n| n.starts_with("dnn."))
            .all(|n| value(&ingest, n) == 0.0),
        "no inference behind the front end"
    );
    assert!(value(&ingest, "pipeline.arbiter.on_packet_events.share") > 0.0);
    let multi = smoke("multi_translob", true);
    assert_eq!(value(&multi, "multi.mean_batch"), 8.0);
    let storm = smoke("storm_deeplob", true);
    // A ratio of two timings taken while the other tests run beside
    // this one: the full-size run shows 0.97, here it only has to say
    // that inference is most of the work.
    assert!(value(&storm, "dnn.registry.forward.share") > 0.5);
    assert_eq!(
        value(&storm, "core.inferences"),
        value(&storm, "trading.orders_sent") + value(&storm, "trading.suppressed")
    );
}

#[test]
fn compare_accepts_a_rerun_flags_a_regression_and_refuses_unlike_runs() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let write = |file: &str, scale: f64, seconds: f64| {
        let mut text = String::new();
        for workload in workloads() {
            let mut report = smoke(workload, false);
            report.options.seconds = seconds;
            for m in &mut report.metrics {
                // Stand-in values: the comparison is under test, not the
                // smoke-sized timings, which are too short to be steady.
                m.value = if m.name == "op_p50_us" {
                    100.0 * scale
                } else {
                    100.0
                };
            }
            text.push_str(&report.results_line());
            text.push('\n');
        }
        let path = dir.join(file);
        std::fs::write(&path, text).expect("the target's tmp dir is writable");
        path.to_str().expect("utf-8 path").to_string()
    };
    let (base, same, slower, longer) = (
        write("a.jsonl", 1.0, 25.0),
        write("b.jsonl", 1.02, 25.0),
        write("c.jsonl", 1.3, 25.0),
        write("d.jsonl", 1.0, 4.0),
    );
    assert_eq!(compare::run(&base, &same), Ok(true));
    assert_eq!(compare::run(&base, &slower), Ok(false));
    assert!(
        compare::run(&base, &longer).is_err(),
        "runs of different lengths are not compared"
    );
}
