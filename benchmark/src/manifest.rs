//! The benchmark's contract, read from `BENCHMARK.json` at the
//! repository root: workloads, end-to-end metrics with their regression
//! bounds, per-layer metrics, and the seconds one run measures. The file
//! is compiled in, so the binary and the driver read the same table.

use serde::Deserialize;
use std::sync::OnceLock;

/// A workload and the one-line reason it exists.
#[derive(Debug, Deserialize)]
pub struct Workload {
    /// Name, as `--workload` takes it.
    pub name: &'static str,
    /// Why it was chosen.
    pub why: &'static str,
}

/// An end-to-end metric.
///
/// On a quiet machine the spread across ten seeds (inter-quartile range
/// over median) is a few per cent for the timing metrics. The bounds are
/// wider than three times that because the authoring machine, a shared
/// virtual one, also has minutes-long episodes in which everything runs
/// 1.3–2× slower, and a run that falls inside one cannot tell.
#[derive(Debug, Deserialize)]
pub struct EndToEnd {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// Share of the base's median by which it may get worse.
    pub bound: f64,
}

/// A per-layer metric: no bound.
#[derive(Debug, Deserialize)]
pub struct PerLayer {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
}

/// `BENCHMARK.json`, less the driver's own keys (`command`, `paths`).
#[derive(Debug, Deserialize)]
pub struct Manifest {
    /// Seconds one run measures.
    pub run_seconds: u32,
    /// The workloads.
    pub workloads: Vec<Workload>,
    /// The end-to-end metrics, reported by every workload.
    pub end_to_end: Vec<EndToEnd>,
    /// The per-layer metrics, reported by every traced run.
    pub per_layer: Vec<PerLayer>,
}

/// The manifest, parsed once.
///
/// # Panics
///
/// Panics when the compiled-in `BENCHMARK.json` does not parse: the
/// build is broken.
pub fn get() -> &'static Manifest {
    static MANIFEST: OnceLock<Manifest> = OnceLock::new();
    MANIFEST.get_or_init(|| {
        serde_json::from_str(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json holds the keys the benchmark reads")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::SPANS;
    use lighttrader::sim::Stage;

    #[test]
    fn every_span_and_simulated_stage_is_listed() {
        let listed: Vec<&str> = get().per_layer.iter().map(|m| m.name).collect();
        for span in &SPANS[1..] {
            for stat in ["p50_ns", "p99_ns", "share"] {
                let name = format!("{span}.{stat}");
                assert!(listed.contains(&name.as_str()), "{name}");
            }
        }
        for stage in Stage::ALL {
            for stat in ["p50_ns", "p99_ns"] {
                let name = format!("sim.stage.{}.{stat}", stage.name());
                assert!(listed.contains(&name.as_str()), "{name}");
            }
        }
    }

    #[test]
    fn the_manifest_stays_within_the_contract() {
        let manifest = get();
        assert!(manifest.per_layer.len() <= 128);
        let mut names: Vec<&str> = manifest.per_layer.iter().map(|m| m.name).collect();
        names.extend(manifest.end_to_end.iter().map(|m| m.name));
        names.extend(manifest.workloads.iter().map(|w| w.name));
        for name in &names {
            assert!(name.len() <= 64, "{name}");
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let unique: std::collections::HashSet<&&str> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "a name is used once");
        assert!(manifest.workloads.iter().all(|w| w.why.len() <= 200));
        assert!(manifest
            .end_to_end
            .iter()
            .all(|m| m.bound > 0.0 && m.bound <= 0.25));
        for workload in &manifest.workloads {
            let built = crate::workloads::build(workload.name, 1, crate::workloads::Size::Smoke);
            assert!(
                built.is_some(),
                "{} is listed and cannot be built",
                workload.name
            );
        }
    }
}
