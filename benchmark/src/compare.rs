//! `compare`: two results files side by side, one row per (workload,
//! end-to-end metric), judged against the metric's bound.

use crate::harness;
use crate::manifest;
use serde::{Content, DeError, Deserialize};

/// Any JSON value, as the vendored `serde` represents it.
struct Json(Content);

impl Deserialize for Json {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        Ok(Json(c.clone()))
    }
}

fn field<'c>(c: &'c Content, name: &str) -> Option<&'c Content> {
    serde::map_field(c, name).ok()
}

fn number(c: &Content) -> Option<f64> {
    match *c {
        Content::F64(v) => Some(v),
        Content::U64(v) => Some(v as f64),
        Content::I64(v) => Some(v as f64),
        _ => None,
    }
}

/// The untraced runs of one results file.
struct Results(Vec<Content>);

impl Results {
    fn read(path: &str) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let mut runs = Vec::new();
        for (i, line) in text
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty())
        {
            let Json(run) =
                serde_json::from_str(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
            if field(&run, "trace").and_then(number) == Some(0.0) {
                runs.push(run);
            }
        }
        Ok(Results(runs))
    }

    /// Median and quartiles of `metric` on `workload` over the file's
    /// runs, and how many there are.
    fn metric(&self, workload: &str, metric: &str) -> Option<(f64, (f64, f64), usize)> {
        let values: Vec<f64> = self
            .0
            .iter()
            .filter(|run| matches!(field(run, "workload"), Some(Content::Str(w)) if w == workload))
            .filter_map(|run| {
                field(field(field(run, "metrics")?, metric)?, "value").and_then(number)
            })
            .collect();
        (!values.is_empty()).then(|| {
            (
                harness::median(&values),
                harness::quartiles(&values),
                values.len(),
            )
        })
    }

    /// The one run length every run of the file has.
    fn seconds(&self, path: &str) -> Result<f64, String> {
        let mut lengths = self
            .0
            .iter()
            .map(|run| field(run, "seconds").and_then(number));
        let first = lengths
            .next()
            .flatten()
            .ok_or_else(|| format!("{path}: no untraced run that says how long it measured"))?;
        if lengths.any(|l| l != Some(first)) {
            return Err(format!("{path}: runs of different lengths"));
        }
        Ok(first)
    }

    fn all_correct(&self) -> bool {
        self.0
            .iter()
            .all(|run| field(run, "correct") == Some(&Content::Bool(true)))
    }
}

/// Prints the comparison of results file `b` against base `a`. Returns
/// false when any metric got worse by more than its bound or any run in
/// either file was not correct.
///
/// # Errors
///
/// Returns a message when a file cannot be read or parsed, or when the
/// two were not measured alike: run length is set by the benchmark and
/// is the same on both sides.
pub fn run(a: &str, b: &str) -> Result<bool, String> {
    let (base, change) = (Results::read(a)?, Results::read(b)?);
    let (x, y) = (base.seconds(a)?, change.seconds(b)?);
    if x != y {
        return Err(format!("{a} measured {x} s, {b} {y} s"));
    }
    println!(
        "{:<16} {:<12} {:>14} {:>24} {:>14} {:>24} {:>8} {:>6}  verdict",
        "workload", "metric", "base", "[q1, q3]", "change", "[q1, q3]", "delta", "bound"
    );
    let mut ok = true;
    let manifest = manifest::get();
    for workload in manifest.workloads.iter().map(|w| w.name) {
        for &manifest::EndToEnd {
            name: metric,
            better,
            bound,
            ..
        } in &manifest.end_to_end
        {
            let (Some((x, xq, x_runs)), Some((y, yq, y_runs))) = (
                base.metric(workload, metric),
                change.metric(workload, metric),
            ) else {
                println!("{workload:<16} {metric:<12} missing from one of the files");
                ok = false;
                continue;
            };
            let worse = if better == "lower" {
                (y - x) / x
            } else {
                (x - y) / x
            };
            let spread = ((xq.1 - xq.0) / x).max((yq.1 - yq.0) / y);
            let verdict = if worse > bound {
                ok = false;
                "BREACH"
            } else if spread > bound {
                "unresolved"
            } else if x_runs.min(y_runs) == 1 {
                // One figure a side says nothing about the spread.
                "one run"
            } else {
                "within"
            };
            println!(
                "{workload:<16} {metric:<12} {x:>14.4} {:>24} {y:>14.4} {:>24} {:>+7.1}% {:>5.0}%  {verdict}",
                format!("[{:.4}, {:.4}]", xq.0, xq.1),
                format!("[{:.4}, {:.4}]", yq.0, yq.1),
                (y - x) / x * 100.0,
                bound * 100.0
            );
        }
    }
    for (name, results) in [(a, &base), (b, &change)] {
        if !results.all_correct() {
            println!("{name}: a run failed its output checks");
            ok = false;
        }
    }
    Ok(ok)
}
