//! One run of one workload: set-up, output checks, timed passes, and
//! the metrics they give — end to end with tracing off, or per layer
//! from the traced shadow path.

use crate::harness::{self, Group, LatencySummary, Stamp};
use crate::layers::{self, SPANS};
use crate::manifest;
use crate::workloads::{self, Size, Traced, Workload};
use std::fmt::Write as _;
use std::time::Instant;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Per-layer run through the traced shadow path.
    pub trace: bool,
    /// Input size.
    pub size: Size,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// What the run measured.
    pub value: f64,
}

/// The result of one run.
#[derive(Debug, Clone)]
pub struct Report {
    /// What was run.
    pub options: Options,
    /// Where and on what.
    pub stamp: Stamp,
    /// Every output check held.
    pub correct: bool,
    /// Operations attempted in one pass, warm-up left out.
    pub attempted: u64,
    /// Operations that failed an output check.
    pub failed: u64,
    /// FNV digest of a pass's outputs, identical across passes.
    pub output_digest: u64,
    /// Wall time of each pass through the facade, seconds.
    pub pass_walls_s: Vec<f64>,
    /// Time of each set-up, seconds.
    pub setups_s: Vec<f64>,
    /// The metrics: end to end, or per layer for a traced run.
    pub metrics: Vec<Metric>,
    /// `trace.json` of a traced run.
    pub trace_json: Option<String>,
}

/// Set-up is done once before the measuring and repeated during it, at
/// even intervals, so that it meets the machine in the states the passes
/// meet it in: this many times in all, as [`SETUP_SHARE`] of the run's
/// seconds allows. `setup_s` is the fastest, as an operation's time is
/// its fastest across the passes.
const SETUP_REPS: std::ops::RangeInclusive<usize> = 3..=15;
const SETUP_SHARE: f64 = 0.12;

/// One set-up: inputs from the seed, a freshly built system, and a
/// warm-up prefix that fills the feature windows and pays for lazy
/// initialisation. Returns the workload and the seconds it took.
fn set_up(options: &Options) -> Result<(Box<dyn Workload>, f64), String> {
    let start = Instant::now();
    let built = workloads::build(&options.workload, options.seed, options.size)
        .ok_or_else(|| format!("unknown workload `{}`", options.workload))?;
    std::hint::black_box(built.pass(built.warm_up_ops()).digest);
    Ok((built, start.elapsed().as_secs_f64()))
}

/// Runs a workload.
///
/// # Errors
///
/// Returns a message when the workload name is unknown.
pub fn run(options: &Options) -> Result<Report, String> {
    let manifest = manifest::get();
    let clock = Instant::now();
    let elapsed = || clock.elapsed().as_secs_f64();

    // The set-up a user pays once.
    let (workload, first_setup) = set_up(options)?;
    let mut failed = workload.verify();
    let mut setups = vec![first_setup];
    let reps = if options.trace {
        1
    } else {
        let affordable = (options.seconds * SETUP_SHARE / first_setup) as usize;
        affordable.clamp(*SETUP_REPS.start(), *SETUP_REPS.end())
    };

    // Passes through the facade until the seconds are spent, each folded
    // into every operation's floor.
    let n = workload.ops();
    // A traced run makes as many traced passes afterwards, and a traced
    // pass is a little dearer than reckoned: it records spans.
    let until = if options.trace {
        0.9 * options.seconds / (1.0 + workload.traced_pass_cost())
    } else {
        options.seconds
    };
    let mut group = Group::default();
    let mut pass_walls_s = Vec::new();
    let mut peak_rss_mb = harness::peak_rss_mb();
    let measuring = elapsed();
    let mut in_passes = 0.0;
    while group.passes < harness::MIN_PASSES || elapsed() + in_passes / group.passes as f64 <= until
    {
        let began = elapsed();
        let pass = workload.pass(n);
        in_passes += elapsed() - began;
        if group.passes == 0 {
            // If the pass raised the peak resident set, it did so with
            // the harness's own logs of it alive, which are not the
            // program's memory. No set-up has been repeated yet.
            let logs_mb = pass.log_bytes as f64 / f64::from(1 << 20);
            peak_rss_mb = peak_rss_mb.max(harness::peak_rss_mb() - logs_mb);
        }
        pass_walls_s.push(pass.wall_ns as f64 / 1e9);
        group.fold(pass);
        let due = measuring + (until - measuring) * setups.len() as f64 / reps as f64;
        if setups.len() < reps && elapsed() >= due {
            setups.push(set_up(options)?.1);
        }
    }
    while setups.len() < reps.min(*SETUP_REPS.start()) {
        setups.push(set_up(options)?.1);
    }
    let attempted = group.best_ns.len() as u64;
    failed += group.failed;
    let service = group.best();
    let latency = harness::summarize(&workload.latency_ns(&service));

    let mut trace_json = None;
    let metric = |name, unit, value| Metric { name, unit, value };
    let metrics = if options.trace {
        let traced = traced_group(workload.as_ref(), group.passes, group.digest);
        failed += traced.failed.min(attempted.max(1));
        let row = layer_row(workload.as_ref(), &group, &service, &latency, &traced);
        trace_json = Some(traced.json);
        let layers = manifest.per_layer.iter().zip(row);
        layers
            .map(|(m, value)| metric(m.name, m.unit, value))
            .collect()
    } else {
        manifest
            .end_to_end
            .iter()
            .map(|m| {
                let measured = match m.name {
                    "setup_s" => setups.iter().copied().fold(f64::INFINITY, f64::min),
                    "op_p50_us" => latency.p50 / 1e3,
                    "op_tail_us" => latency.tail / 1e3,
                    "ops_per_s" => group.work as f64 / (service.iter().sum::<f64>() / 1e9),
                    "peak_rss_mb" => peak_rss_mb,
                    other => unreachable!("end-to-end metric `{other}` has no measurement"),
                };
                metric(m.name, m.unit, measured)
            })
            .collect()
    };

    let failed = failed.min(attempted.max(1));
    Ok(Report {
        options: options.clone(),
        stamp: Stamp::read(options.seed),
        correct: failed == 0 && group.digests_agree,
        attempted,
        failed,
        output_digest: group.digest,
        pass_walls_s,
        setups_s: setups,
        metrics,
        trace_json,
    })
}

/// The traced passes. A layer call in `layers.rs` that panics
/// leaves the end-to-end run alone: the traced section reads zero and
/// every operation counts as failed.
fn traced_group(workload: &dyn Workload, passes: usize, facade_digest: u64) -> Traced {
    let traced = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| workload.traced(passes)));
    match traced {
        Ok(mut traced) => {
            if traced.digest != facade_digest {
                eprintln!(
                    "traced digest {:016x} differs from the facade's {facade_digest:016x}",
                    traced.digest
                );
                traced.failed = u64::MAX;
            }
            traced
        }
        Err(_) => {
            eprintln!("traced pass failed: a layer call in layers.rs panicked");
            Traced {
                failed: u64::MAX,
                ..Traced::default()
            }
        }
    }
}

/// Every per-layer metric of the manifest, in its order, from the facade
/// passes and as many traced passes; a metric this workload does not
/// exercise reads 0.
fn layer_row(
    workload: &dyn Workload,
    group: &Group,
    service: &[f64],
    latency: &LatencySummary,
    traced: &Traced,
) -> Vec<f64> {
    let facade_total: f64 = service.iter().sum();
    let mut values: Vec<(String, f64)> = Vec::new();
    let mut accounted = 0.0;
    for (i, span) in SPANS.iter().enumerate().skip(1) {
        let samples = traced.samples.get(i).map_or(&[][..], Vec::as_slice);
        let total: f64 = samples.iter().sum();
        if !layers::is_isolated(i as u8) {
            accounted += total;
        }
        let per_call = |v: f64| v / traced.calls_per_sample;
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let p50 = if sorted.is_empty() {
            0.0
        } else {
            per_call(harness::median(&sorted))
        };
        let tail = harness::tail(&sorted).map_or(0.0, |(v, _)| per_call(v));
        values.push((format!("{span}.p50_ns"), p50));
        values.push((format!("{span}.p99_ns"), tail));
        values.push((format!("{span}.share"), total / facade_total));
    }
    if !traced.samples.is_empty() {
        values.push((
            "harness.unaccounted_share".into(),
            (facade_total - accounted) / facade_total,
        ));
        let untraced_wall = group.wall_ns as f64;
        values.push((
            "harness.trace_overhead_share".into(),
            (traced.wall_ns as f64 - untraced_wall) / untraced_wall,
        ));
    }
    values.push(("harness.tail_percentile".into(), latency.tail_at * 100.0));
    values.extend(group.counts.iter().map(|&(name, v)| (name.to_string(), v)));
    values.extend(traced.counts.iter().cloned());
    values.extend(
        workload
            .layer_extras(service, group)
            .into_iter()
            .map(|(name, v)| (name.to_string(), v)),
    );
    manifest::get()
        .per_layer
        .iter()
        .map(|m| {
            values
                .iter()
                .find(|(n, _)| n == m.name)
                .map_or(0.0, |(_, v)| *v)
        })
        .collect()
}

impl Report {
    /// The line the benchmark contract asks for: exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn contract_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// One line of a results file: the contract line's content plus the
    /// stamp, the run's length, the digest and the time of every pass
    /// and set-up.
    pub fn results_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        let list = |v: &[f64]| {
            v.iter()
                .map(|&x| json_number(x))
                .collect::<Vec<_>>()
                .join(", ")
        };
        format!(
            "{{\"workload\": \"{}\", \"trace\": {}, \"seed\": {}, \"seconds\": {}, \"commit\": \"{}\", \"nproc\": {}, \"cpu\": \"{}\", \"rustc\": \"{}\", \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"output_digest\": \"{:016x}\", \"pass_walls_s\": [{}], \"setups_s\": [{}], \"metrics\": {{{}}}}}",
            self.options.workload,
            u8::from(self.options.trace),
            self.stamp.seed,
            json_number(self.options.seconds),
            self.stamp.commit,
            self.stamp.nproc,
            self.stamp.cpu.replace(['"', '\\'], " "),
            self.stamp.rustc.replace(['"', '\\'], " "),
            self.correct,
            self.attempted,
            self.failed,
            self.output_digest,
            list(&self.pass_walls_s),
            list(&self.setups_s),
            metrics.join(", ")
        )
    }

    /// The metrics by name with unit, for people.
    pub fn table(&self) -> String {
        let mut out = String::new();
        writeln!(
            out,
            "{} seed {} trace {}: {} passes, {} attempted, {} failed, output_digest {:016x}, {}",
            self.options.workload,
            self.options.seed,
            u8::from(self.options.trace),
            self.pass_walls_s.len(),
            self.attempted,
            self.failed,
            self.output_digest,
            if self.correct { "correct" } else { "WRONG" }
        )
        .expect("writing to a String");
        for m in &self.metrics {
            if self.options.trace && m.value == 0.0 {
                continue;
            }
            writeln!(out, "  {:<52} {:>16.4} {}", m.name, m.value, m.unit).expect("String");
        }
        out
    }
}

/// A float as JSON, with all its digits; JSON has no NaN or infinity,
/// and an empty sum's `-0.0` is written as plain zero.
fn json_number(v: f64) -> String {
    if v == 0.0 {
        "0.0".into()
    } else if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".into()
    }
}
