//! Rendering helpers for the `tables` binary (each function formats one
//! paper artifact, table or figure, as paper-vs-measured text, or one of
//! the back-test's own reports) and
//! [`time_ns`], the wall-clock loop of the `bench_kernels` micro-bench.

#![forbid(unsafe_code)]

use lighttrader::accel::PowerCondition;
use lighttrader::dnn::ModelKind;
use lighttrader::experiments::{self, Fig11, Fig12Row, Fig13};
use lighttrader::report::{ingress_table, percent, ratio, stage_latency_table, TextTable};
use lighttrader::sched::Policy;
use lighttrader::sim::farm::{FarmRunner, GridDeadline, SweepGrid};
use lighttrader::sim::traffic::{burst_storm_trace, scheduling_deadline_for, shared_trace_cache};
use lighttrader::sim::{run_lighttrader, BacktestConfig, ExecutionConfig};
use std::time::Instant;

/// Wall time `time_ns` calibrates over, and roughly what each of its
/// three repetitions then takes, nanoseconds.
const CALIBRATION_NS: u128 = 10_000_000;

/// Best-of-three ns per call of `f`, after calibration: counts how many
/// calls fill [`CALIBRATION_NS`] (which also warms pads and panels),
/// times three repetitions of that many calls and returns the fastest.
/// One call costs about 40 ms; a ratio of two results means something
/// only if the calls were interleaved.
pub fn time_ns<F: FnMut()>(mut f: F) -> f64 {
    let start = Instant::now();
    let mut calib = 0u32;
    while start.elapsed().as_nanos() < CALIBRATION_NS {
        f();
        calib += 1;
    }
    let iters = calib.max(1);
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        let per_iter = start.elapsed().as_nanos() as f64 / iters as f64;
        best = best.min(per_iter);
    }
    best
}

/// Renders Table I (accelerator specification).
pub fn render_table1() -> String {
    let spec = experiments::table1();
    let mut t = TextTable::new(vec!["field", "value", "paper (Table I)"]);
    t.push_row(vec!["process".into(), spec.process.into(), "7 nm".into()]);
    t.push_row(vec![
        "package".into(),
        format!("{:.1} mm x {:.1} mm", spec.package_mm, spec.package_mm),
        "8.7 mm x 8.7 mm".into(),
    ]);
    t.push_row(vec![
        "voltage".into(),
        format!("{:.2}-{:.2} V", spec.voltage_range.0, spec.voltage_range.1),
        "0.68-1.16 V".into(),
    ]);
    t.push_row(vec![
        "frequency".into(),
        format!("up to {:.1} GHz", spec.freq_range_ghz.1),
        "up to 2.2 GHz".into(),
    ]);
    t.push_row(vec![
        "power".into(),
        format!("up to {:.1} W", spec.max_power_w),
        "up to 10.8 W".into(),
    ]);
    t.push_row(vec![
        "peak BF16 / INT8".into(),
        format!(
            "{:.0} TFLOPS / {:.0} TOPS",
            spec.peak_tflops_bf16, spec.peak_tops_int8
        ),
        "16 TFLOPS / 64 TOPS".into(),
    ]);
    format!(
        "== Table I: single AI accelerator specification ==\n{}",
        t.render()
    )
}

/// Renders Table II (model op counts).
pub fn render_table2() -> String {
    let mut t = TextTable::new(vec![
        "model",
        "network",
        "computed OPs",
        "paper OPs",
        "error",
    ]);
    for row in experiments::table2() {
        let err = (row.computed_ops as f64 - row.paper_ops as f64).abs() / row.paper_ops as f64;
        t.push_row(vec![
            row.kind.name().into(),
            row.kind.network_family().into(),
            format!("{:.1}G", row.computed_ops as f64 / 1e9),
            format!("{:.1}G", row.paper_ops as f64 / 1e9),
            format!("{:.3}%", err * 100.0),
        ]);
    }
    format!(
        "== Table II: HFT DNN models (analytic op counter) ==\n{}",
        t.render()
    )
}

/// Renders Table III (static clock & power configuration).
pub fn render_table3() -> String {
    let mut t = TextTable::new(vec![
        "condition",
        "#accels",
        "available (W)",
        "CNN (GHz)",
        "TransLOB (GHz)",
        "DeepLOB (GHz)",
    ]);
    for row in experiments::table3() {
        t.push_row(vec![
            format!("{}", row.condition),
            row.n_accels.to_string(),
            format!("{:.1}", row.available_w),
            format!("{:.1}", row.freq_ghz[0]),
            format!("{:.1}", row.freq_ghz[1]),
            format!("{:.1}", row.freq_ghz[2]),
        ]);
    }
    format!(
        "== Table III: clock frequency & available power (paper grid reproduced) ==\n{}",
        t.render()
    )
}

/// Renders Fig. 8 (response rate vs model complexity).
pub fn render_fig8(secs: f64, seed: u64) -> String {
    let mut t = TextTable::new(vec!["model", "latency (us)", "response rate"]);
    for row in experiments::fig8(secs, seed) {
        t.push_row(vec![
            row.label.into(),
            format!("{:.0}", row.latency_us),
            percent(row.response_rate),
        ]);
    }
    format!(
        "== Fig. 8: response rate vs model complexity (M1 simplest .. M5) ==\n{}",
        t.render()
    )
}

/// Renders Fig. 11 (non-batching performance) plus headline ratios.
pub fn render_fig11(secs: f64, seed: u64) -> String {
    let f: Fig11 = experiments::fig11(secs, seed);
    let mut t = TextTable::new(vec![
        "system",
        "model",
        "latency (us)",
        "response",
        "paper resp.",
        "TFLOPS/W",
    ]);
    let paper_resp = |system: &str, kind: ModelKind| -> String {
        let v = match (system, kind) {
            ("LightTrader", ModelKind::VanillaCnn) => 0.942,
            ("LightTrader", ModelKind::TransLob) => 0.919,
            ("LightTrader", ModelKind::DeepLob) => 0.871,
            _ => return "-".into(),
        };
        percent(v)
    };
    for row in &f.rows {
        t.push_row(vec![
            row.system.into(),
            row.kind.name().into(),
            format!("{:.0}", row.latency_us),
            percent(row.response_rate),
            paper_resp(row.system, row.kind),
            format!("{:.4}", row.tflops_per_watt),
        ]);
    }
    format!(
        "== Fig. 11: non-batching performance ==\n{}\n\
         speed-up vs GPU:  {} (paper 13.92x)\n\
         speed-up vs FPGA: {} (paper 7.28x)\n\
         TFLOPS/W vs GPU:  {} (paper 23.6x)\n\
         TFLOPS/W vs FPGA: {} (paper 11.6x)\n",
        t.render(),
        ratio(f.speedup_vs_gpu),
        ratio(f.speedup_vs_fpga),
        ratio(f.efficiency_vs_gpu),
        ratio(f.efficiency_vs_fpga),
    )
}

/// Renders Fig. 12 (response rate vs accelerator count).
pub fn render_fig12(secs: f64, seed: u64) -> String {
    response_grid(
        "Fig. 12: response rate vs #accelerators (paper: suff. x8 = 99.5/98.7/95.9%)",
        &experiments::fig12(secs, seed),
    )
}

/// Renders the tight-window Fig. 12 variant (the x16 decline regime).
pub fn render_fig12_tight(secs: f64, seed: u64) -> String {
    response_grid(
        "Fig. 12 (tight window, 1.5x service): the paper's x16 saturation/decline",
        &experiments::fig12_tight(secs, seed),
    )
}

/// One Fig. 12 table under `title`: a row per (condition, model), a
/// response-rate column per accelerator count.
fn response_grid(title: &str, rows: &[Fig12Row]) -> String {
    let mut t = TextTable::new(vec!["condition", "model", "x1", "x2", "x4", "x8", "x16"]);
    for condition in [PowerCondition::Sufficient, PowerCondition::Limited] {
        for kind in ModelKind::ALL {
            let mut cells = vec![format!("{condition}"), kind.name().into()];
            for n in [1usize, 2, 4, 8, 16] {
                let r = rows
                    .iter()
                    .find(|r| r.condition == condition && r.kind == kind && r.n_accels == n)
                    .expect("cell");
                cells.push(percent(r.response_rate));
            }
            t.push_row(cells);
        }
    }
    format!("== {title} ==\n{}", t.render())
}

/// Renders the per-stage tick-to-trade telemetry (p50/p99/p99.9 per
/// pipeline stage for each system), plus the per-run JSON lines.
pub fn render_stage_latency(secs: f64, seed: u64) -> String {
    let rows = experiments::stage_latency(secs, seed);
    let mut out = String::from("== Per-stage tick-to-trade telemetry (p50/p99/p99.9) ==\n");
    for row in &rows {
        out.push_str(&format!(
            "-- {} / {} --\n{}",
            row.run,
            row.kind.name(),
            stage_latency_table(&row.stages).render()
        ));
    }
    out.push_str("\nper-run JSON:\n");
    for row in &rows {
        out.push_str(&row.to_json());
        out.push('\n');
    }
    out
}

/// Renders Fig. 13 (miss rate under the four scheduling policies).
pub fn render_fig13(secs: f64, seed: u64) -> String {
    let f: Fig13 = experiments::fig13(secs, seed);
    let mut out = String::from("== Fig. 13: miss rate by scheduling policy ==\n");
    for condition in [PowerCondition::Sufficient, PowerCondition::Limited] {
        for kind in ModelKind::ALL {
            let mut t = TextTable::new(vec!["policy", "x1", "x2", "x4", "x8", "x16"]);
            for policy in Policy::ALL {
                let mut cells = vec![policy.label().to_string()];
                for n in [1usize, 2, 4, 8, 16] {
                    let r = f
                        .rows
                        .iter()
                        .find(|r| {
                            r.condition == condition
                                && r.kind == kind
                                && r.n_accels == n
                                && r.policy == policy
                        })
                        .expect("cell");
                    cells.push(percent(r.miss_rate));
                }
                t.push_row(cells);
            }
            out.push_str(&format!("-- {kind}, {condition} --\n{}", t.render()));
        }
    }
    let fmt3 = |v: [f64; 3]| format!("{} / {} / {}", percent(v[0]), percent(v[1]), percent(v[2]));
    out.push_str(&format!(
        "\nWS reduction @ small N (CNN/TransLOB/DeepLOB): {} (paper 21.4/18.4/17.6%)\n\
         DS reduction @ large N:                        {} (paper 19.6/23.1/17.1%)\n\
         WS+DS reduction @ all N:                       {} (paper 25.1/23.7/20.7%)\n",
        fmt3(f.ws_small_n_reduction),
        fmt3(f.ds_large_n_reduction),
        fmt3(f.both_all_n_reduction),
    ));
    out
}

/// Renders the ingress fault sweep: loss rate vs recovery accounting,
/// response rate, and tick-to-trade degradation, plus the full ingress
/// ledger of the heaviest loss level.
pub fn render_faults(secs: f64, seed: u64) -> String {
    let (rows, heaviest) = experiments::fault_sweep(secs, seed);
    let mut t = TextTable::new(vec![
        "loss/feed",
        "offered",
        "recovered",
        "lost",
        "response",
        "mean t2t (us)",
        "p99 t2t (us)",
    ]);
    for r in &rows {
        t.push_row(vec![
            percent(r.loss_rate),
            r.offered.to_string(),
            r.recovered.to_string(),
            r.lost.to_string(),
            percent(r.response_rate),
            format!("{:.2}", r.mean_t2t_us),
            format!("{:.2}", r.p99_t2t_us),
        ]);
    }
    let mut out = format!(
        "== Fault sweep: symmetric A/B packet loss vs back-test degradation ==\n{}",
        t.render()
    );
    // The heaviest sweep point's ledger, for the per-feed view the
    // summary rows aggregate away.
    if let (Some(row), Some(report)) = (rows.last(), heaviest) {
        out.push_str(&format!(
            "\n-- ingress ledger at {} loss/feed --\n{}",
            percent(row.loss_rate),
            ingress_table(&report).render()
        ));
    }
    out
}

/// Renders the back-test's execution layer on the burst-storm session:
/// per scheduling policy, the orders, fills, fees and final equity of
/// realistic settlement (a taker sweep of the book at the order's
/// arrival) beside assume-fill (every order filled in full at its
/// decision-time limit). The signal is the oracle momentum signal, not
/// the models' answers.
pub fn render_fills(secs: f64, seed: u64) -> String {
    let trace = burst_storm_trace(secs, seed);
    let mut t = TextTable::new(vec![
        "policy",
        "fills",
        "orders",
        "filled",
        "partial",
        "missed",
        "fees (ticks)",
        "equity (ticks)",
    ]);
    let settlements = [
        ("realistic", ExecutionConfig::realistic()),
        ("assume-fill", ExecutionConfig::assume_fill()),
    ];
    for policy in Policy::ALL {
        let cfg = BacktestConfig::new(ModelKind::DeepLob, 2, PowerCondition::Limited)
            .with_policy(policy)
            .with_t_avail(scheduling_deadline_for(ModelKind::DeepLob));
        for (fills, execution) in settlements {
            let s = run_lighttrader(&trace, &cfg.with_execution(execution))
                .execution
                .expect("an enabled execution layer reports its stats");
            t.push_row(vec![
                policy.label().into(),
                fills.into(),
                s.orders_sent.to_string(),
                s.filled.to_string(),
                s.partial.to_string(),
                s.missed.to_string(),
                format!("{:.1}", s.fees_half as f64 / 2.0),
                format!("{:.1}", s.equity_half as f64 / 2.0),
            ]);
        }
    }
    format!(
        "== Execution: fills and P&L by scheduling policy (burst storm, DeepLOB x2, \
         limited power, oracle signal) ==\n{}",
        t.render()
    )
}

/// The demonstration grid behind `tables -- grid`: a compact slice of
/// the paper's full evaluation surface (2 models × {1, 4} accelerators
/// × 2 power conditions × baseline-vs-full scheduling × 2 seeds) that
/// shares its sessions through the process-wide trace cache.
fn demo_grid(secs: f64, seed: u64) -> SweepGrid {
    SweepGrid::evaluation(secs)
        .models([ModelKind::VanillaCnn, ModelKind::DeepLob])
        .accel_counts([1, 4])
        .conditions([PowerCondition::Sufficient, PowerCondition::Limited])
        .policies([Policy::Baseline, Policy::Both])
        .deadline(GridDeadline::Scheduling)
        .seeds([seed, seed.wrapping_add(1)])
}

/// Runs the demonstration grid on the back-test farm and renders the
/// per-cell summary table plus the deterministic grid JSON (the
/// machine-readable artifact `tables -- grid` writes to disk).
pub fn render_grid(secs: f64, seed: u64) -> (String, String) {
    let grid = demo_grid(secs, seed);
    let results = FarmRunner::new().cache(shared_trace_cache()).run(&grid);
    let mut t = TextTable::new(vec![
        "cell",
        "response",
        "miss",
        "p99 t2t (us)",
        "energy (J)",
        "mean batch",
    ]);
    for (i, cell) in results.cells().iter().enumerate() {
        let s = results.summary(i);
        t.push_row(vec![
            cell.id.clone(),
            percent(s.response_rate()),
            percent(s.miss_rate()),
            format!("{:.1}", s.p99_ns as f64 / 1_000.0),
            format!("{:.3}", s.energy_j),
            format!("{:.2}", s.mean_batch()),
        ]);
    }
    let table = format!(
        "== Back-test farm grid: {} cells over {} shared sessions ==\n{}",
        results.len(),
        grid.n_sessions(),
        t.render()
    );
    (table, results.to_grid_json())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_tables_render() {
        let t1 = render_table1();
        assert!(t1.contains("7 nm") && t1.contains("10.8"));
        let t2 = render_table2();
        assert!(t2.contains("93.0G") && t2.contains("DeepLOB"));
        let t3 = render_table3();
        assert!(t3.contains("sufficient") && t3.contains("1.6"));
    }

    #[test]
    fn figure_renderers_run_on_short_sessions() {
        let f8 = render_fig8(2.0, 1);
        assert!(f8.contains("M5"));
        let f11 = render_fig11(2.0, 1);
        assert!(f11.contains("13.92x"));
        let fills = render_fills(2.0, 1);
        for policy in Policy::ALL {
            assert!(fills.contains(policy.label()), "{fills}");
        }
        assert!(
            fills.contains("realistic") && fills.contains("assume-fill"),
            "{fills}"
        );
    }

    #[test]
    fn grid_artifact_renders_table_and_json() {
        let (table, json) = render_grid(2.0, 3);
        assert!(table.contains("32 cells over 2 shared sessions"), "{table}");
        assert!(table.contains("m=deeplob"), "{table}");
        assert!(json.contains("\"n_cells\": 32"), "{json}");
        // Long enough to clear the feature window: cells carry real data.
        assert!(json.contains("\"responded\""), "{json}");
        assert!(
            !table.contains("p=baseline.f=0.s=1x0.seed=3      0.0%"),
            "{table}"
        );
        // Deterministic artifact: a rerun is byte-identical.
        let (_, again) = render_grid(2.0, 3);
        assert_eq!(json, again);
    }

    #[test]
    fn fault_sweep_renders_sweep_and_ledger() {
        let out = render_faults(2.0, 1);
        assert!(out.contains("Fault sweep"));
        assert!(out.contains("10.0%"), "heaviest sweep point present");
        assert!(out.contains("ingress ledger"));
        assert!(out.contains("lost on both"));
    }
}
