//! Back-test the three HFT benchmarks on a synthetic E-mini session.
//!
//! ```text
//! cargo run --release --example backtest_emini [secs] [seed]
//! ```
//!
//! Reproduces the paper's §IV-B comparison on a single session: batch-1
//! tick-to-trade latency and response rate of LightTrader (one
//! accelerator) against the GPU-based and FPGA-based systems, for the
//! Vanilla CNN, TransLOB, and DeepLOB benchmarks.

use lighttrader::prelude::*;
use lighttrader::report::{percent, TextTable};
use lighttrader::sim::traffic::{evaluation_deadline, evaluation_trace, EVALUATION_SEED};
use lighttrader::sim::SingleDeviceSystem;

fn main() {
    let mut args = std::env::args().skip(1);
    let secs: f64 = args.next().and_then(|v| v.parse().ok()).unwrap_or(20.0);
    let seed: u64 = args
        .next()
        .and_then(|v| v.parse().ok())
        .unwrap_or(EVALUATION_SEED);

    println!("generating {secs} s of synthetic E-mini S&P 500 trading (seed {seed})...");
    let trace = evaluation_trace(secs, seed);
    let stats = trace.stats();
    println!(
        "  {} ticks, mean rate {:.0}/s, burstiness cv {:.2}, gaps {} ns .. {:.1} ms\n",
        stats.ticks,
        stats.mean_rate(),
        stats.cv,
        stats.min_gap_nanos,
        stats.max_gap_nanos as f64 / 1e6,
    );

    let deadline = evaluation_deadline();
    let mut table = TextTable::new(vec![
        "system",
        "model",
        "response",
        "mean t2t",
        "p99 t2t",
        "mean batch",
    ]);

    for kind in ModelKind::ALL {
        let cfg = BacktestConfig::new(kind, 1, PowerCondition::Sufficient);
        let m = run_lighttrader(&trace, &cfg);
        table.push_row(vec![
            "LightTrader".into(),
            kind.name().into(),
            percent(m.response_rate()),
            format!("{:?}", m.mean_latency()),
            format!("{:?}", m.latency_quantile(0.99)),
            format!("{:.2}", m.mean_batch()),
        ]);
    }
    for system in [SingleDeviceSystem::gpu(), SingleDeviceSystem::fpga()] {
        for kind in ModelKind::ALL {
            let m = run_single_device(&trace, &system, kind, deadline, 100);
            table.push_row(vec![
                system.name.into(),
                kind.name().into(),
                percent(m.response_rate()),
                format!("{:?}", m.mean_latency()),
                format!("{:?}", m.latency_quantile(0.99)),
                format!("{:.2}", m.mean_batch()),
            ]);
        }
    }
    println!("{}", table.render());
    println!("paper Fig. 11(b) anchors: LightTrader 94.2 / 91.9 / 87.1 %");
}
