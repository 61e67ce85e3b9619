//! Grid-searches the synthetic-traffic parameters against the paper's
//! Fig. 11(b) response-rate targets. A development tool: the winning
//! parameters are frozen into `lt_sim::traffic` and this binary can
//! verify they stay near-optimal after model changes.
//!
//! Traffic = mild Hawkes background (sets the GPU/FPGA load) + rare
//! machine-speed flash bursts (sets the LightTrader loss; §II-C's
//! "market disruption occurred more than once a day").

#![forbid(unsafe_code)]

use lighttrader::accel::PowerCondition;
use lighttrader::dnn::ModelKind;
use lighttrader::feed::{FlashParams, HawkesParams, SessionBuilder};
use lighttrader::sim::{run_lighttrader, run_single_device, BacktestConfig, SingleDeviceSystem};
use std::time::Duration;

/// Paper Fig. 11(b): LightTrader response rates, and the same divided by
/// the reported average advantages (1.31x over GPU, 1.20x over FPGA).
const TARGET_LT: [f64; 3] = [0.942, 0.919, 0.871];
const TARGET_GPU: [f64; 3] = [0.719, 0.702, 0.665];
const TARGET_FPGA: [f64; 3] = [0.785, 0.766, 0.726];

fn main() {
    let secs: f64 = std::env::args()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(30.0);
    let deadline = Duration::from_millis(5);
    let mut best: Option<(f64, String)> = None;

    for mu in [70.0, 80.0, 90.0] {
        for branching in [0.10, 0.15, 0.20] {
            for burst_rate in [0.8, 1.0, 1.3] {
                for burst_size in [25.0, 30.0, 40.0] {
                    let hawkes = HawkesParams::new(mu, branching * 3_000.0, 3_000.0);
                    let flash = FlashParams::new(burst_rate, burst_size, 10e-6);
                    let trace = SessionBuilder::new(hawkes)
                        .flash_bursts(flash)
                        .duration_secs(secs)
                        .seed(20230225)
                        .build()
                        .trace;
                    let mut err = 0.0;
                    let mut report =
                        format!("mu={mu} br={branching} burst={burst_rate}/s size={burst_size}: ");
                    for (i, kind) in ModelKind::ALL.into_iter().enumerate() {
                        let cfg = BacktestConfig::new(kind, 1, PowerCondition::Sufficient)
                            .with_t_avail(deadline);
                        let lt = run_lighttrader(&trace, &cfg).response_rate();
                        let gpu = run_single_device(
                            &trace,
                            &SingleDeviceSystem::gpu(),
                            kind,
                            deadline,
                            100,
                        )
                        .response_rate();
                        let fpga = run_single_device(
                            &trace,
                            &SingleDeviceSystem::fpga(),
                            kind,
                            deadline,
                            100,
                        )
                        .response_rate();
                        err += (lt - TARGET_LT[i]).powi(2)
                            + (gpu - TARGET_GPU[i]).powi(2)
                            + (fpga - TARGET_FPGA[i]).powi(2);
                        report.push_str(&format!(
                            "[{} lt={:.3} gpu={:.3} fpga={:.3}] ",
                            kind.name(),
                            lt,
                            gpu,
                            fpga
                        ));
                    }
                    report.push_str(&format!("err={err:.4}"));
                    println!("{report}");
                    if best.as_ref().is_none_or(|(b, _)| err < *b) {
                        best = Some((err, report));
                    }
                }
            }
        }
    }
    let (err, report) = best.expect("grid is non-empty");
    println!("\nBEST (err {err:.4}):\n{report}");
}
