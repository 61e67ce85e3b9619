//! `lt-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload and prints its metrics, the last line of standard
//! output being the JSON object the benchmark contract asks for.
//! `lt-benchmark compare <a> <b>` compares two results files.

use lt_benchmark::report::{self, Options};
use lt_benchmark::workloads::Size;
use lt_benchmark::{compare, manifest};
use std::io::Write as _;
use std::process::ExitCode;

const USAGE: &str =
    "usage: lt-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
       lt-benchmark compare <results-a> <results-b>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") if args.len() == 3 => compare::run(&args[1], &args[2]),
        _ => measure(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Runs one workload. The results line and `trace.json` go under
/// `--out` (default `benchmark/out`, inside the checkout).
fn measure(args: &[String]) -> Result<bool, String> {
    let mut options = Options {
        workload: String::new(),
        seed: 70823,
        seconds: f64::from(manifest::get().run_seconds),
        trace: false,
        size: Size::Full,
    };
    let mut out_dir = String::from("benchmark/out");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => options.workload = value()?.clone(),
            "--seed" => options.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                options.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => options.trace = value()? == "1",
            "--out" => out_dir = value()?.clone(),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let report = report::run(&options)?;
    print!("{}", report.table());

    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{out_dir}: {e}"))?;
    let results = format!("{out_dir}/results.jsonl");
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&results)
        .map_err(|e| format!("{results}: {e}"))?;
    writeln!(file, "{}", report.results_line()).map_err(|e| format!("{results}: {e}"))?;
    if let Some(json) = &report.trace_json {
        let path = format!("{out_dir}/trace.{}.json", options.workload);
        std::fs::write(&path, json).map_err(|e| format!("{path}: {e}"))?;
    }

    println!("{}", report.contract_line());
    Ok(true)
}
