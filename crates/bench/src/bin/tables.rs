//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run --release -p lt-bench --bin tables -- [artifact] [--secs N] [--seed N]
//! ```
//!
//! `artifact` is one of `table1 table2 table3 fig8 fig11 fig12
//! fig12tight fig13 stages faults fills grid all` (default `all`). `--secs`
//! sets the simulated session length (default 60), `--seed` the session
//! seed. `grid` additionally writes the machine-readable
//! `GRID_sweep.json`.

#![forbid(unsafe_code)]

use lighttrader::sim::traffic::EVALUATION_SEED;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut artifact = "all".to_string();
    let mut secs = lighttrader::experiments::DEFAULT_SECS;
    let mut seed = EVALUATION_SEED;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--secs" => {
                secs = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--secs needs a number");
            }
            "--seed" => {
                seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--seed needs a number");
            }
            other if !other.starts_with("--") => artifact = other.to_string(),
            other => panic!("unknown flag {other}"),
        }
    }

    let run = |name: &str| artifact == "all" || artifact == name;
    if run("table1") {
        println!("{}", lt_bench::render_table1());
    }
    if run("table2") {
        println!("{}", lt_bench::render_table2());
    }
    if run("table3") {
        println!("{}", lt_bench::render_table3());
    }
    if run("fig8") {
        println!("{}", lt_bench::render_fig8(secs, seed));
    }
    if run("fig11") {
        println!("{}", lt_bench::render_fig11(secs, seed));
    }
    if run("fig12") {
        println!("{}", lt_bench::render_fig12(secs, seed));
    }
    if run("fig12tight") {
        println!("{}", lt_bench::render_fig12_tight(secs, seed));
    }
    if run("fig13") {
        println!("{}", lt_bench::render_fig13(secs, seed));
    }
    if run("stages") {
        println!("{}", lt_bench::render_stage_latency(secs, seed));
    }
    if run("faults") {
        println!("{}", lt_bench::render_faults(secs, seed));
    }
    if run("fills") {
        println!("{}", lt_bench::render_fills(secs, seed));
    }
    if run("grid") {
        let (table, json) = lt_bench::render_grid(secs, seed);
        println!("{table}");
        std::fs::write("GRID_sweep.json", &json).expect("write GRID_sweep.json");
        println!("wrote GRID_sweep.json");
    }
}
