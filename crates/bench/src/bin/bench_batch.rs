//! Batched-inference regression benchmark: times the packed forward
//! (`forward_batch_scratch` over prepacked weight panels) across every
//! benchmark model and a batch-size sweep, and emits a machine-readable
//! `BENCH_batch.json` in the current directory.
//!
//! ```text
//! cargo run --release -p lt-bench --bin bench_batch
//! ```
//!
//! `scaling` prices *batching*: the path's ns/query at batch 1 over its
//! ns/query at this batch. Exits nonzero if any model's batch-16 scaling
//! falls below 0.95 (a query must not cost more in a batch than alone),
//! so CI catches batched-path regressions. Every sample's prediction is
//! bit-identical at every batch size (pinned by
//! `lt-dnn/tests/batch_equivalence.rs`), so this measures pure
//! throughput.

use lighttrader::dnn::models::{CnnSpec, DeepLobSpec, TransLobSpec};
use lighttrader::dnn::{Model, Prediction, ScratchPad, Tensor};
use lt_bench::time_ns;

/// Minimum acceptable batch-16 scaling (batch-1 ns/query over batch-16
/// ns/query) for every model.
const BATCH16_SCALING_FLOOR: f64 = 0.95;
/// Batch sizes swept per model, batch 1 first; 8 is the
/// `multi_translob` round.
const BATCHES: [usize; 4] = [1, 4, 8, 16];

struct Row {
    model: &'static str,
    batch: usize,
    batched_ns_per_query: f64,
    /// The same model's batched ns/query at batch 1.
    batch1_ns_per_query: f64,
}

impl Row {
    fn scaling(&self) -> f64 {
        self.batch1_ns_per_query / self.batched_ns_per_query
    }

    fn json(&self) -> String {
        format!(
            "    {{\"model\": \"{}\", \"batch\": {}, \"batched_ns_per_query\": {:.1}, \
             \"scaling\": {:.2}}}",
            self.model,
            self.batch,
            self.batched_ns_per_query,
            self.scaling()
        )
    }
}

/// Interleaved measurement rounds per model. A ratio between two batch
/// sizes is only meaningful when both were timed in the same machine
/// state, and this box's speed drifts by a third for a second at a time:
/// every round times every batch size back to back, and each keeps its
/// fastest round.
const ROUNDS: usize = 7;

fn sweep(model: &dyn Model, name: &'static str, rows: &mut Vec<Row>) {
    let packed = model.pack_weights();
    let mut lanes: Vec<(Vec<Tensor>, ScratchPad, Vec<Prediction>)> = BATCHES
        .iter()
        .map(|&batch| {
            let inputs: Vec<Tensor> = (0..batch)
                .map(|i| {
                    Tensor::random(
                        &[model.window(), model.features()],
                        1.0,
                        17 + batch as u64 * 100 + i as u64,
                    )
                })
                .collect();
            (inputs, ScratchPad::new(), Vec::new())
        })
        .collect();
    // ns/query per batch size: the fastest round.
    let mut best = [f64::INFINITY; BATCHES.len()];
    for _ in 0..ROUNDS {
        for ((inputs, pad, out), best) in lanes.iter_mut().zip(&mut best) {
            let batched = time_ns(|| model.forward_batch_scratch(inputs, &packed, pad, out));
            *best = best.min(batched / inputs.len() as f64);
        }
    }
    for (&batch, &batched) in BATCHES.iter().zip(&best) {
        let row = Row {
            model: name,
            batch,
            batched_ns_per_query: batched,
            batch1_ns_per_query: best[0],
        };
        println!(
            "{:<12} b={:<3} batched {:>10.0} ns/q   scaling {:>5.2}",
            name,
            batch,
            batched,
            row.scaling()
        );
        rows.push(row);
    }
}

fn main() {
    let mut rows = Vec::new();
    sweep(&CnnSpec::tiny().build(3), "vanilla_cnn", &mut rows);
    sweep(&DeepLobSpec::tiny().build(3), "deeplob", &mut rows);
    sweep(&TransLobSpec::tiny().build(3), "translob", &mut rows);

    let min_scaling16 = rows
        .iter()
        .filter(|r| r.batch == 16)
        .map(Row::scaling)
        .fold(f64::INFINITY, f64::min);
    let floor_met = min_scaling16 >= BATCH16_SCALING_FLOOR;

    let row_json: Vec<String> = rows.iter().map(Row::json).collect();
    let json = format!(
        "{{\n  \"rows\": [\n{}\n  ],\n  \"min_batch16_scaling\": {:.2},\n  \
         \"batch16_scaling_floor\": {:.2},\n  \"floor_met\": {}\n}}\n",
        row_json.join(",\n"),
        min_scaling16,
        BATCH16_SCALING_FLOOR,
        floor_met,
    );
    std::fs::write("BENCH_batch.json", &json).expect("write BENCH_batch.json");
    println!("\nwrote BENCH_batch.json");

    if !floor_met {
        eprintln!(
            "REGRESSION: worst batch-16 scaling {min_scaling16:.2} (floor \
             {BATCH16_SCALING_FLOOR:.2})"
        );
        std::process::exit(1);
    }
}
