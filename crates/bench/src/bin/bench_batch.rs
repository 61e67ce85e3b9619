//! Batched-inference regression benchmark: times the packed batched
//! forward (`forward_batch_scratch` over prepacked weight panels)
//! against looping `forward_scratch` per query, across every benchmark
//! model and a batch-size sweep, and emits a machine-readable
//! `BENCH_batch.json` in the current directory.
//!
//! ```text
//! cargo run --release -p lt-bench --bin bench_batch
//! ```
//!
//! The looped path multiplies unpacked weights, so `speedup` mostly
//! prices packing; `scaling` prices *batching*: the packed path's
//! ns/query at batch 1 over its ns/query at this batch. Exits nonzero
//! if any model's batch-16 scaling falls below 0.95 (a query must not
//! cost more in a batch than alone) or the DeepLOB per-query speedup at
//! batch 16 falls below the 2x floor, so CI catches batched-path
//! regressions. Both paths produce bit-identical predictions (pinned by
//! `lt-dnn/tests/batch_equivalence.rs`), so this measures pure
//! throughput.

use std::time::Instant;

use lighttrader::dnn::models::{CnnSpec, DeepLobSpec, TransLobSpec};
use lighttrader::dnn::{Model, Prediction, ScratchPad, Tensor};

/// Minimum acceptable DeepLOB per-query speedup at batch 16.
const DEEPLOB_BATCH16_FLOOR: f64 = 2.0;
/// Minimum acceptable batch-16 scaling (batch-1 ns/query over batch-16
/// ns/query, both on the packed path) for every model.
const BATCH16_SCALING_FLOOR: f64 = 0.95;
/// Batch sizes swept per model, batch 1 first; 8 is the
/// `multi_translob` round.
const BATCHES: [usize; 4] = [1, 4, 8, 16];
/// Target wall time per measurement, nanoseconds.
const TARGET_NS: u128 = 100_000_000;

/// Times `f` adaptively: calibrates an iteration count that fills a
/// tenth of [`TARGET_NS`] (which also warms pads and panels), runs three
/// repetitions, and returns the best per-iteration nanoseconds.
fn time_ns<F: FnMut()>(mut f: F) -> f64 {
    let start = Instant::now();
    let mut calib = 0u32;
    while start.elapsed().as_nanos() < TARGET_NS / 10 {
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

struct Row {
    model: &'static str,
    batch: usize,
    looped_ns_per_query: f64,
    batched_ns_per_query: f64,
    /// The same model's batched ns/query at batch 1.
    batch1_ns_per_query: f64,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.looped_ns_per_query / self.batched_ns_per_query
    }

    fn scaling(&self) -> f64 {
        self.batch1_ns_per_query / self.batched_ns_per_query
    }

    fn json(&self) -> String {
        format!(
            "    {{\"model\": \"{}\", \"batch\": {}, \"looped_ns_per_query\": {:.1}, \
             \"batched_ns_per_query\": {:.1}, \"speedup\": {:.2}, \"scaling\": {:.2}}}",
            self.model,
            self.batch,
            self.looped_ns_per_query,
            self.batched_ns_per_query,
            self.speedup(),
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
    // (looped, batched) ns/query per batch size: the fastest round.
    let mut best = [(f64::INFINITY, f64::INFINITY); BATCHES.len()];
    for _ in 0..ROUNDS {
        for ((inputs, pad, out), best) in lanes.iter_mut().zip(&mut best) {
            let per_query = inputs.len() as f64;
            let looped = time_ns(|| model.forward_batch_looped(inputs, pad, out)) / per_query;
            let batched =
                time_ns(|| model.forward_batch_scratch(inputs, &packed, pad, out)) / per_query;
            *best = (best.0.min(looped), best.1.min(batched));
        }
    }
    for (&batch, &(looped, batched)) in BATCHES.iter().zip(&best) {
        let row = Row {
            model: name,
            batch,
            looped_ns_per_query: looped,
            batched_ns_per_query: batched,
            batch1_ns_per_query: best[0].1,
        };
        println!(
            "{:<12} b={:<3} looped {:>10.0} ns/q   batched {:>10.0} ns/q   speedup {:>5.2}x   \
             scaling {:>5.2}",
            name,
            batch,
            looped,
            batched,
            row.speedup(),
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

    let deeplob16 = rows
        .iter()
        .find(|r| r.model == "deeplob" && r.batch == 16)
        .map(Row::speedup)
        .unwrap_or(0.0);
    let min_scaling16 = rows
        .iter()
        .filter(|r| r.batch == 16)
        .map(Row::scaling)
        .fold(f64::INFINITY, f64::min);
    let floor_met = deeplob16 >= DEEPLOB_BATCH16_FLOOR && min_scaling16 >= BATCH16_SCALING_FLOOR;

    let row_json: Vec<String> = rows.iter().map(Row::json).collect();
    let json = format!(
        "{{\n  \"rows\": [\n{}\n  ],\n  \"deeplob_batch16_speedup\": {:.2},\n  \
         \"deeplob_batch16_floor\": {:.1},\n  \"min_batch16_scaling\": {:.2},\n  \
         \"batch16_scaling_floor\": {:.2},\n  \"floor_met\": {}\n}}\n",
        row_json.join(",\n"),
        deeplob16,
        DEEPLOB_BATCH16_FLOOR,
        min_scaling16,
        BATCH16_SCALING_FLOOR,
        floor_met,
    );
    std::fs::write("BENCH_batch.json", &json).expect("write BENCH_batch.json");
    println!("\nwrote BENCH_batch.json");

    if !floor_met {
        eprintln!(
            "REGRESSION: DeepLOB batch-16 per-query speedup {deeplob16:.2}x (floor \
             {DEEPLOB_BATCH16_FLOOR:.1}x) or worst batch-16 scaling {min_scaling16:.2} (floor \
             {BATCH16_SCALING_FLOOR:.2})"
        );
        std::process::exit(1);
    }
}
