//! Kernel-regression benchmark: times every naive `forward_reference`
//! against its packed counterpart at batch 1 (the lone query), plus one
//! batched dense layer (`linear_b128`: TransLOB's FFN shape over a batch
//! of eight 16-step windows, full row blocks throughout), one batched
//! model (`translob_b8`: eight tiny-TransLOB windows in one forward, the
//! `multi_translob` workload's round) and three streamed ones
//! (`deeplob_tick`: tiny DeepLOB's `k = 1` hit through
//! `ModelRegistry::forward`, the `storm_deeplob` workload's tick;
//! `deeplob_sweep4` and `cnn_sweep4`: a `k = 4` hit through
//! `forward_slides`, a sweep's batch-4 tail, of `storm_deeplob` and
//! `t2t_cnn`), and emits a machine-readable `BENCH_kernels.json` in the
//! current directory, with the register tile's instruction set on this CPU
//! (`"tile_isa"`).
//!
//! ```text
//! cargo run --release -p lt-bench --bin bench_kernels
//! ```
//!
//! Every row is timed in each of [`ROUNDS`] interleaved rounds (a round
//! times every row's naive then packed side once), so each row sees every
//! phase of the host, and reports its median with quartiles. Exits nonzero
//! if the DeepLOB full-forward speedup (of the medians) falls below the 5x
//! regression floor, so CI catches fast-path regressions.

#![forbid(unsafe_code)]

use lighttrader::dnn::kernels::{tile_isa, Store};
use lighttrader::dnn::models::{CnnSpec, DeepLobSpec, TransLobSpec};
use lighttrader::dnn::ops::{Conv2d, Linear, Lstm, MultiHeadAttention};
use lighttrader::dnn::{ModelRegistry, Net, Prediction, Tensor};
use lt_bench::time_ns;

/// Minimum acceptable DeepLOB full-forward speedup (fast vs naive).
const DEEPLOB_SPEEDUP_FLOOR: f64 = 5.0;
/// Interleaved measurement rounds. A 2-core shared host's speed drifts by
/// a third for seconds at a time, so one row timed in one stretch reads
/// whatever phase it fell in: each round times every row's two sides back
/// to back, and a row's figures are the median and quartiles of its
/// rounds.
const ROUNDS: usize = 9;

/// One row's two sides, each a closure timed once a round.
struct Bench<'a> {
    name: &'static str,
    naive: Box<dyn FnMut() + 'a>,
    fast: Box<dyn FnMut() + 'a>,
}

impl<'a> Bench<'a> {
    fn new(name: &'static str, naive: impl FnMut() + 'a, fast: impl FnMut() + 'a) -> Self {
        Bench {
            name,
            naive: Box::new(naive),
            fast: Box::new(fast),
        }
    }
}

/// The first quartile, median and third quartile of `samples`.
fn quartiles(mut samples: Vec<f64>) -> [f64; 3] {
    samples.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let i = q * (samples.len() - 1) as f64;
        let (lo, hi) = (samples[i.floor() as usize], samples[i.ceil() as usize]);
        lo + (hi - lo) * i.fract()
    };
    [at(0.25), at(0.5), at(0.75)]
}

struct Row {
    name: &'static str,
    naive_ns: [f64; 3],
    fast_ns: [f64; 3],
}

impl Row {
    /// Median over median.
    fn speedup(&self) -> f64 {
        self.naive_ns[1] / self.fast_ns[1]
    }

    fn json(&self) -> String {
        let [n1, n, n3] = self.naive_ns;
        let [f1, f, f3] = self.fast_ns;
        format!(
            "    {{\"name\": \"{}\", \"naive_ns\": {n:.1}, \"naive_q1_ns\": {n1:.1}, \
             \"naive_q3_ns\": {n3:.1}, \"fast_ns\": {f:.1}, \"fast_q1_ns\": {f1:.1}, \
             \"fast_q3_ns\": {f3:.1}, \"speedup\": {:.2}}}",
            self.name,
            self.speedup()
        )
    }
}

/// Times every bench in [`ROUNDS`] interleaved rounds and prints each
/// row's median and quartiles.
fn run(mut benches: Vec<Bench<'_>>) -> Vec<Row> {
    let mut samples = vec![(Vec::new(), Vec::new()); benches.len()];
    for _ in 0..ROUNDS {
        for (bench, (naive, fast)) in benches.iter_mut().zip(&mut samples) {
            naive.push(time_ns(&mut bench.naive));
            fast.push(time_ns(&mut bench.fast));
        }
    }
    let rows: Vec<Row> = benches
        .iter()
        .zip(samples)
        .map(|(bench, (naive, fast))| Row {
            name: bench.name,
            naive_ns: quartiles(naive),
            fast_ns: quartiles(fast),
        })
        .collect();
    for row in &rows {
        let ([n1, n, n3], [f1, f, f3]) = (row.naive_ns, row.fast_ns);
        println!(
            "{:<16} naive {n:>12.0} ns [{n1:.0}, {n3:.0}]   fast {f:>10.1} ns [{f1:.1}, {f3:.1}]   \
             speedup {:>6.2}x",
            row.name,
            row.speedup()
        );
    }
    rows
}

/// One model row: `reference` against the packed path at batch 1.
fn model_bench<'a>(
    name: &'static str,
    model: &'a Net,
    reference: impl Fn(&Tensor) -> Prediction + 'a,
    input: &'a Tensor,
) -> Bench<'a> {
    let mut arena = model.arena();
    let mut out = Vec::new();
    Bench::new(
        name,
        move || {
            let _ = reference(input);
        },
        move || model.forward_batch_scratch(std::slice::from_ref(input), &mut arena, &mut out),
    )
}

/// Rows of the cyclic tick stream the streamed rows slide over.
const STREAM_ROWS: usize = 256;

/// A streamed tiny model's sweeps of `k` windows (DeepLOB's are
/// `storm_deeplob`'s shape, the CNN's `t2t_cnn`'s): consecutive sweeps
/// over one cyclic stream of [`STREAM_ROWS`] tick rows, each starting
/// where the last ended, so every window is the one before slid by a row
/// and each `ModelRegistry::forward_slides` is a hit of `k` new rows
/// through the trunk (`k = 1` is `ModelRegistry::forward`, the tick),
/// against `forward_reference` on the same `k` windows. The sweeps run
/// through `registry`, which the caller can check, once timed, for one
/// miss: the first sweep.
fn sweep_bench<'a>(
    name: &'static str,
    model: &'a Net,
    k: usize,
    registry: &'a mut ModelRegistry,
) -> Bench<'a> {
    let (window, features) = (model.window(), model.features());
    let stream = Tensor::random(&[STREAM_ROWS, features], 1.0, 6);
    let rows = |start: usize, len: usize| {
        let data = (start..start + len).flat_map(|r| stream.row(r % STREAM_ROWS).to_vec());
        Tensor::from_vec(data.collect(), &[len, features])
    };
    let sweeps: Vec<Tensor> = (0..STREAM_ROWS)
        .step_by(k)
        .map(|start| rows(start, window + k - 1))
        .collect();
    let windows: Vec<Tensor> = (0..STREAM_ROWS).map(|start| rows(start, window)).collect();
    registry.register(model.clone());
    let (mut naive_at, mut fast_at, mut out) = (0, 0, Vec::new());
    Bench::new(
        name,
        move || {
            for window in &windows[naive_at..naive_at + k] {
                let _ = model.forward_reference(window);
            }
            naive_at = (naive_at + k) % STREAM_ROWS;
        },
        move || {
            registry.forward_slides(model.kind(), &sweeps[fast_at], k, &mut out);
            fast_at = (fast_at + 1) % sweeps.len();
        },
    )
}

/// Eight distinct tiny-TransLOB windows: eight `forward_reference` calls
/// against one batch-8 packed forward.
fn translob_b8_bench(translob: &Net) -> Bench<'_> {
    let inputs: Vec<Tensor> = (0..8)
        .map(|s| Tensor::random(&[16, 40], 1.0, 20 + s))
        .collect();
    let mut arena = translob.arena();
    let mut out = Vec::new();
    let reference = inputs.clone();
    Bench::new(
        "translob_b8",
        move || {
            for x in &reference {
                let _ = translob.forward_reference(x);
            }
        },
        move || translob.forward_batch_scratch(&inputs, &mut arena, &mut out),
    )
}

fn main() {
    let conv = Conv2d::new(16, 16, (4, 1), (1, 1), (0, 0), 1);
    let xc = Tensor::random(&[16, 64, 10], 1.0, 2);
    let (mut conv_stage, mut conv_out) =
        (vec![0.0f32; conv.stage_len()], vec![0.0f32; 16 * 61 * 10]);

    let linear = Linear::new(256, 128, 1);
    let xl = Tensor::random(&[256], 1.0, 2);
    let mut linear_out = vec![0.0f32; 128];

    // 128 rows, 16 -> 64: the batched sweep, which an AVX-512 CPU runs on
    // its wide instance.
    let ffn = Linear::new(16, 64, 1);
    let xb = Tensor::random(&[128, 16], 1.0, 2);
    let mut ffn_out = vec![0.0f32; 128 * 64];

    // The packed LSTM stores only the last hidden state; the recurrence
    // it runs is the reference's.
    let lstm = Lstm::new(48, 64, 1);
    let xs = Tensor::random(&[16, 48], 1.0, 2);
    let (mut lstm_work, mut lstm_out) = (vec![0.0f32; lstm.workspace(16)], vec![0.0f32; 64]);

    let mha = MultiHeadAttention::new(64, 4, 1);
    let xa = Tensor::random(&[32, 64], 1.0, 2);
    let (per, fixed) = mha.workspace(32);
    let (mut mha_work, mut mha_out) = (vec![0.0f32; per + fixed], vec![0.0f32; 32 * 64]);

    let kernels = run(vec![
        Bench::new(
            "conv2d",
            || {
                let _ = conv.forward_reference(&xc);
            },
            || {
                let (x, out) = (xc.data(), &mut conv_out);
                conv.forward_batch_packed(x, 1, 64, 10, &mut conv_stage, Store::Bf16, out)
            },
        ),
        Bench::new(
            "linear",
            || {
                let _ = linear.forward_reference(&xl);
            },
            || linear.forward_batch_packed(xl.data(), 1, Store::Bf16, &mut linear_out),
        ),
        Bench::new(
            "linear_b128",
            || {
                let _ = ffn.forward_reference(&xb);
            },
            || ffn.forward_batch_packed(xb.data(), 128, Store::Bf16, &mut ffn_out),
        ),
        Bench::new(
            "lstm",
            || {
                let _ = lstm.forward_reference(&xs);
            },
            || {
                let (x, out) = (xs.data(), &mut lstm_out);
                lstm.last_hidden_batch_packed(x, 1, 16, &mut lstm_work, out)
            },
        ),
        Bench::new(
            "attention",
            || {
                let _ = mha.forward_reference(&xa);
            },
            || mha.forward_batch_packed(xa.data(), 1, 32, &mut mha_work, &mut mha_out),
        ),
    ]);

    let vanilla = CnnSpec::tiny().build(3);
    let deeplob = DeepLobSpec::tiny().build(3);
    let translob = TransLobSpec::tiny().build(3);
    let x20 = Tensor::random(&[20, 40], 1.0, 5);
    let x24 = Tensor::random(&[24, 40], 1.0, 5);
    let x16 = Tensor::random(&[16, 40], 1.0, 5);
    let mut registries: [ModelRegistry; 3] = Default::default();
    let [tick_registry, sweep4_registry, cnn_registry] = &mut registries;
    let models = run(vec![
        model_bench(
            "vanilla_cnn",
            &vanilla,
            |x| vanilla.forward_reference(x),
            &x20,
        ),
        model_bench("deeplob", &deeplob, |x| deeplob.forward_reference(x), &x24),
        model_bench(
            "translob",
            &translob,
            |x| translob.forward_reference(x),
            &x16,
        ),
        translob_b8_bench(&translob),
        sweep_bench("deeplob_tick", &deeplob, 1, tick_registry),
        sweep_bench("deeplob_sweep4", &deeplob, 4, sweep4_registry),
        sweep_bench("cnn_sweep4", &vanilla, 4, cnn_registry),
    ]);
    for (registry, model) in registries.iter().zip([&deeplob, &deeplob, &vanilla]) {
        let stats = registry.stream_stats(model.kind());
        assert_eq!(stats.misses, 1, "every sweep but the first streams");
    }

    let deeplob_speedup = models
        .iter()
        .find(|r| r.name == "deeplob")
        .map(|r| r.speedup())
        .unwrap_or(0.0);
    let floor_met = deeplob_speedup >= DEEPLOB_SPEEDUP_FLOOR;

    let kernel_rows: Vec<String> = kernels.iter().map(Row::json).collect();
    let model_rows: Vec<String> = models.iter().map(Row::json).collect();
    // The instance the batched sweeps ran on; batch-1 sweeps run AVX2 on
    // an AVX-512 CPU (see `tile_isa`).
    let json = format!(
        "{{\n  \"tile_isa\": \"{}\",\n  \"rounds\": {ROUNDS},\n  \"kernels\": [\n{}\n  ],\n  \
         \"models\": [\n{}\n  ],\n  \"deeplob_speedup\": {:.2},\n  \
         \"deeplob_speedup_floor\": {:.1},\n  \"floor_met\": {}\n}}\n",
        tile_isa(),
        kernel_rows.join(",\n"),
        model_rows.join(",\n"),
        deeplob_speedup,
        DEEPLOB_SPEEDUP_FLOOR,
        floor_met,
    );
    std::fs::write("BENCH_kernels.json", &json).expect("write BENCH_kernels.json");
    println!("\nwrote BENCH_kernels.json");

    if !floor_met {
        eprintln!(
            "REGRESSION: DeepLOB speedup {deeplob_speedup:.2}x below the \
             {DEEPLOB_SPEEDUP_FLOOR:.1}x floor"
        );
        std::process::exit(1);
    }
}
