//! Kernel-regression benchmark: times every naive `forward_reference`
//! against its packed counterpart at batch 1 (the lone query), plus one
//! batched dense layer (`linear_b128`: TransLOB's FFN shape over a batch
//! of eight 16-step windows, full row blocks throughout), one batched
//! model (`translob_b8`: eight tiny-TransLOB windows in one forward, the
//! `multi_translob` workload's round) and one streamed model
//! (`deeplob_tick`: tiny DeepLOB's `k = 1` hit through
//! `ModelRegistry::forward`, the `storm_deeplob` workload's tick), and
//! emits a machine-readable
//! `BENCH_kernels.json` in the current directory, with the register
//! tile's instruction set on this CPU (`"tile_isa"`).
//!
//! ```text
//! cargo run --release -p lt-bench --bin bench_kernels
//! ```
//!
//! Exits nonzero if the DeepLOB full-forward speedup falls below the
//! 5x regression floor, so CI catches fast-path regressions.

#![forbid(unsafe_code)]

use lighttrader::dnn::kernels::tile_isa;
use lighttrader::dnn::models::{CnnSpec, DeepLobSpec, TransLob, TransLobSpec};
use lighttrader::dnn::ops::{Conv2d, Linear, Lstm, MultiHeadAttention};
use lighttrader::dnn::{Model, ModelKind, ModelRegistry, Prediction, ScratchPad, Tensor};
use lt_bench::time_ns;

/// Minimum acceptable DeepLOB full-forward speedup (fast vs naive).
const DEEPLOB_SPEEDUP_FLOOR: f64 = 5.0;
/// Interleaved measurement rounds per row. A speedup is a ratio of two
/// timings, meaningful only when both were taken in the same machine
/// state, and this box's speed drifts by a third for a second at a time:
/// every round times naive then packed back to back, and each keeps its
/// fastest round.
const ROUNDS: usize = 7;

struct Row {
    name: &'static str,
    naive_ns: f64,
    fast_ns: f64,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.naive_ns / self.fast_ns
    }

    fn json(&self) -> String {
        format!(
            "    {{\"name\": \"{}\", \"naive_ns\": {:.1}, \"fast_ns\": {:.1}, \"speedup\": {:.2}}}",
            self.name,
            self.naive_ns,
            self.fast_ns,
            self.speedup()
        )
    }
}

fn measure(name: &'static str, mut naive: impl FnMut(), mut fast: impl FnMut()) -> Row {
    let (mut naive_ns, mut fast_ns) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..ROUNDS {
        naive_ns = naive_ns.min(time_ns(&mut naive));
        fast_ns = fast_ns.min(time_ns(&mut fast));
    }
    let row = Row {
        name,
        naive_ns,
        fast_ns,
    };
    println!(
        "{:<16} naive {:>12.0} ns   fast {:>12.0} ns   speedup {:>6.2}x",
        name,
        naive_ns,
        fast_ns,
        row.speedup()
    );
    row
}

/// One model row: `reference` against the packed trait path at batch 1.
fn measure_model(
    name: &'static str,
    model: &dyn Model,
    reference: impl Fn(&Tensor) -> Prediction,
    input: &Tensor,
) -> Row {
    let packed = model.pack_weights();
    let mut pad = ScratchPad::new();
    let mut out = Vec::new();
    measure(
        name,
        || {
            let _ = reference(input);
        },
        || model.forward_batch_scratch(std::slice::from_ref(input), &packed, &mut pad, &mut out),
    )
}

/// Tiny DeepLOB's streamed tick, `storm_deeplob`'s shape: consecutive
/// windows of one cyclic stream of 256 tick rows, so every window is the
/// one before slid by a row and each `ModelRegistry::forward` is a `k = 1`
/// hit (one new row through the trunk), against `forward_reference` on
/// the same windows.
fn measure_deeplob_tick() -> Row {
    const ROWS: usize = 256;
    let spec = DeepLobSpec::tiny();
    let (window, features) = (spec.window, spec.features);
    let deeplob = spec.build(3);
    let stream = Tensor::random(&[ROWS, features], 1.0, 6);
    let windows: Vec<Tensor> = (0..ROWS)
        .map(|start| {
            let rows = (start..start + window).flat_map(|r| stream.row(r % ROWS).to_vec());
            Tensor::from_vec(rows.collect(), &[window, features])
        })
        .collect();
    let mut registry = ModelRegistry::new();
    registry.register(Box::new(deeplob.clone()));
    let (mut naive_at, mut fast_at) = (0, 0);
    let row = measure(
        "deeplob_tick",
        || {
            let _ = deeplob.forward_reference(&windows[naive_at]);
            naive_at = (naive_at + 1) % ROWS;
        },
        || {
            let _ = registry.forward(ModelKind::DeepLob, &windows[fast_at]);
            fast_at = (fast_at + 1) % ROWS;
        },
    );
    let stats = registry.stream_stats(ModelKind::DeepLob);
    assert_eq!(stats.misses, 1, "every window but the first streams");
    row
}

/// Eight distinct tiny-TransLOB windows: eight `forward_reference` calls
/// against one batch-8 packed forward.
fn measure_translob_b8(translob: &TransLob) -> Row {
    let inputs: Vec<Tensor> = (0..8)
        .map(|s| Tensor::random(&[16, 40], 1.0, 20 + s))
        .collect();
    let packed = translob.pack_weights();
    let mut pad = ScratchPad::new();
    let mut out = Vec::new();
    measure(
        "translob_b8",
        || {
            for x in &inputs {
                let _ = translob.forward_reference(x);
            }
        },
        || translob.forward_batch_scratch(&inputs, &packed, &mut pad, &mut out),
    )
}

fn main() {
    let mut kernels = Vec::new();
    let mut pad = ScratchPad::new();

    let conv = Conv2d::new(16, 16, (4, 1), (1, 1), (0, 0), 1);
    let xc = Tensor::random(&[16, 64, 10], 1.0, 2);
    let conv_packed = conv.pack();
    let mut conv_out = vec![0.0f32; 16 * 61 * 10];
    kernels.push(measure(
        "conv2d",
        || {
            let _ = conv.forward_reference(&xc);
        },
        || conv.forward_batch_packed(xc.data(), 1, 64, 10, &conv_packed, &mut pad, &mut conv_out),
    ));

    let linear = Linear::new(256, 128, 1);
    let xl = Tensor::random(&[256], 1.0, 2);
    let linear_packed = linear.pack();
    let mut linear_out = vec![0.0f32; 128];
    kernels.push(measure(
        "linear",
        || {
            let _ = linear.forward_reference(&xl);
        },
        || linear.forward_batch_packed(xl.data(), 1, &linear_packed, &mut linear_out),
    ));

    // 128 rows, 16 -> 64: the batched sweep, which an AVX-512 CPU runs on
    // its wide instance.
    let ffn = Linear::new(16, 64, 1);
    let xb = Tensor::random(&[128, 16], 1.0, 2);
    let ffn_packed = ffn.pack();
    let mut ffn_out = vec![0.0f32; 128 * 64];
    kernels.push(measure(
        "linear_b128",
        || {
            let _ = ffn.forward_reference(&xb);
        },
        || ffn.forward_batch_packed(xb.data(), 128, &ffn_packed, &mut ffn_out),
    ));

    // The packed LSTM stores only the last hidden state; the recurrence
    // it runs is the reference's.
    let lstm = Lstm::new(48, 64, 1);
    let xs = Tensor::random(&[16, 48], 1.0, 2);
    let (pwx, pwh) = (lstm.pack_wx(), lstm.pack_wh());
    let mut lstm_out = vec![0.0f32; 64];
    kernels.push(measure(
        "lstm",
        || {
            let _ = lstm.forward_reference(&xs);
        },
        || lstm.last_hidden_batch_packed(xs.data(), 1, 16, &pwx, &pwh, &mut pad, &mut lstm_out),
    ));

    let mha = MultiHeadAttention::new(64, 4, 1);
    let xa = Tensor::random(&[32, 64], 1.0, 2);
    let mha_packed = mha.pack();
    let mut mha_out = vec![0.0f32; 32 * 64];
    kernels.push(measure(
        "attention",
        || {
            let _ = mha.forward_reference(&xa);
        },
        || {
            mha.forward_batch_packed(
                xa.data(),
                1,
                32,
                mha_packed.each_ref(),
                &mut pad,
                &mut mha_out,
            )
        },
    ));

    let vanilla = CnnSpec::tiny().build(3);
    let deeplob = DeepLobSpec::tiny().build(3);
    let translob = TransLobSpec::tiny().build(3);
    let x20 = Tensor::random(&[20, 40], 1.0, 5);
    let x24 = Tensor::random(&[24, 40], 1.0, 5);
    let x16 = Tensor::random(&[16, 40], 1.0, 5);
    let models = [
        measure_model(
            "vanilla_cnn",
            &vanilla,
            |x| vanilla.forward_reference(x),
            &x20,
        ),
        measure_model("deeplob", &deeplob, |x| deeplob.forward_reference(x), &x24),
        measure_model(
            "translob",
            &translob,
            |x| translob.forward_reference(x),
            &x16,
        ),
        measure_translob_b8(&translob),
        measure_deeplob_tick(),
    ];

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
        "{{\n  \"tile_isa\": \"{}\",\n  \"kernels\": [\n{}\n  ],\n  \"models\": [\n{}\n  ],\n  \
         \"deeplob_speedup\": {:.2},\n  \"deeplob_speedup_floor\": {:.1},\n  \
         \"floor_met\": {}\n}}\n",
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
