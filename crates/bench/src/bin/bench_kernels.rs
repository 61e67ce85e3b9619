//! Kernel-regression benchmark: times every naive `forward_reference`
//! against its fast `forward_scratch` counterpart and emits a
//! machine-readable `BENCH_kernels.json` in the current directory.
//!
//! ```text
//! cargo run --release -p lt-bench --bin bench_kernels
//! ```
//!
//! Exits nonzero if the DeepLOB full-forward speedup falls below the
//! 5x regression floor, so CI catches fast-path regressions.

use std::time::Instant;

use lighttrader::dnn::bf16_round;
use lighttrader::dnn::kernels::{gemm_bt_bias_rows_bf16, gemm_packed, pack_bt_panels, Segment};
use lighttrader::dnn::models::{CnnSpec, DeepLobSpec, QuantizedCnn, TransLobSpec};
use lighttrader::dnn::ops::{Conv2d, Linear, LinearInt8, Lstm, MultiHeadAttention};
use lighttrader::dnn::{Model, ScratchPad, Tensor};

/// Minimum acceptable DeepLOB full-forward speedup (fast vs naive).
const DEEPLOB_SPEEDUP_FLOOR: f64 = 5.0;
/// Target wall time per measurement, nanoseconds.
const TARGET_NS: u128 = 100_000_000;

/// Times `f` adaptively: calibrates an iteration count that fills
/// roughly [`TARGET_NS`], runs three repetitions, and returns the best
/// (least-noisy) per-iteration nanoseconds.
fn time_ns<F: FnMut()>(mut f: F) -> f64 {
    // Warm-up + calibration.
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
    let naive_ns = time_ns(&mut naive);
    let fast_ns = time_ns(&mut fast);
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

fn main() {
    let mut kernels = Vec::new();

    let conv = Conv2d::new(16, 16, (4, 1), (1, 1), (0, 0), 1);
    let xc = Tensor::random(&[16, 64, 10], 1.0, 2);
    let mut pad = ScratchPad::new();
    kernels.push(measure(
        "conv2d",
        || {
            let _ = conv.forward_reference(&xc);
        },
        || {
            let out = conv.forward_scratch(&xc, &mut pad);
            pad.give_tensor(out);
        },
    ));

    let linear = Linear::new(256, 128, 1);
    let xl = Tensor::random(&[256], 1.0, 2);
    let mut pad = ScratchPad::new();
    kernels.push(measure(
        "linear",
        || {
            let _ = linear.forward_reference(&xl);
        },
        || {
            let out = linear.forward_scratch(&xl, &mut pad);
            pad.give_tensor(out);
        },
    ));

    let linear_q = LinearInt8::from_linear(&linear);
    let mut pad = ScratchPad::new();
    kernels.push(measure(
        "linear_int8",
        || {
            let _ = linear_q.forward_reference(&xl);
        },
        || {
            let out = linear_q.forward_scratch(&xl, &mut pad);
            pad.give_tensor(out);
        },
    ));

    let lstm = Lstm::new(48, 64, 1);
    let xs = Tensor::random(&[16, 48], 1.0, 2);
    let mut pad = ScratchPad::new();
    kernels.push(measure(
        "lstm",
        || {
            let _ = lstm.forward_reference(&xs);
        },
        || {
            let out = lstm.forward_scratch(&xs, &mut pad);
            pad.give_tensor(out);
        },
    ));

    let mha = MultiHeadAttention::new(64, 4, 1);
    let xa = Tensor::random(&[32, 64], 1.0, 2);
    let mut pad = ScratchPad::new();
    kernels.push(measure(
        "attention",
        || {
            let _ = mha.forward_reference(&xa);
        },
        || {
            let out = mha.forward_scratch(&xa, &mut pad);
            pad.give_tensor(out);
        },
    ));

    // Batch sweep: the packed register tile against the row-major GEMM
    // on a batch-stacked output (DeepLOB trunk geometry: 16 output
    // channels over k=64, 24 positions per sample, n = batch x 24).
    // The 16 channels are the tile's lanes, the patch rows its rows.
    for (name, batch) in [
        ("gemm_packed_b1", 1usize),
        ("gemm_packed_b4", 4),
        ("gemm_packed_b16", 16),
    ] {
        let (m, k, positions) = (16usize, 64usize, 24usize);
        let n = batch * positions;
        let a = Tensor::random(&[m, k], 1.0, 7);
        let b = Tensor::random(&[n, k], 1.0, 8);
        let bias = vec![0.1f32; m];
        let mut packed = Vec::new();
        pack_bt_panels(a.data(), m, k, &mut packed);
        let mut out_naive = vec![0.0f32; m * n];
        let mut out_fast = vec![0.0f32; m * n];
        kernels.push(measure(
            name,
            || gemm_bt_bias_rows_bf16(a.data(), b.data(), &bias, m, n, k, &mut out_naive),
            || {
                gemm_packed(
                    [Segment::packed(&packed, k, b.data(), k)],
                    Some(&bias),
                    n,
                    m,
                    bf16_round,
                    &mut out_fast,
                    (1, n),
                )
            },
        ));
    }

    let mut models = Vec::new();
    let vanilla = CnnSpec::tiny().build(3);
    let quant = QuantizedCnn::from_float(&vanilla);
    let deeplob = DeepLobSpec::tiny().build(3);
    let translob = TransLobSpec::tiny().build(3);
    let x20 = Tensor::random(&[20, 40], 1.0, 5);
    let x24 = Tensor::random(&[24, 40], 1.0, 5);
    let x16 = Tensor::random(&[16, 40], 1.0, 5);

    let mut pad = ScratchPad::new();
    models.push(measure(
        "vanilla_cnn",
        || {
            let _ = vanilla.forward_reference(&x20);
        },
        || {
            let _ = vanilla.forward_scratch(&x20, &mut pad);
        },
    ));
    let mut pad = ScratchPad::new();
    models.push(measure(
        "quantized_cnn",
        || {
            let _ = quant.forward_reference(&x20);
        },
        || {
            let _ = quant.forward_scratch(&x20, &mut pad);
        },
    ));
    let mut pad = ScratchPad::new();
    models.push(measure(
        "deeplob",
        || {
            let _ = deeplob.forward_reference(&x24);
        },
        || {
            let _ = deeplob.forward_scratch(&x24, &mut pad);
        },
    ));
    let mut pad = ScratchPad::new();
    models.push(measure(
        "translob",
        || {
            let _ = translob.forward_reference(&x16);
        },
        || {
            let _ = translob.forward_scratch(&x16, &mut pad);
        },
    ));

    let deeplob_speedup = models
        .iter()
        .find(|r| r.name == "deeplob")
        .map(|r| r.speedup())
        .unwrap_or(0.0);

    let kernel_rows: Vec<String> = kernels.iter().map(Row::json).collect();
    let model_rows: Vec<String> = models.iter().map(Row::json).collect();
    let json = format!
        ("{{\n  \"kernels\": [\n{}\n  ],\n  \"models\": [\n{}\n  ],\n  \"deeplob_speedup\": {:.2},\n  \"deeplob_speedup_floor\": {:.1}\n}}\n",
        kernel_rows.join(",\n"),
        model_rows.join(",\n"),
        deeplob_speedup,
        DEEPLOB_SPEEDUP_FLOOR,
    );
    std::fs::write("BENCH_kernels.json", &json).expect("write BENCH_kernels.json");
    println!("\nwrote BENCH_kernels.json");

    if deeplob_speedup < DEEPLOB_SPEEDUP_FLOOR {
        eprintln!(
            "REGRESSION: DeepLOB speedup {deeplob_speedup:.2}x below the \
             {DEEPLOB_SPEEDUP_FLOOR:.1}x floor"
        );
        std::process::exit(1);
    }
}
