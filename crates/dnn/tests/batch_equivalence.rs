//! The batched-inference contract: `Net::forward_batch_scratch` over
//! prepacked weight panels answers every sample of a batch **bit for
//! bit** as it answers that sample alone (batch 1 of the same packed
//! path), and `==` to the model's per-sample `forward_reference` —
//! packing permutes operand layout and batching stacks GEMM output
//! dimensions, neither touches any `k` accumulation chain. Also pins the
//! packed kernels at degenerate shapes against a scalar triple loop.

use lt_dnn::bf16_round;
use lt_dnn::kernels::{gemm_packed, pack_bt_panels, Segment, Store};
use lt_dnn::models::{CnnSpec, DeepLobSpec, TransLobSpec};
use lt_dnn::{Net, Prediction, Tensor};
use proptest::prelude::*;

/// Random `[window, features]` inputs for `model`, one per sample.
fn random_batch(model: &Net, batch: usize, seed: u64) -> Vec<Tensor> {
    (0..batch)
        .map(|i| {
            Tensor::random(
                &[model.window(), model.features()],
                1.0,
                seed.wrapping_mul(1000).wrapping_add(i as u64),
            )
        })
        .collect()
}

/// Asserts the batched forward == one `reference` call per sample
/// (`f32 ==`) and == one batch-1 packed forward per sample (bit for
/// bit), and returns the predictions.
fn assert_batch_matches_loop(
    name: &str,
    model: &Net,
    reference: impl Fn(&Tensor) -> Prediction,
    inputs: &[Tensor],
) -> Vec<Prediction> {
    let mut arena = model.arena();
    let mut batched = Vec::new();
    model.forward_batch_scratch(inputs, &mut arena, &mut batched);
    assert_eq!(batched.len(), inputs.len(), "{name}: prediction count");
    let mut single = Vec::new();
    for (s, (b, input)) in batched.iter().zip(inputs).enumerate() {
        let oracle = reference(input);
        assert_eq!(
            b.probs, oracle.probs,
            "{name}: sample {s} diverged from forward_reference"
        );
        model.forward_batch_scratch(std::slice::from_ref(input), &mut arena, &mut single);
        assert_eq!(
            b.probs.map(f32::to_bits),
            single[0].probs.map(f32::to_bits),
            "{name}: sample {s} diverged (batched {:?} vs alone {:?})",
            b.probs,
            single[0].probs
        );
    }
    batched
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// VanillaCnn: batched packed path == per-sample oracle, any batch size.
    #[test]
    fn vanilla_batch_matches_loop(seed in 0u64..500, batch in 0usize..6) {
        let model = CnnSpec::tiny().build(seed);
        let inputs = random_batch(&model, batch, seed);
        assert_batch_matches_loop("VanillaCnn", &model, |x| model.forward_reference(x), &inputs);
    }

    /// TransLob: batched packed path == per-sample oracle, any batch size.
    #[test]
    fn translob_batch_matches_loop(seed in 0u64..500, batch in 0usize..6) {
        let model = TransLobSpec::tiny().build(seed);
        let inputs = random_batch(&model, batch, seed);
        assert_batch_matches_loop("TransLob", &model, |x| model.forward_reference(x), &inputs);
    }

    /// DeepLob: batched packed path == per-sample oracle, any batch size.
    #[test]
    fn deeplob_batch_matches_loop(seed in 0u64..500, batch in 0usize..6) {
        let model = DeepLobSpec::tiny().build(seed);
        let inputs = random_batch(&model, batch, seed);
        assert_batch_matches_loop("DeepLob", &model, |x| model.forward_reference(x), &inputs);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// VanillaCnn off the tile grid: odd channel and hidden widths leave
    /// lane tails in every layer; batches 0..=9 cover the empty batch,
    /// the lone row and row tails on either side of a full row block.
    #[test]
    fn vanilla_off_grid_batch_matches_loop(
        (ci, hi, batch, seed) in (0usize..3, 0usize..3, 0usize..=9, 0u64..500),
    ) {
        let spec = CnnSpec {
            channels: [3, 5, 7][ci],
            hidden: [5, 9, 13][hi],
            ..CnnSpec::tiny()
        };
        let model = spec.build(seed);
        let inputs = random_batch(&model, batch, seed);
        assert_batch_matches_loop(
            "VanillaCnn off-grid",
            &model,
            |x| model.forward_reference(x),
            &inputs,
        );
    }

    /// TransLob off the tile grid: model widths and head widths that are
    /// not lane multiples, channel counts that are not chain multiples,
    /// windows shorter than one lane block, between two, and one or two
    /// past a wide block of query rows and positions.
    #[test]
    fn translob_off_grid_batch_matches_loop(
        (di, hi, ci, wi) in (0usize..3, 0usize..3, 0usize..3, 0usize..5),
        (batch, seed) in (0usize..=9, 0u64..500),
    ) {
        let d_model = [12, 20, 24][di];
        let heads = [2, 3, 4][hi];
        prop_assume!(d_model % heads == 0);
        let spec = TransLobSpec {
            window: [5, 13, 16, 17, 33][wi],
            conv_channels: [3, 5, 8][ci],
            d_model,
            heads,
            ..TransLobSpec::tiny()
        };
        let model = spec.build(seed);
        let inputs = random_batch(&model, batch, seed);
        assert_batch_matches_loop(
            "TransLob off-grid",
            &model,
            |x| model.forward_reference(x),
            &inputs,
        );
    }

    /// DeepLob off the tile grid: channel counts around one chain block,
    /// an LSTM whose gate stack is not a lane multiple.
    #[test]
    fn deeplob_off_grid_batch_matches_loop(
        (ci, hi, batch, seed) in (0usize..3, 0usize..2, 0usize..=9, 0u64..500),
    ) {
        let spec = DeepLobSpec {
            channels: [3, 4, 5][ci],
            lstm_hidden: [5, 8][hi],
            ..DeepLobSpec::tiny()
        };
        let model = spec.build(seed);
        let inputs = random_batch(&model, batch, seed);
        assert_batch_matches_loop(
            "DeepLob off-grid",
            &model,
            |x| model.forward_reference(x),
            &inputs,
        );
    }
}

/// Results land in input order and `out` is cleared between calls.
#[test]
fn batch_output_order_and_reuse() {
    let model = CnnSpec::tiny().build(4);
    let inputs = random_batch(&model, 4, 9);
    let mut arena = model.arena();
    let mut out = vec![Prediction::new([1.0, 0.0, 0.0]); 7];
    model.forward_batch_scratch(&inputs, &mut arena, &mut out);
    assert_eq!(out.len(), 4);
    for (got, input) in out.iter().zip(&inputs) {
        assert_eq!(got.probs, model.forward_reference(input).probs);
    }
    // Reversing the inputs reverses the outputs.
    let rev: Vec<Tensor> = inputs.iter().rev().cloned().collect();
    let mut out_rev = Vec::new();
    model.forward_batch_scratch(&rev, &mut arena, &mut out_rev);
    for (a, b) in out.iter().zip(out_rev.iter().rev()) {
        assert_eq!(a.probs.map(f32::to_bits), b.probs.map(f32::to_bits));
    }
}

// ---- degenerate kernel shapes ---------------------------------------

/// The packed GEMM laid out as an im2col convolution: `a` packed into
/// the tile's lanes, the rows of `b` broadcast, `[m, n]` output.
fn packed_gemm(a: &[f32], b: &[f32], bias: &[f32], m: usize, n: usize, k: usize, out: &mut [f32]) {
    let mut packed = Vec::new();
    pack_bt_panels(a, m, k, &mut packed);
    gemm_packed(
        Segment::packed(&packed, k, b, k),
        Some(bias),
        n,
        m,
        Store::Bf16,
        out,
        (1, n),
    );
}

/// The same contraction as a scalar triple loop: `out[i][j] =
/// bf16(bias[i] + sum over t of a[i][t] * b[j][t])`, `t` increasing.
fn scalar_gemm(a: &[f32], b: &[f32], bias: &[f32], m: usize, n: usize, k: usize) -> Vec<f32> {
    let mut out = vec![f32::NAN; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = bias[i];
            for t in 0..k {
                acc += a[i * k + t] * b[j * k + t];
            }
            out[i * n + j] = bf16_round(acc);
        }
    }
    out
}

/// k = 0: the GEMM reduces over nothing, so outputs are the
/// BF16-rounded biases.
#[test]
fn gemm_with_zero_k_emits_bias() {
    let (m, n) = (5, 3);
    let bias = [1.5f32, -2.0, 0.25, 7.0, 0.0];
    let mut packed = Vec::new();
    pack_bt_panels(&[], m, 0, &mut packed);
    assert!(packed.is_empty());
    let mut out = vec![f32::NAN; m * n];
    packed_gemm(&[], &[], &bias, m, n, 0, &mut out);
    assert_eq!(out, scalar_gemm(&[], &[], &bias, m, n, 0));
    for i in 0..m {
        for j in 0..n {
            assert_eq!(out[i * n + j], bias[i]);
        }
    }
}

/// m = 0 and n = 0 are no-ops, and a one-row input (the lone query's
/// matvec) runs.
#[test]
fn gemm_with_zero_rows_or_cols_is_noop() {
    packed_gemm(&[], &[1.0, 2.0, 3.0, 4.0], &[], 0, 1, 4, &mut []);
    let a = [1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
    packed_gemm(&a, &[], &[0.5, -0.5], 2, 0, 4, &mut []);
    let mut one_row = [f32::NAN; 2];
    packed_gemm(
        &a,
        &[1.0, 0.0, 0.0, 0.0],
        &[0.5, -0.5],
        2,
        1,
        4,
        &mut one_row,
    );
    assert_eq!(one_row, [1.5, 4.5]);
}

/// Packing then multiplying at boundary sizes (m = 4/5 inside one lane
/// block, n = 63/64/65/128 off and on the row block after a long run of
/// full ones) matches the scalar loop bit for bit — the blocking seams
/// introduce no reordering.
#[test]
fn packed_gemm_boundary_shapes_match_unpacked() {
    for m in [4usize, 5] {
        for n in [63usize, 64, 65, 128] {
            let k = 9;
            let a: Vec<f32> = (0..m * k).map(|i| ((i * 37 % 23) as f32) - 11.0).collect();
            let b: Vec<f32> = (0..n * k).map(|i| ((i * 13 % 31) as f32) * 0.25).collect();
            let bias: Vec<f32> = (0..m).map(|i| i as f32 - 1.0).collect();
            let mut fast = vec![0.0f32; m * n];
            packed_gemm(&a, &b, &bias, m, n, k, &mut fast);
            assert_eq!(scalar_gemm(&a, &b, &bias, m, n, k), fast, "m={m} n={n}");
        }
    }
}
