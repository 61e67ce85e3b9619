//! The batched-inference contract: `Model::forward_batch_scratch` over
//! prepacked weight panels is **bit-identical**, per sample, to looping
//! `forward_scratch` — packing permutes operand layout and batching
//! stacks GEMM output dimensions, neither touches any `k` accumulation
//! chain. Also pins the packed/batched kernels at degenerate shapes.

use lt_dnn::bf16_round;
use lt_dnn::kernels::{gemm_bt_bias_rows_bf16, gemm_packed, im2col_batch, pack_bt_panels, Segment};
use lt_dnn::models::{CnnSpec, DeepLobSpec, TransLobSpec};
use lt_dnn::{Model, PackedWeights, Prediction, ScratchPad, Tensor};
use proptest::prelude::*;

/// Random `[window, features]` inputs for `model`, one per sample.
fn random_batch(model: &dyn Model, batch: usize, seed: u64) -> Vec<Tensor> {
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

/// Asserts batched == looped, bit for bit, and returns the predictions.
fn assert_batch_matches_loop(
    name: &str,
    model: &dyn Model,
    packed: &PackedWeights,
    inputs: &[Tensor],
) -> Vec<Prediction> {
    let mut pad = ScratchPad::new();
    let mut looped = Vec::new();
    model.forward_batch_looped(inputs, &mut pad, &mut looped);
    let mut batched = Vec::new();
    model.forward_batch_scratch(inputs, packed, &mut pad, &mut batched);
    assert_eq!(batched.len(), inputs.len(), "{name}: prediction count");
    for (s, (b, l)) in batched.iter().zip(&looped).enumerate() {
        assert_eq!(
            b.probs.map(f32::to_bits),
            l.probs.map(f32::to_bits),
            "{name}: sample {s} diverged (batched {:?} vs looped {:?})",
            b.probs,
            l.probs
        );
    }
    batched
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// VanillaCnn: batched packed path == looped path, any batch size.
    #[test]
    fn vanilla_batch_matches_loop(seed in 0u64..500, batch in 0usize..6) {
        let model = CnnSpec::tiny().build(seed);
        let packed = model.pack_weights();
        let inputs = random_batch(&model, batch, seed);
        assert_batch_matches_loop("VanillaCnn", &model, &packed, &inputs);
    }

    /// TransLob: batched packed path == looped path, any batch size.
    #[test]
    fn translob_batch_matches_loop(seed in 0u64..500, batch in 0usize..6) {
        let model = TransLobSpec::tiny().build(seed);
        let packed = model.pack_weights();
        let inputs = random_batch(&model, batch, seed);
        assert_batch_matches_loop("TransLob", &model, &packed, &inputs);
    }

    /// DeepLob: batched packed path == looped path, any batch size.
    #[test]
    fn deeplob_batch_matches_loop(seed in 0u64..500, batch in 0usize..6) {
        let model = DeepLobSpec::tiny().build(seed);
        let packed = model.pack_weights();
        let inputs = random_batch(&model, batch, seed);
        assert_batch_matches_loop("DeepLob", &model, &packed, &inputs);
    }

    /// Thread scatter only re-times work: multi-threaded batched
    /// forwards are bit-identical to the serial batched forward.
    #[test]
    fn parallel_batch_matches_serial(seed in 0u64..500, threads in 2usize..5) {
        let model = DeepLobSpec::tiny().build(seed);
        let serial = model.pack_weights();
        let parallel = model.pack_weights().with_threads(threads);
        let inputs = random_batch(&model, 5, seed);
        let a = assert_batch_matches_loop("DeepLob serial", &model, &serial, &inputs);
        let b = assert_batch_matches_loop("DeepLob parallel", &model, &parallel, &inputs);
        prop_assert_eq!(a, b);
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
        let packed = model.pack_weights();
        let inputs = random_batch(&model, batch, seed);
        assert_batch_matches_loop("VanillaCnn off-grid", &model, &packed, &inputs);
    }

    /// TransLob off the tile grid: model widths and head widths that are
    /// not lane multiples, channel counts that are not chain multiples,
    /// windows shorter than one lane block and between two.
    #[test]
    fn translob_off_grid_batch_matches_loop(
        (di, hi, ci, wi) in (0usize..3, 0usize..3, 0usize..3, 0usize..3),
        (batch, seed) in (0usize..=9, 0u64..500),
    ) {
        let d_model = [12, 20, 24][di];
        let heads = [2, 3, 4][hi];
        prop_assume!(d_model % heads == 0);
        let spec = TransLobSpec {
            window: [5, 13, 16][wi],
            conv_channels: [3, 5, 8][ci],
            d_model,
            heads,
            ..TransLobSpec::tiny()
        };
        let model = spec.build(seed);
        let packed = model.pack_weights();
        let inputs = random_batch(&model, batch, seed);
        assert_batch_matches_loop("TransLob off-grid", &model, &packed, &inputs);
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
        let packed = model.pack_weights();
        let inputs = random_batch(&model, batch, seed);
        assert_batch_matches_loop("DeepLob off-grid", &model, &packed, &inputs);
    }
}

/// An empty pack is the explicit looped-fallback marker.
#[test]
fn empty_pack_runs_looped_fallback() {
    let model = CnnSpec::tiny().build(11);
    let empty = PackedWeights::empty(model.kind());
    let inputs = random_batch(&model, 3, 11);
    assert_batch_matches_loop("VanillaCnn empty pack", &model, &empty, &inputs);
}

/// Results land in input order and `out` is cleared between calls.
#[test]
fn batch_output_order_and_reuse() {
    let model = CnnSpec::tiny().build(4);
    let packed = model.pack_weights();
    let inputs = random_batch(&model, 4, 9);
    let mut pad = ScratchPad::new();
    let mut out = vec![Prediction::new([1.0, 0.0, 0.0]); 7];
    model.forward_batch_scratch(&inputs, &packed, &mut pad, &mut out);
    assert_eq!(out.len(), 4);
    for (s, input) in inputs.iter().enumerate() {
        let single = model.forward_scratch(input, &mut pad);
        assert_eq!(
            out[s].probs.map(f32::to_bits),
            single.probs.map(f32::to_bits)
        );
    }
    // Reversing the inputs reverses the outputs.
    let rev: Vec<Tensor> = inputs.iter().rev().cloned().collect();
    let mut out_rev = Vec::new();
    model.forward_batch_scratch(&rev, &packed, &mut pad, &mut out_rev);
    for (a, b) in out.iter().zip(out_rev.iter().rev()) {
        assert_eq!(a.probs.map(f32::to_bits), b.probs.map(f32::to_bits));
    }
}

// ---- degenerate kernel shapes ---------------------------------------

/// The packed GEMM laid out as the unpacked one: `a` packed into the
/// tile's lanes, the rows of `b` broadcast, `[m, n]` output.
fn packed_gemm(a: &[f32], b: &[f32], bias: &[f32], m: usize, n: usize, k: usize, out: &mut [f32]) {
    let mut packed = Vec::new();
    pack_bt_panels(a, m, k, &mut packed);
    gemm_packed(
        [Segment::packed(&packed, k, b, k)],
        Some(bias),
        n,
        m,
        bf16_round,
        out,
        (1, n),
    );
}

/// k = 0: the GEMM reduces over nothing, so outputs are the
/// BF16-rounded biases — packed and unpacked agree.
#[test]
fn gemm_with_zero_k_emits_bias() {
    let (m, n) = (5, 3);
    let bias = [1.5f32, -2.0, 0.25, 7.0, 0.0];
    let mut packed = Vec::new();
    pack_bt_panels(&[], m, 0, &mut packed);
    assert!(packed.is_empty());
    let mut a_out = vec![f32::NAN; m * n];
    gemm_bt_bias_rows_bf16(&[], &[], &bias, m, n, 0, &mut a_out);
    let mut b_out = vec![f32::NAN; m * n];
    packed_gemm(&[], &[], &bias, m, n, 0, &mut b_out);
    assert_eq!(a_out, b_out);
    for i in 0..m {
        for j in 0..n {
            assert_eq!(a_out[i * n + j], bias[i]);
        }
    }
}

/// m = 0 and n = 0 are no-ops for both GEMM layouts, and a one-row
/// input (the old matvec) runs.
#[test]
fn gemm_with_zero_rows_or_cols_is_noop() {
    packed_gemm(&[], &[1.0, 2.0, 3.0, 4.0], &[], 0, 1, 4, &mut []);
    gemm_bt_bias_rows_bf16(&[], &[1.0, 2.0, 3.0, 4.0], &[], 0, 1, 4, &mut []);
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

/// Batched im2col at batch 0 and batch 1; batch 1 equals plain im2col.
#[test]
fn batched_im2col_degenerate_batches() {
    im2col_batch(&[], 0, 2, 3, 4, 2, 2, (1, 1), (0, 0), 2, 3, &mut []);
    let x: Vec<f32> = (0..2 * 3 * 4).map(|i| i as f32 * 0.5).collect();
    let (oh, ow) = (2, 3);
    let k = 2 * 2 * 2;
    let mut single = vec![0.0f32; oh * ow * k];
    lt_dnn::kernels::im2col(&x, 2, 3, 4, 2, 2, (1, 1), (0, 0), oh, ow, &mut single);
    let mut batched = vec![f32::NAN; oh * ow * k];
    im2col_batch(&x, 1, 2, 3, 4, 2, 2, (1, 1), (0, 0), oh, ow, &mut batched);
    assert_eq!(single, batched);
}

/// Packing then multiplying at boundary sizes (m = 4/5 inside one lane
/// block, n = 63/64/65 around the unpacked kernel's n cache block and
/// off the row block) matches the unpacked GEMM bit for bit — the
/// blocking seams introduce no reordering.
#[test]
fn packed_gemm_boundary_shapes_match_unpacked() {
    for m in [4usize, 5] {
        for n in [63usize, 64, 65, 128] {
            let k = 9;
            let a: Vec<f32> = (0..m * k).map(|i| ((i * 37 % 23) as f32) - 11.0).collect();
            let b: Vec<f32> = (0..n * k).map(|i| ((i * 13 % 31) as f32) * 0.25).collect();
            let bias: Vec<f32> = (0..m).map(|i| i as f32 - 1.0).collect();
            let mut reference = vec![0.0f32; m * n];
            gemm_bt_bias_rows_bf16(&a, &b, &bias, m, n, k, &mut reference);
            let mut fast = vec![0.0f32; m * n];
            packed_gemm(&a, &b, &bias, m, n, k, &mut fast);
            assert_eq!(reference, fast, "m={m} n={n}");
        }
    }
}
