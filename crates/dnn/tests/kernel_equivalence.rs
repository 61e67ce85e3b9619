//! Bit-exactness property tests: every packed (register-tiled, batched)
//! op and model forward must produce output `==` to its naive
//! `forward_reference` counterpart, across randomized shapes, strides,
//! and paddings. This is the only link between the production path and
//! the oracle.
//!
//! Equality is asserted with `Tensor`'s derived `PartialEq` (elementwise
//! f32 `==`), so even a one-ulp accumulation-order difference fails.
//! Every property runs at batch 1 (the lone query: row tails only) and
//! batch 3, and runs each padded path twice in the same workspace, so
//! a workspace that still holds the last call's values (every call after
//! the first) is covered too.

use lt_dnn::kernels::Store;
use lt_dnn::models::{CnnSpec, DeepLobSpec, TransLobSpec};
use lt_dnn::ops::{leaky_relu, relu, Conv2d, LayerNorm, Linear, Lstm, MultiHeadAttention};
use lt_dnn::{Net, Prediction, Tensor};
use proptest::prelude::*;

const BATCHES: [usize; 2] = [1, 3];

/// DeepLOB's leaky-ReLU slope.
const LEAK: f32 = 0.01;

/// The stores a packed layer can make of its BF16-rounded sums.
const STORES: [Store; 3] = [Store::Bf16, Store::Relu, Store::LeakyRelu(LEAK)];

/// `forward_reference`'s output through the activation `post` folds into
/// the packed layer's store.
fn activated(post: Store, mut y: Tensor) -> Tensor {
    match post {
        Store::Relu => relu(&mut y),
        Store::LeakyRelu(alpha) => leaky_relu(&mut y, alpha),
        Store::Bf16 | Store::Exact => {}
    }
    y
}

/// `batch` random `[in_c, h, w]` samples with every fifth element `-0.0`:
/// a zero whose sign `==` ignores and the stores must keep.
fn signed_inputs(shape: &[usize], batch: usize, seed: u64) -> Vec<Tensor> {
    let mut xs = random_inputs(shape, 1.0, batch, seed);
    for x in &mut xs {
        for v in x.data_mut().iter_mut().step_by(5) {
            *v = -0.0;
        }
    }
    xs
}

/// `batch` random tensors of `shape`, seeded `seed + 1, seed + 2, ...`.
fn random_inputs(shape: &[usize], scale: f32, batch: usize, seed: u64) -> Vec<Tensor> {
    (1..=batch as u64)
        .map(|i| Tensor::random(shape, scale, seed.wrapping_add(i)))
        .collect()
}

/// The samples concatenated into the packed path's flat sample-major
/// buffer.
fn stack(xs: &[Tensor]) -> Vec<f32> {
    xs.iter().flat_map(|x| x.data().iter().copied()).collect()
}

/// A flat sample-major output cut back into one `shape` tensor per
/// sample.
fn unstack(flat: &[f32], shape: &[usize]) -> Vec<Tensor> {
    flat.chunks_exact(shape.iter().product())
        .map(|sample| Tensor::from_vec(sample.to_vec(), shape))
        .collect()
}

/// Full model: the packed trait path at batch 1 and 3 == the naive
/// composition, sample by sample.
fn assert_model_matches_reference(
    model: &Net,
    reference: impl Fn(&Tensor) -> Prediction,
    seed: u64,
) {
    let mut arena = model.arena();
    let mut out = Vec::new();
    for batch in BATCHES {
        let xs = random_inputs(&[model.window(), model.features()], 1.0, batch, seed);
        let want: Vec<[f32; 3]> = xs.iter().map(|x| reference(x).probs).collect();
        for _ in 0..2 {
            model.forward_batch_scratch(&xs, &mut arena, &mut out);
            let got: Vec<[f32; 3]> = out.iter().map(|p| p.probs).collect();
            assert_eq!(got, want, "batch {batch}");
        }
    }
}

/// An unpadded convolution over samples exactly one kernel in size: the
/// packed path's `[batch, out_c]` output, stored through `post`, is
/// `forward_reference`'s and then the activation's bit for bit, at batch 1
/// and 3, in a fresh and a used stage.
fn assert_kernel_sized_matches_reference(conv: &Conv2d, post: Store, seed: u64) {
    let (in_c, out_c, (h, w)) = (conv.in_channels(), conv.out_channels(), conv.kernel_hw());
    assert_eq!(conv.output_hw(h, w), (1, 1));
    let mut stage = vec![0.0; conv.stage_len()];
    let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
    for batch in BATCHES {
        let xs = signed_inputs(&[in_c, h, w], batch, seed);
        let want: Vec<u32> = xs
            .iter()
            .flat_map(|x| bits(activated(post, conv.forward_reference(x)).data()))
            .collect();
        let mut out = vec![f32::NAN; batch * out_c];
        for _ in 0..2 {
            let flat = stack(&xs);
            conv.forward_batch_packed(&flat, batch, h, w, &mut stage, post, &mut out);
            assert_eq!(bits(&out), want, "batch {batch}");
        }
    }
}

/// The packed convolution over `[in_c, h, w]` samples, stored through
/// `post`, bit for bit `forward_reference` and then the activation, at
/// batch 1 and 3, twice in one stage (the second pass in what the first
/// left).
fn assert_conv_matches_reference(conv: &Conv2d, h: usize, w: usize, post: Store, seed: u64) {
    let (in_c, out_c) = (conv.in_channels(), conv.out_channels());
    let (oh, ow) = conv.output_hw(h, w);
    let mut stage = vec![0.0; conv.stage_len()];
    let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
    for batch in BATCHES {
        let xs = signed_inputs(&[in_c, h, w], batch, seed);
        let want: Vec<u32> = xs
            .iter()
            .flat_map(|x| bits(activated(post, conv.forward_reference(x)).data()))
            .collect();
        let flat = stack(&xs);
        let mut out = vec![f32::NAN; batch * out_c * oh * ow];
        for _ in 0..2 {
            conv.forward_batch_packed(&flat, batch, h, w, &mut stage, post, &mut out);
            assert_eq!(bits(&out), want, "batch {batch} {post:?}");
        }
    }
}

proptest! {
    /// Conv2d: direct register-tile convolution == naive sliding window,
    /// across channel counts, kernel sizes, horizontal strides and
    /// vertical paddings (including padding > 0, which exercises the
    /// staged zero lanes). Every
    /// case also runs a sample exactly one kernel in size — a streamed
    /// row's line buffer, which is its own patch row — bit for bit; a
    /// width-1 map of 1 to 135 positions through the direct convolution's
    /// shifted words: maps of more than one lane block run, on an AVX-512
    /// CPU, its wide instance, over every tail length of its `2 * NR`
    /// positions; a fold (a kernel 2 to 10 wide at horizontal stride 1 to
    /// 3, DeepLOB's level folds among them) through its gathered words,
    /// over 1 to 40 output positions: every tail at both widths; and a
    /// kernel as wide as a one-channel input (the CNN's first layer),
    /// whose GEMM reads 1 to 41 overlapping patch rows in place.
    #[test]
    fn conv_fast_matches_reference(
        (in_c, out_c, kh, kw) in (1usize..=3, 1usize..=4, 1usize..=3, 1usize..=3),
        (extra_h, extra_w, sw) in (0usize..=4, 0usize..=4, 1usize..=2),
        (ph, seed, post) in (0usize..=2, 0u64..1000, 0usize..STORES.len()),
        (one_in_c, one_out_c, one_kh, one_kw) in (1usize..=8, 1usize..=33, 1usize..=4, 1usize..=40),
        (kw1_in_c, kw1_out_c, kw1_kh, (kw1_extra_h, kw1_w)) in
            (1usize..=6, 1usize..=9, 1usize..=5, (0usize..=40, 1usize..=3)),
        (fold_in_c, fold_out_c, fold_kw, fold_sw) in
            (1usize..=5, 1usize..=9, 2usize..=10, 1usize..=3),
        (fold_kh, fold_positions, fold_ow_cap, fold_extra_w) in
            (1usize..=3, 1usize..=40, 1usize..=12, 0usize..=2),
    ) {
        let post = STORES[post];
        let one = Conv2d::new(one_in_c, one_out_c, (one_kh, one_kw), (1, sw), (0, 0), seed);
        assert_kernel_sized_matches_reference(&one, post, seed);
        let conv = Conv2d::new(in_c, out_c, (kh, kw), (1, sw), (ph, 0), seed);
        assert_conv_matches_reference(&conv, kh + extra_h, kw + extra_w, post, seed);
        let kw1 = Conv2d::new(kw1_in_c, kw1_out_c, (kw1_kh, 1), (1, 1), (ph, 0), seed);
        assert_conv_matches_reference(&kw1, kw1_kh + kw1_extra_h, kw1_w, post, seed);
        // `oh * ow` is exactly `fold_positions`: `ow` its largest divisor
        // up to the cap. `ph` shrinks where the input would have no row.
        let ow = (1..=fold_ow_cap).rev().find(|d| fold_positions % d == 0).unwrap_or(1);
        let oh = fold_positions / ow;
        let fold_ph = ph.min((oh + fold_kh - 2) / 2);
        let h = oh + fold_kh - 1 - 2 * fold_ph;
        let w = (ow - 1) * fold_sw + fold_kw + fold_extra_w % fold_sw;
        let fold = Conv2d::new(
            fold_in_c,
            fold_out_c,
            (fold_kh, fold_kw),
            (1, fold_sw),
            (fold_ph, 0),
            seed,
        );
        assert_eq!(fold.output_hw(h, w), (oh, ow));
        assert_conv_matches_reference(&fold, h, w, post, seed);
        let full = Conv2d::new(1, fold_out_c, (fold_kh, fold_kw), (1, fold_sw), (0, 0), seed);
        assert_conv_matches_reference(&full, fold_kh + kw1_extra_h, fold_kw, post, seed);
    }

    /// Linear: packed register tile == naive loop, rank-1 and rank-2.
    #[test]
    fn linear_fast_matches_reference(
        (input, output, rows, seed) in (1usize..=33, 1usize..=17, 1usize..=5, 0u64..1000),
    ) {
        let layer = Linear::new(input, output, seed);
        for batch in BATCHES {
            let x1 = random_inputs(&[input], 1.0, batch, seed);
            let r1: Vec<Tensor> = x1.iter().map(|x| layer.forward_reference(x)).collect();
            let mut out = vec![f32::NAN; batch * output];
            layer.forward_batch_packed(&stack(&x1), batch, Store::Bf16, &mut out);
            prop_assert_eq!(&unstack(&out, &[output]), &r1);
            let x2 = random_inputs(&[rows, input], 1.0, batch, seed.wrapping_add(1));
            let r2: Vec<Tensor> = x2.iter().map(|x| layer.forward_reference(x)).collect();
            let mut out = vec![f32::NAN; batch * rows * output];
            layer.forward_batch_packed(&stack(&x2), batch * rows, Store::Bf16, &mut out);
            prop_assert_eq!(&unstack(&out, &[rows, output]), &r2);
        }
    }

    /// LSTM: the packed fused-gate sweep == naive per-gate loops across
    /// the whole recurrence. The packed op returns the last hidden state
    /// only, so every prefix of the sequence is run: the recurrence is
    /// causal, and prefix `p`'s last state is the reference's row `p - 1`.
    #[test]
    fn lstm_fast_matches_reference(
        (input, hidden, steps, seed) in (1usize..=9, 1usize..=20, 1usize..=6, 0u64..1000),
    ) {
        let lstm = Lstm::new(input, hidden, seed);
        let mut work = vec![0.0; BATCHES[1] * lstm.workspace(steps)];
        for batch in BATCHES {
            let xs = random_inputs(&[steps, input], 1.0, batch, seed);
            let reference: Vec<Tensor> = xs.iter().map(|x| lstm.forward_reference(x)).collect();
            for p in 1..=steps {
                let prefix: Vec<f32> = xs
                    .iter()
                    .flat_map(|x| x.data()[..p * input].iter().copied())
                    .collect();
                let mut out = vec![f32::NAN; batch * hidden];
                for _ in 0..2 {
                    lstm.last_hidden_batch_packed(&prefix, batch, p, &mut work, &mut out);
                    for (got, want) in out.chunks_exact(hidden).zip(&reference) {
                        prop_assert_eq!(got, want.row(p - 1));
                    }
                }
            }
        }
    }

    /// Attention: the fused pass per (head, block of query rows) ==
    /// naive `at`-indexed loops, over sequences shorter than one query
    /// panel, one or two full blocks at either width and every tail, and
    /// head widths across a value column block.
    #[test]
    fn attention_fast_matches_reference(
        (heads, d_head, t, seed) in (1usize..=4, 1usize..=10, 1usize..=41, 0u64..1000),
    ) {
        let d_model = heads * d_head;
        let mha = MultiHeadAttention::new(d_model, heads, seed);
        let (per, fixed) = mha.workspace(t);
        let mut work = vec![0.0; BATCHES[1] * per + fixed];
        for batch in BATCHES {
            let xs = random_inputs(&[t, d_model], 1.0, batch, seed);
            let reference: Vec<Tensor> = xs.iter().map(|x| mha.forward_reference(x)).collect();
            let flat = stack(&xs);
            let mut out = vec![f32::NAN; batch * t * d_model];
            for _ in 0..2 {
                mha.forward_batch_packed(&flat, batch, t, &mut work, &mut out);
                prop_assert_eq!(&unstack(&out, &[t, d_model]), &reference);
            }
        }
    }

    /// LayerNorm: slice-written rows == `set`-written rows.
    #[test]
    fn layernorm_fast_matches_reference(
        (t, d, seed) in (1usize..=6, 1usize..=16, 0u64..1000),
    ) {
        let ln = LayerNorm::new(d);
        for batch in BATCHES {
            let xs = random_inputs(&[t, d], 2.0, batch, seed);
            let reference: Vec<Tensor> = xs.iter().map(|x| ln.forward_reference(x)).collect();
            let mut out = vec![f32::NAN; batch * t * d];
            ln.forward_rows(&stack(&xs), &mut out);
            prop_assert_eq!(&unstack(&out, &[t, d]), &reference);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Full VanillaCnn forward: packed trait path == naive composition.
    #[test]
    fn vanilla_cnn_forward_matches_reference(seed in 0u64..100) {
        let model = CnnSpec::tiny().build(seed);
        assert_model_matches_reference(&model, |x| model.forward_reference(x), seed);
    }

    /// Full DeepLob forward (conv trunk + inception + LSTM + head).
    #[test]
    fn deeplob_forward_matches_reference(seed in 0u64..100) {
        let model = DeepLobSpec::tiny().build(seed);
        assert_model_matches_reference(&model, |x| model.forward_reference(x), seed);
    }

    /// Full TransLob forward (conv stack + transformer blocks + head).
    #[test]
    fn translob_forward_matches_reference(seed in 0u64..100) {
        let model = TransLobSpec::tiny().build(seed);
        assert_model_matches_reference(&model, |x| model.forward_reference(x), seed);
    }
}
