//! Model-output goldens: the `to_bits` of each tiny model's answer on
//! fixed weights and windows.
//!
//! The equivalence suites compare the packed path with the
//! `forward_reference` oracle, so a change that moves both — a rounding
//! point, a nonlinearity — passes all of them. This suite is what fails
//! instead. Every answer's nonlinearities are `lt_dnn::math`'s, not the
//! host's libm, so these bits are the same on every IEEE-754 target.
//! Change a table only in a change that means to move answers, and record
//! the old and new benchmark digests beside it.
//!
//! Most answers survive a 1-ulp change in an exponential: the LSTM rounds
//! its state to BF16, and a softmax moves only when one of its `exp`s
//! does. So each window below was picked, from the first 400 salts, as one
//! whose answer moves by at least an ulp when `exp`/`tanh`/`sigmoid` are
//! glibc's `expf`/`tanhf` instead of `lt_dnn::math`'s.

use lt_dnn::{ModelKind, ModelRegistry, Prediction, Tensor};

const SEED: u64 = 29;
const FEATURES: usize = 40;

/// A `[rows, 40]` window of uniform features in `[-1, 1)`.
fn window(rows: usize, salt: u64) -> Tensor {
    Tensor::random(&[rows, FEATURES], 1.0, salt)
}

fn bits(p: &Prediction) -> [u32; 3] {
    p.probs.map(f32::to_bits)
}

/// Per model, the salt of its window (`max_window` rows) and its
/// `[up, stationary, down]` at batch 1.
const SINGLE: [(ModelKind, u64, [u32; 3]); 3] = [
    (
        ModelKind::VanillaCnn,
        94,
        [0x3eb4_c02d, 0x3ea1_48ac, 0x3ea9_f728],
    ),
    (
        ModelKind::TransLob,
        18,
        [0x3e9c_1742, 0x3eae_21c5, 0x3eb5_c6f8],
    ),
    (
        ModelKind::DeepLob,
        137,
        [0x3eaa_33dc, 0x3eaa_e110, 0x3eaa_eb14],
    ),
];

/// TransLOB's eight windows (its own window length) run as one batch.
const BATCH_SALTS: [u64; 8] = [14, 27, 51, 61, 75, 81, 86, 88];
const TRANSLOB_BATCH: [[u32; 3]; 8] = [
    [0x3e95_6adc, 0x3eb5_a538, 0x3eb4_efed],
    [0x3e9f_808c, 0x3eac_7682, 0x3eb4_08f3],
    [0x3e9d_8829, 0x3ea4_72c8, 0x3ebe_050d],
    [0x3e9a_1f76, 0x3ea1_84f8, 0x3ec4_5b90],
    [0x3ea2_f42e, 0x3eaa_c62e, 0x3eb2_45a4],
    [0x3ea2_1650, 0x3eab_32ba, 0x3eb2_b6f4],
    [0x3ea1_3916, 0x3eab_9ef8, 0x3eb3_27f2],
    [0x3ea6_0838, 0x3ead_5262, 0x3eac_a566],
];

fn batch_inputs(reg: &ModelRegistry) -> Vec<Tensor> {
    let rows = reg.model(ModelKind::TransLob).expect("registered").window();
    BATCH_SALTS.map(|salt| window(rows, salt)).to_vec()
}

#[test]
fn each_model_answers_its_pinned_bits() {
    let mut reg = ModelRegistry::tiny(SEED);
    let rows = reg.max_window();
    for (kind, salt, want) in SINGLE {
        let got = reg.forward(kind, &window(rows, salt));
        assert_eq!(bits(&got), want, "{kind}");
    }
}

#[test]
fn translob_batch_of_eight_answers_its_pinned_bits() {
    let mut reg = ModelRegistry::tiny_with_kinds(&[ModelKind::TransLob], SEED);
    let mut out = Vec::new();
    reg.forward_batch(ModelKind::TransLob, &batch_inputs(&reg), &mut out);
    let got: Vec<[u32; 3]> = out.iter().map(bits).collect();
    assert_eq!(got, TRANSLOB_BATCH);
}

/// One NaN feature, in the oldest or the newest row, makes every
/// probability of every model NaN — in a batch, of that lane only. A NaN
/// answer must never look like a confident one.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "`Prediction::new` debug-asserts that the probabilities sum to one"
)]
fn a_nan_feature_answers_nan() {
    let mut reg = ModelRegistry::tiny(SEED);
    let rows = reg.max_window();
    for (kind, salt, _) in SINGLE {
        let oldest = rows - reg.model(kind).expect("registered").window();
        for row in [oldest, rows - 1] {
            let mut input = window(rows, salt);
            input.set(&[row, 5], f32::NAN);
            let got = reg.forward(kind, &input);
            assert!(
                got.probs.iter().all(|p| p.is_nan()),
                "{kind}, row {row}: {got:?}"
            );
        }
    }
    let mut inputs = batch_inputs(&reg);
    let newest = inputs[3].shape()[0] - 1;
    inputs[3].set(&[newest, 5], f32::NAN);
    let mut out = Vec::new();
    reg.forward_batch(ModelKind::TransLob, &inputs, &mut out);
    for (lane, (got, want)) in out.iter().zip(TRANSLOB_BATCH).enumerate() {
        if lane == 3 {
            assert!(got.probs.iter().all(|p| p.is_nan()), "{got:?}");
        } else {
            assert_eq!(bits(got), want, "lane {lane}");
        }
    }
}
