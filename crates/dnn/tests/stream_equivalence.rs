//! The streaming-forward contract: whatever sequence of windows
//! `ModelRegistry::forward` is fed, every answer is **bit for bit** the
//! model's `forward_reference` on that window alone (and the stateless
//! `forward_batch_scratch`'s, which also pins the sign and payload of a
//! NaN answer — there the packed path and the oracle already differ), and
//! the tier's hit/miss counters say exactly which calls reused the
//! previous trunk — a call hits when, and only when, its window is the
//! tier's previous one slid by one row.
//!
//! The generator knows which calls those are because it cuts every window
//! out of one endless row stream at an offset it chooses: with rows that
//! are all different, a window slides by one exactly when its offset is
//! the tier's last offset plus one; with one constant row, every window
//! after a tier's first is a (legitimate) slide.

use lt_dnn::models::{CnnSpec, DeepLobSpec};
use lt_dnn::{Model, ModelKind, ModelRegistry, Prediction, ScratchPad, StreamStats, Tensor};
use proptest::prelude::*;

const FEATURES: usize = 40;
/// NaN rows run only in release: `Prediction::new` debug-asserts that the
/// probabilities sum to one, which a NaN answer does not.
const NAN_ROWS: bool = !cfg!(debug_assertions);

/// What the endless row stream is made of.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Rows {
    /// Every row different.
    Random,
    /// One row, repeated: any two windows are each other's slide.
    Constant,
    /// Every row different, salted with `-0.0` and (in release) NaN —
    /// values `==` gets wrong in either direction.
    Signed,
}

/// Row `i` of the stream.
fn row(rows: Rows, seed: u64, i: usize) -> Vec<f32> {
    let i = if rows == Rows::Constant { 0 } else { i };
    let salt = seed.wrapping_mul(100_003).wrapping_add(i as u64);
    let mut row = Tensor::random(&[FEATURES], 1.0, salt).data().to_vec();
    if rows == Rows::Signed {
        row[i * 7 % FEATURES] = -0.0;
        if NAN_ROWS && i % 41 == 0 {
            row[i * 3 % FEATURES] = f32::NAN;
        }
    }
    row
}

/// The `len` rows ending just before row `end`, as a `[len, 40]` tensor.
fn window(rows: Rows, seed: u64, end: usize, len: usize) -> Tensor {
    let data = (end - len..end).flat_map(|i| row(rows, seed, i)).collect();
    Tensor::from_vec(data, &[len, FEATURES])
}

fn bits(p: Prediction) -> [u32; 3] {
    p.probs.map(f32::to_bits)
}

/// Asserts `got` is bit for bit what `model` answers on `exact` alone:
/// statelessly on the packed path, and by `reference` (where a NaN need
/// only be a NaN).
fn assert_is_the_lone_answer(
    got: Prediction,
    model: &dyn Model,
    reference: Prediction,
    exact: &Tensor,
    what: &str,
) {
    let mut alone = Vec::new();
    let packed = model.pack_weights();
    let inputs = std::slice::from_ref(exact);
    model.forward_batch_scratch(inputs, &packed, &mut ScratchPad::new(), &mut alone);
    assert_eq!(bits(got), bits(alone[0]), "{what}: stateless forward");
    for (g, r) in got.probs.into_iter().zip(reference.probs) {
        assert!(
            g.to_bits() == r.to_bits() || (g.is_nan() && r.is_nan()),
            "{what}: {:?} vs forward_reference {:?}",
            got.probs,
            reference.probs
        );
    }
}

/// Gaps between consecutive offsets: the same window again, a slide (the
/// common case), a skipped row, and jumps of at least a whole window.
const GAPS: [usize; 8] = [0, 1, 1, 1, 1, 2, 24, 31];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Two streamed tiers interleaved over one row stream, on tiny and
    /// off-tile-grid specs. `lead` extra leading rows make every input
    /// wider than its tier's window (the CNN's always is: the registry
    /// stages the DeepLOB's 24 rows), so windows reach the models through
    /// the registry's trailing-window staging too.
    #[test]
    fn every_answer_is_the_reference_and_every_hit_is_a_slide(
        (cnn_c, cnn_h, dl_c, dl_h) in (0usize..4, 0usize..4, 0usize..3, 0usize..2),
        (seed, flavour, lead) in (0u64..500, 0usize..4, 0usize..3),
        walk in proptest::collection::vec((0usize..2, 0usize..GAPS.len()), 1..16),
    ) {
        let rows = [Rows::Random, Rows::Random, Rows::Constant, Rows::Signed][flavour];
        let cnn = CnnSpec {
            channels: [8, 3, 5, 7][cnn_c],
            hidden: [16, 5, 9, 13][cnn_h],
            ..CnnSpec::tiny()
        }
        .build(seed);
        let deeplob = DeepLobSpec {
            channels: [4, 3, 5][dl_c],
            lstm_hidden: [8, 5][dl_h],
            ..DeepLobSpec::tiny()
        }
        .build(seed);
        let mut reg = ModelRegistry::new();
        reg.register(Box::new(cnn.clone()));
        reg.register(Box::new(deeplob.clone()));
        let staged = reg.max_window() + lead;

        let kinds = [ModelKind::VanillaCnn, ModelKind::DeepLob];
        let mut last = [None::<usize>; 2];
        let mut want = [StreamStats::default(); 2];
        let mut end = 64;
        for (tier, gap) in walk {
            end += GAPS[gap];
            let got = reg.forward(kinds[tier], &window(rows, seed, end, staged));
            let what = format!("{:?} at row {end}", kinds[tier]);
            if tier == 0 {
                let exact = window(rows, seed, end, cnn.window());
                assert_is_the_lone_answer(got, &cnn, cnn.forward_reference(&exact), &exact, &what);
            } else {
                let exact = window(rows, seed, end, deeplob.window());
                let reference = deeplob.forward_reference(&exact);
                assert_is_the_lone_answer(got, &deeplob, reference, &exact, &what);
            }
            let slid = match last[tier] {
                None => false,
                Some(prev) => rows == Rows::Constant || prev + 1 == end,
            };
            if slid {
                want[tier].hits += 1;
            } else {
                want[tier].misses += 1;
            }
            last[tier] = Some(end);
            prop_assert_eq!(reg.stream_stats(kinds[tier]), want[tier], "{:?}", kinds[tier]);
        }
    }
}

/// A window that is the previous one slid by a row except for the sign of
/// one zero in the overlap is *not* a slide: `==` would call it one.
#[test]
fn a_zero_of_the_other_sign_in_the_overlap_is_a_miss() {
    for kind in [ModelKind::VanillaCnn, ModelKind::DeepLob] {
        let mut reg = ModelRegistry::tiny_with_kinds(&[kind], 9);
        let mut fresh = ModelRegistry::tiny_with_kinds(&[kind], 9);
        let t = reg.max_window();
        let mut first = window(Rows::Random, 3, 64, t);
        first.set(&[5, 3], 0.0);
        let mut second = window(Rows::Random, 3, 65, t);
        second.set(&[4, 3], -0.0);
        reg.forward(kind, &first);
        let got = reg.forward(kind, &second);
        assert_eq!(
            reg.stream_stats(kind),
            StreamStats { hits: 0, misses: 2 },
            "{kind}"
        );
        assert_eq!(bits(got), bits(fresh.forward(kind, &second)), "{kind}");
        // With the zero's sign restored the same pair is a slide.
        second.set(&[4, 3], 0.0);
        reg.forward(kind, &first);
        reg.forward(kind, &second);
        assert_eq!(reg.stream_stats(kind).hits, 1, "{kind}");
    }
}

/// A tier with no streaming trunk counts every forward as a miss, and a
/// tier's counters do not move when another tier serves.
#[test]
fn unstreamed_tiers_only_miss() {
    let mut reg = ModelRegistry::tiny(4);
    let staged = reg.max_window();
    for end in 64..70 {
        reg.forward(ModelKind::TransLob, &window(Rows::Random, 1, end, staged));
    }
    assert_eq!(
        reg.stream_stats(ModelKind::TransLob),
        StreamStats { hits: 0, misses: 6 }
    );
    assert_eq!(reg.stream_stats(ModelKind::DeepLob), StreamStats::default());
}
