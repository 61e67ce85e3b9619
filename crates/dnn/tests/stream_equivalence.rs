//! The streaming-forward contract: whatever sequence of sweeps
//! `ModelRegistry::forward_slides` is fed — `k` windows a call, each the
//! one before slid by a row; `forward` is `k = 1` — every answer is **bit
//! for bit** the model's `forward_reference` on that window alone (and the
//! stateless `forward_batch_scratch`'s, which at `k = 1` also pins the
//! sign and payload of a NaN answer — there the packed path and the oracle
//! already differ, and so do the packed path's own batch sizes: a NaN that
//! rode in a batch of four comes out with the other sign, from
//! `forward_batch` as from a sweep's batch-`k` tail, so for `k > 1` a NaN
//! answer need only be a NaN), and the tier's hit/miss counters say
//! exactly which windows reused the previous trunk — a window hits when,
//! and only when, it is the tier's previous one slid by one row.
//!
//! The generator knows which windows those are because it cuts every
//! sweep out of one endless row stream at an offset it chooses: with rows
//! that are all different, a sweep's first window slides by one exactly
//! when its offset is the tier's last offset plus one; with one constant
//! row, every window after a tier's first is a (legitimate) slide; and
//! the windows behind a sweep's first always are.

use lt_dnn::models::{CnnSpec, DeepLobSpec, TransLobSpec};
use lt_dnn::{ModelKind, ModelRegistry, Net, Prediction, StreamStats, Tensor, MAX_SWEEP};
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

/// Asserts `got` is `want` bit for bit — or, when `nan_is_nan`, NaN where
/// `want` is NaN.
fn assert_same(got: Prediction, want: Prediction, nan_is_nan: bool, what: &str) {
    for (g, w) in got.probs.into_iter().zip(want.probs) {
        assert!(
            g.to_bits() == w.to_bits() || (nan_is_nan && g.is_nan() && w.is_nan()),
            "{what}: {:?} vs {:?}",
            got.probs,
            want.probs
        );
    }
}

/// One tier under test: the model and its oracle.
struct Tier<'a> {
    model: &'a Net,
    reference: &'a dyn Fn(&Tensor) -> Prediction,
}

impl Tier<'_> {
    /// Asserts `got`, one of a sweep of `k`, is bit for bit what the model
    /// answers on `exact` alone: statelessly on the packed path, and by
    /// `forward_reference` (where a NaN need only be a NaN).
    fn assert_is_the_lone_answer(&self, got: Prediction, k: usize, exact: &Tensor, what: &str) {
        let mut alone = Vec::new();
        let inputs = std::slice::from_ref(exact);
        self.model
            .forward_batch_scratch(inputs, &mut self.model.arena(), &mut alone);
        assert_same(got, alone[0], k > 1, &format!("{what}: stateless forward"));
        let reference = (self.reference)(exact);
        assert_same(got, reference, true, &format!("{what}: forward_reference"));
    }
}

/// Gaps between consecutive offsets: the same window again, a slide (the
/// common case), a skipped row, and jumps of at least a whole window.
const GAPS: [usize; 8] = [0, 1, 1, 1, 1, 2, 24, 31];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Three tiers — two streamed, on tiny and off-tile-grid specs, and
    /// TransLOB, which never streams — interleaved over one row stream cut
    /// into sweeps of 1 to `MAX_SWEEP` windows, so the batch-`k` tail runs
    /// at every width a sweep can have. `lead` extra leading rows make every
    /// input wider than its tier's sweep (the CNN's and TransLOB's always
    /// are: the registry stages the DeepLOB's 24 rows), so windows reach
    /// the models through the registry's trailing-row slicing too. Beside
    /// the lone answers, a second registry served the same windows one
    /// `forward` at a time must give the same bits and count the same
    /// hits and misses.
    #[test]
    fn every_answer_is_the_reference_and_every_hit_is_a_slide(
        (cnn_c, cnn_h, dl_c, dl_h) in (0usize..4, 0usize..4, 0usize..3, 0usize..2),
        (seed, flavour, lead) in (0u64..500, 0usize..4, 0usize..3),
        walk in proptest::collection::vec((0usize..3, 0usize..GAPS.len(), 1..=MAX_SWEEP), 1..8),
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
        let translob = TransLobSpec::tiny().build(seed);
        let tiers = [
            Tier { model: &cnn, reference: &|x| cnn.forward_reference(x) },
            Tier {
                model: &translob,
                reference: &|x| translob.forward_reference(x),
            },
            Tier {
                model: &deeplob,
                reference: &|x| deeplob.forward_reference(x),
            },
        ];
        let registry = || {
            let mut reg = ModelRegistry::new();
            reg.register(cnn.clone());
            reg.register(translob.clone());
            reg.register(deeplob.clone());
            reg
        };
        let (mut reg, mut one_by_one) = (registry(), registry());
        let staged = reg.max_window() + lead;

        let mut last = [None::<usize>; 3];
        let mut want = [StreamStats::default(); 3];
        let mut got = Vec::new();
        let mut end = 64;
        for (t, gap, k) in walk {
            let (tier, kind) = (&tiers[t], ModelKind::ALL[t]);
            // The sweep's windows end just before rows `end..end + k`.
            end += GAPS[gap];
            let swept = window(rows, seed, end + k - 1, staged + k - 1);
            reg.forward_slides(kind, &swept, k, &mut got);
            prop_assert_eq!(got.len(), k);
            for (j, &answer) in got.iter().enumerate() {
                let what = format!("{kind:?} at row {}, {j} of {k}", end + j);
                let exact = window(rows, seed, end + j, tier.model.window());
                tier.assert_is_the_lone_answer(answer, k, &exact, &what);
                let single = one_by_one.forward(kind, &window(rows, seed, end + j, staged));
                assert_same(answer, single, k > 1, &format!("{what}: forward"));
            }
            let slid = match last[t] {
                None => false,
                Some(prev) => rows == Rows::Constant || prev + 1 == end,
            };
            if kind == ModelKind::TransLob {
                want[t].misses += k as u64;
            } else {
                want[t].hits += (k - 1) as u64 + u64::from(slid);
                want[t].misses += u64::from(!slid);
            }
            end += k - 1;
            last[t] = Some(end);
            prop_assert_eq!(reg.stream_stats(kind), want[t], "{:?}", kind);
            prop_assert_eq!(one_by_one.stream_stats(kind), want[t], "{:?} by forward", kind);
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
