//! Proves the zero-allocation claim: every forward runs in memory planned
//! when its net's [`Arena`] is made or its tier registered, so
//! `forward_batch_scratch` performs **zero** heap allocations for every
//! benchmark model from its first call on, for a lone query (batch 1) as
//! for a batch, and so does a freshly registered `ModelRegistry` on its
//! first forward of each tier — a hit or a miss, a sweep of any `k` up
//! to `MAX_SWEEP`, a batch of up to `MAX_SWEEP` — and on every later one,
//! whether a query streams (hit), runs its whole window (miss) or lands on
//! another tier.
//!
//! The proof uses a counting `#[global_allocator]` wrapping the system
//! allocator; the whole file is one `#[test]` so the allocator and its
//! thread-local counter are private to this integration-test binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use lt_dnn::models::{CnnSpec, DeepLobSpec, TransLobSpec};
use lt_dnn::{Arena, ModelKind, ModelRegistry, Net, Prediction, StreamStats, Tensor, MAX_SWEEP};

thread_local! {
    // `const` init so reading the counter never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

impl CountingAlloc {
    fn bump() {
        // `try_with` so allocations during TLS teardown don't panic.
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: delegates every operation to `System`; the counter is a
// thread-local side effect that itself never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::bump();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::bump();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCS.with(|c| c.get())
}

/// Once the weight panels are packed and the arena made, forwards
/// allocate nothing, the first included — staging, packed GEMM and every
/// layer's workspace live in the arena, predictions in an output vector
/// sized for the batch.
fn assert_steady_state_batch_alloc_free(name: &str, model: &Net, inputs: &[Tensor]) {
    let mut arena: Arena = model.arena();
    let mut out: Vec<Prediction> = Vec::with_capacity(inputs.len());
    let allocs_before = allocations();
    for _ in 0..4 {
        model.forward_batch_scratch(inputs, &mut arena, &mut out);
    }
    let allocs_after = allocations();
    assert_eq!(out.len(), inputs.len(), "{name}: prediction count");
    assert!(
        out.iter().all(|p| p.probs.iter().all(|v| v.is_finite())),
        "{name}: non-finite output"
    );
    assert_eq!(
        allocs_after - allocs_before,
        0,
        "{name}: forward_batch_scratch allocated"
    );
}

/// A batch-size walk: one arena serves every batch size, larger and
/// smaller in any order, from the first call on.
fn assert_batch_walk_alloc_free(name: &str, model: &Net, inputs: &[Tensor], small: usize) {
    let mut arena = model.arena();
    let mut out: Vec<Prediction> = Vec::with_capacity(inputs.len());
    let allocs_before = allocations();
    for batch in [small, inputs.len(), small, inputs.len()] {
        model.forward_batch_scratch(&inputs[..batch], &mut arena, &mut out);
        assert_eq!(out.len(), batch, "{name}: prediction count");
    }
    assert_eq!(
        allocations() - allocs_before,
        0,
        "{name}: batch walk allocated"
    );
}

/// The registry's streaming forward: every buffer is sized at `register`,
/// so a hit, a miss (a jump in the row stream, a repeated window) and a
/// tier switch all allocate nothing. Windows are cut from one row stream: offset + 1
/// is a slide.
fn assert_streamed_walk_alloc_free() {
    let mut reg = ModelRegistry::tiny(3);
    let rows = reg.max_window();
    let stream = Tensor::random(&[rows + 40, 40], 1.0, 8);
    let windows: Vec<Tensor> = (0..=40)
        .map(|o| Tensor::from_vec(stream.data()[o * 40..(o + rows) * 40].to_vec(), &[rows, 40]))
        .collect();
    use ModelKind::{DeepLob, TransLob, VanillaCnn};
    for kind in ModelKind::ALL {
        reg.forward(kind, &windows[0]);
        reg.forward(kind, &windows[1]);
    }
    let warm = ModelKind::ALL.map(|k| reg.stream_stats(k));
    let walk = [
        (DeepLob, 2),     // hit: a tier's stream is its own
        (DeepLob, 3),     // hit
        (DeepLob, 30),    // miss: a jump
        (DeepLob, 31),    // hit
        (DeepLob, 31),    // miss: the same window again
        (VanillaCnn, 32), // tier switch: its last window is stale, miss
        (VanillaCnn, 33), // hit
        (TransLob, 34),   // never streams
        (DeepLob, 32),    // back: hit, 31 + 1
        (DeepLob, 33),    // hit
    ];
    let allocs_before = allocations();
    for (kind, offset) in walk {
        let p = reg.forward(kind, &windows[offset]);
        assert!(p.probs.iter().all(|v| v.is_finite()));
    }
    assert_eq!(
        allocations() - allocs_before,
        0,
        "streamed registry walk allocated"
    );
    let moved = |kind: ModelKind, hits, misses| {
        let (now, was) = (reg.stream_stats(kind), warm[kind.index()]);
        assert_eq!(
            (now.hits - was.hits, now.misses - was.misses),
            (hits, misses),
            "{kind}"
        );
    };
    moved(DeepLob, 5, 2);
    moved(VanillaCnn, 1, 1);
    moved(TransLob, 0, 1);
    assert_eq!(warm[2], StreamStats { hits: 1, misses: 1 });
}

/// Sweeps of `k` windows through `forward_slides`: shorter sweeps after a
/// long one, a return to `k = 1`, a miss with a sweep streaming behind it
/// and a mid-sized sweep allocate nothing.
fn assert_swept_walk_alloc_free() {
    let mut reg = ModelRegistry::tiny(3);
    let rows = reg.max_window();
    let stream = Tensor::random(&[rows + 80, 40], 1.0, 9);
    // The sweep of `k` windows whose first ends just before row `end`.
    let swept = |end: usize, k: usize| {
        let data = stream.data()[(end - rows) * 40..(end + k - 1) * 40].to_vec();
        Tensor::from_vec(data, &[rows + k - 1, 40])
    };
    let walk = [
        (swept(30, 1), 1),   // hit
        (swept(31, 12), 12), // hits
        (swept(43, 1), 1),   // hit
        (swept(60, 6), 6),   // a jump: one miss, five slides behind it
        (swept(66, 6), 6),   // hits
    ];
    let mut out = Vec::with_capacity(12);
    for kind in ModelKind::ALL {
        reg.forward_slides(kind, &swept(28, 1), 1, &mut out);
        reg.forward_slides(kind, &swept(29, 1), 1, &mut out);
        reg.forward_slides(kind, &swept(30, 12), 12, &mut out);
        reg.forward_slides(kind, &swept(29, 1), 1, &mut out);
        let warm = reg.stream_stats(kind);
        let allocs_before = allocations();
        for (input, k) in &walk {
            reg.forward_slides(kind, input, *k, &mut out);
            assert_eq!(out.len(), *k, "{kind}");
            assert!(out.iter().all(|p| p.probs.iter().all(|v| v.is_finite())));
        }
        assert_eq!(
            allocations() - allocs_before,
            0,
            "{kind}: swept registry walk allocated"
        );
        let now = reg.stream_stats(kind);
        let moved = (now.hits - warm.hits, now.misses - warm.misses);
        let want = if kind == ModelKind::TransLob {
            (0, 26)
        } else {
            (25, 1)
        };
        assert_eq!(moved, want, "{kind}");
    }
}

/// A freshly registered registry, with no warm-up: its first call on each
/// tier allocates nothing — a `forward` that hits (the window registration
/// primed the stream with, all zeros, slid by one row) and one that
/// misses, a sweep of every `k` in `1..=MAX_SWEEP` whose first window hits
/// or misses, and a `forward_batch` of every size up to `MAX_SWEEP`.
fn assert_first_forwards_alloc_free() {
    let fresh = || ModelRegistry::tiny(3);
    let rows = fresh().max_window();
    let mut data = vec![0.0; rows * 40];
    data.extend_from_slice(Tensor::random(&[MAX_SWEEP + 40, 40], 1.0, 11).data());
    let stream = Tensor::from_vec(data, &[rows + MAX_SWEEP + 40, 40]);
    // The sweep of `k` windows whose first ends just before row `end`.
    let swept = |end: usize, k: usize| {
        let data = stream.data()[(end - rows) * 40..(end + k - 1) * 40].to_vec();
        Tensor::from_vec(data, &[rows + k - 1, 40])
    };
    let mut out = Vec::with_capacity(MAX_SWEEP);
    for kind in ModelKind::ALL {
        let streamed = kind != ModelKind::TransLob;
        for (end, slid) in [(rows + 1, true), (rows + 30, false)] {
            let mut reg = fresh();
            let input = swept(end, 1);
            let before = allocations();
            let p = reg.forward(kind, &input);
            assert_eq!(allocations() - before, 0, "{kind}: first forward");
            assert!(p.probs.iter().all(|v| v.is_finite()));
            let hit = u64::from(slid && streamed);
            let want = StreamStats {
                hits: hit,
                misses: 1 - hit,
            };
            assert_eq!(reg.stream_stats(kind), want, "{kind}: first forward");
            for k in 1..=MAX_SWEEP {
                let mut reg = fresh();
                let input = swept(end, k);
                let before = allocations();
                reg.forward_slides(kind, &input, k, &mut out);
                assert_eq!(allocations() - before, 0, "{kind}: first sweep of {k}");
                assert_eq!(out.len(), k, "{kind}");
                let misses = if streamed { u64::from(!slid) } else { k as u64 };
                let want = StreamStats {
                    hits: k as u64 - misses,
                    misses,
                };
                assert_eq!(reg.stream_stats(kind), want, "{kind}: first sweep of {k}");
            }
        }
        let window = fresh().model(kind).unwrap().window();
        let inputs: Vec<Tensor> = (0..MAX_SWEEP as u64)
            .map(|i| Tensor::random(&[window, 40], 1.0, 70 + i))
            .collect();
        for batch in 1..=MAX_SWEEP {
            let mut reg = fresh();
            let before = allocations();
            reg.forward_batch(kind, &inputs[..batch], &mut out);
            assert_eq!(allocations() - before, 0, "{kind}: first batch of {batch}");
            assert_eq!(out.len(), batch, "{kind}");
        }
    }
}

#[test]
fn steady_state_forward_is_allocation_free() {
    let vanilla = CnnSpec::tiny().build(3);
    let deeplob = DeepLobSpec::tiny().build(3);
    let translob = TransLobSpec::tiny().build(3);
    let x20 = Tensor::random(&[20, 40], 1.0, 5);
    let x24 = Tensor::random(&[24, 40], 1.0, 5);
    let x16 = Tensor::random(&[16, 40], 1.0, 5);
    let one = std::slice::from_ref;
    assert_steady_state_batch_alloc_free("VanillaCnn", &vanilla, one(&x20));
    assert_steady_state_batch_alloc_free("DeepLob", &deeplob, one(&x24));
    assert_steady_state_batch_alloc_free("TransLob", &translob, one(&x16));

    let batch = |rows: usize| -> Vec<Tensor> {
        (0..8)
            .map(|i| Tensor::random(&[rows, 40], 1.0, 60 + i))
            .collect()
    };
    assert_steady_state_batch_alloc_free("VanillaCnn batch", &vanilla, &batch(20));
    assert_steady_state_batch_alloc_free("DeepLob batch", &deeplob, &batch(24));
    // Batch 8 is the `multi_translob` round: convolutions, projection,
    // both batched transformer blocks (attention included) and the head.
    assert_steady_state_batch_alloc_free("TransLob batch", &translob, &batch(16));
    assert_batch_walk_alloc_free("TransLob 8 -> 3 -> 8", &translob, &batch(16), 3);
    assert_batch_walk_alloc_free("DeepLob 8 -> 3 -> 8", &deeplob, &batch(24), 3);
    assert_batch_walk_alloc_free("VanillaCnn 8 -> 3 -> 8", &vanilla, &batch(20), 3);
    assert_streamed_walk_alloc_free();
    assert_swept_walk_alloc_free();
    assert_first_forwards_alloc_free();
}
