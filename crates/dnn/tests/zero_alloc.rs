//! Proves the zero-allocation claim: after a warm-up pass populates the
//! [`ScratchPad`]'s free lists, steady-state `forward_batch_scratch`
//! performs **zero** heap allocations for every benchmark model, for a
//! lone query (batch 1) as for a batch, and so does
//! `ModelRegistry::forward` whether a query streams (hit), runs its whole
//! window (miss) or lands on another tier, and `forward_slides` at any
//! sweep length once the longest has been seen.
//!
//! The proof uses a counting `#[global_allocator]` wrapping the system
//! allocator; the whole file is one `#[test]` so the allocator and its
//! thread-local counter are private to this integration-test binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use lt_dnn::models::{CnnSpec, DeepLobSpec, TransLobSpec};
use lt_dnn::{ModelKind, ModelRegistry, Net, Prediction, ScratchPad, StreamStats, Tensor};

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

/// Once the weight panels are packed and a warm-up batch has sized the
/// pad's buffers and the output vector, forwards at the same batch size
/// allocate nothing — staging, unfold, packed GEMM and prediction output
/// all live in recycled storage.
fn assert_steady_state_batch_alloc_free(name: &str, model: &Net, inputs: &[Tensor]) {
    let packed = model.pack_weights();
    let mut pad = ScratchPad::new();
    let mut out: Vec<Prediction> = Vec::new();
    for _ in 0..3 {
        model.forward_batch_scratch(inputs, &packed, &mut pad, &mut out);
    }
    let misses_before = pad.misses();
    let allocs_before = allocations();
    model.forward_batch_scratch(inputs, &packed, &mut pad, &mut out);
    let allocs_after = allocations();
    let misses_after = pad.misses();
    assert_eq!(out.len(), inputs.len(), "{name}: prediction count");
    assert!(
        out.iter().all(|p| p.probs.iter().all(|v| v.is_finite())),
        "{name}: non-finite output"
    );
    assert_eq!(
        allocs_after - allocs_before,
        0,
        "{name}: steady-state forward_batch_scratch allocated"
    );
    assert_eq!(
        misses_after, misses_before,
        "{name}: scratch pad missed in steady state"
    );
}

/// A batch-size walk: once the largest batch has sized the pad and the
/// output vector, smaller batches and a return to the largest allocate
/// nothing — best-fit hands every smaller request one of the larger
/// batch's buffers.
fn assert_batch_walk_alloc_free(name: &str, model: &Net, inputs: &[Tensor], small: usize) {
    let packed = model.pack_weights();
    let mut pad = ScratchPad::new();
    let mut out: Vec<Prediction> = Vec::new();
    for _ in 0..3 {
        model.forward_batch_scratch(inputs, &packed, &mut pad, &mut out);
    }
    let misses_before = pad.misses();
    let allocs_before = allocations();
    for batch in [small, inputs.len(), small, inputs.len()] {
        model.forward_batch_scratch(&inputs[..batch], &packed, &mut pad, &mut out);
        assert_eq!(out.len(), batch, "{name}: prediction count");
    }
    assert_eq!(
        allocations() - allocs_before,
        0,
        "{name}: batch walk allocated after the largest batch was seen"
    );
    assert_eq!(
        pad.misses(),
        misses_before,
        "{name}: scratch pad missed during the batch walk"
    );
}

/// The registry's streaming forward: every stream buffer is sized at
/// `register` and every pad buffer by the tiers' first queries, so a hit,
/// a miss (a jump in the row stream, a repeated window) and a tier switch
/// all allocate nothing. Windows are cut from one row stream: offset + 1
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

/// Sweeps of `k` windows through `forward_slides`: one pass at the
/// largest `k` sizes every buffer a sweep sizes by `k` (the per-layer maps,
/// the gathered trunk outputs, the batch-`k` tail, an unstreamed tier's
/// lanes), after which shorter sweeps, a return to `k = 1`, a miss with a
/// sweep streaming behind it and a mid-sized sweep allocate nothing.
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
}
