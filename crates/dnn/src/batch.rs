//! Batched inference support: prepacked weight panels and the scoped
//! sample scatter behind `Model::forward_batch_scratch`.
//!
//! The accelerator keeps weights stationary and streams batched queries
//! past them (paper §III); the software path mirrors that with a
//! [`PackedWeights`] cache built once per model. Every operand that
//! supplies the lanes of the packed register tile — im2col convolution
//! kernels, dense and attention weights, the LSTM's `wx`/`wh` stacks —
//! is repacked into k-major panels
//! ([`crate::kernels::pack_bt_panels`]). Packing is a pure layout
//! permutation: the packed path preserves each output element's
//! accumulation order, so every sample of a batch is bit-identical to
//! the same sample served alone, and `==` to its `forward_reference`
//! (pinned by the `batch_equivalence` proptests).
//!
//! [`scatter_samples`] adds optional row-block thread parallelism for
//! large batches, reusing the back-test farm's scoped scatter-pool
//! pattern: contiguous sample chunks, scoped threads, disjoint output
//! slices. With one worker it degrades to an inline loop that spawns
//! nothing and allocates nothing — the steady-state configuration the
//! `zero_alloc` gate asserts.

use crate::kernels::pack_bt_panels;
use crate::model::ModelKind;

/// One GEMM operand repacked into register-tile panels.
#[derive(Debug, Clone)]
pub struct PackedPanels {
    data: Vec<f32>,
    m: usize,
    k: usize,
}

impl PackedPanels {
    /// Packs a row-major `[m, k]` operand (see
    /// [`crate::kernels::pack_bt_panels`] for the layout).
    pub fn pack(a: &[f32], m: usize, k: usize) -> Self {
        let mut data = Vec::new();
        pack_bt_panels(a, m, k, &mut data);
        PackedPanels { data, m, k }
    }

    /// The packed storage: `m` rounded up to whole panels, times `k`.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Row count of the packed operand.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Reduction width of the packed operand.
    pub fn k(&self) -> usize {
        self.k
    }
}

/// A model's full set of prepacked GEMM operands, plus the thread
/// budget its batched forwards may use.
///
/// Built once per model by `Model::pack_weights` and held in
/// `ModelRegistry` beside each tier's `ScratchPad`. The panel order is
/// model-private: each `forward_batch_scratch` indexes the panels it
/// pushed in `pack_weights`.
#[derive(Debug, Clone)]
pub struct PackedWeights {
    kind: ModelKind,
    panels: Vec<PackedPanels>,
    threads: usize,
}

impl PackedWeights {
    /// A pack for `kind` holding no panels yet, serial (`threads == 1`).
    pub fn new(kind: ModelKind) -> Self {
        PackedWeights {
            kind,
            panels: Vec::new(),
            threads: 1,
        }
    }

    /// Which model family the panels belong to.
    pub fn kind(&self) -> ModelKind {
        self.kind
    }

    /// Appends a packed operand, returning its index.
    pub fn push(&mut self, panels: PackedPanels) -> usize {
        self.panels.push(panels);
        self.panels.len() - 1
    }

    /// The packed operand at `idx`.
    ///
    /// # Panics
    ///
    /// Panics when the pack does not hold `idx` — a pack built for a
    /// different model.
    pub fn panel(&self, idx: usize) -> &PackedPanels {
        self.panels.get(idx).unwrap_or_else(|| {
            panic!(
                "packed weights for {} hold {} panels, layer {idx} requested",
                self.kind,
                self.panels.len()
            )
        })
    }

    /// Worker threads batched forwards may scatter samples across
    /// (1 = inline serial, the zero-alloc steady state).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Sets the worker-thread budget. Zero is clamped to "auto": the
    /// machine's available parallelism, as the farm's pool resolves it.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = if threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            threads
        };
    }

    /// Builder form of [`Self::set_threads`].
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.set_threads(threads);
        self
    }
}

/// Runs `f(sample, a_slice, b_slice)` for every sample, handing each
/// call its disjoint `a_stride` / `b_stride` windows of the two work
/// buffers (pass an empty `b` with stride 0 when one buffer suffices).
///
/// With `threads <= 1` (or a batch of one) this is an inline loop —
/// no spawn, no allocation. Otherwise samples are split into contiguous
/// chunks scattered across scoped threads, the farm-pool pattern;
/// chunks own disjoint sub-slices, so outputs land exactly where the
/// serial loop would put them and every per-element accumulation chain
/// is untouched — parallelism only re-times the work.
pub(crate) fn scatter_samples<F>(
    threads: usize,
    batch: usize,
    a: &mut [f32],
    a_stride: usize,
    b: &mut [f32],
    b_stride: usize,
    f: F,
) where
    F: Fn(usize, &mut [f32], &mut [f32]) + Sync,
{
    debug_assert!(a.len() >= batch * a_stride, "scatter `a` buffer too short");
    debug_assert!(b.len() >= batch * b_stride, "scatter `b` buffer too short");
    let workers = threads.max(1).min(batch.max(1));
    if workers <= 1 {
        for s in 0..batch {
            f(
                s,
                &mut a[s * a_stride..(s + 1) * a_stride],
                &mut b[s * b_stride..(s + 1) * b_stride],
            );
        }
        return;
    }
    let base = batch / workers;
    let extra = batch % workers;
    std::thread::scope(|scope| {
        let f = &f;
        let mut a_rest: &mut [f32] = a;
        let mut b_rest: &mut [f32] = b;
        let mut start = 0usize;
        for widx in 0..workers {
            let len = base + usize::from(widx < extra);
            if len == 0 {
                break;
            }
            let (a_chunk, ar) = a_rest.split_at_mut(len * a_stride);
            a_rest = ar;
            let (b_chunk, br) = b_rest.split_at_mut(len * b_stride);
            b_rest = br;
            let s0 = start;
            scope.spawn(move || {
                for i in 0..len {
                    f(
                        s0 + i,
                        &mut a_chunk[i * a_stride..(i + 1) * a_stride],
                        &mut b_chunk[i * b_stride..(i + 1) * b_stride],
                    );
                }
            });
            start += len;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packed_panels_record_shape() {
        let a: Vec<f32> = (0..6 * 5).map(|i| i as f32).collect();
        let p = PackedPanels::pack(&a, 6, 5);
        assert_eq!(p.m(), 6);
        assert_eq!(p.k(), 5);
        // One 8-lane panel, k-major; lanes 6 and 7 are zero padding.
        assert_eq!(p.data().len(), 8 * 5);
        for t in 0..5 {
            for l in 0..8 {
                let want = if l < 6 { a[l * 5 + t] } else { 0.0 };
                assert_eq!(p.data()[t * 8 + l], want, "t={t} lane={l}");
            }
        }
    }

    #[test]
    fn packed_weights_index_panels_in_push_order() {
        let mut pw = PackedWeights::new(ModelKind::DeepLob);
        assert_eq!(pw.threads(), 1);
        assert_eq!(pw.push(PackedPanels::pack(&[1.0, 2.0], 1, 2)), 0);
        assert_eq!(pw.push(PackedPanels::pack(&[1.0, 2.0, 3.0], 3, 1)), 1);
        assert_eq!(pw.panel(0).m(), 1);
        assert_eq!(pw.panel(1).m(), 3);
    }

    #[test]
    #[should_panic(expected = "panels")]
    fn missing_panel_panics_with_kind() {
        let pw = PackedWeights::new(ModelKind::TransLob);
        let _ = pw.panel(3);
    }

    #[test]
    fn auto_threads_resolve_to_at_least_one() {
        let pw = PackedWeights::new(ModelKind::VanillaCnn).with_threads(0);
        assert!(pw.threads() >= 1);
    }

    #[test]
    fn scatter_serial_and_parallel_fill_identical_slices() {
        let batch = 7usize;
        let (sa, sb) = (3usize, 2usize);
        let run = |threads: usize| {
            let mut a = vec![0.0f32; batch * sa];
            let mut b = vec![0.0f32; batch * sb];
            scatter_samples(threads, batch, &mut a, sa, &mut b, sb, |s, aw, bw| {
                for (i, v) in aw.iter_mut().enumerate() {
                    *v = (s * 10 + i) as f32;
                }
                for (i, v) in bw.iter_mut().enumerate() {
                    *v = -((s * 10 + i) as f32);
                }
            });
            (a, b)
        };
        let serial = run(1);
        for threads in [2, 3, 8, 16] {
            assert_eq!(run(threads), serial, "threads={threads}");
        }
    }

    #[test]
    fn scatter_handles_empty_batch_and_empty_second_buffer() {
        scatter_samples(4, 0, &mut [], 3, &mut [], 0, |_, _, _| {
            panic!("no samples to visit")
        });
        let mut a = vec![0.0f32; 4];
        scatter_samples(2, 4, &mut a, 1, &mut [], 0, |s, aw, bw| {
            assert!(bw.is_empty());
            aw[0] = s as f32;
        });
        assert_eq!(a, vec![0.0, 1.0, 2.0, 3.0]);
    }
}
