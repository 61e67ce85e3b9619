//! Multi-model registry: one pipeline holding every tier's weights.
//!
//! Deadline-aware tier scheduling (see `lt-sched`'s `tier` module) needs
//! all three benchmark networks resident at once so a query can be
//! served at whichever tier fits its remaining budget. [`ModelRegistry`]
//! owns one instantiated model per registered [`ModelKind`] (its weights
//! already packed, each op holding its own panels) together with every
//! buffer its forwards use, made once in
//! [`ModelRegistry::register`] from the net's lowering: its [`Arena`] and
//! its line buffers, each sized for [`MAX_SWEEP`] windows. No query
//! touches the allocator, the first included, and switching tiers
//! between queries touches nothing shared.
//!
//! The tiers have different input windows (e.g. tiny CNN sees 20 ticks,
//! tiny DeepLOB 24); the feature pipeline stages the *largest* window
//! ([`ModelRegistry::max_window`]) and [`ModelRegistry::forward_slides`]
//! slices the trailing rows each smaller tier needs.

use crate::model::{ModelKind, Prediction};
use crate::models::build_tiny;
use crate::net::{Arena, Net};
use crate::stream::{slid_by_one, LineBuffer, StreamStats, MAX_SWEEP};
use crate::tensor::Tensor;

struct Entry {
    model: Net,
    /// The memory every forward of the tier runs in (`Net::arena`).
    arena: Arena,
    /// The `[window, features]` window a streamed tier served last: what
    /// `stream` was last advanced to.
    input: Tensor,
    /// The net's streaming state (`Net::stream_lines`), consistent
    /// with `input` from registration on; empty for a tier that is not
    /// streamed.
    stream: Vec<LineBuffer>,
    stats: StreamStats,
}

impl Entry {
    fn new(model: Net) -> Self {
        let input = Tensor::zeros(&[model.window(), model.features()]);
        let mut entry = Entry {
            stream: model.stream_lines(),
            arena: model.arena(),
            model,
            input,
            stats: StreamStats::default(),
        };
        // Fill the stream from the all-zero window `input` holds, so the
        // two agree before the first query as after every later one.
        if !entry.stream.is_empty() {
            entry.model.forward_stream(
                Some(&entry.input),
                &[],
                &mut entry.stream,
                &mut entry.arena,
                &mut Vec::new(),
            );
        }
        entry
    }
}

/// One instantiated network + scratch state per registered tier.
pub struct ModelRegistry {
    entries: [Option<Entry>; 3],
    /// Reusable one-prediction buffer behind [`Self::forward`].
    single: Vec<Prediction>,
}

impl ModelRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        ModelRegistry {
            entries: [None, None, None],
            single: Vec::with_capacity(1),
        }
    }

    /// A registry holding tiny instances of the given kinds, each with
    /// deterministic weights derived from `seed`.
    pub fn tiny_with_kinds(kinds: &[ModelKind], seed: u64) -> Self {
        let mut reg = Self::new();
        for &kind in kinds {
            reg.register(build_tiny(kind, seed));
        }
        reg
    }

    /// A registry holding tiny instances of all three benchmark tiers.
    pub fn tiny(seed: u64) -> Self {
        Self::tiny_with_kinds(&ModelKind::ALL, seed)
    }

    /// Adds (or replaces) the tier `model.kind()`, with every buffer its
    /// forwards will use.
    pub fn register(&mut self, model: Net) {
        let idx = model.kind().index();
        self.entries[idx] = Some(Entry::new(model));
    }

    /// True when `kind` is registered.
    pub fn contains(&self, kind: ModelKind) -> bool {
        self.entries[kind.index()].is_some()
    }

    /// Registered kinds, cheapest first (Table II order).
    fn kinds(&self) -> impl Iterator<Item = ModelKind> + '_ {
        ModelKind::ALL.into_iter().filter(|&k| self.contains(k))
    }

    /// Number of registered tiers.
    pub fn len(&self) -> usize {
        self.entries.iter().flatten().count()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.iter().all(Option::is_none)
    }

    /// The most accurate (most expensive) registered tier.
    pub fn best(&self) -> Option<ModelKind> {
        self.kinds().last()
    }

    /// The registered model for `kind`.
    pub fn model(&self, kind: ModelKind) -> Option<&Net> {
        self.entries[kind.index()].as_ref().map(|e| &e.model)
    }

    /// The widest input window across registered tiers: the number of
    /// tick rows the feature pipeline must stage so every tier can run.
    ///
    /// # Panics
    ///
    /// Panics on an empty registry.
    pub fn max_window(&self) -> usize {
        self.entries
            .iter()
            .flatten()
            .map(|e| e.model.window())
            .max()
            .expect("registry must hold a model")
    }

    /// Runs tier `kind` on `input`, which must hold *at least* the
    /// tier's window of tick rows (extra leading rows — staged for a
    /// wider tier — are skipped; the trailing `window()` rows are the
    /// most recent ticks): [`Self::forward_slides`] at `k = 1`.
    ///
    /// # Panics
    ///
    /// As [`Self::forward_slides`].
    pub fn forward(&mut self, kind: ModelKind, input: &Tensor) -> Prediction {
        let mut single = std::mem::take(&mut self.single);
        self.forward_slides(kind, input, 1, &mut single);
        let prediction = single[0];
        self.single = single;
        prediction
    }

    /// Runs tier `kind` on the `k` windows that end at each of the last
    /// `k` rows of `input`, oldest first — one *sweep*: window `j` is rows
    /// `j..j + window()` of the trailing `window() + k - 1` rows, each the
    /// one before slid by a tick (extra leading rows — staged for a wider
    /// tier — are skipped). `out` is cleared and gets one prediction per
    /// window, bit for bit what `k` single-window [`Self::forward`] calls
    /// return. Runs in the memory the tier was registered with, so no call
    /// allocates.
    ///
    /// Memoises per tier: a tier whose net has a streamable prefix
    /// (DeepLOB, the CNN) keeps its last window and prefix activations,
    /// and a sweep whose first window is bit for bit the last one served
    /// slid by one row sends only its `k` newest rows through the prefix,
    /// one call per layer, and runs the layers after it once at batch `k`
    /// (`Net::forward_stream`). Only the first window is compared —
    /// the rest are slides by construction, being views of one buffer;
    /// when it is not a slide it runs whole and the rest stream behind it.
    /// A tier that cannot stream (TransLOB) stages the `k` windows and
    /// runs them as one batch. All of that is invisible in the result —
    /// the reused rows are the ones each window would recompute from the
    /// same operands in the same order — and visible only in
    /// [`Self::stream_stats`] and the clock.
    ///
    /// # Panics
    ///
    /// Panics when `kind` is not registered, `k` is zero or above
    /// [`MAX_SWEEP`], the input is not rank-2, the feature count differs,
    /// or fewer than `window() + k - 1` rows are supplied.
    pub fn forward_slides(
        &mut self,
        kind: ModelKind,
        input: &Tensor,
        k: usize,
        out: &mut Vec<Prediction>,
    ) {
        let entry = self.entries[kind.index()]
            .as_mut()
            .unwrap_or_else(|| panic!("{kind} is not registered"));
        let (window, features) = (entry.model.window(), entry.model.features());
        assert!(
            (1..=MAX_SWEEP).contains(&k),
            "a sweep is 1..={MAX_SWEEP} windows, got {k}"
        );
        assert_eq!(input.shape().len(), 2, "input must be [rows, features]");
        let (rows, cols) = (input.shape()[0], input.shape()[1]);
        assert_eq!(cols, features, "feature width mismatch for {kind}");
        let needed = window + k - 1;
        assert!(
            rows >= needed,
            "{kind} needs {needed} tick rows, got {rows}"
        );
        let swept = &input.data()[(rows - needed) * features..];
        if entry.stream.is_empty() {
            entry.stats.misses += k as u64;
            out.clear();
            let lane = |j: usize| &swept[j * features..][..window * features];
            let arena = &mut entry.arena;
            return entry.model.forward_windows(k, lane, None, arena, out);
        }
        let (first, last) = (&swept[..window * features], &swept[(k - 1) * features..]);
        let slid = slid_by_one(entry.input.data(), first, features);
        let slides = if slid { k } else { k - 1 };
        if !slid {
            entry.input.data_mut().copy_from_slice(first);
        }
        entry.model.forward_stream(
            (!slid).then_some(&entry.input),
            &swept[(needed - slides) * features..],
            &mut entry.stream,
            &mut entry.arena,
            out,
        );
        if slides > 0 {
            entry.input.data_mut().copy_from_slice(last);
        }
        entry.stats.hits += slides as u64;
        entry.stats.misses += u64::from(!slid);
    }

    /// How many of the windows tier `kind` served through
    /// [`Self::forward`] and [`Self::forward_slides`] came from the trunk
    /// of the window before, and how many ran whole: `hits + misses` is
    /// the number of windows served. [`Self::forward_batch`] never streams
    /// and counts nothing.
    ///
    /// # Panics
    ///
    /// Panics when `kind` is not registered.
    pub fn stream_stats(&self, kind: ModelKind) -> StreamStats {
        self.entries[kind.index()]
            .as_ref()
            .unwrap_or_else(|| panic!("{kind} is not registered"))
            .stats
    }

    /// Runs tier `kind` over a whole batch of `[window, features]`
    /// windows, writing one prediction per input (in order) into `out`.
    /// Each [`MAX_SWEEP`] windows run as **one** packed batched forward per
    /// layer (a longer batch, in chunks of that many: no answer depends on
    /// its batch), in the tier's registered memory, so nothing allocates
    /// but `out`'s growth. Batches never stream: each window is served
    /// whole.
    ///
    /// # Panics
    ///
    /// Panics when `kind` is not registered or any input is not exactly
    /// the tier's `[window, features]`.
    pub fn forward_batch(&mut self, kind: ModelKind, inputs: &[Tensor], out: &mut Vec<Prediction>) {
        let entry = self.entries[kind.index()]
            .as_mut()
            .unwrap_or_else(|| panic!("{kind} is not registered"));
        let shape = [entry.model.window(), entry.model.features()];
        for input in inputs {
            assert_eq!(
                input.shape(),
                shape,
                "{kind} batches take exact {shape:?} windows"
            );
        }
        entry
            .model
            .forward_batch_scratch(inputs, &mut entry.arena, out);
    }

    /// Kept only for the benchmark's callers, which pass 1; ROADMAP item
    /// 0 deletes it. Batched forwards run on the calling thread.
    ///
    /// # Panics
    ///
    /// Panics unless `threads` is 1.
    pub fn set_batch_threads(&mut self, threads: usize) {
        assert_eq!(threads, 1, "batched forwards run on the calling thread");
    }
}

impl Default for ModelRegistry {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_holds_all_tiers() {
        let reg = ModelRegistry::tiny(42);
        assert_eq!(reg.len(), 3);
        assert!(!reg.is_empty());
        assert_eq!(reg.best(), Some(ModelKind::DeepLob));
        let kinds: Vec<ModelKind> = reg.kinds().collect();
        assert_eq!(kinds, ModelKind::ALL.to_vec(), "cheapest first");
        for kind in ModelKind::ALL {
            assert!(reg.contains(kind));
            assert_eq!(reg.model(kind).unwrap().kind(), kind);
        }
    }

    #[test]
    fn partial_registry() {
        let reg = ModelRegistry::tiny_with_kinds(&[ModelKind::VanillaCnn], 7);
        assert_eq!(reg.len(), 1);
        assert!(!reg.contains(ModelKind::DeepLob));
        assert_eq!(reg.best(), Some(ModelKind::VanillaCnn));
        assert_eq!(
            reg.max_window(),
            reg.model(ModelKind::VanillaCnn).unwrap().window()
        );
    }

    /// Serving a narrow tier from a wide staged input must equal running
    /// the tier directly on the trailing window.
    #[test]
    fn trailing_window_slice_matches_direct_forward() {
        let mut reg = ModelRegistry::tiny(42);
        let max_window = reg.max_window();
        let features = reg.model(ModelKind::VanillaCnn).unwrap().features();
        let wide = Tensor::random(&[max_window, features], 1.0, 99);
        for kind in ModelKind::ALL {
            let window = reg.model(kind).unwrap().window();
            assert!(window <= max_window);
            let start = (max_window - window) * features;
            let direct_in = Tensor::from_vec(wide.data()[start..].to_vec(), &[window, features]);
            let direct = ModelRegistry::tiny_with_kinds(&[kind], 42).forward(kind, &direct_in);
            let via_registry = reg.forward(kind, &wide);
            assert_eq!(via_registry.probs, direct.probs, "{kind}");
        }
    }

    /// Tier switching reuses each tier's registered memory and stays
    /// deterministic.
    #[test]
    fn repeated_forwards_are_deterministic() {
        let mut reg = ModelRegistry::tiny(42);
        let input = Tensor::random(&[reg.max_window(), 40], 1.0, 5);
        let first: Vec<[f32; 3]> = ModelKind::ALL
            .iter()
            .map(|&k| reg.forward(k, &input).probs)
            .collect();
        for _ in 0..3 {
            for (i, &kind) in ModelKind::ALL.iter().enumerate() {
                assert_eq!(reg.forward(kind, &input).probs, first[i]);
            }
        }
    }

    /// `forward_batch` equals repeated `forward`, bit for bit.
    #[test]
    fn forward_batch_matches_repeated_forward() {
        let mut reg = ModelRegistry::tiny(42);
        for kind in ModelKind::ALL {
            let window = reg.model(kind).unwrap().window();
            let features = reg.model(kind).unwrap().features();
            let inputs: Vec<Tensor> = (0..4)
                .map(|i| Tensor::random(&[window, features], 1.0, 100 + i))
                .collect();
            let singles: Vec<[u32; 3]> = inputs
                .iter()
                .map(|t| reg.forward(kind, t).probs.map(f32::to_bits))
                .collect();
            let mut batched = Vec::new();
            reg.forward_batch(kind, &inputs, &mut batched);
            assert_eq!(batched.len(), inputs.len());
            for (s, (b, l)) in batched.iter().zip(&singles).enumerate() {
                assert_eq!(&b.probs.map(f32::to_bits), l, "{kind} sample {s}");
            }
        }
    }

    /// A batch of more than `MAX_SWEEP` windows runs in chunks and answers
    /// each window bit for bit as a batch of one does.
    #[test]
    fn a_batch_past_max_sweep_answers_each_window_as_alone() {
        let mut reg = ModelRegistry::tiny(42);
        for kind in ModelKind::ALL {
            let window = reg.model(kind).unwrap().window();
            let inputs: Vec<Tensor> = (0..MAX_SWEEP as u64 + 3)
                .map(|i| Tensor::random(&[window, 40], 1.0, 300 + i))
                .collect();
            let mut batched = Vec::new();
            reg.forward_batch(kind, &inputs, &mut batched);
            assert_eq!(batched.len(), inputs.len(), "{kind}");
            let mut alone = Vec::new();
            for (s, (b, input)) in batched.iter().zip(&inputs).enumerate() {
                reg.forward_batch(kind, std::slice::from_ref(input), &mut alone);
                let bits = |p: &Prediction| p.probs.map(f32::to_bits);
                assert_eq!(bits(b), bits(&alone[0]), "{kind} window {s}");
            }
        }
    }

    /// A batch takes exact windows only: a wider input is refused, not
    /// sliced.
    #[test]
    #[should_panic(expected = "exact")]
    fn wide_batch_input_panics() {
        let mut reg = ModelRegistry::tiny(7);
        let (window, features) = {
            let model = reg.model(ModelKind::VanillaCnn).unwrap();
            (model.window(), model.features())
        };
        let wide = Tensor::zeros(&[window + 1, features]);
        reg.forward_batch(ModelKind::VanillaCnn, &[wide], &mut Vec::new());
    }

    #[test]
    fn empty_batch_clears_out() {
        let mut reg = ModelRegistry::tiny(7);
        let window = reg.model(ModelKind::DeepLob).unwrap().window();
        let input = Tensor::random(&[window, 40], 1.0, 50);
        let mut out = Vec::new();
        reg.forward_batch(ModelKind::DeepLob, &[input], &mut out);
        assert_eq!(out.len(), 1);
        reg.forward_batch(ModelKind::DeepLob, &[], &mut out);
        assert!(out.is_empty(), "empty batch clears out");
    }

    #[test]
    #[should_panic(expected = "is not registered")]
    fn unregistered_kind_panics() {
        let mut reg = ModelRegistry::tiny_with_kinds(&[ModelKind::VanillaCnn], 1);
        let input = Tensor::zeros(&[40, 40]);
        let _ = reg.forward(ModelKind::DeepLob, &input);
    }

    #[test]
    #[should_panic(expected = "tick rows")]
    fn short_input_panics() {
        let mut reg = ModelRegistry::tiny(1);
        let window = reg.model(ModelKind::DeepLob).unwrap().window();
        let input = Tensor::zeros(&[window - 1, 40]);
        let _ = reg.forward(ModelKind::DeepLob, &input);
    }
}
