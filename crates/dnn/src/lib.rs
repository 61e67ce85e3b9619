//! BF16 tensor library and the three HFT benchmark DNNs.
//!
//! The paper evaluates three limit-order-book models (Table II):
//!
//! | model       | network          | total OPs |
//! |-------------|------------------|-----------|
//! | Vanilla CNN | CNN              | 93.0 G    |
//! | TransLOB    | CNN + Transformer| 203.9 G   |
//! | DeepLOB     | CNN + LSTM       | 515.4 G   |
//!
//! This crate implements all three from scratch on a small tensor library:
//!
//! * [`bf16`] — Brain-float-16 rounding, the accelerator's "main
//!   computational precision" (§III-C), and the only one modelled;
//! * [`tensor`] — a dense row-major `f32` tensor with the shape algebra
//!   the layers need;
//! * [`math`] — the repo's own `exp`, `tanh` and `sigmoid` (and an
//!   in-place `exp_slice`), so no answer depends on the host's libm and
//!   the elementwise steps vectorise;
//! * [`ops`] — linear, conv2d, LSTM, multi-head attention, layer norm
//!   and activations, and the analytic MAC counters (`ops::count`) a
//!   spec's layer list is priced with for the latency model;
//! * [`kernels`] — the register-tile micro-kernel and the passes behind
//!   the ops' packed forwards (the packed GEMM, the direct convolution,
//!   the fused attention core, the layer norm's row folds
//!   and the LSTM cell), bit-identical to the naive `forward_reference`
//!   oracles (an SSE2 and an AVX2 instance of each pass, and an AVX-512F
//!   one of all but the LSTM cell, picked at run time by the CPU and the
//!   input's shape, with the same bits);
//! * [`stream`] — the line buffers and the bitwise slid-window check
//!   that let [`ModelRegistry::forward`] push only the newest tick row
//!   through a valid-convolution trunk;
//! * `batch` — the prepacked weight panels each op makes in its
//!   constructor and its packed forward reads, so the resident form of a
//!   layer's weights is the layer's own; [`Net::forward_batch_scratch`],
//!   the one inference method, sweeps them on the calling thread: a
//!   single query is a batch of one;
//! * [`models`] — the specs of the Vanilla CNN, TransLOB and DeepLOB,
//!   each in two sizes: a `paper()` configuration whose analytic op count
//!   matches Table II, and a `tiny()` configuration that runs functionally
//!   in microseconds for tests, examples and the benchmark. A spec is a
//!   weightless list of layers and nothing else;
//! * [`net`] — [`Net`], what a spec builds: its layers with their weights,
//!   *lowered* once (every layer's shapes and workspace, and the
//!   streamable prefix of valid convolutions), and one executor that runs every
//!   packed forward — whole windows at any batch, and the layers behind a
//!   streamed prefix — beside one reference walk of the same list. Every
//!   forward runs in memory the lowering sized and [`Net::arena`] (or
//!   [`ModelRegistry::register`], per tier) made once: an [`Arena`] for
//!   up to [`MAX_SWEEP`] samples, and the prefix's line buffers, so no
//!   forward allocates.
//!
//! Every op has a naive-reference test; property tests cover numerical
//! invariants (softmax sums to one, layer norm normalizes, BF16
//! round-trips, ...).

// Only the entries `kernels`' `instances!` macro defines may call the
// AVX-512F and AVX2 instances it compiles (the macro puts
// `#[allow(unsafe_code)]` on each entry, around its one `unsafe` call).
#![deny(unsafe_code)]

mod batch;
pub mod bf16;
pub mod kernels;
pub mod math;
pub mod model;
pub mod models;
pub mod net;
pub mod ops;
pub mod registry;
pub mod stream;
pub mod tensor;

pub use bf16::bf16_round;
pub use model::{ModelKind, Prediction, PriceDirection};
pub use net::{Arena, Net};
pub use registry::ModelRegistry;
pub use stream::{StreamStats, MAX_SWEEP};
pub use tensor::Tensor;
