//! Neural-network layers and their analytic cost counters.
//!
//! Each layer owns its weights and offers two forward passes: a naive
//! `forward_reference` on [`Tensor`]s (the oracle) and a packed one over
//! flat batch buffers (what the models serve through). It exposes the MAC count of a pass through
//! [`count`]; the counters are what the accelerator's latency model
//! consumes.

pub mod activation;
pub mod attention;
pub mod conv;
pub mod count;
pub mod linear;
pub mod lstm;
pub mod norm;

pub use activation::{
    leaky_relu, leaky_relu_slice, relu, relu_slice, softmax_last_dim, softmax_rows,
};
pub use attention::MultiHeadAttention;
pub use conv::Conv2d;
pub use linear::Linear;
pub use lstm::Lstm;
pub use norm::LayerNorm;

use crate::tensor::Tensor;

/// Asserts a tensor's rank, with a readable panic message.
pub(crate) fn expect_rank(t: &Tensor, rank: usize, what: &str) {
    assert_eq!(
        t.shape().len(),
        rank,
        "{what} expects a rank-{rank} tensor, got shape {:?}",
        t.shape()
    );
}
