//! A dense, row-major `f32` tensor.

use crate::bf16::bf16_round_slice;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Maximum tensor rank supported by the inline shape representation.
///
/// The deepest shape any layer uses is the rank-4 convolution kernel
/// `[out_c, in_c, k_h, k_w]`; storing dimensions inline (instead of in a
/// heap-allocated `Vec`) keeps a tensor's shape off the allocator: a
/// tensor allocates its data only.
pub const MAX_RANK: usize = 4;

/// Inline shape: up to [`MAX_RANK`] dimensions, no heap storage.
///
/// Unused trailing slots are always zero so derived `PartialEq` compares
/// shapes of equal rank correctly.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Shape {
    dims: [usize; MAX_RANK],
    rank: u8,
}

impl Shape {
    fn from_slice(shape: &[usize]) -> Self {
        assert!(
            shape.len() <= MAX_RANK,
            "shape {shape:?} exceeds the maximum supported rank {MAX_RANK}"
        );
        let mut dims = [0; MAX_RANK];
        dims[..shape.len()].copy_from_slice(shape);
        Shape {
            dims,
            rank: shape.len() as u8,
        }
    }

    fn as_slice(&self) -> &[usize] {
        &self.dims[..self.rank as usize]
    }
}

/// A dense tensor with row-major storage.
///
/// Kept deliberately small: fixed `f32` element type, owned storage, and
/// only the shape algebra the layers in [`crate::ops`] need. The shape is
/// stored inline (max rank [`MAX_RANK`]) so constructing a tensor from an
/// existing buffer never allocates.
///
/// # Example
///
/// ```
/// use lt_dnn::Tensor;
/// let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
/// assert_eq!(t.at(&[1, 0]), 3.0);
/// assert_eq!(t.shape(), &[2, 2]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a zero-filled tensor.
    ///
    /// # Panics
    ///
    /// Panics if the shape is empty or has a zero dimension.
    pub fn zeros(shape: &[usize]) -> Self {
        let len = Self::checked_len(shape);
        Tensor {
            shape: Shape::from_slice(shape),
            data: vec![0.0; len],
        }
    }

    /// Creates a tensor from existing data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not equal the product of `shape`.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Self {
        let len = Self::checked_len(shape);
        assert_eq!(
            data.len(),
            len,
            "data length {} does not match shape {:?}",
            data.len(),
            shape
        );
        Tensor {
            shape: Shape::from_slice(shape),
            data,
        }
    }

    /// Creates a tensor with i.i.d. uniform values in `[-scale, scale]`,
    /// deterministically from `seed` (Xavier-style when `scale =
    /// sqrt(6/(fan_in+fan_out))`).
    pub fn random(shape: &[usize], scale: f32, seed: u64) -> Self {
        let len = Self::checked_len(shape);
        let mut rng = StdRng::seed_from_u64(seed);
        let data = (0..len).map(|_| rng.gen_range(-scale..=scale)).collect();
        Tensor {
            shape: Shape::from_slice(shape),
            data,
        }
    }

    fn checked_len(shape: &[usize]) -> usize {
        assert!(!shape.is_empty(), "shape must have at least one dimension");
        assert!(
            shape.iter().all(|&d| d > 0),
            "shape {shape:?} has a zero dimension"
        );
        shape.iter().product()
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        self.shape.as_slice()
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Always false: zero-dimension shapes are rejected at construction.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying storage.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying storage.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank or any coordinate is out of range.
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.offset(index)]
    }

    /// Sets the element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank or any coordinate is out of range.
    pub fn set(&mut self, index: &[usize], value: f32) {
        let off = self.offset(index);
        self.data[off] = value;
    }

    fn offset(&self, index: &[usize]) -> usize {
        let shape = self.shape.as_slice();
        assert_eq!(
            index.len(),
            shape.len(),
            "index rank {} != tensor rank {}",
            index.len(),
            shape.len()
        );
        let mut off = 0;
        for (i, (&ix, &dim)) in index.iter().zip(shape).enumerate() {
            assert!(ix < dim, "index {ix} out of range for dim {i} (size {dim})");
            off = off * dim + ix;
        }
        off
    }

    /// Returns the same storage under a new shape (no copy, no allocation).
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    #[must_use]
    pub fn reshape(mut self, shape: &[usize]) -> Tensor {
        let len = Self::checked_len(shape);
        assert_eq!(
            self.data.len(),
            len,
            "cannot reshape {:?} ({} elems) to {:?} ({} elems)",
            self.shape.as_slice(),
            self.data.len(),
            shape,
            len
        );
        self.shape = Shape::from_slice(shape);
        self
    }

    /// Rounds every element to BF16 in place and returns self (builder
    /// style, mirroring how the accelerator stores activations).
    #[must_use]
    pub fn quantize_bf16(mut self) -> Tensor {
        bf16_round_slice(&mut self.data);
        self
    }

    /// Row `r` of a rank-2 tensor as a slice.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2 or `r` is out of range.
    pub fn row(&self, r: usize) -> &[f32] {
        assert_eq!(self.shape().len(), 2, "row() requires a rank-2 tensor");
        let cols = self.shape.dims[1];
        assert!(r < self.shape.dims[0], "row {r} out of range");
        &self.data[r * cols..(r + 1) * cols]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let mut t = Tensor::zeros(&[2, 3]);
        assert_eq!(t.len(), 6);
        assert_eq!(t.shape(), &[2, 3]);
        t.set(&[1, 2], 7.0);
        assert_eq!(t.at(&[1, 2]), 7.0);
        assert_eq!(t.at(&[0, 0]), 0.0);
        assert_eq!(t.data()[5], 7.0, "row-major layout");
    }

    #[test]
    fn from_vec_and_row() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert_eq!(t.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(t.row(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[4]).reshape(&[2, 2]);
        assert_eq!(t.at(&[1, 1]), 4.0);
    }

    #[test]
    fn random_is_deterministic_and_bounded() {
        let a = Tensor::random(&[10, 10], 0.5, 42);
        let b = Tensor::random(&[10, 10], 0.5, 42);
        assert_eq!(a, b);
        assert!(a.data().iter().all(|v| v.abs() <= 0.5));
        let c = Tensor::random(&[10, 10], 0.5, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn quantize_bf16_rounds_all() {
        let t = Tensor::from_vec(vec![1.0001, 2.0003], &[2]).quantize_bf16();
        for &v in t.data() {
            assert_eq!(crate::bf16::bf16_round(v), v);
        }
    }

    #[test]
    fn rank_four_round_trips() {
        let t = Tensor::zeros(&[2, 3, 4, 5]);
        assert_eq!(t.shape(), &[2, 3, 4, 5]);
        assert_eq!(t.len(), 120);
        let r = t.reshape(&[120]);
        assert_eq!(r.shape(), &[120]);
    }

    #[test]
    fn from_vec_does_not_copy_storage() {
        let data = vec![1.0f32, 2.0, 3.0, 4.0];
        let ptr = data.as_ptr();
        let t = Tensor::from_vec(data, &[2, 2]);
        assert_eq!(t.data().as_ptr(), ptr, "from_vec must reuse the buffer");
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_length_mismatch_panics() {
        let _ = Tensor::from_vec(vec![1.0; 5], &[2, 3]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_index_panics() {
        let t = Tensor::zeros(&[2, 2]);
        let _ = t.at(&[2, 0]);
    }

    #[test]
    #[should_panic(expected = "zero dimension")]
    fn zero_dim_rejected() {
        let _ = Tensor::zeros(&[2, 0]);
    }

    #[test]
    #[should_panic(expected = "cannot reshape")]
    fn bad_reshape_panics() {
        let _ = Tensor::zeros(&[4]).reshape(&[3]);
    }

    #[test]
    #[should_panic(expected = "exceeds the maximum supported rank")]
    fn rank_five_rejected() {
        let _ = Tensor::zeros(&[1, 1, 1, 1, 1]);
    }
}
