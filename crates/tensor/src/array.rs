use crate::scratch;
use crate::TensorError;
use bliss_parallel::math::{exp_f32, exp_f32_in_place, tanh_f32};
use rand::Rng;
use std::fmt;

/// A dense, row-major, `f32` n-dimensional array.
///
/// `NdArray` is the plain (non-differentiable) numeric workhorse of the
/// BlissCam reproduction. All shape handling is validated at runtime and
/// reported through [`TensorError`].
///
/// # Example
///
/// ```
/// use bliss_tensor::NdArray;
///
/// # fn main() -> Result<(), bliss_tensor::TensorError> {
/// let a = NdArray::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
/// let b = NdArray::eye(2);
/// let c = a.matmul(&b)?;
/// assert_eq!(c.data(), a.data());
/// # Ok(())
/// # }
/// ```
#[derive(PartialEq)]
pub struct NdArray {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Clone for NdArray {
    fn clone(&self) -> Self {
        NdArray {
            shape: self.shape.clone(),
            data: scratch::take_from_iter(self.data.len(), self.data.iter().copied()),
        }
    }
}

impl Drop for NdArray {
    fn drop(&mut self) {
        // Return the backing store to the thread-local scratch pool so the
        // next forward/backward pass reuses it instead of reallocating.
        scratch::recycle_buffer(std::mem::take(&mut self.data));
    }
}

impl fmt::Debug for NdArray {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NdArray(shape={:?}", self.shape)?;
        if self.data.len() <= 16 {
            write!(f, ", data={:?})", self.data)
        } else {
            write!(f, ", data=[{:?}, ...])", &self.data[..8])
        }
    }
}

impl Default for NdArray {
    fn default() -> Self {
        NdArray {
            shape: vec![0],
            data: Vec::new(),
        }
    }
}

impl NdArray {
    // ------------------------------------------------------------------
    // Constructors
    // ------------------------------------------------------------------

    /// Creates an array from raw data in row-major order.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeDataMismatch`] if `data.len()` does not
    /// equal the product of `shape`.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Result<Self, TensorError> {
        let expected: usize = shape.iter().product();
        if data.len() != expected {
            return Err(TensorError::ShapeDataMismatch {
                shape: shape.to_vec(),
                data_len: data.len(),
            });
        }
        Ok(NdArray {
            shape: shape.to_vec(),
            data,
        })
    }

    /// Creates a zero-filled array.
    pub fn zeros(shape: &[usize]) -> Self {
        NdArray {
            shape: shape.to_vec(),
            data: scratch::take_zeroed(shape.iter().product()),
        }
    }

    /// Creates a one-filled array.
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// Creates an array filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let n: usize = shape.iter().product();
        let mut data = scratch::take_buffer(n);
        data.resize(n, value);
        NdArray {
            shape: shape.to_vec(),
            data,
        }
    }

    /// Creates a square identity matrix of side `n`.
    pub fn eye(n: usize) -> Self {
        let mut a = Self::zeros(&[n, n]);
        for i in 0..n {
            a.data[i * n + i] = 1.0;
        }
        a
    }

    /// Creates an array by calling `f` with the flat (row-major) index.
    pub fn from_fn(shape: &[usize], mut f: impl FnMut(usize) -> f32) -> Self {
        let n: usize = shape.iter().product();
        NdArray {
            shape: shape.to_vec(),
            data: scratch::take_from_iter(n, (0..n).map(&mut f)),
        }
    }

    /// Creates an array of i.i.d. standard-normal samples scaled by `std`.
    pub fn randn<R: Rng + ?Sized>(rng: &mut R, shape: &[usize], std: f32) -> Self {
        // Box-Muller transform: avoids a rand_distr dependency.
        let n: usize = shape.iter().product();
        let mut data = Vec::with_capacity(n);
        while data.len() < n {
            let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
            let u2: f32 = rng.gen_range(0.0..1.0);
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f32::consts::PI * u2;
            data.push(r * theta.cos() * std);
            if data.len() < n {
                data.push(r * theta.sin() * std);
            }
        }
        NdArray {
            shape: shape.to_vec(),
            data,
        }
    }

    /// Creates an array of i.i.d. uniform samples in `[lo, hi)`.
    pub fn uniform<R: Rng + ?Sized>(rng: &mut R, shape: &[usize], lo: f32, hi: f32) -> Self {
        let n: usize = shape.iter().product();
        NdArray {
            shape: shape.to_vec(),
            data: (0..n).map(|_| rng.gen_range(lo..hi)).collect(),
        }
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// Shape of the array (length of each dimension).
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of dimensions.
    pub fn ndim(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the array holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying row-major buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element at `(row, col)` of a rank-2 array.
    ///
    /// # Panics
    ///
    /// Panics if the array is not rank 2 or the indices are out of bounds.
    pub fn at(&self, row: usize, col: usize) -> f32 {
        assert_eq!(self.ndim(), 2, "at() requires a rank-2 array");
        self.data[row * self.shape[1] + col]
    }

    /// Sets the element at `(row, col)` of a rank-2 array.
    ///
    /// # Panics
    ///
    /// Panics if the array is not rank 2 or the indices are out of bounds.
    pub fn set_at(&mut self, row: usize, col: usize, value: f32) {
        assert_eq!(self.ndim(), 2, "set_at() requires a rank-2 array");
        self.data[row * self.shape[1] + col] = value;
    }

    // ------------------------------------------------------------------
    // Shape manipulation
    // ------------------------------------------------------------------

    /// Returns a reshaped copy sharing the same element order.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeDataMismatch`] if the element counts differ.
    pub fn reshape(&self, shape: &[usize]) -> Result<Self, TensorError> {
        let expected: usize = shape.iter().product();
        if expected != self.data.len() {
            return Err(TensorError::ShapeDataMismatch {
                shape: shape.to_vec(),
                data_len: self.data.len(),
            });
        }
        Ok(NdArray {
            shape: shape.to_vec(),
            data: scratch::take_from_iter(self.data.len(), self.data.iter().copied()),
        })
    }

    /// Transpose of a rank-2 array.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrix inputs.
    pub fn transpose(&self) -> Result<Self, TensorError> {
        if self.ndim() != 2 {
            return Err(TensorError::RankMismatch {
                op: "transpose",
                expected: 2,
                actual: self.ndim(),
            });
        }
        let (m, n) = (self.shape[0], self.shape[1]);
        let mut out = scratch::take_zeroed(m * n);
        transpose_into(&self.data, m, n, &mut out);
        Ok(NdArray {
            shape: vec![n, m],
            data: out,
        })
    }

    // ------------------------------------------------------------------
    // Elementwise arithmetic
    // ------------------------------------------------------------------

    fn check_same_shape(&self, other: &Self, op: &'static str) -> Result<(), TensorError> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                op,
                lhs: self.shape.clone(),
                rhs: other.shape.clone(),
            });
        }
        Ok(())
    }

    /// Elementwise sum of two same-shape arrays.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn add(&self, other: &Self) -> Result<Self, TensorError> {
        self.check_same_shape(other, "add")?;
        Ok(self.zip_with(other, |a, b| a + b))
    }

    /// Elementwise difference of two same-shape arrays.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn sub(&self, other: &Self) -> Result<Self, TensorError> {
        self.check_same_shape(other, "sub")?;
        Ok(self.zip_with(other, |a, b| a - b))
    }

    /// Elementwise product of two same-shape arrays.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn mul(&self, other: &Self) -> Result<Self, TensorError> {
        self.check_same_shape(other, "mul")?;
        Ok(self.zip_with(other, |a, b| a * b))
    }

    /// Elementwise quotient of two same-shape arrays.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn div(&self, other: &Self) -> Result<Self, TensorError> {
        self.check_same_shape(other, "div")?;
        Ok(self.zip_with(other, |a, b| a / b))
    }

    /// Adds `value` to every element.
    pub fn add_scalar(&self, value: f32) -> Self {
        self.map(|x| x + value)
    }

    /// Multiplies every element by `value`.
    pub fn scale(&self, value: f32) -> Self {
        self.map(|x| x * value)
    }

    /// Elementwise negation.
    pub fn neg(&self) -> Self {
        self.map(|x| -x)
    }

    /// Applies `f` to every element, producing a new array.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        NdArray {
            shape: self.shape.clone(),
            data: scratch::take_from_iter(self.data.len(), self.data.iter().map(|&x| f(x))),
        }
    }

    /// Combines two same-shape arrays elementwise with `f`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the shapes differ; prefer the checked
    /// arithmetic methods in user code.
    pub fn zip_with(&self, other: &Self, f: impl Fn(f32, f32) -> f32) -> Self {
        debug_assert_eq!(self.shape, other.shape);
        NdArray {
            shape: self.shape.clone(),
            data: scratch::take_from_iter(
                self.data.len(),
                self.data
                    .iter()
                    .zip(other.data.iter())
                    .map(|(&a, &b)| f(a, b)),
            ),
        }
    }

    /// Accumulates `other` into `self` elementwise (`self += other`).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn add_assign(&mut self, other: &Self) -> Result<(), TensorError> {
        self.check_same_shape(other, "add_assign")?;
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
        Ok(())
    }

    /// Adds a length-`n` row vector to every row of an `[m, n]` matrix.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `self` is not rank 2 or the
    /// row length differs from `row.len()`.
    pub fn add_row(&self, row: &Self) -> Result<Self, TensorError> {
        if self.ndim() != 2 || row.ndim() != 1 || self.shape[1] != row.shape[0] {
            return Err(TensorError::ShapeMismatch {
                op: "add_row",
                lhs: self.shape.clone(),
                rhs: row.shape.clone(),
            });
        }
        let mut out = self.clone();
        add_row_assign(&mut out.data, &row.data);
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Linear algebra
    // ------------------------------------------------------------------

    /// Matrix product of `[m, k] x [k, n] -> [m, n]`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrix operands and
    /// [`TensorError::ShapeMismatch`] if the inner dimensions disagree.
    pub fn matmul(&self, other: &Self) -> Result<Self, TensorError> {
        if self.ndim() != 2 {
            return Err(TensorError::RankMismatch {
                op: "matmul",
                expected: 2,
                actual: self.ndim(),
            });
        }
        if other.ndim() != 2 {
            return Err(TensorError::RankMismatch {
                op: "matmul",
                expected: 2,
                actual: other.ndim(),
            });
        }
        if self.shape[1] != other.shape[0] {
            return Err(TensorError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape.clone(),
                rhs: other.shape.clone(),
            });
        }
        let (m, k, n) = (self.shape[0], self.shape[1], other.shape[1]);
        let mut out = scratch::take_zeroed(m * n);
        matmul_into(&self.data, &other.data, k, n, &mut out);
        Ok(NdArray {
            shape: vec![m, n],
            data: out,
        })
    }

    /// Matrix product against a transposed right operand:
    /// `[m, k] x [p, k]^T -> [m, p]`, i.e. `out[i][j] = <self[i], other[j]>`.
    ///
    /// The natural formulation for attention scores (`Q K^T`) and for
    /// gradient products against weight matrices (`dY W^T`). Internally the
    /// right operand is packed row-major-transposed into the thread's
    /// dedicated matmul workspace (one buffer reused across every call — no
    /// allocator or pool traffic in steady state) and fed to the
    /// register-blocked [`NdArray::matmul`] kernel — measured faster than a
    /// fused dot-product loop at every shape this workspace uses, because
    /// the broadcast-FMA micro-kernel beats horizontal dot products and the
    /// pack is a single cheap pass.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrix operands and
    /// [`TensorError::ShapeMismatch`] if the inner (column) dimensions
    /// disagree.
    pub fn matmul_transposed(&self, other: &Self) -> Result<Self, TensorError> {
        if self.ndim() != 2 || other.ndim() != 2 {
            return Err(TensorError::RankMismatch {
                op: "matmul_transposed",
                expected: 2,
                actual: if self.ndim() != 2 {
                    self.ndim()
                } else {
                    other.ndim()
                },
            });
        }
        if self.shape[1] != other.shape[1] {
            return Err(TensorError::ShapeMismatch {
                op: "matmul_transposed",
                lhs: self.shape.clone(),
                rhs: other.shape.clone(),
            });
        }
        let (m, k, p) = (self.shape[0], self.shape[1], other.shape[0]);
        let mut out = scratch::take_zeroed(m * p);
        matmul_transposed_into(&self.data, &other.data, k, p, &mut out);
        Ok(NdArray {
            shape: vec![m, p],
            data: out,
        })
    }

    /// Frobenius dot product (sum of elementwise products).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn dot(&self, other: &Self) -> Result<f32, TensorError> {
        self.check_same_shape(other, "dot")?;
        Ok(self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| a * b)
            .sum())
    }

    // ------------------------------------------------------------------
    // Reductions
    // ------------------------------------------------------------------

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for an empty array).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element (negative infinity for an empty array).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element (positive infinity for an empty array).
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Column sums of an `[m, n]` matrix, producing `[n]`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrix inputs.
    pub fn sum_rows(&self) -> Result<Self, TensorError> {
        if self.ndim() != 2 {
            return Err(TensorError::RankMismatch {
                op: "sum_rows",
                expected: 2,
                actual: self.ndim(),
            });
        }
        let (m, n) = (self.shape[0], self.shape[1]);
        let mut out = scratch::take_zeroed(n);
        for i in 0..m {
            for j in 0..n {
                out[j] += self.data[i * n + j];
            }
        }
        Ok(NdArray {
            shape: vec![n],
            data: out,
        })
    }

    /// Per-row argmax of an `[m, n]` matrix.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrix inputs.
    pub fn argmax_rows(&self) -> Result<Vec<usize>, TensorError> {
        if self.ndim() != 2 {
            return Err(TensorError::RankMismatch {
                op: "argmax_rows",
                expected: 2,
                actual: self.ndim(),
            });
        }
        let (m, n) = (self.shape[0], self.shape[1]);
        let mut out = Vec::with_capacity(m);
        for i in 0..m {
            let row = &self.data[i * n..(i + 1) * n];
            let mut best = 0;
            for (j, &v) in row.iter().enumerate() {
                if v > row[best] {
                    best = j;
                }
            }
            out.push(best);
        }
        Ok(out)
    }

    /// Row-wise softmax of an `[m, n]` matrix (numerically stabilised).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrix inputs.
    pub fn softmax_rows(&self) -> Result<Self, TensorError> {
        if self.ndim() != 2 {
            return Err(TensorError::RankMismatch {
                op: "softmax_rows",
                expected: 2,
                actual: self.ndim(),
            });
        }
        let (m, n) = (self.shape[0], self.shape[1]);
        let mut out = scratch::take_zeroed(m * n);
        softmax_rows_into(&self.data, n, &mut out);
        Ok(NdArray {
            shape: vec![m, n],
            data: out,
        })
    }

    // ------------------------------------------------------------------
    // Concatenation / slicing / gathering (rank-2, row axis)
    // ------------------------------------------------------------------

    /// Concatenates rank-2 arrays along the row axis.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] for an empty input list and
    /// [`TensorError::ShapeMismatch`] if column counts differ.
    pub fn concat_rows(parts: &[&Self]) -> Result<Self, TensorError> {
        if parts.is_empty() {
            return Err(TensorError::InvalidArgument {
                op: "concat_rows",
                message: "no arrays to concatenate".into(),
            });
        }
        let cols = parts[0].shape.get(1).copied().unwrap_or(0);
        let mut rows = 0;
        for p in parts {
            if p.ndim() != 2 || p.shape[1] != cols {
                return Err(TensorError::ShapeMismatch {
                    op: "concat_rows",
                    lhs: parts[0].shape.clone(),
                    rhs: p.shape.clone(),
                });
            }
            rows += p.shape[0];
        }
        let mut data = scratch::take_buffer(rows * cols);
        for p in parts {
            data.extend_from_slice(&p.data);
        }
        Ok(NdArray {
            shape: vec![rows, cols],
            data,
        })
    }

    /// Concatenates rank-2 arrays along the column axis.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] for an empty input list and
    /// [`TensorError::ShapeMismatch`] if row counts differ.
    pub fn concat_cols(parts: &[&Self]) -> Result<Self, TensorError> {
        if parts.is_empty() {
            return Err(TensorError::InvalidArgument {
                op: "concat_cols",
                message: "no arrays to concatenate".into(),
            });
        }
        let rows = parts[0].shape.first().copied().unwrap_or(0);
        let mut cols = 0;
        for p in parts {
            if p.ndim() != 2 || p.shape[0] != rows {
                return Err(TensorError::ShapeMismatch {
                    op: "concat_cols",
                    lhs: parts[0].shape.clone(),
                    rhs: p.shape.clone(),
                });
            }
            cols += p.shape[1];
        }
        let mut data = scratch::take_buffer(rows * cols);
        for r in 0..rows {
            for p in parts {
                let w = p.shape[1];
                data.extend_from_slice(&p.data[r * w..(r + 1) * w]);
            }
        }
        Ok(NdArray {
            shape: vec![rows, cols],
            data,
        })
    }

    /// Copies rows `[start, end)` of a rank-2 array.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] if the range exceeds the row
    /// count or is reversed.
    pub fn slice_rows(&self, start: usize, end: usize) -> Result<Self, TensorError> {
        if self.ndim() != 2 {
            return Err(TensorError::RankMismatch {
                op: "slice_rows",
                expected: 2,
                actual: self.ndim(),
            });
        }
        if end > self.shape[0] || start > end {
            return Err(TensorError::IndexOutOfBounds {
                op: "slice_rows",
                index: end.max(start),
                bound: self.shape[0] + 1,
            });
        }
        let n = self.shape[1];
        Ok(NdArray {
            shape: vec![end - start, n],
            data: scratch::take_from_iter(
                (end - start) * n,
                self.data[start * n..end * n].iter().copied(),
            ),
        })
    }

    /// Copies columns `[start, end)` of a rank-2 array.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] if the range exceeds the
    /// column count or is reversed.
    pub fn slice_cols(&self, start: usize, end: usize) -> Result<Self, TensorError> {
        if self.ndim() != 2 {
            return Err(TensorError::RankMismatch {
                op: "slice_cols",
                expected: 2,
                actual: self.ndim(),
            });
        }
        let (m, n) = (self.shape[0], self.shape[1]);
        if start > end {
            return Err(TensorError::InvalidArgument {
                op: "slice_cols",
                message: format!("reversed column range {start}..{end}"),
            });
        }
        if end > n {
            return Err(TensorError::IndexOutOfBounds {
                op: "slice_cols",
                index: end,
                bound: n + 1,
            });
        }
        let width = end - start;
        let data = scratch::take_from_iter(
            m * width,
            (0..m).flat_map(|i| self.data[i * n + start..i * n + end].iter().copied()),
        );
        Ok(NdArray {
            shape: vec![m, width],
            data,
        })
    }

    /// Gathers the given rows of a rank-2 array in order.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] if any index exceeds the row
    /// count.
    pub fn gather_rows(&self, indices: &[usize]) -> Result<Self, TensorError> {
        if self.ndim() != 2 {
            return Err(TensorError::RankMismatch {
                op: "gather_rows",
                expected: 2,
                actual: self.ndim(),
            });
        }
        let (m, n) = (self.shape[0], self.shape[1]);
        let mut data = scratch::take_buffer(indices.len() * n);
        for &i in indices {
            if i >= m {
                return Err(TensorError::IndexOutOfBounds {
                    op: "gather_rows",
                    index: i,
                    bound: m,
                });
            }
            data.extend_from_slice(&self.data[i * n..(i + 1) * n]);
        }
        Ok(NdArray {
            shape: vec![indices.len(), n],
            data,
        })
    }

    // ------------------------------------------------------------------
    // Convolution helpers (single sample, CHW layout)
    // ------------------------------------------------------------------

    /// Rearranges a `[C, H, W]` image into convolution columns.
    ///
    /// Output shape is `[C*kh*kw, oh*ow]` where
    /// `oh = (H + 2*pad - kh)/stride + 1` (and likewise for `ow`), matching a
    /// GEMM-based convolution `weight[oc, C*kh*kw] x cols`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-CHW inputs and
    /// [`TensorError::InvalidArgument`] if the kernel/stride configuration
    /// yields no output pixels.
    pub fn im2col(
        &self,
        kh: usize,
        kw: usize,
        stride: usize,
        pad: usize,
    ) -> Result<Self, TensorError> {
        if self.ndim() != 3 {
            return Err(TensorError::RankMismatch {
                op: "im2col",
                expected: 3,
                actual: self.ndim(),
            });
        }
        let (c, h, w) = (self.shape[0], self.shape[1], self.shape[2]);
        let (oh, ow) = conv_out_dims(h, w, kh, kw, stride, pad)?;
        let mut out = scratch::take_zeroed(c * kh * kw * oh * ow);
        im2col_into(&self.data, h, w, kh, kw, stride, pad, oh, ow, &mut out);
        Ok(NdArray {
            shape: vec![c * kh * kw, oh * ow],
            data: out,
        })
    }

    /// Inverse of [`NdArray::im2col`]: scatter-adds columns back into a
    /// `[C, H, W]` image. Used for convolution input gradients.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `self` is not the column
    /// matrix produced by `im2col` with the same geometry.
    #[allow(clippy::too_many_arguments)]
    pub fn col2im(
        &self,
        c: usize,
        h: usize,
        w: usize,
        kh: usize,
        kw: usize,
        stride: usize,
        pad: usize,
    ) -> Result<Self, TensorError> {
        let (oh, ow) = conv_out_dims(h, w, kh, kw, stride, pad)?;
        if self.shape != [c * kh * kw, oh * ow] {
            return Err(TensorError::ShapeMismatch {
                op: "col2im",
                lhs: self.shape.clone(),
                rhs: vec![c * kh * kw, oh * ow],
            });
        }
        let mut out = scratch::take_zeroed(c * h * w);
        let ow_total = oh * ow;
        if h * w > 0 {
            let src = &self.data;
            // Scatter-adds from different kernel offsets overlap within a
            // channel but never across channels, so the adjoint parallelises
            // over channel planes. Cost hint: kh*kw adds land on each output
            // element.
            bliss_parallel::par_chunks(&mut out, h * w, kh * kw, |ci, plane| {
                for ki in 0..kh {
                    for kj in 0..kw {
                        let row = (ci * kh + ki) * kw + kj;
                        for oi in 0..oh {
                            let ii = (oi * stride + ki) as isize - pad as isize;
                            if ii < 0 || ii as usize >= h {
                                continue;
                            }
                            for oj in 0..ow {
                                let jj = (oj * stride + kj) as isize - pad as isize;
                                if jj < 0 || jj as usize >= w {
                                    continue;
                                }
                                plane[ii as usize * w + jj as usize] +=
                                    src[row * ow_total + oi * ow + oj];
                            }
                        }
                    }
                }
            });
        }
        Ok(NdArray {
            shape: vec![c, h, w],
            data: out,
        })
    }

    /// Nearest-neighbour 2x upsampling of a `[C, H, W]` image.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-CHW inputs.
    pub fn upsample2x(&self) -> Result<Self, TensorError> {
        if self.ndim() != 3 {
            return Err(TensorError::RankMismatch {
                op: "upsample2x",
                expected: 3,
                actual: self.ndim(),
            });
        }
        let (c, h, w) = (self.shape[0], self.shape[1], self.shape[2]);
        let mut out = scratch::take_zeroed(c * 4 * h * w);
        let (oh, ow) = (2 * h, 2 * w);
        if ow > 0 {
            let src = &self.data;
            bliss_parallel::par_chunks(&mut out, ow, 1, |row, out_row| {
                let i = row % oh;
                let ci = row / oh;
                for (j, v) in out_row.iter_mut().enumerate() {
                    *v = src[(ci * h + i / 2) * w + j / 2];
                }
            });
        }
        Ok(NdArray {
            shape: vec![c, oh, ow],
            data: out,
        })
    }

    /// 2x2 block-sum pooling of a `[C, H, W]` image (the adjoint of
    /// [`NdArray::upsample2x`]). `H` and `W` must be even.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] on odd spatial dimensions.
    pub fn block_sum2x(&self) -> Result<Self, TensorError> {
        if self.ndim() != 3 {
            return Err(TensorError::RankMismatch {
                op: "block_sum2x",
                expected: 3,
                actual: self.ndim(),
            });
        }
        let (c, h, w) = (self.shape[0], self.shape[1], self.shape[2]);
        if h % 2 != 0 || w % 2 != 0 {
            return Err(TensorError::InvalidArgument {
                op: "block_sum2x",
                message: format!("spatial dims must be even, got {h}x{w}"),
            });
        }
        let (oh, ow) = (h / 2, w / 2);
        let mut out = scratch::take_zeroed(c * oh * ow);
        if oh * ow > 0 {
            let src = &self.data;
            // Cost hint 4: each pooled output element sums a 2x2 block.
            bliss_parallel::par_chunks(&mut out, oh * ow, 4, |ci, plane| {
                for i in 0..h {
                    for j in 0..w {
                        plane[(i / 2) * ow + j / 2] += src[(ci * h + i) * w + j];
                    }
                }
            });
        }
        Ok(NdArray {
            shape: vec![c, oh, ow],
            data: out,
        })
    }

    // ------------------------------------------------------------------
    // Comparison helpers
    // ------------------------------------------------------------------

    /// Returns `true` if every element differs from `other` by at most `tol`.
    pub fn approx_eq(&self, other: &Self, tol: f32) -> bool {
        self.shape == other.shape
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(&a, &b)| (a - b).abs() <= tol)
    }

    /// Largest absolute difference against `other`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn max_abs_diff(&self, other: &Self) -> Result<f32, TensorError> {
        self.check_same_shape(other, "max_abs_diff")?;
        Ok(self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| (a - b).abs())
            .fold(0.0, f32::max))
    }
}

/// Computes `out = a x b` for row-major `a: [m, k]`, `b: [k, n]` into
/// `out: [m, n]` (with `m` implied by `out.len() / n`). Every output element
/// is stored exactly once, so `out`'s prior contents never leak through.
///
/// The cache-blocked kernel runs parallel over row blocks with a per-element
/// cost hint of `k`, so tiny products (historically `m*k*n < 32^3`) stay on
/// the calling thread while real GEMMs fan out — the work partitioning and
/// per-element accumulation order (ascending k) depend only on the shapes,
/// so the result is bit-identical for every thread count. A prefix of `a` is
/// probed for sparsity: sparse-sampled patch tensors are mostly zeros and
/// earn a skip-test in the inner loop; dense operands run the branch-free
/// kernel. The choice depends only on the data, never on the thread count.
pub fn matmul_into(a: &[f32], b: &[f32], k: usize, n: usize, out: &mut [f32]) {
    if out.is_empty() {
        return;
    }
    if k == 0 {
        // An empty inner dimension produces an all-zero product. The tape
        // path starts from a zeroed pool buffer, but planned execution reuses
        // arena bytes, so the fill must be explicit.
        out.fill(0.0);
        return;
    }
    let probe = &a[..a.len().min(4096)];
    let zeros = probe.iter().filter(|&&x| x == 0.0).count();
    let sparse = zeros * 8 > probe.len();
    bliss_parallel::par_chunks(out, MATMUL_ROW_BLOCK * n, k, |block, out_block| {
        matmul_block(a, b, k, n, block * MATMUL_ROW_BLOCK, out_block, sparse);
    });
}

/// Rows of the output matrix computed by one parallel matmul task.
pub(crate) const MATMUL_ROW_BLOCK: usize = 32;
/// Column-tile width of the register-blocked micro-kernel (two 8-lane SIMD
/// vectors on AVX2-class hardware).
const MATMUL_COL_TILE: usize = 16;

/// Computes `out_block = a[i0.., :] * b` for one row block of the output.
///
/// Rows are processed four at a time against `MATMUL_COL_TILE`-wide column
/// tiles: the 4x16 accumulator tile lives in registers across the whole k
/// loop and is stored exactly once, so the kernel is FLOP-bound instead of
/// store-bound. The 1–3 rows past the last full group run through the same
/// tile with zero rows padding it (see [`matmul_quad`]). The per-element
/// accumulation order depends only on the shapes (k ascending within each
/// row-group/column-tile), never on the thread count, so results are
/// bit-identical on 1 or N threads.
///
/// With `sparse` set, all-zero columns of `a` are skipped inside the inner
/// loop (exact for finite `b`: the skipped updates add `+0.0`); the dense
/// variant omits the test so the loop stays branch-free.
pub(crate) fn matmul_block(
    a: &[f32],
    b: &[f32],
    k: usize,
    n: usize,
    i0: usize,
    out_block: &mut [f32],
    sparse: bool,
) {
    let rows = out_block.len() / n;
    let full = rows - rows % 4;
    for (g, quad) in out_block[..full * n].chunks_exact_mut(4 * n).enumerate() {
        matmul_quad::<4>(a, b, k, n, (i0 + 4 * g) * k, quad, sparse);
    }
    let (base, rest) = ((i0 + full) * k, &mut out_block[full * n..rows * n]);
    match rows - full {
        1 => matmul_quad::<1>(a, b, k, n, base, rest, sparse),
        2 => matmul_quad::<2>(a, b, k, n, base, rest, sparse),
        3 => matmul_quad::<3>(a, b, k, n, base, rest, sparse),
        _ => {}
    }
}

/// One 4-row group of [`matmul_block`]: the `R` output rows in `out`
/// (`R * n` elements) from the `R` rows of `a` starting at `base`. Rows
/// `R..4` of the tile are zero padding that reads nothing and is never
/// written back. A zero operand that the sparse skip does not skip adds
/// `+0.0` to an accumulator that starts at `+0.0` and so is never `-0.0`;
/// for finite operands every real row therefore gets the bits of its own
/// k-ascending sum, whatever the other rows of its group hold.
#[inline(always)]
fn matmul_quad<const R: usize>(
    a: &[f32],
    b: &[f32],
    k: usize,
    n: usize,
    base: usize,
    out: &mut [f32],
    sparse: bool,
) {
    // `R` is a constant, so the padding branch folds away.
    let a_at = |row: usize, kk: usize| {
        if row < R {
            a[base + row * k + kk]
        } else {
            0.0
        }
    };
    let mut store = |jt: usize, acc: [&[f32]; 4]| {
        for (row, accr) in acc.iter().enumerate().take(R) {
            out[row * n + jt..row * n + jt + accr.len()].copy_from_slice(accr);
        }
    };
    let mut jt = 0;
    // Full-width column tiles: fixed-size accumulator arrays keep the
    // inner loop free of bounds checks and friendly to vectorisation.
    while jt + MATMUL_COL_TILE <= n {
        let mut acc0 = [0.0f32; MATMUL_COL_TILE];
        let mut acc1 = [0.0f32; MATMUL_COL_TILE];
        let mut acc2 = [0.0f32; MATMUL_COL_TILE];
        let mut acc3 = [0.0f32; MATMUL_COL_TILE];
        macro_rules! quad_k_loop {
            ($skip_zero:expr) => {
                for kk in 0..k {
                    let (a0, a1, a2, a3) = (a_at(0, kk), a_at(1, kk), a_at(2, kk), a_at(3, kk));
                    if $skip_zero && a0 == 0.0 && a1 == 0.0 && a2 == 0.0 && a3 == 0.0 {
                        continue;
                    }
                    let bt: &[f32; MATMUL_COL_TILE] = b[kk * n + jt..kk * n + jt + MATMUL_COL_TILE]
                        .try_into()
                        .unwrap();
                    for j in 0..MATMUL_COL_TILE {
                        acc0[j] += a0 * bt[j];
                        acc1[j] += a1 * bt[j];
                        acc2[j] += a2 * bt[j];
                        acc3[j] += a3 * bt[j];
                    }
                }
            };
        }
        if sparse {
            quad_k_loop!(true);
        } else {
            quad_k_loop!(false);
        }
        store(jt, [&acc0, &acc1, &acc2, &acc3]);
        jt += MATMUL_COL_TILE;
    }
    // Remainder columns (width < MATMUL_COL_TILE). The zero-skip is gated
    // on the same `sparse` probe as the full tiles, so non-finite `b`
    // values propagate uniformly across one output matrix.
    if jt < n {
        let w = n - jt;
        let mut acc = [[0.0f32; MATMUL_COL_TILE]; 4];
        for kk in 0..k {
            let bt = &b[kk * n + jt..kk * n + n];
            for (row, accr) in acc.iter_mut().enumerate() {
                let av = a_at(row, kk);
                if sparse && av == 0.0 {
                    continue;
                }
                for j in 0..w {
                    accr[j] += av * bt[j];
                }
            }
        }
        store(jt, [&acc[0][..w], &acc[1][..w], &acc[2][..w], &acc[3][..w]]);
    }
}

/// Computes `out = a x b^T` for row-major `a: [m, k]`, `b: [p, k]` into
/// `out: [m, p]`, packing `b` transposed into the per-thread matmul workspace
/// exactly as [`NdArray::matmul_transposed`] does. Shared by the tape method
/// and the planned executor so both produce bit-identical scores.
pub(crate) fn matmul_transposed_into(a: &[f32], b: &[f32], k: usize, p: usize, out: &mut [f32]) {
    if k == 0 {
        // Same all-zero-product convention as `matmul_into`.
        out.fill(0.0);
        return;
    }
    crate::workspace::with_pack_buf(k * p, |bt| {
        // Pack b^T: bt[j, i] = b[i, j]. Same gather loop as `transpose`,
        // writing into the reused workspace instead of a fresh array.
        bliss_parallel::par_chunks(bt, p, 1, |j, row| {
            for (i, v) in row.iter_mut().enumerate() {
                *v = b[i * k + j];
            }
        });
        matmul_into(a, bt, k, p, out);
    });
}

/// Transposes row-major `src: [m, n]` into `out: [n, m]`. Every output
/// element is stored, so `out` need not be zeroed beforehand.
pub(crate) fn transpose_into(src: &[f32], m: usize, n: usize, out: &mut [f32]) {
    if m > 0 {
        // Each output row j gathers input column j; rows are disjoint, so
        // the transpose parallelises over output rows.
        bliss_parallel::par_chunks(out, m, 1, |j, row| {
            for (i, v) in row.iter_mut().enumerate() {
                *v = src[i * n + j];
            }
        });
    }
}

/// Row-wise numerically-stabilised softmax of `src` (rows of length `n`)
/// into the same-size `out`. `src` and `out` must not alias.
///
/// Each row takes its max, writes the shifted row, exponentiates it in place
/// with the gather-first block form of [`exp_f32`] (`exp_f32_in_place`),
/// sums the exponentials in order and divides. Rows go in blocks of
/// `SOFTMAX_ROWS`, whose sums run as interleaved chains: each row still
/// adds its own values in column order, so only the latency overlaps.
pub fn softmax_rows_into(src: &[f32], n: usize, out: &mut [f32]) {
    if n == 0 {
        return;
    }
    // Cost hint 8: exp + normalisation per element.
    bliss_parallel::par_chunks(out, SOFTMAX_ROWS * n, 8, |b, block| {
        let src = &src[b * SOFTMAX_ROWS * n..][..block.len()];
        for (out_row, row) in block.chunks_exact_mut(n).zip(src.chunks_exact(n)) {
            let mx = row_max(row);
            for (o, &v) in out_row.iter_mut().zip(row) {
                *o = v - mx;
            }
        }
        exp_f32_in_place(block);
        let rows = block.len() / n;
        let mut sums = [0.0f32; SOFTMAX_ROWS];
        for j in 0..n {
            for (r, s) in sums[..rows].iter_mut().enumerate() {
                *s += block[r * n + j];
            }
        }
        for (out_row, &denom) in block.chunks_exact_mut(n).zip(&sums) {
            for v in out_row.iter_mut() {
                *v /= denom;
            }
        }
    });
}

/// Rows per softmax block: enough independent sum chains to hide the add
/// latency.
const SOFTMAX_ROWS: usize = 4;

/// The largest value of `row` ignoring NaNs (`-inf` for none), as eight
/// lanes so the loop vectorises. Lanes may settle on the other zero than a
/// serial fold when the max is a zero of either sign; softmax subtracts the
/// max and exponentiates, and `exp(±0) = 1`, so its output bits are the
/// same either way.
fn row_max(row: &[f32]) -> f32 {
    let mut lanes = [f32::NEG_INFINITY; 8];
    let chunks = row.chunks_exact(8);
    let tail = chunks
        .remainder()
        .iter()
        .fold(f32::NEG_INFINITY, |m, &v| m.max(v));
    for c in chunks {
        for (l, &v) in lanes.iter_mut().zip(c) {
            *l = l.max(v);
        }
    }
    lanes.iter().fold(tail, |m, &l| m.max(l))
}

/// One attention head over one block of `n` rows: `out = softmax(q k^T *
/// scale) v` for row-major `q`, `k`, `v`, `out`: `[n, head_dim]`, with the
/// scaled scores in `scores` and the attention matrix in `attn` (both
/// `[n, n]`, fully overwritten).
///
/// The tape's attention op and the planned `BlockAttention` step both call
/// this for every (span, head) pair, so they return the same bits: the
/// scores product ([`NdArray::matmul_transposed`]'s kernel), the scale,
/// the softmax and the value product ([`NdArray::matmul`]'s kernel) in that
/// order, each GEMM probing its own left operand for sparsity.
///
/// # Panics
///
/// Panics if `head_dim == 0` or a slice length disagrees with `n`.
pub fn attention_head_into(
    q: &[f32],
    k: &[f32],
    v: &[f32],
    head_dim: usize,
    scale: f32,
    scores: &mut [f32],
    attn: &mut [f32],
    out: &mut [f32],
) {
    let n = q.len() / head_dim;
    assert!(
        k.len() == n * head_dim && v.len() == n * head_dim && out.len() == n * head_dim,
        "q, k, v and out must all be [n, head_dim]"
    );
    assert!(
        scores.len() == n * n && attn.len() == n * n,
        "scores and attn must be [n, n]"
    );
    matmul_transposed_into(q, k, head_dim, n, scores);
    for s in scores.iter_mut() {
        *s *= scale;
    }
    softmax_rows_into(scores, n, attn);
    matmul_into(attn, v, n, head_dim, out);
}

/// Checks that `spans` is a non-empty, in-order, gap-free exact cover of
/// `0..rows` by non-empty `(start, end)` ranges — the row layout of
/// block-diagonal attention.
///
/// # Errors
///
/// [`TensorError::InvalidArgument`] naming `op` otherwise.
pub fn validate_spans(
    spans: &[(usize, usize)],
    rows: usize,
    op: &'static str,
) -> Result<(), TensorError> {
    let mut cursor = 0usize;
    for &(s, e) in spans {
        if s != cursor || e <= s {
            return Err(TensorError::InvalidArgument {
                op,
                message: format!(
                    "spans must exactly cover 0..{rows} in order without gaps \
                     or empty entries; got {spans:?}"
                ),
            });
        }
        cursor = e;
    }
    if spans.is_empty() || cursor != rows {
        return Err(TensorError::InvalidArgument {
            op,
            message: format!("spans {spans:?} do not cover all {rows} rows"),
        });
    }
    Ok(())
}

/// Adds the length-`n` `row` to every `n`-wide row of `out` in place — the
/// broadcast at the heart of [`NdArray::add_row`]. A trailing partial row
/// gets the matching prefix of `row`.
pub fn add_row_assign(out: &mut [f32], row: &[f32]) {
    for out_row in out.chunks_mut(row.len()) {
        for (v, &r) in out_row.iter_mut().zip(row) {
            *v += r;
        }
    }
}

/// Rearranges a `[C, H, W]` image (`src`, with `C` implied by `src.len()`)
/// into convolution columns `[C*kh*kw, oh*ow]`; the geometry must satisfy
/// [`conv_out_dims`]. Every output element is stored (zeros in the padding
/// halo), so `out` need not be zeroed beforehand.
#[allow(clippy::too_many_arguments)]
pub(crate) fn im2col_into(
    src: &[f32],
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
    oh: usize,
    ow: usize,
    out: &mut [f32],
) {
    let ow_total = oh * ow;
    if ow_total > 0 {
        // One output row per (channel, kernel offset): rows are disjoint,
        // so the lowering parallelises over them.
        bliss_parallel::par_chunks(out, ow_total, 1, |row, out_row| {
            let kj = row % kw;
            let ki = (row / kw) % kh;
            let ci = row / (kh * kw);
            for oi in 0..oh {
                let ii = (oi * stride + ki) as isize - pad as isize;
                for oj in 0..ow {
                    let jj = (oj * stride + kj) as isize - pad as isize;
                    let v = if ii >= 0 && jj >= 0 && (ii as usize) < h && (jj as usize) < w {
                        src[(ci * h + ii as usize) * w + jj as usize]
                    } else {
                        0.0
                    };
                    out_row[oi * ow + oj] = v;
                }
            }
        });
    }
}

/// Copies `indices`-selected rows of the row-major `src: [m, n]` into `out`
/// in order, with the same bounds check (and error) as
/// [`NdArray::gather_rows`].
///
/// # Errors
///
/// Returns [`TensorError::IndexOutOfBounds`] if any index exceeds `m`.
pub fn gather_rows_into(
    src: &[f32],
    m: usize,
    n: usize,
    indices: &[usize],
    out: &mut [f32],
) -> Result<(), TensorError> {
    debug_assert_eq!(out.len(), indices.len() * n);
    for (r, &i) in indices.iter().enumerate() {
        if i >= m {
            return Err(TensorError::IndexOutOfBounds {
                op: "gather_rows",
                index: i,
                bound: m,
            });
        }
        out[r * n..(r + 1) * n].copy_from_slice(&src[i * n..(i + 1) * n]);
    }
    Ok(())
}

/// `sqrt(2/pi)` of the tanh GELU approximation — shared by the tape forward/
/// backward and the planned executor so their expression trees agree bit for
/// bit.
const GELU_A: f32 = 0.797_884_6;
/// Cubic coefficient of the tanh GELU approximation.
const GELU_B: f32 = 0.044_715;

/// The tanh-approximated GELU of one element. Always inlined, so the slice
/// kernels below vectorise; callers outside them use those kernels.
#[inline(always)]
pub(crate) fn gelu_scalar(v: f32) -> f32 {
    let u = GELU_A * (v + GELU_B * v * v * v);
    0.5 * v * (1.0 + tanh_f32(u))
}

/// Elements per GELU chunk on the pool. The op is elementwise, so any fixed
/// partition gives the same bytes at every thread count.
const GELU_CHUNK: usize = 4096;
/// Work-estimate cost of one GELU element for the pool's serial cutoff.
const GELU_COST: usize = 8;

/// The tanh-approximated GELU of `src` into the same-length `out`.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn gelu_into(src: &[f32], out: &mut [f32]) {
    assert_eq!(src.len(), out.len(), "gelu_into: length mismatch");
    bliss_parallel::par_chunks(out, GELU_CHUNK, GELU_COST, |ci, chunk| {
        let src = &src[ci * GELU_CHUNK..ci * GELU_CHUNK + chunk.len()];
        for (o, &x) in chunk.iter_mut().zip(src) {
            *o = gelu_scalar(x);
        }
    });
}

/// The tanh-approximated GELU of `src` into `out`, and its derivative into
/// `d`, from one `tanh` per element. `out` is bit-identical to
/// [`gelu_into`].
///
/// # Panics
///
/// Panics if the lengths differ.
pub(crate) fn gelu_with_derivative_into(src: &[f32], out: &mut [f32], d: &mut [f32]) {
    assert!(
        src.len() == out.len() && src.len() == d.len(),
        "gelu: length mismatch"
    );
    #[inline(always)]
    fn run(src: &[f32], out: &mut [f32], d: &mut [f32]) {
        for ((o, dv), &v) in out.iter_mut().zip(d.iter_mut()).zip(src) {
            let u = GELU_A * (v + GELU_B * v * v * v);
            let t = tanh_f32(u);
            *o = 0.5 * v * (1.0 + t);
            let du = GELU_A * (1.0 + 3.0 * GELU_B * v * v);
            *dv = 0.5 * (1.0 + t) + 0.5 * v * (1.0 - t * t) * du;
        }
    }
    // Whole chunks go to the pool; the short tail runs here.
    let whole = src.len() / GELU_CHUNK * GELU_CHUNK;
    let (out, out_tail) = out.split_at_mut(whole);
    let (d, d_tail) = d.split_at_mut(whole);
    bliss_parallel::par_zip_rows(out, GELU_CHUNK, d, GELU_CHUNK, GELU_COST, |ci, o, d| {
        run(&src[ci * GELU_CHUNK..(ci + 1) * GELU_CHUNK], o, d);
    });
    run(&src[whole..], out_tail, d_tail);
}

/// The tanh-approximated GELU of `data`, in place.
pub fn gelu_assign(data: &mut [f32]) {
    bliss_parallel::par_chunks(data, GELU_CHUNK, GELU_COST, |_, chunk| {
        for v in chunk.iter_mut() {
            *v = gelu_scalar(*v);
        }
    });
}

/// The logistic sigmoid, elementwise.
pub(crate) fn sigmoid_scalar(v: f32) -> f32 {
    1.0 / (1.0 + exp_f32(-v))
}

/// Mean and inverse standard deviation of one layer-norm row, in exactly the
/// accumulation order the tape's `layer_norm` uses — extracting the helper
/// (instead of re-deriving the stats in the executor) is what pins the
/// planned path to the tape bit for bit.
pub(crate) fn layer_norm_row_stats(row: &[f32], eps: f32) -> (f32, f32) {
    let n = row.len();
    let mu: f32 = row.iter().sum::<f32>() / n as f32;
    let var: f32 = row.iter().map(|&v| (v - mu) * (v - mu)).sum::<f32>() / n as f32;
    (mu, 1.0 / (var + eps).sqrt())
}

/// Output spatial dimensions of a convolution.
///
/// # Errors
///
/// Returns [`TensorError::InvalidArgument`] if the kernel is larger than the
/// padded input or any parameter is zero where it must not be.
pub(crate) fn conv_out_dims(
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
) -> Result<(usize, usize), TensorError> {
    if kh == 0 || kw == 0 || stride == 0 {
        return Err(TensorError::InvalidArgument {
            op: "conv",
            message: "kernel and stride must be non-zero".into(),
        });
    }
    let ph = h + 2 * pad;
    let pw = w + 2 * pad;
    if kh > ph || kw > pw {
        return Err(TensorError::InvalidArgument {
            op: "conv",
            message: format!("kernel {kh}x{kw} larger than padded input {ph}x{pw}"),
        });
    }
    Ok(((ph - kh) / stride + 1, (pw - kw) / stride + 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn from_vec_validates_shape() {
        assert!(NdArray::from_vec(vec![1.0, 2.0], &[3]).is_err());
        assert!(NdArray::from_vec(vec![1.0, 2.0, 3.0], &[3]).is_ok());
    }

    #[test]
    fn zeros_ones_full() {
        assert_eq!(NdArray::zeros(&[2, 2]).sum(), 0.0);
        assert_eq!(NdArray::ones(&[2, 2]).sum(), 4.0);
        assert_eq!(NdArray::full(&[3], 2.5).sum(), 7.5);
    }

    #[test]
    fn eye_is_identity_under_matmul() {
        let a = NdArray::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let i = NdArray::eye(3);
        assert_eq!(a.matmul(&i).unwrap().data(), a.data());
    }

    #[test]
    fn matmul_known_result() {
        let a = NdArray::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let b = NdArray::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_rejects_bad_inner_dim() {
        let a = NdArray::zeros(&[2, 3]);
        let b = NdArray::zeros(&[4, 2]);
        assert!(matches!(
            a.matmul(&b),
            Err(TensorError::ShapeMismatch { op: "matmul", .. })
        ));
    }

    #[test]
    fn transpose_round_trips() {
        let a = NdArray::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let t = a.transpose().unwrap();
        assert_eq!(t.shape(), &[3, 2]);
        assert_eq!(t.at(0, 1), 4.0);
        assert_eq!(t.transpose().unwrap(), a);
    }

    #[test]
    fn elementwise_arithmetic() {
        let a = NdArray::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = NdArray::from_vec(vec![3.0, 5.0], &[2]).unwrap();
        assert_eq!(a.add(&b).unwrap().data(), &[4.0, 7.0]);
        assert_eq!(b.sub(&a).unwrap().data(), &[2.0, 3.0]);
        assert_eq!(a.mul(&b).unwrap().data(), &[3.0, 10.0]);
        assert_eq!(b.div(&a).unwrap().data(), &[3.0, 2.5]);
        assert_eq!(a.scale(2.0).data(), &[2.0, 4.0]);
        assert_eq!(a.add_scalar(1.0).data(), &[2.0, 3.0]);
        assert_eq!(a.neg().data(), &[-1.0, -2.0]);
    }

    #[test]
    fn add_row_broadcasts() {
        let a = NdArray::zeros(&[2, 3]);
        let r = NdArray::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap();
        let out = a.add_row(&r).unwrap();
        assert_eq!(out.data(), &[1.0, 2.0, 3.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn sum_rows_and_argmax() {
        let a = NdArray::from_vec(vec![1.0, 5.0, 2.0, 4.0, 0.0, 3.0], &[2, 3]).unwrap();
        assert_eq!(a.sum_rows().unwrap().data(), &[5.0, 5.0, 5.0]);
        assert_eq!(a.argmax_rows().unwrap(), vec![1, 0]);
    }

    /// Softmax one row at a time with a serial max and `exp_f32` per
    /// element: the formulation `softmax_rows_into` must match bit for bit.
    fn softmax_reference(src: &[f32], n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; src.len()];
        for (o, row) in out.chunks_mut(n).zip(src.chunks(n)) {
            let mx = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            for (o, &v) in o.iter_mut().zip(row) {
                *o = exp_f32(v - mx);
            }
            let denom = o.iter().fold(0.0f32, |acc, &e| acc + e);
            for v in o.iter_mut() {
                *v /= denom;
            }
        }
        out
    }

    #[test]
    fn softmax_rows_matches_the_per_row_formulation_bitwise() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let edges = [
            0.0,
            -0.0,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -200.0,
            1e-40,
        ];
        for n in [1usize, 3, 8, 9, 17, 84] {
            for m in 1..=9 {
                let mut src = NdArray::randn(&mut rng, &[m, n], 6.0).data().to_vec();
                // Zero-max rows of both signs, and rows seeded with edges.
                src[..n].fill(-0.0);
                if m > 1 {
                    src[n..2 * n].iter_mut().for_each(|v| *v = -v.abs());
                    src[n + n / 2] = 0.0;
                }
                for (i, &e) in edges.iter().enumerate() {
                    let at = (i * 7 + 2 * n) % src.len();
                    src[at] = e;
                }
                let mut out = vec![0.0f32; m * n];
                bliss_parallel::with_thread_count(2, || {
                    bliss_parallel::with_min_parallel_work(0, || {
                        softmax_rows_into(&src, n, &mut out)
                    })
                });
                // Bits, with every NaN as one value: LLVM may commute an
                // add, and which NaN operand propagates is unspecified.
                let bits = |v: &[f32]| {
                    v.iter()
                        .map(|x| if x.is_nan() { u32::MAX } else { x.to_bits() })
                        .collect::<Vec<_>>()
                };
                assert_eq!(
                    bits(&out),
                    bits(&softmax_reference(&src, n)),
                    "m = {m}, n = {n}"
                );
            }
        }
    }

    #[test]
    fn softmax_rows_is_normalised_and_stable() {
        let a = NdArray::from_vec(vec![1000.0, 1001.0, -50.0, -50.0], &[2, 2]).unwrap();
        let s = a.softmax_rows().unwrap();
        let row0: f32 = s.data()[..2].iter().sum();
        let row1: f32 = s.data()[2..].iter().sum();
        assert!((row0 - 1.0).abs() < 1e-6);
        assert!((row1 - 1.0).abs() < 1e-6);
        assert!(s.data()[1] > s.data()[0]);
        assert!((s.data()[2] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn concat_and_slice_rows() {
        let a = NdArray::from_vec(vec![1.0, 2.0], &[1, 2]).unwrap();
        let b = NdArray::from_vec(vec![3.0, 4.0, 5.0, 6.0], &[2, 2]).unwrap();
        let c = NdArray::concat_rows(&[&a, &b]).unwrap();
        assert_eq!(c.shape(), &[3, 2]);
        assert_eq!(c.slice_rows(1, 3).unwrap(), b);
    }

    #[test]
    fn slice_cols_selects_columns() {
        let a = NdArray::from_vec((0..12).map(|x| x as f32).collect(), &[3, 4]).unwrap();
        let c = a.slice_cols(1, 3).unwrap();
        assert_eq!(c.shape(), &[3, 2]);
        assert_eq!(c.data(), &[1.0, 2.0, 5.0, 6.0, 9.0, 10.0]);
        assert!(a.slice_cols(3, 5).is_err());
        assert!(a.slice_cols(2, 1).is_err());
        // Round-trip with concat_cols.
        let left = a.slice_cols(0, 1).unwrap();
        let right = a.slice_cols(1, 4).unwrap();
        assert_eq!(NdArray::concat_cols(&[&left, &right]).unwrap(), a);
    }

    #[test]
    fn matmul_transposed_matches_explicit_transpose() {
        let mut rng = StdRng::seed_from_u64(17);
        for &(m, k, p) in &[(1, 1, 1), (3, 7, 5), (20, 64, 33), (9, 30, 2)] {
            let a = NdArray::randn(&mut rng, &[m, k], 1.0);
            let b = NdArray::randn(&mut rng, &[p, k], 1.0);
            let fast = a.matmul_transposed(&b).unwrap();
            let reference = a.matmul(&b.transpose().unwrap()).unwrap();
            assert_eq!(fast.shape(), &[m, p]);
            assert!(
                fast.approx_eq(&reference, 1e-4),
                "m={m} k={k} p={p}: diff {}",
                fast.max_abs_diff(&reference).unwrap()
            );
            let serial = bliss_parallel::with_thread_count(1, || a.matmul_transposed(&b).unwrap());
            let par = bliss_parallel::with_thread_count(8, || a.matmul_transposed(&b).unwrap());
            assert_eq!(serial.data(), par.data());
        }
        assert!(NdArray::zeros(&[2, 3])
            .matmul_transposed(&NdArray::zeros(&[2, 4]))
            .is_err());
    }

    #[test]
    fn matmul_bit_identical_across_thread_counts() {
        let mut rng = StdRng::seed_from_u64(99);
        // Sizes straddling the micro-kernel (4-row) and row-block (32-row)
        // boundaries, plus non-square and tiny shapes.
        for &(m, k, n) in &[(1, 1, 1), (3, 5, 2), (33, 64, 17), (70, 40, 96)] {
            let a = NdArray::randn(&mut rng, &[m, k], 1.0);
            let b = NdArray::randn(&mut rng, &[k, n], 1.0);
            let serial = bliss_parallel::with_thread_count(1, || a.matmul(&b).unwrap());
            for threads in [2, 8] {
                let par = bliss_parallel::with_thread_count(threads, || a.matmul(&b).unwrap());
                assert_eq!(serial.data(), par.data(), "m={m} k={k} n={n} t={threads}");
            }
        }
    }

    #[test]
    fn blocked_matmul_matches_naive_reference() {
        let mut rng = StdRng::seed_from_u64(5);
        for &(m, k, n) in &[(7, 9, 11), (34, 33, 35), (64, 128, 32)] {
            let a = NdArray::randn(&mut rng, &[m, k], 1.0);
            let b = NdArray::randn(&mut rng, &[k, n], 1.0);
            let fast = a.matmul(&b).unwrap();
            // Naive j-loop reference.
            let mut reference = NdArray::zeros(&[m, n]);
            for i in 0..m {
                for j in 0..n {
                    let mut acc = 0.0f32;
                    for kk in 0..k {
                        acc += a.at(i, kk) * b.at(kk, j);
                    }
                    reference.set_at(i, j, acc);
                }
            }
            assert!(
                fast.approx_eq(&reference, 1e-3),
                "m={m} k={k} n={n}: max diff {}",
                fast.max_abs_diff(&reference).unwrap()
            );
        }
    }

    #[test]
    fn remainder_rows_match_naive_reference_bitwise() {
        // 1..=7 rows cover every remainder (0–3 rows) after zero or one full
        // 4-row group; the block starts at row 1 of `a` so `i0` is exercised.
        let mut rng = StdRng::seed_from_u64(27);
        for rows in 1..=7 {
            for k in [1, 48, 1040] {
                for n in [4, 16, 20, 192] {
                    let b = NdArray::randn(&mut rng, &[k, n], 1.0);
                    for zeroed in [false, true] {
                        let mut a = NdArray::randn(&mut rng, &[rows + 1, k], 1.0)
                            .data()
                            .to_vec();
                        if zeroed {
                            // Mostly zeros, so whole tile columns are skipped.
                            for (i, v) in a.iter_mut().enumerate() {
                                if (i * 7 + i / 5) % 4 != 0 {
                                    *v = 0.0;
                                }
                            }
                        }
                        let mut want = vec![0u32; rows * n];
                        for i in 0..rows {
                            for j in 0..n {
                                let mut acc = 0.0f32;
                                for kk in 0..k {
                                    acc += a[(i + 1) * k + kk] * b.at(kk, j);
                                }
                                want[i * n + j] = acc.to_bits();
                            }
                        }
                        for sparse in [false, true] {
                            let mut out = vec![f32::NAN; rows * n];
                            matmul_block(&a, b.data(), k, n, 1, &mut out, sparse);
                            let got: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
                            assert_eq!(
                                got, want,
                                "rows={rows} k={k} n={n} zeroed={zeroed} sparse={sparse}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn concat_cols_interleaves() {
        let a = NdArray::from_vec(vec![1.0, 2.0], &[2, 1]).unwrap();
        let b = NdArray::from_vec(vec![3.0, 4.0], &[2, 1]).unwrap();
        let c = NdArray::concat_cols(&[&a, &b]).unwrap();
        assert_eq!(c.data(), &[1.0, 3.0, 2.0, 4.0]);
    }

    #[test]
    fn gather_rows_selects() {
        let a = NdArray::from_vec(vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0], &[3, 2]).unwrap();
        let g = a.gather_rows(&[2, 0]).unwrap();
        assert_eq!(g.data(), &[4.0, 5.0, 0.0, 1.0]);
        assert!(a.gather_rows(&[3]).is_err());
    }

    #[test]
    fn im2col_identity_kernel() {
        // 1x1 kernel, stride 1, no pad: columns are just the image pixels.
        let img = NdArray::from_vec((0..12).map(|x| x as f32).collect(), &[1, 3, 4]).unwrap();
        let cols = img.im2col(1, 1, 1, 0).unwrap();
        assert_eq!(cols.shape(), &[1, 12]);
        assert_eq!(cols.data(), img.data());
    }

    #[test]
    fn im2col_matches_manual_patch() {
        let img = NdArray::from_vec((0..9).map(|x| x as f32).collect(), &[1, 3, 3]).unwrap();
        let cols = img.im2col(2, 2, 1, 0).unwrap();
        assert_eq!(cols.shape(), &[4, 4]);
        // First column = top-left 2x2 patch flattened kernel-major.
        assert_eq!(cols.at(0, 0), 0.0);
        assert_eq!(cols.at(1, 0), 1.0);
        assert_eq!(cols.at(2, 0), 3.0);
        assert_eq!(cols.at(3, 0), 4.0);
    }

    #[test]
    fn col2im_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random x, y (adjoint test).
        let mut rng = StdRng::seed_from_u64(7);
        let x = NdArray::randn(&mut rng, &[2, 5, 4], 1.0);
        let cols = x.im2col(3, 3, 2, 1).unwrap();
        let y = NdArray::randn(&mut rng, cols.shape(), 1.0);
        let lhs = cols.dot(&y).unwrap();
        let back = y.col2im(2, 5, 4, 3, 3, 2, 1).unwrap();
        let rhs = x.dot(&back).unwrap();
        assert!((lhs - rhs).abs() < 1e-3, "lhs={lhs} rhs={rhs}");
    }

    #[test]
    fn upsample_blocksum_adjoint() {
        let mut rng = StdRng::seed_from_u64(3);
        let x = NdArray::randn(&mut rng, &[1, 3, 2], 1.0);
        let up = x.upsample2x().unwrap();
        assert_eq!(up.shape(), &[1, 6, 4]);
        let y = NdArray::randn(&mut rng, up.shape(), 1.0);
        let lhs = up.dot(&y).unwrap();
        let rhs = x.dot(&y.block_sum2x().unwrap()).unwrap();
        assert!((lhs - rhs).abs() < 1e-4);
    }

    #[test]
    fn randn_moments_are_sane() {
        let mut rng = StdRng::seed_from_u64(42);
        let a = NdArray::randn(&mut rng, &[10_000], 2.0);
        assert!(a.mean().abs() < 0.1);
        let var = a.map(|x| x * x).mean() - a.mean() * a.mean();
        assert!((var - 4.0).abs() < 0.3, "var={var}");
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = NdArray::uniform(&mut rng, &[1000], -1.0, 3.0);
        assert!(a.min() >= -1.0);
        assert!(a.max() < 3.0);
    }

    #[test]
    fn reshape_preserves_order() {
        let a = NdArray::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let r = a.reshape(&[4]).unwrap();
        assert_eq!(r.data(), a.data());
        assert!(a.reshape(&[3]).is_err());
    }

    #[test]
    fn conv_out_dims_rejects_oversized_kernel() {
        assert!(conv_out_dims(2, 2, 5, 5, 1, 0).is_err());
        assert_eq!(conv_out_dims(5, 5, 3, 3, 1, 1).unwrap(), (5, 5));
        assert_eq!(conv_out_dims(8, 8, 2, 2, 2, 0).unwrap(), (4, 4));
    }

    #[test]
    fn debug_is_never_empty() {
        let s = format!("{:?}", NdArray::zeros(&[2]));
        assert!(s.contains("NdArray"));
        let s = format!("{:?}", NdArray::zeros(&[100]));
        assert!(s.contains("..."));
    }
}
