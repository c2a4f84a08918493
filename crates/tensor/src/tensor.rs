//! The dense row-major [`Tensor`] type and its core operations.

use adaptivfloat::par;
use std::fmt;

/// Depth-tile size of both GEMMs: one `KC × NC` tile of the right-hand
/// matrix (256 KiB) stays L2-resident while every row of the left block
/// streams against it, and the microkernel's accumulators go back to
/// `out` between depth tiles (an exact f32 store and reload, so the
/// tile size cannot change a bit). Shared with the packed-weight kernel
/// in [`crate::packed`], whose decoded tile is this size.
pub(crate) const KC: usize = 128;
/// Column-tile size of both GEMMs: `NC` columns bound the right-hand
/// tile above, and the packed layout stores its codes per `NC`-column
/// tile.
pub(crate) const NC: usize = 512;
/// Products below this many multiply-accumulates run serially — thread
/// spawn cost dominates under ~2ⁱ⁸ MACs (≈ a 64³ matmul).
const PAR_MIN_MACS: usize = 1 << 18;

/// Rows per parallel block: the whole matrix (one chunk → serial) when
/// the product is small, otherwise an even split across threads.
fn par_row_block(m: usize, k: usize, n: usize) -> usize {
    let macs = m * k * n;
    if par::num_threads() == 1 || macs < PAR_MIN_MACS {
        m.max(1)
    } else {
        m.div_ceil(par::num_threads()).max(1)
    }
}

/// Blocked product of a row block: `out_rows += a_rows · b` where
/// `a_rows` is `rows × k`, `b` is `k × n`, `out_rows` is `rows × n` (all
/// row-major, `out_rows` pre-zeroed, `n > 0`), one
/// [`gemm_tile`](adaptivfloat::simd::gemm_tile) call per `KC × NC`
/// tile. Accumulation order per output element is ascending `k`,
/// identical to the naive loop, so results are bit-identical at any
/// tile size or thread count.
fn matmul_rows_kernel(a_rows: &[f32], b: &[f32], out_rows: &mut [f32], k: usize, n: usize) {
    let rows = out_rows.len() / n;
    let mut k0 = 0;
    while k0 < k {
        let k1 = (k0 + KC).min(k);
        let mut j0 = 0;
        while j0 < n {
            let j1 = (j0 + NC).min(n);
            adaptivfloat::simd::gemm_tile(
                [rows, k1 - k0, j1 - j0],
                &a_rows[k0..],
                k,
                &b[k0 * n + j0..],
                n,
                &mut out_rows[j0..],
                n,
            );
            j0 = j1;
        }
        k0 = k1;
    }
}

/// Four-lane dot product; the independent accumulators break the serial
/// FP-add dependency chain so the loop can saturate the FMA pipes.
fn dot4(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = [0.0f32; 4];
    let mut ai = a.chunks_exact(4);
    let mut bi = b.chunks_exact(4);
    for (ca, cb) in (&mut ai).zip(&mut bi) {
        acc[0] += ca[0] * cb[0];
        acc[1] += ca[1] * cb[1];
        acc[2] += ca[2] * cb[2];
        acc[3] += ca[3] * cb[3];
    }
    let tail: f32 = ai
        .remainder()
        .iter()
        .zip(bi.remainder())
        .map(|(&x, &y)| x * y)
        .sum();
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

/// Row block of `a · bᵀ`: both operands have row length `k`; every output
/// element is an independent dot product (`n > 0`).
fn matmul_t_rows_kernel(a_rows: &[f32], b: &[f32], out_rows: &mut [f32], k: usize, n: usize) {
    for (i, out_row) in out_rows.chunks_mut(n).enumerate() {
        let a_row = &a_rows[i * k..(i + 1) * k];
        for (j, o) in out_row.iter_mut().enumerate() {
            *o = dot4(a_row, &b[j * k..(j + 1) * k]);
        }
    }
}

/// A dense, row-major `f32` tensor of arbitrary rank (rank 1 and 2 are the
/// common cases in this workspace).
///
/// # Examples
///
/// ```
/// use af_tensor::Tensor;
///
/// let t = Tensor::zeros(&[2, 3]);
/// assert_eq!(t.shape(), &[2, 3]);
/// assert_eq!(t.len(), 6);
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Vec<usize>,
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?}", self.shape)?;
        if self.data.len() <= 16 {
            write!(f, " {:?}", self.data)
        } else {
            write!(f, " [{:?}, ... {} elems]", &self.data[..8], self.data.len())
        }
    }
}

impl Tensor {
    /// Build a tensor from a flat vector and a shape.
    ///
    /// # Panics
    ///
    /// Panics if the element count of `shape` does not match `data.len()`.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Self {
        let numel: usize = shape.iter().product();
        assert_eq!(
            data.len(),
            numel,
            "shape {:?} needs {} elements, got {}",
            shape,
            numel,
            data.len()
        );
        Tensor {
            data,
            shape: shape.to_vec(),
        }
    }

    /// All-zero tensor of the given shape.
    pub fn zeros(shape: &[usize]) -> Self {
        Tensor {
            data: vec![0.0; shape.iter().product()],
            shape: shape.to_vec(),
        }
    }

    /// All-one tensor of the given shape.
    pub fn ones(shape: &[usize]) -> Self {
        Tensor::full(shape, 1.0)
    }

    /// Constant-filled tensor.
    pub fn full(shape: &[usize], value: f32) -> Self {
        Tensor {
            data: vec![value; shape.iter().product()],
            shape: shape.to_vec(),
        }
    }

    /// The `k × k` identity matrix.
    pub fn eye(k: usize) -> Self {
        let mut t = Tensor::zeros(&[k, k]);
        for i in 0..k {
            t.data[i * k + i] = 1.0;
        }
        t
    }

    /// Shape as a slice.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Rank (number of dimensions).
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Number of rows; rank-1 tensors count as a single row.
    ///
    /// # Panics
    ///
    /// Panics if the rank is above 2.
    pub fn rows(&self) -> usize {
        match self.shape.len() {
            0 | 1 => 1,
            2 => self.shape[0],
            r => panic!("rows() needs rank <= 2, got rank {r}"),
        }
    }

    /// Number of columns (the last dimension); scalars count as 1 column.
    pub fn cols(&self) -> usize {
        self.shape.last().copied().unwrap_or(1)
    }

    /// Flat immutable view of the data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Flat mutable view of the data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume into the flat data vector.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element at a 2-D index.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2 or the index is out of bounds.
    pub fn at(&self, r: usize, c: usize) -> f32 {
        assert_eq!(self.rank(), 2, "at() needs a rank-2 tensor");
        self.data[r * self.shape[1] + c]
    }

    /// Set the element at a 2-D index.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2 or the index is out of bounds.
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        assert_eq!(self.rank(), 2, "set() needs a rank-2 tensor");
        let cols = self.shape[1];
        self.data[r * cols + c] = v;
    }

    /// Reinterpret with a new shape of equal element count.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(&self, shape: &[usize]) -> Tensor {
        Tensor::from_vec(self.data.clone(), shape)
    }

    /// Row `r` of a rank-2 tensor as a slice.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2 or `r` is out of bounds.
    pub fn row(&self, r: usize) -> &[f32] {
        assert_eq!(self.rank(), 2, "row() needs a rank-2 tensor");
        let cols = self.shape[1];
        &self.data[r * cols..(r + 1) * cols]
    }

    /// Matrix transpose of a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2.
    pub fn transpose(&self) -> Tensor {
        assert_eq!(self.rank(), 2, "transpose() needs a rank-2 tensor");
        let (r, c) = (self.shape[0], self.shape[1]);
        let mut out = Tensor::zeros(&[c, r]);
        for i in 0..r {
            for j in 0..c {
                out.data[j * r + i] = self.data[i * c + j];
            }
        }
        out
    }

    /// Matrix product `self · other` for rank-2 tensors.
    ///
    /// # Panics
    ///
    /// Panics if shapes are not `[m, k] · [k, n]`.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let (m, n) = (self.shape[0], other.shape[1]);
        let mut out = vec![0.0f32; m * n];
        self.matmul_into(other, &mut out);
        Tensor::from_vec(out, &[m, n])
    }

    /// Matrix product `self · other` written into a caller-provided
    /// buffer, bit-identical to [`matmul`](Self::matmul). `out` is fully
    /// overwritten; no heap allocation happens here, which lets hot loops
    /// (the serving engine, batched model evaluation) reuse scratch
    /// buffers across calls.
    ///
    /// # Panics
    ///
    /// Panics if shapes are not `[m, k] · [k, n]` or `out.len() != m * n`.
    pub fn matmul_into(&self, other: &Tensor, out: &mut [f32]) {
        assert_eq!(self.rank(), 2, "matmul lhs must be rank 2");
        Tensor::matmul_slice_into(&self.data, self.shape[0], self.shape[1], other, out);
    }

    /// Matrix product `a · b` where the left operand is a raw row-major
    /// `m × k` slice — the scratch-buffer form of
    /// [`matmul_into`](Self::matmul_into), bit-identical to it. `out` is
    /// fully overwritten and nothing is allocated.
    ///
    /// # Panics
    ///
    /// Panics if `b` is not rank 2 with `k` rows, `a.len() != m * k`, or
    /// `out.len() != m * b.cols()`.
    pub fn matmul_slice_into(a: &[f32], m: usize, k: usize, b: &Tensor, out: &mut [f32]) {
        assert_eq!(b.rank(), 2, "matmul rhs must be rank 2");
        let (k2, n) = (b.shape[0], b.shape[1]);
        assert_eq!(k, k2, "matmul inner dims: {k} vs {k2}");
        assert_eq!(a.len(), m * k, "matmul_slice_into lhs length");
        assert_eq!(out.len(), m * n, "matmul_slice_into output length");
        out.fill(0.0);
        if n > 0 {
            let rows_per = par_row_block(m, k, n);
            par::par_chunks_mut(out, rows_per * n, |ci, out_chunk| {
                let row0 = ci * rows_per;
                let rows = out_chunk.len() / n;
                let a_rows = &a[row0 * k..(row0 + rows) * k];
                matmul_rows_kernel(a_rows, &b.data, out_chunk, k, n);
            });
        }
    }

    /// `selfᵀ · other` without materializing the transpose.
    ///
    /// # Panics
    ///
    /// Panics if shapes are not `[k, m]ᵀ · [k, n]`.
    pub fn t_matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.rank(), 2, "t_matmul lhs must be rank 2");
        assert_eq!(other.rank(), 2, "t_matmul rhs must be rank 2");
        let (k, m) = (self.shape[0], self.shape[1]);
        let (k2, n) = (other.shape[0], other.shape[1]);
        assert_eq!(k, k2, "t_matmul inner dims: {k} vs {k2}");
        let mut out = vec![0.0f32; m * n];
        for p in 0..k {
            let a_row = &self.data[p * m..(p + 1) * m];
            let b_row = &other.data[p * n..(p + 1) * n];
            for (i, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let out_row = &mut out[i * n..(i + 1) * n];
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
        Tensor::from_vec(out, &[m, n])
    }

    /// `self · otherᵀ` without materializing the transpose.
    ///
    /// # Panics
    ///
    /// Panics if shapes are not `[m, k] · [n, k]ᵀ`.
    pub fn matmul_t(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.rank(), 2, "matmul_t lhs must be rank 2");
        assert_eq!(other.rank(), 2, "matmul_t rhs must be rank 2");
        let (m, k) = (self.shape[0], self.shape[1]);
        let (n, k2) = (other.shape[0], other.shape[1]);
        assert_eq!(k, k2, "matmul_t inner dims: {k} vs {k2}");
        let mut out = vec![0.0f32; m * n];
        if n > 0 {
            let rows_per = par_row_block(m, k, n);
            par::par_chunks_mut(&mut out, rows_per * n, |ci, out_chunk| {
                let row0 = ci * rows_per;
                let rows = out_chunk.len() / n;
                let a_rows = &self.data[row0 * k..(row0 + rows) * k];
                matmul_t_rows_kernel(a_rows, &other.data, out_chunk, k, n);
            });
        }
        Tensor::from_vec(out, &[m, n])
    }

    /// Elementwise binary op with an identically-shaped tensor.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn zip_map(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(self.shape, other.shape, "shape mismatch in zip_map");
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| f(a, b))
            .collect();
        Tensor {
            data,
            shape: self.shape.clone(),
        }
    }

    /// Elementwise addition.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a + b)
    }

    /// Elementwise subtraction.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a * b)
    }

    /// Add a length-`cols` row vector to every row of a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not rank 2 or `bias.len() != cols`.
    pub fn add_row(&self, bias: &Tensor) -> Tensor {
        assert_eq!(self.rank(), 2, "add_row needs a rank-2 tensor");
        let cols = self.shape[1];
        assert_eq!(bias.len(), cols, "bias length must equal columns");
        let mut out = self.clone();
        for row in out.data.chunks_mut(cols) {
            for (o, &b) in row.iter_mut().zip(bias.data()) {
                *o += b;
            }
        }
        out
    }

    /// Elementwise map.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            data: self.data.iter().map(|&v| f(v)).collect(),
            shape: self.shape.clone(),
        }
    }

    /// Multiply every element by a scalar.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|v| v * s)
    }

    /// In-place `self += other * s` (axpy), used by optimizers.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn axpy(&mut self, s: f32, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "shape mismatch in axpy");
        for (o, &v) in self.data.iter_mut().zip(&other.data) {
            *o += s * v;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (`0.0` for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Column-wise sum of a rank-2 tensor → rank-1 of length `cols`
    /// (the bias-gradient reduction).
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2.
    pub fn sum_rows(&self) -> Tensor {
        assert_eq!(self.rank(), 2, "sum_rows needs a rank-2 tensor");
        let cols = self.shape[1];
        let mut out = vec![0.0f32; cols];
        for row in self.data.chunks(cols) {
            for (o, &v) in out.iter_mut().zip(row) {
                *o += v;
            }
        }
        Tensor::from_vec(out, &[cols])
    }

    /// Extract columns `[start, start+width)` of a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2 or the range exceeds the width.
    pub fn slice_cols(&self, start: usize, width: usize) -> Tensor {
        assert_eq!(self.rank(), 2, "slice_cols needs a rank-2 tensor");
        let (r, c) = (self.shape[0], self.shape[1]);
        assert!(start + width <= c, "column range out of bounds");
        let mut out = Vec::with_capacity(r * width);
        for row in self.data.chunks(c) {
            out.extend_from_slice(&row[start..start + width]);
        }
        Tensor::from_vec(out, &[r, width])
    }

    /// Concatenate rank-2 tensors left-to-right (equal row counts).
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or row counts differ.
    pub fn concat_cols(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "concat_cols needs at least one tensor");
        let rows = parts[0].rows();
        for p in parts {
            assert_eq!(p.rank(), 2, "concat_cols needs rank-2 tensors");
            assert_eq!(p.rows(), rows, "row count mismatch in concat_cols");
        }
        let total_cols: usize = parts.iter().map(|p| p.cols()).sum();
        let mut out = Vec::with_capacity(rows * total_cols);
        for r in 0..rows {
            for p in parts {
                out.extend_from_slice(p.row(r));
            }
        }
        Tensor::from_vec(out, &[rows, total_cols])
    }

    /// Largest absolute value (`0.0` for an empty tensor).
    pub fn abs_max(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &v| m.max(v.abs()))
    }

    /// Index of the maximum element of each row → `Vec` of length `rows`.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2.
    pub fn argmax_rows(&self) -> Vec<usize> {
        assert_eq!(self.rank(), 2, "argmax_rows needs a rank-2 tensor");
        let cols = self.shape[1];
        self.data
            .chunks(cols)
            .map(|row| {
                row.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite values"))
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_known() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn transpose_variants_agree() {
        let a = Tensor::from_vec((0..6).map(|i| i as f32).collect(), &[2, 3]);
        let b = Tensor::from_vec((0..12).map(|i| (i as f32).sin()).collect(), &[3, 4]);
        let direct = a.matmul(&b);
        let via_t = a.transpose().t_matmul(&b);
        for (x, y) in direct.data().iter().zip(via_t.data()) {
            assert!((x - y).abs() < 1e-5);
        }
        let bt = b.transpose();
        let via_mt = a.matmul_t(&bt);
        for (x, y) in direct.data().iter().zip(via_mt.data()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn identity_is_neutral() {
        let a = Tensor::from_vec((0..9).map(|i| i as f32 * 0.3).collect(), &[3, 3]);
        assert_eq!(a.matmul(&Tensor::eye(3)).data(), a.data());
        assert_eq!(Tensor::eye(3).matmul(&a).data(), a.data());
    }

    #[test]
    #[should_panic(expected = "inner dims")]
    fn matmul_shape_mismatch_panics() {
        Tensor::zeros(&[2, 3]).matmul(&Tensor::zeros(&[2, 3]));
    }

    #[test]
    fn matmul_into_bit_identical_to_matmul() {
        // Large enough to cross the parallel threshold and exercise the
        // blocked kernel; scratch starts dirty to prove full overwrite.
        let (m, k, n) = (65, 130, 520);
        let a = Tensor::from_vec(
            (0..m * k).map(|i| (i as f32 * 0.37).sin()).collect(),
            &[m, k],
        );
        let b = Tensor::from_vec(
            (0..k * n).map(|i| (i as f32 * 0.11).cos()).collect(),
            &[k, n],
        );
        let reference = a.matmul(&b);
        let mut scratch = vec![f32::NAN; m * n];
        a.matmul_into(&b, &mut scratch);
        assert_eq!(scratch, reference.data());
        scratch.fill(7.0);
        Tensor::matmul_slice_into(a.data(), m, k, &b, &mut scratch);
        assert_eq!(scratch, reference.data());
    }

    #[test]
    fn add_row_broadcasts() {
        let x = Tensor::zeros(&[2, 3]);
        let b = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]);
        let y = x.add_row(&b);
        assert_eq!(y.data(), &[1.0, 2.0, 3.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn sum_rows_reduces_columns() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert_eq!(x.sum_rows().data(), &[5.0, 7.0, 9.0]);
    }

    #[test]
    fn slice_and_concat_roundtrip() {
        let x = Tensor::from_vec((0..12).map(|i| i as f32).collect(), &[3, 4]);
        let left = x.slice_cols(0, 2);
        let right = x.slice_cols(2, 2);
        let back = Tensor::concat_cols(&[&left, &right]);
        assert_eq!(back.data(), x.data());
    }

    #[test]
    fn argmax_rows_basic() {
        let x = Tensor::from_vec(vec![0.1, 0.9, 0.0, 1.0, -1.0, 0.5], &[2, 3]);
        assert_eq!(x.argmax_rows(), vec![1, 0]);
    }

    #[test]
    fn axpy_updates_in_place() {
        let mut x = Tensor::ones(&[2]);
        let g = Tensor::from_vec(vec![2.0, -4.0], &[2]);
        x.axpy(-0.5, &g);
        assert_eq!(x.data(), &[0.0, 3.0]);
    }

    #[test]
    fn reshape_preserves_data() {
        let x = Tensor::from_vec((0..6).map(|i| i as f32).collect(), &[2, 3]);
        let y = x.reshape(&[3, 2]);
        assert_eq!(y.shape(), &[3, 2]);
        assert_eq!(y.data(), x.data());
    }

    #[test]
    #[should_panic(expected = "needs 6 elements")]
    fn from_vec_shape_mismatch_panics() {
        Tensor::from_vec(vec![1.0; 5], &[2, 3]);
    }

    #[test]
    fn abs_max_and_mean() {
        let x = Tensor::from_vec(vec![-3.0, 1.0, 2.0], &[3]);
        assert_eq!(x.abs_max(), 3.0);
        assert_eq!(x.mean(), 0.0);
    }
}
