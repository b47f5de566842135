//! Dense, row-major, 2-D `f32` matrices.
//!
//! Everything in the Overton tensor engine is a matrix: a scalar is `[1, 1]`,
//! a vector is `[1, n]`, a token sequence embedded to dimension `d` is
//! `[seq_len, d]`, and a set of `k` candidate entities is `[k, d]`. Keeping a
//! single concrete rank makes the autograd rules small and easy to verify by
//! finite differences.

use crate::kernels;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A dense row-major matrix of `f32` values.
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer of {} elements cannot back a {rows}x{cols} matrix",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Creates a `rows x cols` matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self { rows, cols, data: vec![value; rows * cols] }
    }

    /// Creates a zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self::full(rows, cols, 0.0)
    }

    /// Creates a matrix of ones.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Self::full(rows, cols, 1.0)
    }

    /// Creates a `1 x 1` matrix holding a single scalar.
    pub fn scalar(value: f32) -> Self {
        Self::from_vec(1, 1, vec![value])
    }

    /// Creates a `1 x n` row vector.
    pub fn row_vector(values: &[f32]) -> Self {
        Self::from_vec(1, values.len(), values.to_vec())
    }

    /// Creates an identity matrix of size `n`.
    pub fn eye(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from nested rows.
    ///
    /// # Panics
    /// Panics if rows are ragged or empty.
    pub fn from_rows(rows: &[Vec<f32>]) -> Self {
        assert!(!rows.is_empty(), "from_rows requires at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows in from_rows");
            data.extend_from_slice(r);
        }
        Self::from_vec(rows.len(), cols, data)
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the matrix has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat row-major view of the data.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat row-major view of the data.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Borrows row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r` as a slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Returns the single element of a `1 x 1` matrix.
    ///
    /// # Panics
    /// Panics if the matrix is not `1 x 1`.
    pub fn scalar_value(&self) -> f32 {
        assert_eq!(self.shape(), (1, 1), "scalar_value on a {}x{} matrix", self.rows, self.cols);
        self.data[0]
    }

    /// Element-wise map, producing a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Self { rows: self.rows, cols: self.cols, data: self.data.iter().map(|&x| f(x)).collect() }
    }

    /// Element-wise combine with another matrix of the same shape.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn zip(&self, other: &Self, f: impl Fn(f32, f32) -> f32) -> Self {
        assert_eq!(self.shape(), other.shape(), "zip shape mismatch");
        Self {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().zip(&other.data).map(|(&a, &b)| f(a, b)).collect(),
        }
    }

    /// `self += other`, element-wise.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Self) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// `self += alpha * other`, element-wise (axpy).
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn axpy(&mut self, alpha: f32, other: &Self) {
        assert_eq!(self.shape(), other.shape(), "axpy shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Scales all elements in place.
    pub fn scale_inplace(&mut self, alpha: f32) {
        for a in &mut self.data {
            *a *= alpha;
        }
    }

    /// Matrix product `self * other`.
    ///
    /// Dispatches to the cache-blocked kernels (`kernels` module) above
    /// a size cutoff; small shapes run the register-accumulating row
    /// kernel. Both accumulate each output element in the same
    /// strictly-increasing-k order, so the result is bit-identical
    /// regardless of dispatch.
    ///
    /// # Panics
    /// Panics if `self.cols() != other.rows()`.
    pub fn matmul(&self, other: &Self) -> Self {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let (m, k, n) = (self.rows, self.cols, other.cols);
        let mut out = vec![0.0f32; m * n];
        matmul_into(m, k, n, &self.data, &other.data, &mut out);
        Self::from_vec(m, n, out)
    }

    /// Matrix product `self * other^T`.
    ///
    /// Kernel dispatch as in [`Matrix::matmul`]; below the cutoff `other`
    /// is transposed once for the row kernel, except for a single row
    /// (an LSTM step's `dh * Wh^T`), which is `n` dot products over
    /// contiguous rows: cheaper than the transpose alone (1.9 vs 2.9 µs at
    /// `1x128 * (32x128)^T`). Every path sums in increasing `k` order.
    ///
    /// # Panics
    /// Panics if `self.cols() != other.cols()`.
    pub fn matmul_transpose_b(&self, other: &Self) -> Self {
        assert_eq!(
            self.cols, other.cols,
            "matmul_transpose_b shape mismatch: {}x{} * ({}x{})^T",
            self.rows, self.cols, other.rows, other.cols
        );
        let (m, k, n) = (self.rows, self.cols, other.rows);
        let mut out = vec![0.0f32; m * n];
        if kernels::use_blocked(m, k, n) {
            kernels::gemm_bt(m, k, n, &self.data, &other.data, &mut out);
        } else if m == 1 {
            for (j, slot) in out.iter_mut().enumerate() {
                let b = &other.data[j * k..(j + 1) * k];
                *slot = self.data.iter().zip(b).fold(0.0, |acc, (&x, &y)| acc + x * y);
            }
        } else {
            let b = other.transpose();
            kernels::gemm_rows(m, k, n, &self.data, (k, 1), &b.data, &mut out);
        }
        Self::from_vec(m, n, out)
    }

    /// Matrix product `self^T * other`.
    ///
    /// Kernel dispatch as in [`Matrix::matmul`].
    ///
    /// # Panics
    /// Panics if `self.rows() != other.rows()`.
    pub fn transpose_a_matmul(&self, other: &Self) -> Self {
        assert_eq!(
            self.rows, other.rows,
            "transpose_a_matmul shape mismatch: ({}x{})^T * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let (m, k, n) = (self.cols, self.rows, other.cols);
        let mut out = vec![0.0f32; m * n];
        matmul_at_into(m, k, n, &self.data, &other.data, &mut out);
        Self::from_vec(m, n, out)
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Self {
        let mut out = Self::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements; `0.0` for an empty matrix.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Index of the maximum element within row `r` (first on ties).
    pub fn row_argmax(&self, r: usize) -> usize {
        let row = self.row(r);
        let mut best = 0;
        for (j, &v) in row.iter().enumerate() {
            if v > row[best] {
                best = j;
            }
        }
        best
    }

    /// Column-wise mean over rows: `m x n -> 1 x n`.
    ///
    /// # Panics
    /// Panics if the matrix has no rows.
    pub fn mean_rows(&self) -> Self {
        assert!(self.rows > 0, "mean_rows over an empty matrix");
        let inv = 1.0 / self.rows as f32;
        let mut out = Self::zeros(1, self.cols);
        for r in 0..self.rows {
            for (o, &x) in out.data.iter_mut().zip(self.row(r)) {
                *o += x * inv;
            }
        }
        out
    }

    /// Column-wise max over rows: `m x n -> 1 x n`, plus the row each
    /// column's maximum came from (first on ties).
    ///
    /// # Panics
    /// Panics if the matrix has no rows.
    pub fn max_rows(&self) -> (Self, Vec<u32>) {
        assert!(self.rows > 0, "max_rows over an empty matrix");
        let mut out = Self::zeros(1, self.cols);
        let mut argmax = vec![0u32; self.cols];
        for j in 0..self.cols {
            let mut best = f32::NEG_INFINITY;
            for r in 0..self.rows {
                if self[(r, j)] > best {
                    best = self[(r, j)];
                    argmax[j] = r as u32;
                }
            }
            out[(0, j)] = best;
        }
        (out, argmax)
    }

    /// The rows in reverse order (used by backward RNN passes).
    pub fn reverse_rows(&self) -> Self {
        let rev: Vec<usize> = (0..self.rows).rev().collect();
        self.select_rows(&rev)
    }

    /// Sliding-window unfold: row `t` of the result is the concatenation of
    /// rows `t - pad .. t - pad + k`, with zeros outside the matrix.
    /// `x.im2row(k, k/2) * W` is a same-length 1-D convolution.
    pub fn im2row(&self, k: usize, pad: usize) -> Self {
        let (t_len, d) = self.shape();
        let mut out = Self::zeros(t_len, k * d);
        for t in 0..t_len {
            for o in 0..k {
                let src = t as isize + o as isize - pad as isize;
                if src >= 0 && (src as usize) < t_len {
                    out.row_mut(t)[o * d..(o + 1) * d].copy_from_slice(self.row(src as usize));
                }
            }
        }
        out
    }

    /// Largest absolute difference against another matrix of the same shape.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn max_abs_diff(&self, other: &Self) -> f32 {
        assert_eq!(self.shape(), other.shape(), "max_abs_diff shape mismatch");
        self.data.iter().zip(&other.data).map(|(a, b)| (a - b).abs()).fold(0.0f32, f32::max)
    }

    /// Stacks `parts` top to bottom.
    ///
    /// # Panics
    /// Panics if `parts` is empty or the column counts differ.
    pub fn concat_rows<'a>(parts: impl IntoIterator<Item = &'a Matrix>) -> Self {
        let mut parts = parts.into_iter();
        let first = parts.next().expect("concat_rows needs at least one part");
        let (mut rows, mut data) = (first.rows, first.data.clone());
        for p in parts {
            assert_eq!(first.cols, p.cols, "concat_rows column mismatch");
            rows += p.rows;
            data.extend_from_slice(&p.data);
        }
        Self::from_vec(rows, first.cols, data)
    }

    /// Joins `parts` left to right.
    ///
    /// # Panics
    /// Panics if `parts` is empty or the row counts differ.
    pub fn concat_cols<'a, I>(parts: I) -> Self
    where
        I: IntoIterator<Item = &'a Matrix>,
        I::IntoIter: Clone,
    {
        let parts = parts.into_iter();
        let rows = parts.clone().next().expect("concat_cols needs at least one part").rows;
        assert!(parts.clone().all(|p| p.rows == rows), "concat_cols row mismatch");
        let cols = parts.clone().map(|p| p.cols).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for p in parts.clone() {
                data.extend_from_slice(p.row(r));
            }
        }
        Self::from_vec(rows, cols, data)
    }

    /// Adds the `1 x cols` row `bias` to every row, in place.
    ///
    /// # Panics
    /// Panics unless `bias` is a row vector as wide as `self`.
    pub fn add_row(&mut self, bias: &Self) {
        assert_eq!(bias.rows, 1, "bias must be a row vector");
        assert_eq!(self.cols, bias.cols, "bias width mismatch");
        for r in 0..self.rows {
            for (o, &b) in self.row_mut(r).iter_mut().zip(&bias.data) {
                *o += b;
            }
        }
    }

    /// Returns a new matrix containing the given rows, in order.
    ///
    /// # Panics
    /// Panics if any index is out of bounds.
    pub fn select_rows(&self, indices: &[usize]) -> Self {
        let mut out = Self::zeros(indices.len(), self.cols);
        for (i, &r) in indices.iter().enumerate() {
            assert!(r < self.rows, "select_rows index {r} out of {} rows", self.rows);
            out.row_mut(i).copy_from_slice(self.row(r));
        }
        out
    }

    /// Returns columns `lo..hi` as a new matrix.
    ///
    /// # Panics
    /// Panics if the range is invalid.
    pub fn slice_cols(&self, lo: usize, hi: usize) -> Self {
        assert!(
            lo <= hi && hi <= self.cols,
            "slice_cols range {lo}..{hi} out of {} cols",
            self.cols
        );
        let mut out = Self::zeros(self.rows, hi - lo);
        for r in 0..self.rows {
            out.row_mut(r).copy_from_slice(&self.row(r)[lo..hi]);
        }
        out
    }

    /// True if all elements are finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

/// `out += a * b` over row-major slices: `a` is `m x k`, `b` is `k x n`
/// and `out` is `m x n`. This is [`Matrix::matmul`]'s kernel dispatch
/// writing into a caller's buffer, such as a slot of an inference arena:
/// onto a zeroed `out` it is the bits `matmul` returns.
///
/// # Panics
/// Panics if a slice length disagrees with the shape.
pub fn matmul_into(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    assert!(
        a.len() == m * k && b.len() == k * n && out.len() == m * n,
        "matmul_into shape mismatch: {m}x{k} * {k}x{n}"
    );
    if kernels::use_blocked(m, k, n) {
        kernels::gemm(m, k, n, a, b, out);
    } else {
        kernels::gemm_rows(m, k, n, a, (k, 1), b, out);
    }
}

/// `out += a^T * b` over row-major slices: `at` is `a` stored `k x m`,
/// `b` is `k x n` and `out` is `m x n`. This is
/// [`Matrix::transpose_a_matmul`]'s kernel dispatch writing into a caller's
/// buffer, such as one example's weight gradient `X_b^T * G_b` read in
/// place from a training arena: onto a zeroed `out` it is the bits
/// `transpose_a_matmul` returns.
///
/// # Panics
/// Panics if a slice length disagrees with the shape.
pub fn matmul_at_into(m: usize, k: usize, n: usize, at: &[f32], b: &[f32], out: &mut [f32]) {
    assert!(
        at.len() == k * m && b.len() == k * n && out.len() == m * n,
        "matmul_at_into shape mismatch: ({k}x{m})^T * {k}x{n}"
    );
    if kernels::use_blocked(m, k, n) {
        kernels::gemm_at(m, k, n, at, b, out);
    } else {
        kernels::gemm_rows(m, k, n, at, (1, m), b, out);
    }
}

/// Dot product of two equal-length slices.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f32;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            write!(f, "  [")?;
            for c in 0..self.cols.min(12) {
                write!(f, "{:>9.4}", self[(r, c)])?;
                if c + 1 < self.cols.min(12) {
                    write!(f, ", ")?;
                }
            }
            if self.cols > 12 {
                write!(f, ", ...")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > 8 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(m.shape(), (2, 2));
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m[(1, 0)], 3.0);
        assert_eq!(m.row(1), &[3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "buffer of 3 elements")]
    fn from_vec_rejects_bad_length() {
        let _ = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[vec![7.0, 8.0], vec![9.0, 10.0], vec![11.0, 12.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(a.matmul(&Matrix::eye(2)), a);
        assert_eq!(Matrix::eye(2).matmul(&a), a);
    }

    #[test]
    fn matmul_transpose_variants_agree_with_explicit_transpose() {
        let a = Matrix::from_rows(&[vec![1.0, -2.0, 0.5], vec![0.0, 3.0, 1.0]]);
        let b = Matrix::from_rows(&[vec![2.0, 1.0, -1.0], vec![0.5, 0.0, 4.0]]);
        assert_eq!(a.matmul_transpose_b(&b), a.matmul(&b.transpose()));
        let c = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(a.transpose_a_matmul(&c).shape(), (3, 2));
        assert_eq!(a.transpose_a_matmul(&c), a.transpose().matmul(&c));
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn stacking_and_slicing() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0]]);
        let b = Matrix::from_rows(&[vec![3.0, 4.0]]);
        let v = Matrix::concat_rows([&a, &b]);
        assert_eq!(v.shape(), (2, 2));
        assert_eq!(v.row(1), &[3.0, 4.0]);
        assert_eq!(Matrix::concat_rows([&a, &b, &a]).row(2), &[1.0, 2.0]);
        let h = Matrix::concat_cols([&a, &b]);
        assert_eq!(h.shape(), (1, 4));
        assert_eq!(h.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
        let h3 = Matrix::concat_cols([&v, &v.slice_cols(0, 1)]);
        assert_eq!(h3.as_slice(), &[1.0, 2.0, 1.0, 3.0, 4.0, 3.0]);
        assert_eq!(v.slice_cols(1, 2).as_slice(), &[2.0, 4.0]);
        assert_eq!(v.select_rows(&[1, 0, 1]).row(0), &[3.0, 4.0]);
        let mut shifted = v.clone();
        shifted.add_row(&Matrix::row_vector(&[10.0, 20.0]));
        assert_eq!(shifted.as_slice(), &[11.0, 22.0, 13.0, 24.0]);
    }

    #[test]
    fn reductions() {
        let a = Matrix::from_rows(&[vec![1.0, -2.0], vec![3.0, 4.0]]);
        assert_eq!(a.sum(), 6.0);
        assert_eq!(a.mean(), 1.5);
        assert_eq!(a.row_argmax(0), 0);
        assert_eq!(a.row_argmax(1), 1);
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = Matrix::ones(2, 2);
        let b = Matrix::full(2, 2, 3.0);
        a.axpy(2.0, &b);
        assert_eq!(a.as_slice(), &[7.0; 4]);
        a.scale_inplace(0.5);
        assert_eq!(a.as_slice(), &[3.5; 4]);
    }

    #[test]
    fn scalar_helpers() {
        assert_eq!(Matrix::scalar(4.25).scalar_value(), 4.25);
        assert_eq!(Matrix::row_vector(&[1.0, 2.0]).shape(), (1, 2));
    }

    #[test]
    #[should_panic(expected = "scalar_value")]
    fn scalar_value_rejects_non_scalar() {
        let _ = Matrix::zeros(2, 1).scalar_value();
    }

    #[test]
    fn serde_roundtrip() {
        let a = Matrix::from_rows(&[vec![1.0, 2.5], vec![-3.0, 0.0]]);
        let json = serde_json::to_string(&a).unwrap();
        let back: Matrix = serde_json::from_str(&json).unwrap();
        assert_eq!(a, back);
    }
}
