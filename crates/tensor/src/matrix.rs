//! Dense, row-major, 2-D `f32` matrices.
//!
//! Everything in the Overton tensor engine is a matrix: a scalar is `[1, 1]`,
//! a vector is `[1, n]`, a token sequence embedded to dimension `d` is
//! `[seq_len, d]`, and a set of `k` candidate entities is `[k, d]`. The
//! model plan's executors read and write matrices as flat row-major slices,
//! through the GEMM entry points and the row-wise activations below.

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

    /// Creates a `1 x 1` matrix holding a single scalar.
    pub fn scalar(value: f32) -> Self {
        Self::from_vec(1, 1, vec![value])
    }

    /// Creates an identity matrix of size `n`.
    pub fn eye(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
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

    /// Largest absolute difference against another matrix of the same shape.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn max_abs_diff(&self, other: &Self) -> f32 {
        assert_eq!(self.shape(), other.shape(), "max_abs_diff shape mismatch");
        self.data.iter().zip(&other.data).map(|(a, b)| (a - b).abs()).fold(0.0f32, f32::max)
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
/// `b` is `k x n` and `out` is `m x n`: one example's weight gradient
/// `X_b^T * G_b`, read in place from a training arena. Kernel dispatch as
/// in [`matmul_into`], summing every element in increasing `k` order.
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

/// Numerically stable logistic sigmoid.
#[inline]
pub fn stable_sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// In-place stable softmax over a slice.
pub fn softmax_in_place(row: &mut [f32]) {
    let max = row.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
    let mut sum = 0.0;
    for v in row.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    let inv = 1.0 / sum;
    for v in row {
        *v *= inv;
    }
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
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
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
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a.matmul(&Matrix::eye(2)), a);
        assert_eq!(Matrix::eye(2).matmul(&a), a);
    }

    #[test]
    fn matmul_transpose_variants_agree_with_explicit_transpose() {
        let a = Matrix::from_vec(2, 3, vec![1.0, -2.0, 0.5, 0.0, 3.0, 1.0]);
        let c = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let mut out = vec![0.0; 6];
        matmul_at_into(3, 2, 2, a.as_slice(), c.as_slice(), &mut out);
        assert_eq!(out, a.transpose().matmul(&c).as_slice());
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn scalar_helpers() {
        assert_eq!(Matrix::scalar(4.25).scalar_value(), 4.25);
        assert_eq!(Matrix::scalar(4.25).shape(), (1, 1));
    }

    #[test]
    #[should_panic(expected = "scalar_value")]
    fn scalar_value_rejects_non_scalar() {
        let _ = Matrix::zeros(2, 1).scalar_value();
    }

    #[test]
    fn serde_roundtrip() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.5, -3.0, 0.0]);
        let json = serde_json::to_string(&a).unwrap();
        let back: Matrix = serde_json::from_str(&json).unwrap();
        assert_eq!(a, back);
    }

    #[test]
    fn reductions() {
        assert_eq!(dot(&[1.0, -2.0, 0.5], &[4.0, 1.0, 2.0]), 3.0);
        assert_eq!(dot(&[], &[]), 0.0);
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::from_vec(2, 2, vec![1.5, 2.0, 0.0, 4.25]);
        assert_eq!(a.max_abs_diff(&b), 3.0);
        assert_eq!(a.max_abs_diff(&a), 0.0);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        for mut row in [vec![1.0, 2.0, 3.0], vec![-1.0, 0.0, 1.0], vec![80.0, -80.0, 0.0]] {
            softmax_in_place(&mut row);
            assert!((row.iter().sum::<f32>() - 1.0).abs() < 1e-6, "{row:?}");
            assert!(row.iter().all(|p| (0.0..=1.0).contains(p)));
        }
    }

    #[test]
    fn stable_sigmoid_extremes() {
        assert!(stable_sigmoid(100.0) > 0.999);
        assert!(stable_sigmoid(-100.0) < 1e-3);
        assert!((stable_sigmoid(0.0) - 0.5).abs() < 1e-7);
        // Neither tail overflows to NaN.
        assert_eq!(stable_sigmoid(f32::MAX), 1.0);
        assert_eq!(stable_sigmoid(f32::MIN), 0.0);
    }
}
