//! Row-major dense matrices.

use serde::{Deserialize, Serialize};

/// A row-major dense `f32` matrix.
///
/// Used for feature matrices after the first combination (`X·W` is dense),
/// for weight matrices, and as the output of every SpMM dataflow.
///
/// # Example
///
/// ```
/// use igcn_linalg::DenseMatrix;
///
/// let mut m = DenseMatrix::zeros(2, 3);
/// m.set(0, 2, 5.0);
/// assert_eq!(m.get(0, 2), 5.0);
/// assert_eq!(m.row(0), &[0.0, 0.0, 5.0]);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl DenseMatrix {
    /// Creates a matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DenseMatrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a matrix from a row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer length mismatch");
        DenseMatrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(r < self.rows && c < self.cols, "index ({r}, {c}) out of bounds");
        self.data[r * self.cols + c]
    }

    /// Sets the element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        assert!(r < self.rows && c < self.cols, "index ({r}, {c}) out of bounds");
        self.data[r * self.cols + c] = v;
    }

    /// One row as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row {r} out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// One row as a mutable slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row {r} out of bounds");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Reshapes the matrix in place to `rows × cols`, reusing the
    /// existing buffer (no allocation once the buffer has grown to its
    /// steady-state size). The contents are unspecified afterwards —
    /// callers are expected to overwrite every row, as the islandized
    /// layer execution does.
    pub fn resize_in_place(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// The full row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// The full mutable row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Dense-dense product `self × rhs` through the cache-blocked SIMD
    /// GEMM ([`crate::kernels::gemm_blocked_into`]).
    ///
    /// Bit-identical to the historical branchy triple loop for finite
    /// operands: the old `a == 0.0` skip only elided `±0.0` products,
    /// which can never change an accumulator's bits (pinned by
    /// `matmul_agrees_with_sparse_aware_bitwise`). Inputs with
    /// infinities or NaNs in the *rhs* rows behind a zero lhs entry
    /// should use [`DenseMatrix::matmul_sparse_aware`], which preserves
    /// the skip.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != rhs.rows`.
    pub fn matmul(&self, rhs: &DenseMatrix) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(0, 0);
        self.matmul_into(rhs, &mut out);
        out
    }

    /// Allocation-free `out = self × rhs`: resizes `out` in place
    /// (reusing its buffer at steady state — e.g. an engine scratch
    /// slab) and runs the cache-blocked SIMD GEMM into it.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != rhs.rows`.
    pub fn matmul_into(&self, rhs: &DenseMatrix, out: &mut DenseMatrix) {
        assert_eq!(self.cols, rhs.rows, "inner dimension mismatch");
        out.resize_in_place(self.rows, rhs.cols);
        crate::kernels::gemm_blocked_into(
            &self.data,
            self.rows,
            self.cols,
            &rhs.data,
            rhs.cols,
            &mut out.data,
        );
    }

    /// Sparse-aware dense product: the historical scalar triple loop
    /// with the `a == 0.0` row-entry skip. Same bits as
    /// [`DenseMatrix::matmul`] for finite operands (zero products never
    /// flip accumulator bits); prefer it only when the lhs is mostly
    /// zeros **and** the rhs may carry non-finite values the skip must
    /// shield.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != rhs.rows`.
    pub fn matmul_sparse_aware(&self, rhs: &DenseMatrix) -> DenseMatrix {
        assert_eq!(self.cols, rhs.rows, "inner dimension mismatch");
        let mut out = DenseMatrix::zeros(self.rows, rhs.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self.data[r * self.cols + k];
                if a == 0.0 {
                    continue;
                }
                let rhs_row = rhs.row(k);
                let out_row = out.row_mut(r);
                for (o, &b) in out_row.iter_mut().zip(rhs_row) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace<F: Fn(f32) -> f32>(&mut self, f: F) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Maximum absolute elementwise difference to another matrix.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn max_abs_diff(&self, other: &DenseMatrix) -> f32 {
        assert_eq!(self.rows, other.rows, "row mismatch");
        assert_eq!(self.cols, other.cols, "col mismatch");
        self.data.iter().zip(&other.data).map(|(a, b)| (a - b).abs()).fold(0.0, f32::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_set_get() {
        let mut m = DenseMatrix::zeros(2, 2);
        assert_eq!(m.get(1, 1), 0.0);
        m.set(1, 0, 3.5);
        assert_eq!(m.get(1, 0), 3.5);
    }

    #[test]
    fn matmul_identity() {
        let a = DenseMatrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let i = DenseMatrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        assert_eq!(a.matmul(&i), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = DenseMatrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = DenseMatrix::from_vec(3, 1, vec![1.0, 1.0, 1.0]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[6.0, 15.0]);
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn matmul_dim_mismatch() {
        let a = DenseMatrix::zeros(2, 3);
        let b = DenseMatrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn scale_and_map() {
        let mut m = DenseMatrix::from_vec(1, 3, vec![1.0, -2.0, 3.0]);
        m.map_inplace(|v| 2.0 * v.max(0.0));
        assert_eq!(m.as_slice(), &[2.0, 0.0, 6.0]);
    }

    #[test]
    fn diff_and_norm() {
        let a = DenseMatrix::from_vec(1, 2, vec![3.0, 4.0]);
        let b = DenseMatrix::from_vec(1, 2, vec![3.0, 4.5]);
        assert!((a.max_abs_diff(&b) - 0.5).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "buffer length mismatch")]
    fn from_vec_wrong_len_panics() {
        let _ = DenseMatrix::from_vec(2, 2, vec![0.0; 3]);
    }

    fn pseudo_matrix(seed: u64, rows: usize, cols: usize, zero_every: u64) -> DenseMatrix {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let data = (0..rows * cols)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                if zero_every != 0 && s.is_multiple_of(zero_every) {
                    0.0
                } else {
                    ((s >> 11) as f32 / (1u64 << 53) as f32) * 2.0 - 1.0
                }
            })
            .collect();
        DenseMatrix::from_vec(rows, cols, data)
    }

    #[test]
    fn matmul_agrees_with_sparse_aware_bitwise() {
        // The zero-skip regression pin: the blocked SIMD path and the
        // historical branchy loop must agree bit for bit, including on
        // inputs riddled with exact zeros and with widths off the
        // 8-lane grid.
        for &(m, k, n, zero_every) in
            &[(5, 7, 9, 3), (8, 16, 8, 2), (1, 1, 1, 0), (13, 300, 19, 4), (4, 32, 33, 5)]
        {
            let a = pseudo_matrix(m as u64 * 31 + n as u64, m, k, zero_every);
            let b = pseudo_matrix(k as u64 * 17 + 5, k, n, 0);
            let fast = a.matmul(&b);
            let skip = a.matmul_sparse_aware(&b);
            assert_eq!(fast.rows(), skip.rows());
            assert_eq!(fast.cols(), skip.cols());
            for (x, y) in fast.as_slice().iter().zip(skip.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "{m}x{k}x{n} zero_every={zero_every}");
            }
        }
    }

    #[test]
    fn matmul_into_reuses_buffer() {
        let a = pseudo_matrix(1, 6, 10, 3);
        let b = pseudo_matrix(2, 10, 4, 0);
        let mut out = DenseMatrix::zeros(6, 4);
        let cap = out.data.capacity();
        a.matmul_into(&b, &mut out);
        assert_eq!(out.data.capacity(), cap, "steady-state matmul_into must not reallocate");
        assert_eq!(out, a.matmul(&b));
    }
}
