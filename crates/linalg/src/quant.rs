//! Int8 quantized feature storage with f32 accumulation.
//!
//! Follows LW-GCN's fixed-point feature quantization (PAPERS.md):
//! input features are stored as **per-column symmetric int8** —
//! `q = round(v / scale_c)` clamped to `[-127, 127]` with
//! `scale_c = max_abs(column c) / 127` — and dequantized back to f32
//! (`q as f32 * scale_c`) before any arithmetic, so every downstream
//! kernel still accumulates in f32. Feature value storage drops from 4
//! bytes to 1 byte per non-zero, which is the point: the first-layer
//! combination is bandwidth-bound on sparse real-world features.
//!
//! # Error bound
//!
//! Symmetric rounding quantization has per-value absolute error at most
//! `scale_c / 2`; [`QuantizedFeatures::error_bound`] reports
//! `max_c scale_c / 2` with a `1e-5` relative slack covering the f32
//! divide/round/multiply round trip. The bound is asserted in debug
//! builds every time the engine quantizes a request
//! (`ExecConfig::quantized_features`) and pinned by this module's
//! `quantization_honors_error_bound` test.
//!
//! # What stays exact
//!
//! Quantization **preserves the CSR structure bit for bit**: entries
//! whose value rounds to zero stay stored (with value `0`), so row
//! pointers, column indices and therefore every structural statistic —
//! operation counts, window decisions, `ExecStats` — are identical to
//! the f32 path, and `IGcnEngine::account` still matches
//! `IGcnEngine::run` under quantization. Only the *values* carry the
//! bounded error. Traffic accounting still models f32 feature bytes;
//! the realized 4×-smaller value stream is
//! [`QuantizedFeatures::value_bytes`] against
//! [`QuantizedFeatures::f32_value_bytes`], not folded into the
//! canonical statistics.

use igcn_graph::SparseFeatures;

/// Relative slack on the analytic `scale/2` rounding bound, covering
/// the f32 quantize/dequantize round trip (divide, round, multiply —
/// each within 0.5 ulp, far inside `1e-5` relative).
pub const QUANT_BOUND_SLACK: f32 = 1e-5;

/// A [`SparseFeatures`] matrix with int8-quantized values (per-column
/// symmetric scales) and the original CSR structure.
///
/// # Example
///
/// ```
/// use igcn_graph::SparseFeatures;
/// use igcn_linalg::QuantizedFeatures;
///
/// let x = SparseFeatures::random(50, 16, 0.3, 7);
/// let q = QuantizedFeatures::quantize(&x);
/// assert!(q.max_abs_error(&x) <= q.error_bound());
/// assert_eq!(q.value_bytes() * 4, q.f32_value_bytes());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedFeatures {
    num_rows: usize,
    num_cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    qvalues: Vec<i8>,
    /// Per-column dequantization scale (`0.0` for all-zero columns).
    scales: Vec<f32>,
}

impl QuantizedFeatures {
    /// Quantizes `features` into a fresh matrix.
    pub fn quantize(features: &SparseFeatures) -> Self {
        let mut out = QuantizedFeatures {
            num_rows: 0,
            num_cols: 0,
            row_ptr: Vec::new(),
            col_idx: Vec::new(),
            qvalues: Vec::new(),
            scales: Vec::new(),
        };
        out.quantize_from(features);
        out
    }

    /// In-place variant of [`QuantizedFeatures::quantize`], reusing this
    /// matrix's buffers (no allocation at steady state — the serving
    /// hot-path contract).
    pub fn quantize_from(&mut self, features: &SparseFeatures) {
        self.num_rows = features.num_rows();
        self.num_cols = features.num_cols();

        // Pass 1: per-column max |v| → symmetric scale max_abs / 127.
        self.scales.clear();
        self.scales.resize(self.num_cols, 0.0);
        for (&c, &v) in features.col_idx().iter().zip(features.values()) {
            let m = &mut self.scales[c as usize];
            *m = m.max(v.abs());
        }
        for s in &mut self.scales {
            *s /= 127.0;
        }

        // Pass 2: quantize every stored value. Structure is copied
        // verbatim — values that round to 0 stay stored, so the CSR
        // shape (and every structural statistic) is untouched.
        self.row_ptr.clear();
        self.row_ptr.extend_from_slice(features.row_ptr());
        self.col_idx.clear();
        self.col_idx.extend_from_slice(features.col_idx());
        self.qvalues.clear();
        self.qvalues.reserve(features.nnz());
        for (&c, &v) in features.col_idx().iter().zip(features.values()) {
            let scale = self.scales[c as usize];
            let q = if scale == 0.0 {
                0 // all-zero column: nothing to encode
            } else {
                (v / scale).round().clamp(-127.0, 127.0) as i8
            };
            self.qvalues.push(q);
        }
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Number of columns.
    pub fn num_cols(&self) -> usize {
        self.num_cols
    }

    /// Number of stored entries (identical to the source matrix's nnz).
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// Per-column dequantization scales.
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// The documented worst-case absolute dequantization error:
    /// `max_c scale_c / 2`, widened by [`QUANT_BOUND_SLACK`].
    pub fn error_bound(&self) -> f32 {
        let max_scale = self.scales.iter().fold(0.0f32, |m, &s| m.max(s));
        0.5 * max_scale * (1.0 + QUANT_BOUND_SLACK)
    }

    /// Measured maximum absolute error of the dequantized values against
    /// the original matrix (which must have identical structure).
    ///
    /// # Panics
    ///
    /// Panics if `original` has a different CSR structure.
    pub fn max_abs_error(&self, original: &SparseFeatures) -> f32 {
        assert_eq!(self.row_ptr, original.row_ptr(), "structure mismatch");
        assert_eq!(self.col_idx, original.col_idx(), "structure mismatch");
        let mut worst = 0.0f32;
        for ((&c, &q), &v) in self.col_idx.iter().zip(&self.qvalues).zip(original.values()) {
            let deq = q as f32 * self.scales[c as usize];
            worst = worst.max((deq - v).abs());
        }
        worst
    }

    /// Dequantizing row gather: rebuilds `out` so its row `i` is the
    /// dequantized row `order[i]`, reusing `out`'s buffers — the
    /// quantized twin of [`SparseFeatures::gather_rows_into`], used by
    /// the engine when `ExecConfig::quantized_features` is on.
    ///
    /// # Panics
    ///
    /// Panics if any entry of `order` is out of range.
    pub fn gather_rows_into(&self, order: &[u32], out: &mut SparseFeatures) {
        let mut writer = out.begin_rebuild(self.num_cols);
        writer.reserve(order.len() + 1, self.nnz());
        for &src in order {
            let r = src as usize;
            assert!(r < self.num_rows, "row {src} out of range for {} rows", self.num_rows);
            for i in self.row_ptr[r]..self.row_ptr[r + 1] {
                let c = self.col_idx[i];
                writer.push_entry(c, self.qvalues[i] as f32 * self.scales[c as usize]);
            }
            writer.finish_row();
        }
    }

    /// Bytes of quantized value storage (1 per non-zero).
    pub fn value_bytes(&self) -> usize {
        self.qvalues.len()
    }

    /// Bytes the same values occupy in f32 form (4 per non-zero).
    pub fn f32_value_bytes(&self) -> usize {
        self.qvalues.len() * 4
    }
}

impl Default for QuantizedFeatures {
    fn default() -> Self {
        QuantizedFeatures::quantize(&SparseFeatures::from_rows(0, 0, Vec::new()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use igcn_graph::NodeId;

    #[test]
    fn quantization_honors_error_bound() {
        for seed in 0..5 {
            let x = SparseFeatures::random(60, 24, 0.25, seed);
            let q = QuantizedFeatures::quantize(&x);
            let err = q.max_abs_error(&x);
            let bound = q.error_bound();
            assert!(err <= bound, "seed {seed}: error {err} exceeds bound {bound}");
            // The bound must be meaningful: values are in [0, 1), so
            // scale ≤ 1/127 and the bound stays below ~0.004.
            assert!(bound < 0.005, "seed {seed}: bound {bound} implausibly loose");
        }
    }

    #[test]
    fn structure_is_preserved_exactly() {
        let x = SparseFeatures::from_rows(
            3,
            4,
            vec![
                vec![(0, 1.0e-6), (2, 1.0)], // tiny value rounds to q=0 but stays stored
                vec![],
                vec![(1, -0.5), (3, 0.25)],
            ],
        );
        let q = QuantizedFeatures::quantize(&x);
        assert_eq!(q.nnz(), x.nnz());
        assert_eq!(q.num_rows(), 3);
        // Gather in identity order and compare structure.
        let mut out = SparseFeatures::from_rows(0, 0, Vec::new());
        q.gather_rows_into(&[0, 1, 2], &mut out);
        assert_eq!(out.row_ptr(), x.row_ptr());
        assert_eq!(out.col_idx(), x.col_idx());
    }

    #[test]
    fn gather_dequantizes_and_reorders() {
        let x = SparseFeatures::random(20, 8, 0.4, 9);
        let q = QuantizedFeatures::quantize(&x);
        let order: Vec<u32> = (0..20u32).rev().collect();
        let mut out = SparseFeatures::from_rows(0, 0, Vec::new());
        q.gather_rows_into(&order, &mut out);
        let bound = q.error_bound();
        for (i, &src) in order.iter().enumerate() {
            let (gc, gv) = out.row(NodeId::new(i as u32));
            let (xc, xv) = x.row(NodeId::new(src));
            assert_eq!(gc, xc, "structure of gathered row {i}");
            for (&g, &v) in gv.iter().zip(xv) {
                assert!((g - v).abs() <= bound, "row {i}: {g} vs {v} exceeds {bound}");
            }
        }
    }

    #[test]
    fn gather_into_reuses_buffers() {
        let x = SparseFeatures::random(30, 8, 0.3, 13);
        let q = QuantizedFeatures::quantize(&x);
        let order: Vec<u32> = (0..30u32).collect();
        let mut out = SparseFeatures::from_rows(0, 0, Vec::new());
        q.gather_rows_into(&order, &mut out);
        let nnz = out.nnz();
        q.gather_rows_into(&order, &mut out);
        assert_eq!(out.nnz(), nnz, "steady-state gather must be stable");
    }

    #[test]
    fn quantize_from_reuses_buffers_and_matches_fresh() {
        let a = SparseFeatures::random(40, 16, 0.2, 1);
        let b = SparseFeatures::random(40, 16, 0.2, 2);
        let mut q = QuantizedFeatures::quantize(&a);
        q.quantize_from(&b);
        assert_eq!(q, QuantizedFeatures::quantize(&b));
    }

    #[test]
    fn negative_and_extreme_values_clamp() {
        let x = SparseFeatures::from_rows(1, 2, vec![vec![(0, -3.0), (1, 3.0)]]);
        let q = QuantizedFeatures::quantize(&x);
        // max_abs = 3.0 per column → scale = 3/127; the extremes map to
        // exactly ±127 and dequantize to ±3.0 (error 0 at the extremes).
        assert!(q.max_abs_error(&x) <= q.error_bound());
        let mut out = SparseFeatures::from_rows(0, 0, Vec::new());
        q.gather_rows_into(&[0], &mut out);
        let (_, vals) = out.row(NodeId::new(0));
        assert!((vals[0] + 3.0).abs() < 1e-6);
        assert!((vals[1] - 3.0).abs() < 1e-6);
    }

    #[test]
    fn byte_accounting() {
        let x = SparseFeatures::random(10, 4, 0.5, 3);
        let q = QuantizedFeatures::quantize(&x);
        assert_eq!(q.value_bytes(), x.nnz());
        assert_eq!(q.f32_value_bytes(), x.nnz() * 4);
        assert_eq!(q.scales().len(), 4);
    }
}
