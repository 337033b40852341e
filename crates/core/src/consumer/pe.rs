//! The combination step of one processing element, `y_v = s_in(v) ·
//! (X_v · W)` (Figure 8, bottom: the PULL-based combination of an
//! island's members), and its cost model.
//!
//! `combine_values_into` is the arithmetic the layer driver in
//! [`super::hotpath`] runs for island members and the hub XW slab.
//! `RowCost` and `combine_cost` price it for the walk's `Account` sink
//! and for the engine's request-independent plan
//! (`crate::exec::ExecPlan`).

use igcn_graph::{NodeId, SparseFeatures};
use igcn_linalg::{DenseMatrix, GcnNormalization};

use super::LayerInput;

const F32_BYTES: u64 = 4;
const IDX_BYTES: u64 = 4;

/// How the cost model prices the input rows of one layer.
#[derive(Debug, Clone, Copy)]
pub(crate) enum RowCost<'a> {
    /// Sparse request rows (layer 0).
    Sparse(&'a SparseFeatures),
    /// Dense activation rows `cols` wide (layers ≥ 1).
    Dense { cols: usize },
    /// Rows priced later, from the request: what the request-independent
    /// plan (`crate::exec::ExecPlan`) accounts layer 0 with.
    Deferred,
}

impl<'a> From<LayerInput<'a>> for RowCost<'a> {
    fn from(input: LayerInput<'a>) -> Self {
        match input {
            LayerInput::Sparse(x) => RowCost::Sparse(x),
            LayerInput::Dense(m) => RowCost::Dense { cols: m.cols() },
        }
    }
}

impl RowCost<'_> {
    /// `(macs, feature_read_bytes)` of combining row `v` into `out_dim`
    /// outputs — the only two quantities of an inference's statistics
    /// that depend on the request.
    pub(crate) fn of(self, out_dim: usize, v: u32) -> (u64, u64) {
        match self {
            RowCost::Sparse(x) => {
                let nnz = x.row_nnz(NodeId::new(v)) as u64;
                // The feature fetcher picks the cheaper row encoding: CSR
                // (value + index per non-zero) or dense.
                (
                    nnz * out_dim as u64,
                    (nnz * (F32_BYTES + IDX_BYTES)).min(x.num_cols() as u64 * F32_BYTES),
                )
            }
            RowCost::Dense { cols } => ((cols * out_dim) as u64, cols as u64 * F32_BYTES),
            RowCost::Deferred => (0, 0),
        }
    }
}

/// The operation/traffic cost of combining node `v` as
/// `(macs, muls, feature_read_bytes)` — the single source of truth for
/// the combination cost model, shared by the walk's `Account` sink and
/// the plan's per-request row charge.
pub(crate) fn combine_cost(
    rows: RowCost<'_>,
    out_dim: usize,
    norm: &GcnNormalization,
    v: u32,
) -> (u64, u64, u64) {
    let (macs, feature_bytes) = rows.of(out_dim, v);
    let muls = if norm.in_scale(NodeId::new(v)) != 1.0 { out_dim as u64 } else { 0 };
    (macs, muls, feature_bytes)
}

/// Writes `y_v = s_in(v) · (X_v · W)` into `out` (which must be
/// `weights.cols()` long), allocating nothing.
///
/// # Panics
///
/// Panics if `out.len() != weights.cols()`.
pub(crate) fn combine_values_into(
    input: LayerInput<'_>,
    weights: &DenseMatrix,
    norm: &GcnNormalization,
    v: u32,
    out: &mut [f32],
) {
    assert_eq!(out.len(), weights.cols(), "combination output width mismatch");
    out.fill(0.0);
    // Column-vectorized kernels: `axpy_f32` accumulates one weight row at a
    // time in feature-column order with non-fused multiply + add, so the
    // per-element accumulation order (and hence every bit of the result)
    // matches the scalar loop on every SIMD backend.
    match input {
        LayerInput::Sparse(x) => {
            let (cols, vals) = x.row(NodeId::new(v));
            for (&c, &xv) in cols.iter().zip(vals) {
                igcn_linalg::kernels::axpy_f32(out, weights.row(c as usize), xv);
            }
        }
        LayerInput::Dense(m) => {
            for (c, &xv) in m.row(v as usize).iter().enumerate() {
                if xv == 0.0 {
                    continue;
                }
                if out.len() < 8 {
                    // Narrower than one vector: the kernel's scalar
                    // arithmetic in place, without the dispatched call.
                    out.iter_mut().zip(weights.row(c)).for_each(|(o, &w)| *o += xv * w);
                } else {
                    igcn_linalg::kernels::axpy_f32(out, weights.row(c), xv);
                }
            }
        }
    }
    let s = norm.in_scale(NodeId::new(v));
    if s != 1.0 {
        igcn_linalg::kernels::scale_f32(out, s);
    }
}
