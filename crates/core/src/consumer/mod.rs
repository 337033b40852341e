//! The Island Consumer: island-granular combination and aggregation.
//!
//! The Island Collector distributes island tasks to PEs; each PE performs
//! PULL-based combination of the island's members ([`pe`]; hub results
//! served by the HUB Matrix XW Cache), pre-aggregates every `k`
//! consecutive members, and aggregates by scanning the island adjacency
//! bitmap with the `1×k` window ([`window`]), reusing pre-aggregated sums
//! for shared neighbors. Island-node outputs complete locally; hub rows
//! accumulate partial results in the distributed DHUB-PRC over the ring
//! network ([`ring`]). Hub–hub edges are handled by separate inter-hub
//! tasks in PUSH-outer-product order, after which hub outputs are
//! finalised.
//!
//! That datapath exists **once**, as the schedule-order walk of
//! [`hotpath`] over the physical `IslandLayout`, generic over two
//! sinks: `Compute` for one island's values, `Account` for the
//! statistics and the ring model (what the engine's request-independent
//! plan is built from). Around the walk sits one layer driver — hub XW
//! slab, islands through `Compute`, schedule-order hub merge — that the
//! engine, inline or fanned out, and the shard fleet all run;
//! [`hotpath::execute_layer`] is the driver's values plus the `Account`
//! statistics. The values are held against the dense reference
//! (`igcn_gnn::reference_forward_layers`) and the statistics against a
//! closed-form re-derivation from the partition, both in the unit
//! tests.

pub mod hotpath;
pub mod pe;
pub mod ring;
pub mod window;

#[cfg(test)]
pub(crate) mod oracle;

use igcn_graph::SparseFeatures;
use igcn_linalg::DenseMatrix;

/// The input features of one layer: the raw sparse feature matrix for
/// layer 0, the previous layer's dense output afterwards.
#[derive(Debug, Clone, Copy)]
pub enum LayerInput<'a> {
    /// Sparse input features (layer 0).
    Sparse(&'a SparseFeatures),
    /// Dense intermediate features (layers ≥ 1).
    Dense(&'a DenseMatrix),
}

impl LayerInput<'_> {
    /// Number of rows (nodes).
    pub fn num_rows(&self) -> usize {
        match self {
            LayerInput::Sparse(x) => x.num_rows(),
            LayerInput::Dense(m) => m.rows(),
        }
    }

    /// Feature width.
    pub fn num_cols(&self) -> usize {
        match self {
            LayerInput::Sparse(x) => x.num_cols(),
            LayerInput::Dense(m) => m.cols(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::hotpath::tests::assert_hub_island_layers_match_references;
    use crate::config::ConsumerConfig;

    #[test]
    fn layer_matches_reference() {
        assert_hub_island_layers_match_references(&[(0.0, 1)], &[ConsumerConfig::default()]);
    }

    #[test]
    fn noisy_graph_still_exact() {
        assert_hub_island_layers_match_references(
            &[(0.08, 2), (0.2, 3)],
            &[ConsumerConfig::default()],
        );
    }

    #[test]
    fn redundancy_removal_is_lossless_for_any_k() {
        let configs = [2, 3, 4, 8].map(|k| ConsumerConfig::default().with_k(k));
        assert_hub_island_layers_match_references(&[(0.0, 1), (0.08, 2), (0.2, 3)], &configs);
    }
}
