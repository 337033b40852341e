//! The Island Consumer: island-granular combination and aggregation.
//!
//! The Island Collector distributes island tasks to PEs; each PE performs
//! PULL-based combination of the island's members (hub results served by
//! the HUB Matrix XW Cache), pre-aggregates every `k` consecutive
//! members, and aggregates by scanning the island adjacency bitmap with
//! the `1×k` window ([`window`]), reusing pre-aggregated sums for shared
//! neighbors. Island-node outputs complete locally; hub rows accumulate
//! partial results in the distributed DHUB-PRC over the ring network
//! ([`ring`]). Hub–hub edges are handled by separate inter-hub tasks in
//! PUSH-outer-product order, after which hub outputs are finalised.
//!
//! That datapath exists **once**, as the schedule-order walk of
//! [`hotpath`] over the physical `IslandLayout`, generic over a sink:
//! `Compute` for values (what inference runs), `Account` for the
//! statistics and the ring model (what the engine's request-independent
//! plan is built from), an export form for shards, and their composition
//! `(Compute, Account)` behind [`hotpath::execute_layer`].
//!
//! [`IslandConsumer`] is not a second way to run inference. It is the
//! sequential reference PE ([`pe`], [`hub_cache`]) over original node IDs
//! with per-node vectors and hashed hub caches, kept because it shares
//! no control flow with the walk: the unit tests hold the walk's values
//! and statistics against it, bit for bit.

pub mod hotpath;
pub mod hub_cache;
pub mod pe;
pub mod ring;
pub mod window;

use igcn_gnn::Activation;
use igcn_graph::{CsrGraph, SparseFeatures};
use igcn_linalg::{DenseMatrix, GcnNormalization};

use crate::config::ConsumerConfig;
use crate::partition::IslandPartition;
use crate::schedule::IslandSchedule;
use crate::stats::LayerExecStats;

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

/// Executes GraphCONV layers island by island over a fixed partition —
/// the sequential reference implementation the hot path is tested
/// against (see the module docs).
///
/// # Example
///
/// ```
/// use igcn_core::consumer::{IslandConsumer, LayerInput};
/// use igcn_core::{islandize, ConsumerConfig, IslandizationConfig};
/// use igcn_gnn::Activation;
/// use igcn_graph::generate::HubIslandConfig;
/// use igcn_graph::SparseFeatures;
/// use igcn_linalg::{DenseMatrix, GcnNormalization};
///
/// let g = HubIslandConfig::new(100, 6).noise_fraction(0.0).generate(2);
/// let p = islandize(&g.graph, &IslandizationConfig::default());
/// let consumer = IslandConsumer::new(&g.graph, &p, ConsumerConfig::default());
///
/// let x = SparseFeatures::random(100, 8, 0.5, 1);
/// let w = DenseMatrix::zeros(8, 4);
/// let norm = GcnNormalization::symmetric(&g.graph);
/// let (out, stats) = consumer.execute_layer(
///     LayerInput::Sparse(&x), &w, &norm, Activation::Relu);
/// assert_eq!(out.rows(), 100);
/// assert_eq!(stats.island_tasks, p.num_islands() as u64);
/// ```
#[derive(Debug)]
pub struct IslandConsumer<'a> {
    graph: &'a CsrGraph,
    partition: &'a IslandPartition,
    cfg: ConsumerConfig,
    schedule: IslandSchedule,
}

impl<'a> IslandConsumer<'a> {
    /// Creates a consumer over `graph` and its `partition`, materialising
    /// the island issue schedule (waves of `num_pes` islands).
    ///
    /// # Panics
    ///
    /// Panics if the partition was produced for a different node count.
    pub fn new(graph: &'a CsrGraph, partition: &'a IslandPartition, cfg: ConsumerConfig) -> Self {
        assert_eq!(graph.num_nodes(), partition.num_nodes(), "partition does not match the graph");
        let schedule = IslandSchedule::new(graph, partition, cfg.num_pes);
        IslandConsumer { graph, partition, cfg, schedule }
    }

    /// The consumer configuration.
    pub fn config(&self) -> &ConsumerConfig {
        &self.cfg
    }

    /// The materialised island issue schedule.
    pub fn schedule(&self) -> &IslandSchedule {
        &self.schedule
    }

    /// Executes one GraphCONV layer, returning the layer output and the
    /// execution statistics.
    ///
    /// # Panics
    ///
    /// Panics if the input shape does not match the graph or the weight
    /// matrix.
    pub fn execute_layer(
        &self,
        input: LayerInput<'_>,
        weights: &DenseMatrix,
        norm: &GcnNormalization,
        activation: Activation,
    ) -> (DenseMatrix, LayerExecStats) {
        let n = self.graph.num_nodes();
        assert_eq!(input.num_rows(), n, "input row count does not match the graph");
        assert_eq!(
            input.num_cols(),
            weights.rows(),
            "input width does not match the weight matrix"
        );
        assert_eq!(norm.len(), n, "normalisation does not match the graph");

        let mut ctx = pe::LayerContext::new(input, weights, norm, activation, self.cfg, n);
        // Weights are loaded once and stay in the on-chip Weight Matrix
        // Buffers.
        ctx.stats.traffic.weight_bytes += (weights.rows() * weights.cols() * 4) as u64;

        // Island tasks, issued to PEs wave by wave along the schedule.
        for wave in self.schedule.waves() {
            for task_idx in wave {
                let pe_id = (task_idx % self.cfg.num_pes) as u32;
                pe::execute_island_task(
                    &mut ctx,
                    self.graph,
                    &self.partition.islands()[task_idx],
                    pe_id,
                );
            }
            ctx.flush_wave();
        }
        ctx.stats.island_tasks = self.partition.num_islands() as u64;

        // Inter-hub tasks in PUSH-outer-product order.
        pe::execute_inter_hub_tasks(&mut ctx, self.partition.inter_hub_edges());
        ctx.flush_wave();

        // Finalise hub outputs from their completed partial results.
        pe::finalize_hubs(&mut ctx, self.partition.hubs());

        ctx.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IslandizationConfig;
    use crate::locator::islandize;
    use igcn_gnn::{reference_forward_layers, GnnModel, ModelWeights};
    use igcn_graph::generate::HubIslandConfig;

    fn setup(n: usize, noise: f64, seed: u64) -> (CsrGraph, IslandPartition, SparseFeatures) {
        let g = HubIslandConfig::new(n, (n / 25).max(2)).noise_fraction(noise).generate(seed);
        let p = islandize(&g.graph, &IslandizationConfig::default());
        p.check_invariants(&g.graph).unwrap();
        let x = SparseFeatures::random(n, 12, 0.4, seed ^ 0xF00D);
        (g.graph, p, x)
    }

    #[test]
    fn layer_matches_reference() {
        let (g, p, x) = setup(150, 0.0, 1);
        let model = GnnModel::gcn(12, 6, 6);
        let w = ModelWeights::glorot(&model, 3);
        let reference = reference_forward_layers(&g, &x, &model, &w);

        let consumer = IslandConsumer::new(&g, &p, ConsumerConfig::default());
        let norm = model.normalization(&g);
        let (out, stats) =
            consumer.execute_layer(LayerInput::Sparse(&x), w.layer(0), &norm, Activation::Relu);
        let diff = out.max_abs_diff(&reference[0]);
        assert!(diff < 1e-4, "islandized layer diverges from reference by {diff}");
        assert!(stats.aggregation.unpruned_vector_ops > 0);
    }

    #[test]
    fn noisy_graph_still_exact() {
        let (g, p, x) = setup(200, 0.15, 2);
        let model = GnnModel::gcn(12, 8, 4);
        let w = ModelWeights::glorot(&model, 5);
        let reference = reference_forward_layers(&g, &x, &model, &w);
        let consumer = IslandConsumer::new(&g, &p, ConsumerConfig::default());
        let norm = model.normalization(&g);
        let (out, _) =
            consumer.execute_layer(LayerInput::Sparse(&x), w.layer(0), &norm, Activation::Relu);
        assert!(out.max_abs_diff(&reference[0]) < 1e-4);
    }

    #[test]
    fn redundancy_removal_is_lossless_for_any_k() {
        let (g, p, x) = setup(120, 0.05, 3);
        let model = GnnModel::gcn(12, 5, 3);
        let w = ModelWeights::glorot(&model, 7);
        let reference = reference_forward_layers(&g, &x, &model, &w);
        let norm = model.normalization(&g);
        for k in [2, 3, 4, 8] {
            let cfg = ConsumerConfig::default().with_k(k);
            let consumer = IslandConsumer::new(&g, &p, cfg);
            let (out, _) =
                consumer.execute_layer(LayerInput::Sparse(&x), w.layer(0), &norm, Activation::Relu);
            assert!(out.max_abs_diff(&reference[0]) < 1e-4, "k={k} execution diverges");
        }
    }

    #[test]
    fn pruning_reduces_ops_and_ablation_does_not() {
        let (g, p, x) = setup(250, 0.0, 4);
        let norm = GcnNormalization::symmetric(&g);
        let w = DenseMatrix::from_vec(12, 4, vec![0.1; 48]);

        let with = IslandConsumer::new(&g, &p, ConsumerConfig::default());
        let (_, s_with) = with.execute_layer(LayerInput::Sparse(&x), &w, &norm, Activation::None);

        let without_cfg = ConsumerConfig::default().with_redundancy_removal(false);
        let without = IslandConsumer::new(&g, &p, without_cfg);
        let (_, s_without) =
            without.execute_layer(LayerInput::Sparse(&x), &w, &norm, Activation::None);

        assert_eq!(
            s_with.aggregation.unpruned_vector_ops,
            s_without.aggregation.unpruned_vector_ops
        );
        assert_eq!(s_without.aggregation.executed_vector_subs, 0);
        assert!(s_without.aggregation.pruning_rate().abs() < 1e-12);
        assert!(
            s_with.aggregation.executed_vector_ops() <= s_without.aggregation.executed_vector_ops(),
            "redundancy removal must never increase ops"
        );
    }

    #[test]
    fn schedule_waves_match_pe_count() {
        let (g, p, _) = setup(150, 0.0, 8);
        let consumer = IslandConsumer::new(&g, &p, ConsumerConfig::default().with_pes(4));
        let schedule = consumer.schedule();
        assert_eq!(schedule.num_islands(), p.num_islands());
        assert_eq!(schedule.wave_width(), 4);
        assert_eq!(schedule.num_waves(), p.num_islands().div_ceil(4));
    }

    #[test]
    fn dense_input_layer_matches_reference() {
        let (g, p, x) = setup(100, 0.0, 6);
        let model = GnnModel::gcn(12, 6, 4);
        let w = ModelWeights::glorot(&model, 9);
        let reference = reference_forward_layers(&g, &x, &model, &w);
        let consumer = IslandConsumer::new(&g, &p, ConsumerConfig::default());
        let norm = model.normalization(&g);
        let (l0, _) =
            consumer.execute_layer(LayerInput::Sparse(&x), w.layer(0), &norm, Activation::Relu);
        let (l1, _) =
            consumer.execute_layer(LayerInput::Dense(&l0), w.layer(1), &norm, Activation::None);
        assert!(l1.max_abs_diff(&reference[1]) < 1e-4);
    }
}
