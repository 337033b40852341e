//! The snapshot wire format: explicit mirror structs with hand-written
//! [`Encode`]/[`Decode`] impls, plus validated conversions to and from
//! the domain types.
//!
//! The mirrors are the *format contract*: the bytes a snapshot contains
//! are exactly what this module writes, independent of how the domain
//! structs happen to be laid out in any given release. Conversions out
//! of the wire structs re-validate everything through the domain
//! constructors (`CsrGraph::from_raw_parts`,
//! `IslandPartition::from_raw_parts`, `IslandLayout::from_raw_parts`,
//! …), so a decoded snapshot is structurally sound before an engine is
//! built over it — corrupt bytes surface as typed [`StoreError`]s,
//! never as panics deep in the execution core.

use bitcode::{CodecError, Decode, Encode, Reader, Writer};

use igcn_core::partition::NodeClass;
use igcn_core::stats::{LocatorStats, RoundStats};
use igcn_core::{
    ConsumerConfig, Island, IslandBitmap, IslandLayout, IslandPartition, IslandSchedule,
    IslandizationConfig, ThresholdInit,
};
use igcn_gnn::{Activation, GnnKind, GnnModel, LayerConfig, ModelWeights};
use igcn_graph::{CsrGraph, Permutation, SparseFeatures};
use igcn_linalg::DenseMatrix;

use crate::error::StoreError;

fn corrupt(detail: impl Into<String>) -> StoreError {
    StoreError::Corrupt { detail: detail.into() }
}

fn invalid(detail: impl Into<String>) -> CodecError {
    CodecError::Invalid { detail: detail.into() }
}

// ---------------------------------------------------------------------
// Graph
// ---------------------------------------------------------------------

/// CSR adjacency on the wire.
pub struct RawGraph {
    pub num_nodes: usize,
    pub row_ptr: Vec<usize>,
    pub col_idx: Vec<u32>,
}

impl RawGraph {
    pub fn from_graph(g: &CsrGraph) -> Self {
        RawGraph {
            num_nodes: g.num_nodes(),
            row_ptr: g.row_ptr().to_vec(),
            col_idx: g.col_idx().to_vec(),
        }
    }

    pub fn into_graph(self) -> Result<CsrGraph, StoreError> {
        Ok(CsrGraph::from_raw_parts(self.num_nodes, self.row_ptr, self.col_idx)?)
    }
}

impl Encode for RawGraph {
    fn encode(&self, w: &mut Writer) {
        self.num_nodes.encode(w);
        self.row_ptr.encode(w);
        self.col_idx.encode(w);
    }
}

impl Decode for RawGraph {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(RawGraph {
            num_nodes: usize::decode(r)?,
            row_ptr: Vec::decode(r)?,
            col_idx: Vec::decode(r)?,
        })
    }
}

// ---------------------------------------------------------------------
// Partition
// ---------------------------------------------------------------------

/// Node classification on the wire: hubs and island indices share a
/// `u32` with two reserved sentinels.
const CLASS_HUB: u32 = u32::MAX;
const CLASS_UNCLASSIFIED: u32 = u32::MAX - 1;

pub struct RawIsland {
    pub nodes: Vec<u32>,
    pub hubs: Vec<u32>,
    pub round: u32,
    pub engine: u32,
}

impl Encode for RawIsland {
    fn encode(&self, w: &mut Writer) {
        self.nodes.encode(w);
        self.hubs.encode(w);
        self.round.encode(w);
        self.engine.encode(w);
    }
}

impl Decode for RawIsland {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(RawIsland {
            nodes: Vec::decode(r)?,
            hubs: Vec::decode(r)?,
            round: u32::decode(r)?,
            engine: u32::decode(r)?,
        })
    }
}

pub struct RawPartition {
    pub num_nodes: usize,
    pub islands: Vec<RawIsland>,
    pub hubs: Vec<u32>,
    pub inter_hub_edges: Vec<(u32, u32)>,
    pub node_class: Vec<u32>,
    pub c_max: usize,
}

impl RawPartition {
    pub fn from_partition(p: &IslandPartition) -> Self {
        RawPartition {
            num_nodes: p.num_nodes(),
            islands: p
                .islands()
                .iter()
                .map(|isl| RawIsland {
                    nodes: isl.nodes.clone(),
                    hubs: isl.hubs.clone(),
                    round: isl.round,
                    engine: isl.engine,
                })
                .collect(),
            hubs: p.hubs().to_vec(),
            inter_hub_edges: p.inter_hub_edges().to_vec(),
            node_class: p
                .node_classes()
                .iter()
                .map(|c| match c {
                    NodeClass::Hub => CLASS_HUB,
                    NodeClass::Unclassified => CLASS_UNCLASSIFIED,
                    NodeClass::Island(i) => *i,
                })
                .collect(),
            c_max: p.c_max(),
        }
    }

    pub fn into_partition(self) -> Result<IslandPartition, StoreError> {
        let num_islands = self.islands.len();
        let node_class: Vec<NodeClass> = self
            .node_class
            .into_iter()
            .map(|c| match c {
                CLASS_HUB => Ok(NodeClass::Hub),
                CLASS_UNCLASSIFIED => Err(corrupt(
                    "snapshot stores an unclassified node; partitions are always total",
                )),
                i if (i as usize) < num_islands => Ok(NodeClass::Island(i)),
                i => Err(corrupt(format!(
                    "node class references island {i}, only {num_islands} islands stored"
                ))),
            })
            .collect::<Result<_, _>>()?;
        let islands: Vec<Island> = self
            .islands
            .into_iter()
            .map(|isl| Island {
                nodes: isl.nodes,
                hubs: isl.hubs,
                round: isl.round,
                engine: isl.engine,
            })
            .collect();
        Ok(IslandPartition::from_raw_parts(
            self.num_nodes,
            islands,
            self.hubs,
            self.inter_hub_edges,
            node_class,
            self.c_max,
        )?)
    }
}

impl Encode for RawPartition {
    fn encode(&self, w: &mut Writer) {
        self.num_nodes.encode(w);
        self.islands.encode(w);
        self.hubs.encode(w);
        self.inter_hub_edges.encode(w);
        self.node_class.encode(w);
        self.c_max.encode(w);
    }
}

impl Decode for RawPartition {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(RawPartition {
            num_nodes: usize::decode(r)?,
            islands: Vec::decode(r)?,
            hubs: Vec::decode(r)?,
            inter_hub_edges: Vec::decode(r)?,
            node_class: Vec::decode(r)?,
            c_max: usize::decode(r)?,
        })
    }
}

// ---------------------------------------------------------------------
// Locator statistics
// ---------------------------------------------------------------------

pub struct RawLocatorStats(pub LocatorStats);

impl Encode for RawLocatorStats {
    fn encode(&self, w: &mut Writer) {
        let s = &self.0;
        s.rounds.len().encode(w);
        for round in &s.rounds {
            round.round.encode(w);
            round.threshold.encode(w);
            round.hubs_found.encode(w);
            round.islands_found.encode(w);
            round.island_nodes_classified.encode(w);
            round.hub_detect_cycles.encode(w);
            round.bfs_cycles.encode(w);
        }
        s.virtual_cycles.encode(w);
        s.adjacency_words_read.encode(w);
        s.tasks_generated.encode(w);
        s.tasks_dropped_conflict.encode(w);
        s.tasks_dropped_overflow.encode(w);
        s.tasks_dropped_hub_seed.encode(w);
        s.inter_hub_edges.encode(w);
        s.islands_found.encode(w);
    }
}

impl Decode for RawLocatorStats {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let num_rounds = r.read_len(8)?;
        let mut rounds = Vec::with_capacity(num_rounds);
        for _ in 0..num_rounds {
            rounds.push(RoundStats {
                round: u32::decode(r)?,
                threshold: u32::decode(r)?,
                hubs_found: usize::decode(r)?,
                islands_found: usize::decode(r)?,
                island_nodes_classified: usize::decode(r)?,
                hub_detect_cycles: u64::decode(r)?,
                bfs_cycles: u64::decode(r)?,
            });
        }
        Ok(RawLocatorStats(LocatorStats {
            rounds,
            virtual_cycles: u64::decode(r)?,
            adjacency_words_read: u64::decode(r)?,
            tasks_generated: u64::decode(r)?,
            tasks_dropped_conflict: u64::decode(r)?,
            tasks_dropped_overflow: u64::decode(r)?,
            tasks_dropped_hub_seed: u64::decode(r)?,
            inter_hub_edges: u64::decode(r)?,
            islands_found: u64::decode(r)?,
        }))
    }
}

// ---------------------------------------------------------------------
// Layout
// ---------------------------------------------------------------------

pub struct RawBitmap {
    pub num_hubs: usize,
    pub members: Vec<u32>,
    pub bits: Vec<u64>,
}

impl RawBitmap {
    fn from_bitmap(bm: &IslandBitmap) -> Self {
        RawBitmap {
            num_hubs: bm.num_hubs(),
            members: bm.members().to_vec(),
            bits: bm.bits().to_vec(),
        }
    }

    fn into_bitmap(self) -> Result<IslandBitmap, StoreError> {
        IslandBitmap::from_raw_parts(self.num_hubs, self.members, self.bits).map_err(corrupt)
    }
}

impl Encode for RawBitmap {
    fn encode(&self, w: &mut Writer) {
        self.num_hubs.encode(w);
        self.members.encode(w);
        self.bits.encode(w);
    }
}

impl Decode for RawBitmap {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(RawBitmap {
            num_hubs: usize::decode(r)?,
            members: Vec::decode(r)?,
            bits: Vec::decode(r)?,
        })
    }
}

pub struct RawLayout {
    /// `forward[old] = new` of the schedule-order permutation.
    pub forward: Vec<u32>,
    pub graph: RawGraph,
    pub partition: RawPartition,
    pub wave_width: usize,
    pub work: Vec<u64>,
    pub bitmaps_self: Vec<RawBitmap>,
    pub bitmaps_plain: Vec<RawBitmap>,
    pub inter_hub_tasks: Vec<(u32, Vec<u32>)>,
}

impl RawLayout {
    pub fn from_layout(layout: &IslandLayout) -> Self {
        let num_islands = layout.partition().num_islands();
        RawLayout {
            forward: layout.forward().to_vec(),
            graph: RawGraph::from_graph(layout.graph()),
            partition: RawPartition::from_partition(layout.partition()),
            wave_width: layout.schedule().wave_width(),
            work: layout.schedule().work().to_vec(),
            bitmaps_self: (0..num_islands)
                .map(|i| RawBitmap::from_bitmap(layout.bitmap(i, true)))
                .collect(),
            bitmaps_plain: (0..num_islands)
                .map(|i| RawBitmap::from_bitmap(layout.bitmap(i, false)))
                .collect(),
            inter_hub_tasks: layout.inter_hub_tasks().to_vec(),
        }
    }

    pub fn into_layout(self) -> Result<IslandLayout, StoreError> {
        let perm = Permutation::from_forward(self.forward)?;
        let graph = self.graph.into_graph()?;
        let partition = self.partition.into_partition()?;
        let schedule =
            IslandSchedule::from_raw_parts(self.wave_width, self.work).map_err(corrupt)?;
        let bitmaps_self: Vec<IslandBitmap> =
            self.bitmaps_self.into_iter().map(RawBitmap::into_bitmap).collect::<Result<_, _>>()?;
        let bitmaps_plain: Vec<IslandBitmap> =
            self.bitmaps_plain.into_iter().map(RawBitmap::into_bitmap).collect::<Result<_, _>>()?;
        Ok(IslandLayout::from_raw_parts(
            perm,
            graph,
            partition,
            schedule,
            bitmaps_self,
            bitmaps_plain,
            self.inter_hub_tasks,
        )?)
    }
}

impl Encode for RawLayout {
    fn encode(&self, w: &mut Writer) {
        self.forward.encode(w);
        self.graph.encode(w);
        self.partition.encode(w);
        self.wave_width.encode(w);
        self.work.encode(w);
        self.bitmaps_self.encode(w);
        self.bitmaps_plain.encode(w);
        self.inter_hub_tasks.encode(w);
    }
}

impl Decode for RawLayout {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(RawLayout {
            forward: Vec::decode(r)?,
            graph: RawGraph::decode(r)?,
            partition: RawPartition::decode(r)?,
            wave_width: usize::decode(r)?,
            work: Vec::decode(r)?,
            bitmaps_self: Vec::decode(r)?,
            bitmaps_plain: Vec::decode(r)?,
            inter_hub_tasks: Vec::decode(r)?,
        })
    }
}

// ---------------------------------------------------------------------
// Configurations
// ---------------------------------------------------------------------

pub struct RawIslandCfg(pub IslandizationConfig);

impl Encode for RawIslandCfg {
    fn encode(&self, w: &mut Writer) {
        let c = &self.0;
        match c.threshold_init {
            ThresholdInit::MaxDegreeFraction(f) => {
                0u8.encode(w);
                f.encode(w);
            }
            ThresholdInit::Absolute(t) => {
                1u8.encode(w);
                t.encode(w);
            }
        }
        // The decay slot: tag 0 (halving) and a zero step, the only
        // schedule there is.
        0u8.encode(w);
        0u32.encode(w);
        c.c_max.encode(w);
        c.p1_lanes.encode(w);
        c.p2_engines.encode(w);
        c.max_rounds.encode(w);
    }
}

impl Decode for RawIslandCfg {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let threshold_init = match u8::decode(r)? {
            0 => ThresholdInit::MaxDegreeFraction(f64::decode(r)?),
            1 => ThresholdInit::Absolute(u32::decode(r)?),
            t => return Err(invalid(format!("unknown threshold-init tag {t}"))),
        };
        let (decay_tag, _step) = (u8::decode(r)?, u32::decode(r)?);
        if decay_tag != 0 {
            return Err(invalid(format!("unknown decay tag {decay_tag}")));
        }
        let cfg = IslandizationConfig {
            threshold_init,
            c_max: usize::decode(r)?,
            p1_lanes: usize::decode(r)?,
            p2_engines: usize::decode(r)?,
            max_rounds: u32::decode(r)?,
        };
        cfg.validate().map_err(|e| invalid(e.to_string()))?;
        Ok(RawIslandCfg(cfg))
    }
}

pub struct RawConsumerCfg(pub ConsumerConfig);

impl Encode for RawConsumerCfg {
    fn encode(&self, w: &mut Writer) {
        let c = &self.0;
        c.k.encode(w);
        c.num_pes.encode(w);
        // The pre-aggregation slot: tag 0 (eager), the only policy there
        // is.
        0u8.encode(w);
        c.redundancy_removal.encode(w);
    }
}

impl Decode for RawConsumerCfg {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let k = usize::decode(r)?;
        let num_pes = usize::decode(r)?;
        let preagg_tag = u8::decode(r)?;
        if preagg_tag != 0 {
            return Err(invalid(format!("unknown pre-aggregation tag {preagg_tag}")));
        }
        let redundancy_removal = bool::decode(r)?;
        let cfg = ConsumerConfig { k, num_pes, redundancy_removal };
        cfg.validate().map_err(|e| invalid(e.to_string()))?;
        Ok(RawConsumerCfg(cfg))
    }
}

// ---------------------------------------------------------------------
// Model, weights, features
// ---------------------------------------------------------------------

pub struct RawModel {
    pub kind: u8,
    pub layers: Vec<(usize, usize, u8)>,
    pub epsilon: f32,
}

impl RawModel {
    pub fn from_model(m: &GnnModel) -> Self {
        RawModel {
            kind: match m.kind() {
                GnnKind::Gcn => 0,
                GnnKind::GraphSage => 1,
                GnnKind::Gin => 2,
            },
            layers: m
                .layers()
                .iter()
                .map(|l| {
                    let act = match l.activation {
                        Activation::Relu => 0u8,
                        Activation::None => 1u8,
                    };
                    (l.in_dim, l.out_dim, act)
                })
                .collect(),
            epsilon: m.epsilon(),
        }
    }

    pub fn into_model(self) -> Result<GnnModel, StoreError> {
        let kind = match self.kind {
            0 => GnnKind::Gcn,
            1 => GnnKind::GraphSage,
            2 => GnnKind::Gin,
            t => return Err(corrupt(format!("unknown model kind tag {t}"))),
        };
        if self.layers.is_empty() {
            return Err(corrupt("stored model has no layers"));
        }
        let layers: Vec<LayerConfig> = self
            .layers
            .iter()
            .map(|&(in_dim, out_dim, act)| {
                let activation = match act {
                    0 => Ok(Activation::Relu),
                    1 => Ok(Activation::None),
                    t => Err(corrupt(format!("unknown activation tag {t}"))),
                }?;
                Ok(LayerConfig { in_dim, out_dim, activation })
            })
            .collect::<Result<_, StoreError>>()?;
        for pair in layers.windows(2) {
            if pair[0].out_dim != pair[1].in_dim {
                return Err(corrupt(format!(
                    "stored model layers do not chain ({} out vs {} in)",
                    pair[0].out_dim, pair[1].in_dim
                )));
            }
        }
        Ok(GnnModel::from_layers(kind, layers, self.epsilon))
    }
}

impl Encode for RawModel {
    fn encode(&self, w: &mut Writer) {
        self.kind.encode(w);
        self.layers.len().encode(w);
        for &(i, o, a) in &self.layers {
            i.encode(w);
            o.encode(w);
            a.encode(w);
        }
        self.epsilon.encode(w);
    }
}

impl Decode for RawModel {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let kind = u8::decode(r)?;
        let num_layers = r.read_len(17)?;
        let mut layers = Vec::with_capacity(num_layers);
        for _ in 0..num_layers {
            layers.push((usize::decode(r)?, usize::decode(r)?, u8::decode(r)?));
        }
        Ok(RawModel { kind, layers, epsilon: f32::decode(r)? })
    }
}

pub struct RawMatrix {
    pub rows: usize,
    pub cols: usize,
    pub data: Vec<f32>,
}

impl RawMatrix {
    pub fn from_matrix(m: &DenseMatrix) -> Self {
        RawMatrix { rows: m.rows(), cols: m.cols(), data: m.as_slice().to_vec() }
    }

    pub fn into_matrix(self) -> Result<DenseMatrix, StoreError> {
        let expected = self.rows.checked_mul(self.cols).ok_or_else(|| {
            corrupt(format!("matrix shape {}×{} overflows", self.rows, self.cols))
        })?;
        if self.data.len() != expected {
            return Err(corrupt(format!(
                "matrix data has {} entries, shape {}×{} needs {expected}",
                self.data.len(),
                self.rows,
                self.cols
            )));
        }
        Ok(DenseMatrix::from_vec(self.rows, self.cols, self.data))
    }
}

impl Encode for RawMatrix {
    fn encode(&self, w: &mut Writer) {
        self.rows.encode(w);
        self.cols.encode(w);
        self.data.encode(w);
    }
}

impl Decode for RawMatrix {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(RawMatrix { rows: usize::decode(r)?, cols: usize::decode(r)?, data: Vec::decode(r)? })
    }
}

/// Converts stored weight matrices back, validating the chain before
/// `ModelWeights::from_matrices` (which panics on bad chains).
pub fn weights_from_raw(raw: Vec<RawMatrix>) -> Result<ModelWeights, StoreError> {
    let matrices: Vec<DenseMatrix> =
        raw.into_iter().map(RawMatrix::into_matrix).collect::<Result<_, _>>()?;
    for pair in matrices.windows(2) {
        if pair[0].cols() != pair[1].rows() {
            return Err(corrupt(format!(
                "stored weight shapes do not chain ({} cols vs {} rows)",
                pair[0].cols(),
                pair[1].rows()
            )));
        }
    }
    Ok(ModelWeights::from_matrices(matrices))
}

pub struct RawFeatures {
    pub num_rows: usize,
    pub num_cols: usize,
    pub row_ptr: Vec<usize>,
    pub col_idx: Vec<u32>,
    pub values: Vec<f32>,
}

impl RawFeatures {
    pub fn from_features(x: &SparseFeatures) -> Self {
        RawFeatures {
            num_rows: x.num_rows(),
            num_cols: x.num_cols(),
            row_ptr: x.row_ptr().to_vec(),
            col_idx: x.col_idx().to_vec(),
            values: x.values().to_vec(),
        }
    }

    pub fn into_features(self) -> Result<SparseFeatures, StoreError> {
        Ok(SparseFeatures::from_raw_parts(
            self.num_rows,
            self.num_cols,
            self.row_ptr,
            self.col_idx,
            self.values,
        )?)
    }
}

impl Encode for RawFeatures {
    fn encode(&self, w: &mut Writer) {
        self.num_rows.encode(w);
        self.num_cols.encode(w);
        self.row_ptr.encode(w);
        self.col_idx.encode(w);
        self.values.encode(w);
    }
}

impl Decode for RawFeatures {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(RawFeatures {
            num_rows: usize::decode(r)?,
            num_cols: usize::decode(r)?,
            row_ptr: Vec::decode(r)?,
            col_idx: Vec::decode(r)?,
            values: Vec::decode(r)?,
        })
    }
}

// ---------------------------------------------------------------------
// Graph updates (WAL records)
// ---------------------------------------------------------------------

pub struct RawUpdate {
    pub added_edges: Vec<(u32, u32)>,
    pub removed_edges: Vec<(u32, u32)>,
    pub new_num_nodes: Option<usize>,
}

impl Encode for RawUpdate {
    fn encode(&self, w: &mut Writer) {
        self.added_edges.encode(w);
        self.removed_edges.encode(w);
        self.new_num_nodes.encode(w);
    }
}

impl Decode for RawUpdate {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(RawUpdate {
            added_edges: Vec::decode(r)?,
            removed_edges: Vec::decode(r)?,
            new_num_nodes: Option::decode(r)?,
        })
    }
}

// ---------------------------------------------------------------------
// The complete snapshot payload
// ---------------------------------------------------------------------

/// Everything a snapshot stores, in wire order.
pub struct RawSnapshot {
    pub island_cfg: RawIslandCfg,
    pub consumer_cfg: RawConsumerCfg,
    pub graph: RawGraph,
    pub partition: RawPartition,
    pub locator_stats: RawLocatorStats,
    pub layout: RawLayout,
    pub model: Option<RawModel>,
    pub weights: Option<Vec<RawMatrix>>,
    pub features: Option<RawFeatures>,
}

impl Encode for RawSnapshot {
    fn encode(&self, w: &mut Writer) {
        self.island_cfg.encode(w);
        self.consumer_cfg.encode(w);
        self.graph.encode(w);
        self.partition.encode(w);
        self.locator_stats.encode(w);
        self.layout.encode(w);
        self.model.encode(w);
        self.weights.encode(w);
        self.features.encode(w);
    }
}

impl Decode for RawSnapshot {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(RawSnapshot {
            island_cfg: RawIslandCfg::decode(r)?,
            consumer_cfg: RawConsumerCfg::decode(r)?,
            graph: RawGraph::decode(r)?,
            partition: RawPartition::decode(r)?,
            locator_stats: RawLocatorStats::decode(r)?,
            layout: RawLayout::decode(r)?,
            model: Option::decode(r)?,
            weights: Option::decode(r)?,
            features: Option::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tag 1 of the decay and pre-aggregation slots (linear decay, lazy
    /// pre-aggregation) is retired and decodes to an error.
    #[test]
    fn retired_policy_tags_are_refused() {
        let mut island = bitcode::encode(&RawIslandCfg(IslandizationConfig::default()));
        island[9] = 1; // after the threshold-init tag and its `f64`
        let err = bitcode::decode::<RawIslandCfg>(&island).err();
        assert_eq!(err, Some(invalid("unknown decay tag 1")));
        let mut consumer = bitcode::encode(&RawConsumerCfg(ConsumerConfig::default()));
        let slot = consumer.len() - 2; // before the redundancy-removal flag
        consumer[slot] = 1;
        let err = bitcode::decode::<RawConsumerCfg>(&consumer).err();
        assert_eq!(err, Some(invalid("unknown pre-aggregation tag 1")));
    }
}
