//! End-to-end islandized GNN inference: the owned, serving-ready
//! I-GCN engine.

use std::borrow::Borrow;
use std::sync::{Arc, Mutex};

use igcn_gnn::{GnnModel, ModelWeights};
use igcn_graph::{CsrGraph, NodeId, SparseFeatures};
use igcn_linalg::{DenseMatrix, GcnNormalization};

use crate::accel::{
    validate_features, validate_weights, Accelerator, ExecReport, GraphUpdate, InferenceRequest,
    InferenceResponse, UpdateReport,
};
use crate::config::{ConsumerConfig, ExecConfig, IslandizationConfig};
use crate::consumer::hotpath::{self, IslandRunner, LayerScratch, LayerStep, WholeLayout};
use crate::consumer::pe::RowCost;
use crate::consumer::LayerInput;
use crate::error::CoreError;
use crate::incremental::{apply_update_structural, LocatorRounds};
use crate::layout::{IslandLayout, SlotSources};
use crate::locator::IslandLocator;
use crate::partition::IslandPartition;
use crate::stats::{ExecStats, LayerExecStats, LocatorStats};

/// Per-request execution scratch: the layer arenas plus the
/// schedule-order feature buffer and the ping-pong layer activations.
/// The request loop pools one per request, and a fleet one more per
/// shard, so repeated requests reuse steady-state buffers instead of
/// reallocating per layer.
pub struct ExecScratch {
    /// The layer driver's arenas.
    pub layer: LayerScratch,
    /// The request's features, gathered into layout order.
    pub features: SparseFeatures,
    /// The previous layer's activations.
    pub ping: DenseMatrix,
    /// The current layer's activations.
    pub pong: DenseMatrix,
}

impl Default for ExecScratch {
    fn default() -> Self {
        ExecScratch {
            layer: LayerScratch::new(),
            features: SparseFeatures::from_rows(0, 0, Vec::new()),
            ping: DenseMatrix::zeros(0, 0),
            pong: DenseMatrix::zeros(0, 0),
        }
    }
}

/// A small lock-guarded pool of warm per-request state, shared by all
/// clones of its owner: concurrent requests each take a private value
/// and return it when done.
pub struct ScratchPool<T>(Arc<Mutex<Vec<T>>>);

/// At most this many warm values are retained; beyond it (transient
/// concurrency spikes) returned values are simply dropped.
const SCRATCH_POOL_CAP: usize = 16;

impl<T> ScratchPool<T> {
    // invariant: the lock is only held across plain `Vec` operations,
    // so it is never poisoned.
    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<T>> {
        self.0.lock().expect("scratch pool lock")
    }

    /// A pooled value, or a fresh one when none is idle.
    pub fn take(&self) -> T
    where
        T: Default,
    {
        self.lock().pop().unwrap_or_default()
    }

    /// Returns `value` to the pool.
    pub fn put(&self, value: T) {
        let mut pool = self.lock();
        if pool.len() < SCRATCH_POOL_CAP {
            pool.push(value);
        }
    }

    /// Drops every pooled value.
    pub fn clear(&self) {
        self.lock().clear();
    }

    /// How many values are idle in the pool.
    pub fn pooled(&self) -> usize {
        self.lock().len()
    }
}

impl<T> Default for ScratchPool<T> {
    fn default() -> Self {
        ScratchPool(Arc::default())
    }
}

impl<T> Clone for ScratchPool<T> {
    /// A clone shares the pool.
    fn clone(&self) -> Self {
        ScratchPool(Arc::clone(&self.0))
    }
}

impl<T> std::fmt::Debug for ScratchPool<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let pooled = self.0.lock().map(|p| p.len()).unwrap_or(0);
        f.debug_struct("ScratchPool").field("pooled", &pooled).finish()
    }
}

/// Everything about an inference's [`ExecStats`] that does not depend
/// on the request, plus the normalisation the layers execute with.
///
/// A function of `(layout, ConsumerConfig, model, island workers,
/// locator statistics)`: one `Account` walk per layer
/// ([`crate::consumer::hotpath`]) with layer 0's request rows left
/// unpriced. A request enters the statistics through exactly two
/// integers — layer 0's combination MACs and feature-read bytes, both
/// sums over its rows' non-zero counts — which [`ExecPlan::stats`] adds
/// in O(n). Derived state, not a cache of requests: there is nothing
/// request-keyed in it.
#[derive(Debug)]
pub struct ExecPlan {
    /// The model the plan was built for.
    model: GnnModel,
    /// The Ã normalisation in layout order: the graph's own scales
    /// gathered ([`IGcnEngine::layout_normalization`]), bit for bit the
    /// scales of the schedule-ordered graph, whose degrees they are.
    norm: GcnNormalization,
    stats: ExecStats,
}

impl ExecPlan {
    /// Builds the plan for `model` over `layout` with `norm`, its
    /// layout-order normalisation, with occupancy modelled over
    /// `island_workers` workers and the locator's adjacency streaming
    /// charged to layer 0 (restructuring overlaps the first layer's
    /// consumption).
    pub fn build(
        layout: &IslandLayout,
        consumer_cfg: ConsumerConfig,
        model: &GnnModel,
        norm: GcnNormalization,
        island_workers: usize,
        locator_stats: &LocatorStats,
    ) -> Self {
        let layers = model
            .layers()
            .iter()
            .enumerate()
            .map(|(i, layer)| {
                let rows =
                    if i == 0 { RowCost::Deferred } else { RowCost::Dense { cols: layer.in_dim } };
                let mut stats = hotpath::account_rows(
                    layout,
                    consumer_cfg,
                    rows,
                    layer.in_dim,
                    layer.out_dim,
                    &norm,
                );
                if i == 0 {
                    stats.traffic.adjacency_bytes += locator_stats.adjacency_words_read * 4;
                }
                stats
            })
            .collect();
        let stats = ExecStats {
            locator: locator_stats.clone(),
            layers,
            occupancy: layout.schedule().occupancy(island_workers),
        };
        ExecPlan { model: model.clone(), norm, stats }
    }

    /// The layout-order normalisation the layers execute with.
    pub fn norm(&self) -> &GcnNormalization {
        &self.norm
    }

    /// The complete statistics of one inference over `features`:
    /// the plan plus the request's two integers.
    pub fn stats(&self, features: &SparseFeatures) -> ExecStats {
        let mut stats = self.stats.clone();
        if let Some(first) = stats.layers.first_mut() {
            let rows = RowCost::Sparse(features);
            for v in 0..features.num_rows() as u32 {
                let (macs, feature_bytes) = rows.of(first.feature_width, v);
                first.combination_ops.macs += macs;
                first.traffic.feature_read_bytes += feature_bytes;
            }
        }
        stats
    }
}

/// A batch of updates applied structurally and not yet committed
/// ([`IGcnEngine::stage`]): the engine's next graph and partition, what
/// each of its slots holds of the old layout, the nodes whose rows the
/// batch changed, a report per update and — when asked for — the
/// locator rounds of each.
struct Staged {
    graph: Arc<CsrGraph>,
    partition: IslandPartition,
    sources: SlotSources,
    touched: Vec<u32>,
    reports: Vec<UpdateReport>,
    rounds: Vec<LocatorRounds>,
}

/// Where an engine keeps its [`ExecPlan`]: empty — and allocating
/// nothing — until the first request that needs one, and replaced by an
/// empty slot whenever the owner's layout, model or execution
/// configuration changes. A clone takes the plan its original holds at
/// that moment (shared, not copied) and from then on keeps its own slot,
/// so neither can invalidate the other's. It is keyed on the model
/// because the direct-call paths (`IGcnEngine::run` / `account`) accept
/// any model.
#[derive(Debug, Default)]
struct PlanSlot(Mutex<Option<Arc<ExecPlan>>>);

impl PlanSlot {
    /// The slot's lock. It holds a whole plan or none at every step, so
    /// a poisoned lock (a panicking `build`) leaves nothing torn.
    fn lock(&self) -> std::sync::MutexGuard<'_, Option<Arc<ExecPlan>>> {
        self.0.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// The plan for `model`, built with `build` if the slot is empty or
    /// holds another model's.
    fn get_or_build(&self, model: &GnnModel, build: impl FnOnce() -> ExecPlan) -> Arc<ExecPlan> {
        let mut slot = self.lock();
        match &*slot {
            Some(plan) if plan.model == *model => Arc::clone(plan),
            _ => Arc::clone(slot.insert(Arc::new(build()))),
        }
    }
}

impl Clone for PlanSlot {
    fn clone(&self) -> Self {
        PlanSlot(Mutex::new(self.lock().clone()))
    }
}

/// The I-GCN engine: islandizes a graph once, then executes GNN layers
/// at island granularity with shared-neighbor redundancy removal.
///
/// The engine *owns* its graph (behind an `Arc`, so construction from a
/// shared graph is free) and is `Send + Sync`: prepare it once, wrap it
/// in an `Arc`, and it answers [`Accelerator::infer`] from any number of
/// threads — each call takes its scratch from a shared pool and the
/// calls share nothing else that is written.
/// Islandization runs once at build time — the structure is independent
/// of the layer — and is reused by every layer of every request, exactly
/// as the hardware overlaps the Island Locator with the first layer's
/// Island Consumer and replays the stored islands afterwards. Evolving
/// graphs stay inside the same engine through
/// [`IGcnEngine::apply_update`].
///
/// # Example
///
/// ```
/// use igcn_core::accel::{Accelerator, InferenceRequest};
/// use igcn_core::IGcnEngine;
/// use igcn_gnn::{GnnModel, ModelWeights};
/// use igcn_graph::generate::HubIslandConfig;
/// use igcn_graph::SparseFeatures;
///
/// let g = HubIslandConfig::new(200, 8).noise_fraction(0.0).generate(4);
/// let mut engine = IGcnEngine::builder(g.graph).build()?;
///
/// let model = GnnModel::gcn(16, 8, 3);
/// let weights = ModelWeights::glorot(&model, 2);
/// engine.prepare(&model, &weights)?;
///
/// let request = InferenceRequest::new(SparseFeatures::random(200, 16, 0.3, 1));
/// let response = engine.infer(&request)?;
/// assert_eq!(response.output.rows(), 200);
/// assert!(response.report.aggregation_pruning_rate >= 0.0);
/// # Ok::<(), igcn_core::CoreError>(())
/// ```
#[derive(Debug, Clone)]
pub struct IGcnEngine {
    graph: Arc<CsrGraph>,
    island_cfg: IslandizationConfig,
    consumer_cfg: ConsumerConfig,
    exec_cfg: ExecConfig,
    partition: IslandPartition,
    locator_stats: LocatorStats,
    prepared: Option<(GnnModel, ModelWeights)>,
    /// The schedule-ordered physical layout (rebuilt by `apply_update`).
    layout: Arc<IslandLayout>,
    /// Warm per-request scratch arenas, shared across clones.
    scratch: ScratchPool<ExecScratch>,
    /// The request-independent half of every report, built by the first
    /// request after `prepare`, an update or `set_exec_config` — never
    /// at build, boot or update time. Clones share a built plan.
    plan: PlanSlot,
}

/// Configures and builds an [`IGcnEngine`]; created by
/// [`IGcnEngine::builder`].
#[derive(Debug, Clone)]
pub struct IGcnEngineBuilder {
    graph: Arc<CsrGraph>,
    island_cfg: IslandizationConfig,
    consumer_cfg: ConsumerConfig,
    exec_cfg: ExecConfig,
}

impl IGcnEngineBuilder {
    /// Overrides the Island Locator configuration.
    pub fn island_config(mut self, cfg: IslandizationConfig) -> Self {
        self.island_cfg = cfg;
        self
    }

    /// Overrides the Island Consumer configuration.
    pub fn consumer_config(mut self, cfg: ConsumerConfig) -> Self {
        self.consumer_cfg = cfg;
        self
    }

    /// Overrides the execution configuration: the island thread count,
    /// which never changes an output or a report. The default is fully
    /// sequential.
    pub fn exec_config(mut self, cfg: ExecConfig) -> Self {
        self.exec_cfg = cfg;
        self
    }

    /// Islandizes the graph and builds the engine.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if the island or consumer
    /// configuration fails [`IslandizationConfig::validate`] or
    /// [`ConsumerConfig::validate`],
    /// [`CoreError::EmptyGraph`] if the graph has no nodes or no
    /// edges (there is nothing to islandize or aggregate),
    /// [`CoreError::SelfLoops`] if the graph has self-loops (the GCN
    /// self contribution is handled by the normalisation; strip loops
    /// first), or [`CoreError::RoundLimitExceeded`] if the locator fails
    /// to converge.
    pub fn build(self) -> Result<IGcnEngine, CoreError> {
        self.island_cfg.validate()?;
        self.consumer_cfg.validate()?;
        check_not_empty(&self.graph)?;
        check_loop_free(&self.graph)?;
        let (partition, locator_stats) = IslandLocator::new(&self.graph, &self.island_cfg).run()?;
        let layout = IslandLayout::new(&self.graph, &partition, self.consumer_cfg.num_pes);
        let layout = Arc::new(layout.sharing(&self.graph));
        Ok(self.assemble(EngineParts { partition, locator_stats, layout }))
    }

    /// The engine over checked `parts`: what both builds end in.
    fn assemble(self, parts: EngineParts) -> IGcnEngine {
        IGcnEngine {
            graph: self.graph,
            island_cfg: self.island_cfg,
            consumer_cfg: self.consumer_cfg,
            exec_cfg: self.exec_cfg,
            partition: parts.partition,
            locator_stats: parts.locator_stats,
            prepared: None,
            layout: parts.layout,
            scratch: ScratchPool::default(),
            plan: PlanSlot::default(),
        }
    }
}

/// Pre-composed islandization state for a warm engine boot: everything
/// [`IGcnEngineBuilder::build`] normally derives from the graph, loaded
/// instead from a snapshot (see `igcn-store`).
#[derive(Debug, Clone)]
pub struct EngineParts {
    /// The islandization partition over *original* node IDs.
    pub partition: IslandPartition,
    /// The locator statistics recorded when the partition was built.
    pub locator_stats: LocatorStats,
    /// The composed physical layout.
    pub layout: Arc<IslandLayout>,
}

impl IGcnEngineBuilder {
    /// Builds the engine from pre-composed islandization parts — the
    /// **warm-start** path: the Island Locator pass and the layout
    /// composition are both skipped, and only cheap structural checks
    /// run (the parts must belong to this builder's graph).
    ///
    /// Snapshot loading (`igcn::store::from_snapshot`) is the intended
    /// caller; the parts it supplies were validated structurally at
    /// decode time by `IslandLayout::from_raw_parts` and
    /// `IslandPartition::from_raw_parts`.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] / [`CoreError::EmptyGraph`] /
    /// [`CoreError::SelfLoops`] as [`IGcnEngineBuilder::build`], plus
    /// [`CoreError::ShapeMismatch`] if the parts do not match the graph
    /// (node or edge counts).
    pub fn build_from_parts(self, parts: EngineParts) -> Result<IGcnEngine, CoreError> {
        self.island_cfg.validate()?;
        self.consumer_cfg.validate()?;
        check_not_empty(&self.graph)?;
        check_loop_free(&self.graph)?;
        let (graph, layout) = (&self.graph, &parts.layout);
        let n = graph.num_nodes();
        check_shape("warm-start partition vs graph nodes", n, parts.partition.num_nodes())?;
        check_shape("warm-start layout vs graph nodes", n, layout.num_nodes())?;
        if let Some(source) = layout.source().filter(|&source| !Arc::ptr_eq(source, graph)) {
            check_shape(
                "warm-start layout vs graph edges",
                graph.num_directed_edges(),
                source.num_directed_edges(),
            )?;
        }
        check_shape(
            "warm-start layout islands vs partition islands",
            parts.partition.num_islands(),
            parts.layout.num_islands(),
        )?;
        Ok(self.assemble(parts))
    }
}

impl IGcnEngine {
    /// Starts building an engine over `graph`.
    ///
    /// Accepts either a `CsrGraph` by value or an existing
    /// `Arc<CsrGraph>` (no copy in either case).
    pub fn builder(graph: impl Into<Arc<CsrGraph>>) -> IGcnEngineBuilder {
        IGcnEngineBuilder {
            graph: graph.into(),
            island_cfg: IslandizationConfig::default(),
            consumer_cfg: ConsumerConfig::default(),
            exec_cfg: ExecConfig::default(),
        }
    }

    /// The graph this engine serves (also available through
    /// [`Accelerator::graph`]).
    pub fn graph_arc(&self) -> Arc<CsrGraph> {
        Arc::clone(&self.graph)
    }

    /// The partition produced by the Island Locator.
    pub fn partition(&self) -> &IslandPartition {
        &self.partition
    }

    /// The Island Locator statistics of the most recent (re)structuring
    /// — the initial build, or the incremental rounds of the last
    /// [`IGcnEngine::apply_update`].
    pub fn locator_stats(&self) -> &LocatorStats {
        &self.locator_stats
    }

    /// The Island Locator configuration.
    pub fn island_config(&self) -> IslandizationConfig {
        self.island_cfg
    }

    /// The Island Consumer configuration.
    pub fn consumer_config(&self) -> ConsumerConfig {
        self.consumer_cfg
    }

    /// The parallel-execution configuration.
    pub fn exec_config(&self) -> ExecConfig {
        self.exec_cfg
    }

    /// Replaces the execution configuration — the island thread count —
    /// in place.
    ///
    /// Unlike the island/consumer configurations, the thread count is a
    /// pure runtime knob: it never changes an output (bit-identical at
    /// every setting), a report or the partition, so it can be retuned
    /// on a built engine without re-islandizing.
    pub fn set_exec_config(&mut self, cfg: ExecConfig) {
        self.exec_cfg = cfg;
        self.plan = PlanSlot::default();
    }

    /// The physical data layout the engine executes over (schedule-order
    /// permutation, island ranges, prebuilt bitmaps, inter-hub tasks).
    pub fn layout(&self) -> &IslandLayout {
        &self.layout
    }

    /// The layout behind its shared handle (free to clone; used by the
    /// snapshot store to capture an engine image without copying).
    pub fn layout_arc(&self) -> Arc<IslandLayout> {
        Arc::clone(&self.layout)
    }

    /// The model and weights installed by [`Accelerator::prepare`], if
    /// any (used by the snapshot store to persist a complete engine
    /// image).
    pub fn prepared_model(&self) -> Option<(&GnnModel, &ModelWeights)> {
        self.prepared.as_ref().map(|(m, w)| (m, w))
    }

    /// Worker count the island schedule is fanned across inside one
    /// inference.
    fn island_workers(&self) -> usize {
        self.exec_cfg.num_threads.max(1)
    }

    /// Applies a batch of structural changes to the serving graph,
    /// incrementally re-islandizing only the disturbed neighborhood.
    ///
    /// Added edges dissolve the islands they touch (hubs never dissolve
    /// on additions — their degree only grew). Removed edges dissolve
    /// the islands of their endpoints; a hub endpoint whose loop-free
    /// degree falls below the configured hub floor is *demoted* back
    /// into the unclassified pool along with every island it contacts,
    /// and the locator rounds re-run over the disturbed region.
    /// Subsequent inference runs on the updated graph.
    ///
    /// # Errors
    ///
    /// [`CoreError::ShapeMismatch`] if the update shrinks the graph or
    /// references nodes beyond its (new) size;
    /// [`CoreError::SelfLoops`] if an added edge is a self-loop;
    /// [`CoreError::MissingEdge`] if a removed edge is not present;
    /// [`CoreError::RoundLimitExceeded`] if the incremental rounds fail
    /// to converge.
    pub fn apply_update(&mut self, update: GraphUpdate) -> Result<UpdateReport, CoreError> {
        let staged = self.stage([(&update, None)], false)?;
        let mut reports = self.commit(staged);
        Ok(reports.pop().expect("one update yields one report"))
    }

    /// Applies a whole batch of [`GraphUpdate`]s, recomposing the
    /// physical layout **once** at the end instead of once per update.
    /// Each update costs a CSR patch and the locator rounds over what it
    /// disturbed; the one recomposition patches the layout, carrying
    /// over what it holds for every island no update touched (see
    /// [`crate::incremental`] for the cost breakdown).
    ///
    /// An update may come with the locator rounds a log recorded for it
    /// ([`IGcnEngine::apply_update_logged`]): those are checked against
    /// the graph the update produced and applied in place of the search
    /// — the boot-time replay of `igcn-store`'s write-ahead log. An
    /// update without rounds searches.
    ///
    /// The observable result (graph, partition, locator statistics,
    /// layout, and the returned [`UpdateReport`]s) is identical to
    /// calling [`IGcnEngine::apply_update`] once per update in order,
    /// and so is a replay of the rounds those calls logged. On error the
    /// engine is left exactly as before the call — no prefix of the
    /// batch is applied.
    ///
    /// # Errors
    ///
    /// As [`IGcnEngine::apply_update`], for the first failing update,
    /// and [`CoreError::LoggedRoundsRejected`] with the index of the
    /// first update whose rounds do not fit its graph (see
    /// [`crate::incremental`]'s replay rules).
    pub fn apply_updates_batched<U: Borrow<GraphUpdate>>(
        &mut self,
        updates: impl IntoIterator<Item = (U, Option<LocatorRounds>)>,
    ) -> Result<Vec<UpdateReport>, CoreError> {
        let staged = self.stage(updates, false)?;
        Ok(self.commit(staged))
    }

    /// [`IGcnEngine::apply_update`], with `log` shown the update and the
    /// locator rounds it produced after the structural step and before
    /// anything is committed — the write-ahead hook of `igcn-store`. An
    /// error from `log` leaves the engine exactly as it was and is
    /// returned; so is a rejection of the update, without calling `log`.
    ///
    /// # Errors
    ///
    /// As [`IGcnEngine::apply_update`], or `log`'s error.
    pub fn apply_update_logged<E: From<CoreError>>(
        &mut self,
        update: GraphUpdate,
        log: impl FnOnce(&GraphUpdate, &LocatorRounds) -> Result<(), E>,
    ) -> Result<UpdateReport, E> {
        let staged = self.stage([(&update, None)], true)?;
        if let Err(e) = log(&update, &staged.rounds[0]) {
            self.partition = self.layout.original_partition();
            return Err(e);
        }
        let mut reports = self.commit(staged);
        Ok(reports.pop().expect("one update yields one report"))
    }

    /// The structural half of a batch: every update through
    /// [`apply_update_structural`], nothing of `self` committed. The
    /// partition moves through the updates (each consumes its input and
    /// surviving islands move on, uncopied); everything else of `self`
    /// stays as it is, so a failing update — or a caller abandoning the
    /// batch — is undone by reading the partition back out of the
    /// untouched layout. Each update's slot moves are followed, so the
    /// recompose knows what each slot holds of the old layout. `capture`
    /// keeps each update's rounds.
    fn stage<U: Borrow<GraphUpdate>>(
        &mut self,
        updates: impl IntoIterator<Item = (U, Option<LocatorRounds>)>,
        capture: bool,
    ) -> Result<Staged, CoreError> {
        let mut graph = Arc::clone(&self.graph);
        let mut sources = SlotSources::of(&self.layout);
        let mut touched: Vec<u32> = Vec::new();
        let mut reports = Vec::new();
        let mut rounds = Vec::new();
        let staged = updates.into_iter().enumerate().try_fold(
            std::mem::take(&mut self.partition),
            |partition, (i, (update, logged))| {
                let update = update.borrow();
                let (new_graph, result) =
                    apply_update_structural(&graph, partition, &self.island_cfg, update, logged)
                        .map_err(|e| match e {
                            CoreError::LoggedRoundsRejected { detail, .. } => {
                                CoreError::LoggedRoundsRejected { update: i, detail }
                            }
                            e => e,
                        })?;
                sources.record(&result);
                touched.extend(update.touched_nodes(graph.num_nodes()));
                if capture {
                    rounds.push(result.rounds(&new_graph));
                }
                graph = Arc::new(new_graph);
                reports.push(UpdateReport {
                    dissolved_islands: result.dissolved.len(),
                    reclassified_nodes: result.reclassified_nodes,
                    demoted_hubs: result.demoted_hubs,
                    num_nodes: graph.num_nodes(),
                    locator_stats: result.stats,
                });
                Ok(result.partition)
            },
        );
        match staged {
            Ok(partition) => Ok(Staged { graph, partition, sources, touched, reports, rounds }),
            Err(e) => {
                self.partition = self.layout.original_partition();
                Err(e)
            }
        }
    }

    /// Commits a staged batch: one layout recomposition for the whole of
    /// it, carrying what it holds for the islands no update touched.
    fn commit(&mut self, staged: Staged) -> Vec<UpdateReport> {
        let Staged { graph, partition, sources, touched, reports, .. } = staged;
        if let Some(last) = reports.last() {
            let num_pes = self.consumer_cfg.num_pes;
            IslandLayout::recompose(
                &mut self.layout,
                &sources,
                &touched,
                &graph,
                &partition,
                num_pes,
            );
            self.locator_stats = last.locator_stats.clone();
            self.plan = PlanSlot::default();
        }
        self.graph = graph;
        self.partition = partition;
        reports
    }

    /// `model`'s normalisation in layout order: the graph's own scales
    /// gathered through the layout. A scale is a function of a degree,
    /// which the layout permutation keeps, so this is bit for bit the
    /// normalisation of the schedule-ordered graph, without building it.
    pub fn layout_normalization(&self, model: &GnnModel) -> GcnNormalization {
        model.normalization(&self.graph).gather(self.layout.gather_order())
    }

    /// The request-independent plan for `model`, built on first use and
    /// kept until the layout, the prepared model or the execution
    /// configuration changes. A request's statistics are the plan plus
    /// its row lengths ([`ExecPlan::stats`]), and its layers execute
    /// with the plan's normalisation.
    pub fn exec_plan(&self, model: &GnnModel) -> Arc<ExecPlan> {
        self.plan.get_or_build(model, || {
            ExecPlan::build(
                &self.layout,
                self.consumer_cfg,
                model,
                self.layout_normalization(model),
                self.island_workers(),
                &self.locator_stats,
            )
        })
    }

    /// One request through the request loop that an engine and a fleet
    /// share, with `runner` as each layer's island step
    /// ([`crate::consumer::hotpath`]): the statistics from the plan; the
    /// request's rows gathered into layout order, every layer under a
    /// `layer_execute` span tagged from the plan, the ping-pong buffers
    /// swapped, the final rows scattered back to original node IDs.
    /// Callers validate the shapes.
    ///
    /// # Errors
    ///
    /// `runner`'s failure; the request's scratch is dropped, not pooled.
    ///
    /// # Panics
    ///
    /// On a model without layers or shapes that do not match.
    pub fn execute<R: IslandRunner>(
        &self,
        runner: &R,
        state: &mut R::State,
        features: &SparseFeatures,
        model: &GnnModel,
        weights: &ModelWeights,
    ) -> Result<(DenseMatrix, ExecStats), R::Error> {
        assert!(!model.layers().is_empty(), "models have at least one layer");
        let layout = &*self.layout;
        let plan = self.exec_plan(model);
        let stats = plan.stats(features);
        let n = layout.num_nodes();
        // The rows the loop keeps, in layout order, hubs first.
        let kept = if runner.shards().is_some() { layout.num_hubs() } else { n };
        let kept = &layout.gather_order()[..kept];

        let mut scratch = self.scratch.take();
        let ExecScratch { layer: layer_scratch, features: gathered, ping, pong } = &mut scratch;
        features.gather_rows_into(kept, gathered);
        runner.gather(features, state);
        let (mut src, mut dst) = (ping, pong);
        // Trace-tree parent for this request (NONE on untraced paths:
        // the per-layer spans below then feed their histogram only).
        let trace_parent = igcn_obs::trace::ambient();
        for (i, layer) in model.layers().iter().enumerate() {
            let w = weights.layer(i);
            dst.resize_in_place(kept.len(), w.cols());
            // Stage timing only — statistics and outputs are produced
            // identically whether telemetry is enabled or not.
            let mut layer_span =
                igcn_obs::trace::OpenSpan::child(trace_parent, igcn_obs::stage::LAYER_EXECUTE);
            layer_span.tag("layer", i);
            layer_span.tag("waves", layout.schedule().num_waves());
            if let Some(shards) = runner.shards() {
                layer_span.tag("shards", shards);
            }
            // The plan's I-GCN quantities, formatted only in a trace tree.
            let l = &stats.layers[i];
            let executed = l.aggregation.executed_vector_ops();
            layer_span.tag("islands", l.island_tasks);
            layer_span.tag("agg_ops_executed", executed);
            let pruned = l.aggregation.unpruned_vector_ops.saturating_sub(executed);
            layer_span.tag("agg_ops_pruned", pruned);
            layer_span.tag("hub_xw_hits", l.hub_path.xw_cache_hits);
            layer_span.tag("offchip_bytes", l.traffic.total_bytes());
            let step = LayerStep {
                ctx: layer_span.ctx(),
                input: if i == 0 { LayerInput::Sparse(gathered) } else { LayerInput::Dense(src) },
                weights: w,
                norm: plan.norm(),
                activation: layer.activation,
                threads: self.island_workers(),
            };
            let out = dst.as_mut_slice();
            hotpath::run_layer(layout, runner, &step, layer_scratch, out, state)?;
            std::mem::swap(&mut src, &mut dst);
        }

        // Requests and responses always speak original IDs.
        let mut out = DenseMatrix::zeros(n, src.cols());
        for (l, &orig) in kept.iter().enumerate() {
            out.row_mut(orig as usize).copy_from_slice(src.row(l));
        }
        runner.scatter(state, &mut out);
        self.scratch.put(scratch);
        // The per-request I-GCN counters on `/metrics`.
        if igcn_obs::enabled() {
            let sum = |f: fn(&LayerExecStats) -> u64| stats.layers.iter().map(f).sum();
            igcn_obs::counter("engine_island_tasks").add(sum(|l| l.island_tasks));
            igcn_obs::counter("engine_agg_ops_pruned").add(sum(|l| {
                l.aggregation
                    .unpruned_vector_ops
                    .saturating_sub(l.aggregation.executed_vector_ops())
            }));
            igcn_obs::counter("engine_offchip_bytes").add(sum(|l| l.traffic.total_bytes()));
        }
        Ok((out, stats))
    }

    /// Runs full-model inference, returning the output features and the
    /// complete execution statistics.
    ///
    /// This is the direct-call path; the serving path is
    /// [`Accelerator::infer`] with a model installed through
    /// [`Accelerator::prepare`].
    ///
    /// # Errors
    ///
    /// [`CoreError::ShapeMismatch`] if the feature or weight shapes do
    /// not match the graph and model.
    pub fn run(
        &self,
        features: &SparseFeatures,
        model: &GnnModel,
        weights: &ModelWeights,
    ) -> Result<(DenseMatrix, ExecStats), CoreError> {
        validate_features(&self.graph, model, features)?;
        validate_weights(model, weights)?;
        // The engine's runner: the whole layout, fanned out in place.
        let runner = WholeLayout { layout: &self.layout, cfg: self.consumer_cfg };
        let Ok(done) = self.execute(&runner, &mut (), features, model, weights);
        Ok(done)
    }

    /// Computes the statistics [`IGcnEngine::run`] returns, without
    /// running it: the plan plus an O(n) pass over the request's row
    /// lengths (used by the hardware timing model on large graphs).
    ///
    /// # Errors
    ///
    /// [`CoreError::ShapeMismatch`] if the feature shape does not match
    /// the graph.
    pub fn account(
        &self,
        features: &SparseFeatures,
        model: &GnnModel,
    ) -> Result<ExecStats, CoreError> {
        validate_features(&self.graph, model, features)?;
        Ok(self.exec_plan(model).stats(features))
    }

    /// Verifies islandized inference against the plain software
    /// reference, returning the maximum absolute output difference.
    ///
    /// # Errors
    ///
    /// As [`IGcnEngine::run`].
    pub fn verify(
        &self,
        features: &SparseFeatures,
        model: &GnnModel,
        weights: &ModelWeights,
    ) -> Result<f32, CoreError> {
        let (out, _) = self.run(features, model, weights)?;
        let reference = igcn_gnn::reference_forward(&self.graph, features, model, weights);
        Ok(out.max_abs_diff(&reference))
    }

    /// Convenience access to a node's output class (argmax over the
    /// final layer), for the example applications.
    pub fn predict_class(output: &DenseMatrix, node: NodeId) -> usize {
        let row = output.row(node.index());
        row.iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    fn prepared(&self) -> Result<&(GnnModel, ModelWeights), CoreError> {
        self.prepared.as_ref().ok_or_else(|| CoreError::NotPrepared { backend: self.name() })
    }
}

impl Accelerator for IGcnEngine {
    fn name(&self) -> String {
        "I-GCN".to_string()
    }

    fn graph(&self) -> &CsrGraph {
        &self.graph
    }

    fn prepare(&mut self, model: &GnnModel, weights: &ModelWeights) -> Result<(), CoreError> {
        validate_weights(model, weights)?;
        self.prepared = Some((model.clone(), weights.clone()));
        self.plan = PlanSlot::default();
        Ok(())
    }

    fn infer(&self, request: &InferenceRequest) -> Result<InferenceResponse, CoreError> {
        let (model, weights) = self.prepared()?;
        // The layer spans parent under the request's own trace context,
        // on whichever thread the caller runs it.
        let _trace = igcn_obs::trace::with_ambient(request.trace);
        let (output, stats) = self.run(&request.features, model, weights)?;
        Ok(InferenceResponse {
            id: request.id,
            output,
            report: ExecReport::from_stats(self.name(), &stats),
        })
    }

    fn report(&self, request: &InferenceRequest) -> Result<ExecReport, CoreError> {
        let (model, _) = self.prepared()?;
        let stats = self.account(&request.features, model)?;
        Ok(ExecReport::from_stats(self.name(), &stats))
    }
}

fn check_not_empty(graph: &CsrGraph) -> Result<(), CoreError> {
    if graph.num_nodes() == 0 || graph.num_directed_edges() == 0 {
        return Err(CoreError::EmptyGraph {
            num_nodes: graph.num_nodes(),
            num_edges: graph.num_directed_edges(),
        });
    }
    Ok(())
}

fn check_loop_free(graph: &CsrGraph) -> Result<(), CoreError> {
    for v in graph.iter_nodes() {
        if graph.has_edge(v, v) {
            return Err(CoreError::SelfLoops { node: v.value() });
        }
    }
    Ok(())
}

/// `Ok` when `got` is the `expected` size, the typed mismatch otherwise.
fn check_shape(what: &str, expected: usize, got: usize) -> Result<(), CoreError> {
    if got == expected {
        return Ok(());
    }
    Err(CoreError::ShapeMismatch { what: what.to_string(), expected, got })
}

/// Islandizes `graph` and computes the statistics [`IGcnEngine::run`]
/// would produce, without taking ownership of (or copying) the graph:
/// locator → [`IslandLayout::new`] → the plan's `Account` walks. The
/// layout is dropped at the end, with the view it composed over.
///
/// This is the borrowed accounting path for timing models that receive
/// `&CsrGraph` per call (e.g. `igcn_sim`'s `GcnAccelerator::simulate`),
/// so it models occupancy over the *PEs* (the engine's own
/// `run`/`account` model it over the configured software threads
/// instead). Long-lived callers should build an [`IGcnEngine`]
/// so the islandization is done once.
///
/// # Errors
///
/// As [`IGcnEngineBuilder::build`] (including [`CoreError::EmptyGraph`]
/// for graphs with no nodes or no edges) plus
/// [`CoreError::ShapeMismatch`] for feature shapes that do not match the
/// graph and model.
pub fn account_islandized(
    graph: &CsrGraph,
    island_cfg: IslandizationConfig,
    consumer_cfg: ConsumerConfig,
    features: &SparseFeatures,
    model: &GnnModel,
) -> Result<ExecStats, CoreError> {
    island_cfg.validate()?;
    consumer_cfg.validate()?;
    check_not_empty(graph)?;
    check_loop_free(graph)?;
    validate_features(graph, model, features)?;
    let (partition, locator_stats) = IslandLocator::new(graph, &island_cfg).run()?;
    let layout = IslandLayout::new(graph, &partition, consumer_cfg.num_pes);
    let norm = model.normalization(graph).gather(layout.gather_order());
    let plan =
        ExecPlan::build(&layout, consumer_cfg, model, norm, consumer_cfg.num_pes, &locator_stats);
    Ok(plan.stats(features))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consumer::oracle;
    use igcn_gnn::GnnKind;
    use igcn_graph::generate::HubIslandConfig;

    fn engine_setup(n: usize, noise: f64, seed: u64) -> (CsrGraph, SparseFeatures) {
        let g = HubIslandConfig::new(n, (n / 25).max(2)).noise_fraction(noise).generate(seed);
        let x = SparseFeatures::random(n, 10, 0.4, seed + 100);
        (g.graph, x)
    }

    #[test]
    fn end_to_end_matches_reference_gcn() {
        let (g, x) = engine_setup(200, 0.05, 1);
        let engine = IGcnEngine::builder(g).build().unwrap();
        let model = GnnModel::gcn(10, 8, 4);
        let w = ModelWeights::glorot(&model, 2);
        let diff = engine.verify(&x, &model, &w).unwrap();
        assert!(diff < 1e-4, "output diverges from reference by {diff}");
    }

    #[test]
    fn end_to_end_matches_reference_all_models() {
        let (g, x) = engine_setup(150, 0.0, 2);
        let engine = IGcnEngine::builder(g).build().unwrap();
        for model in
            [GnnModel::gcn(10, 6, 3), GnnModel::graphsage(10, 6, 3), GnnModel::gin(10, 6, 3, 0.2)]
        {
            let w = ModelWeights::glorot(&model, 4);
            let diff = engine.verify(&x, &model, &w).unwrap();
            // GIN's unnormalised sum aggregation accumulates larger
            // magnitudes, so FP reassociation noise is larger in absolute
            // terms.
            assert!(diff < 5e-3, "{:?} diverges by {diff}", model.kind());
        }
    }

    #[test]
    fn self_loops_rejected() {
        let g = CsrGraph::from_undirected_edges(3, &[(0, 0), (0, 1)]).unwrap();
        let err = IGcnEngine::builder(g).build().unwrap_err();
        assert!(matches!(err, CoreError::SelfLoops { node: 0 }));
    }

    /// The statistics of actually executing `model` layer by layer over
    /// the engine's layout through `(Compute, Account)` — what the plan
    /// plus the request's two integers must reproduce.
    fn executed_stats(
        engine: &IGcnEngine,
        x: &SparseFeatures,
        model: &GnnModel,
        w: &ModelWeights,
    ) -> (DenseMatrix, ExecStats) {
        let layout = engine.layout();
        let n = layout.graph().num_nodes();
        let norm = model.normalization(layout.graph());
        let gathered = x.gather_rows(layout.gather_order());
        let mut scratch = LayerScratch::new();
        let mut stats = ExecStats {
            locator: engine.locator_stats().clone(),
            occupancy: layout.schedule().occupancy(engine.island_workers()),
            ..Default::default()
        };
        let mut acts = DenseMatrix::zeros(0, 0);
        for (i, layer) in model.layers().iter().enumerate() {
            let mut out = DenseMatrix::zeros(n, layer.out_dim);
            let input =
                if i == 0 { LayerInput::Sparse(&gathered) } else { LayerInput::Dense(&acts) };
            let mut layer_stats = hotpath::execute_layer(
                layout,
                engine.consumer_cfg,
                input,
                w.layer(i),
                &norm,
                layer.activation,
                &mut scratch,
                out.as_mut_slice(),
            );
            if i == 0 {
                layer_stats.traffic.adjacency_bytes +=
                    engine.locator_stats().adjacency_words_read * 4;
            }
            stats.layers.push(layer_stats);
            acts = out;
        }
        let mut scattered = DenseMatrix::zeros(n, acts.cols());
        for (old, &new) in layout.forward().iter().enumerate() {
            scattered.row_mut(old).copy_from_slice(acts.row(new as usize));
        }
        (scattered, stats)
    }

    #[test]
    fn account_matches_run_stats() {
        // `run` reports the plan, so `account == run` holds by
        // construction; what pins the plan is the layer-by-layer
        // execution through `(Compute, Account)`, for unit and non-unit
        // self weights.
        let (g, x) = engine_setup(180, 0.05, 3);
        let engine = IGcnEngine::builder(g).build().unwrap();
        for model in [GnnModel::gcn(10, 8, 4), GnnModel::gin(10, 8, 4, 0.2)] {
            let w = ModelWeights::glorot(&model, 5);
            let (out, run_stats) = engine.run(&x, &model, &w).unwrap();
            assert_eq!(engine.account(&x, &model).unwrap(), run_stats);
            let (executed_out, executed) = executed_stats(&engine, &x, &model, &w);
            assert_eq!(run_stats, executed, "{:?}: plan vs executed statistics", model.kind());
            assert_eq!(
                out,
                executed_out,
                "{:?}: Compute alone vs (Compute, Account)",
                model.kind()
            );
        }
    }

    #[test]
    fn account_matches_the_stats_oracle() {
        // The plan is the walk's `Account` sink plus layer 0's request
        // rows; the oracle re-derives every layer from the partition in
        // original IDs, sharing none of that code.
        let (g, x) = engine_setup(180, 0.05, 3);
        let gcn = GnnModel::gcn(10, 8, 4);
        let gin = GnnModel::from_layers(GnnKind::Gin, gcn.layers().to_vec(), 0.2);
        let hidden = DenseMatrix::zeros(g.num_nodes(), 8);
        for threads in [1, 4] {
            let engine = IGcnEngine::builder(g.clone())
                .exec_config(ExecConfig::default().with_threads(threads))
                .build()
                .unwrap();
            for model in [&gcn, &gin] {
                let stats = engine.account(&x, model).unwrap();
                let norm = model.normalization(&g);
                for (i, layer) in model.layers().iter().enumerate() {
                    let input =
                        if i == 0 { LayerInput::Sparse(&x) } else { LayerInput::Dense(&hidden) };
                    let mut expected = oracle::layer_stats(
                        &g,
                        engine.partition(),
                        engine.consumer_cfg,
                        input,
                        layer.out_dim,
                        &norm,
                    );
                    if i == 0 {
                        expected.traffic.adjacency_bytes +=
                            engine.locator_stats().adjacency_words_read * 4;
                    }
                    let what = format!("{:?} layer {i} at {threads} threads", model.kind());
                    assert_eq!(stats.layers[i], expected, "{what}");
                }
            }
        }
    }

    #[test]
    fn pruning_rate_in_plausible_band() {
        // Densely clustered graphs should prune a substantial fraction of
        // aggregation ops, as the paper's Fig 10 reports for every dataset.
        let g = HubIslandConfig::new(500, 20).island_density(0.6).noise_fraction(0.0).generate(7);
        let x = SparseFeatures::random(500, 16, 0.3, 8);
        let engine = IGcnEngine::builder(g.graph).build().unwrap();
        let model = GnnModel::gcn(16, 8, 4);
        let stats = engine.account(&x, &model).unwrap();
        let rate = stats.aggregation_pruning_rate();
        assert!(rate > 0.1, "pruning rate {rate} too low for a dense-island graph");
        assert!(rate < 0.8, "pruning rate {rate} implausibly high");
    }

    #[test]
    fn predict_class_argmax() {
        let out = DenseMatrix::from_vec(2, 3, vec![0.1, 0.9, 0.2, 0.5, 0.1, 0.4]);
        assert_eq!(IGcnEngine::predict_class(&out, NodeId::new(0)), 1);
        assert_eq!(IGcnEngine::predict_class(&out, NodeId::new(1)), 0);
    }

    #[test]
    fn gin_kind_marker() {
        // Ensure GnnKind is re-exported usefully for downstream matching.
        assert_eq!(GnnModel::gin(4, 4, 2, 0.1).kind(), GnnKind::Gin);
    }

    #[test]
    fn engine_is_owned_send_sync() {
        fn assert_send_sync<T: Send + Sync + 'static>() {}
        assert_send_sync::<IGcnEngine>();
    }

    #[test]
    fn shape_mismatch_is_an_error_not_a_panic() {
        let (g, _) = engine_setup(150, 0.0, 4);
        let engine = IGcnEngine::builder(g).build().unwrap();
        let model = GnnModel::gcn(10, 6, 3);
        let w = ModelWeights::glorot(&model, 1);
        let wrong_rows = SparseFeatures::random(99, 10, 0.4, 2);
        assert!(matches!(
            engine.run(&wrong_rows, &model, &w),
            Err(CoreError::ShapeMismatch { .. })
        ));
        // Wrong feature width (cols vs the model's in_dim) must also be
        // an error on the direct path, not a panic deep in the consumer.
        let wrong_cols = SparseFeatures::random(150, 7, 0.4, 2);
        assert!(matches!(
            engine.run(&wrong_cols, &model, &w),
            Err(CoreError::ShapeMismatch { .. })
        ));
        assert!(matches!(
            engine.account(&wrong_cols, &model),
            Err(CoreError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn trait_infer_matches_direct_run() {
        let (g, x) = engine_setup(160, 0.02, 5);
        let mut engine = IGcnEngine::builder(g).build().unwrap();
        let model = GnnModel::gcn(10, 8, 4);
        let w = ModelWeights::glorot(&model, 6);
        engine.prepare(&model, &w).unwrap();
        let resp = engine.infer(&InferenceRequest::new(x.clone()).with_id(3)).unwrap();
        let (direct, stats) = engine.run(&x, &model, &w).unwrap();
        assert_eq!(resp.id, 3);
        assert_eq!(resp.output, direct);
        assert_eq!(resp.report, ExecReport::from_stats("I-GCN", &stats));
    }

    #[test]
    fn apply_update_keeps_inference_exact() {
        let (g, _) = engine_setup(300, 0.01, 6);
        let mut engine = IGcnEngine::builder(g).build().unwrap();
        let model = GnnModel::gcn(10, 8, 4);
        let w = ModelWeights::glorot(&model, 7);
        engine.prepare(&model, &w).unwrap();

        // Wire two fresh nodes onto an existing hub and grow the graph.
        let n = engine.graph().num_nodes();
        let hub = engine.partition().hubs()[0];
        let update = GraphUpdate::add_edges(vec![(n as u32, hub), (n as u32 + 1, n as u32)])
            .with_num_nodes(n + 2);
        let report = engine.apply_update(update).unwrap();
        assert_eq!(report.num_nodes, n + 2);
        engine.partition().check_invariants(engine.graph()).unwrap();

        let x = SparseFeatures::random(n + 2, 10, 0.4, 8);
        let diff = engine.verify(&x, &model, &w).unwrap();
        assert!(diff < 1e-3, "post-update inference diverged by {diff}");
    }

    #[test]
    fn parallel_engine_outputs_are_bit_identical() {
        const CALLERS: usize = 4;
        const EACH: usize = 3;
        let (g, _) = engine_setup(260, 0.05, 9);
        let mut sequential = IGcnEngine::builder(g.clone()).build().unwrap();
        let model = GnnModel::gcn(10, 8, 4);
        let w = ModelWeights::glorot(&model, 12);
        sequential.prepare(&model, &w).unwrap();
        let requests: Vec<InferenceRequest> = (0..(CALLERS * EACH) as u64)
            .map(|i| {
                InferenceRequest::new(SparseFeatures::random(260, 10, 0.4, 500 + i)).with_id(i)
            })
            .collect();
        let baseline: Vec<_> = requests.iter().map(|r| sequential.infer(r).unwrap()).collect();
        for threads in [1, 2, 8] {
            let mut engine = IGcnEngine::builder(g.clone())
                .exec_config(ExecConfig::default().with_threads(threads))
                .build()
                .unwrap();
            engine.prepare(&model, &w).unwrap();
            // Island fan-out inside each inference, one caller.
            let alone: Vec<_> = requests.iter().map(|r| engine.infer(r).unwrap()).collect();
            for (a, b) in baseline.iter().zip(&alone) {
                assert_eq!(a.id, b.id);
                assert_eq!(a.output, b.output, "output diverges at {threads} threads");
            }
            // Several callers at once on the one engine — what serving
            // workers do: they share its scratch pool and the helper
            // pool, and nothing of each other's answers.
            let concurrent: Vec<_> = std::thread::scope(|scope| {
                let engine = &engine;
                let callers: Vec<_> = requests
                    .chunks(EACH)
                    .map(|mine| {
                        scope.spawn(move || {
                            mine.iter().map(|r| engine.infer(r).unwrap()).collect::<Vec<_>>()
                        })
                    })
                    .collect();
                callers.into_iter().flat_map(|c| c.join().unwrap()).collect()
            });
            assert_eq!(concurrent, alone, "concurrent callers diverge at {threads} threads");
        }
    }

    #[test]
    fn a_zero_width_hidden_layer_runs_at_every_thread_count() {
        let (g, x) = engine_setup(150, 0.05, 14);
        let model = GnnModel::gcn(10, 0, 3);
        let w = ModelWeights::glorot(&model, 15);
        let reference = igcn_gnn::reference_forward(&g, &x, &model, &w);
        for threads in [1, 4] {
            let engine = IGcnEngine::builder(g.clone())
                .exec_config(ExecConfig::default().with_threads(threads))
                .build()
                .unwrap();
            let (out, _) = engine.run(&x, &model, &w).unwrap();
            assert_eq!(out, reference, "{threads} threads");
        }
    }

    #[test]
    fn parallel_account_matches_run_stats() {
        let (g, x) = engine_setup(200, 0.05, 10);
        let engine = IGcnEngine::builder(g)
            .exec_config(ExecConfig::default().with_threads(4))
            .build()
            .unwrap();
        let model = GnnModel::gcn(10, 8, 4);
        let w = ModelWeights::glorot(&model, 13);
        let (_, run_stats) = engine.run(&x, &model, &w).unwrap();
        let acc_stats = engine.account(&x, &model).unwrap();
        assert_eq!(run_stats, acc_stats);
        assert_eq!(run_stats, executed_stats(&engine, &x, &model, &w).1);
        assert_eq!(run_stats.occupancy.workers(), 4);
        assert_eq!(
            run_stats.occupancy.total_busy(),
            run_stats.occupancy.worker_busy_cycles.iter().sum::<u64>()
        );
    }

    #[test]
    fn empty_graphs_are_an_error_not_a_panic() {
        let no_nodes = CsrGraph::from_undirected_edges(0, &[]).unwrap();
        assert!(matches!(
            IGcnEngine::builder(no_nodes).build(),
            Err(CoreError::EmptyGraph { num_nodes: 0, .. })
        ));
        let no_edges = CsrGraph::from_undirected_edges(5, &[]).unwrap();
        assert!(matches!(
            IGcnEngine::builder(no_edges.clone()).build(),
            Err(CoreError::EmptyGraph { num_edges: 0, .. })
        ));
        let model = GnnModel::gcn(4, 4, 2);
        let x = SparseFeatures::random(5, 4, 0.5, 1);
        assert!(matches!(
            account_islandized(
                &no_edges,
                IslandizationConfig::default(),
                ConsumerConfig::default(),
                &x,
                &model,
            ),
            Err(CoreError::EmptyGraph { .. })
        ));
    }

    /// `validate`, `build`, `build_from_parts` and `account_islandized`
    /// all refuse the configurations with the `InvalidConfig` naming
    /// `field = value`.
    fn assert_refused(
        island: IslandizationConfig,
        consumer: ConsumerConfig,
        field: &str,
        value: usize,
    ) {
        let (g, x) = engine_setup(150, 0.0, 12);
        let engine = IGcnEngine::builder(g.clone()).build().unwrap();
        let parts = EngineParts {
            partition: engine.partition().clone(),
            locator_stats: engine.locator_stats().clone(),
            layout: engine.layout_arc(),
        };
        let builder =
            || IGcnEngine::builder(g.clone()).island_config(island).consumer_config(consumer);
        let model = GnnModel::gcn(10, 4, 2);
        for (path, got) in [
            ("validate", island.validate().and(consumer.validate()).err()),
            ("build", builder().build().err()),
            ("build_from_parts", builder().build_from_parts(parts).err()),
            ("account_islandized", account_islandized(&g, island, consumer, &x, &model).err()),
        ] {
            let refused = matches!(got, Some(CoreError::InvalidConfig { field: f, value: v, .. })
                if f == field && v == value);
            assert!(refused, "{island:?} {consumer:?}: {path}");
        }
    }

    #[test]
    fn invalid_consumer_configs_are_an_error_not_a_panic() {
        // The fields are public, so a literal gets past `with_k` /
        // `with_pes`; every way to an engine must refuse it up front.
        let default = ConsumerConfig::default();
        for (cfg, field, value) in [
            (ConsumerConfig { k: 0, ..default }, "consumer.k", 0),
            (ConsumerConfig { k: 1, ..default }, "consumer.k", 1),
            (ConsumerConfig { k: 65, ..default }, "consumer.k", 65),
            (ConsumerConfig { num_pes: 0, ..default }, "consumer.num_pes", 0),
            (ConsumerConfig { num_pes: 1 << 32, ..default }, "consumer.num_pes", 1 << 32),
        ] {
            assert_refused(IslandizationConfig::default(), cfg, field, value);
        }
        for k in [2, 64] {
            assert_eq!(ConsumerConfig { k, num_pes: 1, ..default }.validate(), Ok(()));
        }
    }

    #[test]
    fn invalid_island_configs_are_an_error_not_a_panic() {
        // A zero lane or engine count would divide by zero or trip the
        // TP-BFS assertion inside the locator; refused up front instead.
        let default = IslandizationConfig::default();
        for (cfg, field) in [
            (IslandizationConfig { c_max: 0, ..default }, "island.c_max"),
            (IslandizationConfig { p1_lanes: 0, ..default }, "island.p1_lanes"),
            (IslandizationConfig { p2_engines: 0, ..default }, "island.p2_engines"),
        ] {
            assert_refused(cfg, ConsumerConfig::default(), field, 0);
        }
        let smallest = IslandizationConfig { c_max: 1, p1_lanes: 1, p2_engines: 1, ..default };
        assert_eq!(smallest.validate(), Ok(()));
    }

    #[test]
    fn apply_update_supports_removals() {
        let (g, _) = engine_setup(300, 0.01, 12);
        let mut engine = IGcnEngine::builder(g).build().unwrap();
        let model = GnnModel::gcn(10, 8, 4);
        let w = ModelWeights::glorot(&model, 15);
        engine.prepare(&model, &w).unwrap();

        // Remove one existing island-internal or island-hub edge.
        let island = engine.partition().islands().iter().find(|i| i.len() >= 2).unwrap();
        let a = island.nodes[0];
        let b = *engine
            .graph()
            .neighbors(NodeId::new(a))
            .iter()
            .find(|&&nb| nb != a)
            .expect("island node has a neighbor");
        let report = engine.apply_update(GraphUpdate::remove_edges(vec![(a, b)])).unwrap();
        assert!(report.dissolved_islands >= 1, "the endpoint island must dissolve");
        engine.partition().check_invariants(engine.graph()).unwrap();
        assert!(!engine.graph().has_edge(NodeId::new(a), NodeId::new(b)));

        let n = engine.graph().num_nodes();
        let x = SparseFeatures::random(n, 10, 0.4, 16);
        let diff = engine.verify(&x, &model, &w).unwrap();
        assert!(diff < 1e-3, "post-removal inference diverged by {diff}");

        // Removing a non-existent edge is an error.
        assert!(matches!(
            engine.apply_update(GraphUpdate::remove_edges(vec![(a, b)])),
            Err(CoreError::MissingEdge { .. })
        ));
    }

    #[test]
    fn batched_updates_match_sequential_replay() {
        // The WAL-replay contract: applying a batch with one final
        // layout recomposition must land in exactly the state (graph,
        // partition, locator stats, outputs, reports) that per-update
        // replay produces.
        let (g, _) = engine_setup(320, 0.02, 20);
        let model = GnnModel::gcn(10, 8, 4);
        let w = ModelWeights::glorot(&model, 21);
        let mut sequential = IGcnEngine::builder(g.clone()).build().unwrap();
        let mut batched = IGcnEngine::builder(g).build().unwrap();
        sequential.prepare(&model, &w).unwrap();
        batched.prepare(&model, &w).unwrap();

        let n = sequential.graph().num_nodes() as u32;
        let hub = sequential.partition().hubs()[0];
        let island = sequential.partition().islands().iter().find(|i| i.len() >= 2).unwrap();
        let a = island.nodes[0];
        let b = *sequential
            .graph()
            .neighbors(NodeId::new(a))
            .iter()
            .find(|&&nb| nb != a)
            .expect("island node has a neighbor");
        let updates = vec![
            GraphUpdate::add_edges(vec![(n, hub), (n + 1, n)]).with_num_nodes(n as usize + 2),
            GraphUpdate::remove_edges(vec![(a, b)]),
            GraphUpdate::add_edges(vec![(a, n + 1)]),
        ];

        let mut seq_reports = Vec::new();
        for u in &updates {
            seq_reports.push(sequential.apply_update(u.clone()).unwrap());
        }
        let batch_reports =
            batched.apply_updates_batched(updates.iter().map(|u| (u, None))).unwrap();

        assert_eq!(seq_reports.len(), batch_reports.len());
        for (s, b) in seq_reports.iter().zip(&batch_reports) {
            assert_eq!(s.dissolved_islands, b.dissolved_islands);
            assert_eq!(s.reclassified_nodes, b.reclassified_nodes);
            assert_eq!(s.demoted_hubs, b.demoted_hubs);
            assert_eq!(s.num_nodes, b.num_nodes);
            assert_eq!(s.locator_stats, b.locator_stats);
        }
        assert_eq!(sequential.graph(), batched.graph());
        assert_eq!(sequential.partition(), batched.partition());
        assert_eq!(sequential.locator_stats(), batched.locator_stats());
        assert_eq!(sequential.layout(), batched.layout());

        let x = SparseFeatures::random(sequential.graph().num_nodes(), 10, 0.4, 22);
        let (so, ss) = sequential.run(&x, &model, &w).unwrap();
        let (bo, bs) = batched.run(&x, &model, &w).unwrap();
        assert_eq!(so, bo, "batched replay output diverged");
        assert_eq!(ss, bs, "batched replay stats diverged");
    }

    /// Applies `update` to `engine` through the logging path and
    /// returns its report and the rounds the log was shown.
    fn logged(engine: &mut IGcnEngine, update: &GraphUpdate) -> (UpdateReport, LocatorRounds) {
        let mut shown = None;
        let report = engine
            .apply_update_logged(update.clone(), |_, rounds| {
                shown = Some(rounds.clone());
                Ok::<(), CoreError>(())
            })
            .unwrap();
        (report, shown.expect("the log saw the rounds"))
    }

    fn assert_reports_eq(a: &[UpdateReport], b: &[UpdateReport], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}");
        for (i, (a, b)) in a.iter().zip(b).enumerate() {
            let fields = |r: &UpdateReport| {
                (r.dissolved_islands, r.reclassified_nodes, r.demoted_hubs, r.num_nodes)
            };
            assert_eq!(fields(a), fields(b), "{what}: report {i}");
            assert_eq!(a.locator_stats, b.locator_stats, "{what}: report {i}'s locator stats");
        }
    }

    #[test]
    fn batched_updates_match_sequential_across_reforms_and_demotions() {
        // Seeded batches in which a later record dissolves an island an
        // earlier record formed and a removal demotes a hub: a batch —
        // searching, or applying the rounds the sequential updates
        // logged — lands where one update at a time does.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let model = GnnModel::gcn(10, 8, 4);
        let w = ModelWeights::glorot(&model, 31);
        let fresh_edge = |engine: &IGcnEngine, from: u32, rng: &mut StdRng| loop {
            let to = rng.gen_range(0..engine.graph().num_nodes() as u32);
            if to != from && !engine.graph().has_edge(NodeId::new(from), NodeId::new(to)) {
                return (from, to);
            }
        };
        for seed in 0..6u64 {
            let (g, _) = engine_setup(360, 0.02, 40 + seed);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut sequential = IGcnEngine::builder(g).build().unwrap();
            sequential.prepare(&model, &w).unwrap();
            let (mut searched, mut replayed) = (sequential.clone(), sequential.clone());
            let (mut updates, mut reports, mut rounds) = (Vec::new(), Vec::new(), Vec::new());
            let mut apply = |engine: &mut IGcnEngine, update: GraphUpdate| {
                let (report, logged_rounds) = logged(engine, &update);
                updates.push(update);
                rounds.push(logged_rounds);
                reports.push(report.clone());
                report
            };

            // 1: two islands joined (and a random edge): they re-form.
            let islands_before = sequential.partition().num_islands();
            let i = rng.gen_range(0..islands_before);
            let j = (i + rng.gen_range(1..islands_before)) % islands_before;
            let islands = sequential.partition().islands();
            let (a, b) = (islands[i].nodes[0], islands[j].nodes[0]);
            let mut join = vec![fresh_edge(&sequential, a, &mut rng)];
            if join[0] != (a, b) && !sequential.graph().has_edge(NodeId::new(a), NodeId::new(b)) {
                join.push((a, b));
            }
            let report = apply(&mut sequential, GraphUpdate::add_edges(join));
            let formed_from = islands_before - report.dissolved_islands;
            let formed = sequential.partition().num_islands() - formed_from;
            assert!(formed > 0, "seed {seed}: the join re-forms islands");

            // 2: a member of an island the join formed gets an edge.
            let pick = formed_from + rng.gen_range(0..formed);
            let member = sequential.partition().islands()[pick].nodes[0];
            let edge = fresh_edge(&sequential, member, &mut rng);
            let report = apply(&mut sequential, GraphUpdate::add_edges(vec![edge]));
            assert!(report.dissolved_islands > 0, "seed {seed}: the formed island dissolves");

            // 3: the least-connected hub stripped to one edge: demoted.
            let hub = *sequential
                .partition()
                .hubs()
                .iter()
                .min_by_key(|&&h| sequential.graph().degree(NodeId::new(h)))
                .unwrap();
            let row = sequential.graph().neighbors(NodeId::new(hub));
            let stripped = row[1..].iter().map(|&nb| (hub, nb)).collect();
            let report = apply(&mut sequential, GraphUpdate::remove_edges(stripped));
            assert!(report.demoted_hubs > 0, "seed {seed}: the stripped hub is demoted");

            // 4: a random edge added and an existing one removed.
            let from = rng.gen_range(0..sequential.graph().num_nodes() as u32);
            let added = fresh_edge(&sequential, from, &mut rng);
            let removed = (0u32..)
                .map(|v| (v, sequential.graph().neighbors(NodeId::new(v))))
                .find(|(v, row)| *v != hub && !row.is_empty())
                .map(|(v, row)| (v, row[0]))
                .unwrap();
            let mixed = GraphUpdate::add_edges(vec![added]).and_remove_edges(vec![removed]);
            let report = apply(&mut sequential, mixed);
            assert_eq!(
                report.locator_stats.islands_found,
                sequential.partition().num_islands() as u64,
                "seed {seed}: islands_found counts live islands"
            );

            let searched_reports =
                searched.apply_updates_batched(updates.iter().map(|u| (u, None))).unwrap();
            let logged_rounds = updates.iter().zip(rounds).map(|(u, r)| (u, Some(r)));
            let replayed_reports = replayed.apply_updates_batched(logged_rounds).unwrap();
            let x = SparseFeatures::random(sequential.graph().num_nodes(), 10, 0.4, 50 + seed);
            let (expected, expected_stats) = sequential.run(&x, &model, &w).unwrap();
            for (engine, batch_reports, what) in [
                (&searched, searched_reports, format!("seed {seed}, searched")),
                (&replayed, replayed_reports, format!("seed {seed}, logged rounds")),
            ] {
                assert_reports_eq(&reports, &batch_reports, &what);
                assert_eq!(sequential.graph(), engine.graph(), "{what}");
                assert_eq!(sequential.partition(), engine.partition(), "{what}");
                assert_eq!(sequential.locator_stats(), engine.locator_stats(), "{what}");
                assert_eq!(sequential.layout(), engine.layout(), "{what}");
                let (output, stats) = engine.run(&x, &model, &w).unwrap();
                assert_eq!(output, expected, "{what}: output");
                assert_eq!(stats, expected_stats, "{what}: stats");
            }
        }
    }

    #[test]
    fn batched_updates_abort_atomically() {
        let (g, _) = engine_setup(200, 0.0, 23);
        let mut engine = IGcnEngine::builder(g).build().unwrap();
        let before_graph = engine.graph().clone();
        let before_partition = engine.partition().clone();
        // Second update is invalid (self-loop): nothing may apply.
        let updates = [GraphUpdate::add_edges(vec![(0, 5)]), GraphUpdate::add_edges(vec![(3, 3)])];
        assert!(matches!(
            engine.apply_updates_batched(updates.map(|u| (u, None))),
            Err(CoreError::SelfLoops { node: 3 })
        ));
        assert_eq!(engine.graph(), &before_graph, "batch must not partially apply");
        assert_eq!(engine.partition(), &before_partition);
        assert!(engine.apply_updates_batched(Vec::<(GraphUpdate, _)>::new()).unwrap().is_empty());
    }

    #[test]
    fn apply_update_rejects_bad_updates() {
        let (g, _) = engine_setup(150, 0.0, 7);
        let n = g.num_nodes();
        let mut engine = IGcnEngine::builder(g).build().unwrap();
        assert!(matches!(
            engine.apply_update(GraphUpdate::add_edges(vec![(0, 0)])),
            Err(CoreError::SelfLoops { node: 0 })
        ));
        assert!(matches!(
            engine.apply_update(GraphUpdate::add_edges(vec![(0, 9_999)])),
            Err(CoreError::ShapeMismatch { .. })
        ));
        assert!(matches!(
            engine.apply_update(GraphUpdate::default().with_num_nodes(n - 1)),
            Err(CoreError::ShapeMismatch { .. })
        ));
    }
}
