//! The unified `Accelerator` serving API.
//!
//! The paper's evaluation is a *cross-platform* story — I-GCN against
//! HyGCN-style hybrid architectures, the AWB-GCN/SIGMA dataflows and the
//! PyG/DGL software stacks — and a serving system needs every one of
//! those execution backends behind one interface. This module defines
//! that interface:
//!
//! * [`Accelerator`] — `prepare` / `infer` / `report`, object-safe and
//!   `Send + Sync` so prepared backends can be stored in an `Arc` and
//!   shared across request-handling threads;
//! * [`InferenceRequest`] / [`InferenceResponse`] — the owned request
//!   and response envelopes serving paths pass around;
//! * [`ExecReport`] — one backend-agnostic cost report (ops, traffic,
//!   cycles, latency, energy) every backend fills as far as its model
//!   can;
//! * [`GraphUpdate`] / [`UpdateReport`] — evolving-graph maintenance,
//!   consumed by `IGcnEngine::apply_update`;
//! * [`CpuReference`] — the plain software forward pass of `igcn-gnn`
//!   behind the same trait, serving as ground truth for every other
//!   backend.
//!
//! Implementations in this workspace: [`crate::IGcnEngine`] (islandized
//! execution), [`CpuReference`], and — through `igcn_sim::SimBackend` —
//! the I-GCN timing model plus the AWB-GCN, HyGCN, SIGMA and CPU/GPU
//! platform simulators of `igcn-baselines`.

use std::sync::Arc;
use std::time::Instant;

use igcn_gnn::{reference_forward, GnnModel, ModelWeights, ModelWorkload};
use igcn_graph::{CsrGraph, SparseFeatures};
use igcn_linalg::DenseMatrix;
use igcn_obs::TraceCtx;

use crate::error::CoreError;
use crate::stats::{ExecStats, LocatorStats};

/// One inference request: the node features to push through the
/// prepared model, plus a caller-chosen correlation id that is echoed in
/// the [`InferenceResponse`].
#[derive(Debug, Clone, PartialEq)]
pub struct InferenceRequest {
    /// Caller-chosen correlation id (echoed back; not interpreted).
    pub id: u64,
    /// Input node features; rows must match the backend's graph.
    pub features: SparseFeatures,
    /// Trace-tree context the serving edge attached
    /// ([`TraceCtx::NONE`] = untraced; engines parent their layer spans
    /// under it). Never affects outputs — only observability.
    pub trace: TraceCtx,
}

impl InferenceRequest {
    /// Wraps `features` with correlation id 0 and no trace attached.
    pub fn new(features: SparseFeatures) -> Self {
        InferenceRequest { id: 0, features, trace: TraceCtx::NONE }
    }

    /// Sets the correlation id.
    pub fn with_id(mut self, id: u64) -> Self {
        self.id = id;
        self
    }

    /// Attaches a trace-tree context.
    pub fn with_trace(mut self, trace: TraceCtx) -> Self {
        self.trace = trace;
        self
    }
}

/// The response to one [`InferenceRequest`].
#[derive(Debug, Clone, PartialEq)]
pub struct InferenceResponse {
    /// The request's correlation id.
    pub id: u64,
    /// Output features, one row per node.
    pub output: DenseMatrix,
    /// Cost report of this inference on this backend.
    pub report: ExecReport,
}

/// A backend-agnostic execution cost report.
///
/// Every backend fills the fields its model defines and leaves the rest
/// at zero: the islandized engine reports exact operation/traffic
/// counts and locator cycles but no wall-clock; the hardware simulators
/// report modelled latency and energy; the CPU reference measures host
/// wall-clock.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecReport {
    /// Backend name as shown in result tables.
    pub backend: String,
    /// Scalar operations executed (after any pruning).
    pub total_ops: u64,
    /// Off-chip traffic in bytes (host traffic for software backends).
    pub offchip_bytes: u64,
    /// Clock cycles, when the backend models a clock (0 otherwise).
    pub cycles: u64,
    /// End-to-end latency in seconds (0 when the backend has no time
    /// model).
    pub latency_s: f64,
    /// Energy in joules (0 when the backend has no energy model).
    pub energy_j: f64,
    /// Fraction of aggregation work pruned by redundancy removal
    /// (I-GCN backends only; 0 elsewhere).
    pub aggregation_pruning_rate: f64,
    /// Modelled busy work-unit cycles per parallel worker (empty when
    /// the backend has no parallel occupancy model — equivalent to one
    /// fully utilised worker).
    pub worker_busy_cycles: Vec<u64>,
    /// Parallel worker utilisation in `[0, 1]` (1.0 when there is no
    /// occupancy model or a single worker).
    pub utilisation: f64,
}

impl ExecReport {
    /// Builds a report from the islandized engine's exact statistics.
    pub fn from_stats(backend: impl Into<String>, stats: &ExecStats) -> Self {
        let total_ops = stats.layers.iter().map(|l| l.total_scalar_ops()).sum();
        let offchip_bytes = stats.layers.iter().map(|l| l.traffic.total_bytes()).sum();
        ExecReport {
            backend: backend.into(),
            total_ops,
            offchip_bytes,
            cycles: stats.locator.virtual_cycles,
            latency_s: 0.0,
            energy_j: 0.0,
            aggregation_pruning_rate: stats.aggregation_pruning_rate(),
            worker_busy_cycles: stats.occupancy.worker_busy_cycles.clone(),
            utilisation: stats.occupancy.utilisation(),
        }
    }

    /// Number of parallel workers the report models (1 without an
    /// occupancy model).
    pub fn num_workers(&self) -> usize {
        self.worker_busy_cycles.len().max(1)
    }

    /// Latency in microseconds (the unit the paper's tables report).
    pub fn latency_us(&self) -> f64 {
        self.latency_s * 1e6
    }

    /// Speedup of `self` over `other` (> 1 means `self` is faster).
    /// Meaningful only between backends that model time.
    pub fn speedup_over(&self, other: &ExecReport) -> f64 {
        other.latency_s / self.latency_s
    }

    /// Table 2's energy-efficiency metric (0 when the backend has no
    /// energy model).
    pub fn graphs_per_kilojoule(&self) -> f64 {
        if self.energy_j <= 0.0 {
            0.0
        } else {
            1000.0 / self.energy_j
        }
    }
}

/// A batch of structural changes to an evolving graph: undirected edges
/// to add and/or remove, with optional node growth.
///
/// Removals are applied before additions, so an edge listed in both
/// vectors ends up present.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GraphUpdate {
    /// Undirected edges to add, as `(a, b)` node pairs.
    pub added_edges: Vec<(u32, u32)>,
    /// Undirected edges to remove; every pair must currently be present
    /// (in either orientation).
    pub removed_edges: Vec<(u32, u32)>,
    /// New total node count, when the update also appends nodes. `None`
    /// keeps the current count (endpoints must then be in range).
    pub new_num_nodes: Option<usize>,
}

impl GraphUpdate {
    /// An update that adds `edges` between existing nodes.
    pub fn add_edges(edges: Vec<(u32, u32)>) -> Self {
        GraphUpdate { added_edges: edges, ..Default::default() }
    }

    /// An update that removes currently present `edges`.
    pub fn remove_edges(edges: Vec<(u32, u32)>) -> Self {
        GraphUpdate { removed_edges: edges, ..Default::default() }
    }

    /// Adds `edges` to whatever the update already carries.
    pub fn and_add_edges(mut self, edges: Vec<(u32, u32)>) -> Self {
        self.added_edges.extend(edges);
        self
    }

    /// Removes `edges` in addition to whatever the update already
    /// carries.
    pub fn and_remove_edges(mut self, edges: Vec<(u32, u32)>) -> Self {
        self.removed_edges.extend(edges);
        self
    }

    /// Grows the graph to `n` nodes (appended at the end).
    pub fn with_num_nodes(mut self, n: usize) -> Self {
        self.new_num_nodes = Some(n);
        self
    }
}

/// Outcome of applying a [`GraphUpdate`] through
/// `IGcnEngine::apply_update`.
#[derive(Debug, Clone)]
pub struct UpdateReport {
    /// Islands dissolved because an added or removed edge touched them
    /// (directly, or through a demoted hub they contact).
    pub dissolved_islands: usize,
    /// Nodes reclassified (dissolved members plus demoted hubs plus
    /// appended nodes).
    pub reclassified_nodes: usize,
    /// Hubs demoted because edge removals dropped their degree below
    /// the hub floor.
    pub demoted_hubs: usize,
    /// Node count after the update.
    pub num_nodes: usize,
    /// Locator statistics of the incremental rounds only — the runtime
    /// restructuring cost that overlaps the next inference.
    pub locator_stats: LocatorStats,
}

/// A GCN inference backend behind the unified serving API.
///
/// The lifecycle is: construct over an `Arc<CsrGraph>`, [`prepare`]
/// once with a model and its weights, then serve [`infer`] / [`report`]
/// calls from shared references (both take `&self`, and the supertraits
/// make prepared backends shareable across threads). The request is the
/// unit of work: a caller with several calls `infer` once for each, from
/// as many threads as it wants to run at once.
///
/// [`prepare`]: Accelerator::prepare
/// [`infer`]: Accelerator::infer
/// [`report`]: Accelerator::report
pub trait Accelerator: Send + Sync {
    /// Backend name as reported in result tables.
    fn name(&self) -> String;

    /// The graph this backend serves.
    fn graph(&self) -> &CsrGraph;

    /// Validates and installs a model + weights pair. Must be called
    /// before [`Accelerator::infer`]; may be called again to swap
    /// models.
    ///
    /// # Errors
    ///
    /// [`CoreError::ShapeMismatch`] if the weights do not match the
    /// model's layer dimensions.
    fn prepare(&mut self, model: &GnnModel, weights: &ModelWeights) -> Result<(), CoreError>;

    /// Runs one inference with the prepared model.
    ///
    /// # Errors
    ///
    /// [`CoreError::NotPrepared`] before [`Accelerator::prepare`];
    /// [`CoreError::ShapeMismatch`] if the request's features do not
    /// match the graph or the model's input width.
    fn infer(&self, request: &InferenceRequest) -> Result<InferenceResponse, CoreError>;

    /// Produces the cost report of `request` without doing the
    /// floating-point work (the accounting path used by timing models
    /// on large graphs).
    ///
    /// # Errors
    ///
    /// As [`Accelerator::infer`].
    fn report(&self, request: &InferenceRequest) -> Result<ExecReport, CoreError>;

    /// The backend's live health. The default is [`BackendHealth::Ready`]
    /// — a backend with no internal failure domains is healthy exactly
    /// when it exists. Composite backends (shard fleets, serving tiers)
    /// override this to report contained component failures; serving
    /// edges poll it to publish readiness.
    fn health(&self) -> BackendHealth {
        BackendHealth::Ready
    }

    /// Per-component health, for backends with internal failure
    /// domains: one `(component name, health)` pair per domain (e.g.
    /// one per shard for a sharded fleet). The default is empty — a
    /// monolithic backend has no components to enumerate. Serving
    /// edges surface this on `/healthz` and `/stats` so an operator
    /// can see *which* shard is down, not just that one is.
    fn component_health(&self) -> Vec<(String, BackendHealth)> {
        Vec::new()
    }
}

/// Live health of an [`Accelerator`], as reported by
/// [`Accelerator::health`].
///
/// `Degraded` means the backend still *exists* but some internal
/// component has failed (a shard is down, a worker is wedged):
/// requests may be rejected with typed errors until the component is
/// repaired. It is a reporting state, not an error — the decision of
/// whether to keep routing traffic belongs to the serving edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BackendHealth {
    /// Every component is serving.
    Ready,
    /// One or more components have failed; requests may be rejected
    /// until repair.
    Degraded {
        /// Human-readable summary of what is down.
        detail: String,
    },
}

impl BackendHealth {
    /// `true` exactly for [`BackendHealth::Ready`].
    pub fn is_ready(&self) -> bool {
        matches!(self, BackendHealth::Ready)
    }
}

/// Checks that `weights` matches `model` layer by layer (shared by
/// every backend's [`Accelerator::prepare`]).
///
/// # Errors
///
/// [`CoreError::ShapeMismatch`] naming the first mismatching dimension.
pub fn validate_weights(model: &GnnModel, weights: &ModelWeights) -> Result<(), CoreError> {
    if weights.num_layers() != model.num_layers() {
        return Err(CoreError::ShapeMismatch {
            what: "weight layer count vs model layers".to_string(),
            expected: model.num_layers(),
            got: weights.num_layers(),
        });
    }
    for (i, layer) in model.layers().iter().enumerate() {
        let w = weights.layer(i);
        if w.rows() != layer.in_dim {
            return Err(CoreError::ShapeMismatch {
                what: format!("layer {i} weight rows vs in_dim"),
                expected: layer.in_dim,
                got: w.rows(),
            });
        }
        if w.cols() != layer.out_dim {
            return Err(CoreError::ShapeMismatch {
                what: format!("layer {i} weight cols vs out_dim"),
                expected: layer.out_dim,
                got: w.cols(),
            });
        }
    }
    Ok(())
}

/// Checks that a request's features match the serving graph and the
/// prepared model's input width (shared by every backend's
/// [`Accelerator::infer`]); [`validate_features`] on its features.
///
/// # Errors
///
/// [`CoreError::ShapeMismatch`] naming the offending dimension.
pub fn validate_request(
    graph: &CsrGraph,
    model: &GnnModel,
    request: &InferenceRequest,
) -> Result<(), CoreError> {
    validate_features(graph, model, &request.features)
}

/// Checks that `features` has one row per node of `graph` and
/// `model`'s input width — the one feature-shape check of every
/// inference and accounting path.
///
/// # Errors
///
/// [`CoreError::ShapeMismatch`] naming the offending dimension.
pub fn validate_features(
    graph: &CsrGraph,
    model: &GnnModel,
    features: &SparseFeatures,
) -> Result<(), CoreError> {
    if features.num_rows() != graph.num_nodes() {
        return Err(CoreError::ShapeMismatch {
            what: "feature rows vs graph nodes".to_string(),
            expected: graph.num_nodes(),
            got: features.num_rows(),
        });
    }
    let in_dim = model.layers().first().map(|l| l.in_dim).unwrap_or(0);
    if features.num_cols() != in_dim {
        return Err(CoreError::ShapeMismatch {
            what: "feature cols vs model input width".to_string(),
            expected: in_dim,
            got: features.num_cols(),
        });
    }
    Ok(())
}

/// The plain software forward pass of `igcn-gnn` behind the
/// [`Accelerator`] trait.
///
/// Every other backend is verified against this one (the conformance
/// suite runs them all on the same graph and compares outputs). Its
/// [`ExecReport`] carries the *unpruned* operation/traffic workload and
/// measured host wall-clock.
#[derive(Debug, Clone)]
pub struct CpuReference {
    graph: Arc<CsrGraph>,
    prepared: Option<(GnnModel, ModelWeights)>,
}

impl CpuReference {
    /// Creates the backend over `graph`.
    pub fn new(graph: Arc<CsrGraph>) -> Self {
        CpuReference { graph, prepared: None }
    }

    fn prepared(&self) -> Result<&(GnnModel, ModelWeights), CoreError> {
        self.prepared.as_ref().ok_or_else(|| CoreError::NotPrepared { backend: self.name() })
    }
}

impl Accelerator for CpuReference {
    fn name(&self) -> String {
        "CPU-reference".to_string()
    }

    fn graph(&self) -> &CsrGraph {
        &self.graph
    }

    fn prepare(&mut self, model: &GnnModel, weights: &ModelWeights) -> Result<(), CoreError> {
        validate_weights(model, weights)?;
        self.prepared = Some((model.clone(), weights.clone()));
        Ok(())
    }

    fn infer(&self, request: &InferenceRequest) -> Result<InferenceResponse, CoreError> {
        let (model, weights) = self.prepared()?;
        validate_request(&self.graph, model, request)?;
        let start = Instant::now();
        let output = reference_forward(&self.graph, &request.features, model, weights);
        // Stop the clock before the workload accounting below — the
        // report prices the forward pass, not its own bookkeeping.
        let latency_s = start.elapsed().as_secs_f64();
        let mut report = self.report(request)?;
        report.latency_s = latency_s;
        Ok(InferenceResponse { id: request.id, output, report })
    }

    fn report(&self, request: &InferenceRequest) -> Result<ExecReport, CoreError> {
        let (model, _) = self.prepared()?;
        validate_request(&self.graph, model, request)?;
        let workload = ModelWorkload::compute(&self.graph, &request.features, model);
        Ok(ExecReport {
            backend: self.name(),
            total_ops: workload.total_ops(),
            offchip_bytes: workload.total_bytes(),
            cycles: 0,
            latency_s: 0.0,
            energy_j: 0.0,
            aggregation_pruning_rate: 0.0,
            // The single-threaded software pass has no occupancy model.
            worker_busy_cycles: Vec::new(),
            utilisation: 1.0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use igcn_graph::generate::HubIslandConfig;

    fn setup() -> (Arc<CsrGraph>, SparseFeatures, GnnModel, ModelWeights) {
        let g = HubIslandConfig::new(120, 5).noise_fraction(0.0).generate(3);
        let x = SparseFeatures::random(120, 12, 0.3, 4);
        let model = GnnModel::gcn(12, 8, 4);
        let weights = ModelWeights::glorot(&model, 5);
        (Arc::new(g.graph), x, model, weights)
    }

    #[test]
    fn cpu_reference_round_trip() {
        let (graph, x, model, weights) = setup();
        let mut backend = CpuReference::new(Arc::clone(&graph));
        backend.prepare(&model, &weights).unwrap();
        let resp = backend.infer(&InferenceRequest::new(x.clone()).with_id(9)).unwrap();
        assert_eq!(resp.id, 9);
        assert_eq!(resp.output.rows(), 120);
        assert_eq!(resp.output.cols(), 4);
        assert!(resp.report.total_ops > 0);
        assert!(resp.report.latency_s > 0.0);
        let expected = reference_forward(&graph, &x, &model, &weights);
        assert_eq!(resp.output, expected);
    }

    #[test]
    fn infer_before_prepare_errors() {
        let (graph, x, ..) = setup();
        let backend = CpuReference::new(graph);
        let err = backend.infer(&InferenceRequest::new(x)).unwrap_err();
        assert!(matches!(err, CoreError::NotPrepared { .. }));
    }

    #[test]
    fn wrong_feature_rows_rejected() {
        let (graph, _, model, weights) = setup();
        let mut backend = CpuReference::new(graph);
        backend.prepare(&model, &weights).unwrap();
        let bad = SparseFeatures::random(60, 12, 0.3, 4);
        let err = backend.infer(&InferenceRequest::new(bad)).unwrap_err();
        assert!(matches!(err, CoreError::ShapeMismatch { expected: 120, got: 60, .. }));
    }

    #[test]
    fn wrong_weight_shape_rejected_at_prepare() {
        let (graph, _, model, _) = setup();
        let other = GnnModel::gcn(12, 6, 4); // hidden 6, not 8
        let wrong = ModelWeights::glorot(&other, 1);
        let mut backend = CpuReference::new(graph);
        let err = backend.prepare(&model, &wrong).unwrap_err();
        assert!(matches!(err, CoreError::ShapeMismatch { .. }));
    }

    #[test]
    fn exec_report_units() {
        let r = ExecReport { latency_s: 2.5e-6, ..Default::default() };
        assert!((r.latency_us() - 2.5).abs() < 1e-9);
        let slow = ExecReport { latency_s: 2.5e-3, ..Default::default() };
        assert!((r.speedup_over(&slow) - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn accelerator_trait_is_object_safe_and_send_sync() {
        fn assert_send_sync<T: Send + Sync + ?Sized>() {}
        assert_send_sync::<dyn Accelerator>();
        assert_send_sync::<CpuReference>();
        let (graph, ..) = setup();
        let boxed: Box<dyn Accelerator> = Box::new(CpuReference::new(graph));
        assert_eq!(boxed.name(), "CPU-reference");
    }
}
