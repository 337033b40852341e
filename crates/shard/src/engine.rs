//! The sharded serving front. A fleet is a coordinator [`IGcnEngine`]
//! plus K shard layouts cut out of its layout; what it adds to the
//! engine is the halo exchange between them. Graph, partition, layout,
//! configurations, prepared model, thread count and plan are the
//! coordinator's ([`ShardedEngine::engine`]), so every engine-level
//! decision is made once, by the engine.
//!
//! # Execution model
//!
//! Each shard owns whole islands and replicates its contacted hubs (the
//! **halo**). Island closure makes island-node rows shard-complete: an
//! island node's neighbors are in-island or hubs, all present locally,
//! and the shard's local IDs are order-isomorphic to the global layout
//! IDs, so every local accumulation replays the global order. A request
//! is the coordinator's own request loop
//! ([`IGcnEngine::execute`]: plan statistics, gather, the per-layer
//! driver of [`hotpath`], scatter) with the shards as its island runner;
//! what the fleet adds is the halo exchange of step 2:
//!
//! 1. the loop fills the **hub XW slab** from its hub rows (layer 0: the
//!    hubs' feature rows), fanned out when the engine's thread count
//!    allows;
//! 2. every shard loads its replicated rows of that slab — the halo
//!    payload, [`LayerScratch::load_halo`] — and runs its islands
//!    locally ([`hotpath::run_islands`]) into shard-local slabs: final
//!    activated island-node rows plus raw per-(island, hub) rows; the
//!    shards are fanned out, each under `catch_unwind`;
//! 3. the loop replays those hub rows in **global schedule order**,
//!    then the inter-hub tasks by ascending original source-hub ID, and
//!    finalises the hub rows — the exact floating-point accumulation
//!    order of a single engine, which is what makes outputs
//!    **bit-identical** at every shard count.
//!
//! Steps 1–2 run under the layer's `halo_exchange` span, step 3 under
//! its `halo_merge` span, each shard's step 2 under a `shard_execute`
//! span.
//!
//! `ExecStats` are the single engine's, because the logical computation
//! is the same: a request's report is the coordinator's own
//! request-independent plan ([`IGcnEngine::exec_plan`]) plus an O(n)
//! pass over its row lengths; no per-request accounting walk. The
//! *communication* story of the cut
//! (replication factor, cut edges, halo bytes) is reported separately by
//! [`crate::sharder::ShardingReport`] and
//! [`ShardedEngine::halo_bytes_per_inference`].
//!
//! [`hotpath`]: igcn_core::consumer::hotpath
//! [`hotpath::run_islands`]: igcn_core::consumer::hotpath::run_islands

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use igcn_core::accel::{validate_features, validate_request, validate_weights, UpdateReport};
use igcn_core::consumer::hotpath::{fan_out, run_islands, IslandRunner, LayerStep};
use igcn_core::consumer::LayerInput;
use igcn_core::exec::{ExecPlan, ExecScratch, ScratchPool};
use igcn_core::stats::{ExecStats, LocatorStats};
use igcn_core::{
    Accelerator, BackendHealth, ConsumerConfig, CoreError, ExecConfig, ExecReport, GraphUpdate,
    IGcnEngine, InferenceRequest, InferenceResponse, IslandLayout, LaidIslands, LayerScratch,
};
use igcn_gnn::{GnnModel, ModelWeights};
use igcn_graph::{CsrGraph, SparseFeatures};
use igcn_linalg::{DenseMatrix, GcnNormalization};
use igcn_store::Snapshot;

use crate::error::ShardError;
use crate::sharder::{assign_islands, sharding_report, ShardAssignment, ShardingReport};

/// One shard: the layout of its owned islands and replicated contact
/// hubs plus the ID maps that tie it back to the global layout. It is
/// derived from the coordinator's layout and the island assignment
/// alone, so it is never stored: a booted fleet re-derives every shard.
#[derive(Debug, Clone)]
pub struct Shard {
    /// The shard's layout, cut out of the global one
    /// ([`IslandLayout::with_islands`]). Local IDs are already in
    /// schedule order (the halo hubs, then the owned islands back to
    /// back), so its permutation is the identity.
    layout: Arc<IslandLayout>,
    /// Global island indices owned, in local island order (ascending).
    islands: Vec<u32>,
    /// Local node ID → global layout node ID; on the local hubs, the
    /// halo map (ascending global hub IDs).
    local_to_layout: Vec<u32>,
    /// Local node ID → *original* global node ID (the feature-gather
    /// map).
    gather_original: Vec<u32>,
}

impl Shard {
    /// The layout the shard's islands run over, in local IDs: its
    /// islands are the shard's local islandization (its permutation is
    /// the identity, so [`IslandLayout::original_partition`] gives it in
    /// local IDs), and its [`graph`](IslandLayout::graph), built only if
    /// asked for, the subgraph the shard's islands and inter-hub pairs
    /// spell out.
    pub fn layout(&self) -> &IslandLayout {
        &self.layout
    }

    /// Global island indices owned by this shard.
    pub fn islands(&self) -> &[u32] {
        &self.islands
    }

    /// Replicated hub count (halo rows).
    pub fn num_hubs(&self) -> usize {
        self.layout.num_hubs()
    }

    /// Exported contribution slots (one per island × contacted-hub
    /// pair) — the shard's per-layer upstream halo traffic in rows.
    fn contrib_slots(&self) -> usize {
        self.layout.islands().hub_offsets()[self.islands.len()]
    }

    /// Local node count (halo hubs + owned island nodes).
    pub fn num_nodes(&self) -> usize {
        self.gather_original.len()
    }

    /// Owned island-node count (excludes the replicated halo).
    pub fn num_owned_nodes(&self) -> usize {
        self.num_nodes() - self.num_hubs()
    }

    /// Local node ID → original global node ID: the map that gathers a
    /// global feature matrix down to this shard's rows (halo hubs
    /// first, then owned island nodes in schedule order).
    pub fn gather_original(&self) -> &[u32] {
        &self.gather_original
    }
}

/// Outcome of a [`GraphUpdate`] applied to a [`ShardedEngine`].
#[derive(Debug, Clone)]
pub struct ShardUpdateReport {
    /// The coordinator engine's restructuring outcome.
    pub update: UpdateReport,
    /// Shards whose *owned island-node set* changed: a node moved in,
    /// moved out or left the owned set. Every update re-cuts all K
    /// shards; this only reports whose ownership the re-cut changed.
    pub resharded: Vec<usize>,
    /// Islands placed on a different shard than their affinity
    /// preference (0 when the disturbed region re-formed in place).
    pub moved_islands: usize,
    /// Post-commit structural stats per shard, in shard-index order.
    pub shard_structure: Vec<ShardStructure>,
}

/// Structural shape of one shard after (re)assembly — what it owns,
/// what it replicates, and what it exports per layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStructure {
    /// Owned (whole) islands.
    pub islands: usize,
    /// Owned island nodes — excludes the replicated halo.
    pub owned_nodes: usize,
    /// Replicated halo hubs: each one's XW row is recomputed (or, on a
    /// real fleet, received) locally every layer.
    pub halo_hubs: usize,
    /// Exported per-(island, hub) contribution slots — the shard's
    /// upstream halo rows per layer.
    pub contrib_slots: usize,
}

/// Live status of one shard, as reported by
/// [`ShardedEngine::shard_health`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardHealth {
    /// The shard serves.
    Up,
    /// The shard's execution panicked mid-request and was contained;
    /// requests fail fast with `CoreError::BackendFailed` and updates
    /// with [`ShardError::ShardFailed`] until [`ShardedEngine::heal`]
    /// rebuilds it.
    Down {
        /// The contained panic message.
        detail: String,
    },
}

/// Shared per-shard health: written from worker threads when a panic is
/// contained at the fan-out seam, read on every request as a fail-fast
/// gate. The `any_down` flag keeps the healthy hot path to one relaxed
/// atomic load.
#[derive(Debug)]
struct HealthBoard {
    any_down: AtomicBool,
    status: Mutex<Vec<ShardHealth>>,
}

impl HealthBoard {
    fn new(num_shards: usize) -> HealthBoard {
        HealthBoard {
            any_down: AtomicBool::new(false),
            status: Mutex::new(vec![ShardHealth::Up; num_shards]),
        }
    }

    /// The board never holds its lock across a panic, but a worker
    /// thread aborting between lock and unlock would poison it; health
    /// reporting must survive that, so recover the data either way.
    fn lock(&self) -> MutexGuard<'_, Vec<ShardHealth>> {
        self.status.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn mark_down(&self, shard: usize, detail: &str) {
        self.lock()[shard] = ShardHealth::Down { detail: detail.to_string() };
        self.any_down.store(true, Ordering::Release);
    }

    fn mark_up(&self, shard: usize) {
        let mut status = self.lock();
        status[shard] = ShardHealth::Up;
        let all_up = status.iter().all(|s| *s == ShardHealth::Up);
        if all_up {
            self.any_down.store(false, Ordering::Release);
        }
    }

    fn reset(&self, num_shards: usize) {
        *self.lock() = vec![ShardHealth::Up; num_shards];
        self.any_down.store(false, Ordering::Release);
    }

    fn any_down(&self) -> bool {
        self.any_down.load(Ordering::Acquire)
    }

    /// When a shard is down: the first one, and `why` prefixed with every
    /// down shard — what a refused request or update reports.
    fn refusal(&self, why: &str) -> Option<(usize, String)> {
        if !self.any_down() {
            return None;
        }
        let down = self.down_shards();
        // invariant: any_down implies a non-empty down list — both are
        // written under the board lock.
        Some((down.first().copied().unwrap_or(0), format!("shard(s) {down:?} are down{why}")))
    }

    fn snapshot(&self) -> Vec<ShardHealth> {
        self.lock().clone()
    }

    fn down_shards(&self) -> Vec<usize> {
        self.lock()
            .iter()
            .enumerate()
            .filter_map(|(i, s)| matches!(s, ShardHealth::Down { .. }).then_some(i))
            .collect()
    }
}

impl Clone for HealthBoard {
    /// An independent board with the same statuses: a clone of a fleet
    /// is an independent fleet, so marking a shard down in one never
    /// fails requests in the other.
    fn clone(&self) -> HealthBoard {
        let status = self.snapshot();
        HealthBoard {
            any_down: AtomicBool::new(status.iter().any(|s| matches!(s, ShardHealth::Down { .. }))),
            status: Mutex::new(status),
        }
    }
}

/// Renders a contained panic payload for health reports.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// K shards behind one [`Accelerator`]: a coordinator [`IGcnEngine`]
/// whose layout is cut into K shard layouts, island-aware with hubs
/// replicated as the halo, a deterministic per-layer halo exchange,
/// and outputs + `ExecStats` **bit-identical** to the coordinator at
/// every shard count and thread count. A fleet persists as its
/// coordinator's [`Snapshot`] ([`ShardedEngine::snapshot`]) and boots
/// by re-sharding the warm engine it yields.
///
/// # Example
///
/// ```
/// use igcn_core::{Accelerator, IGcnEngine, InferenceRequest};
/// use igcn_gnn::{GnnModel, ModelWeights};
/// use igcn_graph::generate::HubIslandConfig;
/// use igcn_graph::SparseFeatures;
/// use igcn_shard::ShardedEngine;
///
/// let g = HubIslandConfig::new(300, 12).noise_fraction(0.02).generate(7);
/// let mut single = IGcnEngine::builder(g.graph).build()?;
/// let model = GnnModel::gcn(16, 8, 4);
/// let weights = ModelWeights::glorot(&model, 1);
/// single.prepare(&model, &weights)?;
///
/// let mut sharded = ShardedEngine::from_engine(&single, 2).expect("shardable");
/// sharded.prepare(&model, &weights)?;
///
/// let request = InferenceRequest::new(SparseFeatures::random(300, 16, 0.2, 2));
/// let a = single.infer(&request)?;
/// let b = sharded.infer(&request)?;
/// assert_eq!(a.output, b.output); // bit-identical
/// # Ok::<(), igcn_core::CoreError>(())
/// ```
///
/// A clone is an independent fleet: it gets its own health board
/// (copying current statuses), so marking a shard down in one fleet
/// never fails requests in the other. The coordinator's clone shares
/// its graph, layout and built plan, and the state pool is
/// shared too: it is a cache of request-scoped buffers, not fleet state.
#[derive(Debug, Clone)]
pub struct ShardedEngine {
    /// The coordinator: everything a single engine holds. An update
    /// stages on a clone of it and replaces it whole.
    engine: IGcnEngine,
    shards: Vec<Shard>,
    /// `island_home[global island] = (shard, local island index)`.
    island_home: Vec<(u32, u32)>,
    /// The prepared model's normalisation gathered to each shard's
    /// local IDs (empty until [`Accelerator::prepare`]).
    shard_norms: Vec<GcnNormalization>,
    /// Per-request state sets, one [`ExecScratch`] per shard, so
    /// steady-state serving reallocates nothing per inference. The
    /// driver re-gathers the features and resizes every buffer in place
    /// each request, so pooled capacity is shape-agnostic; the pool is
    /// still cleared when a shard is rebuilt or an update commits, so
    /// stale capacity does not outlive a resharding.
    state_pool: ScratchPool<Vec<ExecScratch>>,
    health: HealthBoard,
}

impl ShardedEngine {
    /// Shards a built engine's graph across `num_shards` shards
    /// (clamped to the island count — every shard must own at least one
    /// island). The coordinator is a clone of `engine`, so the global
    /// islandization is reused, never recomputed: each shard's layout is
    /// cut out of the engine's. If the source engine was [`prepare`]d,
    /// the fleet comes up prepared too.
    ///
    /// [`prepare`]: Accelerator::prepare
    ///
    /// # Errors
    ///
    /// [`ShardError::InvalidShardCount`] for zero shards,
    /// [`ShardError::ShardUnservable`] when the layout has no island to
    /// shard, or the underlying construction failure.
    pub fn from_engine(engine: &IGcnEngine, num_shards: usize) -> Result<Self, ShardError> {
        if num_shards == 0 {
            return Err(ShardError::InvalidShardCount { requested: num_shards });
        }
        let (shards, island_home, _) = build_fleet_for(engine, num_shards, None)?;
        let mut fleet = ShardedEngine {
            engine: engine.clone(),
            health: HealthBoard::new(shards.len()),
            shards,
            island_home,
            shard_norms: Vec::new(),
            state_pool: ScratchPool::default(),
        };
        fleet.refresh_shard_norms();
        Ok(fleet)
    }

    /// Re-derives the per-shard normalisations of the prepared model:
    /// the global layout-order scales gathered to each shard's local
    /// IDs (a shard must never compute scales from its subgraph — the
    /// halo truncates replicated-hub degrees).
    fn refresh_shard_norms(&mut self) {
        self.shard_norms = match self.engine.prepared_model() {
            Some((model, _)) => self.shard_norms(&self.engine.layout_normalization(model)),
            None => Vec::new(),
        };
    }

    fn shard_norms(&self, norm: &GcnNormalization) -> Vec<GcnNormalization> {
        self.shards.iter().map(|s| norm.gather(&s.local_to_layout)).collect()
    }

    fn prepared(&self) -> Result<(&GnnModel, &ModelWeights), CoreError> {
        self.engine.prepared_model().ok_or_else(|| CoreError::NotPrepared { backend: self.name() })
    }

    /// The coordinator engine: the fleet's graph, partition, locator
    /// statistics, layout, configurations and prepared model.
    pub fn engine(&self) -> &IGcnEngine {
        &self.engine
    }

    /// Number of shards in the fleet.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Pooled per-request state sets currently idle (test hook).
    #[cfg(test)]
    pub(crate) fn pooled_state_sets(&self) -> usize {
        self.state_pool.pooled()
    }

    /// The shards, in shard-index order.
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// Replaces the coordinator's execution configuration — the thread
    /// count the hub slab and the shards fan out over, a pure runtime
    /// knob that never changes an output or a report.
    pub fn set_exec_config(&mut self, cfg: ExecConfig) {
        self.engine.set_exec_config(cfg);
    }

    /// The current island→shard assignment.
    pub fn assignment(&self) -> ShardAssignment {
        ShardAssignment {
            shards: self.shards.iter().map(|s| s.islands.clone()).collect(),
            island_shard: self.island_home.iter().map(|&(s, _)| s).collect(),
        }
    }

    /// Cut and replication metrics of the current assignment.
    pub fn sharding_report(&self) -> ShardingReport {
        sharding_report(self.engine.graph(), self.engine.layout(), &self.assignment())
    }

    /// Bytes moved by the halo exchange for one inference of `model`:
    /// per layer, the broadcast hub XW rows (`Σ_s |halo_s| · width`)
    /// plus the collected per-island hub contributions — the honest
    /// communication cost a real fleet would pay on the wire.
    pub fn halo_bytes_per_inference(&self, model: &GnnModel) -> u64 {
        let broadcast_rows: u64 = self.shards.iter().map(|s| s.num_hubs() as u64).sum();
        let collect_rows: u64 = self.shards.iter().map(|s| s.contrib_slots() as u64).sum();
        model.layers().iter().map(|l| (broadcast_rows + collect_rows) * l.out_dim as u64 * 4).sum()
    }

    /// Runs full-model inference across the fleet, returning output
    /// rows in original node IDs and the canonical execution
    /// statistics: the coordinator's request loop
    /// ([`IGcnEngine::execute`]) with the shards as its island runner.
    /// Outputs and statistics are bit-identical to [`IGcnEngine::run`]
    /// on the same graph.
    ///
    /// # Errors
    ///
    /// [`CoreError::ShapeMismatch`] if feature or weight shapes do not
    /// match the graph and model; [`CoreError::BackendFailed`] if a
    /// shard panicked mid-request (contained; see
    /// [`ShardedEngine::heal`]) or is down since, until it is healed.
    pub fn run(
        &self,
        features: &SparseFeatures,
        model: &GnnModel,
        weights: &ModelWeights,
    ) -> Result<(DenseMatrix, ExecStats), CoreError> {
        validate_features(self.engine.graph(), model, features)?;
        validate_weights(model, weights)?;
        let why = " from an earlier contained failure; call heal()";
        if let Some((shard, detail)) = self.health.refusal(why) {
            return Err(CoreError::BackendFailed { backend: format!("shard {shard}"), detail });
        }
        let computed;
        let norms = match self.engine.prepared_model() {
            Some((prepared, _)) if prepared == model => &self.shard_norms,
            _ => {
                computed = self.shard_norms(self.engine.exec_plan(model).norm());
                &computed
            }
        };
        // A failed request's state set is dropped, never pooled: a torn
        // set must never be reused.
        let mut states = self.state_pool.take();
        let runner = Shards { fleet: self, norms };
        let done = self.engine.execute(&runner, &mut states, features, model, weights)?;
        self.state_pool.put(states);
        if igcn_obs::enabled() {
            igcn_obs::counter("shard_halo_bytes").add(self.halo_bytes_per_inference(model));
        }
        Ok(done)
    }

    /// Per-shard live health, in shard-index order.
    pub fn shard_health(&self) -> Vec<ShardHealth> {
        self.health.snapshot()
    }

    /// Indices of shards currently down, ascending.
    pub fn down_shards(&self) -> Vec<usize> {
        self.health.down_shards()
    }

    /// Rebuilds shard `shard` from the global layout — the same pure
    /// reassembly a fresh fleet construction uses, touching **only**
    /// this shard: healthy shards keep their layouts, and the routing
    /// table is unchanged because the island assignment is. The rebuilt
    /// shard is marked [`ShardHealth::Up`].
    ///
    /// # Panics
    ///
    /// If `shard` is out of range (caller bug, like slice indexing).
    pub fn rebuild_shard(&mut self, shard: usize) {
        assert!(
            shard < self.shards.len(),
            "rebuild_shard({shard}): fleet has {} shards",
            self.shards.len()
        );
        let islands = self.shards[shard].islands.clone();
        self.shards[shard] =
            build_shard(self.engine.layout(), self.engine.consumer_config(), &islands);
        // Pooled state sets may hold buffers sized by the dead shard's
        // torn run; drop them all rather than reason about which are
        // safe.
        self.state_pool.clear();
        self.health.mark_up(shard);
    }

    /// Rebuilds every [`ShardHealth::Down`] shard
    /// ([`ShardedEngine::rebuild_shard`]) and returns the indices
    /// healed. After a heal the fleet serves again and its outputs are
    /// bit-identical to an undamaged fleet — the rebuild reassembles the
    /// exact same shard from the exact same layout.
    pub fn heal(&mut self) -> Vec<usize> {
        let down = self.health.down_shards();
        for &shard in &down {
            self.rebuild_shard(shard);
        }
        down
    }

    /// Applies a structural update to the fleet: the coordinator takes
    /// it as a single engine does ([`IGcnEngine::apply_update`],
    /// restructuring only the disturbed region), then all K shards are
    /// re-cut from its new layout, each island preferring the shard that
    /// owned most of its nodes so undisturbed islands stay put. The
    /// update runs on a clone of the coordinator and commits only once
    /// the new fleet is built, so a failing update leaves the fleet as
    /// it was. Subsequent inference is bit-identical to a single engine
    /// over the updated graph.
    ///
    /// # Errors
    ///
    /// As [`IGcnEngine::apply_update`] for the structural part;
    /// [`ShardError::ShardUnservable`] if the new structure cannot be
    /// sharded at the current shard count.
    pub fn apply_update(&mut self, update: GraphUpdate) -> Result<ShardUpdateReport, ShardError> {
        // A degraded fleet must heal before restructuring: the affinity
        // pass votes with current ownership, and resharding around a
        // dead shard would silently launder its Down status.
        if let Some((shard, detail)) = self.health.refusal("; call heal() before apply_update") {
            return Err(ShardError::ShardFailed { shard, detail });
        }
        // The clone shares the graph and layout, so the update copies
        // what it changes and leaves `self.engine` whole.
        let mut engine = self.engine.clone();
        let update = engine.apply_update(update)?;

        // Affinity: each island prefers the shard that owned the
        // majority of its (surviving) nodes, so undisturbed islands
        // stay put and only the disturbed region migrates.
        let k = self.shards.len();
        let node_shard = owners(&self.shards, engine.graph().num_nodes());
        let prefer: Vec<Option<u32>> = engine
            .partition()
            .islands()
            .iter()
            .map(|isl| {
                let mut votes = vec![0usize; k];
                for &v in &isl.nodes {
                    let s = node_shard[v as usize];
                    if s != u32::MAX {
                        votes[s as usize] += 1;
                    }
                }
                // invariant: `k >= 1` (InvalidShardCount is rejected at
                // construction), so the votes vector is never empty.
                let (best, &count) = votes
                    .iter()
                    .enumerate()
                    .max_by_key(|&(i, &c)| (c, std::cmp::Reverse(i)))
                    .expect("at least one shard");
                (count > 0).then_some(best as u32)
            })
            .collect();
        let (shards, island_home, assignment) = build_fleet_for(&engine, k, Some(&prefer))?;
        let moved_islands = prefer
            .iter()
            .zip(&assignment.island_shard)
            .filter(|(p, &s)| matches!(p, Some(ps) if *ps != s))
            .count();

        // Shards whose owned island-node set changed — any node that
        // moved in, moved out, or left the owned set entirely (for
        // example an island node reclassified to hub) marks both its
        // previous and (when owned) new shard.
        let mut changed = vec![false; k.max(shards.len())];
        for (prev, now) in node_shard.iter().zip(owners(&shards, node_shard.len())) {
            if *prev != now {
                for s in [*prev, now].into_iter().filter(|&s| s != u32::MAX) {
                    changed[s as usize] = true;
                }
            }
        }

        // Commit.
        self.engine = engine;
        self.shards = shards;
        self.island_home = island_home;
        self.refresh_shard_norms();
        self.state_pool.clear();
        // The fleet may have shrunk (shard count clamps to the island
        // count); size the health board to the committed fleet.
        self.health.reset(self.shards.len());
        Ok(ShardUpdateReport {
            update,
            resharded: changed.iter().enumerate().filter_map(|(s, &c)| c.then_some(s)).collect(),
            moved_islands,
            shard_structure: self.shard_structure(),
        })
    }

    /// Structural stats per shard, in shard-index order — the same rows
    /// [`apply_update`] reports after a commit.
    ///
    /// [`apply_update`]: ShardedEngine::apply_update
    pub fn shard_structure(&self) -> Vec<ShardStructure> {
        self.shards
            .iter()
            .map(|shard| ShardStructure {
                islands: shard.islands.len(),
                owned_nodes: shard.num_owned_nodes(),
                halo_hubs: shard.num_hubs(),
                contrib_slots: shard.contrib_slots(),
            })
            .collect()
    }

    /// Measured per-shard [`ExecStats`] for `request`, in shard-index
    /// order: each shard's layout is planned on its own (one worker, no
    /// locator traffic), **including the replicated halo** — a hub
    /// contacted by islands on `r` shards has its XW row recomputed (or,
    /// on a real fleet, received) `r` times, and each of those
    /// recomputes shows up in the owning shard's combination ops. The
    /// rows therefore do *not* sum to [`Accelerator::report`]'s
    /// canonical logical cost: halo replication adds work, while
    /// coordinator-only hub work (hubs no island contacts, and inter-hub
    /// edges whose endpoints are never co-replicated) lives outside
    /// every shard.
    ///
    /// # Errors
    ///
    /// [`CoreError::NotPrepared`] before [`prepare`], or the request
    /// validation failures of [`Accelerator::report`].
    ///
    /// [`prepare`]: Accelerator::prepare
    pub fn shard_reports(&self, request: &InferenceRequest) -> Result<Vec<ExecStats>, CoreError> {
        let (model, _) = self.prepared()?;
        validate_request(self.engine.graph(), model, request)?;
        let consumer_cfg = self.engine.consumer_config();
        let no_locator = LocatorStats::default();
        Ok(self
            .shards
            .iter()
            .zip(&self.shard_norms)
            .map(|(shard, norm)| {
                let norm = norm.clone();
                let plan =
                    ExecPlan::build(&shard.layout, consumer_cfg, model, norm, 1, &no_locator);
                plan.stats(&request.features.gather_rows(&shard.gather_original))
            })
            .collect())
    }

    /// The fleet's coordinator image: the one engine snapshot a fleet
    /// persists as. Boot it back with
    /// `ShardedEngine::from_engine(&snapshot.warm_engine(cfg)?, k)`.
    /// Shards are never stored: the boot re-derives them from the
    /// layout and `k`, without the affinity preferences updates
    /// followed, so an island may land on another shard than in this
    /// fleet. Outputs and `ExecStats` do not depend on the assignment.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot::capture(&self.engine)
    }
}

impl Accelerator for ShardedEngine {
    fn name(&self) -> String {
        format!("I-GCN-sharded[{}]", self.shards.len())
    }

    fn graph(&self) -> &CsrGraph {
        self.engine.graph()
    }

    fn prepare(&mut self, model: &GnnModel, weights: &ModelWeights) -> Result<(), CoreError> {
        self.engine.prepare(model, weights)?;
        self.refresh_shard_norms();
        Ok(())
    }

    fn infer(&self, request: &InferenceRequest) -> Result<InferenceResponse, CoreError> {
        let (model, weights) = self.prepared()?;
        // The spans parent under the request's own trace context, on
        // whichever thread the caller runs it.
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
        let stats = self.engine.account(&request.features, model)?;
        Ok(ExecReport::from_stats(self.name(), &stats))
    }

    fn health(&self) -> BackendHealth {
        let down = self.health.down_shards();
        if down.is_empty() {
            BackendHealth::Ready
        } else {
            BackendHealth::Degraded {
                detail: format!(
                    "{}/{} shards down ({down:?}); call heal() to rebuild",
                    down.len(),
                    self.shards.len()
                ),
            }
        }
    }

    fn component_health(&self) -> Vec<(String, BackendHealth)> {
        self.health
            .snapshot()
            .into_iter()
            .enumerate()
            .map(|(i, status)| {
                let health = match status {
                    ShardHealth::Up => BackendHealth::Ready,
                    ShardHealth::Down { detail } => BackendHealth::Degraded { detail },
                };
                (format!("shard{i}"), health)
            })
            .collect()
    }
}

/// The fleet's island runner: its shards, fanned out ([`fan_out`]; their
/// states are disjoint, so the fan-out cannot change a value).
///
/// Shard execution is the fleet's failure domain: each shard's layer
/// runs under `catch_unwind`, so a panicking shard (a bug, a poisoned
/// buffer, an injected fault) is contained at this seam — the shard is
/// marked [`ShardHealth::Down`] and the request fails with
/// [`CoreError::BackendFailed`] naming it.
struct Shards<'a> {
    fleet: &'a ShardedEngine,
    /// The model's normalisation gathered to each shard's local IDs.
    norms: &'a [GcnNormalization],
}

impl IslandRunner for Shards<'_> {
    /// One [`ExecScratch`] per shard.
    type State = Vec<ExecScratch>;
    type Error = CoreError;

    fn shards(&self) -> Option<usize> {
        Some(self.fleet.shards.len())
    }

    /// Pooled per-shard states: only `features` carries request data
    /// into a layer (everything else is overwritten per layer), so
    /// re-gathering it is all a reused set needs — and a set a fleet of
    /// another width returned is resized to this one.
    fn gather(&self, features: &SparseFeatures, states: &mut Vec<ExecScratch>) {
        states.resize_with(self.fleet.shards.len(), ExecScratch::default);
        for (shard, st) in self.fleet.shards.iter().zip(states) {
            features.gather_rows_into(&shard.gather_original, &mut st.features);
        }
    }

    fn run(
        &self,
        step: &LayerStep<'_>,
        coordinator: &mut LayerScratch,
        _hub_rows: &mut [f32],
        states: &mut Vec<ExecScratch>,
    ) -> Result<(), CoreError> {
        let coordinator = &*coordinator;
        let cfg = self.fleet.engine.consumer_config();
        // Contained shard failures of this layer: (shard, panic message).
        let failures: Mutex<Vec<(usize, String)>> = Mutex::new(Vec::new());
        // One shard's layer under its `shard_execute` span. Pool threads
        // have no ambient trace; the layer context crosses by value.
        // AssertUnwindSafe is justified because a failed request's state
        // set is dropped wholesale: torn &mut state never escapes.
        let run_shard = |_: &mut (), (i, st): (usize, &mut ExecScratch)| {
            let mut shard_span =
                igcn_obs::trace::OpenSpan::child(step.ctx, igcn_obs::stage::SHARD_EXECUTE);
            shard_span.tag("shard", i);
            let shard = &self.fleet.shards[i];
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                // Chaos seam: `panic`-action injections here simulate a
                // shard dying mid-layer.
                igcn_fail::fail_point!("shard::run_layer");
                let ExecScratch { layer, features, ping, pong } = st;
                layer.load_halo(coordinator, &shard.local_to_layout[..shard.num_hubs()]);
                pong.resize_in_place(shard.num_nodes(), step.weights.cols());
                // The shard's own rows, of the kind the loop reads.
                let input = match step.input {
                    LayerInput::Sparse(_) => LayerInput::Sparse(features),
                    LayerInput::Dense(_) => LayerInput::Dense(ping),
                };
                let local = LayerStep { input, norm: &self.norms[i], threads: 1, ..*step };
                run_islands(&shard.layout, cfg, &local, layer, pong.as_mut_slice());
                std::mem::swap(ping, pong);
            }));
            if let Err(payload) = outcome {
                shard_span.tag("panicked", true);
                failures
                    .lock()
                    .unwrap_or_else(|poisoned| poisoned.into_inner())
                    .push((i, panic_message(payload)));
            }
        };
        fan_out(step.threads, states.iter_mut().enumerate(), &mut (), run_shard);
        let mut failed = failures.into_inner().unwrap_or_else(|p| p.into_inner());
        if failed.is_empty() {
            return Ok(());
        }
        failed.sort_unstable_by_key(|&(i, _)| i);
        for (i, detail) in &failed {
            self.fleet.health.mark_down(*i, detail);
            // One count per shard taken down, so recovery campaigns can
            // reconcile observed Down shards against contained panics
            // exactly.
            igcn_obs::counter("shard_contained_panics").inc();
        }
        let (shard, detail) = failed.swap_remove(0);
        Err(CoreError::BackendFailed { backend: format!("shard {shard}"), detail })
    }

    fn contribution<'s>(
        &'s self,
        _: &'s LayerScratch,
        states: &'s Vec<ExecScratch>,
        island: usize,
    ) -> &'s [f32] {
        let (s, j) = self.fleet.island_home[island];
        states[s as usize].layer.contribution(j as usize)
    }

    /// Every shard's owned island-node rows; the halo rows are the
    /// coordinator's.
    fn scatter(&self, states: &Vec<ExecScratch>, out: &mut DenseMatrix) {
        for (shard, st) in self.fleet.shards.iter().zip(states) {
            for l in shard.num_hubs()..shard.num_nodes() {
                out.row_mut(shard.gather_original[l] as usize).copy_from_slice(st.ping.row(l));
            }
        }
    }
}

/// A staged fleet: the shards, the `island_home` routing table, and the
/// assignment that produced them.
type StagedFleet = (Vec<Shard>, Vec<(u32, u32)>, ShardAssignment);

/// Assigns islands and cuts the whole shard fleet out of `engine`'s
/// layout — pure with respect to any existing fleet, so callers can
/// stage a rebuild and commit only on success. `num_shards` is clamped
/// to the island count; a zero-island layout is unservable.
fn build_fleet_for(
    engine: &IGcnEngine,
    num_shards: usize,
    prefer: Option<&[Option<u32>]>,
) -> Result<StagedFleet, ShardError> {
    let (layout, consumer_cfg) = (engine.layout(), engine.consumer_config());
    let num_islands = layout.num_islands();
    if num_islands == 0 {
        return Err(ShardError::ShardUnservable {
            shard: 0,
            detail: "graph islandized to zero islands (all hubs)".to_string(),
        });
    }
    let k = num_shards.min(num_islands);
    let assignment = assign_islands(layout, k, prefer);
    let shards: Vec<Shard> = assignment
        .shards
        .iter()
        .map(|islands| build_shard(layout, consumer_cfg, islands))
        .collect();
    let mut island_home = vec![(u32::MAX, u32::MAX); num_islands];
    for (s, shard) in shards.iter().enumerate() {
        for (j, &gi) in shard.islands.iter().enumerate() {
            island_home[gi as usize] = (s as u32, j as u32);
        }
    }
    Ok((shards, island_home, assignment))
}

/// The owning shard of every original node ID below `n` (`u32::MAX`
/// for hubs, which are replicated, not placed).
fn owners(shards: &[Shard], n: usize) -> Vec<u32> {
    let mut node_shard = vec![u32::MAX; n];
    for (s, shard) in shards.iter().enumerate() {
        for &orig in &shard.gather_original[shard.num_hubs()..] {
            node_shard[orig as usize] = s as u32;
        }
    }
    node_shard
}

/// Builds the shard owning `islands_idx` (global island indices, each
/// in range) of the global layout: its maps and layout, cut out of the
/// global layout's islands — their ranges, hubs, work estimates and
/// bitmaps as they are, no subgraph, no locator pass.
fn build_shard(layout: &IslandLayout, consumer_cfg: ConsumerConfig, islands_idx: &[u32]) -> Shard {
    let islands = layout.islands();

    // The halo: hubs contacted by any owned island, ascending global
    // hub ID (which preserves detection order, so the local hub order
    // is isomorphic to the global one — the bit-identity lever), then
    // the owned islands' nodes back to back: the local IDs.
    let mut hub_local = vec![u32::MAX; layout.num_hubs()];
    for &gi in islands_idx {
        for &h in islands.hubs(gi as usize) {
            hub_local[h as usize] = 0;
        }
    }
    let mut local_to_layout = Vec::new();
    for (h, local) in (0u32..).zip(&mut hub_local).filter(|(_, local)| **local == 0) {
        *local = local_to_layout.len() as u32;
        local_to_layout.push(h);
    }
    let mut local = LaidIslands::with_capacity(local_to_layout.len(), islands_idx.len());
    for gi in islands_idx.iter().map(|&gi| gi as usize) {
        let (nodes, hubs) = (islands.nodes(gi), islands.hubs(gi));
        local.push(nodes.len(), hubs.iter().map(|&h| hub_local[h as usize]), islands.origin(gi));
        local_to_layout.extend(nodes);
    }
    let gather_original: Vec<u32> =
        local_to_layout.iter().map(|&lid| layout.gather_order()[lid as usize]).collect();
    // The inter-hub edges both of whose endpoints are replicated here.
    let inter_hub_local: Vec<(u32, u32)> = layout
        .inter_hub_edges()
        .iter()
        .map(|&(a, b)| (hub_local[a as usize], hub_local[b as usize]))
        .filter(|&(la, lb)| la != u32::MAX && lb != u32::MAX)
        .collect();
    // Local IDs are already in schedule order, so the local layout's
    // permutation is the identity, and an island's bitmap (which names
    // no node) and work estimate (its members' degrees, all local by
    // island closure) are the global ones.
    let work = islands_idx.iter().map(|&gi| layout.schedule().work()[gi as usize]).collect();
    let bitmaps = islands_idx.iter().map(|&gi| layout.bitmap(gi as usize).clone()).collect();
    let local_layout = IslandLayout::with_islands(
        local,
        &inter_hub_local,
        layout.c_max(),
        consumer_cfg.num_pes,
        work,
        bitmaps,
    );
    Shard {
        layout: Arc::new(local_layout),
        islands: islands_idx.to_vec(),
        local_to_layout,
        gather_original,
    }
}
