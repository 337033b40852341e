//! # igcn — a reproduction of I-GCN (MICRO 2021)
//!
//! *I-GCN: A Graph Convolutional Network Accelerator with Runtime
//! Locality Enhancement through Islandization*, Geng et al., MICRO 2021.
//!
//! This facade crate re-exports the whole workspace as one coherent
//! public API:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`graph`] | `igcn-graph` | CSR graphs, synthetic datasets, statistics |
//! | [`linalg`] | `igcn-linalg` | dense/sparse matrices, the four SpMM dataflows |
//! | [`gnn`] | `igcn-gnn` | GCN/GraphSage/GIN models, reference forward pass |
//! | [`core`] | `igcn-core` | **the contribution**: Island Locator + Island Consumer, the owned [`core::IGcnEngine`] with parallel execution ([`core::ExecConfig`], [`core::IslandSchedule`]), and the unified [`core::accel::Accelerator`] serving trait |
//! | [`serve`] | `igcn-serve` | [`serve::ServingEngine`]: bounded request queue + worker pool (a worker serves one request at a time) over any backend, with periodic/shutdown checkpointing |
//! | [`shard`] | `igcn-shard` | [`shard::ShardedEngine`]: partitioned multi-engine serving — island-aware sharding, deterministic halo exchange, manifest-driven fleet boot |
//! | [`gateway`] | `igcn-gateway` | [`gateway::Gateway`]: the hermetic TCP serving edge — HTTP/1.1 + length-prefixed binary on one listener, deadlines, load shedding |
//! | [`store`] | `igcn-store` | persistent snapshots: versioned, checksummed binary engine images, the graph-update WAL, warm-start boot ([`store::from_snapshot`]) and the sharded-fleet [`store::ShardManifest`] |
//! | [`sim`] | `igcn-sim` | cycle/energy/area models; [`sim::SimBackend`] lifts any simulator into the serving trait |
//! | [`reorder`] | `igcn-reorder` | lightweight reordering baselines + quality metrics |
//! | [`fail`] | `igcn-fail` | named failpoints for chaos testing — zero-cost when disabled, deterministic triggers and fault actions |
//! | [`obs`] | `igcn-obs` | process-global metrics registry (counters, gauges, log₂-bucket histograms), RAII stage spans, trace IDs, the flight recorder |
//! | [`baselines`] | `igcn-baselines` | AWB-GCN, HyGCN, SIGMA, CPU/GPU models — all servable as `Accelerator` backends |
//!
//! # Quick start
//!
//! Build the engine once (it owns its graph behind an `Arc` and is
//! `Send + Sync`), `prepare` a model, then serve requests, one `infer`
//! each:
//!
//! ```
//! use igcn::core::accel::{Accelerator, InferenceRequest};
//! use igcn::core::IGcnEngine;
//! use igcn::gnn::{GnnModel, ModelWeights};
//! use igcn::graph::generate::HubIslandConfig;
//! use igcn::graph::SparseFeatures;
//!
//! // A graph with planted hub-and-island structure.
//! let g = HubIslandConfig::new(500, 20).noise_fraction(0.01).generate(42);
//!
//! // Islandize once and build the owned, serving-ready engine.
//! let mut engine = IGcnEngine::builder(g.graph).build()?;
//!
//! // Install the model once...
//! let model = GnnModel::gcn(32, 16, 4);
//! let weights = ModelWeights::glorot(&model, 1);
//! engine.prepare(&model, &weights)?;
//!
//! // ...then serve: the request is the unit of work, one `infer` each.
//! let requests: Vec<InferenceRequest> = (0..3)
//!     .map(|i| InferenceRequest::new(SparseFeatures::random(500, 32, 0.1, i)).with_id(i))
//!     .collect();
//! let responses =
//!     requests.iter().map(|r| engine.infer(r)).collect::<Result<Vec<_>, _>>()?;
//!
//! assert_eq!(responses.len(), 3);
//! assert_eq!(responses[0].output.rows(), 500);
//! println!(
//!     "aggregation ops pruned: {:.1}%",
//!     responses[0].report.aggregation_pruning_rate * 100.0
//! );
//! # Ok::<(), igcn::core::CoreError>(())
//! ```
//!
//! Evolving graphs stay inside the same engine:
//! `engine.apply_update(GraphUpdate::add_edges(batch))?` dissolves and
//! re-forms only the islands the touched edges disturb, then serving
//! continues on the updated graph. Edge *removals* work too
//! (`GraphUpdate::remove_edges`): the endpoints' islands dissolve, and
//! a hub starved below the configured hub floor is demoted and its
//! neighborhood re-islandized.
//!
//! What an update costs follows the change, not the graph: the CSR is
//! patched row by row (the untouched rows are one block copy, `O(n + m)`
//! at `memcpy` speed), the locator rounds walk only the residual region
//! (`O(residual)` per round, on the threshold schedule a cold run of
//! the updated graph would use, so existing hubs reclaim a disturbed
//! region before any of its nodes is promoted), and the physical layout
//! is recomposed once per call — once per *batch* for
//! `apply_updates_batched` and WAL replay — as a patch of the layout it
//! already is. An island no update touched keeps its place in the order,
//! so everything held for it is carried with one ID shift: its rows of
//! the schedule-ordered CSR, its member range and hub list, its
//! schedule work and both bitmaps. Rebuilt from the updated graph are
//! the hub rows, the re-formed islands and the hub-level lists
//! (inter-hub edges and tasks, node classes, the permutation). The
//! whole is `O(n + m)` at copy speed; the algorithmic work is
//! `O(hub rows + residual)`. The partition is moved through the update,
//! not copied: a failing update reads it back out of the untouched
//! layout. See [`core::incremental`] for the breakdown.
//!
//! Every execution backend — the engine itself, the
//! [`core::CpuReference`] software pass, and (through
//! [`sim::SimBackend`]) the I-GCN timing model plus the AWB-GCN, HyGCN,
//! SIGMA and CPU/GPU platform simulators — implements the same
//! [`core::accel::Accelerator`] trait, so cross-platform harnesses and
//! serving deployments iterate one `Vec<Box<dyn Accelerator>>`.
//!
//! # Parallel execution & serving
//!
//! Islandization exposes independent work: islands touch disjoint
//! cache-resident neighborhoods, so island-granular execution
//! parallelises with near-zero coordination. The engine materialises
//! that structure as an explicit [`core::IslandSchedule`] — wavefronts
//! of data-independent island tasks with per-island work estimates —
//! and there are two ways to put cores on it, one knob each:
//!
//! * **Inside one request** — [`core::ExecConfig`]'s `num_threads`
//!   (1 = the original sequential path, bit-for-bit): more fan
//!   per-island aggregation across the engine's pool *inside* one
//!   inference (island-node rows land in disjoint output rows; hub
//!   partials merge back in schedule order, so outputs *and* statistics
//!   are bit-identical at every thread count). Raise it when one
//!   request is too slow: it buys latency on a graph large enough to
//!   keep the pool busy between the per-layer joins.
//! * **Across requests** — the caller's own threads: a prepared engine
//!   answers `infer` from any number of them, and
//!   [`serve::ServingConfig`]'s `num_workers` is that number for a
//!   serving tier. Raise it when requests queue: it buys throughput,
//!   with no coordination between requests at all.
//!
//! The product of the two is the cores a busy tier asks for; nothing
//! else fans requests out, so no setting spends the same cores twice.
//!
//! ```
//! use igcn::core::{ExecConfig, IGcnEngine};
//! use igcn::graph::generate::HubIslandConfig;
//!
//! let g = HubIslandConfig::new(300, 12).noise_fraction(0.0).generate(7);
//! let engine = IGcnEngine::builder(g.graph)
//!     .exec_config(ExecConfig::default().with_threads(4))
//!     .build()?;
//! assert_eq!(engine.exec_config().num_threads, 4);
//! # Ok::<(), igcn::core::CoreError>(())
//! ```
//!
//! **Execution statistics.** Inference computes; it does not count. The
//! island datapath is one schedule-order walk
//! ([`core::consumer::hotpath`]) fed to a sink: `infer` runs it with the
//! value sink (`Compute`) only, and every statistic —
//! [`core::ExecStats`], and the [`core::ExecReport`] a response carries
//! — comes from the statistics sink (`Account`) run **once** per
//! (layout, consumer configuration, model, execution configuration)
//! into a request-independent plan ([`core::exec::ExecPlan`]). A request
//! enters the statistics through exactly two integers of layer 0 — the
//! combination MACs (`nnz · out_dim`) and the feature-read bytes
//! (`Σᵥ min(nnzᵥ · 8, cols · 4)`) —
//! so a report costs one O(n) pass over the request's row lengths, and
//! `report(r)` and `infer(r).report` are the same value by
//! construction, at every thread count and from however many callers
//! at once. The plan is derived state, not a request cache: it
//! is built by the first request after `prepare`, `apply_update` or
//! `set_exec_config` (never at build, boot or update time — a built
//! engine retains nothing for it), a clone shares the plan its original
//! has built, and a sharded fleet builds the same one from its global
//! layout. It carries the modelled occupancy of the schedule
//! (`worker_busy_cycles`, `utilisation` on [`core::ExecReport`]); the
//! timing model reports island-schedule PE utilisation from the same
//! walk. With telemetry on, each traced `layer_execute` span is tagged
//! with the layer's `islands`, `agg_ops_executed`, `agg_ops_pruned`,
//! `hub_xw_hits` and modelled `offchip_bytes`, and `/metrics` counts
//! `igcn_engine_island_tasks_total`, `igcn_engine_agg_ops_pruned_total`,
//! `igcn_engine_offchip_bytes_total` and (fleets)
//! `igcn_shard_halo_bytes_total`.
//!
//! # Memory layout & locality
//!
//! Islandization *discovers* which nodes are touched together; since
//! PR 3 the engine also makes that locality **physical**. At build time
//! (and after every `apply_update`) it composes the island schedule
//! into a schedule-order permutation — hubs first in detection order,
//! then islands back to back — and materialises an
//! [`core::IslandLayout`]: the permuted CSR graph (each island's nodes
//! and their intra-island neighbors contiguous in memory), the permuted
//! partition whose hub IDs are the compact range `0..H`, prebuilt
//! per-island adjacency bitmaps, and the inter-hub task list in legacy
//! replay order.
//!
//! Execution over the layout is the walk of
//! [`core::consumer::hotpath`] with its value sink: one flat row-major
//! [`core::LayerScratch`] arena per worker — pooled by the engine and
//! reused across layers, islands and `infer` calls, so a
//! steady-state `infer` allocates its response and nothing else — with
//! hub XW vectors and hub partial results in dense slabs indexed by the
//! compact hub IDs instead of `HashMap`s. What it buys is the
//! benchmark's `infer_vs_reference` (per layer: `consumer.layer*_ms`,
//! `exec.infer_ms_p50`).
//!
//! What an inference costs, per layer: one combination per node (a
//! sparse request row costs its non-zeros × the output width; a dense
//! row is one GEMV, run as the plain scalar loop in place when the
//! output is narrower than one SIMD vector), then per bitmap row
//! `⌈dim / k⌉` window decisions — each an O(1) shift across the one or
//! two words of the row the window covers, plus a popcount — with every
//! non-empty window applied to the row's accumulator the moment it is
//! decided: `popcount` vector adds, or one group-sum add and one
//! subtract per clear bit, at the full feature width (an island is
//! bounded by `c_max`, so its member vectors stay cache-resident). No
//! per-row decision list is kept and nothing is replayed. In front of
//! layer 0 sits the one copy that gathers the request rows into
//! schedule order; behind the islands, `O(H + inter-hub edges)` vector
//! adds and the final scatter.
//!
//! **The ID remap contract:** requests and responses always speak
//! *original* node IDs. Request features are gathered into schedule
//! order on the way in (`SparseFeatures::gather_rows_into` with
//! `IslandLayout::gather_order`), intermediate layers stay in layout
//! order, and only the final layer's rows are scattered back
//! (`IslandLayout::forward`). The layout is a pure locality
//! optimisation: outputs and `ExecStats` are **bit-identical** at every
//! thread count — pinned by the conformance suite's thread sweep, with
//! the sequential `IslandConsumer` (the reference PE, no control flow
//! shared with the walk) kept as the layer-level oracle for values and
//! statistics in the hotpath tests.
//!
//! For a serving deployment, wrap any prepared backend in a
//! [`serve::ServingEngine`]: a bounded request queue (backpressure) in
//! front of a worker pool whose workers each serve one request at a
//! time — popped, deadline checked, run, answered; nothing waits to
//! fill a batch and a request's failure is its own — with graceful
//! shutdown:
//!
//! ```
//! use std::sync::Arc;
//! use igcn::core::accel::{Accelerator, InferenceRequest};
//! use igcn::core::{ExecConfig, IGcnEngine};
//! use igcn::gnn::{GnnModel, ModelWeights};
//! use igcn::graph::generate::HubIslandConfig;
//! use igcn::graph::SparseFeatures;
//! use igcn::serve::{ServingConfig, ServingEngine};
//!
//! let g = HubIslandConfig::new(300, 12).noise_fraction(0.0).generate(9);
//! let mut engine = IGcnEngine::builder(g.graph)
//!     .exec_config(ExecConfig::default().with_threads(2))
//!     .build()?;
//! let model = GnnModel::gcn(16, 8, 4);
//! let weights = ModelWeights::glorot(&model, 1);
//! engine.prepare(&model, &weights)?;
//!
//! let serving = ServingEngine::start(
//!     Arc::new(engine),
//!     ServingConfig::default().with_workers(2),
//! );
//! let tickets: Vec<_> = (0..4)
//!     .map(|i| {
//!         let request =
//!             InferenceRequest::new(SparseFeatures::random(300, 16, 0.2, i)).with_id(i);
//!         serving.submit(request).expect("accepting")
//!     })
//!     .collect();
//! for (i, ticket) in tickets.into_iter().enumerate() {
//!     assert_eq!(ticket.wait().expect("served").id, i as u64);
//! }
//! serving.shutdown(); // graceful: drains the queue, joins the workers
//! # Ok::<(), igcn::core::CoreError>(())
//! ```
//!
//! What the serving tier costs over a direct `infer` is the benchmark's
//! `serve_vs_infer` (`serve.submit_wait_ms_p50`, `serve.overhead_ms`);
//! order, repeatability and thread-count bit-identity — one caller or
//! several at once — are pinned by the conformance suite
//! (`tests/backend_conformance.rs`).
//!
//! # Kernels & SIMD
//!
//! Below the hot path sit explicit SIMD kernels: [`simd`]
//! (`crates/compat/simd`, vendored, dependency-free) provides `f32x8` /
//! `i32x8` value types and whole-slice kernels with three backends —
//! portable scalar (always available, the reference semantics), AVX2
//! (`x86_64`) and NEON (`aarch64`). **Dispatch policy:** the backend is
//! probed once per process (`std::arch` feature detection, cached in an
//! atomic) and chosen *per kernel call*, so the hot loops themselves
//! live inside `#[target_feature]` functions with no per-element
//! branching; `igcn::simd::force_scalar(true)` pins the scalar path at
//! runtime (the conformance suite's fallback sweep runs both and
//! asserts equality). [`linalg::kernels`] builds the engine's kernels
//! on top: `axpy_f32`, `scale_f32`, and the register-tiled,
//! cache-blocked GEMM `gemm_blocked_into` that now powers
//! [`linalg::DenseMatrix::matmul`].
//!
//! **Why vectorization preserves bit-identity:** every kernel
//! vectorizes across *feature columns* — independent output elements —
//! and uses non-fused multiply-then-add (never FMA), so the per-element
//! sequence of f32 roundings is exactly the scalar loop's sequence; no
//! reduction is ever re-associated. The same argument covers the island
//! aggregation's inlined add/subtract loops (`a += v` and `a -= v` are
//! bit for bit `a += 1.0·v` and `a += -1.0·v`, in the walk's own window
//! order per element) and the GEMM's k-blocking (per-element k-order
//! kept).
//! Outputs and `ExecStats` are therefore bit-identical across scalar /
//! AVX2 / NEON, at every thread and shard count — pinned by unit tests
//! in `igcn-simd`/`igcn-linalg` and the conformance fallback sweep.
//!
//! Kernel throughput is the benchmark's `linalg.gemm_gflops` /
//! `linalg.axpy_gbps` (and `linalg.xw*_ms` for the two X·W products);
//! blocked-GEMM-equals-naive and SIMD-equals-scalar are unit tests in
//! `igcn-linalg` / `igcn-simd`.
//!
//! # Persistence & warm start
//!
//! Islandization runs at runtime — but not *every* runtime:
//! [`store`] (`igcn-store`) persists the complete engine image in a
//! versioned, checksummed binary snapshot (graph, partition, locator
//! statistics, the composed [`core::IslandLayout`], and optionally the
//! prepared model + weights and a default feature matrix), so a
//! restarted serving node **warm-starts**:
//!
//! ```
//! use igcn::core::{Accelerator, ExecConfig, IGcnEngine};
//! use igcn::gnn::{GnnModel, ModelWeights};
//! use igcn::graph::generate::HubIslandConfig;
//! use igcn::store::{from_snapshot, Snapshot};
//!
//! // Cold build once: pays the locator pass + layout composition.
//! let g = HubIslandConfig::new(300, 12).noise_fraction(0.0).generate(3);
//! let mut engine = IGcnEngine::builder(g.graph).build()?;
//! let model = GnnModel::gcn(16, 8, 4);
//! let weights = ModelWeights::glorot(&model, 1);
//! engine.prepare(&model, &weights)?;
//! let path = std::env::temp_dir().join("igcn-facade-doc.snap");
//! Snapshot::capture(&engine).write(&path).expect("snapshot writes");
//!
//! // Every later boot skips islandization entirely: checksum + a cheap
//! // structural invariant check, then serve. Bit-identical outputs and
//! // ExecStats to the cold-built engine, at every thread count.
//! let warm = from_snapshot(&path)
//!     .exec_config(ExecConfig::default().with_threads(2))
//!     .build()
//!     .expect("warm boot");
//! assert_eq!(warm.partition().num_islands(), engine.partition().num_islands());
//! # std::fs::remove_file(&path).ok();
//! # Ok::<(), igcn::core::CoreError>(())
//! ```
//!
//! **Format versioning & compatibility policy.** A snapshot file is
//! `magic | version | payload length | FNV-1a-64 checksum | payload`.
//! Readers accept exactly [`store::SNAPSHOT_VERSION`]; any
//! layout-affecting change to the wire format bumps the number and
//! older files fail fast with a typed
//! [`store::StoreError::UnsupportedVersion`] (a snapshot is a cache of
//! islandization work — rebuild it from the source graph, e.g. with
//! the `snapshot_tool build` bin). Corruption anywhere in the payload
//! is caught by the checksum before decoding; every other defect
//! (truncation, bad tags, structurally impossible images) is a typed
//! [`store::StoreError`], never a panic.
//!
//! **WAL replay semantics.** [`store::EngineStore`] manages a snapshot
//! plus a write-ahead log of [`core::GraphUpdate`]s:
//! `store.apply_update(&mut engine, update)` appends to the log
//! *before* the in-memory restructuring (rolling the record back if
//! the engine rejects it), and `store.boot(exec_cfg)` replays the log
//! over the warm-started image in append order — arriving at exactly
//! the serving state the process went down with. Replay is **batched**
//! ([`core::IGcnEngine::apply_updates_batched`]): every record applies
//! structurally and the physical layout is recomposed once at the end,
//! so long logs do not pay the O(n + m) layout composition per record
//! (end state pinned identical to per-record replay). A torn final record
//! (crash mid-append) is discarded and reported; the log is paired to
//! its snapshot by checksum, so a checkpoint interrupted between
//! writing the new snapshot and resetting the log can never
//! double-apply updates.
//!
//! **Checkpointing from the serving front-end.**
//! [`serve::ServingEngine::start_with_checkpoint`] accepts a
//! [`serve::CheckpointPolicy`] (every N executed requests and/or on
//! graceful shutdown) and a hook that typically calls
//! [`store::EngineStore::checkpoint`] — folding the WAL back into the
//! snapshot off the request path (the hook runs after the request has
//! its response, and a panicking hook is contained).
//!
//! Warm boot against cold build is the benchmark's gated
//! `warm_vs_cold_boot` (with `wal_vs_warm_boot` for replay and the
//! `store.*` per-layer readings). `cargo run --release -p igcn-bench
//! --bin snapshot_tool -- build|inspect|verify` create
//! snapshots from dataset bins or real edge-list dumps
//! (`igcn::graph::io::read_edge_list_flexible`), print header
//! metadata, and audit a file (checksum, structural validation,
//! `--deep` cold-rebuild comparison).
//!
//! # Sharded serving
//!
//! Graphs that exceed one engine's memory shard along the structure
//! islandization already discovered ([`shard`] / `igcn-shard`):
//!
//! * **The island-aware cut.** Whole islands are assigned to K shards
//!   by a deterministic greedy pass that groups islands sharing hubs
//!   (minimising the hub-side edge cut — the only cut islandized graphs
//!   have, since islands are closed) under a work-balance cap;
//!   [`shard::ShardingReport`] records the per-shard balance, cut
//!   fraction and hub replication of the chosen assignment.
//!
//! * **The halo / replication contract.** Each shard replicates the
//!   hubs its islands contact (ascending global hub order) and owns a
//!   complete [`core::IGcnEngine`] over that subgraph — independently
//!   servable, snapshot-able, and structurally valid (its partition
//!   passes the full islandization invariants). Per layer, the
//!   coordinator broadcasts the hub XW rows (the halo payload), shards
//!   compute their islands locally, and the coordinator merges the
//!   exported per-island hub contributions. Normalisation scales always
//!   come from *global* degrees (the halo truncates replicated-hub
//!   degrees, so shards never recompute scales locally).
//!
//! * **The determinism guarantee.** Shard-local IDs are
//!   order-isomorphic to the global layout IDs and the merge replays
//!   contributions in the global schedule order — the exact seam the
//!   single engine's thread-parallel path already uses — so outputs
//!   *and* `ExecStats` are **bit-identical** to a single engine at
//!   every shard count and thread count, before and after routed
//!   [`core::GraphUpdate`]s, and after a manifest round trip (pinned by
//!   the conformance suite's shard sweep). `apply_update` restructures
//!   the disturbed region globally, keeps undisturbed islands on their
//!   shard via an affinity pass, and refreshes every shard's halo.
//!
//! * **Manifest format & versioning.** A fleet persists as one
//!   standard snapshot per shard plus the coordinator image and a
//!   [`store::ShardManifest`] (`magic "IGSM" | version | length |
//!   FNV-1a-64 checksum | payload`) listing each member's file name and
//!   snapshot checksum — a swapped or rebuilt snapshot fails the
//!   pairing check before any engine is constructed. Readers accept
//!   exactly [`store::MANIFEST_VERSION`]; older manifests fail fast
//!   with a typed error (a manifest is derived data — re-partition from
//!   the coordinator snapshot). [`shard::ShardedEngine::from_manifest`]
//!   cold-starts the whole fleet with no locator pass anywhere.
//!
//! ```
//! use igcn::core::{Accelerator, IGcnEngine, InferenceRequest};
//! use igcn::gnn::{GnnModel, ModelWeights};
//! use igcn::graph::generate::HubIslandConfig;
//! use igcn::graph::SparseFeatures;
//! use igcn::shard::ShardedEngine;
//!
//! let g = HubIslandConfig::new(400, 16).noise_fraction(0.02).generate(11);
//! let mut single = IGcnEngine::builder(g.graph).build()?;
//! let model = GnnModel::gcn(16, 8, 4);
//! let weights = ModelWeights::glorot(&model, 1);
//! single.prepare(&model, &weights)?;
//!
//! let sharded = ShardedEngine::from_engine(&single, 2).expect("shardable");
//! let request = InferenceRequest::new(SparseFeatures::random(400, 16, 0.2, 3));
//! assert_eq!(
//!     sharded.infer(&request)?.output,
//!     single.infer(&request)?.output, // bit-identical
//! );
//! # Ok::<(), igcn::core::CoreError>(())
//! ```
//!
//! What sharding costs is the benchmark's `shard_vs_infer` (with
//! `shard.work_balance`, `shard.cut_frac`, `shard.hub_replication` and
//! `shard.halo_kb_per_infer` beside it); the Cora 2-shard balance and
//! cut are pinned by a unit test in `igcn-shard`.
//! `cargo run --release -p igcn-bench --bin shard_tool --
//! partition|inspect|verify` build a fleet from a dataset
//! bin or edge-list dump, print manifest metadata, and audit a fleet
//! end to end (cold start + bit-identity against the coordinator
//! engine).
//!
//! # Network serving
//!
//! [`gateway`] (`igcn-gateway`) puts any prepared
//! [`core::accel::Accelerator`] — a single engine, a warm-started
//! snapshot, or a whole [`shard::ShardedEngine`] fleet — on a TCP
//! socket, with **zero network dependencies**: the event loop is the
//! vendored `crates/compat/mio` readiness poller over non-blocking
//! `std::net` sockets. That poller is `poll(2)` and a socket-pair
//! waker, so the gateway is **unix-only** (elsewhere `compat/mio` is a
//! `compile_error!`).
//!
//! One listener speaks **two wire protocols**, sniffed from the first
//! byte of each connection:
//!
//! * **HTTP/1.1** — `POST /v1/infer` with a JSON body
//!   `{"id": u64, "deadline_ms": u64?, "features": {"rows": .., "cols": ..,
//!   "row_ptr": [..], "col_idx": [..], "values": [..]}}`, answering
//!   `200` with the dense output matrix, plus `GET /healthz`,
//!   `GET /stats` and `GET /metrics` for probes and dashboards. The
//!   two bulk bodies go through a typed streaming codec
//!   ([`gateway::body`]): each `f32` is written as the shortest decimal
//!   that names it (integer Schubfach, digits stored eight to a word)
//!   and read back *as an `f32`* (sixteen bytes of text classified at
//!   once), so the JSON round trip is still bit-exact; known arrays are parsed straight into their
//!   vectors (no tree; peak decode memory ≤ 4× the body), unknown keys
//!   are skipped, keys may come in any order. Errors map onto status
//!   codes: `429` shed, `504` deadline expired, `4xx` malformed (`400`
//!   too for well-formed features of the wrong shape), `500` backend
//!   failure. An `X-IGCN-Trace` request header carries the
//!   request's trace ID (see *Observability* below); every response
//!   echoes it.
//! * **Length-prefixed binary** ([`gateway::wire`]) — `magic | version |
//!   payload length | checksum | trace id | payload` frames carrying
//!   raw IEEE-754 bits. Readers accept exactly
//!   [`gateway::wire::WIRE_VERSION`], which is **3**: every scalar is a
//!   u64, each CSR array is one 8-byte-aligned little-endian section
//!   ([`store::sections`]) written with a single block copy into the
//!   buffer that goes to the socket, and the payload is summed by
//!   [`store::sections::checksum64`] (XXH64, seed 0 — four independent
//!   lanes, memory speed) instead of byte-serial FNV-1a.
//!   **Migration:** there is no compatibility shim — a version-1 or
//!   version-2 client gets a typed `unsupported wire version` `Err`
//!   frame and the connection closes, per the same policy as
//!   snapshots; upgrade clients together with the server. (The HTTP
//!   protocol is compatible in both directions: old clients' 17-digit
//!   text decodes to the same bits.) The trace id rides the *header*,
//!   outside checksum coverage, so it is readable even when the payload
//!   is rejected. The magic's first byte (`0x89`) can never begin an
//!   HTTP request, which is what makes the sniff unambiguous.
//!
//! Flow control is explicit and non-blocking at the edge:
//!
//! * **One bounded queue + load shedding** — a request crosses one
//!   queue, the serving tier's: a full queue
//!   ([`serve::ServingConfig::queue_capacity`], 128 under
//!   [`gateway::GatewayConfig::default`]) or an EWMA-estimated wait
//!   beyond [`gateway::GatewayConfig::max_estimated_wait`] sheds the
//!   request *immediately* (HTTP `429` / binary `Shed`); IO threads
//!   never block on a saturated backend.
//! * **Deadline cancellation at the pop** — `deadline_ms` is checked by
//!   the worker that pops the request off the queue; an expired request
//!   is answered (`504` / binary `Deadline`) without ever reaching the
//!   backend.
//! * **Event-driven, end to end** — IO threads block in `poll(2)` with
//!   no timeout; a worker pushes each outcome to the IO thread that
//!   owns the connection and wakes it ([`serve::Completion`]). Nothing
//!   on the request path waits on a timer: a worker that pops a request
//!   runs it. An idle gateway makes no wakeups
//!   (`igcn_gateway_io_wakeups_total` stands still).
//! * **A failing `accept` backs off** — out of descriptors (`EMFILE` /
//!   `ENFILE`), the listener leaves the poll for 100 ms or until a
//!   connection closes, instead of being reported readable for ever;
//!   established connections are served meanwhile
//!   (`igcn_gateway_accept_errors_total`).
//! * **Stalled requests time out** — a connection that holds an
//!   incomplete request and sends no byte for 30 s is answered `408` /
//!   binary `Err` and closed.
//! * **Bounded connection buffers** — each connection's input and
//!   output buffer is capped at
//!   [`gateway::GatewayConfig::max_conn_buffer`]; a peer that floods
//!   pipelined requests or stops draining responses is paused via TCP
//!   backpressure (and a single over-budget request is rejected with
//!   `413` / binary `Err`), and a declared length is reserved only once
//!   a sixteenth of it has arrived, so one hostile client cannot grow
//!   gateway memory without bound.
//! * **Graceful drain** — shutdown completes in-flight requests and
//!   flushes their responses before the threads exit.
//!
//! Sizing knobs: `IGCN_IO_THREADS` (event loops) and
//! `IGCN_WORKER_THREADS` (serving workers behind the queue) override
//! the defaults via [`gateway::GatewayConfig::from_env`].
//!
//! ```no_run
//! use std::sync::Arc;
//! use igcn::core::{Accelerator, IGcnEngine};
//! use igcn::gateway::{Gateway, GatewayConfig, HttpClient, InferReply};
//! use igcn::gnn::{GnnModel, ModelWeights};
//! use igcn::graph::generate::HubIslandConfig;
//! use igcn::graph::SparseFeatures;
//!
//! let g = HubIslandConfig::new(300, 12).noise_fraction(0.0).generate(5);
//! let mut engine = IGcnEngine::builder(g.graph).build()?;
//! let model = GnnModel::gcn(16, 8, 4);
//! let weights = ModelWeights::glorot(&model, 1);
//! engine.prepare(&model, &weights)?;
//!
//! let gateway = Gateway::serve(
//!     Arc::new(engine),
//!     "127.0.0.1:0", // port 0: pick any free port
//!     GatewayConfig::from_env(),
//! )?;
//! let mut client = HttpClient::connect(gateway.local_addr())?;
//! let features = SparseFeatures::random(300, 16, 0.2, 9);
//! match client.infer(1, Some(250), &features)? {
//!     InferReply::Output { output, .. } => assert_eq!(output.rows(), 300),
//!     other => panic!("request refused: {other:?}"),
//! }
//! gateway.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! `examples/gateway_client.rs` runs the full loop — boot, serve, query
//! over both protocols, read `/stats` — and
//! `cargo run --release -p igcn-bench --bin gateway_tool` serves a
//! snapshot or shard manifest from the command line (`serve`) or drives
//! a self-hosted gateway with an open-loop load generator (`load`: a
//! smoke that fails on any protocol or client error; round-trip time is
//! the benchmark's `gateway_binary_vs_serve` / `gateway_http_vs_binary`).
//!
//! # Failure modes & recovery
//!
//! Every layer treats faults as first-class inputs: failures surface
//! as typed errors, recovery paths are deterministic, and each one is
//! pinned by failpoint-driven tests ([`fail`] / `igcn-fail`: named
//! failpoints with deterministic `always` / `once` / `nth(N)` /
//! `prob(P,SEED)` triggers and return-error / truncate-write / panic /
//! delay actions — one relaxed atomic load when disabled, so the
//! instrumentation ships in production builds). The registered points
//! are enumerated in `igcn::store::FAILPOINTS` and
//! `igcn::shard::FAILPOINTS`, and
//! `cargo run --release -p igcn-bench --bin chaos_tool` drives seeded
//! campaigns (hundreds of injections) that require 100% recovery with
//! bit-identical outputs and `ExecStats`.
//!
//! | fault | detected by | surfaces as | recovery | pinned by |
//! |---|---|---|---|---|
//! | corrupt / torn snapshot at boot | checksum + structural validation | — | quarantined to `<snapshot>.quarantine`, boot falls back to `<snapshot>.prev` + WAL replay | `igcn-store` failpoint suite, chaos campaign |
//! | crash mid-checkpoint (rotated but not published) | current snapshot missing | `Err` from the interrupted `save` | boot loads the previous generation; the WAL still pairs with it, so **no acknowledged update is lost** | `store::checkpoint::rotated` / `store::snapshot::publish` plans |
//! | crash mid-WAL-append (torn record) | record length + FNV-1a checksum | torn tail discarded, reported in [`store::BootOutcome`] | replay stops at the tear; the torn update was never acknowledged | tear-at-every-byte-offset sweep in `igcn-store` |
//! | stale WAL after an interrupted reset | snapshot-checksum pairing header | `stale_wal_discarded` in [`store::BootOutcome`] | discarded, never double-applied | `igcn-store` failpoint suite |
//! | engine rejects a logged update | typed [`core::CoreError`] | `Err` from [`store::EngineStore::apply_update`] | the WAL record is rolled back; the log matches memory exactly | `igcn-store` unit tests |
//! | shard panic mid-layer | `catch_unwind` at the fan-out seam | [`core::CoreError::BackendFailed`], [`shard::ShardHealth::Down`] | fleet degrades + fails fast; [`shard::ShardedEngine::heal`] rebuilds only the dead shards, restoring bit-identity | `igcn-shard` failpoint suite, chaos campaign |
//! | wedged serving backend | consecutive request failure streak (a request refused for its shape is not in it) | [`core::BackendHealth::Degraded`] from [`serve::ServingEngine::health`] | one successful request resets the streak; `/healthz` answers `503` meanwhile | `igcn-serve` wedged-backend test |
//! | gateway overload | the one bounded serving queue + EWMA wait estimate | HTTP `429` / binary `Shed`, health `degraded` | clients retry shed replies under a bounded, **seeded** backoff ([`gateway::RetryPolicy`]) | `igcn-gateway` retry tests |
//! | gateway restarting | transient connect errors (refused/reset/aborted/timed out) | `io::Error` | bounded seeded-backoff reconnect (`connect_with_retry`) | `igcn-gateway` client tests |
//! | malformed gateway reply | response/frame parsers | `io::ErrorKind::InvalidData` | **never retried** — resending into a broken peer is how retry storms start | `malformed_responses_are_never_retried` |
//! | planned restart | [`gateway::Gateway::begin_drain`] | health `draining`, `/healthz` `503`, new work shed | in-flight requests finish; the load balancer rotates traffic away before `shutdown` | `igcn-gateway` health-model test |
//!
//! The live health model ties it together: `/healthz` (HTTP) and the
//! binary `HealthCheck`/`Health` frames report
//! `ready` / `degraded` / `draining` with a human-readable detail
//! string, folding backend health ([`core::accel::Accelerator::health`])
//! with the gateway's own shed-pressure estimate — `200` only when
//! `ready`, so a probe needs no JSON parsing to rotate a node out.
//!
//! # Observability
//!
//! [`obs`] (`igcn-obs`, `crates/compat/telemetry` — vendored,
//! dependency-free) is the workspace's telemetry layer: a
//! process-global metrics registry, one RAII stage span whose single
//! record feeds the stage histogram, the request's trace tree and the
//! flight recorder, and end-to-end trace IDs.
//!
//! * **Registry.** `obs::counter("name")` / `obs::gauge("name")` /
//!   `obs::histogram("name")` intern `&'static` handles on first use
//!   (atomic increments thereafter — safe from any thread, including
//!   pool workers mid-inference). Histograms bucket values into 64
//!   log₂ bins, so recording is a few atomic ops and snapshots report
//!   p50/p90/p99/max with bit-stable bucket upper bounds.
//! * **Stage spans.** The request path is instrumented with named
//!   stages ([`obs::stage`]): gateway decode, queue wait, dispatch,
//!   layer execute (a single engine's layer, or a fleet coordinator's
//!   whole layer), halo exchange/merge and the per-shard
//!   `shard_execute` inside it, WAL append, checkpoint, response
//!   encode. There is **one span API**:
//!   `obs::trace::OpenSpan::child(parent, stage)` times a scope, and
//!   its drop records that one duration into `stage_ns/<stage>` and —
//!   when `parent` belongs to a traced request — into the request's
//!   tree, so a histogram and a tree span of the same name are the same
//!   measurement; `obs::trace::record_child_ns` is the retroactive form
//!   for a stage timed before its parent existed (gateway decode, queue
//!   wait). Under an inactive parent (`obs::TraceCtx::NONE`: the
//!   store's spans, a direct `engine.infer`) a span feeds its histogram
//!   only. Telemetry is **off by default** and a disabled span is one
//!   relaxed atomic load (≤ 5 ns, pinned by `obs_tool`'s probe), so the
//!   spans ship unconditionally — [`gateway::Gateway::serve`] flips the
//!   switch for serving processes. Instrumentation is *bit-neutral*:
//!   outputs and `ExecStats` are identical on/off (asserted every CI
//!   run).
//! * **Trace IDs.** Every request carries a `u64` trace end to end:
//!   clients supply one (`X-IGCN-Trace` header / the binary frame's
//!   header field) or the gateway mints one; every reply — including
//!   shed, deadline and error replies — echoes it, and slow-request
//!   log lines (> 500 ms service) carry it, so one grep follows a
//!   request across layers.
//! * **Flight recorder.** The last [`obs::FLIGHT_CAPACITY`] (256)
//!   finished requests keep a per-stage breakdown
//!   ([`obs::FlightEntry`]) in a bounded ring — the first thing to read
//!   after a latency incident. Nobody assembles an entry: when a
//!   request's root span finishes (or is dropped — a died connection
//!   records `aborted`) it appends the entry from what it already
//!   holds — trace ID, its `protocol` / `request_id` tags, the terminal
//!   status (`ok`, `failed`, `shed`, `deadline`, `aborted`) and its
//!   direct children as `(stage, ns)` in start order: decode, queue
//!   wait (admit → pop: on a tier that keeps up, the time to wake a
//!   worker; under a backlog, the service of the requests ahead),
//!   dispatch (pop → outcome made on the worker: one request's
//!   service, never overlapping another's on that worker), encode. A
//!   request whose root is inert (telemetry
//!   off, or a trace dropped and counted in `traces_dropped`) leaves no
//!   entry.
//! * **Scrape endpoints.** `GET /metrics` renders Prometheus text
//!   (every family introduced by a `# HELP` line — register richer
//!   help with `obs::describe` — counters as `igcn_<name>_total`,
//!   gauges as `igcn_<name>`, stage histograms as an `igcn_stage_ns`
//!   summary family, plus per-gateway `igcn_gateway_*` lines
//!   including the live `queue_depth`/`inflight` gauges, the
//!   `io_wakeups_total` counter (what the IO threads are doing: it
//!   stands still while the gateway is idle), the shed counter split by
//!   reason, and
//!   `igcn_gateway_{request,response}_bytes_total{protocol=..}` — bytes
//!   per request, to read beside the decode/encode stage histograms);
//!   `GET /stats` serves the same as JSON
//!   with queue depth, per-stage quantiles and per-shard health
//!   ([`core::accel::Accelerator::component_health`] — `/healthz` and
//!   the binary `Health` frame carry the same per-shard detail);
//!   `GET /debug/flight` serves the flight-recorder ring as JSON.
//! * **Trace trees.** Beyond the stage histograms, every
//!   inference request roots a hierarchical span tree
//!   ([`obs::trace`]): the gateway's `request` root carries protocol
//!   and request-id tags and parents `gateway_decode_*`,
//!   `queue_wait`, `dispatch` and `response_encode_*` children; the
//!   dispatch context rides
//!   [`core::accel::InferenceRequest::trace`] into the backend, where
//!   [`shard::ShardedEngine`] adds per-layer `layer_execute` spans
//!   (tagged with island wavefront counts) with one `shard_execute`
//!   child per shard plus `halo_exchange`/`halo_merge` children, and
//!   the single-engine path adds its own `layer_execute` spans.
//! * **Tail sampling.** Completed trees are kept only when slow
//!   (total time over `obs::trace::slow_threshold_ns`, default
//!   500 ms, env `IGCN_TRACE_THRESHOLD_MS`) or non-`ok` (failed,
//!   shed, deadline, aborted — a dropped-without-finish root, e.g. a
//!   connection that died, retains as `aborted`), in a bounded ring
//!   of `obs::trace::retention()` trees (default 64, env
//!   `IGCN_TRACE_RETAIN`); in-progress assembly is capped at 512
//!   concurrent traces / 2048 spans per trace, with overflow counted
//!   in `traces_dropped` and per-trace `truncated_spans`.
//! * **Trace export.** `GET /traces` lists retained trees;
//!   `GET /trace/{id}` serves one as Chrome trace-event JSON
//!   ([`obs::trace::RetainedTrace::to_chrome_json`]) loadable in
//!   `chrome://tracing`/Perfetto, with spans tagged `shard=K` on
//!   track `tid = K + 1` so per-shard work lines up visually.
//! * **Structured logging.** [`log`] (`igcn-log`, vendored,
//!   dependency-free) emits single-line JSON records to stderr:
//!   `{"ts_ms", "level", "target", "msg", fields...}`, plus `"trace"`
//!   (16-hex) when a [`log::with_trace`] guard is installed — the
//!   gateway's slow-request warning uses it, so the line correlates
//!   with `GET /trace/{id}` directly. Levels filter on one atomic
//!   compare (`IGCN_LOG=debug|info|warn|error|off`), and each
//!   callsite rate-limits itself (50/s, then one `"suppressed": n`
//!   summary) so a hot error path cannot flood stderr.
//!
//! `cargo run --release -p igcn-bench --bin obs_tool` walks the whole
//! contract — overhead probe, bit-neutrality, trace echo over both
//! protocols, stage coverage, scrape parsing — and prints per-stage
//! p50/p99 per protocol (what telemetry *costs* is the benchmark's
//! `obs.telemetry_on_ratio` / `obs.trace_overhead_ratio`);
//! `trace_tool` does the same for trace trees (capture, listing,
//! Chrome export shape, per-shard coverage, drain leak-freedom). The
//! chaos campaigns additionally reconcile error counters against
//! their own fault tallies (`shard_contained_panics`,
//! `store_wal_rollbacks`) and assert no counter ever goes backwards
//! across a heal or recovery boot.
//!
//! ## One measurement system
//!
//! Nothing in the workspace measures time for the record: every
//! wall-clock claim names a metric of the repository benchmark
//! (`BENCHMARK.json` + `benchmark/`, a package of its own that drives
//! this facade at full scale; `benchmark compare` is the timing gate).
//! Structure — bit-identity across threads, shards, SIMD/scalar and
//! snapshot round trips, recovery, partition quality — is asserted by
//! `cargo test` and by the operator-tool smokes above, which print
//! their summary, exit non-zero on a violation and write no file.
//!
//! # Migrating from the borrowed engine (pre-builder API)
//!
//! The old engine borrowed its graph and panicked on shape errors:
//!
//! ```text
//! // before:
//! let engine = IGcnEngine::new(&graph, island_cfg, consumer_cfg)?;   // borrows graph
//! let (out, stats) = engine.run(&x, &model, &weights);               // panics on bad shapes
//! ```
//!
//! The engine now owns its graph (`Arc` inside — pass a `CsrGraph` by
//! value or an existing `Arc<CsrGraph>`) and every path returns
//! `Result`:
//!
//! ```text
//! // after:
//! let engine = IGcnEngine::builder(graph)
//!     .island_config(island_cfg)      // optional, defaults preserved
//!     .consumer_config(consumer_cfg)  // optional
//!     .build()?;
//! let (out, stats) = engine.run(&x, &model, &weights)?;
//! ```
//!
//! `incremental_islandize` + `apply_edges` call sites collapse into
//! `engine.apply_update(GraphUpdate::add_edges(added))?`, and
//! `engine.verify(..)` / `engine.account(..)` now return `Result` too.

pub use igcn_baselines as baselines;
pub use igcn_core as core;
pub use igcn_fail as fail;
pub use igcn_gateway as gateway;
pub use igcn_gnn as gnn;
pub use igcn_graph as graph;
pub use igcn_linalg as linalg;
pub use igcn_log as log;
pub use igcn_obs as obs;
pub use igcn_reorder as reorder;
pub use igcn_serve as serve;
pub use igcn_shard as shard;
pub use igcn_sim as sim;
pub use igcn_simd as simd;
pub use igcn_store as store;
