//! Set-up: everything that exists before the first timed sample. One
//! call to [`Fixture::set_up`] is one sample of `setup_s`.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use igcn::core::accel::{Accelerator, InferenceRequest};
use igcn::core::{GraphUpdate, IGcnEngine};
use igcn::gateway::{BinaryClient, Gateway, GatewayConfig, HttpClient};
use igcn::shard::ShardedEngine;
use igcn::store::EngineStore;

use crate::alloc::live_bytes;
use crate::updates::BatchGen;
use crate::workload::{self, Inputs};
use crate::{err, Res};

/// Records in the write-ahead log a WAL boot replays.
pub const WAL_RECORDS: usize = 8;
/// Shards in the fleet `shard_vs_infer` runs on.
pub const SHARDS: usize = 2;
/// Closed-loop binary clients behind `gateway.rps_2clients` (capped by `nproc`).
pub const RPS_CLIENTS: usize = 2;

/// Turns a built, prepared engine into the backend the gateway serves
/// and `Op::Infer` calls. The benchmark serves the engine itself;
/// the self-test wraps it to inject a known delay.
pub type Wrap = fn(IGcnEngine) -> Arc<dyn Accelerator>;

pub struct Fixture {
    pub inputs: Inputs,
    pub request: InferenceRequest,
    /// The built, prepared engine (1 thread, telemetry as found).
    pub engine: IGcnEngine,
    pub served: Arc<dyn Accelerator>,
    dir: PathBuf,
    /// Snapshot of `engine`; its WAL takes the update phase's records.
    pub store: EngineStore,
    /// The engine the update phase mutates through `store`.
    pub live: IGcnEngine,
    /// The same snapshot beside a [`WAL_RECORDS`]-record WAL.
    pub wal_store: EngineStore,
    /// The engine that applied those records while they were logged.
    pub wal_live: IGcnEngine,
    pub fleet: ShardedEngine,
    pub gateway: Gateway,
    pub binary: Vec<BinaryClient>,
    pub http: HttpClient,
    pub batches: BatchGen,
    pub generate_ms: f64,
    /// Live heap the engine retains: the allocator's delta across
    /// build + prepare (the input graph, shared by `Arc`, is not in it).
    pub engine_heap_bytes: isize,
    pub snapshot_bytes: u64,
}

impl Fixture {
    /// Generates the inputs and builds the engine, the stores, the
    /// fleet and the gateway, under a fresh directory inside `out_dir`.
    pub fn set_up(name: &str, seed: u64, out_dir: &Path, wrap: Wrap) -> Res<Fixture> {
        let start = Instant::now();
        let inputs =
            workload::generate(name, seed).ok_or_else(|| format!("unknown workload {name:?}"))?;
        let generate_ms = start.elapsed().as_secs_f64() * 1e3;

        let heap_before = live_bytes();
        let mut engine = IGcnEngine::builder(Arc::clone(&inputs.graph)).build().map_err(err)?;
        engine.prepare(&inputs.model, &inputs.weights).map_err(err)?;
        let engine_heap_bytes = live_bytes() - heap_before;

        let dir = fresh_dir(out_dir)?;
        let store = EngineStore::at(dir.join("engine.snap"));
        let snapshot_bytes = store.checkpoint(&engine).map_err(err)?;

        // The WAL store: the same image (a file copy, so both stores
        // boot from identical bytes) plus WAL_RECORDS logged add batches.
        let wal_dir = dir.join("wal");
        std::fs::create_dir_all(&wal_dir).map_err(err)?;
        let wal_store = EngineStore::at(wal_dir.join("engine.snap"));
        std::fs::copy(store.snapshot_path(), wal_store.snapshot_path()).map_err(err)?;
        let mut batches = BatchGen::new(seed);
        let mut wal_live = engine.clone();
        let mut logged = 0;
        while logged < WAL_RECORDS {
            let batch = batches.next_batch(&inputs.graph);
            // Batches are new to the base graph; one that repeats an
            // edge an earlier record added is skipped.
            if batch.iter().any(|&(a, b)| wal_live.graph_arc().has_edge(a.into(), b.into())) {
                continue;
            }
            wal_store.apply_update(&mut wal_live, GraphUpdate::add_edges(batch)).map_err(err)?;
            logged += 1;
        }

        let fleet = ShardedEngine::from_engine(&engine, SHARDS).map_err(err)?;

        let served = wrap(engine.clone());
        let gateway = Gateway::serve(Arc::clone(&served), "127.0.0.1:0", GatewayConfig::default())
            .map_err(err)?;
        let addr = gateway.local_addr();
        let clients = RPS_CLIENTS.min(crate::nproc());
        let binary = (0..clients)
            .map(|_| BinaryClient::connect(addr))
            .collect::<Result<_, _>>()
            .map_err(err)?;
        let http = HttpClient::connect(addr).map_err(err)?;

        Ok(Fixture {
            request: InferenceRequest::new(inputs.features.clone()),
            live: engine.clone(),
            inputs,
            engine,
            served,
            dir,
            store,
            wal_store,
            wal_live,
            fleet,
            gateway,
            binary,
            http,
            batches,
            generate_ms,
            engine_heap_bytes,
            snapshot_bytes,
        })
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

impl Drop for Fixture {
    /// Removes the stores' files. The gateway's own `Drop` then shuts it
    /// down and joins its threads.
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn fresh_dir(out_dir: &Path) -> Res<PathBuf> {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let k = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = out_dir.join(format!("tmp-{}-{k}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(err)?;
    Ok(dir)
}
