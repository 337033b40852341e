//! # igcn-store — persistent snapshots and warm-start boot
//!
//! The paper's premise is that islandization is computed *at runtime*;
//! in a production serving deployment that cost would otherwise be paid
//! again on every process restart, even though the engine already
//! materialises the expensive artefact (the composed schedule-order
//! [`IslandLayout`]). This crate persists the complete engine image —
//! graph, partition, locator statistics, physical layout, and
//! optionally the prepared model + weights and a default feature matrix
//! — in a versioned, checksummed binary format, plus a write-ahead log
//! of [`GraphUpdate`]s, so a restarted node **warm-starts**: boot skips
//! the Island Locator pass and the layout composition entirely and runs
//! only checksum verification and a cheap structural invariant check.
//! The locator's output is state here, on disk as in memory: a log
//! record carries what its update's locator rounds produced, and a boot
//! replays it by checking and applying those rounds, never by searching
//! again.
//!
//! * [`Snapshot`] — capture / [`Snapshot::write`] / [`Snapshot::read`]
//!   one engine image (format details and the versioning policy live on
//!   the [`snapshot`] module).
//! * [`from_snapshot`] — the warm twin of `IGcnEngine::builder`:
//!   `from_snapshot(path).exec_config(cfg).build()?` boots a serving
//!   engine without re-islandizing.
//! * [`Wal`] — the update log; [`EngineStore`] manages a snapshot and
//!   its WAL as one durable store (WAL-first updates, crash-safe
//!   checkpoints, replay on boot).
//!
//! Both files are written with [`sections`], the byte format the
//! gateway's binary frames use too: u64 scalars and 8-byte-aligned
//! little-endian sections, written straight from the domain types and
//! guarded by [`sections::checksum64`] (XXH64), which sums a snapshot at
//! memory speed. No panics on corrupt bytes: every failure mode is a
//! typed [`StoreError`], and so is a checksum-valid log record whose
//! rounds do not fit the graph.
//!
//! # Example
//!
//! ```
//! use igcn_core::{Accelerator, ExecConfig, IGcnEngine};
//! use igcn_gnn::{GnnModel, ModelWeights};
//! use igcn_graph::generate::HubIslandConfig;
//! use igcn_store::{from_snapshot, Snapshot};
//!
//! // Cold build once (pays the islandization cost)...
//! let g = HubIslandConfig::new(200, 8).noise_fraction(0.0).generate(4);
//! let mut engine = IGcnEngine::builder(g.graph).build()?;
//! let model = GnnModel::gcn(16, 8, 3);
//! let weights = ModelWeights::glorot(&model, 2);
//! engine.prepare(&model, &weights)?;
//!
//! // ...snapshot it...
//! let path = std::env::temp_dir().join("igcn-store-doctest.snap");
//! Snapshot::capture(&engine).write(&path).expect("snapshot writes");
//!
//! // ...and every later boot is warm: no locator pass, model prepared.
//! let warm = from_snapshot(&path).exec_config(ExecConfig::default()).build().expect("warm boot");
//! assert_eq!(warm.graph().num_nodes(), engine.graph().num_nodes());
//! assert_eq!(warm.partition().num_islands(), engine.partition().num_islands());
//! # std::fs::remove_file(&path).ok();
//! # Ok::<(), igcn_core::CoreError>(())
//! ```
//!
//! [`IslandLayout`]: igcn_core::IslandLayout
//! [`GraphUpdate`]: igcn_core::GraphUpdate

pub mod error;
mod io;
pub mod sections;
pub mod snapshot;
pub mod store;
pub mod wal;

/// Every failpoint this crate's I/O and durability paths evaluate —
/// the chaos harness iterates this list to guarantee each registered
/// point gets injected at least once per campaign. Grammar and actions:
/// see the `igcn-fail` crate docs.
pub const FAILPOINTS: &[&str] = &[
    "store::io::write",
    "store::io::read",
    "store::io::rename",
    "store::snapshot::publish",
    "store::wal::append",
    "store::wal::reset",
    "store::checkpoint::rotated",
];

use std::path::PathBuf;

use igcn_core::{ExecConfig, IGcnEngine};

pub use error::StoreError;
pub use snapshot::{Snapshot, SnapshotHeader, SnapshotInfo, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
pub use store::{BootOutcome, EngineStore};
pub use wal::{Wal, WalRecord, WalReplay};

/// Starts a warm engine boot from the snapshot at `path` — the
/// persistent twin of `IGcnEngine::builder(graph)`: configure, then
/// [`SnapshotBuilder::build`].
pub fn from_snapshot(path: impl Into<PathBuf>) -> SnapshotBuilder {
    SnapshotBuilder { path: path.into(), exec_cfg: ExecConfig::default() }
}

/// Configures and executes a warm engine boot; created by
/// [`from_snapshot`].
#[derive(Debug, Clone)]
pub struct SnapshotBuilder {
    path: PathBuf,
    exec_cfg: ExecConfig,
}

impl SnapshotBuilder {
    /// Overrides the parallel-execution configuration of the booted
    /// engine (a pure runtime knob — it is not stored in snapshots).
    pub fn exec_config(mut self, cfg: ExecConfig) -> Self {
        self.exec_cfg = cfg;
        self
    }

    /// Reads, verifies and decodes the snapshot, builds the engine from
    /// the stored parts (**no islandization**), and prepares the stored
    /// model if present. A snapshot with its write-ahead log boots
    /// through [`EngineStore::boot`].
    ///
    /// # Errors
    ///
    /// The full [`StoreError`] taxonomy; see [`Snapshot::read`] and
    /// [`Snapshot::warm_engine`].
    pub fn build(self) -> Result<IGcnEngine, StoreError> {
        Snapshot::read(&self.path)?.warm_engine(self.exec_cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    use igcn_core::{
        Accelerator, ConsumerConfig, CoreError, GraphUpdate, InferenceRequest, Island,
        IslandizationConfig, LocatorRounds, ThresholdInit,
    };
    use igcn_gnn::{GnnModel, ModelWeights};
    use igcn_graph::generate::HubIslandConfig;
    use igcn_graph::SparseFeatures;

    const N: usize = 220;
    const DIM: usize = 12;

    static UNIQUE: AtomicU64 = AtomicU64::new(0);

    fn temp_path(tag: &str) -> PathBuf {
        let n = UNIQUE.fetch_add(1, Ordering::SeqCst);
        std::env::temp_dir().join(format!("igcn-store-test-{}-{tag}-{n}.snap", std::process::id()))
    }

    fn cold_engine(seed: u64) -> IGcnEngine {
        let g = HubIslandConfig::new(N, 9).noise_fraction(0.03).generate(seed);
        let mut engine = IGcnEngine::builder(g.graph).build().unwrap();
        let model = GnnModel::gcn(DIM, 8, 4);
        let weights = ModelWeights::glorot(&model, seed);
        engine.prepare(&model, &weights).unwrap();
        engine
    }

    fn request(seed: u64) -> InferenceRequest {
        InferenceRequest::new(SparseFeatures::random(N, DIM, 0.3, seed)).with_id(seed)
    }

    struct Cleanup(Vec<PathBuf>);
    impl Drop for Cleanup {
        fn drop(&mut self) {
            for p in &self.0 {
                std::fs::remove_file(p).ok();
            }
        }
    }

    #[test]
    fn snapshot_round_trip_preserves_everything() {
        let engine = cold_engine(1);
        let features = SparseFeatures::random(N, DIM, 0.2, 7);
        let path = temp_path("roundtrip");
        let _guard = Cleanup(vec![path.clone()]);
        let written =
            Snapshot::capture(&engine).with_features(features.clone()).write(&path).unwrap();
        assert!(written > 0);

        let back = Snapshot::read(&path).unwrap();
        assert_eq!(&*back.graph, &*engine.graph_arc());
        assert_eq!(&back.partition, engine.partition());
        assert_eq!(&back.locator_stats, engine.locator_stats());
        assert_eq!(&*back.layout, engine.layout());
        assert_eq!(back.island_cfg, engine.island_config());
        assert_eq!(back.consumer_cfg, engine.consumer_config());
        assert_eq!(back.features.as_ref(), Some(&features));
        let (model, weights) = back.model.as_ref().expect("model stored");
        let (m0, w0) = engine.prepared_model().expect("engine prepared");
        assert_eq!(model, m0);
        assert_eq!(weights, w0);
    }

    #[test]
    fn warm_boot_is_bit_identical_and_skips_islandization() {
        let engine = cold_engine(2);
        let path = temp_path("warm");
        let _guard = Cleanup(vec![path.clone()]);
        Snapshot::capture(&engine).write(&path).unwrap();

        let warm = from_snapshot(&path).build().unwrap();
        let req = request(40);
        let cold_resp = engine.infer(&req).unwrap();
        let warm_resp = warm.infer(&req).unwrap();
        assert_eq!(warm_resp.output, cold_resp.output);
        assert_eq!(warm_resp.report, cold_resp.report);
        // The warm engine carries the *stored* locator statistics — it
        // never ran a locator pass of its own.
        assert_eq!(warm.locator_stats(), engine.locator_stats());
    }

    #[test]
    fn inspect_reports_header_without_decoding() {
        let engine = cold_engine(3);
        let path = temp_path("inspect");
        let _guard = Cleanup(vec![path.clone()]);
        Snapshot::capture(&engine).write(&path).unwrap();
        let info = Snapshot::inspect(&path).unwrap();
        assert_eq!(info.version, SNAPSHOT_VERSION);
        assert!(info.checksum_ok);
        assert!(info.payload_bytes > 0);
    }

    #[test]
    fn corrupted_payload_fails_with_checksum_mismatch() {
        let engine = cold_engine(4);
        let path = temp_path("corrupt");
        let _guard = Cleanup(vec![path.clone()]);
        Snapshot::capture(&engine).write(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = snapshot::HEADER_BYTES + (bytes.len() - snapshot::HEADER_BYTES) / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(Snapshot::read(&path), Err(StoreError::ChecksumMismatch { .. })));
        assert!(matches!(from_snapshot(&path).build(), Err(StoreError::ChecksumMismatch { .. })));
        let info = Snapshot::inspect(&path).unwrap();
        assert!(!info.checksum_ok);
    }

    #[test]
    fn wrong_version_fails_typed() {
        let engine = cold_engine(5);
        let path = temp_path("version");
        let _guard = Cleanup(vec![path.clone()]);
        Snapshot::capture(&engine).write(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Version 2 is the FNV-1a layout, version 3 the one with two
        // bitmap sets and their members, version 4 the one with the
        // layout's own copy of the graph, version 5 the one with the
        // layout's renamed partition and `forward`; no shim reads any
        // of them.
        for version in [2u32, 3, 4, 5, 99] {
            bytes[4..8].copy_from_slice(&version.to_le_bytes());
            std::fs::write(&path, &bytes).unwrap();
            assert!(matches!(
                Snapshot::read(&path),
                Err(StoreError::UnsupportedVersion { found, supported: SNAPSHOT_VERSION })
                    if found == version
            ));
        }
    }

    #[test]
    fn not_a_snapshot_and_truncation_fail_typed() {
        let path = temp_path("magic");
        let _guard = Cleanup(vec![path.clone()]);
        std::fs::write(&path, b"definitely not a snapshot").unwrap();
        assert!(matches!(Snapshot::read(&path), Err(StoreError::BadMagic { .. })));

        let engine = cold_engine(6);
        Snapshot::capture(&engine).write(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(matches!(Snapshot::read(&path), Err(StoreError::Truncated { .. })));
        assert!(matches!(Snapshot::read(temp_path("missing")), Err(StoreError::Io { .. })));
    }

    #[test]
    fn wal_appends_replay_in_order_and_tolerate_torn_tail() {
        let path = temp_path("wal");
        let _guard = Cleanup(vec![path.clone()]);
        let wal = Wal::paired(&path, 42);
        let updates = [
            GraphUpdate::add_edges(vec![(1, 2), (3, 4)]),
            GraphUpdate::remove_edges(vec![(1, 2)]).with_num_nodes(500),
        ];
        for u in &updates {
            wal.append(u).unwrap();
        }
        let replay = wal.replay().unwrap();
        assert_eq!(replay.records.len(), 2);
        assert_eq!(replay.records[0].update, updates[0]);
        assert_eq!(replay.records[1].update, updates[1]);
        assert_eq!(replay.torn_tail_bytes, 0);
        assert!(!replay.stale_discarded);

        // Tear the final record: it must be dropped, earlier records
        // kept.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let replay = wal.replay().unwrap();
        assert_eq!(replay.records.len(), 1);
        assert!(replay.torn_tail_bytes > 0);

        // Corrupt the *first* record (complete, mid-file): typed error.
        // Offset 16 (file header) + 16 (record header) is the first
        // payload byte of record 0.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[32] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(wal.replay(), Err(StoreError::WalCorrupt { .. })));
    }

    #[test]
    fn a_wal_of_another_version_is_refused_and_reset_on_append() {
        let path = temp_path("wal-old");
        let _guard = Cleanup(vec![path.clone()]);
        // Logs of the two retired versions: magic, the version, the
        // pairing, one record.
        for version in [1u32, 2] {
            let mut old = wal::WAL_MAGIC.to_vec();
            old.extend_from_slice(&version.to_le_bytes());
            old.extend_from_slice(&42u64.to_le_bytes());
            old.extend_from_slice(&[0; 16]);
            std::fs::write(&path, &old).unwrap();
            let wal = Wal::paired(&path, 42);
            assert!(matches!(
                wal.replay(),
                Err(StoreError::UnsupportedVersion { found, supported: wal::WAL_VERSION })
                    if found == version
            ));
            // Appending resets it: only the new record replays.
            let update = GraphUpdate::add_edges(vec![(5, 6)]);
            wal.append(&update).unwrap();
            assert_eq!(logged(wal.replay().unwrap()), vec![update]);
        }
    }

    #[test]
    fn stale_wal_from_interrupted_checkpoint_is_discarded() {
        let path = temp_path("stale");
        let _guard = Cleanup(vec![path.clone()]);
        let old = Wal::paired(&path, 1);
        old.append(&GraphUpdate::add_edges(vec![(0, 1)])).unwrap();
        // A checkpoint wrote a new snapshot (checksum 2) but died
        // before resetting the log: the new pairing sees it as stale.
        let new = Wal::paired(&path, 2);
        let replay = new.replay().unwrap();
        assert!(replay.stale_discarded);
        assert!(replay.records.is_empty());
        // The next append under the new pairing heals the file.
        new.append(&GraphUpdate::add_edges(vec![(2, 3)])).unwrap();
        let replay = new.replay().unwrap();
        assert!(!replay.stale_discarded);
        assert_eq!(replay.records.len(), 1);
    }

    #[test]
    fn engine_store_full_cycle_boot_matches_live_engine() {
        let mut live = cold_engine(7);
        let path = temp_path("store");
        let store = EngineStore::at(&path);
        let _guard = Cleanup(vec![path.clone(), store.wal_path().to_path_buf()]);
        store.checkpoint(&live).unwrap();

        // Structural churn through the WAL-first path.
        let n = live.graph().num_nodes() as u32;
        let hub = live.partition().hubs()[0];
        store
            .apply_update(
                &mut live,
                GraphUpdate::add_edges(vec![(n, hub)]).with_num_nodes(n as usize + 1),
            )
            .unwrap();
        let other = live
            .graph()
            .neighbors(igcn_graph::NodeId::new(hub))
            .first()
            .copied()
            .expect("hubs have neighbors");
        store.apply_update(&mut live, GraphUpdate::remove_edges(vec![(hub, other)])).unwrap();

        // A rejected update must leave the log unchanged.
        let before = Wal::paired(store.wal_path(), 0).size_bytes();
        assert!(matches!(
            store.apply_update(&mut live, GraphUpdate::add_edges(vec![(0, 0)])),
            Err(StoreError::Core(CoreError::SelfLoops { .. }))
        ));
        assert_eq!(Wal::paired(store.wal_path(), 0).size_bytes(), before);

        // Boot = snapshot + WAL replay: bit-identical to the live
        // engine.
        let boot = store.boot(ExecConfig::default()).unwrap();
        assert!(boot.prepared);
        assert_eq!(boot.replayed_updates, 2);
        assert!(!boot.stale_wal_discarded);
        let req =
            InferenceRequest::new(SparseFeatures::random(live.graph().num_nodes(), DIM, 0.3, 9));
        let live_resp = live.infer(&req).unwrap();
        let boot_resp = boot.engine.infer(&req).unwrap();
        assert_eq!(boot_resp.output, live_resp.output);
        assert_eq!(boot_resp.report, live_resp.report);

        // Checkpoint folds the WAL into the snapshot and empties it.
        store.checkpoint(&live).unwrap();
        let boot = store.boot(ExecConfig::default()).unwrap();
        assert_eq!(boot.replayed_updates, 0);
        let boot_resp = boot.engine.infer(&req).unwrap();
        assert_eq!(boot_resp.output, live_resp.output);
    }

    /// Adds an edge between members of islands 0 and 1, and one between
    /// members of islands 2 and 3: four islands dissolve and re-form.
    fn joining_update(engine: &IGcnEngine) -> GraphUpdate {
        let member = |i: usize| engine.partition().islands()[i].nodes[0];
        GraphUpdate::add_edges(vec![(member(0), member(1)), (member(2), member(3))])
    }

    /// Applies `update` through [`IGcnEngine::apply_update_logged`] and
    /// returns the rounds it showed the log.
    fn rounds_of(engine: &mut IGcnEngine, update: GraphUpdate) -> LocatorRounds {
        let mut shown = None;
        engine
            .apply_update_logged(update, |_, rounds| {
                shown = Some(rounds.clone());
                Ok::<(), CoreError>(())
            })
            .unwrap();
        shown.expect("the log saw the rounds")
    }

    #[test]
    fn a_logged_record_replays_its_rounds_without_a_search() {
        let base = cold_engine(21);
        let path = temp_path("reordered");
        let store = EngineStore::at(&path);
        let _guard = Cleanup(vec![path.clone(), store.wal_path().to_path_buf()]);
        store.checkpoint(&base).unwrap();
        let mut live = base.clone();
        let update = joining_update(&live);
        let rounds = rounds_of(&mut live, update.clone());
        assert!(rounds.islands.len() >= 2, "the update re-forms several islands");

        // The same rounds with the islands, their members and their
        // hubs in other valid orders: a search would find the live
        // orders, the replay keeps these.
        let mut reordered = rounds.clone();
        reordered.islands.reverse();
        for island in &mut reordered.islands {
            island.nodes.reverse();
            island.hubs.reverse();
        }
        store.wal().unwrap().append_with_rounds(&update, &reordered).unwrap();
        let boot = store.boot(ExecConfig::default()).unwrap();
        let (graph, partition) = (boot.engine.graph(), boot.engine.partition());
        assert_eq!(graph, live.graph());
        partition.check_invariants(graph).unwrap();
        // The k-th island placed takes the slot the live update's k-th
        // one took; every other slot holds what the live one holds.
        let live_islands = live.partition().islands();
        let slots: Vec<usize> = rounds
            .islands
            .iter()
            .map(|isl| live_islands.iter().position(|x| x == isl).expect("a formed island"))
            .collect();
        assert_eq!(partition.num_islands(), live_islands.len());
        for (i, island) in partition.islands().iter().enumerate() {
            match slots.iter().position(|&slot| slot == i) {
                Some(k) => assert_eq!(island, &reordered.islands[k], "slot {i}"),
                None => assert_eq!(island, &live_islands[i], "slot {i}"),
            }
        }
        assert_ne!(partition, live.partition());
        assert_eq!(boot.engine.locator_stats(), live.locator_stats(), "the logged statistics");
        let num_pes = boot.engine.consumer_config().num_pes;
        assert!(*boot.engine.layout() == igcn_core::IslandLayout::new(graph, partition, num_pes));
        let req = request(21);
        let (got, want) = (boot.engine.infer(&req).unwrap(), live.infer(&req).unwrap());
        assert!(got.output.max_abs_diff(&want.output) < 1e-4);
    }

    #[test]
    fn a_record_without_rounds_replays_by_searching() {
        let mut live = cold_engine(22);
        let path = temp_path("bare");
        let store = EngineStore::at(&path);
        let _guard = Cleanup(vec![path.clone(), store.wal_path().to_path_buf()]);
        store.checkpoint(&live).unwrap();
        // A bare record, then one written by the store, then a bare one.
        let update = joining_update(&live);
        store.wal().unwrap().append(&update).unwrap();
        live.apply_update(update).unwrap();
        let hub = live.partition().hubs()[0];
        let n = live.graph().num_nodes();
        let grow = GraphUpdate::add_edges(vec![(n as u32, hub)]).with_num_nodes(n + 1);
        store.apply_update(&mut live, grow).unwrap();
        let update = joining_update(&live);
        store.wal().unwrap().append(&update).unwrap();
        live.apply_update(update).unwrap();

        let boot = store.boot(ExecConfig::default()).unwrap();
        assert_eq!(boot.replayed_updates, 3);
        assert_eq!(boot.engine.graph(), live.graph());
        assert_eq!(boot.engine.partition(), live.partition());
        assert_eq!(boot.engine.locator_stats(), live.locator_stats());
        assert!(boot.engine.layout() == live.layout());
        let req = InferenceRequest::new(SparseFeatures::random(n + 1, DIM, 0.3, 22));
        let (got, want) = (boot.engine.infer(&req).unwrap(), live.infer(&req).unwrap());
        assert_eq!(got.output, want.output);
        assert_eq!(got.report, want.report);
    }

    #[test]
    fn warm_engines_share_graph_and_layout_via_arc() {
        let engine = cold_engine(8);
        let path = temp_path("arc");
        let _guard = Cleanup(vec![path.clone()]);
        Snapshot::capture(&engine).write(&path).unwrap();
        let snapshot = Snapshot::read(&path).unwrap();
        let a = snapshot.warm_engine(ExecConfig::default()).unwrap();
        let b = snapshot.warm_engine(ExecConfig::default()).unwrap();
        assert!(Arc::ptr_eq(&a.graph_arc(), &b.graph_arc()), "warm engines share one graph");
        assert!(Arc::ptr_eq(&a.layout_arc(), &b.layout_arc()), "warm engines share one layout");
    }

    #[test]
    fn mismatched_model_weight_pair_is_rejected() {
        // Hand-corrupt the payload in a way the checksum cannot catch:
        // rewrite checksum too, and verify the *structural* validation
        // rejects a weights-without-model snapshot.
        let engine = cold_engine(9);
        let path = temp_path("pairing");
        let _guard = Cleanup(vec![path.clone()]);
        let mut snapshot = Snapshot::capture(&engine);
        snapshot.model = None; // capture took the model; drop it.
        snapshot.write(&path).unwrap();
        let back = Snapshot::read(&path).unwrap();
        assert!(back.model.is_none(), "model gone means weights gone too");
    }

    // The byte format under both files, end to end: what a read must
    // hand back bit for bit, and what it must refuse with a typed error.

    /// `payload` framed as a snapshot file whose header length and
    /// checksum match it, so only the payload decoder can refuse it.
    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut file = [&SNAPSHOT_MAGIC[..], &SNAPSHOT_VERSION.to_le_bytes()].concat();
        file.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        file.extend_from_slice(&sections::checksum64(payload).to_le_bytes());
        file.extend_from_slice(payload);
        file
    }

    /// The payload of the snapshot at `path`.
    fn payload_of(path: &Path) -> Vec<u8> {
        std::fs::read(path).unwrap()[snapshot::HEADER_BYTES..].to_vec()
    }

    /// A log paired with 42 holding one record of `payload`, its record
    /// header matching, so only the record decoder can refuse it.
    fn wal_with_record(payload: &[u8]) -> Vec<u8> {
        let mut file = wal::WAL_MAGIC.to_vec();
        file.extend_from_slice(&wal::WAL_VERSION.to_le_bytes());
        file.extend_from_slice(&42u64.to_le_bytes());
        file.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        file.extend_from_slice(&sections::checksum64(payload).to_le_bytes());
        file.extend_from_slice(payload);
        file
    }

    /// The payload of the one record of the log at `path`: what follows
    /// the 16-byte file header and the 16-byte record header.
    fn only_record(path: &Path) -> Vec<u8> {
        std::fs::read(path).unwrap()[32..].to_vec()
    }

    /// Byte offset, in a snapshot payload, of the graph's node count:
    /// after the six island and three consumer scalars.
    const NODE_COUNT_AT: usize = 9 * 8;

    fn assert_corrupt(result: Result<Snapshot, StoreError>, needle: &str) {
        match result {
            Err(StoreError::Corrupt { detail }) => {
                assert!(detail.contains(needle), "{detail:?} lacks {needle:?}")
            }
            other => panic!("expected Corrupt containing {needle:?}, got {other:?}"),
        }
    }

    /// The updates of a replayed log, in order.
    fn logged(replay: WalReplay) -> Vec<GraphUpdate> {
        replay.records.into_iter().map(|r| r.update).collect()
    }

    fn assert_wal_corrupt(result: Result<WalReplay, StoreError>, needle: &str) {
        match result {
            Err(StoreError::WalCorrupt { offset: 16, detail }) => {
                assert!(detail.contains(needle), "{detail:?} lacks {needle:?}")
            }
            other => panic!("expected WalCorrupt at 16 containing {needle:?}, got {other:?}"),
        }
    }

    #[test]
    fn primitives_round_trip() {
        // Every configuration scalar away from its default: an f64
        // fraction by its bits, an absolute threshold, the sizes and a
        // false flag.
        let path = temp_path("scalars");
        let _guard = Cleanup(vec![path.clone()]);
        for init in [ThresholdInit::MaxDegreeFraction(0.1 + 0.2), ThresholdInit::Absolute(7)] {
            let island_cfg = IslandizationConfig {
                max_rounds: 77,
                ..IslandizationConfig::default()
                    .with_threshold_init(init)
                    .with_c_max(13)
                    .with_engines(3)
                    .with_lanes(5)
            };
            let consumer_cfg =
                ConsumerConfig::default().with_k(3).with_pes(6).with_redundancy_removal(false);
            let g = HubIslandConfig::new(N, 9).generate(11);
            let engine = IGcnEngine::builder(g.graph)
                .island_config(island_cfg)
                .consumer_config(consumer_cfg)
                .build()
                .unwrap();
            Snapshot::capture(&engine).write(&path).unwrap();
            let back = Snapshot::read(&path).unwrap();
            assert_eq!(back.island_cfg, island_cfg);
            assert_eq!(back.consumer_cfg, consumer_cfg);
        }

        // The log's scalars: an endpoint at u32::MAX and a node count
        // past u32.
        let wal_path = temp_path("wal-scalars");
        let _wal_guard = Cleanup(vec![wal_path.clone()]);
        let wal = Wal::paired(&wal_path, 42);
        let update = GraphUpdate::add_edges(vec![(u32::MAX, 0)]).with_num_nodes(1 << 40);
        wal.append(&update).unwrap();
        assert_eq!(logged(wal.replay().unwrap()), vec![update]);
    }

    #[test]
    fn nan_bits_survive() {
        let engine = cold_engine(12);
        let path = temp_path("nan");
        let _guard = Cleanup(vec![path.clone()]);
        let values = vec![
            f32::NAN,
            f32::from_bits(0x7FC0_1234),
            f32::from_bits(0xFFA0_0001),
            -0.0,
            f32::INFINITY,
        ];
        let row_ptr = (0..=N).map(|r| r.min(values.len())).collect();
        let features =
            SparseFeatures::from_raw_parts(N, DIM, row_ptr, vec![0, 1, 2, 3, 4], values.clone())
                .unwrap();
        Snapshot::capture(&engine).with_features(features).write(&path).unwrap();
        let back = Snapshot::read(&path).unwrap().features.expect("features stored");
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(back.values()), bits(&values));
    }

    #[test]
    fn containers_round_trip() {
        // Both optional parts absent, then a feature matrix whose
        // sections are empty.
        let engine = cold_engine(13);
        let path = temp_path("containers");
        let _guard = Cleanup(vec![path.clone()]);
        let mut bare = Snapshot::capture(&engine);
        bare.model = None;
        bare.write(&path).unwrap();
        let back = Snapshot::read(&path).unwrap();
        assert!(back.model.is_none() && back.features.is_none());
        assert_eq!(&*back.layout, engine.layout());

        let empty = SparseFeatures::from_raw_parts(N, DIM, vec![0; N + 1], vec![], vec![]).unwrap();
        Snapshot::capture(&engine).with_features(empty.clone()).write(&path).unwrap();
        assert_eq!(Snapshot::read(&path).unwrap().features, Some(empty));

        // Log records with empty and non-empty edge lists, with and
        // without a node count.
        let wal_path = temp_path("wal-containers");
        let _wal_guard = Cleanup(vec![wal_path.clone()]);
        let wal = Wal::paired(&wal_path, 42);
        let updates = [
            GraphUpdate::add_edges(vec![]),
            GraphUpdate::remove_edges(vec![(4, 5), (6, 7)]),
            GraphUpdate::add_edges(vec![]).with_num_nodes(0),
        ];
        for u in &updates {
            wal.append(u).unwrap();
        }
        assert_eq!(logged(wal.replay().unwrap()), updates);

        // Rounds with nothing in them, then rounds with every list
        // filled: what a record carries is what replay hands back.
        let rounds = [
            LocatorRounds::default(),
            LocatorRounds {
                islands: vec![
                    Island { nodes: vec![3, 1, 2], hubs: vec![9, 0], round: 2, engine: 5 },
                    Island { nodes: vec![u32::MAX], hubs: vec![], round: 0, engine: 0 },
                ],
                hubs: vec![9, 0, 7],
                inter_hub_edges: vec![(0, 7), (7, 9)],
                stats: cold_engine(13).locator_stats().clone(),
            },
        ];
        let wal_path = temp_path("wal-rounds");
        let _wal_guard = Cleanup(vec![wal_path.clone()]);
        let wal = Wal::paired(&wal_path, 42);
        for r in &rounds {
            wal.append_with_rounds(&updates[1], r).unwrap();
        }
        wal.append(&updates[0]).unwrap();
        let back = wal.replay().unwrap().records;
        assert_eq!(back[0].rounds.as_ref(), Some(&rounds[0]));
        assert_eq!(back[1].rounds.as_ref(), Some(&rounds[1]));
        assert_eq!(back[2].rounds, None);
        assert_eq!(back[1].update, updates[1]);
        assert!(back.iter().all(|r| r.offset % 8 == 0), "records start on the 8-byte grid");
    }

    #[test]
    fn truncated_input_is_a_typed_error() {
        let engine = cold_engine(14);
        let path = temp_path("cut");
        let _guard = Cleanup(vec![path.clone()]);
        let features = SparseFeatures::random(N, DIM, 0.2, 3);
        Snapshot::capture(&engine).with_features(features).write(&path).unwrap();
        let payload = payload_of(&path);
        // About a hundred cuts spread over every part, and the last byte.
        let stride = payload.len() / 97 + 1;
        for cut in (0..payload.len()).step_by(stride).chain([payload.len() - 1]) {
            std::fs::write(&path, framed(&payload[..cut])).unwrap();
            match Snapshot::read(&path) {
                Err(StoreError::Corrupt { detail }) => assert!(
                    detail.contains("truncated") || detail.contains("cannot fit"),
                    "cut at {cut}: {detail}"
                ),
                other => panic!("cut at {cut} gave {other:?}"),
            }
        }

        // Every cut of a log record.
        let wal_path = temp_path("wal-cut");
        let _wal_guard = Cleanup(vec![wal_path.clone()]);
        let wal = Wal::paired(&wal_path, 42);
        wal.append(&GraphUpdate::add_edges(vec![(1, 2), (3, 4)]).with_num_nodes(9)).unwrap();
        let record = only_record(&wal_path);
        for cut in 0..record.len() {
            std::fs::write(&wal_path, wal_with_record(&record[..cut])).unwrap();
            match wal.replay() {
                Err(StoreError::WalCorrupt { offset: 16, detail }) => assert!(
                    detail.contains("truncated") || detail.contains("cannot fit"),
                    "cut at {cut}: {detail}"
                ),
                other => panic!("cut at {cut} gave {other:?}"),
            }
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let engine = cold_engine(15);
        let path = temp_path("trailing");
        let _guard = Cleanup(vec![path.clone()]);
        Snapshot::capture(&engine).write(&path).unwrap();
        let mut payload = payload_of(&path);
        payload.push(0);
        std::fs::write(&path, framed(&payload)).unwrap();
        assert_corrupt(Snapshot::read(&path), "snapshot payload has 1 trailing bytes");

        let wal_path = temp_path("wal-trailing");
        let _wal_guard = Cleanup(vec![wal_path.clone()]);
        let wal = Wal::paired(&wal_path, 42);
        wal.append(&GraphUpdate::add_edges(vec![(1, 2)])).unwrap();
        let mut record = only_record(&wal_path);
        record.extend_from_slice(&[0; 8]);
        std::fs::write(&wal_path, wal_with_record(&record)).unwrap();
        assert_wal_corrupt(wal.replay(), "record payload has 8 trailing bytes");
    }

    #[test]
    fn corrupt_length_prefix_cannot_demand_huge_allocation() {
        // A count of u64::MAX is refused against the bytes that are left,
        // before anything is reserved for it.
        let engine = cold_engine(16);
        let path = temp_path("huge");
        let _guard = Cleanup(vec![path.clone()]);
        Snapshot::capture(&engine).write(&path).unwrap();
        let mut payload = payload_of(&path);
        payload[NODE_COUNT_AT..NODE_COUNT_AT + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        std::fs::write(&path, framed(&payload)).unwrap();
        assert_corrupt(
            Snapshot::read(&path),
            &format!("node count of {} cannot fit the snapshot's remaining", u64::MAX),
        );

        let wal_path = temp_path("wal-huge");
        let _wal_guard = Cleanup(vec![wal_path.clone()]);
        let wal = Wal::paired(&wal_path, 42);
        wal.append(&GraphUpdate::add_edges(vec![(1, 2)])).unwrap();
        let mut record = only_record(&wal_path);
        record[..8].copy_from_slice(&u64::MAX.to_le_bytes());
        std::fs::write(&wal_path, wal_with_record(&record)).unwrap();
        assert_wal_corrupt(
            wal.replay(),
            &format!("added edge count of {} cannot fit the record's remaining", u64::MAX),
        );
    }

    #[test]
    fn bad_tags_are_invalid() {
        let engine = cold_engine(17);
        let path = temp_path("tags");
        let _guard = Cleanup(vec![path.clone()]);
        Snapshot::capture(&engine).write(&path).unwrap();
        let payload = payload_of(&path);
        // The threshold-init tag is the first scalar, the
        // redundancy-removal flag the ninth.
        for (at, needle) in [
            (0, "unknown threshold-init tag 2"),
            (8 * 8, "redundancy-removal flag 2 is neither 0 nor 1"),
        ] {
            let mut forged = payload.clone();
            forged[at..at + 8].copy_from_slice(&2u64.to_le_bytes());
            std::fs::write(&path, framed(&forged)).unwrap();
            assert_corrupt(Snapshot::read(&path), needle);
        }

        // The record's node-count flag is its third scalar.
        let wal_path = temp_path("wal-tags");
        let _wal_guard = Cleanup(vec![wal_path.clone()]);
        let wal = Wal::paired(&wal_path, 42);
        wal.append(&GraphUpdate::add_edges(vec![(1, 2)])).unwrap();
        let mut record = only_record(&wal_path);
        record[16..24].copy_from_slice(&2u64.to_le_bytes());
        std::fs::write(&wal_path, wal_with_record(&record)).unwrap();
        assert_wal_corrupt(wal.replay(), "node-count flag 2 with count 0");
        // The rounds flag follows the one added edge.
        let mut record = only_record(&wal_path);
        record[16..24].copy_from_slice(&0u64.to_le_bytes());
        record[40..48].copy_from_slice(&2u64.to_le_bytes());
        std::fs::write(&wal_path, wal_with_record(&record)).unwrap();
        assert_wal_corrupt(wal.replay(), "rounds flag 2 is neither 0 nor 1");
    }

    #[test]
    fn invalid_utf8_is_invalid() {
        // Neither file stores text; the format's strings are the
        // gateway's, read through the same cursor.
        let mut bytes = Vec::new();
        sections::put_u64(&mut bytes, 2);
        bytes.extend_from_slice(&[0xFF, 0xFE]);
        sections::put_u64(&mut bytes, "hé".len() as u64);
        bytes.extend_from_slice("hé".as_bytes());
        let mut r = sections::Reader::new(&bytes, "frame", 0);
        assert_eq!(r.string("name length", "name").unwrap_err(), "name is not UTF-8");
        // The refused bytes are consumed; the next string reads whole.
        assert_eq!(r.string("name length", "name").unwrap(), "hé");
        assert_eq!(r.remaining(), 0);
    }
}
