//! Failpoint-driven crash tests for the snapshot store.
//!
//! These tests live in their own integration binary because arming a
//! failpoint is process-global: an `always`-triggered fault on
//! `store::wal::append` would fire for *every* WAL in the process, so
//! the harness must not share a process with the ordinary unit tests.
//! Inside this binary every test holds [`igcn_fail::FailGuard`], which
//! serializes the tests and tears all points down on drop (even on
//! panic).
//!
//! The invariant under test is the store's crash contract: **no
//! acknowledged update is ever lost**. An update is acknowledged once
//! `EngineStore::apply_update` returns `Ok`; whatever fault fires
//! afterwards — a torn checkpoint publish, a crash between rotation and
//! publish, a WAL reset that never happens — `EngineStore::boot` must
//! reconstruct a bit-identical engine (same outputs, same `ExecStats`).

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use igcn_core::{Accelerator, ExecConfig, GraphUpdate, IGcnEngine, InferenceRequest};
use igcn_fail::FailGuard;
use igcn_gnn::{GnnModel, ModelWeights};
use igcn_graph::generate::HubIslandConfig;
use igcn_graph::SparseFeatures;
use igcn_store::{EngineStore, Snapshot, StoreError, Wal};

const N: usize = 220;
const DIM: usize = 12;

static UNIQUE: AtomicU64 = AtomicU64::new(0);

fn temp_path(tag: &str) -> PathBuf {
    let n = UNIQUE.fetch_add(1, Ordering::SeqCst);
    std::env::temp_dir().join(format!("igcn-failpoint-test-{}-{tag}-{n}.snap", std::process::id()))
}

fn cold_engine(seed: u64) -> IGcnEngine {
    let g = HubIslandConfig::new(N, 9).noise_fraction(0.03).generate(seed);
    let mut engine = IGcnEngine::builder(g.graph).build().unwrap();
    let model = GnnModel::gcn(DIM, 8, 4);
    let weights = ModelWeights::glorot(&model, seed);
    engine.prepare(&model, &weights).unwrap();
    engine
}

/// Applies (and acknowledges) one structural update through the
/// WAL-first path: a fresh node wired to the first hub.
fn churn(store: &EngineStore, engine: &mut IGcnEngine) {
    let n = engine.graph().num_nodes() as u32;
    let hub = engine.partition().hubs()[0];
    store
        .apply_update(engine, GraphUpdate::add_edges(vec![(n, hub)]).with_num_nodes(n as usize + 1))
        .unwrap();
}

fn assert_bit_identical(a: &IGcnEngine, b: &IGcnEngine, seed: u64) {
    assert_eq!(a.graph().num_nodes(), b.graph().num_nodes());
    let req = InferenceRequest::new(SparseFeatures::random(a.graph().num_nodes(), DIM, 0.3, seed));
    let ra = a.infer(&req).unwrap();
    let rb = b.infer(&req).unwrap();
    assert_eq!(ra.output, rb.output, "recovered engine output must be bit-identical");
    assert_eq!(ra.report, rb.report, "recovered engine ExecStats must be identical");
}

struct Cleanup(Vec<PathBuf>);
impl Drop for Cleanup {
    fn drop(&mut self) {
        for p in &self.0 {
            std::fs::remove_file(p).ok();
        }
    }
}

fn store_files(store: &EngineStore) -> Vec<PathBuf> {
    vec![
        store.snapshot_path().to_path_buf(),
        store.snapshot_path().with_extension("tmp"), // orphaned by publish faults
        store.wal_path().to_path_buf(),
        store.previous_snapshot_path(),
        store.quarantine_path(),
    ]
}

/// Satellite: tear `Wal::append` at **every byte offset** of a record
/// and assert replay yields exactly the prefix — no partial-record
/// application, no replay error, torn bytes reported.
#[test]
fn wal_append_torn_at_every_byte_offset_replays_exact_prefix() {
    let guard = FailGuard::setup();
    let first = GraphUpdate::add_edges(vec![(1, 2), (3, 4)]);
    let second = GraphUpdate::remove_edges(vec![(1, 2)]).with_num_nodes(500);

    // Measure the on-disk size of the second record by appending it
    // cleanly once.
    let measure = temp_path("tear-measure");
    let _m = Cleanup(vec![measure.clone()]);
    let wal = Wal::paired(&measure, 7);
    wal.append(&first).unwrap();
    let prefix_bytes = wal.size_bytes();
    wal.append(&second).unwrap();
    let record_len = (wal.size_bytes() - prefix_bytes) as usize;
    assert!(record_len > 12, "record must exceed its 12-byte header");

    let mut cleanup = Cleanup(Vec::with_capacity(record_len));
    for k in 0..record_len {
        let path = temp_path("tear");
        cleanup.0.push(path.clone());
        let wal = Wal::paired(&path, 7);
        wal.append(&first).unwrap();

        guard.cfg("store::wal::append", &format!("truncate({k})")).unwrap();
        let torn = wal.append(&second);
        guard.remove("store::wal::append");
        assert!(torn.is_err(), "torn append at offset {k} must report failure");

        let replay = wal.replay().unwrap_or_else(|e| panic!("replay after {k}-byte tear: {e}"));
        assert_eq!(replay.records.len(), 1, "tear at offset {k}");
        assert_eq!(replay.records[0].update, first, "tear at offset {k}");
        assert_eq!(replay.torn_tail_bytes as usize, k, "tear at offset {k}");
        assert!(!replay.stale_discarded);
    }
}

/// Tentpole: a checkpoint whose publish writes a torn frame over the
/// live snapshot. Boot must quarantine the torn image, fall back to the
/// previous generation, and replay the still-paired WAL — every
/// acknowledged update survives.
#[test]
fn torn_publish_is_quarantined_and_boot_recovers_previous_generation() {
    let guard = FailGuard::setup();
    for torn_bytes in [0usize, 2, 23, 40] {
        let mut live = cold_engine(11);
        let path = temp_path("torn-publish");
        let store = EngineStore::at(&path);
        let _c = Cleanup(store_files(&store));
        store.checkpoint(&live).unwrap();
        churn(&store, &mut live);
        churn(&store, &mut live);

        guard.cfg("store::snapshot::publish", &format!("truncate({torn_bytes})")).unwrap();
        let err = store.checkpoint(&live);
        guard.remove("store::snapshot::publish");
        assert!(err.is_err(), "torn publish ({torn_bytes} bytes) must surface an error");

        let boot = store.boot(ExecConfig::default()).unwrap_or_else(|e| {
            panic!("boot after {torn_bytes}-byte torn publish must recover: {e}")
        });
        assert!(boot.recovered_from_previous, "torn publish ({torn_bytes} bytes)");
        assert_eq!(boot.quarantined_snapshot, Some(store.quarantine_path()));
        assert!(store.quarantine_path().exists(), "torn image kept for post-mortem");
        assert_eq!(boot.replayed_updates, 2, "both acknowledged updates replayed");
        assert_bit_identical(&live, &boot.engine, 31);
    }
}

/// Tentpole: a checkpoint that dies *between* rotating the old snapshot
/// aside and publishing the new one. The current image is missing
/// outright; boot must fall back without a quarantine.
#[test]
fn crash_between_rotation_and_publish_recovers_without_quarantine() {
    let guard = FailGuard::setup();
    let mut live = cold_engine(12);
    let path = temp_path("rotated-crash");
    let store = EngineStore::at(&path);
    let _c = Cleanup(store_files(&store));
    store.checkpoint(&live).unwrap();
    churn(&store, &mut live);

    guard.cfg("store::checkpoint::rotated", "return").unwrap();
    assert!(store.checkpoint(&live).is_err());
    guard.remove("store::checkpoint::rotated");
    assert!(!store.snapshot_path().exists(), "crash window leaves no current snapshot");

    let boot = store.boot(ExecConfig::default()).unwrap();
    assert!(boot.recovered_from_previous);
    assert_eq!(boot.quarantined_snapshot, None, "nothing to quarantine: the image was rotated");
    assert_eq!(boot.replayed_updates, 1);
    assert_bit_identical(&live, &boot.engine, 32);

    // The store heals on the next successful checkpoint.
    store.checkpoint(&live).unwrap();
    let boot = store.boot(ExecConfig::default()).unwrap();
    assert!(!boot.recovered_from_previous);
    assert_eq!(boot.replayed_updates, 0);
    assert_bit_identical(&live, &boot.engine, 33);
}

/// Tentpole: a checkpoint that publishes the new snapshot but dies
/// before resetting the WAL. The log is stale-paired (it names the old
/// checksum) and must be discarded — its updates are already folded
/// into the published snapshot, so replaying them would double-apply.
#[test]
fn crash_before_wal_reset_discards_stale_log_without_double_apply() {
    let guard = FailGuard::setup();
    let mut live = cold_engine(13);
    let path = temp_path("stale-wal");
    let store = EngineStore::at(&path);
    let _c = Cleanup(store_files(&store));
    store.checkpoint(&live).unwrap();
    churn(&store, &mut live);

    guard.cfg("store::wal::reset", "return").unwrap();
    assert!(store.checkpoint(&live).is_err());
    guard.remove("store::wal::reset");

    let boot = store.boot(ExecConfig::default()).unwrap();
    assert!(!boot.recovered_from_previous, "the published snapshot is intact");
    assert!(boot.stale_wal_discarded, "old-generation WAL must be ignored");
    assert_eq!(boot.replayed_updates, 0);
    assert_bit_identical(&live, &boot.engine, 34);
}

/// Boot pairs the WAL with the checksum of the snapshot bytes it
/// decoded, so it opens each generation it loads exactly once: a second
/// open (for the header) would pair the log with whatever file holds the
/// name by then. Counted on the read seam, which every store-file open
/// passes — armed here with a trigger that never fires.
#[test]
fn boot_opens_each_snapshot_generation_once() {
    let guard = FailGuard::setup();
    let mut live = cold_engine(15);
    let path = temp_path("one-open");
    let store = EngineStore::at(&path);
    let _c = Cleanup(store_files(&store));
    store.checkpoint(&live).unwrap();
    churn(&store, &mut live);
    store.checkpoint(&live).unwrap();
    churn(&store, &mut live);

    guard.cfg("store::io::read", "nth(1000000):return").unwrap();
    let boot = store.boot(ExecConfig::default()).unwrap();
    assert_eq!(igcn_fail::hits("store::io::read"), 2, "clean boot: one snapshot, one log");
    assert_eq!(boot.replayed_updates, 1);
    assert_bit_identical(&live, &boot.engine, 36);

    // Fallback: the torn current image and the previous generation are
    // each opened once, then the log.
    std::fs::write(store.snapshot_path(), b"IGCS torn").unwrap();
    guard.cfg("store::io::read", "nth(1000000):return").unwrap();
    let boot = store.boot(ExecConfig::default()).unwrap();
    assert!(boot.recovered_from_previous);
    assert_eq!(igcn_fail::hits("store::io::read"), 3, "fallback boot: two snapshots, one log");
}

/// An environmental read failure (EIO, permissions…) is *not*
/// corruption: boot must surface the error and leave the snapshot
/// untouched rather than quarantine a possibly-fine file.
#[test]
fn transient_read_error_propagates_without_quarantine() {
    let guard = FailGuard::setup();
    let live = cold_engine(14);
    let path = temp_path("transient");
    let store = EngineStore::at(&path);
    let _c = Cleanup(store_files(&store));
    store.checkpoint(&live).unwrap();

    guard.cfg("store::io::read", "return").unwrap();
    let err = store.boot(ExecConfig::default());
    guard.remove("store::io::read");
    assert!(matches!(err, Err(StoreError::Io { .. })), "got {err:?}");
    assert!(store.snapshot_path().exists(), "primary image must not be touched");
    assert!(!store.quarantine_path().exists());

    // Once the fault clears, the same store boots cleanly.
    let boot = store.boot(ExecConfig::default()).unwrap();
    assert!(!boot.recovered_from_previous);
    assert_bit_identical(&live, &boot.engine, 35);
}

/// Terminal case: both generations corrupt. Boot must fail with the
/// typed `NoUsableSnapshot` and still quarantine the current image.
#[test]
fn both_generations_corrupt_fails_typed_with_quarantine() {
    let _guard = FailGuard::setup();
    let mut live = cold_engine(15);
    let path = temp_path("no-usable");
    let store = EngineStore::at(&path);
    let _c = Cleanup(store_files(&store));
    store.checkpoint(&live).unwrap();
    churn(&store, &mut live);
    store.checkpoint(&live).unwrap(); // current + .prev now both exist

    std::fs::write(store.snapshot_path(), b"garbage current").unwrap();
    std::fs::write(store.previous_snapshot_path(), b"garbage previous").unwrap();
    let err = store.boot(ExecConfig::default());
    match err {
        Err(StoreError::NoUsableSnapshot { quarantined, detail }) => {
            assert_eq!(quarantined, Some(store.quarantine_path()));
            assert!(store.quarantine_path().exists());
            assert!(detail.contains("previous generation"), "detail: {detail}");
        }
        other => panic!("expected NoUsableSnapshot, got {other:?}"),
    }
}

/// Write faults during the temp-file stage never touch the live
/// snapshot: the published image and the WAL pairing stay valid.
#[test]
fn temp_write_fault_leaves_published_snapshot_bootable() {
    let guard = FailGuard::setup();
    let mut live = cold_engine(16);
    let path = temp_path("tmp-write");
    let store = EngineStore::at(&path);
    let _c = Cleanup(store_files(&store));
    store.checkpoint(&live).unwrap();
    churn(&store, &mut live);

    for spec in ["return", "truncate(10)"] {
        guard.cfg("store::io::write", spec).unwrap();
        assert!(store.checkpoint(&live).is_err(), "spec {spec}");
        guard.remove("store::io::write");

        let boot = store.boot(ExecConfig::default()).unwrap();
        assert!(boot.recovered_from_previous, "rotation ran, publish never did (spec {spec})");
        assert_eq!(boot.replayed_updates, 1, "spec {spec}");
        assert_bit_identical(&live, &boot.engine, 36);

        // Heal for the next iteration.
        store.checkpoint(&live).unwrap();
        churn(&store, &mut live);
    }
}

/// Every store failpoint is registered under the name the crate
/// advertises — the chaos harness iterates `igcn_store::FAILPOINTS`
/// and a typo'd name would silently inject nothing.
#[test]
fn advertised_failpoints_actually_fire() {
    let guard = FailGuard::setup();
    let mut live = cold_engine(17);
    let path = temp_path("advertised");
    let store = EngineStore::at(&path);
    let _c = Cleanup(store_files(&store));

    for &point in igcn_store::FAILPOINTS {
        guard.cfg(point, "return").unwrap();
    }
    // One checkpoint + boot + update exercise every registered point at
    // least once (rotation fires first and short-circuits the rest of
    // save, so probe them through the operations that reach them).
    assert!(store.checkpoint(&live).is_err()); // store::checkpoint::rotated
    for &point in igcn_store::FAILPOINTS {
        guard.remove(point);
    }
    store.checkpoint(&live).unwrap();

    type Probe = dyn Fn(&EngineStore, &mut IGcnEngine) -> bool;
    let probes: &[(&str, &Probe)] = &[
        ("store::io::read", &|s, _| s.boot(ExecConfig::default()).is_err()),
        ("store::io::write", &|s, e| s.checkpoint(e).is_err()),
        ("store::io::rename", &|s, e| s.checkpoint(e).is_err()),
        ("store::snapshot::publish", &|s, e| s.checkpoint(e).is_err()),
        ("store::wal::reset", &|s, e| s.checkpoint(e).is_err()),
        ("store::wal::append", &|s, e| {
            let n = e.graph().num_nodes() as u32;
            let hub = e.partition().hubs()[0];
            s.apply_update(e, GraphUpdate::add_edges(vec![(n, hub)]).with_num_nodes(n as usize + 1))
                .is_err()
        }),
    ];
    for (point, probe) in probes {
        guard.cfg(*point, "return").unwrap();
        let before = igcn_fail::fired(point);
        assert!(probe(&store, &mut live), "probe for {point} must fail while armed");
        assert!(igcn_fail::fired(point) > before, "{point} never fired");
        guard.remove(point);
        // Heal any partial state the probe left behind.
        store.checkpoint(&live).unwrap();
    }
    let boot = store.boot(ExecConfig::default()).unwrap();
    assert_bit_identical(&live, &boot.engine, 37);
}

/// `Snapshot::write` stays atomic under a rename fault: the temp file
/// is the casualty, never the published image.
#[test]
fn rename_fault_preserves_existing_snapshot() {
    let guard = FailGuard::setup();
    let live = cold_engine(18);
    let path = temp_path("rename-fault");
    let _c = Cleanup(vec![path.clone()]);
    Snapshot::capture(&live).write(&path).unwrap();
    let before = std::fs::read(&path).unwrap();

    guard.cfg("store::io::rename", "return").unwrap();
    assert!(Snapshot::capture(&live).write(&path).is_err());
    guard.remove("store::io::rename");

    assert_eq!(std::fs::read(&path).unwrap(), before, "published bytes untouched");
    Snapshot::read(&path).unwrap();
}

/// The log write sits between the engine's structural step and its
/// commit: an append that fails leaves the engine as it was, and the
/// update applies cleanly once the fault is gone.
#[test]
fn failed_append_leaves_the_engine_uncommitted() {
    let guard = FailGuard::setup();
    let mut live = cold_engine(19);
    let path = temp_path("append-fault");
    let store = EngineStore::at(&path);
    let _c = Cleanup(store_files(&store));
    store.checkpoint(&live).unwrap();
    churn(&store, &mut live);
    let before = live.clone();
    let log_bytes = Wal::paired(store.wal_path(), 0).size_bytes();

    guard.cfg("store::wal::append", "return").unwrap();
    let n = live.graph().num_nodes() as u32;
    let hub = live.partition().hubs()[0];
    let update = GraphUpdate::add_edges(vec![(n, hub)]).with_num_nodes(n as usize + 1);
    assert!(matches!(store.apply_update(&mut live, update.clone()), Err(StoreError::Io { .. })));
    guard.remove("store::wal::append");
    assert_eq!(live.graph(), before.graph());
    assert_eq!(live.partition(), before.partition());
    assert!(live.layout() == before.layout());
    assert_eq!(Wal::paired(store.wal_path(), 0).size_bytes(), log_bytes);

    store.apply_update(&mut live, update).unwrap();
    let boot = store.boot(ExecConfig::default()).unwrap();
    assert_eq!(boot.replayed_updates, 2);
    assert_bit_identical(&live, &boot.engine, 38);
}
