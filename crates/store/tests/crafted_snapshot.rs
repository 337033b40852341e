//! Snapshots whose bytes were crafted, not corrupted: the checksum is
//! right, so what rejects them is the structural validation of the
//! decode path.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

use igcn_core::{
    Accelerator, ConsumerConfig, CoreError, ExecConfig, IGcnEngine, InferenceRequest,
    IslandizationConfig,
};
use igcn_gnn::{GnnModel, ModelWeights};
use igcn_graph::generate::HubIslandConfig;
use igcn_graph::{GraphError, NodeId, SparseFeatures};
use igcn_store::sections::checksum64;
use igcn_store::snapshot::HEADER_BYTES;
use igcn_store::{Snapshot, StoreError};

/// The bytes of a u32 section: one little-endian u32 per entry (its
/// count is stored elsewhere).
fn section_u32s<'a>(values: impl IntoIterator<Item = &'a u32>) -> Vec<u8> {
    values.into_iter().flat_map(|v| v.to_le_bytes()).collect()
}

/// Stamps the checksum of the payload as it now stands into the header.
fn restamp(bytes: &mut [u8]) {
    let checksum = checksum64(&bytes[HEADER_BYTES..]);
    bytes[HEADER_BYTES - 8..HEADER_BYTES].copy_from_slice(&checksum.to_le_bytes());
}

#[test]
fn repeated_neighbor_in_a_stored_row_is_a_typed_error() {
    let graph = HubIslandConfig::new(220, 9).noise_fraction(0.03).generate(4).graph;
    let engine = IGcnEngine::builder(graph.clone()).build().unwrap();
    let path = std::env::temp_dir().join(format!("igcn-crafted-{}.snap", std::process::id()));
    Snapshot::capture(&engine).write(&path).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();

    // The serving graph's column section, the first in the file.
    let cols = graph.col_idx();
    let needle = section_u32s(cols);
    let at = bytes.windows(needle.len()).position(|w| w == needle).expect("stored column array");
    // Name the first neighbor of a row twice.
    let row = graph.iter_nodes().find(|&v| graph.degree(v) >= 2).unwrap();
    let first = graph.row_ptr()[row.index()];
    let entry = at + 4 * (first + 1);
    bytes[entry..entry + 4].copy_from_slice(&cols[first].to_le_bytes());
    restamp(&mut bytes);
    std::fs::write(&path, &bytes).unwrap();

    let read = Snapshot::read(&path);
    let _ = std::fs::remove_file(&path);
    match read {
        Err(StoreError::Graph(GraphError::DuplicateEdge { from, to })) => {
            assert_eq!((NodeId::new(from), to), (row, cols[first]));
        }
        Err(other) => panic!("expected a duplicate-edge graph error, got {other}"),
        Ok(_) => panic!("a graph with a double edge was accepted"),
    }
}

/// Writes `snapshot` through the store's own encoder (the snapshot's
/// fields are public) and expects decode to refuse it with an invalid
/// configuration whose field starts with `prefix`.
fn assert_read_refuses(snapshot: Snapshot, prefix: &str, what: &str) {
    let path =
        std::env::temp_dir().join(format!("igcn-crafted-{what}-{}.snap", std::process::id()));
    snapshot.write(&path).unwrap();
    let read = Snapshot::read(&path);
    let _ = std::fs::remove_file(&path);
    match read {
        Err(StoreError::Corrupt { detail }) => {
            assert!(
                detail.contains(&format!("invalid configuration: {prefix}")),
                "{what}: {detail}"
            );
        }
        Err(other) => panic!("{what}: expected a corrupt-snapshot error, got {other}"),
        Ok(_) => panic!("{what}: a snapshot with an unrunnable config was accepted"),
    }
}

#[test]
fn a_stored_consumer_config_the_engine_cannot_run_is_a_typed_error() {
    // Decode refuses it, so no engine is booted that would divide by
    // `k = 0`, overrun the 64-bit window or index PE `0 - 1` on its
    // first request.
    let graph = HubIslandConfig::new(220, 9).noise_fraction(0.03).generate(5).graph;
    let engine = IGcnEngine::builder(graph).build().unwrap();
    let good = Snapshot::capture(&engine);
    let default = good.consumer_cfg;
    for (i, cfg) in [
        ConsumerConfig { k: 0, ..default },
        ConsumerConfig { k: 65, ..default },
        ConsumerConfig { num_pes: 0, ..default },
    ]
    .into_iter()
    .enumerate()
    {
        let snapshot = Snapshot { consumer_cfg: cfg, ..good.clone() };
        assert_read_refuses(snapshot, "consumer.", &format!("cfg{i}"));
    }
}

#[test]
fn a_stored_island_config_the_engine_cannot_run_is_a_typed_error() {
    // Such an engine would boot, then divide by zero lanes or trip the
    // TP-BFS engine-count assertion on its first `apply_update`.
    let graph = HubIslandConfig::new(220, 9).noise_fraction(0.03).generate(6).graph;
    let engine = IGcnEngine::builder(graph).build().unwrap();
    let good = Snapshot::capture(&engine);
    let default = good.island_cfg;
    for (i, cfg) in [
        IslandizationConfig { c_max: 0, ..default },
        IslandizationConfig { p1_lanes: 0, ..default },
        IslandizationConfig { p2_engines: 0, ..default },
    ]
    .into_iter()
    .enumerate()
    {
        let snapshot = Snapshot { island_cfg: cfg, ..good.clone() };
        assert_read_refuses(snapshot, "island.", &format!("island{i}"));
    }
}

/// Reads `bytes` back as a snapshot through a file of its own.
fn read_crafted(bytes: &[u8], what: &str) -> Result<Snapshot, StoreError> {
    let path =
        std::env::temp_dir().join(format!("igcn-crafted-{what}-{}.snap", std::process::id()));
    std::fs::write(&path, bytes).unwrap();
    let read = Snapshot::read(&path);
    let _ = std::fs::remove_file(&path);
    read
}

#[test]
fn a_layout_island_that_disagrees_with_its_bitmaps_is_a_typed_error() {
    // Accepted, such a layout would boot and then index past the hub
    // slab on its first request. (A bitmap's size and hub rows follow
    // from its island; the file stores its bits alone.)
    let graph = HubIslandConfig::new(220, 9).noise_fraction(0.03).generate(8).graph;
    let engine = IGcnEngine::builder(graph).build().unwrap();
    let layout = engine.layout();
    let num_hubs = layout.num_hubs() as u32;
    let good = {
        let path =
            std::env::temp_dir().join(format!("igcn-crafted-src-{}.snap", std::process::id()));
        Snapshot::capture(&engine).write(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        bytes
    };
    let islands = layout.partition().islands();

    // An island hub at H or above. The layout partition (layout IDs)
    // follows the original-ID one, and stores every island's hubs in one
    // flat section.
    let idx = islands.iter().position(|i| !i.hubs.is_empty()).expect("an island contacts a hub");
    let needle = section_u32s(islands.iter().flat_map(|i| &i.hubs));
    let at = good.windows(needle.len()).rposition(|w| w == needle).expect("stored layout hubs");
    let hub0 = at + 4 * islands[..idx].iter().map(|i| i.hubs.len()).sum::<usize>();
    let mut bytes = good;
    bytes[hub0..hub0 + 4].copy_from_slice(&num_hubs.to_le_bytes());
    restamp(&mut bytes);
    match read_crafted(&bytes, "island-hub") {
        Err(StoreError::Core(CoreError::ClassificationViolation { node, detail })) => {
            assert_eq!(node, num_hubs, "{detail}");
        }
        Err(other) => panic!("expected a classification violation, got {other}"),
        Ok(_) => panic!("a layout island contacting a non-hub was accepted"),
    }
}

#[test]
fn mutated_snapshots_boot_and_answer_or_fail_typed_never_panic() {
    // 1 000 seeded mutations of one to three payload bytes, each under
    // a restamped checksum, so every one reaches the decoder: read →
    // warm boot → first request must end in `Ok` or a typed `Err`.
    const DIM: usize = 8;
    let graph = HubIslandConfig::new(120, 6).noise_fraction(0.03).generate(11).graph;
    let mut engine = IGcnEngine::builder(graph).build().unwrap();
    let model = GnnModel::gcn(DIM, 6, 3);
    engine.prepare(&model, &ModelWeights::glorot(&model, 12)).unwrap();
    let path = std::env::temp_dir().join(format!("igcn-crafted-sweep-{}.snap", std::process::id()));
    Snapshot::capture(&engine).write(&path).unwrap();
    let good = std::fs::read(&path).unwrap();

    let boot_and_infer = |path: &Path| -> Result<(), Box<dyn std::error::Error>> {
        let booted = Snapshot::read(path)?.warm_engine(ExecConfig::default())?;
        let n = booted.graph().num_nodes();
        booted.infer(&InferenceRequest::new(SparseFeatures::random(n, DIM, 0.3, 13)))?;
        Ok(())
    };
    // SplitMix64: a seeded stream without a dependency.
    let mut state = 0x5eed_u64;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let payload = good.len() - HEADER_BYTES;
    for case in 0..1_000 {
        let mut bytes = good.clone();
        for _ in 0..1 + next() % 3 {
            let at = HEADER_BYTES + (next() % payload as u64) as usize;
            bytes[at] = next() as u8;
        }
        restamp(&mut bytes);
        std::fs::write(&path, &bytes).unwrap();
        let outcome = catch_unwind(AssertUnwindSafe(|| boot_and_infer(&path)));
        assert!(outcome.is_ok(), "mutation {case} panicked");
    }
    let _ = std::fs::remove_file(&path);
}
