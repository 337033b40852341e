//! Snapshots whose bytes were crafted, not corrupted: the checksum is
//! right, so what rejects them is the structural validation of the
//! decode path.

use bitcode::CodecError;
use igcn_core::{ConsumerConfig, IGcnEngine, IslandizationConfig};
use igcn_graph::generate::HubIslandConfig;
use igcn_graph::{GraphError, NodeId};
use igcn_store::snapshot::{fnv1a64, HEADER_BYTES};
use igcn_store::{Snapshot, StoreError};

#[test]
fn repeated_neighbor_in_a_stored_row_is_a_typed_error() {
    let graph = HubIslandConfig::new(220, 9).noise_fraction(0.03).generate(4).graph;
    let engine = IGcnEngine::builder(graph.clone()).build().unwrap();
    let path = std::env::temp_dir().join(format!("igcn-crafted-{}.snap", std::process::id()));
    Snapshot::capture(&engine).write(&path).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();

    // The serving graph's column array on the wire: its length as a
    // little-endian u64, then one little-endian u32 per entry.
    let cols = graph.col_idx();
    let mut needle = (cols.len() as u64).to_le_bytes().to_vec();
    needle.extend(cols.iter().flat_map(|c| c.to_le_bytes()));
    let at = bytes.windows(needle.len()).position(|w| w == needle).expect("stored column array");
    // Name the first neighbor of a row twice.
    let row = graph.iter_nodes().find(|&v| graph.degree(v) >= 2).unwrap();
    let first = graph.row_ptr()[row.index()];
    let entry = at + 8 + 4 * (first + 1);
    bytes[entry..entry + 4].copy_from_slice(&cols[first].to_le_bytes());
    let checksum = fnv1a64(&bytes[HEADER_BYTES..]);
    bytes[HEADER_BYTES - 8..HEADER_BYTES].copy_from_slice(&checksum.to_le_bytes());
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
        Err(StoreError::Codec(CodecError::Invalid { detail })) => {
            assert!(
                detail.contains(&format!("invalid configuration: {prefix}")),
                "{what}: {detail}"
            );
        }
        Err(other) => panic!("{what}: expected an invalid-value codec error, got {other}"),
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
