//! Snapshots whose bytes were crafted, not corrupted: the checksum is
//! right, so what rejects them is the structural validation of the
//! decode path. The binary counts each thread's live heap, so a test
//! can hold a read to `hostile_store.rs`'s bound.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
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
    // slab on its first request. The layout's islands are the stored
    // partition's, renamed at boot, so the forgery is an island hub of
    // the partition that names a node that is no hub, or no node. (A
    // bitmap's size and hub rows follow from its island; the file
    // stores its bits alone.)
    let graph = HubIslandConfig::new(220, 9).noise_fraction(0.03).generate(8).graph;
    let engine = IGcnEngine::builder(graph).build().unwrap();
    let good = written(&engine, "island-hub-src");
    let islands = engine.partition().islands();

    // The partition stores every island's hubs in one flat section.
    let idx = islands.iter().position(|i| !i.hubs.is_empty()).expect("an island contacts a hub");
    let needle = section_u32s(islands.iter().flat_map(|i| &i.hubs));
    let at = good.windows(needle.len()).position(|w| w == needle).expect("stored island hubs");
    let hub0 = at + 4 * islands[..idx].iter().map(|i| i.hubs.len()).sum::<usize>();
    let member = islands[idx].nodes[0];
    let n = engine.graph().num_nodes() as u32;
    for (forged, what) in [(member, "a member as a hub"), (n, "a hub past the nodes")] {
        let mut bytes = good.clone();
        bytes[hub0..hub0 + 4].copy_from_slice(&forged.to_le_bytes());
        restamp(&mut bytes);
        match read_crafted(&bytes, "island-hub") {
            Err(StoreError::Core(CoreError::ClassificationViolation { node, detail })) => {
                assert_eq!(node, forged, "{what}: {detail}");
                assert!(detail.contains(&format!("island {idx}")), "{what}: {detail}");
            }
            Err(other) => panic!("{what}: expected a classification violation, got {other}"),
            Ok(_) => panic!("{what}: a layout island contacting a non-hub was accepted"),
        }
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

/// Live heap bytes of the calling thread and their high-water mark:
/// the reads below run on the test's own thread, so the tests running
/// beside it on others do not move the count.
struct ThreadPeak;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn grew(by: isize) {
    // `try_with`: nothing is counted while the thread tears its locals
    // down (they hold no destructor, so this is only a formality).
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + by);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

// SAFETY: every method hands its arguments, unchanged, to the same
// method of `System` and returns what that returns, so `GlobalAlloc`'s
// contract holds because `System` keeps it; `grew` touches two
// const-initialised thread locals without destructors and neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for ThreadPeak {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size() as isize);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        grew(-(layout.size() as isize));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grew(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: ThreadPeak = ThreadPeak;

/// `read`'s result and the most heap this thread held live during it,
/// over the level before the call.
fn with_peak<T>(read: impl FnOnce() -> T) -> (T, usize) {
    let before = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(before));
    let result = read();
    let peak = PEAK.with(Cell::get) - before;
    (result, peak.max(0) as usize)
}

/// The snapshot bytes of `engine`, through a file of their own.
fn written(engine: &IGcnEngine, what: &str) -> Vec<u8> {
    let path =
        std::env::temp_dir().join(format!("igcn-crafted-{what}-{}.snap", std::process::id()));
    Snapshot::capture(engine).write(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    bytes
}

/// Where the layout rule of `good` (`engine`'s snapshot) starts: its
/// wave width, which the work estimates follow.
fn layout_at(engine: &IGcnEngine, good: &[u8]) -> usize {
    let schedule = engine.layout().schedule();
    let mut needle = (schedule.wave_width() as u64).to_le_bytes().to_vec();
    needle.extend(schedule.work().iter().flat_map(|w| w.to_le_bytes()));
    good.windows(needle.len()).rposition(|w| w == needle).expect("the stored layout")
}

/// The bytes of a u32 section padded to a multiple of 8.
fn padded_u32s<'a>(values: impl IntoIterator<Item = &'a u32>) -> Vec<u8> {
    let mut bytes = section_u32s(values);
    bytes.resize(bytes.len().next_multiple_of(8), 0);
    bytes
}

/// What a version 5 file stored of `engine`'s layout and this build
/// derives. Ahead of the wave width: the partition renamed into layout
/// IDs (`n I H E c_max islands hubs[H]:u32 inter_hub_edges[E]:(u32,u32)
/// node_class[n]:u32`, the islands as node and hub offsets, rounds,
/// engines, nodes and hubs), then `forward`. Behind the bitmaps: the
/// inter-hub tasks (`T source[T]:u32 dest_offsets[T+1]:u64 dests:u32`).
fn v5_layout_sections(engine: &IGcnEngine, forward: &[u32]) -> (Vec<u8>, Vec<u8>) {
    let (layout, partition) = (engine.layout(), engine.partition());
    let islands = layout.islands();
    let (n, h) = (layout.num_nodes() as u32, layout.num_hubs() as u32);
    let edges = layout.inter_hub_edges().len();
    let scalars = [n as usize, islands.len(), h as usize, edges, partition.c_max()];
    let mut node_offsets = vec![0];
    for (nodes, _) in islands.iter() {
        node_offsets.push(node_offsets[node_offsets.len() - 1] + nodes.len());
    }
    let words = |values: &[usize]| -> Vec<u8> {
        values.iter().flat_map(|&v| (v as u64).to_le_bytes()).collect()
    };
    let mut ahead = words(&[&scalars[..], &node_offsets, islands.hub_offsets()].concat());
    let origins: Vec<(u32, u32)> = (0..islands.len()).map(|i| islands.origin(i)).collect();
    ahead.extend(padded_u32s(origins.iter().map(|(round, _)| round)));
    ahead.extend(padded_u32s(origins.iter().map(|(_, engine)| engine)));
    ahead.extend(padded_u32s(&(h..n).collect::<Vec<_>>()));
    ahead.extend(padded_u32s(islands.iter().flat_map(|(_, hubs)| hubs)));
    ahead.extend(padded_u32s(&(0..h).collect::<Vec<_>>()));
    ahead.extend(padded_u32s(layout.inter_hub_edges().iter().flat_map(|(a, b)| [a, b])));
    let mut classes = vec![u32::MAX; h as usize];
    for (i, (nodes, _)) in (0u32..).zip(islands.iter()) {
        classes.extend(nodes.map(|_| i));
    }
    ahead.extend(padded_u32s(&classes));
    ahead.extend(padded_u32s(forward));

    let tasks = layout.inter_hub_tasks();
    let mut dest_offsets = vec![0];
    for (_, dests) in tasks.iter() {
        dest_offsets.push(dest_offsets[dest_offsets.len() - 1] + dests.len());
    }
    let mut behind = words(&[tasks.len()]);
    behind.extend(padded_u32s(&tasks.iter().map(|(src, _)| src).collect::<Vec<_>>()));
    behind.extend(words(&dest_offsets));
    behind.extend(padded_u32s(tasks.iter().flat_map(|(_, dests)| dests)));
    (ahead, behind)
}

/// `good`, `engine`'s snapshot, with `ahead` put in before its layout's
/// wave width and `behind` after its bitmaps, and the header's length and
/// checksum restamped under `version`.
fn spliced(
    engine: &IGcnEngine,
    good: &[u8],
    (ahead, behind): (&[u8], &[u8]),
    version: u32,
) -> Vec<u8> {
    let layout = engine.layout();
    let at = layout_at(engine, good);
    let bits: usize = (0..layout.num_islands()).map(|i| layout.bitmap(i).bits().len()).sum();
    let end = at + 8 + 8 * layout.num_islands() + 8 * bits;
    let mut bytes = [&good[..at], ahead, &good[at..end], behind, &good[end..]].concat();
    let payload_len = (bytes.len() - HEADER_BYTES) as u64;
    bytes[4..8].copy_from_slice(&version.to_le_bytes());
    bytes[8..16].copy_from_slice(&payload_len.to_le_bytes());
    restamp(&mut bytes);
    bytes
}

#[test]
fn a_forged_forward_section_or_wave_width_is_a_typed_error() {
    // A version 5 file stored the layout's `forward` permutation. With
    // two of its entries swapped — two members of one island, or a hub
    // and a member — such a file booted and answered wrongly. This
    // build derives `forward` from the partition, so the file is refused
    // by its version, and as a version 6 payload it does not decode.
    let graph = HubIslandConfig::new(220, 9).noise_fraction(0.03).generate(9).graph;
    let engine = IGcnEngine::builder(graph).build().unwrap();
    let good = written(&engine, "forward");
    let partition = engine.partition();
    let island = partition.islands().iter().find(|i| i.len() >= 2).expect("an island of two");
    let swaps = [
        ((island.nodes[0], island.nodes[1]), "two members swapped"),
        ((partition.hubs()[0], island.nodes[0]), "a hub and a member swapped"),
    ];
    for ((a, b), what) in swaps {
        let mut forward = engine.layout().forward().to_vec();
        forward.swap(a as usize, b as usize);
        let (ahead, behind) = v5_layout_sections(&engine, &forward);
        let v5 = |version| spliced(&engine, &good, (&ahead, &behind), version);
        match read_crafted(&v5(5), what) {
            Err(StoreError::UnsupportedVersion { found: 5, supported: 6 }) => {}
            other => panic!("{what}: expected version 5 refused, got {:?}", other.map(drop)),
        }
        assert!(read_crafted(&v5(6), what).is_err(), "{what}: a version 5 layout read as 6");
    }

    // No wave to issue islands in.
    let at = layout_at(&engine, &good);
    let wave_width = engine.layout().schedule().wave_width() as u64;
    assert_eq!(good[at..at + 8], wave_width.to_le_bytes(), "the stored wave width");
    let mut bytes = good.clone();
    bytes[at..at + 8].copy_from_slice(&0u64.to_le_bytes());
    restamp(&mut bytes);
    match read_crafted(&bytes, "wave width 0") {
        Err(StoreError::Corrupt { detail }) => assert!(detail.contains("wave width"), "{detail}"),
        other => {
            panic!("wave width 0: expected a corrupt-snapshot error, got {:?}", other.map(drop))
        }
    }
}

#[test]
fn a_forged_work_estimate_or_bitmap_bit_is_a_typed_error() {
    // The two sections the layout stores. Work estimates whose sum passes
    // `u64::MAX` would boot, then overflow the occupancy model; a bit
    // past a bitmap's last column is one no window reads, and no
    // composition sets. Each read holds no more live heap than the
    // hostile-bytes sweep allows one (3× the file plus 4 KiB).
    let graph = HubIslandConfig::new(220, 9).noise_fraction(0.03).generate(11).graph;
    let engine = IGcnEngine::builder(graph).build().unwrap();
    let good = written(&engine, "work-bits");
    let at = layout_at(&engine, &good);
    let forge = |at: usize, value: u64, what: &str| {
        let mut bytes = good.clone();
        bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
        restamp(&mut bytes);
        let (read, peak) = with_peak(|| read_crafted(&bytes, what));
        assert!(peak <= 3 * bytes.len() + 4096, "{what}: a read held {peak} bytes of heap");
        match read {
            Err(StoreError::Corrupt { detail }) => detail,
            other => panic!("{what}: expected a corrupt-snapshot error, got {:?}", other.map(drop)),
        }
    };
    let detail = forge(at + 8, u64::MAX, "work past u64::MAX");
    assert!(detail.contains("work estimates overflow"), "{detail}");

    let layout = engine.layout();
    let bits_at = at + 8 + 8 * layout.num_islands();
    let first = layout.bitmap(0);
    assert_eq!(good[bits_at..bits_at + 8], first.bits()[0].to_le_bytes(), "the stored bits");
    let dim = first.dim();
    assert!(!dim.is_multiple_of(64), "the first bitmap's rows have room past their columns");
    let word = (dim / 64) * 8;
    let past = first.bits()[dim / 64] | 1 << (dim % 64);
    let detail = forge(bits_at + word, past, "a bit past the columns");
    assert!(
        detail.contains(&format!("bitmap row 0 sets a bit past its {dim} columns")),
        "{detail}"
    );
}

#[test]
fn a_version_4_file_is_refused_and_its_payload_never_read_as_version_5() {
    // A version 4 image: the layout's schedule-ordered graph (`n m
    // row_ptr[n+1]:u64 col_idx[m]:u32`, padded) ahead of the version 5
    // layout sections, at the place of this build's layout rule.
    let graph = HubIslandConfig::new(220, 9).noise_fraction(0.03).generate(10).graph;
    let engine = IGcnEngine::builder(graph).build().unwrap();
    let good = written(&engine, "v4");
    let permuted = engine.layout().graph();
    let mut ahead: Vec<u8> = [permuted.num_nodes(), permuted.num_directed_edges()]
        .iter()
        .chain(permuted.row_ptr())
        .flat_map(|&v| (v as u64).to_le_bytes())
        .collect();
    ahead.extend(padded_u32s(permuted.col_idx()));
    let (partition, behind) = v5_layout_sections(&engine, engine.layout().forward());
    ahead.extend(partition);
    let v4 = |version| spliced(&engine, &good, (&ahead, &behind), version);

    for version in [4, 5] {
        match read_crafted(&v4(version), "v4") {
            Err(StoreError::UnsupportedVersion { found, supported: 6 }) => {
                assert_eq!(found, version);
            }
            other => panic!("version {version}: {:?}", other.map(drop)),
        }
    }
    assert!(read_crafted(&v4(6), "v4 as v6").is_err(), "a version 4 payload read as version 6");
}
