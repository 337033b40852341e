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

#[test]
fn a_forged_inter_hub_task_section_is_a_typed_error_within_the_heap_bound() {
    // The task section is one CSR — `T | sources[T] | offsets[T+1] |
    // dests` — decoded without a heap block per task. Each forgery must
    // end in a typed error, holding no more live heap than the hostile-
    // bytes sweep allows a read (3× the file plus 4 KiB).
    let graph = HubIslandConfig::new(400, 16).noise_fraction(0.05).generate(12).graph;
    let engine = IGcnEngine::builder(graph).build().unwrap();
    let layout = engine.layout();
    let (tasks, num_hubs) = (layout.inter_hub_tasks(), layout.num_hubs() as u32);
    assert!(tasks.len() >= 2, "the forgeries need two tasks");
    let good = {
        let path = std::env::temp_dir().join(format!("igcn-crafted-t-{}.snap", std::process::id()));
        Snapshot::capture(&engine).write(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        bytes
    };
    // The offsets are u64s; the destinations follow them directly and
    // the sources lie just before (within one word of padding).
    let offsets_bytes: Vec<u8> =
        tasks.offsets().iter().flat_map(|&o| (o as u64).to_le_bytes()).collect();
    let offsets_at = good
        .windows(offsets_bytes.len())
        .rposition(|w| w == offsets_bytes)
        .expect("stored task offsets");
    let offset = |i: usize| offsets_at + 8 * i;
    let dests_at = offsets_at + offsets_bytes.len();
    assert_eq!(good[dests_at..dests_at + 4 * tasks.dests().len()], section_u32s(tasks.dests()));
    let sources_bytes = section_u32s(tasks.sources());
    let sources_at = good[..offsets_at]
        .windows(sources_bytes.len())
        .rposition(|w| w == sources_bytes)
        .expect("stored task sources");
    assert!(offsets_at - (sources_at + sources_bytes.len()) < 8);

    let forge = |at: usize, value: &[u8], what: &str| {
        let mut bytes = good.clone();
        bytes[at..at + value.len()].copy_from_slice(value);
        restamp(&mut bytes);
        let (read, peak) = with_peak(|| read_crafted(&bytes, what));
        assert!(
            peak <= 3 * bytes.len() + 4096,
            "{what}: reading {} bytes held {peak} bytes of heap live",
            bytes.len()
        );
        match read {
            Ok(_) => panic!("{what}: a forged task section was accepted"),
            Err(e) => e,
        }
    };
    let corrupt = |e: StoreError, what: &str, needle: &str| match e {
        StoreError::Corrupt { detail } => assert!(detail.contains(needle), "{what}: {detail}"),
        other => panic!("{what}: expected a corrupt-snapshot error, got {other}"),
    };
    let u64_bytes = |v: u64| v.to_le_bytes();
    let last = tasks.len();
    let past_the_file = (good.len() - dests_at) as u64 / 4 + 1;

    // Offsets that fall back: task 1 starts after task 2 does.
    let e = forge(offset(1), &u64_bytes(tasks.offsets()[2] as u64 + 1), "falling offsets");
    corrupt(e, "falling offsets", "inter-hub task offsets do not start at 0 and rise");
    // Offsets that run past the destinations the file holds.
    for (value, what) in [(past_the_file, "offsets past the file"), (u64::MAX, "u64::MAX offset")] {
        let e = forge(offset(last), &u64_bytes(value), what);
        corrupt(e, what, "truncated");
    }
    // A source, and a destination, at H.
    for (at, what) in [(sources_at, "source at H"), (dests_at, "destination at H")] {
        match forge(at, &num_hubs.to_le_bytes(), what) {
            StoreError::Core(CoreError::ClassificationViolation { node, detail }) => {
                assert_eq!(node, num_hubs, "{what}: {detail}");
                assert!(detail.contains("inter-hub task"), "{what}: {detail}");
            }
            other => panic!("{what}: expected a classification violation, got {other}"),
        }
    }
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

#[test]
fn a_forged_forward_section_or_wave_width_is_a_typed_error() {
    // The layout's sections after its partition: `forward[n]:u32`, the
    // wave width, then the work estimates. Its partition and its tasks
    // have forgeries of their own above.
    let graph = HubIslandConfig::new(220, 9).noise_fraction(0.03).generate(9).graph;
    let engine = IGcnEngine::builder(graph).build().unwrap();
    let layout = engine.layout();
    let good = written(&engine, "forward");
    let needle = section_u32s(layout.forward());
    let at = good.windows(needle.len()).rposition(|w| w == needle).expect("stored forward");
    let n = layout.forward().len() as u32;
    let forge = |at: usize, value: &[u8], what: &str| {
        let mut bytes = good.clone();
        bytes[at..at + value.len()].copy_from_slice(value);
        restamp(&mut bytes);
        read_crafted(&bytes, what).err().unwrap_or_else(|| panic!("{what} was accepted"))
    };

    // Not a bijection: the second entry repeats the first, and an entry
    // names no node.
    for (value, what) in [(layout.forward()[0], "a repeated image"), (n, "an image at n")] {
        match forge(at + 4, &value.to_le_bytes(), what) {
            StoreError::Graph(GraphError::InvalidPermutation { detail }) => {
                assert!(detail.contains(&value.to_string()), "{what}: {detail}");
            }
            other => panic!("{what}: expected an invalid permutation, got {other}"),
        }
    }
    // No wave to issue islands in: the word after the padded section.
    let wave_at = at + needle.len().next_multiple_of(8);
    let wave_width = layout.schedule().wave_width() as u64;
    assert_eq!(good[wave_at..wave_at + 8], wave_width.to_le_bytes(), "the stored wave width");
    match forge(wave_at, &0u64.to_le_bytes(), "wave width 0") {
        StoreError::Corrupt { detail } => assert!(detail.contains("wave width"), "{detail}"),
        other => panic!("wave width 0: expected a corrupt-snapshot error, got {other}"),
    }
}

#[test]
fn a_version_4_file_is_refused_and_its_payload_never_read_as_version_5() {
    // A version 4 image: this build's payload with the layout's
    // schedule-ordered graph (`n m row_ptr[n+1]:u64 col_idx[m]:u32`,
    // padded) ahead of the layout's partition, whose five leading
    // scalars are the original partition's too.
    let graph = HubIslandConfig::new(220, 9).noise_fraction(0.03).generate(10).graph;
    let engine = IGcnEngine::builder(graph).build().unwrap();
    let good = written(&engine, "v4");
    let p = engine.partition();
    let scalars = [p.num_nodes(), p.num_islands(), p.num_hubs(), p.inter_hub_edges().len()];
    let needle: Vec<u8> = scalars.iter().flat_map(|&v| (v as u64).to_le_bytes()).collect();
    let at = good.windows(needle.len()).rposition(|w| w == needle).expect("the layout partition");
    let permuted = engine.layout().graph();
    let mut section: Vec<u8> = [permuted.num_nodes(), permuted.num_directed_edges()]
        .iter()
        .chain(permuted.row_ptr())
        .flat_map(|&v| (v as u64).to_le_bytes())
        .collect();
    section.extend(section_u32s(permuted.col_idx()));
    section.resize(section.len().next_multiple_of(8), 0);
    let mut bytes = [&good[..at], &section, &good[at..]].concat();
    let payload_len = (bytes.len() - HEADER_BYTES) as u64;
    bytes[8..16].copy_from_slice(&payload_len.to_le_bytes());

    for (version, what) in [(4u32, "version 4"), (5, "a version 4 payload stamped 5")] {
        bytes[4..8].copy_from_slice(&version.to_le_bytes());
        restamp(&mut bytes);
        match (version, read_crafted(&bytes, what)) {
            (4, Err(StoreError::UnsupportedVersion { found: 4, supported: 5 })) => {}
            (5, Err(e)) => assert!(!e.to_string().is_empty()),
            (_, other) => panic!("{what}: {:?}", other.map(drop)),
        }
    }
}
