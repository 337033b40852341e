//! Hostile bytes at the store's two decoders: [`Snapshot::read`] and
//! [`Wal::replay`].
//!
//! A seeded, structure-aware mutator damages a valid snapshot and a
//! valid write-ahead log the way a failing disk or a malicious file
//! would, and restamps every checksum so that the damage reaches the
//! decoder. Both formats are u64 scalars and sections laid on an 8-byte
//! grid from the start of the file, so the mutator works word by word:
//!
//! - every payload word — every count and dimension field among them —
//!   forced to 0, 1, the largest count the bytes after it can hold at 4
//!   and at 8 bytes an element, one past each, `u32::MAX` and
//!   `u64::MAX`;
//! - the payload cut at every word boundary, which is every section
//!   boundary and more;
//! - two word-aligned stretches of the payload swapped (sections change
//!   places);
//! - one to three random bytes changed.
//!
//! The partition's island count, found beside its node count, is also
//! forged on its own: a reader that reserves per-island structures
//! before it has checked the islands against the bytes holding them
//! fails here. So are the leading words of each section the layout
//! stores (work estimates, bitmaps), and a forgery
//! that reads is also booted and asked one request: the boot trusts
//! those sections without a graph walk, so they must not panic it. The log under attack holds records written by
//! [`EngineStore::apply_update`], which carry the locator rounds of
//! their update, beside bare [`Wal::append`] records.
//!
//! Every input must end as `Ok` or a typed [`StoreError`] — never a
//! panic — and never hold more live heap during the read than 3× the
//! file plus 4 KiB.
//!
//! Last, rounds that decode cleanly but lie: for each rule a boot checks
//! logged rounds by, one checksum-valid record whose rounds break it.
//! Booting the snapshot with that log must give
//! [`StoreError::WalCorrupt`] at the record — never a panic, never an
//! engine — within 3× the two files plus 4 KiB of live heap.
//!
//! The test instruments the global allocator, which is why it lives in
//! its own integration-test binary with a single `#[test]` — the
//! pattern of the gateway's `tests/hostile_bytes.rs`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::Path;
use std::sync::atomic::{AtomicIsize, Ordering};

use igcn_core::stats::RoundStats;
use igcn_core::{
    Accelerator, CoreError, ExecConfig, GraphUpdate, IGcnEngine, Island, IslandizationConfig,
    LocatorRounds,
};
use igcn_gnn::{GnnModel, ModelWeights};
use igcn_graph::generate::HubIslandConfig;
use igcn_graph::SparseFeatures;
use igcn_store::sections::checksum64;
use igcn_store::snapshot::HEADER_BYTES;
use igcn_store::{EngineStore, Snapshot, StoreError, Wal};

/// Tracks live (outstanding) heap bytes and their high-water mark.
struct PeakAllocator;

static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);
static PEAK_BYTES: AtomicIsize = AtomicIsize::new(0);

fn grew(by: isize) {
    let live = LIVE_BYTES.fetch_add(by, Ordering::SeqCst) + by;
    PEAK_BYTES.fetch_max(live, Ordering::SeqCst);
}

// SAFETY: every method hands its arguments, unchanged, to the same
// method of `System` and returns what that returns, so `GlobalAlloc`'s
// contract holds because `System` keeps it; `grew` touches two atomics
// and neither allocates nor unwinds.
unsafe impl GlobalAlloc for PeakAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size() as isize);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as isize, Ordering::SeqCst);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grew(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: PeakAllocator = PeakAllocator;

/// Runs `read` and returns its result with the most heap that was live,
/// over the level before the call, at any moment during it.
fn with_peak<T>(read: impl FnOnce() -> T) -> (T, usize) {
    let before = LIVE_BYTES.load(Ordering::SeqCst);
    PEAK_BYTES.store(before, Ordering::SeqCst);
    let result = read();
    let peak = PEAK_BYTES.load(Ordering::SeqCst) - before;
    (result, peak.max(0) as usize)
}

/// Heap a read may hold live per file byte: the file itself (1×) and
/// what it decodes to, which per-island and per-bitmap bookkeeping
/// makes somewhat larger than the bytes it came from.
const HEAP_FACTOR: usize = 3;
/// Constant allowance on top (small structures, the error `String`).
const HEAP_SLACK: usize = 4096;

/// SplitMix64: a seeded stream without a dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() % (hi - lo + 1) as u64) as usize
    }
}

/// One decoder under attack: how to read a file, where its payload
/// starts, and how to make its checksums agree with damaged bytes.
struct Target {
    path: std::path::PathBuf,
    header: usize,
    restamp: fn(&mut [u8]),
    read: fn(&Path) -> Result<(), StoreError>,
    accepted: usize,
    rejected: usize,
}

impl Target {
    /// One hostile input through the decoder.
    fn check(&mut self, bytes: &[u8]) {
        std::fs::write(&self.path, bytes).unwrap();
        let (result, peak) = with_peak(|| (self.read)(&self.path));
        assert!(
            peak <= HEAP_FACTOR * bytes.len() + HEAP_SLACK,
            "reading {} bytes held {peak} bytes of heap live",
            bytes.len()
        );
        match result {
            Ok(()) => self.accepted += 1,
            Err(e) => {
                assert!(!e.to_string().is_empty());
                self.rejected += 1;
            }
        }
    }

    /// `bytes` with its checksums restamped, through the decoder.
    fn check_restamped(&mut self, mut bytes: Vec<u8>) {
        (self.restamp)(&mut bytes);
        self.check(&bytes);
    }

    /// The word at `at` forced to every boundary value it does not
    /// already hold.
    fn force_word(&mut self, good: &[u8], at: usize) {
        for bytes in forced_words(good, at) {
            self.check_restamped(bytes);
        }
    }

    /// The whole mutation sweep over the valid file `good`.
    fn sweep(&mut self, good: &[u8], rng: &mut Rng) {
        self.check(good);
        assert_eq!((self.accepted, self.rejected), (1, 0), "the seed file is valid");
        let words = (good.len() - self.header) / 8;
        for word in 0..words {
            self.force_word(good, self.header + 8 * word);
            self.check_restamped(good[..self.header + 8 * word].to_vec());
        }
        for _ in 0..400 {
            let len = rng.range(1, words / 2);
            let a = rng.range(0, words - 2 * len);
            let b = rng.range(a + len, words - len);
            let mut bytes = good.to_vec();
            for i in 0..8 * len {
                bytes.swap(self.header + 8 * a + i, self.header + 8 * b + i);
            }
            self.check_restamped(bytes);
        }
        for _ in 0..1_000 {
            let mut bytes = good.to_vec();
            for _ in 0..rng.range(1, 3) {
                let at = rng.range(self.header, bytes.len() - 1);
                bytes[at] = rng.next() as u8;
            }
            self.check_restamped(bytes);
        }
    }
}

/// `good` with the word at `at` forced to each boundary value it does
/// not already hold: 0, 1, the largest count the bytes after it can
/// hold at 4 and at 8 bytes an element, one past each, `u32::MAX` and
/// `u64::MAX`. The checksums are left as they were.
fn forced_words(good: &[u8], at: usize) -> impl Iterator<Item = Vec<u8>> + '_ {
    let after = good.len() - at - 8;
    let (fit4, fit8) = ((after / 4) as u64, (after / 8) as u64);
    let held = u64::from_le_bytes(good[at..at + 8].try_into().unwrap());
    [0, 1, fit4, fit4 + 1, fit8, fit8 + 1, u32::MAX as u64, u64::MAX]
        .into_iter()
        .filter(move |&value| value != held)
        .map(move |value| {
            let mut bytes = good.to_vec();
            bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
            bytes
        })
}

/// Each section the layout stores — its work estimates and its bitmaps
/// — with its leading words forced: every
/// forgery is refused within the heap bound, or boots and answers its
/// first request. None may panic: these are what the boot trusts
/// without a graph walk.
fn forged_layout_sections_boot_or_fail_typed(
    target: &mut Target,
    good: &[u8],
    image: &Snapshot,
) -> usize {
    let layout = &image.layout;
    let mut needle = (layout.schedule().wave_width() as u64).to_le_bytes().to_vec();
    needle.extend(layout.schedule().work().iter().flat_map(|w| w.to_le_bytes()));
    let work_at = good.windows(needle.len()).rposition(|w| w == needle).expect("stored layout") + 8;
    let bits_at = work_at + 8 * layout.num_islands();
    let features = image.features.clone().expect("the image bundles features");
    let mut booted = 0;
    for at in [work_at, work_at + 8, bits_at, bits_at + 8] {
        for mut bytes in forced_words(good, at) {
            restamp_snapshot(&mut bytes);
            target.check(&bytes);
            let boot = || -> Result<(), Box<dyn std::error::Error>> {
                let engine = Snapshot::read(&target.path)?.warm_engine(ExecConfig::default())?;
                engine.infer(&igcn_core::InferenceRequest::new(features.clone()))?;
                Ok(())
            };
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(boot)) {
                Ok(outcome) => booted += usize::from(outcome.is_ok()),
                Err(_) => panic!("a layout word at byte {at} forged: the boot panicked"),
            }
        }
    }
    booted
}

/// The snapshot header's payload length and checksum, over whatever
/// the payload now is.
fn restamp_snapshot(file: &mut [u8]) {
    let payload_len = (file.len() - HEADER_BYTES) as u64;
    file[8..16].copy_from_slice(&payload_len.to_le_bytes());
    let sum = checksum64(&file[HEADER_BYTES..]);
    file[16..24].copy_from_slice(&sum.to_le_bytes());
}

/// Bytes of the WAL's file header and of each record's header.
const WAL_HEADER: usize = 16;
const RECORD_HEADER: usize = 16;

/// Every whole record's checksum, over whatever its payload now is.
fn restamp_wal(file: &mut [u8]) {
    let mut at = WAL_HEADER;
    while at + RECORD_HEADER <= file.len() {
        let len = u64::from_le_bytes(file[at..at + 8].try_into().unwrap());
        let start = at + RECORD_HEADER;
        let Some(end) = usize::try_from(len)
            .ok()
            .and_then(|len| start.checked_add(len))
            .filter(|&end| end <= file.len())
        else {
            break;
        };
        let sum = checksum64(&file[start..end]);
        file[at + 8..start].copy_from_slice(&sum.to_le_bytes());
        at = end;
    }
}

/// A prepared engine over `graph`.
fn good_engine(graph: HubIslandConfig) -> IGcnEngine {
    let mut engine = IGcnEngine::builder(graph.generate(3).graph).build().unwrap();
    let model = GnnModel::gcn(6, 4, 2);
    engine.prepare(&model, &ModelWeights::glorot(&model, 1)).unwrap();
    engine
}

fn good_snapshot(path: &Path) -> (Vec<u8>, Snapshot) {
    let snapshot =
        Snapshot::capture(&good_engine(HubIslandConfig::new(40, 4).noise_fraction(0.03)))
            .with_features(SparseFeatures::random(40, 6, 0.3, 2));
    snapshot.write(path).unwrap();
    (std::fs::read(path).unwrap(), snapshot)
}

/// Nodes of the graph whose updates the logs record.
const ROUNDS_NODES: usize = 80;

/// The engine whose updates the logs record: eight hubs over eight
/// islands of 3 to 18 nodes.
fn rounds_engine() -> IGcnEngine {
    good_engine(HubIslandConfig::new(ROUNDS_NODES, 8).noise_fraction(0.0))
}

/// Applies `update` to `engine` through
/// [`IGcnEngine::apply_update_logged`] and returns the rounds it showed
/// the log.
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

/// An edge between the first members of islands 0 and 1: both dissolve
/// and re-form.
fn joining_edge(engine: &IGcnEngine) -> (u32, u32) {
    let islands = engine.partition().islands();
    (islands[0].nodes[0], islands[1].nodes[0])
}

/// A log of records with rounds — as [`EngineStore::apply_update`]
/// writes them, for a join, a growth and a removal — and bare ones.
fn good_wal(path: &Path) -> Vec<u8> {
    let wal = Wal::paired(path, 7);
    let mut engine = rounds_engine();
    let join = GraphUpdate::add_edges(vec![joining_edge(&engine)]);
    let hub = engine.partition().hubs()[0];
    let n = ROUNDS_NODES as u32;
    let grow = GraphUpdate::add_edges(vec![(n, hub)]).with_num_nodes(ROUNDS_NODES + 1);
    let split = GraphUpdate::remove_edges(join.added_edges.clone());
    for update in [join, grow, split] {
        let rounds = rounds_of(&mut engine, update.clone());
        wal.append_with_rounds(&update, &rounds).unwrap();
    }
    for update in [
        GraphUpdate::add_edges(vec![(1, 2), (3, 4), (5, 9)]),
        GraphUpdate::remove_edges(vec![(1, 2)]).with_num_nodes(ROUNDS_NODES + 2),
        GraphUpdate::add_edges(vec![]),
    ] {
        wal.append(&update).unwrap();
    }
    std::fs::read(path).unwrap()
}

/// One forged record per rule a boot checks logged rounds by: each must
/// boot to [`StoreError::WalCorrupt`] at the record, within the heap
/// bound.
fn forged_rounds_are_refused_at_boot(dir: &Path, pid: u32) {
    let base = rounds_engine();
    let store = EngineStore::at(dir.join(format!("igcn-hostile-{pid}-rounds.snap")));
    store.checkpoint(&base).unwrap();
    let snapshot_bytes = std::fs::metadata(store.snapshot_path()).unwrap().len() as usize;
    let cfg = IslandizationConfig::default();

    let mut live = base.clone();
    let update = GraphUpdate::add_edges(vec![joining_edge(&live)]);
    let rounds = rounds_of(&mut live, update.clone());
    let formed = &rounds.islands;
    // What the forgeries need: a re-formed island of two or more
    // members with a hub, an island no update touched, an old hub.
    let multi = formed.iter().position(|isl| isl.len() >= 2 && !isl.hubs.is_empty()).unwrap();
    let member = formed[multi].nodes[0];
    let kept = live.partition().islands().iter().find(|isl| !formed.contains(isl));
    let kept = kept.expect("an island the update kept").nodes[0];
    let hub = base.partition().hubs()[0];
    let n = live.graph().num_nodes() as u32;

    // Each rule, the words its refusal names, and a forgery breaking it.
    type Forge = Box<dyn Fn(&mut LocatorRounds)>;
    let template: RoundStats = rounds.stats.rounds[0];
    let max_rounds = cfg.max_rounds;
    let cases: Vec<(&str, &str, Forge)> = vec![
        ("rounds > max_rounds", "rounds listed", {
            Box::new(move |r| r.stats.rounds = vec![template; max_rounds as usize + 1])
        }),
        ("a new hub twice", "new hub", Box::new(move |r| r.hubs.extend([member, member]))),
        ("a new hub not residual", "new hub", Box::new(move |r| r.hubs.push(kept))),
        ("an empty island", "0 members", {
            Box::new(|r| r.islands.push(Island { nodes: vec![], ..r.islands[0].clone() }))
        }),
        ("an island above c_max", "members, c_max", {
            Box::new(move |r| r.islands[0].nodes = vec![member; cfg.c_max + 1])
        }),
        ("round at max_rounds", "names round", Box::new(move |r| r.islands[0].round = max_rounds)),
        ("engine at p2_engines", "names round", {
            Box::new(move |r| r.islands[0].engine = cfg.p2_engines as u32)
        }),
        ("a member twice", "'s member", Box::new(move |r| r.islands[multi].nodes.push(member))),
        (
            "a member not residual",
            "'s member",
            Box::new(move |r| r.islands[multi].nodes.push(kept)),
        ),
        ("a member past the graph", "'s member", Box::new(move |r| r.islands[multi].nodes.push(n))),
        (
            "a member that is a hub",
            "'s member",
            Box::new(move |r| r.islands[multi].nodes.push(hub)),
        ),
        ("the residual not covered", "residual nodes", Box::new(|r| r.islands.truncate(0))),
        ("an island not closed", "not closed", {
            Box::new(move |r| {
                let last = r.islands[multi].nodes.pop().unwrap();
                r.islands.push(Island { nodes: vec![last], hubs: vec![], round: 0, engine: 0 });
            })
        }),
        (
            "a contact hub unlisted",
            "hub list",
            Box::new(move |r| r.islands[multi].hubs.truncate(0)),
        ),
        ("a hub listed twice", "hub list", {
            Box::new(move |r| {
                let first = r.islands[multi].hubs[0];
                r.islands[multi].hubs.push(first);
            })
        }),
        ("a hub listed, no contact", "hub list", Box::new(move |r| r.islands[multi].hubs.push(n))),
        ("an absent inter-hub edge", "inter-hub", Box::new(|r| r.inter_hub_edges.push((0, 1)))),
    ];

    // The live rounds boot; each forgery is refused at its record. The
    // two files' sizes bound the heap.
    let wal = store.wal().unwrap();
    let boot = |forged: &LocatorRounds| {
        wal.reset().unwrap();
        wal.append_with_rounds(&update, forged).unwrap();
        let files = snapshot_bytes + wal.size_bytes() as usize;
        let (result, peak) = with_peak(|| store.boot(ExecConfig::default()).map(drop));
        assert!(peak <= HEAP_FACTOR * files + HEAP_SLACK, "booting {files} bytes held {peak}");
        result
    };
    boot(&rounds).expect("the rounds the live update produced boot");
    for (rule, words, forge) in &cases {
        let mut forged = rounds.clone();
        forge(&mut forged);
        match boot(&forged) {
            Err(StoreError::WalCorrupt { offset: 16, detail }) => {
                assert!(detail.contains(words), "{rule}: {detail:?} lacks {words:?}")
            }
            other => panic!("{rule}: expected WalCorrupt at the record, got {other:?}"),
        }
    }
    for path in [store.snapshot_path(), store.wal_path()] {
        std::fs::remove_file(path).ok();
    }
}

#[test]
fn hostile_store_files_yield_typed_errors_within_the_heap_bound() {
    let mut rng = Rng(0x5707E);
    let dir = std::env::temp_dir();
    let pid = std::process::id();

    let mut snapshot = Target {
        path: dir.join(format!("igcn-hostile-{pid}.snap")),
        header: HEADER_BYTES,
        restamp: restamp_snapshot,
        read: |path| Snapshot::read(path).map(drop),
        accepted: 0,
        rejected: 0,
    };
    let (good, image) = good_snapshot(&snapshot.path);
    snapshot.sweep(&good, &mut rng);

    // The partition's island count, after its node count.
    let mut needle = (image.partition.num_nodes() as u64).to_le_bytes().to_vec();
    needle.extend_from_slice(&(image.partition.num_islands() as u64).to_le_bytes());
    let at = good.windows(16).position(|w| w == needle).expect("stored partition counts");
    let accepted = snapshot.accepted;
    snapshot.force_word(&good, at + 8);
    assert_eq!(snapshot.accepted, accepted, "every forged island count is refused");
    let booted = forged_layout_sections_boot_or_fail_typed(&mut snapshot, &good, &image);
    assert!(booted > 0, "some forged bitmap words boot, and answer");
    assert!(
        snapshot.accepted > 1 && snapshot.rejected > 5_000,
        "snapshots: {} accepted, {} rejected — the mutator must reach both verdicts",
        snapshot.accepted,
        snapshot.rejected
    );
    std::fs::remove_file(&snapshot.path).ok();

    let mut wal = Target {
        path: dir.join(format!("igcn-hostile-{pid}.wal")),
        header: WAL_HEADER,
        restamp: restamp_wal,
        read: |path| Wal::paired(path, 7).replay().map(drop),
        accepted: 0,
        rejected: 0,
    };
    let good = good_wal(&wal.path);
    wal.sweep(&good, &mut rng);
    assert!(
        wal.accepted > 100 && wal.rejected > 300,
        "logs: {} accepted, {} rejected — the mutator must reach both verdicts",
        wal.accepted,
        wal.rejected
    );
    std::fs::remove_file(&wal.path).ok();

    forged_rounds_are_refused_at_boot(&dir, pid);
}
