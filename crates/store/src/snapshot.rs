//! The versioned, checksummed snapshot file: a complete engine image.
//!
//! ```text
//! +---------+---------+-------------+-------------+==========+
//! | "IGSN"  | version | payload_len | payload_sum | payload  |
//! | 4 bytes | u32 LE  | u64 LE      | u64 LE      | sections |
//! +---------+---------+-------------+-------------+==========+
//! ```
//!
//! `payload_sum` is [`checksum64`] (XXH64, seed 0) of the payload
//! bytes: four independent multiply lanes over 32-byte stripes, so a
//! boot verifies a snapshot at memory speed. It guards against
//! corruption, not tampering.
//!
//! The payload is written with [`sections`](crate::sections), straight
//! from the domain types: u64 scalars and little-endian sections, every
//! section starting at a multiple of 8 bytes from the start of the file
//! (a u32 or f32 section is zero-padded to the next multiple). A
//! section's count is a scalar before it or a size decoded earlier, and
//! a list per island or per task is stored the way CSR stores rows: an
//! offsets section of `count + 1` u64s and one flat section. In order,
//! with `x[c]:T` a section of `c` elements and every other name a u64:
//!
//! ```text
//! payload      := island_cfg consumer_cfg graph partition locator layout model features
//! island_cfg   := threshold_tag threshold c_max p1_lanes p2_engines max_rounds
//! consumer_cfg := k num_pes redundancy_removal
//! graph        := n m row_ptr[n+1]:u64 col_idx[m]:u32
//! partition    := n I H E c_max islands hubs[H]:u32 inter_hub_edges[E]:(u32,u32)
//!                 node_class[n]:u32
//! islands      := node_offsets[I+1]:u64 hub_offsets[I+1]:u64 round[I]:u32 engine[I]:u32
//!                 island_nodes[..]:u32 island_hubs[..]:u32
//! locator      := R totals[8]:u64 rounds[7R]:u64
//! layout       := wave_width work[I]:u64 bits[Σ d_i·⌈d_i/64⌉]:u64
//! model        := 0 | 1 kind L epsilon widths[L+1]:u64 activations[L]:u64
//!                 weights[Σ widths[i]·widths[i+1]]:f32
//! features     := 0 | 1 rows cols nnz row_ptr[rows+1]:u64 col_idx[nnz]:u32 values[nnz]:f32
//! ```
//!
//! A node class is `u32::MAX` for a hub and the island index otherwise.
//! The layout stores only what the partition does not imply: its
//! schedule (the wave width and one work estimate per island) and its
//! bitmaps. Its permutation, island ranges, hub lists, inter-hub pairs
//! and inter-hub tasks are the partition's schedule order, and a decode
//! derives them from the partition it has just read, so no file can
//! hold a layout that disagrees with its partition there. `bits`
//! holds the `Ã = A + I` island bitmaps back to back: island `i`, with
//! `d_i` = its hubs plus its nodes, owns `d_i` rows of `⌈d_i/64⌉`
//! words, so the partition fixes the section's length and every
//! bitmap's place in it. The layout keeps no graph: the decoded one
//! shares the payload's `graph`; layer `i` maps `widths[i]` to
//! `widths[i+1]` features, and its weights are that row-major matrix.
//! Decoding re-validates everything through the domain constructors
//! (`CsrGraph::from_raw_parts`, `IslandPartition::from_raw_parts`,
//! `IslandLayout::from_raw_parts`, …), so corrupt bytes surface as
//! typed [`StoreError`]s, never as panics deep in the execution core.
//!
//! **Versioning / compatibility policy.** The version field is a single
//! monotone format number ([`SNAPSHOT_VERSION`]). A reader accepts
//! exactly the version it was built with: any layout-affecting change
//! to the payload must bump the number, and older files then fail
//! fast with [`StoreError::UnsupportedVersion`] (rebuild the snapshot
//! from the source graph — it is a cache of islandization work, never
//! the only copy of primary data). Version 3 moved the checksum from
//! FNV-1a to [`checksum64`]; version 4 stores one bitmap per island,
//! bits only, where version 3 stored two sets with their members;
//! version 5 drops the layout's schedule-ordered copy of the graph;
//! version 6 drops the layout's renamed copy of the partition, its
//! `forward` permutation and its inter-hub tasks, which the partition
//! implies. A version 2 to 5 file is refused like any other.
//!
//! [`checksum64`]: crate::sections::checksum64

use std::path::Path;
use std::sync::Arc;

use igcn_core::partition::NodeClass;
use igcn_core::stats::{LocatorStats, RoundStats};
use igcn_core::{
    ConsumerConfig, EngineParts, ExecConfig, IGcnEngine, Island, IslandBitmap, IslandLayout,
    IslandPartition, IslandSchedule, IslandizationConfig, ThresholdInit,
};
use igcn_gnn::{Activation, GnnKind, GnnModel, LayerConfig, ModelWeights};
use igcn_graph::{CsrGraph, SparseFeatures};
use igcn_linalg::DenseMatrix;

use crate::error::{io_err, StoreError};
use crate::sections::{
    checksum64, pad8, put_f32s, put_pairs, put_u32s, put_u64, put_u64s, put_words, Reader,
};

/// Leading magic bytes of every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"IGSN";

/// The snapshot format version this build reads and writes.
pub const SNAPSHOT_VERSION: u32 = 6;

/// Header size in bytes: magic + version + payload length + checksum.
pub const HEADER_BYTES: usize = 4 + 4 + 8 + 8;

/// The raw 24-byte header of a snapshot file, as
/// [`Snapshot::read_header`] returns it — the payload is *not* read or
/// verified.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotHeader {
    /// Format version recorded in the file.
    pub version: u32,
    /// Payload length the header declares.
    pub payload_bytes: u64,
    /// [`checksum64`] of the payload as
    /// recorded in the header (unverified).
    pub checksum: u64,
}

/// Header metadata of a snapshot file, readable without decoding the
/// payload (`snapshot_tool inspect`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotInfo {
    /// Format version recorded in the file.
    pub version: u32,
    /// Payload length in bytes.
    pub payload_bytes: u64,
    /// [`checksum64`] of the payload as
    /// recorded in the header.
    pub checksum: u64,
    /// Whether the payload bytes on disk hash to the recorded checksum.
    pub checksum_ok: bool,
}

/// A complete engine image: everything needed to boot an [`IGcnEngine`]
/// without re-running islandization, plus (optionally) the prepared
/// model and a default feature matrix for serving/bench workloads.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// The Island Locator configuration the partition was built under.
    pub island_cfg: IslandizationConfig,
    /// The Island Consumer configuration (determines the schedule wave
    /// width baked into the layout).
    pub consumer_cfg: ConsumerConfig,
    /// The serving graph, in original node IDs.
    pub graph: Arc<CsrGraph>,
    /// The islandization partition over original IDs.
    pub partition: IslandPartition,
    /// Locator statistics recorded when the partition was built.
    pub locator_stats: LocatorStats,
    /// The composed physical layout.
    pub layout: Arc<IslandLayout>,
    /// Prepared model + weights, when the captured engine had one.
    pub model: Option<(GnnModel, ModelWeights)>,
    /// A default feature matrix (dataset dumps bundle one so a serving
    /// node can smoke-test itself right after boot).
    pub features: Option<SparseFeatures>,
}

impl Snapshot {
    /// Captures a complete image of `engine` (graph, partition, layout
    /// and — if [`prepare`]d — the model and weights). Shared state is
    /// captured by `Arc`, so this does not copy the graph or layout.
    ///
    /// [`prepare`]: igcn_core::Accelerator::prepare
    pub fn capture(engine: &IGcnEngine) -> Self {
        Snapshot {
            island_cfg: engine.island_config(),
            consumer_cfg: engine.consumer_config(),
            graph: engine.graph_arc(),
            partition: engine.partition().clone(),
            locator_stats: engine.locator_stats().clone(),
            layout: engine.layout_arc(),
            model: engine.prepared_model().map(|(m, w)| (m.clone(), w.clone())),
            features: None,
        }
    }

    /// Bundles a default feature matrix into the snapshot.
    pub fn with_features(mut self, features: SparseFeatures) -> Self {
        self.features = Some(features);
        self
    }

    /// Serialises the snapshot (header + checksummed payload) to
    /// `path`, writing a temporary sibling first and renaming over the
    /// target so readers never observe a half-written file. Returns the
    /// total bytes written.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failures.
    pub fn write(&self, path: impl AsRef<Path>) -> Result<u64, StoreError> {
        self.write_with_checksum(path).map(|(bytes, _)| bytes)
    }

    /// As [`Snapshot::write`], additionally returning the payload
    /// checksum that was written — what a WAL pairs with, known without
    /// re-reading the file just produced.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failures.
    pub fn write_with_checksum(&self, path: impl AsRef<Path>) -> Result<(u64, u64), StoreError> {
        // The header's length and checksum are patched in once the
        // payload is written behind it.
        let mut file = [&SNAPSHOT_MAGIC[..], &SNAPSHOT_VERSION.to_le_bytes(), &[0; 16]].concat();
        self.encode(&mut file);
        let (header, payload) = file.split_at_mut(HEADER_BYTES);
        let checksum = checksum64(payload);
        header[8..16].copy_from_slice(&(payload.len() as u64).to_le_bytes());
        header[16..24].copy_from_slice(&checksum.to_le_bytes());
        publish(path.as_ref(), &file)?;
        Ok((file.len() as u64, checksum))
    }

    /// Reads, verifies (magic, version, length, checksum) and decodes a
    /// snapshot, re-validating every structure through the domain
    /// constructors.
    ///
    /// # Errors
    ///
    /// The full [`StoreError`] taxonomy: I/O, magic/version/length/
    /// checksum failures, undecodable payloads, and structural
    /// validation failures.
    pub fn read(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        Self::read_with_checksum(path).map(|(snapshot, _)| snapshot)
    }

    /// As [`Snapshot::read`], additionally returning the verified
    /// payload checksum **of the bytes that were decoded** — what a WAL
    /// must pair with. Taking it from a second open of the path instead
    /// would pair the log with whatever file holds that name by then
    /// (a checkpoint may rename a new generation in between).
    ///
    /// # Errors
    ///
    /// As [`Snapshot::read`].
    pub fn read_with_checksum(path: impl AsRef<Path>) -> Result<(Self, u64), StoreError> {
        let path = path.as_ref();
        let bytes = crate::io::read(path).map_err(|e| io_err(path, e))?;
        let (payload, checksum) = framed_payload(&bytes)?;
        Ok((Self::decode(payload)?, checksum))
    }

    /// Reads only the header of a snapshot file and verifies the
    /// payload checksum, without decoding the payload.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`], [`StoreError::BadMagic`] or
    /// [`StoreError::Truncated`]; version and checksum mismatches are
    /// *reported* in the returned [`SnapshotInfo`] rather than raised,
    /// so `inspect` can describe any intact header.
    pub fn inspect(path: impl AsRef<Path>) -> Result<SnapshotInfo, StoreError> {
        let path = path.as_ref();
        let bytes = crate::io::read(path).map_err(|e| io_err(path, e))?;
        let header = parse_header(&bytes)?;
        let body = &bytes[HEADER_BYTES..];
        Ok(SnapshotInfo {
            version: header.version,
            payload_bytes: header.payload_bytes,
            checksum: header.checksum,
            checksum_ok: body.len() as u64 == header.payload_bytes
                && checksum64(body) == header.checksum,
        })
    }

    /// Reads just the 24-byte header — the recorded checksum *without*
    /// reading or hashing the payload. This is what WAL pairing uses
    /// ([`crate::EngineStore`]): appending a log record must not cost a
    /// full scan of a multi-megabyte snapshot. Use
    /// [`Snapshot::inspect`] when the payload should be verified too.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`], [`StoreError::BadMagic`] or
    /// [`StoreError::Truncated`].
    pub fn read_header(path: impl AsRef<Path>) -> Result<SnapshotHeader, StoreError> {
        let path = path.as_ref();
        let mut bytes = [0u8; HEADER_BYTES];
        crate::io::read_prefix(path, &mut bytes).map_err(|e| match e.kind() {
            std::io::ErrorKind::UnexpectedEof => {
                StoreError::Truncated { needed: HEADER_BYTES as u64, got: 0 }
            }
            _ => io_err(path, e),
        })?;
        parse_header(&bytes)
    }

    /// Boots an engine from this snapshot — the **warm start**: the
    /// Island Locator pass and the layout composition are skipped
    /// entirely ([`IGcnEngineBuilder::build_from_parts`]), and a stored
    /// model is [`prepare`]d onto the engine.
    ///
    /// [`IGcnEngineBuilder::build_from_parts`]:
    /// igcn_core::IGcnEngineBuilder::build_from_parts
    /// [`prepare`]: igcn_core::Accelerator::prepare
    ///
    /// # Errors
    ///
    /// [`StoreError::Core`] if the parts fail the engine's structural
    /// checks or the stored weights do not match the stored model.
    pub fn warm_engine(&self, exec_cfg: ExecConfig) -> Result<IGcnEngine, StoreError> {
        let mut engine = IGcnEngine::builder(Arc::clone(&self.graph))
            .island_config(self.island_cfg)
            .consumer_config(self.consumer_cfg)
            .exec_config(exec_cfg)
            .build_from_parts(EngineParts {
                partition: self.partition.clone(),
                locator_stats: self.locator_stats.clone(),
                layout: Arc::clone(&self.layout),
            })?;
        if let Some((model, weights)) = &self.model {
            use igcn_core::Accelerator;
            engine.prepare(model, weights)?;
        }
        Ok(engine)
    }
}

// ---------------------------------------------------------------------
// The `magic | version | len | checksum | payload` framing.
// ---------------------------------------------------------------------

/// Publishes a framed snapshot file (write-then-rename, fsynced).
fn publish(path: &Path, file: &[u8]) -> Result<(), StoreError> {
    let tmp = path.with_extension("tmp");
    crate::io::write_durable(&tmp, file)?;
    // Failpoint `store::snapshot::publish`: `return` dies between the
    // durable temp write and the rename (temp orphaned, target intact —
    // the window atomicity must cover); `truncate(K)` simulates a
    // *torn publish* — the first K bytes of the frame land on the final
    // path, the state a non-atomic writer or sector loss at power-off
    // leaves behind, which boot must quarantine.
    match igcn_fail::eval("store::snapshot::publish") {
        Some(igcn_fail::Action::ReturnErr) => {
            return Err(crate::io::injected(path, "store::snapshot::publish"))
        }
        Some(igcn_fail::Action::Truncate(k)) => {
            let _ = crate::io::write_durable(path, &file[..k.min(file.len())]);
            return Err(crate::io::injected(path, "store::snapshot::publish"));
        }
        _ => {}
    }
    crate::io::rename(&tmp, path)
}

/// The header at the front of `bytes`, its magic checked.
fn parse_header(bytes: &[u8]) -> Result<SnapshotHeader, StoreError> {
    let Some(header) = bytes.get(..HEADER_BYTES) else {
        return Err(StoreError::Truncated { needed: HEADER_BYTES as u64, got: bytes.len() as u64 });
    };
    // invariant: `header` is HEADER_BYTES long — every fixed-width
    // field below is there.
    if header[..4] != SNAPSHOT_MAGIC {
        return Err(StoreError::BadMagic { found: header[..4].try_into().expect("four bytes") });
    }
    Ok(SnapshotHeader {
        version: u32::from_le_bytes(header[4..8].try_into().expect("four bytes")),
        payload_bytes: u64::from_le_bytes(header[8..16].try_into().expect("eight bytes")),
        checksum: u64::from_le_bytes(header[16..24].try_into().expect("eight bytes")),
    })
}

/// Validates the framing (magic, exact version, length, checksum) and
/// returns the payload with its checksum.
fn framed_payload(bytes: &[u8]) -> Result<(&[u8], u64), StoreError> {
    let header = parse_header(bytes)?;
    if header.version != SNAPSHOT_VERSION {
        return Err(StoreError::UnsupportedVersion {
            found: header.version,
            supported: SNAPSHOT_VERSION,
        });
    }
    let body = &bytes[HEADER_BYTES..];
    if body.len() as u64 != header.payload_bytes {
        return Err(StoreError::Truncated { needed: header.payload_bytes, got: body.len() as u64 });
    }
    let computed = checksum64(body);
    if computed != header.checksum {
        return Err(StoreError::ChecksumMismatch { expected: header.checksum, computed });
    }
    Ok((body, header.checksum))
}

// ---------------------------------------------------------------------
// The payload (the grammar is in the module docs).
// ---------------------------------------------------------------------

/// Node class of a hub on disk; an island member stores its island.
const CLASS_HUB: u32 = u32::MAX;

impl Snapshot {
    /// The payload's rules (the grammar above) in file order, with the
    /// bytes each takes: what `snapshot_tool inspect` prints.
    pub fn section_bytes(&self) -> Vec<(&'static str, usize)> {
        self.encode(&mut Vec::new())
    }

    /// Writes the payload behind `out`'s bytes; returns
    /// [`Snapshot::section_bytes`].
    fn encode(&self, out: &mut Vec<u8>) -> Vec<(&'static str, usize)> {
        let mut sizes = Vec::with_capacity(8);
        let mut at = out.len();
        let mut mark = |rule, out: &Vec<u8>| {
            sizes.push((rule, out.len() - at));
            at = out.len();
        };
        let island = &self.island_cfg;
        let (tag, threshold) = match island.threshold_init {
            ThresholdInit::MaxDegreeFraction(f) => (0, f.to_bits()),
            ThresholdInit::Absolute(t) => (1, t as u64),
        };
        let consumer = &self.consumer_cfg;
        for v in [
            tag,
            threshold,
            island.c_max as u64,
            island.p1_lanes as u64,
            island.p2_engines as u64,
            island.max_rounds as u64,
            consumer.k as u64,
            consumer.num_pes as u64,
            consumer.redundancy_removal as u64,
        ] {
            put_u64(out, v);
        }
        mark("island_cfg consumer_cfg", out);
        put_graph(out, &self.graph);
        mark("graph", out);
        put_partition(out, &self.partition);
        mark("partition", out);
        put_locator_stats(out, &self.locator_stats);
        mark("locator", out);
        let layout = &self.layout;
        put_u64(out, layout.schedule().wave_width() as u64);
        put_words(out, layout.schedule().work());
        mark("layout wave_width work", out);
        for i in 0..layout.num_islands() {
            put_words(out, layout.bitmap(i).bits());
        }
        mark("layout bits", out);
        put_u64(out, self.model.is_some() as u64);
        if let Some((model, weights)) = &self.model {
            put_model(out, model, weights);
        }
        mark("model", out);
        put_u64(out, self.features.is_some() as u64);
        if let Some(x) = &self.features {
            put_u64(out, x.num_rows() as u64);
            put_u64(out, x.num_cols() as u64);
            put_u64(out, x.nnz() as u64);
            put_u64s(out, x.row_ptr());
            put_u32s(out, x.col_idx());
            pad8(out);
            put_f32s(out, x.values());
            pad8(out);
        }
        mark("features", out);
        sizes
    }

    fn decode(payload: &[u8]) -> Result<Self, StoreError> {
        let mut r = Reader::new(payload, "snapshot", usize::MAX as u64);
        let threshold_init = match (r.u64()?, r.u64()?) {
            (0, f) => ThresholdInit::MaxDegreeFraction(f64::from_bits(f)),
            (1, t) => ThresholdInit::Absolute(narrow(t, "absolute threshold")?),
            (t, _) => return Err(format!("unknown threshold-init tag {t}").into()),
        };
        let island_cfg = IslandizationConfig {
            threshold_init,
            c_max: r.dim_field("c_max")?,
            p1_lanes: r.dim_field("p1_lanes")?,
            p2_engines: r.dim_field("p2_engines")?,
            max_rounds: narrow(r.u64()?, "max_rounds")?,
        };
        // A configuration the engine cannot run makes the snapshot
        // corrupt, in the engine's words (`invalid configuration: …`).
        island_cfg.validate().map_err(|e| e.to_string())?;
        let consumer_cfg = ConsumerConfig {
            k: r.dim_field("k")?,
            num_pes: r.dim_field("num_pes")?,
            redundancy_removal: flag(&mut r, "redundancy-removal")?,
        };
        consumer_cfg.validate().map_err(|e| e.to_string())?;
        let graph = Arc::new(take_graph(&mut r)?);
        let partition = take_partition(&mut r)?;
        let locator_stats = take_locator_stats(&mut r)?;
        let layout = take_layout(&mut r, &graph, &partition)?;
        let model = if flag(&mut r, "model")? { Some(take_model(&mut r)?) } else { None };
        let features = if flag(&mut r, "features")? {
            let rows = r.count_field("feature rows", 8)?;
            let cols = r.dim_field("feature cols")?;
            let nnz = r.count_field("feature non-zeros", 8)?;
            let row_ptr = r.u64s(rows + 1)?;
            let col_idx = r.u32s(nnz)?;
            r.pad8()?;
            let values = r.f32s(nnz)?;
            r.pad8()?;
            Some(SparseFeatures::from_raw_parts(rows, cols, row_ptr, col_idx, values)?)
        } else {
            None
        };
        if r.remaining() != 0 {
            return Err(format!("snapshot payload has {} trailing bytes", r.remaining()).into());
        }
        Ok(Snapshot {
            island_cfg,
            consumer_cfg,
            graph,
            partition,
            locator_stats,
            layout: Arc::new(layout),
            model,
            features,
        })
    }
}

/// A stored u64 that must fit a narrower field.
fn narrow<T: TryFrom<u64>>(v: u64, what: &str) -> Result<T, String> {
    T::try_from(v).map_err(|_| format!("{what} {v} is out of range"))
}

/// A stored 0/1 flag.
fn flag(r: &mut Reader<'_>, what: &str) -> Result<bool, String> {
    match r.u64()? {
        0 => Ok(false),
        1 => Ok(true),
        v => Err(format!("{what} flag {v} is neither 0 nor 1")),
    }
}

/// Writes the `count + 1` offsets of the lists `len` measures — a CSR
/// row pointer.
fn put_offsets<T>(out: &mut Vec<u8>, items: &[T], len: impl Fn(&T) -> usize) {
    let mut end = 0;
    put_u64(out, 0);
    for item in items {
        end += len(item) as u64;
        put_u64(out, end);
    }
}

/// Writes the flat u32 section of the lists `list` names, padded.
fn put_flat<T>(out: &mut Vec<u8>, items: &[T], list: impl Fn(&T) -> &[u32]) {
    for item in items {
        put_u32s(out, list(item));
    }
    pad8(out);
}

/// Reads `count + 1` offsets and checks they form a row pointer: they
/// start at 0 and never decrease, so the last one is the flat section's
/// length and bounds every list in it.
fn take_offsets(r: &mut Reader<'_>, count: usize, what: &str) -> Result<Vec<usize>, String> {
    let offsets = r.u64s(count + 1)?;
    if offsets[0] != 0 || offsets.windows(2).any(|w| w[1] < w[0]) {
        return Err(format!("{what} offsets do not start at 0 and rise"));
    }
    Ok(offsets)
}

/// The lists `offsets` cuts out of the flat section that follows in
/// `r` (`width` bytes an element, then padding), each taken by `take`
/// as it is reached.
fn lists<'p: 'a, 'a, T: 'a>(
    r: &mut Reader<'p>,
    offsets: &'a [usize],
    width: usize,
    take: fn(&mut Reader<'a>, usize) -> Result<Vec<T>, String>,
) -> Result<impl Iterator<Item = Vec<T>> + 'a, String> {
    let mut flat = Reader::new(r.section(offsets[offsets.len() - 1], width)?, "snapshot", 0);
    r.pad8()?;
    // invariant: `take_offsets` checked the offsets rise from 0, and the
    // flat section was taken at the last one's length — every list is
    // there.
    Ok(offsets
        .windows(2)
        .map(move |w| take(&mut flat, w[1] - w[0]).expect("offsets fit the section")))
}

fn put_graph(out: &mut Vec<u8>, g: &CsrGraph) {
    put_u64(out, g.num_nodes() as u64);
    put_u64(out, g.num_directed_edges() as u64);
    put_u64s(out, g.row_ptr());
    put_u32s(out, g.col_idx());
    pad8(out);
}

fn take_graph(r: &mut Reader<'_>) -> Result<CsrGraph, StoreError> {
    let n = r.count_field("node count", 8)?;
    let m = r.count_field("edge count", 4)?;
    let row_ptr = r.u64s(n + 1)?;
    let col_idx = r.u32s(m)?;
    r.pad8()?;
    Ok(CsrGraph::from_raw_parts(n, row_ptr, col_idx)?)
}

fn put_partition(out: &mut Vec<u8>, p: &IslandPartition) {
    let islands = p.islands();
    for v in [p.num_nodes(), islands.len(), p.num_hubs(), p.inter_hub_edges().len(), p.c_max()] {
        put_u64(out, v as u64);
    }
    put_islands(out, islands);
    put_u32s(out, p.hubs());
    pad8(out);
    put_pairs(out, p.inter_hub_edges());
    let classes: Vec<u32> = p
        .node_classes()
        .iter()
        .map(|c| match c {
            NodeClass::Hub => CLASS_HUB,
            NodeClass::Island(i) => *i,
            // Never in a built partition; decodes as a missing island.
            NodeClass::Unclassified => CLASS_HUB - 1,
        })
        .collect();
    put_u32s(out, &classes);
    pad8(out);
}

fn take_partition(r: &mut Reader<'_>) -> Result<IslandPartition, StoreError> {
    let num_nodes = r.count_field("partition node count", 4)?;
    let num_islands = r.count_field("island count", 16)?;
    let num_hubs = r.count_field("hub count", 4)?;
    let num_edges = r.count_field("inter-hub edge count", 8)?;
    let c_max = r.dim_field("partition c_max")?;
    let islands = take_islands(r, num_islands)?;
    let hubs = r.u32s(num_hubs)?;
    r.pad8()?;
    let inter_hub_edges = r.pairs(num_edges)?;
    let classes = r.u32s(num_nodes)?;
    r.pad8()?;
    let mut node_class = Vec::with_capacity(num_nodes);
    for c in classes {
        node_class.push(match c {
            CLASS_HUB => NodeClass::Hub,
            i if (i as usize) < num_islands => NodeClass::Island(i),
            i => {
                return Err(format!("node class {i} names no island ({num_islands} stored)").into())
            }
        });
    }
    Ok(IslandPartition::from_raw_parts(
        num_nodes,
        islands,
        hubs,
        inter_hub_edges,
        node_class,
        c_max,
    )?)
}

/// The `islands` rule of the grammar: what the partition stores of its
/// islands, and a write-ahead log record of the islands an update
/// formed.
pub(crate) fn put_islands(out: &mut Vec<u8>, islands: &[Island]) {
    put_offsets(out, islands, |isl| isl.nodes.len());
    put_offsets(out, islands, |isl| isl.hubs.len());
    put_u32s(out, &islands.iter().map(|isl| isl.round).collect::<Vec<_>>());
    pad8(out);
    put_u32s(out, &islands.iter().map(|isl| isl.engine).collect::<Vec<_>>());
    pad8(out);
    put_flat(out, islands, |isl| &isl.nodes);
    put_flat(out, islands, |isl| &isl.hubs);
}

/// `count` islands by the `islands` rule; `count` must have been checked
/// against the bytes left (16 an island at least).
pub(crate) fn take_islands(r: &mut Reader<'_>, count: usize) -> Result<Vec<Island>, String> {
    let node_offsets = take_offsets(r, count, "island node")?;
    let hub_offsets = take_offsets(r, count, "island hub")?;
    let rounds = r.u32s(count)?;
    r.pad8()?;
    let engines = r.u32s(count)?;
    r.pad8()?;
    let nodes = lists(r, &node_offsets, 4, Reader::u32s)?;
    let hubs = lists(r, &hub_offsets, 4, Reader::u32s)?;
    Ok(nodes
        .zip(hubs)
        .zip(rounds.into_iter().zip(engines))
        .map(|((nodes, hubs), (round, engine))| Island { nodes, hubs, round, engine })
        .collect())
}

pub(crate) fn put_locator_stats(out: &mut Vec<u8>, s: &LocatorStats) {
    put_u64(out, s.rounds.len() as u64);
    put_words(
        out,
        &[
            s.virtual_cycles,
            s.adjacency_words_read,
            s.tasks_generated,
            s.tasks_dropped_conflict,
            s.tasks_dropped_overflow,
            s.tasks_dropped_hub_seed,
            s.inter_hub_edges,
            s.islands_found,
        ],
    );
    let rounds: Vec<u64> = s
        .rounds
        .iter()
        .flat_map(|round| {
            [
                round.round as u64,
                round.threshold as u64,
                round.hubs_found as u64,
                round.islands_found as u64,
                round.island_nodes_classified as u64,
                round.hub_detect_cycles,
                round.bfs_cycles,
            ]
        })
        .collect();
    put_words(out, &rounds);
}

pub(crate) fn take_locator_stats(r: &mut Reader<'_>) -> Result<LocatorStats, String> {
    let num_rounds = r.count_field("locator round count", 7 * 8)?;
    let totals = r.words(8)?;
    let mut rounds = Vec::with_capacity(num_rounds);
    for w in r.words(7 * num_rounds)?.chunks_exact(7) {
        rounds.push(RoundStats {
            round: narrow(w[0], "locator round")?,
            threshold: narrow(w[1], "locator threshold")?,
            hubs_found: narrow(w[2], "hubs found")?,
            islands_found: narrow(w[3], "islands found")?,
            island_nodes_classified: narrow(w[4], "island nodes classified")?,
            hub_detect_cycles: w[5],
            bfs_cycles: w[6],
        });
    }
    Ok(LocatorStats {
        rounds,
        virtual_cycles: totals[0],
        adjacency_words_read: totals[1],
        tasks_generated: totals[2],
        tasks_dropped_conflict: totals[3],
        tasks_dropped_overflow: totals[4],
        tasks_dropped_hub_seed: totals[5],
        inter_hub_edges: totals[6],
        islands_found: totals[7],
    })
}

/// The `layout` rule, over the payload's `graph` and `partition`.
fn take_layout(
    r: &mut Reader<'_>,
    graph: &Arc<CsrGraph>,
    partition: &IslandPartition,
) -> Result<IslandLayout, StoreError> {
    let wave_width = r.dim_field("wave width")?;
    let work = r.words(partition.num_islands())?;
    let bitmaps = take_bitmaps(r, partition.islands())?;
    let schedule = IslandSchedule::from_raw_parts(wave_width, work)?;
    Ok(IslandLayout::from_raw_parts(Arc::clone(graph), partition, schedule, bitmaps)?)
}

/// The `bits` section: one bitmap per island of `islands`, each
/// `d × ⌈d/64⌉` words for `d` = its hubs plus its nodes.
fn take_bitmaps(r: &mut Reader<'_>, islands: &[Island]) -> Result<Vec<IslandBitmap>, String> {
    let dim = |isl: &Island| isl.hubs.len() + isl.nodes.len();
    let mut offsets = Vec::with_capacity(islands.len() + 1);
    offsets.push(0);
    for isl in islands {
        let end = dim(isl)
            .checked_mul(dim(isl).div_ceil(64))
            .and_then(|words| words.checked_add(offsets[offsets.len() - 1]))
            .ok_or("bitmap words overflow")?;
        offsets.push(end);
    }
    let bits = lists(r, &offsets, 8, Reader::words)?;
    islands
        .iter()
        .zip(bits)
        .map(|(isl, bits)| IslandBitmap::from_raw_parts(isl.hubs.len(), dim(isl), bits))
        .collect()
}

fn put_model(out: &mut Vec<u8>, model: &GnnModel, weights: &ModelWeights) {
    let kind = match model.kind() {
        GnnKind::Gcn => 0,
        GnnKind::GraphSage => 1,
        GnnKind::Gin => 2,
    };
    let layers = model.layers();
    put_u64(out, kind);
    put_u64(out, layers.len() as u64);
    put_u64(out, model.epsilon().to_bits() as u64);
    let widths: Vec<usize> =
        std::iter::once(layers[0].in_dim).chain(layers.iter().map(|l| l.out_dim)).collect();
    put_u64s(out, &widths);
    let activations: Vec<u64> = layers
        .iter()
        .map(|l| match l.activation {
            Activation::Relu => 0,
            Activation::None => 1,
        })
        .collect();
    put_words(out, &activations);
    for i in 0..weights.num_layers() {
        put_f32s(out, weights.layer(i).as_slice());
    }
    pad8(out);
}

fn take_model(r: &mut Reader<'_>) -> Result<(GnnModel, ModelWeights), StoreError> {
    let kind = match r.u64()? {
        0 => GnnKind::Gcn,
        1 => GnnKind::GraphSage,
        2 => GnnKind::Gin,
        t => return Err(format!("unknown model kind tag {t}").into()),
    };
    let num_layers = r.count_field("model layer count", 2 * 8)?;
    let epsilon = f32::from_bits(narrow(r.u64()?, "epsilon bits")?);
    if num_layers == 0 {
        return Err("stored model has no layers".to_string().into());
    }
    let widths = r.u64s(num_layers + 1)?;
    let mut layers = Vec::with_capacity(num_layers);
    let mut offsets = vec![0];
    for (w, activation) in widths.windows(2).zip(r.words(num_layers)?) {
        let activation = match activation {
            0 => Activation::Relu,
            1 => Activation::None,
            t => return Err(format!("unknown activation tag {t}").into()),
        };
        let end = usize::checked_mul(w[0], w[1])
            .and_then(|size| size.checked_add(offsets[offsets.len() - 1]))
            .ok_or_else(|| format!("weights of {}×{} overflow", w[0], w[1]))?;
        offsets.push(end);
        layers.push(LayerConfig { in_dim: w[0], out_dim: w[1], activation });
    }
    let matrices = lists(r, &offsets, 4, Reader::f32s)?
        .zip(&layers)
        .map(|(data, l)| DenseMatrix::from_vec(l.in_dim, l.out_dim, data))
        .collect();
    Ok((GnnModel::from_layers(kind, layers, epsilon), ModelWeights::from_matrices(matrices)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use igcn_core::Accelerator;
    use igcn_graph::generate::HubIslandConfig;

    /// An independent walk of a payload by the grammar in the module
    /// docs, noting the file offset at which every section starts.
    struct Walk<'a> {
        r: Reader<'a>,
        len: usize,
        starts: Vec<usize>,
    }

    impl<'a> Walk<'a> {
        fn scalar(&mut self) -> u64 {
            self.r.u64().unwrap()
        }

        fn section(&mut self, count: u64, width: usize) -> &'a [u8] {
            self.starts.push(HEADER_BYTES + self.len - self.r.remaining());
            let bytes = self.r.section(count as usize, width).unwrap();
            self.r.pad8().unwrap();
            bytes
        }

        /// `count + 1` offsets; returns the last, the flat section's length.
        fn offsets(&mut self, count: u64) -> u64 {
            let offsets = self.section(count + 1, 8);
            u64::from_le_bytes(offsets[offsets.len() - 8..].try_into().unwrap())
        }

        fn graph(&mut self) -> u64 {
            let [n, m] = [(); 2].map(|_| self.scalar());
            self.section(n + 1, 8);
            self.section(m, 4);
            n
        }

        fn partition(&mut self) -> u64 {
            let [n, islands, hubs, edges, _c_max] = [(); 5].map(|_| self.scalar());
            let island_nodes = self.offsets(islands);
            let island_hubs = self.offsets(islands);
            for (count, width) in
                [(islands, 4), (islands, 4), (island_nodes, 4), (island_hubs, 4), (hubs, 4)]
            {
                self.section(count, width);
            }
            self.section(edges, 8);
            self.section(n, 4);
            islands
        }
    }

    #[test]
    fn every_section_starts_at_a_multiple_of_eight_from_the_file_start() {
        // 61 nodes and a 7-wide model: odd u32 and f32 sections, which
        // only padding keeps the next section on the grid after.
        let graph = HubIslandConfig::new(61, 5).noise_fraction(0.03).generate(3).graph;
        let mut engine = IGcnEngine::builder(graph).build().unwrap();
        let model = GnnModel::gcn(7, 5, 3);
        engine.prepare(&model, &ModelWeights::glorot(&model, 1)).unwrap();
        let snapshot =
            Snapshot::capture(&engine).with_features(SparseFeatures::random(61, 7, 0.3, 2));
        let mut file = vec![0; HEADER_BYTES];
        snapshot.encode(&mut file);
        let payload = &file[HEADER_BYTES..];

        let mut w = Walk {
            r: Reader::new(payload, "snapshot", u64::MAX),
            len: payload.len(),
            starts: Vec::new(),
        };
        for _ in 0..9 {
            w.scalar(); // the two configurations
        }
        let n = w.graph();
        let islands = w.partition();
        let rounds = w.scalar();
        w.section(8, 8);
        w.section(7 * rounds, 8);
        w.scalar(); // wave width
        w.section(islands, 8); // work
        let partition = engine.partition().islands();
        let dims = partition.iter().map(|isl| (isl.hubs.len() + isl.nodes.len()) as u64);
        w.section(dims.map(|d| d * d.div_ceil(64)).sum(), 8); // bits
        assert_eq!(w.scalar(), 1, "the model is stored");
        let [_kind, layers, _epsilon] = [(); 3].map(|_| w.scalar());
        let le = |b: &[u8]| u64::from_le_bytes(b.try_into().unwrap());
        let widths: Vec<u64> = w.section(layers + 1, 8).chunks_exact(8).map(le).collect();
        w.section(layers, 8);
        w.section(widths.windows(2).map(|l| l[0] * l[1]).sum(), 4);
        assert_eq!(w.scalar(), 1, "the features are stored");
        let [rows, _cols, nnz] = [(); 3].map(|_| w.scalar());
        w.section(rows + 1, 8);
        w.section(nnz, 4);
        w.section(nnz, 4);
        assert_eq!(w.r.remaining(), 0, "the walk covers the whole payload");

        assert_eq!(n % 2, 1, "an odd u32 section is written");
        assert_eq!(w.starts.len(), 21, "every section of the grammar");
        for at in w.starts {
            assert_eq!(at % 8, 0, "a section starts at byte {at}");
        }
    }
}
