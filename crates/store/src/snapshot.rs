//! The versioned, checksummed snapshot file: a complete engine image.
//!
//! ```text
//! +---------+---------+-------------+-------------+================+
//! | "IGSN"  | version | payload_len | payload_sum |    payload     |
//! | 4 bytes | u32 LE  | u64 LE      | u64 LE FNV  | bitcode bytes  |
//! +---------+---------+-------------+-------------+================+
//! ```
//!
//! The payload is the bitcode-encoded `RawSnapshot` (`crate::wire`):
//! islandization + consumer configuration, the serving graph, the
//! partition and locator statistics, the composed physical
//! [`IslandLayout`] (permutation, permuted graph and partition, issue
//! schedule, prebuilt bitmaps, inter-hub tasks), and optionally a
//! prepared model + weights and a default feature matrix.
//!
//! **Versioning / compatibility policy.** The version field is a single
//! monotone format number ([`SNAPSHOT_VERSION`]). A reader accepts
//! exactly the version it was built with: any layout-affecting change
//! to the wire structs must bump the number, and older files then fail
//! fast with [`StoreError::UnsupportedVersion`] (rebuild the snapshot
//! from the source graph — it is a cache of islandization work, never
//! the only copy of primary data). The checksum is FNV-1a 64 over the
//! payload bytes; it guards against corruption, not tampering.

use std::path::Path;
use std::sync::Arc;

use igcn_core::stats::LocatorStats;
use igcn_core::{
    ConsumerConfig, EngineParts, ExecConfig, IGcnEngine, IslandLayout, IslandPartition,
    IslandizationConfig,
};
use igcn_gnn::{GnnModel, ModelWeights};
use igcn_graph::{CsrGraph, SparseFeatures};

use crate::error::{io_err, StoreError};
use crate::wire::{
    weights_from_raw, RawConsumerCfg, RawFeatures, RawGraph, RawIslandCfg, RawLayout,
    RawLocatorStats, RawMatrix, RawModel, RawPartition, RawSnapshot,
};

/// Leading magic bytes of every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"IGSN";

/// The snapshot format version this build reads and writes.
pub const SNAPSHOT_VERSION: u32 = 1;

/// Header size in bytes: magic + version + payload length + checksum.
pub const HEADER_BYTES: usize = 4 + 4 + 8 + 8;

/// FNV-1a 64-bit over `bytes` — the snapshot and WAL checksum.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// The raw 24-byte header of a snapshot file, as
/// [`Snapshot::read_header`] returns it — the payload is *not* read or
/// verified.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotHeader {
    /// Format version recorded in the file.
    pub version: u32,
    /// Payload length the header declares.
    pub payload_bytes: u64,
    /// FNV-1a 64 checksum recorded in the header (unverified).
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
    /// FNV-1a 64 checksum recorded in the header.
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
        write_framed(path.as_ref(), &bitcode::encode(&self.to_raw()))
    }

    /// Reads, verifies (magic, version, length, checksum) and decodes a
    /// snapshot, re-validating every structure through the domain
    /// constructors.
    ///
    /// # Errors
    ///
    /// The full [`StoreError`] taxonomy: I/O, magic/version/length/
    /// checksum failures, codec errors, and structural validation
    /// failures.
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
        let payload = framed_payload(&bytes)?;
        // invariant: `framed_payload` accepted the frame, so the header
        // is whole and its checksum field is the payload's.
        let checksum = u64::from_le_bytes(bytes[16..24].try_into().expect("eight bytes"));
        let raw: RawSnapshot = bitcode::decode(payload)?;
        Ok((Self::from_raw(raw)?, checksum))
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
        inspect_framed(&bytes)
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
        // invariant: `bytes` is a [u8; HEADER_BYTES] array — every
        // fixed-width slice below exists by construction.
        if bytes[..4] != SNAPSHOT_MAGIC {
            return Err(StoreError::BadMagic { found: bytes[..4].try_into().expect("four bytes") });
        }
        Ok(SnapshotHeader {
            version: u32::from_le_bytes(bytes[4..8].try_into().expect("four bytes")),
            payload_bytes: u64::from_le_bytes(bytes[8..16].try_into().expect("eight bytes")),
            checksum: u64::from_le_bytes(bytes[16..24].try_into().expect("eight bytes")),
        })
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

    fn to_raw(&self) -> RawSnapshot {
        RawSnapshot {
            island_cfg: RawIslandCfg(self.island_cfg),
            consumer_cfg: RawConsumerCfg(self.consumer_cfg),
            graph: RawGraph::from_graph(&self.graph),
            partition: RawPartition::from_partition(&self.partition),
            locator_stats: RawLocatorStats(self.locator_stats.clone()),
            layout: RawLayout::from_layout(&self.layout),
            model: self.model.as_ref().map(|(m, _)| RawModel::from_model(m)),
            weights: self.model.as_ref().map(|(_, w)| {
                (0..w.num_layers()).map(|i| RawMatrix::from_matrix(w.layer(i))).collect()
            }),
            features: self.features.as_ref().map(RawFeatures::from_features),
        }
    }

    fn from_raw(raw: RawSnapshot) -> Result<Self, StoreError> {
        let model = match (raw.model, raw.weights) {
            (Some(m), Some(w)) => {
                let model = m.into_model()?;
                let weights = weights_from_raw(w)?;
                igcn_core::accel::validate_weights(&model, &weights)?;
                Some((model, weights))
            }
            (None, None) => None,
            _ => {
                return Err(StoreError::Corrupt {
                    detail: "model and weights must be stored together".to_string(),
                })
            }
        };
        Ok(Snapshot {
            island_cfg: raw.island_cfg.0,
            consumer_cfg: raw.consumer_cfg.0,
            graph: Arc::new(raw.graph.into_graph()?),
            partition: raw.partition.into_partition()?,
            locator_stats: raw.locator_stats.0,
            layout: Arc::new(raw.layout.into_layout()?),
            model,
            features: raw.features.map(RawFeatures::into_features).transpose()?,
        })
    }
}

// ---------------------------------------------------------------------
// The `magic | version | len | checksum | payload` framing.
// ---------------------------------------------------------------------

/// Writes `payload` framed under the snapshot magic and version
/// (write-then-rename, fsynced); returns `(total bytes, payload
/// checksum)`.
fn write_framed(path: &Path, payload: &[u8]) -> Result<(u64, u64), StoreError> {
    let checksum = fnv1a64(payload);
    let mut file = Vec::with_capacity(HEADER_BYTES + payload.len());
    file.extend_from_slice(&SNAPSHOT_MAGIC);
    file.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    file.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    file.extend_from_slice(&checksum.to_le_bytes());
    file.extend_from_slice(payload);
    let tmp = path.with_extension("tmp");
    crate::io::write_durable(&tmp, &file)?;
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
    crate::io::rename(&tmp, path)?;
    Ok((file.len() as u64, checksum))
}

/// Validates the framing (magic, exact version, length, checksum) and
/// returns the payload slice.
fn framed_payload(bytes: &[u8]) -> Result<&[u8], StoreError> {
    if bytes.len() < HEADER_BYTES {
        return Err(StoreError::Truncated { needed: HEADER_BYTES as u64, got: bytes.len() as u64 });
    }
    // invariant: bytes.len() >= HEADER_BYTES was just checked — the
    // fixed-width header slices below cannot fail.
    if bytes[..4] != SNAPSHOT_MAGIC {
        return Err(StoreError::BadMagic { found: bytes[..4].try_into().expect("four bytes") });
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("four bytes"));
    if version != SNAPSHOT_VERSION {
        return Err(StoreError::UnsupportedVersion { found: version, supported: SNAPSHOT_VERSION });
    }
    let payload_len = u64::from_le_bytes(bytes[8..16].try_into().expect("eight bytes"));
    let checksum = u64::from_le_bytes(bytes[16..24].try_into().expect("eight bytes"));
    let body = &bytes[HEADER_BYTES..];
    if body.len() as u64 != payload_len {
        return Err(StoreError::Truncated { needed: payload_len, got: body.len() as u64 });
    }
    let computed = fnv1a64(body);
    if computed != checksum {
        return Err(StoreError::ChecksumMismatch { expected: checksum, computed });
    }
    Ok(body)
}

/// Reads the framing fields without requiring a supported version, and
/// verifies the checksum — the `inspect` path.
fn inspect_framed(bytes: &[u8]) -> Result<SnapshotInfo, StoreError> {
    if bytes.len() < HEADER_BYTES {
        return Err(StoreError::Truncated { needed: HEADER_BYTES as u64, got: bytes.len() as u64 });
    }
    // invariant: bytes.len() >= HEADER_BYTES was just checked.
    if bytes[..4] != SNAPSHOT_MAGIC {
        return Err(StoreError::BadMagic { found: bytes[..4].try_into().expect("four bytes") });
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("four bytes"));
    let payload_bytes = u64::from_le_bytes(bytes[8..16].try_into().expect("eight bytes"));
    let checksum = u64::from_le_bytes(bytes[16..24].try_into().expect("eight bytes"));
    let body = &bytes[HEADER_BYTES..];
    let checksum_ok = body.len() as u64 == payload_bytes && fnv1a64(body) == checksum;
    Ok(SnapshotInfo { version, payload_bytes, checksum, checksum_ok })
}
