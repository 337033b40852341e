//! The graph-update write-ahead log.
//!
//! A snapshot is a point-in-time engine image; the WAL carries the
//! [`GraphUpdate`]s applied *since* that image, so a restarted node
//! replays `snapshot + WAL` and arrives at the exact serving state it
//! went down with. A checkpoint resets the log.
//!
//! A record written by [`EngineStore::apply_update`] carries, beside the
//! update, what that update's locator rounds produced
//! ([`LocatorRounds`]): the islands formed, the hubs promoted, the
//! inter-hub edges at those hubs and the rounds' statistics. The store
//! computes the update, appends and `fsync`s the record, and only then
//! commits the update in memory, so an update the engine rejects never
//! reaches the log. **A boot never searches for a record written by
//! `apply_update`**: replay patches the CSR, dissolves and demotes as
//! the live update did (the cheap, deterministic part), checks the
//! logged rounds against the graph that record produced and applies
//! them ([`IGcnEngine::apply_updates_batched`]). A record written by bare
//! [`Wal::append`] holds no rounds, and replay searches for it.
//!
//! ```text
//! file    := "IGWL" | version u32 LE | snapshot_checksum u64 LE | record*
//! record  := len u64 LE | checksum u64 LE | payload
//! payload := A R has_num_nodes new_num_nodes
//!            added_edges[A]:(u32,u32) removed_edges[R]:(u32,u32) rounds
//! rounds  := 0 | 1 I H E islands hubs[H]:u32 inter_hub_edges[E]:(u32,u32) locator
//! ```
//!
//! with every name a u64, `x[c]:T` a section of `c` elements, and
//! `islands` and `locator` the snapshot's own rules (see
//! [`snapshot`](crate::snapshot)). The record checksum is
//! [`checksum64`] of the payload. Everything is a u64 or a section
//! zero-padded to a multiple of 8 bytes ([`sections`](crate::sections)),
//! so every record and every section starts at a multiple of 8 bytes
//! from the start of the file.
//!
//! **Versions.** [`WAL_VERSION`] is the only layout this build reads
//! (version 3: `checksum64` and the rounds; version 2 used FNV-1a and
//! logged no rounds). [`Wal::replay`] refuses a log of any other
//! version with [`StoreError::UnsupportedVersion`]; [`Wal::append`]
//! resets one, since its pairing names a snapshot this build cannot read
//! either.
//!
//! **Pairing.** The file header names the checksum of the snapshot the
//! log extends. This closes the checkpoint crash window: a checkpoint
//! first renames the new snapshot into place, then resets the log with
//! the new pairing header. If the process dies between the two steps,
//! the old log still names the *old* snapshot's checksum — replay sees
//! the mismatch, reports the log as stale, and discards it instead of
//! double-applying updates the new snapshot already folded in.
//!
//! Replay semantics: records are applied in append order. A **torn
//! tail** — the file ends inside the final record, the signature of a
//! crash mid-append — is tolerated and reported via
//! [`WalReplay::torn_tail_bytes`]; the corresponding update was never
//! acknowledged. A checksum mismatch on any *complete* record is real
//! corruption and fails with [`StoreError::WalCorrupt`], and so, at
//! boot, does a checksum-valid record whose rounds do not fit the graph.
//!
//! [`EngineStore::apply_update`]: crate::EngineStore::apply_update
//! [`IGcnEngine::apply_updates_batched`]: igcn_core::IGcnEngine::apply_updates_batched

use std::io::Write;
use std::path::{Path, PathBuf};

use igcn_core::{GraphUpdate, LocatorRounds};

use crate::error::{io_err, StoreError};
use crate::sections::{checksum64, pad8, put_pairs, put_u32s, put_u64, Reader};
use crate::snapshot::{put_islands, put_locator_stats, take_islands, take_locator_stats};

/// Leading magic bytes of every WAL file.
pub const WAL_MAGIC: [u8; 4] = *b"IGWL";

/// The WAL format version this build reads and writes.
pub const WAL_VERSION: u32 = 3;

/// File header size: magic + version + paired snapshot checksum.
const WAL_HEADER_BYTES: usize = 4 + 4 + 8;

/// Fixed bytes before each record's payload: length + checksum.
const RECORD_HEADER_BYTES: usize = 8 + 8;

/// One decoded record.
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecord {
    /// Byte offset of the record in the file.
    pub offset: u64,
    /// The update it logged.
    pub update: GraphUpdate,
    /// What the update's locator rounds produced, when the record
    /// carries them (every record [`crate::EngineStore::apply_update`]
    /// writes does; [`Wal::append`] writes none).
    pub rounds: Option<LocatorRounds>,
}

/// The decoded contents of a WAL file.
#[derive(Debug, Clone, Default)]
pub struct WalReplay {
    /// The records to re-apply, in append order.
    pub records: Vec<WalRecord>,
    /// Bytes of a torn (incomplete) final record, `0` when the log
    /// ended cleanly. Torn bytes are discarded on the next append.
    pub torn_tail_bytes: u64,
    /// The log named a different snapshot (a checkpoint died between
    /// its two steps); its records are already folded into the current
    /// snapshot and were discarded.
    pub stale_discarded: bool,
}

/// Handle to a write-ahead log paired with one snapshot generation
/// (created lazily on first append; a missing file replays as empty).
#[derive(Debug, Clone)]
pub struct Wal {
    path: PathBuf,
    paired_checksum: u64,
}

impl Wal {
    /// A WAL handle at `path`, extending the snapshot whose payload
    /// checksum is `snapshot_checksum`.
    pub fn paired(path: impl Into<PathBuf>, snapshot_checksum: u64) -> Self {
        Wal { path: path.into(), paired_checksum: snapshot_checksum }
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The snapshot checksum this handle pairs with.
    pub fn paired_checksum(&self) -> u64 {
        self.paired_checksum
    }

    /// Current log size in bytes (0 when the file does not exist).
    pub fn size_bytes(&self) -> u64 {
        std::fs::metadata(&self.path).map(|m| m.len()).unwrap_or(0)
    }

    /// Resets the log to an empty record list paired with this
    /// handle's snapshot checksum (written via a temporary sibling +
    /// rename, so a crash never leaves a half-written header).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failures.
    pub fn reset(&self) -> Result<(), StoreError> {
        // Failpoint `store::wal::reset`: dies before the log is reset —
        // the checkpoint crash window the pairing header closes (the
        // stale log names the old snapshot and is discarded at boot).
        igcn_fail::fail_point!("store::wal::reset", |_| Err(crate::io::injected(
            &self.path,
            "store::wal::reset"
        )));
        let mut header = Vec::with_capacity(WAL_HEADER_BYTES);
        header.extend_from_slice(&WAL_MAGIC);
        header.extend_from_slice(&WAL_VERSION.to_le_bytes());
        header.extend_from_slice(&self.paired_checksum.to_le_bytes());
        let tmp = self.path.with_extension("wal.tmp");
        crate::io::write_durable(&tmp, &header)?;
        crate::io::rename(&tmp, &self.path)
    }

    /// Reads the `(version, pairing)` header, if the file exists and has
    /// one.
    fn read_header(&self) -> Result<Option<(u32, u64)>, StoreError> {
        let mut bytes = [0u8; WAL_HEADER_BYTES];
        let mut file = match std::fs::File::open(&self.path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(io_err(&self.path, e)),
        };
        use std::io::Read;
        match file.read_exact(&mut bytes) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
            Err(e) => return Err(io_err(&self.path, e)),
        }
        parse_header(&bytes).map(Some)
    }

    /// Appends one update record without rounds (length + checksum +
    /// payload, `fsync`ed before returning — write-ahead means
    /// *durable* ahead, not merely buffered) and returns the byte offset
    /// the record starts at, which [`Wal::rollback_to`] takes back to.
    /// Replay searches for such a record's islands.
    ///
    /// A missing log is initialised first; a log paired with a
    /// *different* snapshot (stale after an interrupted checkpoint) is
    /// reset first — its records are folded into the current snapshot
    /// already — and so is a log of another [`WAL_VERSION`].
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failures;
    /// [`StoreError::WalCorrupt`] if the existing file is not a WAL.
    pub fn append(&self, update: &GraphUpdate) -> Result<u64, StoreError> {
        self.append_record(update, None)
    }

    /// [`Wal::append`] of a record that also carries what the update's
    /// locator rounds produced: replay applies `rounds` instead of
    /// searching (what [`crate::EngineStore::apply_update`] writes).
    ///
    /// # Errors
    ///
    /// As [`Wal::append`].
    pub fn append_with_rounds(
        &self,
        update: &GraphUpdate,
        rounds: &LocatorRounds,
    ) -> Result<u64, StoreError> {
        self.append_record(update, Some(rounds))
    }

    fn append_record(
        &self,
        update: &GraphUpdate,
        rounds: Option<&LocatorRounds>,
    ) -> Result<u64, StoreError> {
        // No request root here: the span feeds its stage histogram only.
        let _span =
            igcn_obs::trace::OpenSpan::child(igcn_obs::TraceCtx::NONE, igcn_obs::stage::WAL_APPEND);
        match self.read_header()? {
            Some((WAL_VERSION, paired)) if paired == self.paired_checksum => {}
            _ => self.reset()?,
        }
        let mut record = vec![0; RECORD_HEADER_BYTES];
        encode_record(&mut record, update, rounds);
        let (header, payload) = record.split_at_mut(RECORD_HEADER_BYTES);
        header[..8].copy_from_slice(&(payload.len() as u64).to_le_bytes());
        header[8..].copy_from_slice(&checksum64(payload).to_le_bytes());
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&self.path)
            .map_err(|e| io_err(&self.path, e))?;
        let offset = file.metadata().map_err(|e| io_err(&self.path, e))?.len();
        // Failpoint `store::wal::append`: `return` dies before any byte
        // of the record reaches the log; `truncate(K)` appends only the
        // record's first K bytes — a torn tail replay must discard.
        match igcn_fail::eval("store::wal::append") {
            Some(igcn_fail::Action::ReturnErr) => {
                return Err(crate::io::injected(&self.path, "store::wal::append"))
            }
            Some(igcn_fail::Action::Truncate(k)) => {
                file.write_all(&record[..k.min(record.len())])
                    .map_err(|e| io_err(&self.path, e))?;
                file.sync_all().map_err(|e| io_err(&self.path, e))?;
                return Err(crate::io::injected(&self.path, "store::wal::append"));
            }
            _ => {}
        }
        file.write_all(&record).map_err(|e| io_err(&self.path, e))?;
        // `flush` is a no-op on `File`; only fsync makes the record
        // survive power loss, which is the whole point of logging it
        // before the in-memory apply.
        file.sync_all().map_err(|e| io_err(&self.path, e))?;
        Ok(offset)
    }

    /// Discards everything at and after `offset` — the undo of an
    /// [`Wal::append`] whose update is not to be applied.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failures.
    pub fn rollback_to(&self, offset: u64) -> Result<(), StoreError> {
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(&self.path)
            .map_err(|e| io_err(&self.path, e))?;
        file.set_len(offset).map_err(|e| io_err(&self.path, e))
    }

    /// Reads every record back, in order. A missing file, a header-only
    /// file, or a file paired with a different snapshot all replay as
    /// empty (the last one with [`WalReplay::stale_discarded`] set).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failures;
    /// [`StoreError::UnsupportedVersion`] on a log of another
    /// [`WAL_VERSION`]; [`StoreError::WalCorrupt`] on a bad magic or a
    /// checksum/decode failure of a complete record. A torn final record
    /// is tolerated and reported, not an error.
    pub fn replay(&self) -> Result<WalReplay, StoreError> {
        let bytes = match crate::io::read(&self.path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(WalReplay::default()),
            Err(e) => return Err(io_err(&self.path, e)),
        };
        if bytes.len() < WAL_HEADER_BYTES {
            // An interrupted reset; nothing was ever appended.
            return Ok(WalReplay { torn_tail_bytes: bytes.len() as u64, ..Default::default() });
        }
        let (version, paired) = parse_header(&bytes[..WAL_HEADER_BYTES])?;
        if version != WAL_VERSION {
            return Err(StoreError::UnsupportedVersion { found: version, supported: WAL_VERSION });
        }
        if paired != self.paired_checksum {
            return Ok(WalReplay { stale_discarded: true, ..Default::default() });
        }
        let mut replay = WalReplay::default();
        let mut pos = WAL_HEADER_BYTES;
        while pos < bytes.len() {
            let remaining = bytes.len() - pos;
            if remaining < RECORD_HEADER_BYTES {
                replay.torn_tail_bytes = remaining as u64;
                break;
            }
            // invariant: remaining >= RECORD_HEADER_BYTES was just
            // checked — both header slices exist.
            let len = u64::from_le_bytes(bytes[pos..pos + 8].try_into().expect("eight bytes"));
            let checksum =
                u64::from_le_bytes(bytes[pos + 8..pos + 16].try_into().expect("eight bytes"));
            if len > (remaining - RECORD_HEADER_BYTES) as u64 {
                replay.torn_tail_bytes = remaining as u64;
                break;
            }
            let end = pos + RECORD_HEADER_BYTES + len as usize;
            let payload = &bytes[pos + RECORD_HEADER_BYTES..end];
            let computed = checksum64(payload);
            if computed != checksum {
                return Err(StoreError::WalCorrupt {
                    offset: pos as u64,
                    detail: format!(
                        "record checksum mismatch (recorded {checksum:#018x}, \
                         computed {computed:#018x})"
                    ),
                });
            }
            let (update, rounds) = decode_record(payload).map_err(|e| StoreError::WalCorrupt {
                offset: pos as u64,
                detail: format!("record payload decode failed: {e}"),
            })?;
            replay.records.push(WalRecord { offset: pos as u64, update, rounds });
            pos = end;
        }
        Ok(replay)
    }
}

/// The `(version, pairing)` of a WAL header, its magic checked.
fn parse_header(header: &[u8]) -> Result<(u32, u64), StoreError> {
    if header[..4] != WAL_MAGIC {
        return Err(StoreError::WalCorrupt {
            offset: 0,
            detail: format!("bad WAL magic {:02x?}", &header[..4]),
        });
    }
    // invariant: callers pass all WAL_HEADER_BYTES of a header.
    Ok((
        u32::from_le_bytes(header[4..8].try_into().expect("four bytes")),
        u64::from_le_bytes(header[8..16].try_into().expect("eight bytes")),
    ))
}

/// Appends a record's payload by the grammar in the module docs.
fn encode_record(out: &mut Vec<u8>, update: &GraphUpdate, rounds: Option<&LocatorRounds>) {
    put_u64(out, update.added_edges.len() as u64);
    put_u64(out, update.removed_edges.len() as u64);
    put_u64(out, update.new_num_nodes.is_some() as u64);
    put_u64(out, update.new_num_nodes.unwrap_or(0) as u64);
    put_pairs(out, &update.added_edges);
    put_pairs(out, &update.removed_edges);
    put_u64(out, rounds.is_some() as u64);
    if let Some(rounds) = rounds {
        put_u64(out, rounds.islands.len() as u64);
        put_u64(out, rounds.hubs.len() as u64);
        put_u64(out, rounds.inter_hub_edges.len() as u64);
        put_islands(out, &rounds.islands);
        put_u32s(out, &rounds.hubs);
        pad8(out);
        put_pairs(out, &rounds.inter_hub_edges);
        put_locator_stats(out, &rounds.stats);
    }
}

/// One record's payload back as the update it logged and its rounds.
fn decode_record(payload: &[u8]) -> Result<(GraphUpdate, Option<LocatorRounds>), String> {
    let mut r = Reader::new(payload, "record", usize::MAX as u64);
    let added = r.count_field("added edge count", 8)?;
    let removed = r.count_field("removed edge count", 8)?;
    let new_num_nodes = match (r.u64()?, r.dim_field("new node count")?) {
        (0, 0) => None,
        (1, n) => Some(n),
        (flag, n) => return Err(format!("node-count flag {flag} with count {n}")),
    };
    let update = GraphUpdate {
        added_edges: r.pairs(added)?,
        removed_edges: r.pairs(removed)?,
        new_num_nodes,
    };
    let rounds = match r.u64()? {
        0 => None,
        1 => {
            let islands = r.count_field("island count", 16)?;
            let hubs = r.count_field("hub count", 4)?;
            let edges = r.count_field("inter-hub edge count", 8)?;
            let islands = take_islands(&mut r, islands)?;
            let hubs = r.u32s(hubs)?;
            r.pad8()?;
            Some(LocatorRounds {
                islands,
                hubs,
                inter_hub_edges: r.pairs(edges)?,
                stats: take_locator_stats(&mut r)?,
            })
        }
        flag => return Err(format!("rounds flag {flag} is neither 0 nor 1")),
    };
    if r.remaining() != 0 {
        return Err(format!("record payload has {} trailing bytes", r.remaining()));
    }
    Ok((update, rounds))
}
