//! The graph-update write-ahead log.
//!
//! A snapshot is a point-in-time engine image; the WAL carries the
//! [`GraphUpdate`]s applied *since* that image, so a restarted node
//! replays `snapshot + WAL` and arrives at the exact serving state it
//! went down with. Records are appended **before** the in-memory
//! `apply_update` (write-ahead discipline; a rejected update is rolled
//! back off the log), and a checkpoint resets the log.
//!
//! ```text
//! file   := "IGWL" | snapshot_checksum u64 LE | record*
//! record := len u32 LE | checksum u64 LE (FNV-1a of payload) | payload
//! ```
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
//! corruption and fails with [`StoreError::WalCorrupt`].

use std::io::Write;
use std::path::{Path, PathBuf};

use igcn_core::GraphUpdate;

use crate::error::{io_err, StoreError};
use crate::snapshot::fnv1a64;
use crate::wire::RawUpdate;

/// Leading magic bytes of every WAL file.
pub const WAL_MAGIC: [u8; 4] = *b"IGWL";

/// File header size: magic + paired snapshot checksum.
const WAL_HEADER_BYTES: usize = 4 + 8;

/// Fixed bytes before each record's payload: length + checksum.
const RECORD_HEADER_BYTES: usize = 4 + 8;

/// The decoded contents of a WAL file.
#[derive(Debug, Clone, Default)]
pub struct WalReplay {
    /// The updates to re-apply, in append order.
    pub updates: Vec<GraphUpdate>,
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
        header.extend_from_slice(&self.paired_checksum.to_le_bytes());
        let tmp = self.path.with_extension("wal.tmp");
        crate::io::write_durable(&tmp, &header)?;
        crate::io::rename(&tmp, &self.path)
    }

    /// Reads the pairing header, if the file exists and has one.
    fn read_header(&self) -> Result<Option<u64>, StoreError> {
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
        if bytes[..4] != WAL_MAGIC {
            return Err(StoreError::WalCorrupt {
                offset: 0,
                detail: format!("bad WAL magic {:02x?}", &bytes[..4]),
            });
        }
        // invariant: `bytes` is a fixed [u8; WAL_HEADER_BYTES] array.
        Ok(Some(u64::from_le_bytes(bytes[4..].try_into().expect("eight bytes"))))
    }

    /// Appends one update record (length + checksum + payload,
    /// `fsync`ed before returning — write-ahead means *durable* ahead,
    /// not merely buffered) and returns the byte offset the record
    /// starts at — pass it to [`Wal::rollback_to`] if the in-memory
    /// apply is subsequently rejected.
    ///
    /// A missing log is initialised first; a log paired with a
    /// *different* snapshot (stale after an interrupted checkpoint) is
    /// reset first — its records are folded into the current snapshot
    /// already.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failures;
    /// [`StoreError::WalCorrupt`] if the existing file is not a WAL.
    pub fn append(&self, update: &GraphUpdate) -> Result<u64, StoreError> {
        // No request root here: the span feeds its stage histogram only.
        let _span =
            igcn_obs::trace::OpenSpan::child(igcn_obs::TraceCtx::NONE, igcn_obs::stage::WAL_APPEND);
        match self.read_header()? {
            Some(paired) if paired == self.paired_checksum => {}
            _ => self.reset()?,
        }
        let payload = bitcode::encode(&RawUpdate {
            added_edges: update.added_edges.clone(),
            removed_edges: update.removed_edges.clone(),
            new_num_nodes: update.new_num_nodes,
        });
        let mut record = Vec::with_capacity(RECORD_HEADER_BYTES + payload.len());
        record.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        record.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
        record.extend_from_slice(&payload);
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

    /// Discards everything at and after `offset` — the undo for an
    /// [`Wal::append`] whose in-memory apply was rejected.
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
    /// [`StoreError::WalCorrupt`] on a bad magic or a checksum/decode
    /// failure of a complete record. A torn final record is tolerated
    /// and reported, not an error.
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
        if bytes[..4] != WAL_MAGIC {
            return Err(StoreError::WalCorrupt {
                offset: 0,
                detail: format!("bad WAL magic {:02x?}", &bytes[..4]),
            });
        }
        // invariant: bytes.len() >= WAL_HEADER_BYTES was checked above.
        let paired = u64::from_le_bytes(bytes[4..12].try_into().expect("eight bytes"));
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
            let len =
                u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("four bytes")) as usize;
            let checksum =
                u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().expect("eight bytes"));
            if remaining < RECORD_HEADER_BYTES + len {
                replay.torn_tail_bytes = remaining as u64;
                break;
            }
            let payload = &bytes[pos + RECORD_HEADER_BYTES..pos + RECORD_HEADER_BYTES + len];
            let computed = fnv1a64(payload);
            if computed != checksum {
                return Err(StoreError::WalCorrupt {
                    offset: pos as u64,
                    detail: format!(
                        "record checksum mismatch (recorded {checksum:#018x}, \
                         computed {computed:#018x})"
                    ),
                });
            }
            let raw: RawUpdate = bitcode::decode(payload).map_err(|e| StoreError::WalCorrupt {
                offset: pos as u64,
                detail: format!("record payload decode failed: {e}"),
            })?;
            replay.updates.push(GraphUpdate {
                added_edges: raw.added_edges,
                removed_edges: raw.removed_edges,
                new_num_nodes: raw.new_num_nodes,
            });
            pos += RECORD_HEADER_BYTES + len;
        }
        Ok(replay)
    }
}
