//! Typed errors of the snapshot store.
//!
//! Every failure mode a corrupt file, a version skew or a bad byte can
//! cause is a [`StoreError`] variant — loading a snapshot never panics.

use std::error::Error;
use std::fmt;
use std::path::PathBuf;

use igcn_core::CoreError;
use igcn_graph::GraphError;

/// Errors of snapshot and write-ahead-log I/O, decoding and validation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum StoreError {
    /// The operating system refused a file operation.
    Io {
        /// Path the operation targeted.
        path: PathBuf,
        /// The OS error, rendered (I/O errors are not `Clone`).
        detail: String,
    },
    /// The file does not start with the snapshot magic — it is not a
    /// snapshot at all (or the first bytes were destroyed).
    BadMagic {
        /// The four bytes actually found.
        found: [u8; 4],
    },
    /// The snapshot or write-ahead log was written by an incompatible
    /// format version.
    UnsupportedVersion {
        /// Version recorded in the file.
        found: u32,
        /// Version this build reads and writes
        /// ([`crate::snapshot::SNAPSHOT_VERSION`] or
        /// [`crate::wal::WAL_VERSION`]).
        supported: u32,
    },
    /// The file is shorter than its header promises.
    Truncated {
        /// Bytes the header declared.
        needed: u64,
        /// Bytes actually present after the header.
        got: u64,
    },
    /// The payload bytes do not hash to the recorded checksum — the
    /// snapshot was corrupted after it was written.
    ChecksumMismatch {
        /// Checksum recorded in the header.
        expected: u64,
        /// Checksum of the bytes on disk.
        computed: u64,
    },
    /// The payload does not decode (a count its bytes cannot hold, an
    /// unknown tag, a short section…) or describes an impossible engine
    /// image (an unrunnable configuration, islands that disagree with
    /// their node classes…).
    Corrupt {
        /// Human-readable description of the inconsistency.
        detail: String,
    },
    /// A decoded structure failed the engine's structural validation
    /// ([`IslandPartition::from_raw_parts`] and friends), or warm boot
    /// was rejected by the engine builder.
    ///
    /// [`IslandPartition::from_raw_parts`]:
    /// igcn_core::IslandPartition::from_raw_parts
    Core(CoreError),
    /// A decoded graph or feature matrix failed CSR validation.
    Graph(GraphError),
    /// The write-ahead log is damaged mid-file (a torn *tail* — an
    /// interrupted final append — is tolerated and reported, not an
    /// error).
    WalCorrupt {
        /// Byte offset of the damaged record.
        offset: u64,
        /// Human-readable description.
        detail: String,
    },
    /// Boot found the current snapshot corrupt or missing, quarantined
    /// it when there was a file to quarantine, and the previous
    /// checkpoint generation could not be loaded either — there is
    /// nothing to serve from. Rebuild the snapshot from the source
    /// graph.
    NoUsableSnapshot {
        /// Where the corrupt snapshot was moved
        /// (`<snapshot>.quarantine`); `None` when it was missing
        /// outright.
        quarantined: Option<PathBuf>,
        /// Why the current and previous generations were both rejected.
        detail: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { path, detail } => {
                write!(f, "i/o error on {}: {detail}", path.display())
            }
            StoreError::BadMagic { found } => {
                write!(f, "not an igcn snapshot (magic bytes {found:02x?})")
            }
            StoreError::UnsupportedVersion { found, supported } => {
                write!(
                    f,
                    "format version {found} is not supported \
                     (this build reads version {supported})"
                )
            }
            StoreError::Truncated { needed, got } => {
                write!(
                    f,
                    "snapshot truncated: header promises {needed} payload bytes, {got} present"
                )
            }
            StoreError::ChecksumMismatch { expected, computed } => {
                write!(
                    f,
                    "snapshot checksum mismatch: header records {expected:#018x}, \
                     payload hashes to {computed:#018x}"
                )
            }
            StoreError::Corrupt { detail } => write!(f, "snapshot is inconsistent: {detail}"),
            StoreError::Core(e) => write!(f, "snapshot failed engine validation: {e}"),
            StoreError::Graph(e) => write!(f, "snapshot failed graph validation: {e}"),
            StoreError::WalCorrupt { offset, detail } => {
                write!(f, "write-ahead log damaged at byte {offset}: {detail}")
            }
            StoreError::NoUsableSnapshot { quarantined, detail } => match quarantined {
                Some(q) => write!(
                    f,
                    "no usable snapshot generation (corrupt image quarantined at {}): {detail}",
                    q.display()
                ),
                None => write!(f, "no usable snapshot generation: {detail}"),
            },
        }
    }
}

impl Error for StoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            StoreError::Core(e) => Some(e),
            StoreError::Graph(e) => Some(e),
            _ => None,
        }
    }
}

/// A payload the section cursor refused ([`crate::sections::Reader`]
/// names the defect) is a corrupt snapshot.
impl From<String> for StoreError {
    fn from(detail: String) -> Self {
        StoreError::Corrupt { detail }
    }
}

impl From<CoreError> for StoreError {
    fn from(e: CoreError) -> Self {
        StoreError::Core(e)
    }
}

impl From<GraphError> for StoreError {
    fn from(e: GraphError) -> Self {
        StoreError::Graph(e)
    }
}

/// Wraps an I/O failure with the path it happened on.
pub(crate) fn io_err(path: &std::path::Path, e: std::io::Error) -> StoreError {
    StoreError::Io { path: path.to_path_buf(), detail: e.to_string() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::SNAPSHOT_VERSION;

    #[test]
    fn display_is_informative() {
        let e = StoreError::UnsupportedVersion { found: 9, supported: SNAPSHOT_VERSION };
        assert!(e.to_string().contains("version 9"));
        let e = StoreError::ChecksumMismatch { expected: 1, computed: 2 };
        assert!(e.to_string().contains("checksum"));
        let e = StoreError::WalCorrupt { offset: 12, detail: "boom".to_string() };
        assert!(e.to_string().contains("byte 12"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<StoreError>();
    }
}
