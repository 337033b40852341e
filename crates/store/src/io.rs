//! The injectable file-I/O seam.
//!
//! Every byte this crate reads from or writes to disk goes through
//! these helpers, each guarded by a named failpoint
//! ([`igcn_fail`]) — so chaos tests can fail reads, tear writes at an
//! arbitrary byte offset, or kill a rename, without needing a real
//! disk fault. With no failpoint armed each helper is the plain
//! `std::fs` call plus one relaxed atomic load.
//!
//! Seam failpoints (higher-level crash windows — `store::wal::append`,
//! `store::snapshot::publish`, `store::checkpoint::rotated` — live at
//! their call sites):
//!
//! | failpoint | `return` | `truncate(K)` |
//! |---|---|---|
//! | `store::io::write` | fail before any byte | write only the first K bytes (fsynced), then fail |
//! | `store::io::read` | fail the read | serve only the first K bytes of the file |
//! | `store::io::rename` | fail before renaming | — |

use std::io::Write;
use std::path::Path;

use crate::error::{io_err, StoreError};

/// The typed error an armed failpoint injects: an [`StoreError::Io`]
/// naming the point, so recovery paths treat it exactly like a real
/// filesystem failure.
pub(crate) fn injected(path: &Path, point: &str) -> StoreError {
    StoreError::Io {
        path: path.to_path_buf(),
        detail: format!("injected fault at failpoint {point}"),
    }
}

/// Writes `bytes` to `path` and fsyncs before returning — the
/// durability half of every write-then-rename in this crate (a rename
/// only orders metadata; without the fsync a crash can publish a name
/// pointing at unwritten data).
///
/// Failpoint `store::io::write`: `return` fails before any byte is
/// written; `truncate(K)` writes only the first K bytes (fsynced) and
/// then fails — the on-disk signature of a crash mid-write.
pub(crate) fn write_durable(path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    let torn = match igcn_fail::eval("store::io::write") {
        Some(igcn_fail::Action::ReturnErr) => return Err(injected(path, "store::io::write")),
        Some(igcn_fail::Action::Truncate(k)) => Some(k.min(bytes.len())),
        _ => None,
    };
    let mut file = std::fs::File::create(path).map_err(|e| io_err(path, e))?;
    file.write_all(&bytes[..torn.unwrap_or(bytes.len())]).map_err(|e| io_err(path, e))?;
    file.sync_all().map_err(|e| io_err(path, e))?;
    match torn {
        Some(_) => Err(injected(path, "store::io::write")),
        None => Ok(()),
    }
}

/// Reads a whole file, preserving the raw `std::io::Error` (callers
/// branch on `NotFound`).
///
/// Failpoint `store::io::read`: `return` fails the read; `truncate(K)`
/// serves only the first K bytes — what a reader racing a torn write
/// would observe.
pub(crate) fn read(path: &Path) -> std::io::Result<Vec<u8>> {
    let torn = match igcn_fail::eval("store::io::read") {
        Some(igcn_fail::Action::ReturnErr) => {
            return Err(std::io::Error::other("injected fault at failpoint store::io::read"))
        }
        Some(igcn_fail::Action::Truncate(k)) => Some(k),
        _ => None,
    };
    let mut bytes = std::fs::read(path)?;
    if let Some(k) = torn {
        bytes.truncate(k);
    }
    Ok(bytes)
}

/// Fills `prefix` from the start of the file without reading the rest
/// (`UnexpectedEof` if the file is shorter). The same `store::io::read`
/// failpoint guards it — `return` fails the read, `truncate(K)` serves
/// only the first K bytes — so every open of a store file is one hit of
/// that point.
pub(crate) fn read_prefix(path: &Path, prefix: &mut [u8]) -> std::io::Result<()> {
    use std::io::Read;
    match igcn_fail::eval("store::io::read") {
        Some(igcn_fail::Action::ReturnErr) => {
            Err(std::io::Error::other("injected fault at failpoint store::io::read"))
        }
        Some(igcn_fail::Action::Truncate(k)) if k < prefix.len() => {
            Err(std::io::ErrorKind::UnexpectedEof.into())
        }
        _ => std::fs::File::open(path)?.read_exact(prefix),
    }
}

/// Renames `from` over `to`. Failpoint `store::io::rename`: `return`
/// fails before the rename (the temp file is left orphaned, the target
/// untouched — exactly a crash between write and publish).
pub(crate) fn rename(from: &Path, to: &Path) -> Result<(), StoreError> {
    if igcn_fail::eval("store::io::rename").is_some() {
        return Err(injected(to, "store::io::rename"));
    }
    std::fs::rename(from, to).map_err(|e| io_err(to, e))
}
