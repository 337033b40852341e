//! Shared helpers for the binaries in `src/bin/`.
//!
//! Two kinds of binary live here, and neither measures time for the
//! record:
//!
//! * the **`paper` bin** reproduces the paper's evaluation (Figs 9–14,
//!   Tables 1–2) from the models and simulators through [`paper`], which
//!   also holds every published value the repository compares against.
//!   It prints each figure's table with the published column beside it,
//!   then one fidelity table, and drops CSV/PPM files under the
//!   git-ignored `results/`; `tests/paper_fidelity.rs` checks every cell
//!   through the same functions;
//! * the **operator tools** (`snapshot_tool`, `gateway_tool`,
//!   `chaos_tool`, `obs_tool`, `trace_tool`) build,
//!   inspect and verify on-disk images, serve them, and run the
//!   structural smokes CI relies on — they assert, print a summary to
//!   stdout, exit non-zero on a violation, and write nothing.
//!
//! Wall-clock measurement is the repository benchmark's job alone
//! (`BENCHMARK.json` + `benchmark/`); structure is asserted by
//! `cargo test`.
//!
//! This library provides the common pieces: dataset selection with
//! per-dataset default scales, a tiny argument parser, markdown table
//! rendering, and the `results/` artefact writer.

pub mod args;
pub mod paper;
pub mod suite;
pub mod table;

pub use args::HarnessArgs;
pub use suite::{standard_suite, DatasetRun};
pub use table::Table;

use std::io::Write;
use std::path::{Path, PathBuf};

/// Writes `content` under `results/<name>` (relative to the working
/// directory, created on demand), returning the path.
///
/// # Panics
///
/// Panics on I/O failure (harness binaries want loud failures).
pub fn write_result(name: &str, content: &[u8]) -> PathBuf {
    write_result_in(Path::new("results"), name, content)
}

fn write_result_in(dir: &Path, name: &str, content: &[u8]) -> PathBuf {
    std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path)
        .unwrap_or_else(|e| panic!("cannot create {}: {e}", path.display()));
    f.write_all(content).unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_result_roundtrip() {
        let dir = std::env::temp_dir().join(format!("igcn-bench-selftest-{}", std::process::id()));
        let p = write_result_in(&dir, "harness_selftest.txt", b"ok");
        let back = std::fs::read(&p).unwrap();
        assert_eq!(back, b"ok");
        std::fs::remove_dir_all(dir).ok();
    }
}
