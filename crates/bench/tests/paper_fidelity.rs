//! Every published cell of `igcn_bench::paper` against the model.
//!
//! Each cell reached must equal the value recorded at seed 42 (relative
//! 1e-6; host-timed ratios are never pinned) and meet its check: within
//! its tolerance of the published value, or a gap with a written reason.
//! A changed model, generator or baseline fails here even when its new
//! numbers are closer to the paper's: re-record the cell, and its reason,
//! on purpose.

use igcn_bench::paper::{Cell, CELLS, PARTS};
use igcn_bench::{standard_suite, HarnessArgs};
use igcn_graph::datasets::Dataset;

/// Checks every cell `parts` reach over the full-scale suite of
/// `datasets`, and that each cell they cover is reached exactly once.
/// Returns the number of cells read.
fn check(datasets: &[&str], parts: &[&str]) -> usize {
    let datasets_arg = datasets.iter().map(|d| d.to_string()).collect();
    let suite = standard_suite(&HarnessArgs { datasets: datasets_arg, ..HarnessArgs::default() });
    let mut read: Vec<&Cell> = Vec::new();
    for (_, _, reproduce) in PARTS.iter().filter(|p| parts.contains(&p.0)) {
        for (cell, model) in reproduce(&suite).readings {
            if let Some(recorded) = cell.recorded {
                let drift = (model - recorded).abs();
                assert!(
                    drift <= 1e-6 * recorded.abs(),
                    "{}: {model:e} != recorded {recorded:e}",
                    cell.id()
                );
            }
            assert!(cell.holds(model), "{}: model {model} fails {:?}", cell.id(), cell.check);
            read.push(cell);
        }
    }
    let all = datasets.len() == Dataset::ALL.len();
    for cell in CELLS.iter().filter(|c| parts.contains(&c.part)) {
        if matches!(cell.dataset, "-")
            || (cell.dataset == "all" && all)
            || datasets.contains(&cell.dataset)
        {
            assert_eq!(read.iter().filter(|r| **r == cell).count(), 1, "{} read once", cell.id());
        }
    }
    read.len()
}

/// What costs little in a debug build: the citation graphs but for Fig
/// 14(B)'s four-model sweep, which runs on Cora alone, and NELL where it
/// is not reordered or islandized again (Figs 12 and 13, Table 1).
#[test]
fn cheap_cells_match_recorded_and_published() {
    let citation: Vec<&str> = PARTS.iter().map(|p| p.0).filter(|&p| p != "fig14b").collect();
    check(&["cora", "citeseer", "pubmed"], &citation);
    check(&["nell"], &["fig09", "fig10", "fig14a", "table2"]);
    check(&["cora"], &["fig14b"]);
}

#[test]
#[ignore = "Reddit @4 %, NELL's reorderings and the full Fig 14(B) sweep; CI runs it in release"]
fn every_cell_matches_recorded_and_published() {
    assert_eq!(check(&Dataset::ALL.map(Dataset::id), &PARTS.map(|p| p.0)), CELLS.len());
}
