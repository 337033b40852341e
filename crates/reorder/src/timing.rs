//! Wall-clock timing of reordering algorithms (Figure 12).
//!
//! §4.5 measures the six lightweight reorderers on a 64-thread Xeon and
//! finds the *reordering latency alone* exceeds I-GCN's entire inference.
//! The `paper` bin (`igcn_bench::paper`) times these Rust
//! reimplementations on the host against the modelled I-GCN latency; its
//! Fig 12 cells record how far each lands from the published gap.

use std::time::{Duration, Instant};

use serde::Serialize;

use igcn_graph::{CsrGraph, Permutation};

use crate::traits::Reorderer;

/// The timing result of one reordering run.
#[derive(Debug, Clone, Serialize)]
pub struct TimedReorder {
    /// Algorithm name.
    pub name: String,
    /// Best-of-N wall-clock time in seconds.
    pub seconds: f64,
    /// The permutation produced.
    #[serde(skip)]
    pub permutation: Permutation,
}

impl TimedReorder {
    /// Reordering latency in microseconds (the unit of Figure 12).
    pub fn micros(&self) -> f64 {
        self.seconds * 1e6
    }
}

/// Times `reorderer` over `graph`, best of `runs` repetitions (at least
/// one).
pub fn time_reorder(reorderer: &dyn Reorderer, graph: &CsrGraph, runs: usize) -> TimedReorder {
    let runs = runs.max(1);
    let mut best = Duration::MAX;
    let mut permutation = None;
    for _ in 0..runs {
        let start = Instant::now();
        let p = reorderer.reorder(graph);
        let elapsed = start.elapsed();
        if elapsed < best {
            best = elapsed;
        }
        permutation = Some(p);
    }
    TimedReorder {
        name: reorderer.name(),
        seconds: best.as_secs_f64(),
        permutation: permutation.expect("at least one run"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Identity;
    use igcn_graph::generate::erdos_renyi;

    #[test]
    fn timing_returns_positive_duration() {
        let g = erdos_renyi(500, 2000, 21);
        let t = time_reorder(&Identity, &g, 3);
        assert!(t.seconds >= 0.0);
        assert_eq!(t.name, "identity");
        assert_eq!(t.permutation.len(), 500);
        assert!(t.micros() >= 0.0);
    }

    #[test]
    fn zero_runs_clamped_to_one() {
        let g = erdos_renyi(50, 100, 22);
        let t = time_reorder(&Identity, &g, 0);
        assert_eq!(t.permutation.len(), 50);
    }
}
