//! The materialised island execution schedule.
//!
//! The Island Collector issues island tasks to PEs in waves of
//! `num_pes`; within a wave the islands are data-independent — they
//! touch disjoint island-node output rows, and their hub partial
//! results accumulate in separate DHUB-PRC transactions that the merge
//! phase (software) or the ring network (hardware) serialises. This
//! module materialises that structure as an explicit [`IslandSchedule`]:
//! the wavefront ranges, a per-island work estimate, and the modelled
//! worker occupancy for any software thread count.
//!
//! The schedule is what makes parallel execution *deterministic*: the
//! sequential path iterates the waves in order, and the parallel path
//! fans the same waves across a thread pool but merges per-island
//! results back in wave order, so outputs and statistics are identical
//! at every thread count.

use std::ops::Range;

use serde::{Deserialize, Serialize};

use igcn_graph::{CsrGraph, NodeId};

use crate::island::Island;
use crate::partition::IslandPartition;
use crate::stats::OccupancyStats;

/// Wavefronts of data-independent island tasks plus per-island work
/// estimates.
///
/// # Example
///
/// ```
/// use igcn_core::schedule::IslandSchedule;
/// use igcn_core::{islandize, IslandizationConfig};
/// use igcn_graph::generate::HubIslandConfig;
///
/// let g = HubIslandConfig::new(300, 12).noise_fraction(0.0).generate(5);
/// let p = islandize(&g.graph, &IslandizationConfig::default());
/// let schedule = IslandSchedule::new(&g.graph, &p, 8);
/// assert_eq!(schedule.num_islands(), p.num_islands());
/// assert!(schedule.occupancy(4).utilisation() > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct IslandSchedule {
    num_islands: usize,
    wave_width: usize,
    /// Work estimate per island: bitmap adjacency entries (member
    /// degrees) plus one combination unit per member.
    work: Vec<u64>,
}

impl IslandSchedule {
    /// Builds the schedule for `partition` with issue waves of
    /// `wave_width` islands (the consumer's PE count).
    ///
    /// # Panics
    ///
    /// Panics if `wave_width == 0`.
    pub fn new(graph: &CsrGraph, partition: &IslandPartition, wave_width: usize) -> Self {
        assert!(wave_width > 0, "wave width must be positive");
        let work = partition.islands().iter().map(|isl| Self::island_work(graph, isl)).collect();
        IslandSchedule { num_islands: partition.num_islands(), wave_width, work }
    }

    /// The work estimate of one island of `graph`: its members' degrees
    /// plus one combination unit per bitmap row.
    pub fn island_work(graph: &CsrGraph, island: &Island) -> u64 {
        let degree_sum: u64 =
            island.nodes.iter().map(|&v| graph.degree(NodeId::new(v)) as u64).sum();
        degree_sum + (island.nodes.len() + island.hubs.len()) as u64
    }

    /// Reassembles a schedule from externally stored parts (the
    /// deserialisation path of the snapshot store): one work estimate
    /// per island, issued in waves of `wave_width`.
    ///
    /// # Errors
    ///
    /// Returns a description of the defect if `wave_width` is zero or
    /// the work estimates sum past `u64::MAX` (what
    /// [`IslandSchedule::total_work`] and the occupancy model add up).
    pub fn from_raw_parts(wave_width: usize, work: Vec<u64>) -> Result<Self, String> {
        if wave_width == 0 {
            return Err("schedule wave width must be positive".to_string());
        }
        if work.iter().try_fold(0u64, |sum, &w| sum.checked_add(w)).is_none() {
            return Err("schedule work estimates overflow their sum".to_string());
        }
        Ok(IslandSchedule { num_islands: work.len(), wave_width, work })
    }

    /// Number of scheduled islands.
    pub fn num_islands(&self) -> usize {
        self.num_islands
    }

    /// Islands issued per wave.
    pub fn wave_width(&self) -> usize {
        self.wave_width
    }

    /// Number of issue waves (the last may be narrower).
    pub fn num_waves(&self) -> usize {
        self.num_islands.div_ceil(self.wave_width)
    }

    /// Iterates the island-index ranges of each wave, in issue order.
    pub fn waves(&self) -> impl Iterator<Item = Range<usize>> + '_ {
        let width = self.wave_width;
        let n = self.num_islands;
        (0..self.num_waves()).map(move |w| (w * width)..((w + 1) * width).min(n))
    }

    /// Per-island work estimates, indexed by island.
    pub fn work(&self) -> &[u64] {
        &self.work
    }

    /// Total work units across all islands.
    pub fn total_work(&self) -> u64 {
        self.work.iter().sum()
    }

    /// Models the occupancy of `workers` software threads: islands are
    /// assigned round-robin by their position within each wave, which is
    /// the deterministic equivalent of the pool's dynamic claiming.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn occupancy(&self, workers: usize) -> OccupancyStats {
        assert!(workers > 0, "occupancy needs at least one worker");
        let mut busy = vec![0u64; workers];
        for wave in self.waves() {
            for (pos, island) in wave.enumerate() {
                busy[pos % workers] += self.work[island];
            }
        }
        OccupancyStats { worker_busy_cycles: busy }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IslandizationConfig;
    use crate::locator::islandize;
    use igcn_graph::generate::HubIslandConfig;

    fn schedule() -> IslandSchedule {
        let g = HubIslandConfig::new(400, 16).noise_fraction(0.02).generate(11);
        let p = islandize(&g.graph, &IslandizationConfig::default());
        IslandSchedule::new(&g.graph, &p, 8)
    }

    #[test]
    fn waves_cover_every_island_once() {
        let s = schedule();
        let mut seen = vec![false; s.num_islands()];
        for wave in s.waves() {
            assert!(wave.len() <= s.wave_width());
            for i in wave {
                assert!(!seen[i], "island {i} scheduled twice");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&x| x), "every island must be scheduled");
    }

    #[test]
    fn occupancy_conserves_work() {
        let s = schedule();
        for workers in [1, 2, 4, 8, 64] {
            let occ = s.occupancy(workers);
            assert_eq!(occ.workers(), workers);
            assert_eq!(occ.total_busy(), s.total_work(), "workers={workers}");
            let u = occ.utilisation();
            assert!((0.0..=1.0).contains(&u), "utilisation {u} out of range");
        }
        // One worker is trivially fully utilised.
        assert!((s.occupancy(1).utilisation() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn more_workers_never_increase_makespan() {
        let s = schedule();
        let mut last = u64::MAX;
        for workers in [1, 2, 4, 8] {
            let makespan = s.occupancy(workers).makespan();
            assert!(makespan <= last, "makespan grew at {workers} workers");
            last = makespan;
        }
    }

    #[test]
    fn empty_partition_schedules_nothing() {
        let g = igcn_graph::CsrGraph::from_undirected_edges(2, &[(0, 1)]).unwrap();
        let p = islandize(&g, &IslandizationConfig::default());
        let s = IslandSchedule::new(&g, &p, 4);
        assert_eq!(s.num_islands(), p.num_islands());
        let occ = s.occupancy(3);
        assert_eq!(occ.total_busy(), s.total_work());
    }
}
