//! The Island Locator: Algorithms 1–4 of the paper.
//!
//! Each round (one iteration of Algorithm 1's while loop):
//!
//! 1. **Hub detection** ([`hub_detect`]) sweeps the unclassified nodes in
//!    `P1` parallel lanes and peels every node whose degree reaches the
//!    current threshold `TH_tmp` into the hub buffer (Algorithm 2).
//! 2. **Task generation** ([`task_gen`]) pops hubs and enqueues one
//!    `(hub, neighbor)` BFS task per neighbor (Algorithm 3) — neighbors,
//!    not hubs, seed the search, which is what lets `P2` engines work one
//!    hub's periphery in parallel.
//! 3. **TP-BFS** ([`tpbfs`]) runs the `P2` engines in deterministic
//!    lock-step until the task queue drains. Engines grow islands to
//!    closure and break on the three conditions of Figure 5: (A) reached a
//!    node another engine already visited, (B) grew past `c_max`, (C)
//!    closure reached — island found.
//!
//! The threshold then decays (Algorithm 1 line 10) and the next round
//! starts, until every node is classified as hub or island node.
//!
//! Parallelism is simulated, not real: engines advance one step per
//! virtual cycle, serviced in index order, so every run is reproducible
//! while still exhibiting the interesting concurrency (global-visited
//! conflicts genuinely occur). Virtual-cycle counts feed the timing model
//! in `igcn-sim`.

pub mod hub_detect;
pub mod task_gen;
pub mod tpbfs;

use igcn_graph::{CsrGraph, NodeId};

use crate::config::IslandizationConfig;
use crate::error::CoreError;
use crate::island::Island;
use crate::partition::{IslandPartition, NodeClass};
use crate::stats::{LocatorStats, RoundStats};

use self::task_gen::TaskQueue;
use self::tpbfs::BfsOutcome;

/// Runs islandization over `graph` with `cfg`, returning the partition.
///
/// Convenience wrapper over [`IslandLocator`]; statistics are discarded.
/// The graph must be symmetric; self-loops are tolerated here by being
/// ignored (the locator operates on the loop-free structure).
///
/// # Panics
///
/// Panics if the graph is not symmetric or the locator exceeds its round
/// bound (see [`IslandizationConfig::max_rounds`]).
pub fn islandize(graph: &CsrGraph, cfg: &IslandizationConfig) -> IslandPartition {
    let (partition, _) = IslandLocator::new(graph, cfg).run().expect("islandization failed");
    partition
}

/// The Island Locator: round-based, threshold-decaying island discovery.
///
/// # Example
///
/// ```
/// use igcn_core::{IslandLocator, IslandizationConfig};
/// use igcn_graph::generate::HubIslandConfig;
///
/// let g = HubIslandConfig::new(200, 8).noise_fraction(0.0).generate(3);
/// let (partition, stats) = IslandLocator::new(&g.graph, &IslandizationConfig::default())
///     .run()
///     .unwrap();
/// assert!(stats.num_rounds() >= 1);
/// assert_eq!(
///     partition.num_hubs() + partition.num_island_nodes(),
///     g.graph.num_nodes()
/// );
/// ```
#[derive(Debug)]
pub struct IslandLocator<'g> {
    graph: &'g CsrGraph,
    cfg: IslandizationConfig,
    degrees: Vec<u32>,
}

impl<'g> IslandLocator<'g> {
    /// Creates a locator for `graph`.
    ///
    /// Degrees are loaded once into the (conceptual) Node Degree Buffers —
    /// hub thresholds compare against these static degrees throughout.
    pub fn new(graph: &'g CsrGraph, cfg: &IslandizationConfig) -> Self {
        let mut degrees = graph.degrees();
        // Self-loops do not count toward hub degree: the locator works on
        // the loop-free structure.
        for v in graph.iter_nodes() {
            if graph.has_edge(v, v) {
                degrees[v.index()] -= 1;
            }
        }
        IslandLocator { graph, cfg: *cfg, degrees }
    }

    /// Runs islandization to completion.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::RoundLimitExceeded`] if `max_rounds` rounds did
    /// not classify every node (indicates a mis-configured decay policy).
    pub fn run(self) -> Result<(IslandPartition, LocatorStats), CoreError> {
        let n = self.graph.num_nodes();
        let mut stats = LocatorStats::default();
        let mut node_class: Vec<NodeClass> = vec![NodeClass::Unclassified; n];
        let mut islands: Vec<Island> = Vec::new();
        let mut hubs: Vec<u32> = Vec::new();
        let mut inter_hub: std::collections::BTreeSet<(u32, u32)> =
            std::collections::BTreeSet::new();
        let mut remaining = n;
        let mut threshold = self
            .cfg
            .threshold_init
            .resolve(self.degrees.iter().map(|&d| d as usize).max().unwrap_or(0));
        let mut round: u32 = 0;
        // Reused across rounds; cleared per round (Algorithm 4 line 3).
        let mut v_global: Vec<u32> = vec![0; n];
        // Tasks dropped by overflow/conflict, retried once the threshold
        // decays (the hardware's task queues simply keep them pending).
        let mut retry: Vec<task_gen::BfsTask> = Vec::new();
        // Per-round seed filter: on hub-dense graphs a member is the
        // neighbor of dozens of hubs and would be enqueued dozens of
        // times, flooding the engines with doomed duplicate searches. A
        // one-bit-per-node queue filter is trivial in hardware. Hub seeds
        // are never filtered: each (hub, hub) task records a distinct
        // inter-hub edge.
        let mut seed_seen: Vec<bool> = vec![false; n];

        while remaining > 0 {
            if round >= self.cfg.max_rounds {
                return Err(CoreError::RoundLimitExceeded {
                    max_rounds: self.cfg.max_rounds,
                    remaining,
                });
            }

            // --- Th1: hub detection (Algorithm 2). ---
            let scanned = remaining;
            let new_hubs = hub_detect::detect_hubs(&self.degrees, &node_class, threshold);
            for &h in &new_hubs {
                node_class[h as usize] = NodeClass::Hub;
                remaining -= 1;
            }
            let hub_detect_cycles = (scanned as u64).div_ceil(self.cfg.p1_lanes as u64).max(1);

            // --- Th2: task generation (Algorithm 3), plus retries of
            // tasks dropped in earlier rounds whose seed is still
            // unclassified. ---
            let mut queue = TaskQueue::new();
            // One retry per seed: duplicate drops of the same region would
            // only multiply conflict traffic.
            retry.sort_by_key(|t| t.seed);
            retry.dedup_by_key(|t| t.seed);
            for task in retry.drain(..) {
                if node_class[task.seed as usize] == NodeClass::Unclassified {
                    queue.push(task.hub, task.seed);
                }
            }
            seed_seen.fill(false);
            let mut adjacency_words = 0u64;
            for &h in &new_hubs {
                adjacency_words += self.degrees[h as usize] as u64;
                for &nb in self.graph.neighbors(NodeId::new(h)) {
                    if nb == h {
                        continue;
                    }
                    if self.degrees[nb as usize] >= threshold {
                        queue.push(h, nb); // hub seed: records an inter-hub edge
                    } else if !seed_seen[nb as usize] {
                        seed_seen[nb as usize] = true;
                        queue.push(h, nb);
                    }
                }
            }
            stats.tasks_generated += queue.len() as u64;

            // --- Th3: TP-BFS over P2 engines in lock-step (Algorithm 4). ---
            v_global.fill(0);
            let outcome: BfsOutcome = tpbfs::run_bfs_phase(
                self.graph,
                &self.degrees,
                threshold,
                self.cfg.c_max,
                self.cfg.p2_engines,
                &mut queue,
                &mut v_global,
                &node_class,
                round,
            );
            adjacency_words += outcome.adjacency_words_read;
            let mut island_nodes_classified = 0usize;
            let islands_this_round = outcome.islands.len();
            for island in outcome.islands {
                let idx = islands.len();
                for &v in &island.nodes {
                    debug_assert_eq!(node_class[v as usize], NodeClass::Unclassified);
                    node_class[v as usize] = NodeClass::Island(idx as u32);
                    remaining -= 1;
                    island_nodes_classified += 1;
                }
                islands.push(island);
            }
            for (a, b) in outcome.inter_hub_edges {
                inter_hub.insert((a.min(b), a.max(b)));
            }
            stats.tasks_dropped_conflict += outcome.dropped_conflict;
            stats.tasks_dropped_overflow += outcome.dropped_overflow;
            stats.tasks_dropped_hub_seed += outcome.dropped_hub_seed;
            retry = outcome.retry_tasks;
            hubs.extend_from_slice(&new_hubs);

            stats.adjacency_words_read += adjacency_words;
            stats.virtual_cycles += hub_detect_cycles + outcome.cycles;
            stats.rounds.push(RoundStats {
                round,
                threshold,
                hubs_found: new_hubs.len(),
                islands_found: islands_this_round,
                island_nodes_classified,
                hub_detect_cycles,
                bfs_cycles: outcome.cycles,
            });

            // --- Terminal round: threshold has bottomed out. Any node
            // still unclassified has degree 0 (threshold 1 peels every node
            // with an edge into the hub buffer); they become singleton
            // islands. The paper does not discuss isolated nodes.
            if threshold == 1 && remaining > 0 {
                let mut singletons = 0usize;
                for (v, class) in node_class.iter_mut().enumerate() {
                    if *class == NodeClass::Unclassified {
                        debug_assert_eq!(self.degrees[v], 0);
                        let idx = islands.len();
                        *class = NodeClass::Island(idx as u32);
                        islands.push(Island {
                            nodes: vec![v as u32],
                            hubs: Vec::new(),
                            round,
                            engine: 0,
                        });
                        remaining -= 1;
                        singletons += 1;
                    }
                }
                if let Some(last) = stats.rounds.last_mut() {
                    last.islands_found += singletons;
                    last.island_nodes_classified += singletons;
                }
            }

            threshold = self.cfg.decay.apply(threshold);
            round += 1;
        }

        stats.islands_found = islands.len() as u64;
        stats.inter_hub_edges = inter_hub.len() as u64;
        let partition = IslandPartition::from_parts(
            n,
            islands,
            hubs,
            inter_hub.into_iter().collect(),
            node_class,
            self.cfg.c_max,
        );
        Ok((partition, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use igcn_graph::generate::{erdos_renyi, HubIslandConfig};

    fn cfg() -> IslandizationConfig {
        IslandizationConfig::default()
    }

    #[test]
    fn classifies_every_node() {
        let g = HubIslandConfig::new(400, 16).generate(1);
        let (p, _) = IslandLocator::new(&g.graph, &cfg()).run().unwrap();
        assert_eq!(p.num_hubs() + p.num_island_nodes(), 400);
        p.check_invariants(&g.graph).unwrap();
    }

    #[test]
    fn pure_structure_recovers_islands() {
        let g = HubIslandConfig::new(600, 20).noise_fraction(0.0).generate(2);
        let (p, stats) = IslandLocator::new(&g.graph, &cfg()).run().unwrap();
        p.check_invariants(&g.graph).unwrap();
        assert!(stats.islands_found > 0);
        // Most non-hub nodes should land in islands, not become hubs.
        assert!(
            p.num_island_nodes() as f64 > 0.5 * g.graph.num_nodes() as f64,
            "only {} island nodes of {}",
            p.num_island_nodes(),
            g.graph.num_nodes()
        );
    }

    #[test]
    fn random_graph_still_terminates_and_covers() {
        let g = erdos_renyi(300, 900, 3);
        let (p, _) = IslandLocator::new(&g, &cfg()).run().unwrap();
        p.check_invariants(&g).unwrap();
    }

    #[test]
    fn isolated_nodes_become_singleton_islands() {
        let g = CsrGraph::from_undirected_edges(5, &[(0, 1)]).unwrap();
        let (p, _) = IslandLocator::new(&g, &cfg()).run().unwrap();
        p.check_invariants(&g).unwrap();
        // Nodes 2, 3, 4 are isolated.
        assert!(p.num_islands() >= 3);
    }

    #[test]
    fn deterministic() {
        let g = HubIslandConfig::new(500, 20).generate(7);
        let (p1, s1) = IslandLocator::new(&g.graph, &cfg()).run().unwrap();
        let (p2, s2) = IslandLocator::new(&g.graph, &cfg()).run().unwrap();
        assert_eq!(p1.num_islands(), p2.num_islands());
        assert_eq!(s1.virtual_cycles, s2.virtual_cycles);
        assert_eq!(p1.hubs(), p2.hubs());
    }

    #[test]
    fn round_limit_error() {
        let g = HubIslandConfig::new(200, 8).generate(4);
        let tight = IslandizationConfig { max_rounds: 0, ..cfg() };
        let err = IslandLocator::new(&g.graph, &tight).run().unwrap_err();
        assert!(matches!(err, CoreError::RoundLimitExceeded { .. }));
    }

    #[test]
    fn self_loops_are_ignored() {
        let g = CsrGraph::from_undirected_edges(4, &[(0, 0), (0, 1), (1, 2), (2, 3)]).unwrap();
        let (p, _) = IslandLocator::new(&g, &cfg()).run().unwrap();
        assert_eq!(p.num_hubs() + p.num_island_nodes(), 4);
    }

    #[test]
    fn cycles_and_reads_are_positive() {
        let g = HubIslandConfig::new(300, 12).generate(5);
        let (_, stats) = IslandLocator::new(&g.graph, &cfg()).run().unwrap();
        assert!(stats.virtual_cycles > 0);
        assert!(stats.adjacency_words_read > 0);
        assert!(stats.num_rounds() >= 1);
    }

    #[test]
    fn more_engines_never_change_classification_totality() {
        let g = HubIslandConfig::new(400, 16).generate(6);
        for engines in [1, 4, 64] {
            let c = IslandizationConfig::default().with_engines(engines);
            let (p, _) = IslandLocator::new(&g.graph, &c).run().unwrap();
            p.check_invariants(&g.graph).unwrap();
        }
    }
}
