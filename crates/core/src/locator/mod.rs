//! The Island Locator: Algorithms 1–4 of the paper.
//!
//! Algorithm 1's round loop is written once, in this module, and every
//! islandization runs it. It classifies a *residual*: the ascending list
//! of nodes not yet classified. A cold build ([`IslandLocator::run`]) is
//! an update of the empty partition, so its residual is every node;
//! [`incremental_update`] hands it the nodes an update disturbed. Each
//! round (one iteration of Algorithm 1's while loop):
//!
//! 1. **Hub detection** (Algorithm 2) sweeps the residual in `P1`
//!    parallel lanes (`ceil(residual / P1)` cycles) and peels every node
//!    whose loop-free degree reaches the current threshold `TH_tmp` into
//!    the hub buffer, in ascending node order. Classified nodes have left
//!    the residual, which is the hardware's Island Node Filter.
//! 2. **Task generation** ([`task_gen`]) pops hubs and enqueues one
//!    `(hub, neighbor)` BFS task per neighbor (Algorithm 3) — neighbors,
//!    not hubs, seed the search, which is what lets `P2` engines work one
//!    hub's periphery in parallel. Tasks dropped in the round before, and
//!    in an update's first round the tasks of the hubs it kept, join the
//!    queue ahead of them.
//! 3. **TP-BFS** ([`tpbfs`]) runs the `P2` engines in deterministic
//!    lock-step until the task queue drains. Engines grow islands to
//!    closure and break on the three conditions of Figure 5: (A) reached a
//!    node another engine already visited, (B) grew past `c_max`, (C)
//!    closure reached — island found.
//!
//! The threshold then halves (Algorithm 1 line 10) and the next round
//! starts, until every node is classified as hub or island node. At
//! threshold 1 every node with an edge is peeled, so the nodes left after
//! that round have none and become singleton islands (the paper does not
//! discuss isolated nodes).
//!
//! Parallelism is simulated, not real: engines advance one step per
//! virtual cycle, serviced in index order, so every run is reproducible
//! while still exhibiting the interesting concurrency (global-visited
//! conflicts genuinely occur). Virtual-cycle counts feed the timing model
//! in `igcn-sim`.

pub mod task_gen;
pub mod tpbfs;

use igcn_graph::{CsrGraph, NodeId};

use crate::config::{decay, IslandizationConfig};
use crate::error::CoreError;
use crate::incremental::incremental_update;
use crate::island::Island;
use crate::partition::{IslandPartition, NodeClass, Slots};
use crate::stats::{LocatorStats, RoundStats};

use self::task_gen::{BfsTask, TaskQueue};

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
}

impl<'g> IslandLocator<'g> {
    /// Creates a locator for `graph`.
    pub fn new(graph: &'g CsrGraph, cfg: &IslandizationConfig) -> Self {
        IslandLocator { graph, cfg: *cfg }
    }

    /// Runs islandization to completion: the locator rounds over every
    /// node, as an update of the empty partition.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::RoundLimitExceeded`] if
    /// [`IslandizationConfig::max_rounds`] is below the `⌊log₂ TH_o⌋ + 1`
    /// rounds the halving threshold takes to reach 1.
    pub fn run(self) -> Result<(IslandPartition, LocatorStats), CoreError> {
        let result =
            incremental_update(self.graph, IslandPartition::default(), &[], &[], &self.cfg)?;
        Ok((result.partition, result.stats))
    }
}

/// Algorithm 1's round loop. `residual` lists the nodes to classify,
/// ascending, each beside its loop-free degree and `Unclassified` in
/// `node_class`; every other node is a hub or an island member already.
/// The first round runs at `threshold` and its task queue starts with
/// `seeds`. New hubs and new islands are [placed](Slots::place) in
/// `hubs` and `islands` in the order they are found, and every hub–hub
/// edge the BFS reaches goes to `inter_hub` as `(min, max)`, unsorted
/// and with repeats. The statistics cover the rounds alone:
/// `islands_found` and `inter_hub_edges` are left to the caller.
///
/// # Errors
///
/// [`CoreError::RoundLimitExceeded`] if nodes remain after
/// [`IslandizationConfig::max_rounds`] rounds.
#[allow(clippy::too_many_arguments)]
pub(crate) fn locate(
    graph: &CsrGraph,
    cfg: &IslandizationConfig,
    mut threshold: u32,
    mut residual: Vec<(u32, u32)>,
    mut seeds: TaskQueue,
    islands: &mut Slots<Island>,
    hubs: &mut Slots<u32>,
    node_class: &mut [NodeClass],
    inter_hub: &mut Vec<(u32, u32)>,
) -> Result<LocatorStats, CoreError> {
    let n = node_class.len();
    let mut stats = LocatorStats::default();
    // The global visited list, cleared per round (Algorithm 4 line 3).
    let mut v_global: Vec<u32> = vec![0; n];
    // Per-round seed filter: on hub-dense graphs a member is the
    // neighbor of dozens of hubs and would be enqueued dozens of times,
    // flooding the engines with doomed duplicate searches. A
    // one-bit-per-node queue filter is trivial in hardware. Hub seeds
    // are never filtered: each (hub, hub) task records a distinct
    // inter-hub edge.
    let mut seed_seen: Vec<bool> = vec![false; n];
    // Tasks dropped by overflow/conflict, retried once the threshold
    // decays (the hardware's task queues simply keep them pending).
    let mut retry: Vec<BfsTask> = Vec::new();
    let mut round: u32 = 0;

    while !residual.is_empty() {
        if round >= cfg.max_rounds {
            return Err(CoreError::RoundLimitExceeded {
                max_rounds: cfg.max_rounds,
                remaining: residual.len(),
            });
        }
        // --- Th1: hub detection (Algorithm 2), one sweep of the
        // residual. ---
        let new_hubs: Vec<(u32, u32)> =
            residual.iter().copied().filter(|&(_, degree)| degree >= threshold).collect();
        for &(h, _) in &new_hubs {
            node_class[h as usize] = NodeClass::Hub;
        }
        let hub_detect_cycles = (residual.len() as u64).div_ceil(cfg.p1_lanes as u64).max(1);

        // --- Th2: task generation (Algorithm 3) behind the seeds and the
        // retries of tasks whose seed is still unclassified. ---
        let mut queue = std::mem::take(&mut seeds);
        // One retry per seed: duplicate drops of the same region would
        // only multiply conflict traffic.
        retry.sort_by_key(|t| t.seed);
        retry.dedup_by_key(|t| t.seed);
        for task in retry.drain(..) {
            if node_class[task.seed as usize] == NodeClass::Unclassified {
                queue.push(task.hub, task.seed);
            }
        }
        let mut adjacency_words = 0u64;
        for &(h, degree) in &new_hubs {
            adjacency_words += degree as u64;
            for &nb in graph.neighbors(NodeId::new(h)) {
                if nb == h {
                    continue;
                }
                // A residual node's neighbors are residual nodes or hubs:
                // anything else would have kept its island from closing.
                if node_class[nb as usize] == NodeClass::Hub {
                    queue.push(h, nb); // hub seed: records an inter-hub edge
                } else if !seed_seen[nb as usize] {
                    seed_seen[nb as usize] = true;
                    queue.push(h, nb);
                }
            }
        }
        stats.tasks_generated += queue.len() as u64;

        // --- Th3: TP-BFS over P2 engines in lock-step (Algorithm 4). ---
        let outcome = tpbfs::run_bfs_phase(
            graph,
            cfg.c_max,
            cfg.p2_engines,
            &mut queue,
            &mut v_global,
            node_class,
            round,
        );
        adjacency_words += outcome.adjacency_words_read;
        let mut islands_this_round = outcome.islands.len();
        let mut island_nodes_classified = 0usize;
        for island in outcome.islands {
            let slot = islands.slot_of_next(0);
            for &v in &island.nodes {
                debug_assert_eq!(node_class[v as usize], NodeClass::Unclassified);
                node_class[v as usize] = NodeClass::Island(slot);
            }
            island_nodes_classified += island.len();
            islands.place(island);
        }
        inter_hub.extend(outcome.inter_hub_edges.iter().map(|&(a, b)| (a.min(b), a.max(b))));
        retry = outcome.retry_tasks;
        hubs.place_all(new_hubs.iter().map(|&(h, _)| h));

        // The BFS marks and the seed filter only ever land on residual
        // nodes: clear those, not all `n`, and drop what got classified.
        for &(v, _) in &residual {
            v_global[v as usize] = 0;
            seed_seen[v as usize] = false;
        }
        residual.retain(|&(v, _)| node_class[v as usize] == NodeClass::Unclassified);

        // Terminal round: whatever is left has no edge (threshold 1
        // peeled every node with one) and becomes a singleton island.
        if threshold == 1 {
            for (v, _) in residual.drain(..) {
                node_class[v as usize] = NodeClass::Island(islands.slot_of_next(0));
                islands.place(Island { nodes: vec![v], hubs: Vec::new(), round, engine: 0 });
                islands_this_round += 1;
                island_nodes_classified += 1;
            }
        }

        stats.tasks_dropped_conflict += outcome.dropped_conflict;
        stats.tasks_dropped_overflow += outcome.dropped_overflow;
        stats.tasks_dropped_hub_seed += outcome.dropped_hub_seed;
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
        threshold = decay(threshold);
        round += 1;
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ThresholdInit;
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

    #[test]
    fn threshold_is_inclusive() {
        // Node 0 has degree 4.
        let g = CsrGraph::from_undirected_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]).unwrap();
        for (threshold, hubs) in [(4, 1), (5, 0)] {
            let c = cfg().with_threshold_init(ThresholdInit::Absolute(threshold));
            let (_, stats) = IslandLocator::new(&g, &c).run().unwrap();
            assert_eq!(stats.rounds[0].hubs_found, hubs, "threshold {threshold}");
        }
    }

    #[test]
    fn island_nodes_skipped() {
        // Hub 0 over forty two-node islands (members of degree 2), and
        // a path 81–82–83 that only resolves at threshold 2.
        let mut edges = vec![(81, 82), (82, 83)];
        for i in 0..40u32 {
            let a = 1 + 2 * i;
            edges.extend([(0, a), (0, a + 1), (a, a + 1)]);
        }
        let g = CsrGraph::from_undirected_edges(84, &edges).unwrap();
        let (p, stats) = IslandLocator::new(&g, &cfg()).run().unwrap();
        let thresholds: Vec<u32> = stats.rounds.iter().map(|r| r.threshold).collect();
        assert_eq!(thresholds, [40, 20, 10, 5, 2]);
        // The pairs closed in round 0: at threshold 2 their members have
        // left the sweep, and only the path's middle node is peeled.
        assert_eq!(stats.rounds[4].hubs_found, 1);
        assert_eq!(p.hubs(), [0, 82]);
        assert_eq!(p.num_islands(), 42);
    }

    #[test]
    fn hubs_peel_in_ascending_order() {
        let g = HubIslandConfig::new(400, 16).generate(1);
        let (p, stats) = IslandLocator::new(&g.graph, &cfg()).run().unwrap();
        assert!(stats.rounds.iter().any(|r| r.hubs_found > 1));
        let mut hubs = p.hubs();
        for r in &stats.rounds {
            let (peeled, rest) = hubs.split_at(r.hubs_found);
            assert!(peeled.windows(2).all(|w| w[0] < w[1]), "round {}: {peeled:?}", r.round);
            hubs = rest;
        }
        assert!(hubs.is_empty());
    }

    #[test]
    fn empty_input() {
        let g = CsrGraph::from_undirected_edges(0, &[]).unwrap();
        let (p, stats) = IslandLocator::new(&g, &cfg()).run().unwrap();
        assert_eq!((p.num_nodes(), p.num_hubs(), p.num_islands()), (0, 0, 0));
        assert_eq!(stats, LocatorStats::default());
    }
}
