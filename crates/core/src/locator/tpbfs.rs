//! Algorithm 4: Threshold-based Parallel BFS (TP-BFS).
//!
//! Each engine is the three-stage FSM of Figure 6(b): *idle* (requesting a
//! task), *expanding* (scanning one adjacency entry per cycle into its
//! Local Visited Table), and *emit* (closure reached — island found). The
//! three task-break conditions of Figure 5 are:
//!
//! * **(A) conflict** — the engine reaches a node marked in the global
//!   visited list but not its local one: another engine already searched
//!   this region. The engine unmarks its own local nodes and drops the
//!   task.
//! * **(B) overflow** — the local visited list exceeds `c_max`. The task
//!   is dropped; global marks *remain* so sibling engines do not redo the
//!   doomed search this round (the region is retried next round at a lower
//!   threshold).
//! * **(C) island found** — the query pointer catches up with the visited
//!   counter: every member's neighborhood is fully explored and closed.
//!
//! Engines advance in deterministic lock-step (one step per engine per
//! virtual cycle, serviced in index order), so conflicts genuinely occur
//! yet runs are exactly reproducible.

use igcn_graph::{CsrGraph, NodeId};

use crate::island::Island;
use crate::partition::NodeClass;

use super::task_gen::TaskQueue;

/// Result of one round's TP-BFS phase.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct BfsOutcome {
    /// Islands confirmed this round.
    pub islands: Vec<Island>,
    /// Inter-hub edges discovered via hub-seed tasks (may contain
    /// duplicates; the caller deduplicates into the inter-hub edge map).
    pub inter_hub_edges: Vec<(u32, u32)>,
    /// Tasks dropped by overflow or conflict whose seed remains
    /// unclassified — the task queue retries them next round, after the
    /// threshold decays (a region that overflowed through a
    /// not-yet-peeled mid-degree node can close once that node hubifies).
    pub retry_tasks: Vec<super::task_gen::BfsTask>,
    /// Lock-step virtual cycles the phase took.
    pub cycles: u64,
    /// Adjacency-list words streamed from memory during expansion.
    pub adjacency_words_read: u64,
    /// Tasks dropped on break condition (A).
    pub dropped_conflict: u64,
    /// Tasks dropped on break condition (B).
    pub dropped_overflow: u64,
    /// Tasks dropped because the seed was itself a hub.
    pub dropped_hub_seed: u64,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum EngineState {
    Idle,
    Expanding,
}

#[derive(Debug)]
struct Engine {
    state: EngineState,
    token: u32,
    task: super::task_gen::BfsTask,
    v_local: Vec<u32>,
    h_local: Vec<u32>,
    query: usize,
    nb_pos: usize,
}

impl Engine {
    fn new() -> Self {
        Engine {
            state: EngineState::Idle,
            token: 0,
            task: super::task_gen::BfsTask { hub: 0, seed: 0 },
            v_local: Vec::new(),
            h_local: Vec::new(),
            query: 0,
            nb_pos: 0,
        }
    }
}

/// Runs the TP-BFS phase for one round: drains `queue` across
/// `num_engines` lock-step engines.
///
/// Hubs are the nodes `node_class` marks [`NodeClass::Hub`]: the caller
/// peels this round's hubs before the phase starts. `v_global` must be
/// zeroed by the caller at round start (Algorithm 4 line 3); confirmed
/// islands leave their marks for the rest of the round.
///
/// While tasks are pending every cycle services every engine in index
/// order; once the queue is drained an idle engine can only stay idle,
/// so a cycle services just the engines still expanding, still in index
/// order. Both are the same lock-step run: the cycles, the words read
/// and every outcome are what servicing every engine every cycle gives.
pub fn run_bfs_phase(
    graph: &CsrGraph,
    c_max: usize,
    num_engines: usize,
    queue: &mut TaskQueue,
    v_global: &mut [u32],
    node_class: &[NodeClass],
    round: u32,
) -> BfsOutcome {
    assert!(num_engines > 0, "at least one engine is required");
    let mut phase = Phase {
        graph,
        c_max,
        node_class,
        round,
        v_global,
        next_token: 1,
        outcome: BfsOutcome::default(),
    };
    let mut engines: Vec<Engine> = (0..num_engines).map(|_| Engine::new()).collect();

    while !queue.is_empty() {
        let mut any_busy = false;
        for (engine_idx, engine) in engines.iter_mut().enumerate() {
            any_busy |= phase.step(engine, engine_idx, queue);
        }
        phase.outcome.cycles += 1;
        if !any_busy {
            return phase.outcome;
        }
    }
    let mut expanding: Vec<usize> =
        (0..num_engines).filter(|&i| engines[i].state == EngineState::Expanding).collect();
    loop {
        phase.outcome.cycles += 1;
        if expanding.is_empty() {
            return phase.outcome;
        }
        expanding.retain(|&i| {
            phase.step(&mut engines[i], i, queue);
            engines[i].state == EngineState::Expanding
        });
    }
}

/// What one round's engines share: the graph, the configuration, the
/// visited list, the token counter and the outcome so far.
struct Phase<'a> {
    graph: &'a CsrGraph,
    c_max: usize,
    node_class: &'a [NodeClass],
    round: u32,
    v_global: &'a mut [u32],
    next_token: u32,
    outcome: BfsOutcome,
}

impl Phase<'_> {
    /// One cycle of engine `engine_idx`: an idle engine requests a task,
    /// an expanding one scans one adjacency entry (or closes). Returns
    /// whether the engine was busy this cycle. Inlined into both sweeps:
    /// called, it made a Pubmed cold build about 5 % slower.
    #[inline(always)]
    fn step(&mut self, engine: &mut Engine, engine_idx: usize, queue: &mut TaskQueue) -> bool {
        let (node_class, v_global, outcome) =
            (self.node_class, &mut *self.v_global, &mut self.outcome);
        match engine.state {
            EngineState::Idle => {
                let Some(task) = queue.pop() else { return false };
                let seed = task.seed;
                if node_class[seed as usize] == NodeClass::Hub {
                    // Seed is itself a hub: drop the task and forward the
                    // inter-hub connection to the Island Collector.
                    outcome.inter_hub_edges.push((task.hub, seed));
                    outcome.dropped_hub_seed += 1;
                } else if v_global[seed as usize] != 0
                    || node_class[seed as usize] != NodeClass::Unclassified
                {
                    // Region already searched (possibly confirmed) this
                    // round — break condition (A) at the seed. Retried next
                    // round in case the searching engine also dropped.
                    outcome.dropped_conflict += 1;
                    outcome.retry_tasks.push(task);
                } else {
                    engine.token = self.next_token;
                    self.next_token += 1;
                    engine.task = task;
                    engine.v_local.clear();
                    engine.v_local.push(seed);
                    v_global[seed as usize] = engine.token;
                    engine.h_local.clear();
                    engine.h_local.push(task.hub);
                    engine.query = 0;
                    engine.nb_pos = 0;
                    engine.state = EngineState::Expanding;
                }
            }
            EngineState::Expanding => {
                if engine.query == engine.v_local.len() {
                    // Break condition (C): closure — island found.
                    let mut hubs = Vec::with_capacity(engine.h_local.len());
                    for &h in &engine.h_local {
                        if !hubs.contains(&h) {
                            hubs.push(h);
                        }
                    }
                    outcome.islands.push(Island {
                        nodes: std::mem::take(&mut engine.v_local),
                        hubs,
                        round: self.round,
                        engine: engine_idx as u32,
                    });
                    engine.state = EngineState::Idle;
                    return true;
                }
                let node = engine.v_local[engine.query];
                let neighbors = self.graph.neighbors(NodeId::new(node));
                if engine.nb_pos == 0 {
                    // Adjacency list of `node` streamed in from memory.
                    outcome.adjacency_words_read += neighbors.len() as u64;
                }
                if engine.nb_pos >= neighbors.len() {
                    engine.query += 1;
                    engine.nb_pos = 0;
                    return true;
                }
                let n = neighbors[engine.nb_pos];
                engine.nb_pos += 1;
                if n == node {
                    return true; // self-loops do not participate
                }
                if node_class[n as usize] == NodeClass::Hub {
                    engine.h_local.push(n);
                } else if engine.v_local.contains(&n) {
                    // Already locally explored: skip.
                } else if v_global[n as usize] == 0 {
                    engine.v_local.push(n);
                    v_global[n as usize] = engine.token;
                    if engine.v_local.len() > self.c_max {
                        // Break condition (B): overflow. Global marks
                        // remain for the rest of the round; the task
                        // retries after the next threshold decay.
                        outcome.dropped_overflow += 1;
                        outcome.retry_tasks.push(engine.task);
                        engine.state = EngineState::Idle;
                    }
                } else {
                    // Break condition (A): another engine (or a confirmed
                    // island) holds this node. Retract our own marks so
                    // the owner can still absorb them.
                    for &v in &engine.v_local {
                        if v_global[v as usize] == engine.token {
                            v_global[v as usize] = 0;
                        }
                    }
                    outcome.dropped_conflict += 1;
                    outcome.retry_tasks.push(engine.task);
                    engine.state = EngineState::Idle;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The phase as it ran before a drained queue narrowed the sweep:
    /// every cycle services every engine. The oracle of
    /// [`run_bfs_phase`].
    fn every_engine_every_cycle(
        graph: &CsrGraph,
        c_max: usize,
        num_engines: usize,
        queue: &mut TaskQueue,
        v_global: &mut [u32],
        node_class: &[NodeClass],
        round: u32,
    ) -> BfsOutcome {
        assert!(num_engines > 0, "at least one engine is required");
        let mut outcome = BfsOutcome::default();
        let mut engines: Vec<Engine> = (0..num_engines).map(|_| Engine::new()).collect();
        let mut next_token: u32 = 1;

        loop {
            let mut any_busy = false;
            for (engine_idx, engine) in engines.iter_mut().enumerate() {
                match engine.state {
                    EngineState::Idle => {
                        let Some(task) = queue.pop() else { continue };
                        any_busy = true;
                        let seed = task.seed;
                        if node_class[seed as usize] == NodeClass::Hub {
                            // Seed is itself a hub: drop the task and forward
                            // the inter-hub connection to the Island Collector.
                            outcome.inter_hub_edges.push((task.hub, seed));
                            outcome.dropped_hub_seed += 1;
                        } else if v_global[seed as usize] != 0
                            || node_class[seed as usize] != NodeClass::Unclassified
                        {
                            // Region already searched (possibly confirmed) this
                            // round — break condition (A) at the seed. Retried
                            // next round in case the searching engine also
                            // dropped.
                            outcome.dropped_conflict += 1;
                            outcome.retry_tasks.push(task);
                        } else {
                            engine.token = next_token;
                            next_token += 1;
                            engine.task = task;
                            engine.v_local.clear();
                            engine.v_local.push(seed);
                            v_global[seed as usize] = engine.token;
                            engine.h_local.clear();
                            engine.h_local.push(task.hub);
                            engine.query = 0;
                            engine.nb_pos = 0;
                            engine.state = EngineState::Expanding;
                        }
                    }
                    EngineState::Expanding => {
                        any_busy = true;
                        if engine.query == engine.v_local.len() {
                            // Break condition (C): closure — island found.
                            let mut hubs = Vec::with_capacity(engine.h_local.len());
                            for &h in &engine.h_local {
                                if !hubs.contains(&h) {
                                    hubs.push(h);
                                }
                            }
                            outcome.islands.push(Island {
                                nodes: std::mem::take(&mut engine.v_local),
                                hubs,
                                round,
                                engine: engine_idx as u32,
                            });
                            engine.state = EngineState::Idle;
                            continue;
                        }
                        let node = engine.v_local[engine.query];
                        let neighbors = graph.neighbors(NodeId::new(node));
                        if engine.nb_pos == 0 {
                            // Adjacency list of `node` streamed in from memory.
                            outcome.adjacency_words_read += neighbors.len() as u64;
                        }
                        if engine.nb_pos >= neighbors.len() {
                            engine.query += 1;
                            engine.nb_pos = 0;
                            continue;
                        }
                        let n = neighbors[engine.nb_pos];
                        engine.nb_pos += 1;
                        if n == node {
                            continue; // self-loops do not participate
                        }
                        if node_class[n as usize] == NodeClass::Hub {
                            engine.h_local.push(n);
                        } else if engine.v_local.contains(&n) {
                            // Already locally explored: skip.
                        } else if v_global[n as usize] == 0 {
                            engine.v_local.push(n);
                            v_global[n as usize] = engine.token;
                            if engine.v_local.len() > c_max {
                                // Break condition (B): overflow. Global marks
                                // remain for the rest of the round; the task
                                // retries after the next threshold decay.
                                outcome.dropped_overflow += 1;
                                outcome.retry_tasks.push(engine.task);
                                engine.state = EngineState::Idle;
                            }
                        } else {
                            // Break condition (A): another engine (or a
                            // confirmed island) holds this node. Retract our
                            // own marks so the owner can still absorb them.
                            for &v in &engine.v_local {
                                if v_global[v as usize] == engine.token {
                                    v_global[v as usize] = 0;
                                }
                            }
                            outcome.dropped_conflict += 1;
                            outcome.retry_tasks.push(engine.task);
                            engine.state = EngineState::Idle;
                        }
                    }
                }
            }
            outcome.cycles += 1;
            if !any_busy {
                break;
            }
        }
        outcome
    }

    /// Two islands {1,2,3} and {4,5,6} hanging off hub 0.
    fn two_island_graph() -> CsrGraph {
        CsrGraph::from_undirected_edges(
            7,
            &[(0, 1), (0, 4), (1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)],
        )
        .unwrap()
    }

    fn run(
        graph: &CsrGraph,
        threshold: u32,
        c_max: usize,
        engines: usize,
        tasks: &[(u32, u32)],
    ) -> BfsOutcome {
        let mut queue = TaskQueue::new();
        for &(h, s) in tasks {
            queue.push(h, s);
        }
        let mut v_global = vec![0u32; graph.num_nodes()];
        // Every node of degree `threshold` or more is a hub.
        let node_class: Vec<NodeClass> = graph
            .degrees()
            .iter()
            .map(|&d| if d >= threshold { NodeClass::Hub } else { NodeClass::Unclassified })
            .collect();
        run_bfs_phase(graph, c_max, engines, &mut queue, &mut v_global, &node_class, 0)
    }

    #[test]
    fn finds_both_islands() {
        let g = two_island_graph();
        // Hub 0 has degree 2; islands' nodes have degree ≤ 3. Use
        // threshold so node 0 alone is the hub... node 1 and 4 have degree 3.
        // Degrees: 0→2, 1→3, 2→2, 3→2, 4→3, 5→2, 6→2. Take threshold 3:
        // hubs are 1 and 4. Seeds: neighbors of 1 (0,2,3) and of 4 (0,5,6).
        let out = run(&g, 3, 32, 2, &[(1, 0), (1, 2), (1, 3), (4, 0), (4, 5), (4, 6)]);
        // Node 0 bridges the two hubs: its BFS closes as island {0}.
        let total_nodes: usize = out.islands.iter().map(|i| i.len()).sum();
        assert_eq!(total_nodes, 5, "islands {:?}", out.islands);
        assert!(out.islands.iter().any(|i| {
            let mut n = i.nodes.clone();
            n.sort_unstable();
            n == vec![2, 3]
        }));
    }

    #[test]
    fn duplicate_seed_tasks_conflict() {
        let g = two_island_graph();
        let out = run(&g, 3, 32, 1, &[(1, 2), (1, 3)]);
        // Seed 3 is absorbed by the BFS from seed 2, so the second task
        // must drop on the global-visited check.
        assert_eq!(out.islands.len(), 1);
        assert_eq!(out.dropped_conflict, 1);
    }

    #[test]
    fn hub_seed_yields_inter_hub_edge() {
        let g = two_island_graph();
        // Both 1 and 4 have degree 3 = threshold; task (1, 4) is hub-hub...
        // they are not adjacent though; use a graph where hubs touch.
        let g2 =
            CsrGraph::from_undirected_edges(4, &[(0, 1), (0, 2), (1, 3), (0, 3), (1, 2)]).unwrap();
        // Degrees: 0→3, 1→3, 2→2, 3→2. Threshold 3 → hubs {0, 1}.
        let out = run(&g2, 3, 32, 1, &[(0, 1), (0, 2), (0, 3)]);
        assert!(out.inter_hub_edges.contains(&(0, 1)));
        assert_eq!(out.dropped_hub_seed, 1);
        let _ = g;
    }

    #[test]
    fn overflow_drops_task() {
        // A chain longer than c_max seeded from one end.
        let edges: Vec<(u32, u32)> = (0..10).map(|i| (i, i + 1)).collect();
        let g = CsrGraph::from_undirected_edges(11, &edges).unwrap();
        let out = run(&g, 100, 4, 1, &[(0, 1)]);
        assert_eq!(out.islands.len(), 0);
        assert_eq!(out.dropped_overflow, 1);
    }

    #[test]
    fn chain_within_cmax_closes() {
        let edges: Vec<(u32, u32)> = (0..5).map(|i| (i, i + 1)).collect();
        let g = CsrGraph::from_undirected_edges(6, &edges).unwrap();
        // Make node 0 the hub by threshold: degrees are 1,2,2,2,2,1 — use
        // threshold 10 with an injected task so nothing is a hub and the
        // whole chain is one island seeded from node 1... but seed must not
        // be a hub anyway. The island should absorb nodes 0..=5 minus none.
        let out = run(&g, 10, 32, 1, &[(99, 1)]);
        assert_eq!(out.islands.len(), 1);
        assert_eq!(out.islands[0].len(), 6);
        // Fictional hub 99 is carried as the island's contact hub.
        assert_eq!(out.islands[0].hubs, vec![99]);
    }

    #[test]
    fn lockstep_conflict_between_engines() {
        // A single long cycle explored from two seeds at opposite ends:
        // exactly one engine must win, the other must drop by conflict.
        let n = 20u32;
        let edges: Vec<(u32, u32)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        let g = CsrGraph::from_undirected_edges(n as usize, &edges).unwrap();
        let out = run(&g, 10, 32, 2, &[(99, 0), (99, 10)]);
        assert_eq!(out.islands.len() + out.dropped_conflict as usize, 2);
        assert!(out.dropped_conflict >= 1, "two engines on one ring must conflict");
        let covered: usize = out.islands.iter().map(|i| i.len()).sum();
        assert_eq!(covered, n as usize, "winning engine must absorb the whole ring");
    }

    #[test]
    fn adjacency_reads_counted_once_per_visit() {
        let g = CsrGraph::from_undirected_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let out = run(&g, 10, 32, 1, &[(9, 0)]);
        // BFS visits 0 (1 word), 1 (2 words), 2 (1 word) = 4 words.
        assert_eq!(out.adjacency_words_read, 4);
        assert_eq!(out.islands.len(), 1);
    }

    #[test]
    fn cycles_advance() {
        let g = two_island_graph();
        let out = run(&g, 3, 32, 4, &[(1, 2)]);
        assert!(out.cycles > 0);
    }

    /// The narrowed sweep against the every-engine oracle, over
    /// generator graphs at two thresholds, `c_max` ∈ {4, 16, 64} and
    /// `p2_engines` ∈ {1, 3, 64, 256}, with the whole task queue and
    /// with queues shorter than the engine count: the same outcome
    /// (islands, inter-hub edges, retries, cycles, words read, drops)
    /// and the same visited list.
    #[test]
    fn drained_queue_sweep_matches_every_engine_oracle() {
        use igcn_graph::generate::{erdos_renyi, HubIslandConfig};
        let graphs = [
            HubIslandConfig::new(300, 12).noise_fraction(0.02).generate(1).graph,
            HubIslandConfig::new(400, 24).noise_fraction(0.1).generate(2).graph,
            erdos_renyi(200, 500, 3),
        ];
        let (mut compared, mut islands, mut conflicts, mut overflows) = (0, 0, 0, 0);
        for (g_idx, g) in graphs.iter().enumerate() {
            let degrees = g.degrees();
            let max = *degrees.iter().max().unwrap();
            for threshold in [max / 2, (max / 8).max(2)] {
                let node_class: Vec<NodeClass> = degrees
                    .iter()
                    .map(|&d| if d >= threshold { NodeClass::Hub } else { NodeClass::Unclassified })
                    .collect();
                let tasks: Vec<(u32, u32)> = (0..g.num_nodes() as u32)
                    .filter(|&h| node_class[h as usize] == NodeClass::Hub)
                    .flat_map(|h| g.neighbors(NodeId::new(h)).iter().map(move |&nb| (h, nb)))
                    .collect();
                for c_max in [4, 16, 64] {
                    for engines in [1, 3, 64, 256] {
                        for len in [1, engines / 2, tasks.len()] {
                            let run = |every: bool| {
                                let mut queue = TaskQueue::new();
                                for &(h, s) in &tasks[..len.min(tasks.len())] {
                                    queue.push(h, s);
                                }
                                let mut v_global = vec![0u32; g.num_nodes()];
                                let phase =
                                    if every { every_engine_every_cycle } else { run_bfs_phase };
                                let outcome = phase(
                                    g,
                                    c_max,
                                    engines,
                                    &mut queue,
                                    &mut v_global,
                                    &node_class,
                                    3,
                                );
                                (outcome, v_global)
                            };
                            let what = format!(
                                "graph {g_idx}, threshold {threshold}, c_max {c_max}, \
                                 {engines} engines, {len} tasks"
                            );
                            let (narrowed, oracle) = (run(false), run(true));
                            assert_eq!(narrowed, oracle, "{what}");
                            let outcome = narrowed.0;
                            islands += outcome.islands.len();
                            conflicts += outcome.dropped_conflict;
                            overflows += outcome.dropped_overflow;
                            compared += 1;
                        }
                    }
                }
            }
        }
        assert_eq!(compared, 3 * 2 * 3 * 4 * 3);
        // Every break condition occurs somewhere in the sweep.
        assert!(islands > 0 && conflicts > 0 && overflows > 0, "{islands} {conflicts} {overflows}");
    }
}
