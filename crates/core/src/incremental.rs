//! Incremental re-islandization for evolving graphs.
//!
//! §1 of the paper motivates *runtime* restructuring with evolving and
//! dynamically generated graphs: offline reordering "is not tolerable
//! when processed online". The full Island Locator is already fast, but
//! when a batch of edges arrives on an already-islandized graph, most of
//! the partition is untouched — only structures incident to the new
//! edges can change. This module implements that update:
//!
//! 1. **Dissolve** every island containing an endpoint of an added edge
//!    (hubs never dissolve — their degree only grew).
//! 2. **Keep** every other island, in its slot: the closure invariant
//!    proves it remains valid (an edge that could violate a kept
//!    island's closure would have dissolved it). A kept island keeps its
//!    hubs, its members and every edge at them, which is also why a
//!    layout recomposition may carry everything it holds for the island
//!    over. Kept hubs keep their slots too (see *Stable slots* below).
//! 3. **Re-run** Algorithm 1's round loop (in [`crate::locator`],
//!    the one copy of it) over the dissolved + newly added nodes only,
//!    with pre-existing hubs recognised by classification (their degree
//!    may sit below the current threshold). When the update kept a hub,
//!    a boundary pass over the residual adjacency first queues a BFS
//!    task for every kept hub next to the region; with none kept it
//!    would find nothing, and it is skipped.
//! 4. **Patch** the inter-hub edge map with added hub–hub edges.
//!
//! A cold build is this update applied to the empty partition
//! ([`IslandLocator::run`](crate::locator::IslandLocator::run)): nothing
//! is kept, every node is residual, and no boundary pass runs. The
//! result of any update satisfies the same invariants as a cold build
//! (property-tested, and checked step by step against a cold rebuild in
//! `tests/update_oracle.rs`).
//!
//! Edge *removals* ([`incremental_update`]) extend the same scheme:
//! the islands of a removed edge's endpoints dissolve, and a hub
//! endpoint whose loop-free degree falls below
//! [`IslandizationConfig::hub_floor`] is **demoted** — it re-enters the
//! unclassified pool together with every island it contacts (their
//! closure relied on its hub status), and its inter-hub edges leave the
//! map. The residual locator rounds then re-classify the disturbed
//! region; a demoted node that still qualifies at some decayed threshold
//! simply becomes a hub again, and TP-BFS's hub-seed handling re-records
//! its hub–hub edges.
//!
//! # Replaying a logged update
//!
//! Step 3 is the only part of an update that searches: which islands
//! dissolve, which hubs are demoted, what survives and which hub–hub
//! edges change all follow from the update and the graph. A write-ahead
//! log therefore records beside each update what its rounds produced
//! ([`LocatorRounds`]: the islands formed, the hubs promoted, the
//! inter-hub edges at those hubs and the statistics), and a replay
//! ([`IGcnEngine::apply_updates_batched`](crate::IGcnEngine::apply_updates_batched))
//! runs steps 1, 2 and 4 as the live update did and takes step 3 from
//! the log instead of searching. A log is input from outside the
//! program, so the rounds are first checked against the graph the
//! update produced, in `O(r + Σ degree)` over the residual and the new
//! hubs: distinct new hubs and islands of 1..=`c_max` members cover the
//! residual exactly once; every island is closed and lists exactly its
//! contact hubs; the inter-hub edges are exactly those at the new hubs;
//! rounds, engines and the round count fit the configuration. Rounds
//! that pass leave a partition meeting every invariant a search's
//! would, and rounds a live update recorded replay to exactly its
//! partition and statistics; rounds that fail are
//! [`CoreError::LoggedRoundsRejected`]. An update logged without rounds
//! searches.
//!
//! # The threshold follows the cold schedule
//!
//! The residual rounds start from the threshold a cold run of the
//! *whole* updated graph would start from, not from one resolved on the
//! residual's own degrees. The early rounds then usually find no new hub
//! at all: the existing hubs' boundary tasks get their BFS pass at the
//! disturbed region first, and islands re-form around the hubs that are
//! already there. Starting from the residual's max degree instead
//! promotes its biggest nodes to hubs in round 0 of every update; under
//! add/remove churn that compounded until most of the graph was hubs and
//! the aggregation pruning the islands exist for was gone. What remains
//! is what a cold run does too: a join that grows a region past `c_max`
//! is split by new hubs at a lower threshold, and hubs are only ever
//! demoted by starvation, so those outlive a later removal of the
//! joining edge.
//!
//! # Stable slots
//!
//! An island's index and a hub's place in the hub list are slots that
//! outlive an update, and a layout numbers its hubs and lays out its
//! islands in slot order. Per update (so a batch equals its updates
//! applied one at a time, and a replay the live run): the slots of the
//! islands it dissolved and of the hubs it demoted take what it formed
//! or promoted, in formation order; the holes left take the last island
//! or hub (a moved island's members are re-classed); anything left over
//! is appended. A cold build has no hole, so its slots are the
//! locator's discovery order. Nothing is ever renumbered wholesale.
//!
//! # What an update costs
//!
//! With `n` nodes, `m` directed edges and `r` residual nodes, per
//! update: [`apply_edge_changes`] sorts the deltas and block-copies the
//! untouched CSR rows (`O(n + m)` at copy speed; one patch per batch is
//! not done); the search walks the residual, each node beside its
//! loop-free degree (`O(r)` per round plus the BFS inside, after the
//! visited list's `O(n)` clear), and once the task queue is drained a
//! TP-BFS cycle visits only the engines still expanding; a replay
//! checks the logged rounds instead (one walk of the residual's and the
//! new hubs' rows). A removed hub–hub pair leaves the sorted inter-hub
//! list by binary search (a demotion filters the list); new pairs are
//! merged in by moving the runs between them. Per batch, the layout is
//! recomposed once (`IslandLayout::recompose`):
//! unchanged slots are block copies, only the formed islands read the
//! graph, and the inter-hub lists are patched at the changed hubs —
//! past one changed hub in forty they are derived from scratch, which
//! is then cheaper. Nothing is copied to keep the engine whole on
//! failure: an update that fails is undone by reading the untouched
//! layout back ([`IslandLayout::original_partition`](crate::layout::IslandLayout::original_partition)).
//!
//! Measured on the Pubmed and Cora stand-ins (seed 42, release, a
//! 2-vCPU box shared with other work): 300 updates of 8-edge batches,
//! added then removed, each timed right after a cold build as the
//! benchmark pairs them (caches cold); the stages are the
//! `update_structural` and `layout_recompose` spans; the median of each
//! run, the range over alternating runs (three a side on Pubmed, seven
//! on Cora, whose box ran at two speeds; every pair read the ratio lower
//! after); µs. Before is the per-batch compaction and renumbering:
//!
//! | part | Pubmed before | Pubmed after | Cora before | Cora after |
//! |---|---:|---:|---:|---:|
//! | whole update (p50) | 610–761 | 466–536 | 156–245 | 134–222 |
//! | staging (`update_structural`) | 335–411 | 306–357 | 110–164 | 88–138 |
//! | recompose (`layout_recompose`) | 189–254 | 132–148 | 35–60 | 33–60 |
//! | update ÷ cold build (p50) | 0.049–0.056 | 0.035–0.042 | 0.115–0.130 | 0.104–0.116 |
//!
//! Inside an after-update on Pubmed (section timers): the CSR patch
//! ≈ 105–120, the search ≈ 160–185; in the recompose, the schedule order
//! and the bitmaps put in slot order ≈ 35, the island ranges, hub runs
//! and formed islands ≈ 35, the inter-hub lists ≈ 3 if no hub changed.
//! The patch-vs-scratch switch was swept again, recomposing one layout
//! with `k` hubs listed as changed (inter-hub part only, medians of 41
//! calls; µs): Pubmed (466 hubs, 6 389 pairs) `k` = 0, 4, 8, 12, 32:
//! patch 14, 98, 149, 208, 423 against 171–182 from scratch; Cora (161
//! hubs, 494 pairs) `k` = 0, 4, 8, 32: patch 3.4, 13, 18, 59 against
//! 16–19. A re-derived pair still costs ten to twenty times a
//! from-scratch one, so the switch stays at one in forty; a fully
//! linear patch (a filter and a two-pointer merge) was slower at every
//! `k`.

use std::collections::BTreeSet;

use igcn_graph::{CsrGraph, GraphError, NodeId};

use crate::config::IslandizationConfig;
use crate::error::CoreError;
use crate::island::Island;
use crate::layout::merge_few_into;
use crate::locator::{self, task_gen::TaskQueue};
use crate::partition::{IslandPartition, NodeClass, SlotEdit, Slots};
use crate::stats::LocatorStats;

/// Outcome of an incremental update.
#[derive(Debug, Clone)]
pub struct IncrementalResult {
    /// The refreshed partition, valid for the updated graph. Kept
    /// islands and hubs keep their slots; what the update formed or
    /// promoted takes the slots it emptied (see the module docs).
    pub partition: IslandPartition,
    /// Locator statistics of the incremental rounds only.
    pub stats: LocatorStats,
    /// Indices, in the *old* partition and ascending, of the islands the
    /// update dissolved.
    pub dissolved: Vec<u32>,
    /// Hubs demoted because removals dropped their degree below the hub
    /// floor.
    pub demoted_hubs: usize,
    /// Nodes that had to be re-classified (dissolved members + demoted
    /// hubs + new nodes).
    pub reclassified_nodes: usize,
    /// How the update reshaped the island list: the slots it emptied
    /// and where the islands it formed went.
    pub(crate) island_slots: SlotEdit,
    /// The same for the hub list.
    pub(crate) hub_slots: SlotEdit,
}

/// What the locator rounds of one update produced, in the order they
/// produced it — the part of an update that is a search rather than a
/// function of the update and the graph. A write-ahead log records it
/// beside the update, and a replay applies it in place of the search
/// (after checking it against the updated graph).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LocatorRounds {
    /// The islands formed, in order: members, contact hubs, `round` and
    /// `engine`.
    pub islands: Vec<Island>,
    /// The hubs promoted, in order.
    pub hubs: Vec<u32>,
    /// The loop-free hub–hub edges at a promoted hub, as ascending
    /// `(min, max)` pairs.
    pub inter_hub_edges: Vec<(u32, u32)>,
    /// The rounds' statistics, as the update reports them.
    pub stats: LocatorStats,
}

impl IncrementalResult {
    /// The rounds this update ran, read back out of the partition it
    /// produced over `graph` (the updated graph).
    pub(crate) fn rounds(&self, graph: &CsrGraph) -> LocatorRounds {
        let (islands, hubs) = (self.partition.islands(), self.partition.hubs());
        let hubs: Vec<u32> = self.hub_slots.placed.iter().map(|&s| hubs[s as usize]).collect();
        LocatorRounds {
            islands: self
                .island_slots
                .placed
                .iter()
                .map(|&s| islands[s as usize].clone())
                .collect(),
            inter_hub_edges: hub_edges_at(graph, &hubs, self.partition.node_classes()),
            hubs,
            stats: self.stats.clone(),
        }
    }
}

/// Applies a batch of added undirected edges to an existing partition
/// (the additions-only convenience wrapper over
/// [`incremental_update`]).
///
/// `new_graph` must be the updated graph (old graph + `added_edges`,
/// possibly with new nodes appended); `old` must be a valid partition of
/// the pre-update graph.
///
/// # Errors
///
/// As [`incremental_update`].
pub fn incremental_islandize(
    new_graph: &CsrGraph,
    old: &IslandPartition,
    added_edges: &[(u32, u32)],
    cfg: &IslandizationConfig,
) -> Result<IncrementalResult, CoreError> {
    incremental_update(new_graph, old.clone(), added_edges, &[], cfg)
}

/// Applies a batch of added *and removed* undirected edges to an
/// existing partition, which it consumes: surviving islands move into
/// the result (a caller that must stay unchanged when the update fails
/// gets the old partition back from its layout —
/// [`IslandLayout::original_partition`](crate::layout::IslandLayout::original_partition)).
///
/// `new_graph` must be the updated graph (old graph − `removed_edges` +
/// `added_edges`, possibly with new nodes appended — see
/// [`apply_edge_changes`]); `old` must be a valid partition of the
/// pre-update graph.
///
/// # Errors
///
/// Returns [`CoreError::RoundLimitExceeded`] if
/// [`IslandizationConfig::max_rounds`] is below the `⌊log₂ TH_o⌋ + 1`
/// rounds the halving threshold takes to reach 1, or
/// [`CoreError::ShapeMismatch`] if the graph shrank or an edge batch
/// references nodes beyond `new_graph`.
pub fn incremental_update(
    new_graph: &CsrGraph,
    old: IslandPartition,
    added_edges: &[(u32, u32)],
    removed_edges: &[(u32, u32)],
    cfg: &IslandizationConfig,
) -> Result<IncrementalResult, CoreError> {
    update_partition(new_graph, old, added_edges, removed_edges, cfg, None)
}

/// [`incremental_update`], with step 3 either the search (`logged` is
/// `None`) or the rounds a log recorded for this update, checked
/// against `new_graph` and applied in its place ([`apply_logged`]).
fn update_partition(
    new_graph: &CsrGraph,
    old: IslandPartition,
    added_edges: &[(u32, u32)],
    removed_edges: &[(u32, u32)],
    cfg: &IslandizationConfig,
    logged: Option<LocatorRounds>,
) -> Result<IncrementalResult, CoreError> {
    let n_new = new_graph.num_nodes();
    let n_old = old.num_nodes();
    if n_new < n_old {
        return Err(CoreError::ShapeMismatch {
            what: "updated node count (graphs cannot shrink)".to_string(),
            expected: n_old,
            got: n_new,
        });
    }
    for &(a, b) in added_edges.iter().chain(removed_edges) {
        if a as usize >= n_new || b as usize >= n_new {
            return Err(CoreError::ShapeMismatch {
                what: "edge endpoint vs updated graph".to_string(),
                expected: n_new,
                got: a.max(b) as usize,
            });
        }
    }

    // The locator works on the loop-free structure: a node's self-loop
    // is not an edge of it.
    let loop_free_degree = |v: u32| {
        let node = NodeId::new(v);
        new_graph.degree(node) as u32 - u32::from(new_graph.has_edge(node, node))
    };

    // --- 1: which islands dissolve, which hubs are demoted. Hub
    // endpoints of removed edges whose degree fell below the floor are
    // demoted. Every island such a hub contacts relied on its hub status
    // for closure, so those islands dissolve into the residual region
    // along with the demoted hub itself. ---
    let island_of = |v: u32| ((v as usize) < n_old).then(|| old.island_of(NodeId::new(v)))?;
    let starved_hub = |&v: &u32| {
        (v as usize) < n_old
            && old.class_of(NodeId::new(v)) == NodeClass::Hub
            && loop_free_degree(v) < cfg.hub_floor()
    };
    let demoted: BTreeSet<u32> =
        removed_edges.iter().flat_map(|&(a, b)| [a, b]).filter(starved_hub).collect();
    let endpoints = added_edges.iter().chain(removed_edges).flat_map(|&(a, b)| [a, b]);
    let contacts =
        demoted.iter().flat_map(|&d| new_graph.neighbors(NodeId::new(d)).iter().copied());
    let dirty: BTreeSet<u32> =
        endpoints.chain(contacts).filter_map(island_of).map(|i| i as u32).collect();

    // --- 2: kept islands and hubs keep their slots and classes; a
    // dissolved island's slot and a demoted hub's are holes for what the
    // rounds form. Dissolved members, demoted hubs and new nodes form
    // the residual.
    let (mut islands, hubs, mut inter_hub, mut node_class) = old.into_parts();
    node_class.resize(n_new, NodeClass::Unclassified);
    let mut residual: Vec<u32> = (n_old as u32..n_new as u32).collect();
    for &d in &dirty {
        let island = &mut islands[d as usize];
        residual.extend_from_slice(&std::mem::take(&mut island.nodes));
        island.hubs = Vec::new();
    }
    let hub_holes = (0u32..).zip(&hubs).filter(|(_, h)| demoted.contains(h)).map(|(s, _)| s);
    let hub_holes: Vec<u32> = if demoted.is_empty() { Vec::new() } else { hub_holes.collect() };
    residual.extend(&demoted);
    let hubs_kept = hubs.len() > demoted.len();
    let mut islands = Slots::new(islands, dirty.iter().copied().collect());
    let mut hubs = Slots::new(hubs, hub_holes);
    // Ascending: hub detection emits hubs, and the boundary pass seeds,
    // in node order.
    residual.sort_unstable();
    for &v in &residual {
        node_class[v as usize] = NodeClass::Unclassified;
    }
    let reclassified = residual.len();

    // --- 4 (early): hub–hub edge changes patch the sorted map in
    // place; edges the rounds discover are merged in at the end. A
    // removed pair is found by binary search; a demoted hub takes every
    // pair at it, which only a pass over the whole map finds. ---
    if demoted.is_empty() {
        for &(a, b) in removed_edges {
            if let Ok(at) = inter_hub.binary_search(&(a.min(b), a.max(b))) {
                inter_hub.remove(at);
            }
        }
    } else {
        let gone: BTreeSet<(u32, u32)> =
            removed_edges.iter().map(|&(a, b)| (a.min(b), a.max(b))).collect();
        inter_hub
            .retain(|e| !gone.contains(e) && !demoted.contains(&e.0) && !demoted.contains(&e.1));
    }
    let mut new_inter_hub: Vec<(u32, u32)> = added_edges
        .iter()
        .filter(|&&(a, b)| {
            node_class[a as usize] == NodeClass::Hub && node_class[b as usize] == NodeClass::Hub
        })
        .map(|&(a, b)| (a.min(b), a.max(b)))
        .collect();

    // --- 3: the locator rounds over the residual region, or the rounds
    // a log recorded for this update. ---
    let mut stats = match logged {
        Some(rounds) => apply_logged(
            new_graph,
            cfg,
            rounds,
            reclassified,
            &mut islands,
            &mut hubs,
            &mut node_class,
            &mut new_inter_hub,
        )?,
        None => {
            // The rounds read a degree only for a residual node (hubs are
            // recognised by class), so each carries its own, loop-free.
            // They run on the cold run's threshold schedule (see the
            // module docs). Kept hubs next to the region re-seed it
            // (their original tasks were consumed long ago): one pass
            // over the residual adjacency finds the contacts. With no
            // hub kept there is nothing to find, and a cold build skips
            // the pass.
            let residual: Vec<(u32, u32)> =
                residual.into_iter().map(|v| (v, loop_free_degree(v))).collect();
            let mut seeds = TaskQueue::new();
            let mut seed_words = 0u64;
            if hubs_kept {
                for &(v, degree) in &residual {
                    seed_words += degree as u64;
                    for &nb in new_graph.neighbors(NodeId::new(v)) {
                        if node_class[nb as usize] == NodeClass::Hub {
                            seeds.push(nb, v);
                        }
                    }
                }
            }
            let mut stats = locator::locate(
                new_graph,
                cfg,
                cfg.threshold_init.resolve(max_loop_free_degree(new_graph)),
                residual,
                seeds,
                &mut islands,
                &mut hubs,
                &mut node_class,
                &mut new_inter_hub,
            )?;
            stats.adjacency_words_read += seed_words;
            stats
        }
    };
    // The holes nothing refilled take the last entries; an island moved
    // so renames its members' class.
    let (islands, island_slots) = islands.close(|island, slot| {
        for &v in &island.nodes {
            node_class[v as usize] = NodeClass::Island(slot);
        }
    });
    let (hubs, hub_slots) = hubs.close(|_, _| {});

    // Merged in place, in one pass that moves the runs between them:
    // the partition outlives the update and keeps no spare capacity.
    new_inter_hub.sort_unstable();
    new_inter_hub.dedup();
    new_inter_hub.retain(|e| inter_hub.binary_search(e).is_err());
    if !new_inter_hub.is_empty() {
        inter_hub.reserve_exact(new_inter_hub.len());
        inter_hub.extend_from_slice(&new_inter_hub);
        merge_few_into(&mut inter_hub, &new_inter_hub, |pair| pair);
    }
    stats.islands_found = islands.len() as u64;
    stats.inter_hub_edges = inter_hub.len() as u64;
    let partition =
        IslandPartition::from_parts(n_new, islands, hubs, inter_hub, node_class, cfg.c_max);
    Ok(IncrementalResult {
        partition,
        stats,
        dissolved: dirty.into_iter().collect(),
        demoted_hubs: demoted.len(),
        reclassified_nodes: reclassified,
        island_slots,
        hub_slots,
    })
}

/// Step 3 of a replayed update: the rounds a log recorded, checked
/// against the updated `graph` and then applied where the search would
/// have put its results. On entry the `residual` nodes — and no others
/// — are unclassified in `node_class`. The checks cost `O(Σ degree)`
/// over the residual and the new hubs, and they admit exactly the
/// rounds that leave a partition satisfying every invariant:
///
/// * the statistics list at most `max_rounds` rounds;
/// * the new hubs are distinct residual nodes;
/// * every island is non-empty, at most `c_max` nodes, found in a round
///   below `max_rounds` by an engine below `p2_engines`, and its members
///   are distinct residual nodes that are not hubs;
/// * the islands and the new hubs cover the residual exactly once;
/// * every island is closed — each loop-free neighbour of a member is a
///   member or a hub — and its hub list is exactly its distinct contact
///   hubs;
/// * the inter-hub edges are exactly the loop-free hub–hub edges at a
///   new hub.
///
/// # Errors
///
/// [`CoreError::LoggedRoundsRejected`] naming the first rule broken.
#[allow(clippy::too_many_arguments)]
fn apply_logged(
    graph: &CsrGraph,
    cfg: &IslandizationConfig,
    rounds: LocatorRounds,
    residual: usize,
    islands: &mut Slots<Island>,
    hubs: &mut Slots<u32>,
    node_class: &mut [NodeClass],
    new_inter_hub: &mut Vec<(u32, u32)>,
) -> Result<LocatorStats, CoreError> {
    let reject = |detail: String| Err(CoreError::LoggedRoundsRejected { update: 0, detail });
    let LocatorRounds { islands: formed, hubs: new_hubs, inter_hub_edges, stats } = rounds;
    if stats.rounds.len() > cfg.max_rounds as usize {
        return reject(format!(
            "{} rounds listed, max_rounds is {}",
            stats.rounds.len(),
            cfg.max_rounds
        ));
    }
    // A node may be claimed once, and only while it is an unclassified
    // (so residual) node of the graph.
    let mut claim = |v: u32, class: NodeClass| match node_class.get_mut(v as usize) {
        Some(slot) if *slot == NodeClass::Unclassified => {
            *slot = class;
            true
        }
        _ => false,
    };
    for &h in &new_hubs {
        if !claim(h, NodeClass::Hub) {
            return reject(format!("new hub {h} is not an unclaimed residual node"));
        }
    }
    let mut claimed = new_hubs.len();
    for (i, island) in formed.iter().enumerate() {
        if island.is_empty() || island.len() > cfg.c_max {
            return reject(format!(
                "island {i} has {} members, c_max is {}",
                island.len(),
                cfg.c_max
            ));
        }
        if island.round >= cfg.max_rounds || island.engine as usize >= cfg.p2_engines {
            return reject(format!(
                "island {i} names round {} / engine {} (max_rounds {}, p2_engines {})",
                island.round, island.engine, cfg.max_rounds, cfg.p2_engines
            ));
        }
        let class = NodeClass::Island(islands.slot_of_next(i));
        if let Some(&v) = island.nodes.iter().find(|&&v| !claim(v, class)) {
            return reject(format!("island {i}'s member {v} is not an unclaimed residual node"));
        }
        claimed += island.len();
    }
    if claimed != residual {
        return reject(format!("the rounds classify {claimed} of {residual} residual nodes"));
    }
    let mut contacts: Vec<u32> = Vec::new();
    let mut listed: Vec<u32> = Vec::new();
    for (i, island) in formed.iter().enumerate() {
        let class = NodeClass::Island(islands.slot_of_next(i));
        contacts.clear();
        for &v in &island.nodes {
            for &nb in graph.neighbors(NodeId::new(v)) {
                match node_class[nb as usize] {
                    NodeClass::Hub => contacts.push(nb),
                    c if c == class => {}
                    _ => return reject(format!("island {i} is not closed: {v} – {nb}")),
                }
            }
        }
        contacts.sort_unstable();
        contacts.dedup();
        listed.clear();
        listed.extend_from_slice(&island.hubs);
        listed.sort_unstable();
        if listed != contacts {
            return reject(format!("island {i}'s hub list is not its distinct contact hubs"));
        }
    }
    if inter_hub_edges != hub_edges_at(graph, &new_hubs, node_class) {
        return reject("the inter-hub edges are not those at the new hubs".to_string());
    }
    islands.place_all(formed.into_iter());
    hubs.place_all(new_hubs.into_iter());
    new_inter_hub.extend(inter_hub_edges);
    Ok(stats)
}

/// The loop-free hub–hub edges of `graph` with an endpoint in `at`, as
/// ascending, distinct `(min, max)` pairs.
fn hub_edges_at(graph: &CsrGraph, at: &[u32], node_class: &[NodeClass]) -> Vec<(u32, u32)> {
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for &h in at {
        for &nb in graph.neighbors(NodeId::new(h)) {
            if nb != h && node_class[nb as usize] == NodeClass::Hub {
                edges.push((h.min(nb), h.max(nb)));
            }
        }
    }
    edges.sort_unstable();
    edges.dedup();
    edges
}

/// The largest loop-free degree in `graph`, read off its row offsets: a
/// self-loop takes one off, so only rows within one of the stored
/// maximum can hold it.
fn max_loop_free_degree(graph: &CsrGraph) -> usize {
    let rows = graph.row_ptr().windows(2).map(|w| w[1] - w[0]);
    let stored_max = rows.clone().max().unwrap_or(0);
    let near_max = (0u32..).zip(rows).filter(|&(_, d)| d + 1 >= stored_max);
    let loop_free =
        near_max.map(|(v, d)| d - usize::from(graph.has_edge(NodeId::new(v), NodeId::new(v))));
    loop_free.max().unwrap_or(0)
}

/// Validates one [`GraphUpdate`] against an existing graph + partition
/// and applies it structurally: shrink/self-loop validation,
/// [`apply_edge_changes`], then the incremental locator rounds — or,
/// with `logged`, the rounds a log recorded for this update, checked
/// and applied in their place. Returns the updated graph and the
/// [`IncrementalResult`]; the caller decides when to commit them (and
/// when to recompose any derived layout). Outside tests its one caller
/// is the engine's batch staging, which every update goes through: an
/// engine's, a batch's, a fleet's, a replayed log's.
///
/// The partition is consumed, as by [`incremental_update`].
///
/// [`GraphUpdate`]: crate::accel::GraphUpdate
///
/// # Errors
///
/// As [`incremental_update`], plus [`CoreError::ShapeMismatch`] for a
/// shrinking node count, [`CoreError::SelfLoops`] for a self-loop
/// addition and [`CoreError::LoggedRoundsRejected`] for logged rounds
/// that do not fit the updated graph.
pub(crate) fn apply_update_structural(
    graph: &CsrGraph,
    partition: IslandPartition,
    cfg: &IslandizationConfig,
    update: &crate::accel::GraphUpdate,
    logged: Option<LocatorRounds>,
) -> Result<(CsrGraph, IncrementalResult), CoreError> {
    let _span = igcn_obs::trace::OpenSpan::child(
        igcn_obs::trace::ambient(),
        igcn_obs::stage::UPDATE_STRUCTURAL,
    );
    let n_old = graph.num_nodes();
    let n_new = update.new_num_nodes.unwrap_or(n_old);
    if n_new < n_old {
        return Err(CoreError::ShapeMismatch {
            what: "updated node count (graphs cannot shrink)".to_string(),
            expected: n_old,
            got: n_new,
        });
    }
    for &(a, b) in &update.added_edges {
        if a == b {
            return Err(CoreError::SelfLoops { node: a });
        }
    }
    let new_graph = apply_edge_changes(graph, n_new, &update.added_edges, &update.removed_edges)?;
    let result = update_partition(
        &new_graph,
        partition,
        &update.added_edges,
        &update.removed_edges,
        cfg,
        logged,
    )?;
    Ok((new_graph, result))
}

/// Builds the updated graph from the old one plus added undirected edges
/// (the additions-only convenience wrapper over [`apply_edge_changes`]).
///
/// # Errors
///
/// As [`apply_edge_changes`].
pub fn apply_edges(
    old_graph: &CsrGraph,
    num_nodes: usize,
    added: &[(u32, u32)],
) -> Result<CsrGraph, CoreError> {
    apply_edge_changes(old_graph, num_nodes, added, &[])
}

/// Builds the updated graph: the old one minus `removed` undirected
/// edges plus `added` ones (removals first, so an edge in both batches
/// ends up present) — [`CsrGraph::with_edge_changes`] under this
/// crate's error type.
///
/// # Errors
///
/// [`CoreError::MissingEdge`] if a removed edge is not present in
/// `old_graph`; [`CoreError::ShapeMismatch`] if an added edge references
/// a node at or beyond `num_nodes` (after growing to at least the old
/// node count).
pub fn apply_edge_changes(
    old_graph: &CsrGraph,
    num_nodes: usize,
    added: &[(u32, u32)],
    removed: &[(u32, u32)],
) -> Result<CsrGraph, CoreError> {
    old_graph.with_edge_changes(num_nodes, added, removed).map_err(|e| match e {
        GraphError::MissingEdge { from, to } => CoreError::MissingEdge { from, to },
        GraphError::NodeOutOfBounds { node, num_nodes } => CoreError::ShapeMismatch {
            what: "added edge endpoint vs updated node count".to_string(),
            expected: num_nodes,
            got: node as usize,
        },
        other => CoreError::ShapeMismatch {
            what: format!("patching CSR after update: {other}"),
            expected: num_nodes,
            got: num_nodes,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::locator::IslandLocator;
    use igcn_graph::generate::HubIslandConfig;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn base(seed: u64) -> (CsrGraph, IslandPartition) {
        let g = HubIslandConfig::new(400, 16).noise_fraction(0.01).generate(seed);
        let cfg = IslandizationConfig::default();
        let (p, _) = IslandLocator::new(&g.graph, &cfg).run().unwrap();
        (g.graph, p)
    }

    fn random_new_edges(graph: &CsrGraph, count: usize, seed: u64) -> Vec<(u32, u32)> {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = graph.num_nodes() as u32;
        let mut edges = Vec::new();
        while edges.len() < count {
            let a = rng.gen_range(0..n);
            let b = rng.gen_range(0..n);
            if a != b && !graph.has_edge(NodeId::new(a), NodeId::new(b)) {
                edges.push((a, b));
            }
        }
        edges
    }

    #[test]
    fn incremental_satisfies_invariants() {
        let (g, p) = base(1);
        let added = random_new_edges(&g, 12, 2);
        let g2 = apply_edges(&g, g.num_nodes(), &added).unwrap();
        let cfg = IslandizationConfig::default();
        let result = incremental_islandize(&g2, &p, &added, &cfg).unwrap();
        result.partition.check_invariants(&g2).unwrap();
        assert!(!result.dissolved.is_empty());
    }

    #[test]
    fn untouched_islands_survive() {
        let (g, p) = base(3);
        let added = random_new_edges(&g, 3, 4);
        let g2 = apply_edges(&g, g.num_nodes(), &added).unwrap();
        let cfg = IslandizationConfig::default();
        let result = incremental_islandize(&g2, &p, &added, &cfg).unwrap();
        // Far fewer nodes reclassified than the whole graph.
        assert!(
            result.reclassified_nodes < g.num_nodes() / 2,
            "only the disturbed neighborhood should be redone, got {}",
            result.reclassified_nodes
        );
        assert!(result.partition.num_islands() > 0);
    }

    #[test]
    fn empty_update_is_identity_cheap() {
        let (g, p) = base(5);
        let cfg = IslandizationConfig::default();
        let result = incremental_islandize(&g, &p, &[], &cfg).unwrap();
        result.partition.check_invariants(&g).unwrap();
        assert!(result.dissolved.is_empty());
        assert_eq!(result.reclassified_nodes, 0);
        assert_eq!(result.partition.num_islands(), p.num_islands());
    }

    #[test]
    fn node_growth_supported() {
        let (g, p) = base(7);
        let n = g.num_nodes();
        // Two new nodes: one wired to an existing hub, one isolated.
        let hub = p.hubs()[0];
        let added = vec![(n as u32, hub)];
        let g2 = apply_edges(&g, n + 2, &added).unwrap();
        let cfg = IslandizationConfig::default();
        let result = incremental_islandize(&g2, &p, &added, &cfg).unwrap();
        result.partition.check_invariants(&g2).unwrap();
        assert_eq!(result.partition.num_nodes(), n + 2);
    }

    #[test]
    fn hub_hub_edge_only_touches_the_map() {
        let (g, p) = base(9);
        let (h1, h2) = (p.hubs()[0], p.hubs()[1]);
        if g.has_edge(NodeId::new(h1), NodeId::new(h2)) {
            return; // seed produced adjacent hubs; nothing to add
        }
        let added = vec![(h1, h2)];
        let g2 = apply_edges(&g, g.num_nodes(), &added).unwrap();
        let cfg = IslandizationConfig::default();
        let result = incremental_islandize(&g2, &p, &added, &cfg).unwrap();
        result.partition.check_invariants(&g2).unwrap();
        assert!(result.dissolved.is_empty());
        assert!(result.partition.inter_hub_edges().contains(&(h1.min(h2), h1.max(h2))));
    }

    #[test]
    fn rejects_out_of_range_edges() {
        let (g, p) = base(11);
        let cfg = IslandizationConfig::default();
        let err = incremental_islandize(&g, &p, &[(0, 9999)], &cfg).unwrap_err();
        assert!(matches!(err, CoreError::ShapeMismatch { .. }));
    }

    #[test]
    fn removal_dissolves_endpoint_islands() {
        let (g, p) = base(21);
        // Pick an edge inside an island (member ↔ member or member ↔ hub).
        let island = p.islands().iter().find(|i| i.len() >= 2).unwrap();
        let a = island.nodes[0];
        let b = *g.neighbors(NodeId::new(a)).iter().find(|&&nb| nb != a).unwrap();
        let removed = vec![(a, b)];
        let g2 = apply_edge_changes(&g, g.num_nodes(), &[], &removed).unwrap();
        assert!(!g2.has_edge(NodeId::new(a), NodeId::new(b)));
        let cfg = IslandizationConfig::default();
        let result = incremental_update(&g2, p.clone(), &[], &removed, &cfg).unwrap();
        result.partition.check_invariants(&g2).unwrap();
        assert!(!result.dissolved.is_empty());
    }

    #[test]
    fn removal_demotes_starved_hubs() {
        // Star hub 0 over leaves {1, 2, 3} with an internal edge 1–2:
        // with an absolute threshold of 3 only node 0 (degree 3) is a
        // hub; {1, 2} and {3} close as islands against it. Removing 0–3
        // drops the hub to degree 2 < floor 3 → demotion, dissolving the
        // islands it contacts, and the residual re-run re-classifies
        // everything while keeping the invariants.
        let g = CsrGraph::from_undirected_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2)]).unwrap();
        let cfg = IslandizationConfig::default()
            .with_threshold_init(crate::config::ThresholdInit::Absolute(3));
        assert_eq!(cfg.hub_floor(), 3);
        let (p, _) = IslandLocator::new(&g, &cfg).run().unwrap();
        p.check_invariants(&g).unwrap();
        assert_eq!(p.class_of(NodeId::new(0)), crate::partition::NodeClass::Hub);
        assert_eq!(p.num_hubs(), 1);

        let removed = vec![(0u32, 3u32)];
        let g2 = apply_edge_changes(&g, g.num_nodes(), &[], &removed).unwrap();
        let result = incremental_update(&g2, p.clone(), &[], &removed, &cfg).unwrap();
        result.partition.check_invariants(&g2).unwrap();
        assert_eq!(result.demoted_hubs, 1, "hub 0 fell to degree 2 < floor 3");
        // All four nodes were disturbed: the demoted hub, both islands it
        // contacted, and nothing else exists.
        assert_eq!(result.reclassified_nodes, 4);
        // Node 3 is now isolated → singleton island, never a hub.
        assert!(matches!(
            result.partition.class_of(NodeId::new(3)),
            crate::partition::NodeClass::Island(_)
        ));
    }

    #[test]
    fn removal_of_missing_edge_errors() {
        let (g, _) = base(23);
        let err = apply_edge_changes(&g, g.num_nodes(), &[], &[(0, 1_000_000)]).unwrap_err();
        assert!(matches!(err, CoreError::MissingEdge { .. }));
    }

    #[test]
    fn removed_hub_hub_edge_leaves_the_map() {
        let (g, p) = base(25);
        // Find an inter-hub edge whose endpoints keep enough degree.
        let Some(&(h1, h2)) = p
            .inter_hub_edges()
            .iter()
            .find(|&&(a, b)| g.degree(NodeId::new(a)) > 3 && g.degree(NodeId::new(b)) > 3)
        else {
            return; // seed produced no such edge
        };
        let removed = vec![(h1, h2)];
        let g2 = apply_edge_changes(&g, g.num_nodes(), &[], &removed).unwrap();
        let cfg = IslandizationConfig::default();
        let result = incremental_update(&g2, p.clone(), &[], &removed, &cfg).unwrap();
        result.partition.check_invariants(&g2).unwrap();
        assert!(!result.partition.inter_hub_edges().contains(&(h1.min(h2), h1.max(h2))));
        assert!(result.dissolved.is_empty(), "hub-hub removal only touches the map");
    }

    /// Every pair of `partition`'s hubs that `graph` joins, as sorted
    /// `(min, max)` pairs: the inter-hub list derived from scratch.
    fn from_scratch_pairs(graph: &CsrGraph, partition: &IslandPartition) -> Vec<(u32, u32)> {
        let is_hub = |v: u32| partition.class_of(NodeId::new(v)) == NodeClass::Hub;
        let mut pairs: Vec<(u32, u32)> = partition
            .hubs()
            .iter()
            .flat_map(|&h| {
                let row = graph.neighbors(NodeId::new(h)).iter();
                row.filter(move |&&nb| nb > h && is_hub(nb)).map(move |&nb| (h, nb))
            })
            .collect();
        pairs.sort_unstable();
        pairs
    }

    #[test]
    fn removed_inter_hub_pairs_leave_the_list_beside_non_hub_removals() {
        // One batch removes an inter-hub pair (listed the other way
        // round) between two island-internal edges; a second batch also
        // strips another hub with pairs below the floor, which demotes
        // it. Either way the list is the partition's from-scratch one.
        let (g, p) = base(25);
        let cfg = IslandizationConfig::default();
        let n = g.num_nodes();
        assert_eq!(p.inter_hub_edges(), from_scratch_pairs(&g, &p));
        let degree = |v: u32| g.degree(NodeId::new(v));
        let internal: Vec<(u32, u32)> = p
            .islands()
            .iter()
            .filter_map(|isl| {
                let a = isl.nodes[0];
                let row = g.neighbors(NodeId::new(a));
                row.iter().find(|nb| isl.nodes.contains(nb)).map(|&b| (b, a))
            })
            .take(2)
            .collect();
        assert_eq!(internal.len(), 2, "two islands with an internal edge");
        let pairs = p.inter_hub_edges();
        let &(h1, h2) = pairs
            .iter()
            .find(|&&(a, b)| degree(a).min(degree(b)) > cfg.hub_floor() as usize + 2)
            .expect("a pair between two well-connected hubs");
        let at = |h: u32| pairs.iter().filter(move |&&(a, b)| a == h || b == h).count();
        let demoted = *p
            .hubs()
            .iter()
            .filter(|&&h| h != h1 && h != h2 && at(h) > 0)
            .min_by_key(|&&h| degree(h))
            .expect("a third hub with pairs");
        let stripped = g.neighbors(NodeId::new(demoted))[1..].iter().map(|&nb| (demoted, nb));

        let batch = vec![internal[0], (h2, h1), internal[1]];
        let with_demotion = batch.iter().copied().chain(stripped).collect();
        for (removed, demotions, what) in
            [(batch, 0, "no demotion"), (with_demotion, 1, "a demotion")]
        {
            let g2 = apply_edge_changes(&g, n, &[], &removed).unwrap();
            let result = incremental_update(&g2, p.clone(), &[], &removed, &cfg).unwrap();
            result.partition.check_invariants(&g2).unwrap();
            assert_eq!(result.demoted_hubs, demotions, "{what}");
            let list = result.partition.inter_hub_edges();
            assert!(!list.contains(&(h1, h2)), "{what}: the removed pair left");
            assert_eq!(list, from_scratch_pairs(&g2, &result.partition), "{what}");
        }
    }

    #[test]
    fn mixed_add_and_remove_update_stays_valid() {
        let (mut g, mut p) = base(27);
        let cfg = IslandizationConfig::default();
        for step in 0..4 {
            let added = random_new_edges(&g, 4, 300 + step);
            // Remove an existing edge far from anything special.
            let island = p.islands().iter().find(|i| i.len() >= 2).unwrap();
            let a = island.nodes[0];
            let b = *g.neighbors(NodeId::new(a)).iter().find(|&&nb| nb != a).unwrap();
            let removed = vec![(a, b)];
            let g2 = apply_edge_changes(&g, g.num_nodes(), &added, &removed).unwrap();
            let result = incremental_update(&g2, p, &added, &removed, &cfg).unwrap();
            result.partition.check_invariants(&g2).unwrap();
            g = g2;
            p = result.partition;
        }
    }

    #[test]
    fn empty_rounds_charge_one_residual_sweep_each() {
        // Hub 0 over forty two-node islands, and two isolated nodes 81
        // and 82 that a single added edge joins. Nothing but that pair
        // is disturbed; with no hub nearby it only resolves in the last
        // round of the cold schedule (40, 20, 10, 5, 2, 1 — from the
        // whole graph's max degree of 80), where both become hubs.
        let mut edges = Vec::new();
        for i in 0..40u32 {
            let a = 1 + 2 * i;
            edges.extend([(0, a), (0, a + 1), (a, a + 1)]);
        }
        let g = CsrGraph::from_undirected_edges(83, &edges).unwrap();
        let cfg = IslandizationConfig::default();
        assert_eq!(cfg.p1_lanes, 16);
        let (p, cold) = IslandLocator::new(&g, &cfg).run().unwrap();
        assert_eq!(cold.rounds[0].hub_detect_cycles, 6, "a cold sweep covers all 83 nodes");

        let added = [(81u32, 82u32)];
        let g2 = apply_edges(&g, g.num_nodes(), &added).unwrap();
        let result = incremental_islandize(&g2, &p, &added, &cfg).unwrap();
        result.partition.check_invariants(&g2).unwrap();
        assert_eq!(result.reclassified_nodes, 2);

        let rounds = &result.stats.rounds;
        let thresholds: Vec<u32> = rounds.iter().map(|r| r.threshold).collect();
        assert_eq!(thresholds, [40, 20, 10, 5, 2, 1]);
        for empty in &rounds[..5] {
            assert_eq!((empty.hubs_found, empty.islands_found), (0, 0));
            // Two residual nodes in sixteen lanes, not 83; then the
            // engines poll an empty task queue once.
            assert_eq!((empty.hub_detect_cycles, empty.bfs_cycles), (1, 1));
        }
        let last = rounds[5];
        assert_eq!((last.hubs_found, last.hub_detect_cycles, last.bfs_cycles), (2, 1, 2));
        // Five empty rounds at 1 + 1, the last at 1 + 2.
        assert_eq!(result.stats.virtual_cycles, 13);
        // Each residual node's one-word adjacency is streamed twice: by
        // the boundary pass looking for hub contacts, and by task
        // generation once it is a hub. The empty rounds read nothing.
        assert_eq!(result.stats.adjacency_words_read, 4);
        assert_eq!(result.stats.tasks_generated, 2);
        assert!(result.partition.inter_hub_edges().contains(&(81, 82)));
    }

    #[test]
    fn empty_partition_update_is_a_cold_build() {
        let cfg = IslandizationConfig::default();
        let mut graphs: Vec<CsrGraph> = [0, 1, 2]
            .map(|seed| HubIslandConfig::new(300, 6).noise_fraction(0.0).generate(seed).graph)
            .into();
        graphs.push(HubIslandConfig::new(400, 16).noise_fraction(0.05).generate(3).graph);
        graphs.push(
            CsrGraph::from_undirected_edges(6, &[(0, 0), (0, 1), (0, 2), (1, 2), (3, 3), (4, 5)])
                .unwrap(),
        );
        for (i, g) in graphs.iter().enumerate() {
            let (cold, cold_stats) = IslandLocator::new(g, &cfg).run().unwrap();
            let update = incremental_update(g, IslandPartition::default(), &[], &[], &cfg).unwrap();
            assert_eq!(update.partition, cold, "graph {i}: partition");
            assert_eq!(update.stats, cold_stats, "graph {i}: locator stats");
            assert!(update.dissolved.is_empty());
            assert_eq!(update.reclassified_nodes, g.num_nodes());
            if i == 0 {
                // No kept hub, so no boundary pass charges the residual's
                // adjacency on top of the cold build's reads.
                assert_eq!(cold_stats.adjacency_words_read, 8_302);
            }
        }
    }

    #[test]
    fn repeated_updates_stay_valid() {
        let (mut g, mut p) = base(13);
        let cfg = IslandizationConfig::default();
        for step in 0..5 {
            let added = random_new_edges(&g, 5, 100 + step);
            let g2 = apply_edges(&g, g.num_nodes(), &added).unwrap();
            let result = incremental_islandize(&g2, &p, &added, &cfg).unwrap();
            result.partition.check_invariants(&g2).unwrap();
            g = g2;
            p = result.partition;
        }
    }
}
