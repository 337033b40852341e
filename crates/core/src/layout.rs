//! The islandized *physical* data layout.
//!
//! Islandization discovers which nodes are touched together; this module
//! makes that locality **physical**. [`IslandLayout`] composes the
//! island schedule into a [`Permutation`] (hubs first in detection
//! order, then islands back to back in schedule order — exactly
//! [`IslandPartition::ordering`]). In those IDs the hubs are the compact
//! range `0..H`, which lets the execution core index dense flat slabs by
//! hub ID, and every island is one range. The layout keeps, in them:
//!
//! * the islands as ranges ([`LaidIslands`]): island `i`'s members are
//!   `starts[i]..starts[i + 1]`, its hubs one run of a flat list in the
//!   island's own order. There is no member list and no per-node class
//!   table: of the partition, which the engine keeps in original IDs,
//!   the layout holds only what its order does not spell out (each
//!   island's locator round and engine, and `c_max`), enough for
//!   [`IslandLayout::original_partition`] to give it back;
//! * one adjacency bitmap per island, the `Ã = A + I` one, built
//!   **once** instead of once per island per layer. It holds dimensions
//!   and bits only: its rows and columns are the island's hubs, then its
//!   nodes, so it needs no renaming when the island's IDs change. A
//!   layer whose self weight is not 1 (GIN) drops the diagonal bit as it
//!   scans ([`crate::consumer::hotpath`]);
//! * the sorted inter-hub pairs, which an update's recompose patches and
//!   the sharder reads, and the inter-hub tasks ([`InterHubTasks`]), one
//!   PUSH task per source hub in ascending *original* source-hub ID, so
//!   the order hub partial rows accumulate in is a rule of the partition
//!   and not of the layout's numbering: one flat CSR, grouped by
//!   counting. The snapshot stores neither: like the ranges, both are the
//!   partition's, and a boot derives them.
//!
//! With the islands' work estimates that is all the Island Consumer
//! reads (the GCN scales are the graph's degrees gathered into layout
//! order), so a layout holds no copy of the graph: the schedule-ordered
//! CSR is a view for tests and audits, built on its first call
//! ([`IslandLayout::graph`]). Requests and responses keep speaking
//! original node IDs: features are gathered into schedule order on the
//! way in ([`IslandLayout::gather_order`]) and the final layer's rows
//! are scattered back on the way out ([`IslandLayout::forward`]).

use std::ops::Range;
use std::sync::{Arc, OnceLock};

use serde::{Deserialize, Serialize};

use igcn_graph::{CsrGraph, Permutation};

use crate::error::CoreError;
use crate::island::{Island, IslandBitmap};
use crate::partition::{IslandPartition, NodeClass};
use crate::schedule::IslandSchedule;

/// Schedule-ordered physical layout of one islandized graph.
///
/// Composed at engine construction ([`IslandLayout::new`]), patched to
/// the new (graph, partition) after every `apply_update` restructuring
/// ([`IslandLayout::recompose`]), and shared read-only by every request.
///
/// Two layouts are equal when they execute alike: their graph view and
/// its source are not compared.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IslandLayout {
    /// `forward[old] = new`: original ID → schedule-order ID.
    perm: Permutation,
    /// `gather_order[new] = old`: the row-gather map for features.
    gather_order: Vec<u32>,
    /// The islands as ranges of schedule-order IDs, with their hubs.
    islands: LaidIslands,
    /// Sorted `(min, max)` hub–hub pairs, layout IDs.
    inter_hub_edges: Vec<(u32, u32)>,
    /// The partition's island size bound.
    c_max: usize,
    /// The island issue schedule (the work estimates are the original
    /// partition's — degrees are preserved).
    schedule: IslandSchedule,
    /// Per-island adjacency bitmaps with the `Ã = A + I` diagonal on
    /// island-node rows.
    bitmaps: Vec<IslandBitmap>,
    /// Inter-hub tasks in ascending *original* source-hub ID, each
    /// source's destinations in edge-list order — the order of the
    /// PUSH-outer-product phase.
    inter_hub_tasks: InterHubTasks,
    /// The shared graph, in original IDs, [`IslandLayout::graph`]
    /// permutes, if the layout keeps one.
    #[serde(skip)]
    source: Option<Arc<CsrGraph>>,
    /// [`IslandLayout::graph`]'s view, once built.
    #[serde(skip)]
    view: OnceLock<CsrGraph>,
}

impl PartialEq for IslandLayout {
    fn eq(&self, other: &Self) -> bool {
        self.perm == other.perm
            && self.gather_order == other.gather_order
            && self.islands == other.islands
            && self.inter_hub_edges == other.inter_hub_edges
            && self.c_max == other.c_max
            && self.schedule == other.schedule
            && self.bitmaps == other.bitmaps
            && self.inter_hub_tasks == other.inter_hub_tasks
    }
}

/// A layout's islands in its own IDs, where each is a range: island
/// `i`'s members are the IDs `starts[i]..starts[i + 1]` (so `starts[0]`
/// is the hub count and the last start the node count), and its hubs
/// are `hubs[hub_offsets[i]..hub_offsets[i + 1]]`, in the island's own
/// order — its bitmap's leading rows.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LaidIslands {
    starts: Vec<u32>,
    hub_offsets: Vec<usize>,
    hubs: Vec<u32>,
    /// Each island's locator round and TP-BFS engine.
    origins: Vec<(u32, u32)>,
}

impl LaidIslands {
    /// No island yet, behind `num_hubs` hubs; room for `islands`
    /// islands.
    pub fn with_capacity(num_hubs: usize, islands: usize) -> Self {
        let mut starts = Vec::with_capacity(islands + 1);
        starts.push(num_hubs as u32);
        let mut hub_offsets = Vec::with_capacity(islands + 1);
        hub_offsets.push(0);
        LaidIslands { starts, hub_offsets, hubs: Vec::new(), origins: Vec::with_capacity(islands) }
    }

    /// Appends an island of `len` members, the next `len` IDs, that
    /// contacts `hubs` (layout IDs) and whose `origin` is its locator
    /// round and TP-BFS engine.
    pub fn push(&mut self, len: usize, hubs: impl IntoIterator<Item = u32>, origin: (u32, u32)) {
        self.starts.push(self.starts[self.starts.len() - 1] + len as u32);
        self.hubs.extend(hubs);
        self.hub_offsets.push(self.hubs.len());
        self.origins.push(origin);
    }

    /// Number of islands.
    pub fn len(&self) -> usize {
        self.origins.len()
    }

    /// Whether there is no island.
    pub fn is_empty(&self) -> bool {
        self.origins.is_empty()
    }

    /// Number of hubs: the IDs below the first island's.
    pub fn num_hubs(&self) -> usize {
        self.starts[0] as usize
    }

    /// Number of nodes: hubs and every island's members.
    pub fn num_nodes(&self) -> usize {
        self.starts[self.starts.len() - 1] as usize
    }

    /// Island `i`'s members.
    pub fn nodes(&self, i: usize) -> Range<u32> {
        self.starts[i]..self.starts[i + 1]
    }

    /// Island `i`'s hubs, in its bitmap's row order.
    pub fn hubs(&self, i: usize) -> &[u32] {
        &self.hubs[self.hub_offsets[i]..self.hub_offsets[i + 1]]
    }

    /// Where each island's hubs start in the flat hub list, plus their
    /// end: `len() + 1` entries.
    pub fn hub_offsets(&self) -> &[usize] {
        &self.hub_offsets
    }

    /// Island `i`'s locator round and TP-BFS engine.
    pub fn origin(&self, i: usize) -> (u32, u32) {
        self.origins[i]
    }

    /// Every island in order, as `(members, hubs)`.
    pub fn iter(&self) -> impl Iterator<Item = (Range<u32>, &[u32])> {
        (0..self.len()).map(|i| (self.nodes(i), self.hubs(i)))
    }

    /// The islands `survivors` (ascending indices) of `self`, in order,
    /// behind `num_hubs` hubs, each hub renamed through `remap` (old hub
    /// ID → new). Each run of consecutive survivors is one block: its
    /// starts and hub offsets shifted, its hubs renamed, its origins
    /// copied.
    fn kept(&self, survivors: &[u32], num_hubs: usize, remap: &[u32]) -> LaidIslands {
        let mut kept = LaidIslands::with_capacity(num_hubs, self.len());
        for run in survivors.chunk_by(|a, b| a + 1 == *b) {
            let (a, b) = (run[0] as usize, run[0] as usize + run.len());
            let (start, hub_start) = (kept.num_nodes() as u32, kept.hubs.len());
            kept.starts.extend(self.starts[a + 1..=b].iter().map(|&s| s - self.starts[a] + start));
            let hubs = &self.hubs[self.hub_offsets[a]..self.hub_offsets[b]];
            kept.hubs.extend(hubs.iter().map(|&h| remap[h as usize]));
            let offsets = &self.hub_offsets[a + 1..=b];
            kept.hub_offsets.extend(offsets.iter().map(|&o| o - self.hub_offsets[a] + hub_start));
            kept.origins.extend_from_slice(&self.origins[a..b]);
        }
        kept
    }
}

/// The inter-hub PUSH tasks of a layout as one CSR: task `i` pushes hub
/// `sources[i]`'s row into each hub of `dests[offsets[i]..offsets[i +
/// 1]]` (layout IDs).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct InterHubTasks {
    sources: Vec<u32>,
    offsets: Vec<usize>,
    dests: Vec<u32>,
}

impl InterHubTasks {
    /// Number of tasks (source hubs with at least one hub neighbour).
    pub fn len(&self) -> usize {
        self.sources.len()
    }

    /// Whether there is no task.
    pub fn is_empty(&self) -> bool {
        self.sources.is_empty()
    }

    /// The tasks in run order, as `(source, destinations)`.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &[u32])> {
        self.sources
            .iter()
            .zip(self.offsets.windows(2))
            .map(|(&src, w)| (src, &self.dests[w[0]..w[1]]))
    }
}

/// What one [`IslandLayout::recompose`] carried over from the layout
/// it replaced and what it built from the updated graph, counted in
/// layout rows (nodes): a surviving island's members are carried, every
/// hub and every re-formed island's member is placed anew.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecomposeStats {
    /// Surviving islands: member range shifted and hub list renamed,
    /// work estimate and bitmap kept, nothing re-derived.
    pub islands_carried: usize,
    /// Islands the update formed, composed from adjacency.
    pub islands_rebuilt: usize,
    /// Members of surviving islands, carried with an ID shift.
    pub rows_carried: usize,
    /// Every hub and every re-formed island's member.
    pub rows_rebuilt: usize,
}

/// A composition's islands in the new layout's IDs, one entry per
/// island in each list: those already composed, then the fresh ones.
struct Carried {
    islands: LaidIslands,
    work: Vec<u64>,
    bitmaps: Vec<IslandBitmap>,
}

impl Carried {
    /// Composes `partition`'s islands past the carried ones from
    /// `graph`, its graph in its own IDs, renumbered through `forward`
    /// — or their bitmaps from `laid_out`, that graph in the layout's
    /// IDs, if there is one, where each island's members are one run (a
    /// bitmap names no node, so it is the same from both).
    fn compose_rest(
        &mut self,
        partition: &IslandPartition,
        forward: &[u32],
        graph: &CsrGraph,
        laid_out: Option<&CsrGraph>,
    ) {
        let fresh = &partition.islands()[self.islands.len()..];
        self.work.reserve(fresh.len());
        self.bitmaps.reserve(fresh.len());
        for isl in fresh {
            let start = self.islands.num_nodes() as u32;
            let renamed = isl.hubs.iter().map(|&h| forward[h as usize]);
            self.islands.push(isl.len(), renamed, (isl.round, isl.engine));
            let hubs = self.islands.hubs(self.islands.len() - 1);
            self.work.push(IslandSchedule::island_work(graph, isl));
            self.bitmaps.push(match laid_out {
                Some(laid_out) => {
                    let nodes: Vec<u32> = (start..start + isl.len() as u32).collect();
                    IslandBitmap::build(laid_out, hubs, &nodes, true)
                }
                None => {
                    IslandBitmap::build_renumbered(graph, forward, hubs, &isl.nodes, start, true)
                }
            });
        }
    }
}

/// What a composition derives from the partition alone, before any
/// graph row: the schedule order both ways and the inter-hub lists in
/// layout IDs.
#[derive(Debug, PartialEq)]
struct Numbering {
    /// `forward[old] = new`.
    perm: Permutation,
    /// `gather_order[new] = old`.
    gather_order: Vec<u32>,
    /// Sorted `(min, max)` pairs.
    inter_hub_edges: Vec<(u32, u32)>,
    /// PUSH tasks, as [`IslandLayout::inter_hub_tasks`] keeps them.
    inter_hub_tasks: InterHubTasks,
}

impl Numbering {
    fn of(partition: &IslandPartition) -> Self {
        let (perm, gather_order) = schedule_order(partition);
        let (inter_hub_edges, inter_hub_tasks) = inter_hub_lists(partition, perm.as_forward());
        Numbering { perm, gather_order, inter_hub_edges, inter_hub_tasks }
    }
}

/// The inter-hub edges and PUSH tasks of `partition` in the layout IDs
/// `forward` gives, derived from scratch by counting passes: `O(n)` for
/// the task order plus `O(hubs + inter-hub edges)`.
fn inter_hub_lists(
    partition: &IslandPartition,
    forward: &[u32],
) -> (Vec<(u32, u32)>, InterHubTasks) {
    let renamed: Vec<(u32, u32)> = partition
        .inter_hub_edges()
        .iter()
        .map(|&(a, b)| (forward[a as usize], forward[b as usize]))
        .collect();
    let (hub_ptr, hub_rows) = symmetric_rows(&renamed, partition.num_hubs());
    let inter_hub_tasks = group_inter_hub_tasks(forward, &hub_ptr, &hub_rows);
    (sorted_pairs(&hub_ptr, &hub_rows), inter_hub_tasks)
}

/// The schedule order of `partition` both ways: the permutation
/// (`forward[old] = new`) and the gather order (`gather_order[new] =
/// old`).
fn schedule_order(partition: &IslandPartition) -> (Permutation, Vec<u32>) {
    let gather_order = partition.order();
    let perm =
        Permutation::from_order(&gather_order).expect("a partition covers every node exactly once");
    (perm, gather_order)
}

impl IslandLayout {
    /// Composes the physical layout for `partition` over `graph`, and
    /// keeps the schedule-ordered graph it reads the bitmaps from as its
    /// [`graph`](Self::graph) view. `num_pes` is the consumer's PE count
    /// (the schedule wave width).
    ///
    /// # Panics
    ///
    /// Panics if `partition` does not belong to `graph` (mismatched node
    /// count or an invalid ordering).
    pub fn new(graph: &CsrGraph, partition: &IslandPartition, num_pes: usize) -> Self {
        assert_eq!(graph.num_nodes(), partition.num_nodes(), "partition does not match the graph");
        let numbering = Numbering::of(partition);
        let permuted =
            graph.permute(&numbering.perm).expect("a partition ordering is a valid permutation");
        let islands = LaidIslands::with_capacity(partition.num_hubs(), partition.num_islands());
        let mut carried = Carried { islands, work: Vec::new(), bitmaps: Vec::new() };
        carried.compose_rest(partition, numbering.perm.as_forward(), graph, Some(&permuted));
        let layout = Self::compose(num_pes, partition.c_max(), numbering, carried);
        IslandLayout { view: OnceLock::from(permuted), ..layout }
    }

    /// The layout over `graph`, the shared graph in original IDs it was
    /// composed over, dropping its view: [`graph`](Self::graph) permutes
    /// `graph` if it is ever asked. What an engine keeps.
    pub(crate) fn sharing(self, graph: &Arc<CsrGraph>) -> Self {
        IslandLayout { source: Some(Arc::clone(graph)), view: OnceLock::new(), ..self }
    }

    /// A layout whose node IDs are already its schedule order — the
    /// hubs `0..islands.num_hubs()`, then `islands` back to back, each
    /// with its `work` estimate and bitmap — over the hub pairs
    /// `inter_hub_edges`: a shard's, cut out of a global layout. The
    /// permutation is the identity; no graph is read or kept.
    ///
    /// # Panics
    ///
    /// Panics if `work` or `bitmaps` do not hold one entry per island,
    /// if a pair names a node past the hubs, or if `num_pes` is zero.
    pub fn with_islands(
        islands: LaidIslands,
        inter_hub_edges: &[(u32, u32)],
        c_max: usize,
        num_pes: usize,
        work: Vec<u64>,
        bitmaps: Vec<IslandBitmap>,
    ) -> Self {
        assert_eq!(work.len(), islands.len(), "one work estimate per island");
        assert_eq!(bitmaps.len(), islands.len(), "one bitmap per island");
        let n = islands.num_nodes();
        let gather_order: Vec<u32> = (0..n as u32).collect();
        let (hub_ptr, hub_rows) = symmetric_rows(inter_hub_edges, islands.num_hubs());
        let numbering = Numbering {
            perm: Permutation::identity(n),
            inter_hub_edges: sorted_pairs(&hub_ptr, &hub_rows),
            inter_hub_tasks: group_inter_hub_tasks(&gather_order, &hub_ptr, &hub_rows),
            gather_order,
        };
        Self::compose(num_pes, c_max, numbering, Carried { islands, work, bitmaps })
    }

    /// Recomposes `this` in place for the `(graph, partition)` an
    /// update batch produced, as a patch of the layout it already is.
    /// The new order is `[old hubs minus demoted, new hubs][survivors in
    /// old order][re-formed islands]`, and a surviving island keeps its
    /// hubs, its members and every edge at them (anything else would
    /// have dissolved it), so everything the old layout holds for it is
    /// carried: its member range by its length, its hub list through the
    /// old → new hub renumbering, and its work estimate, its bitmap and
    /// its origin, which name no node, as they are. Re-derived are:
    ///
    /// * the permutation, at copy speed;
    /// * the inter-hub edges and tasks, as a patch of the old ones. A
    ///   pair of two hubs that kept their place and are not `touched`
    ///   is carried through the renumbering, which keeps it in its
    ///   sorted place and in its tasks' original-ID order; the pairs at
    ///   new and touched hubs are taken from `partition`'s list, sorted
    ///   and merged in. Past one new or touched hub in forty the lists
    ///   are derived from scratch instead, which is then cheaper;
    /// * the re-formed islands, from `graph`'s adjacency in its own IDs.
    ///
    /// No graph row is copied; the layout shares `graph`. A debug build
    /// patches the inter-hub lists whatever the count of fresh hubs and
    /// checks them against the from-scratch numbering. What is left is
    /// `O(n)` at copy speed plus `O(islands + hub entries + inter-hub
    /// edges)` of renaming and filtering and the re-formed islands.
    /// (Measured split: [`crate::incremental`].)
    ///
    /// `survivors` lists, in ascending order, the islands of `this`
    /// that survived; they must be `partition`'s leading islands in that
    /// same order (how an engine's batch numbers them once it compacts
    /// its partition). `touched` lists, in `graph`'s IDs and in any order,
    /// every node whose row the batch changed: every endpoint of an
    /// added or removed edge, and every new node. (A changed degree is
    /// not the test: a batch that adds one edge at a hub and removes
    /// another keeps its degree.) The result equals
    /// `IslandLayout::new(graph, partition, num_pes)`, with no survivors
    /// too.
    ///
    /// A uniquely held `this` gives its bitmaps away (no copy); a
    /// shared one is left untouched and the carried bitmaps are cloned.
    ///
    /// # Panics
    ///
    /// As [`IslandLayout::new`], or if `survivors` are not `partition`'s
    /// leading islands (a release build checks their total length, a
    /// debug build each one's). After a panic a uniquely held `this` may
    /// have lost its bitmaps and must not be used.
    pub fn recompose(
        this: &mut Arc<IslandLayout>,
        survivors: &[u32],
        touched: &[u32],
        graph: &Arc<CsrGraph>,
        partition: &IslandPartition,
        num_pes: usize,
    ) -> RecomposeStats {
        assert_eq!(graph.num_nodes(), partition.num_nodes(), "partition does not match the graph");
        assert!(survivors.len() <= partition.num_islands(), "more survivors than islands");
        let mut span = igcn_obs::trace::OpenSpan::child(
            igcn_obs::trace::ambient(),
            igcn_obs::stage::LAYOUT_RECOMPOSE,
        );
        let (perm, gather_order) = schedule_order(partition);
        let forward = perm.as_forward();
        let old: &IslandLayout = this;
        let remap = old.hub_renumbering(partition.num_hubs(), forward);
        let old_hub = old.carried_hubs(&remap, touched, forward, partition.num_hubs());
        // The patch costs about a third of the from-scratch lists when no
        // hub is fresh (new or touched) and grows with the pairs at the
        // fresh ones; on the Pubmed and Cora stand-ins both meet at one
        // fresh hub in forty. Debug builds always patch, so the check
        // below holds the patch to the from-scratch lists in every test.
        let fresh_hubs = old_hub.iter().filter(|&&old| old == u32::MAX).count();
        let (inter_hub_edges, inter_hub_tasks) =
            if cfg!(debug_assertions) || 40 * fresh_hubs <= partition.num_hubs() {
                old.patched_inter_hub(&remap, &old_hub, partition, forward, &gather_order)
            } else {
                inter_hub_lists(partition, forward)
            };
        let numbering = Numbering { perm, gather_order, inter_hub_edges, inter_hub_tasks };
        debug_assert!(
            numbering == Numbering::of(partition),
            "the patched numbering differs from the partition's own"
        );

        // A surviving island holds no hub the batch demoted (those map
        // to `u32::MAX`), and its members are the next run of IDs: each
        // run of consecutive survivors is carried as one block.
        let mut carried = Carried {
            islands: old.islands.kept(survivors, partition.num_hubs(), &remap),
            work: survivors.iter().map(|&s| old.schedule.work()[s as usize]).collect(),
            bitmaps: match Arc::get_mut(this) {
                Some(owned) => keep_survivors(std::mem::take(&mut owned.bitmaps), survivors),
                None => survivors.iter().map(|&s| this.bitmaps[s as usize].clone()).collect(),
            },
        };
        debug_assert!(
            (0..survivors.len())
                .all(|i| carried.islands.nodes(i).len() == partition.islands()[i].len()),
            "the survivors are the partition's leading islands"
        );

        let rows_carried = carried.islands.num_nodes() - partition.num_hubs();
        let stats = RecomposeStats {
            islands_carried: survivors.len(),
            islands_rebuilt: partition.num_islands() - survivors.len(),
            rows_carried,
            rows_rebuilt: graph.num_nodes() - rows_carried,
        };
        carried.compose_rest(partition, numbering.perm.as_forward(), graph, None);
        assert_eq!(
            carried.islands.num_nodes(),
            graph.num_nodes(),
            "the survivors are not the partition's leading islands"
        );
        let composed = Self::compose(num_pes, partition.c_max(), numbering, carried);
        *this = Arc::new(composed.sharing(graph));
        span.tag("islands_carried", stats.islands_carried);
        span.tag("islands_rebuilt", stats.islands_rebuilt);
        span.tag("rows_carried", stats.rows_carried);
        span.tag("rows_rebuilt", stats.rows_rebuilt);
        if igcn_obs::enabled() {
            igcn_obs::counter("engine_update_islands_carried").add(stats.islands_carried as u64);
            igcn_obs::counter("engine_update_islands_rebuilt").add(stats.islands_rebuilt as u64);
            igcn_obs::counter("engine_update_rows_rebuilt").add(stats.rows_rebuilt as u64);
            igcn_obs::gauge("engine_hubs").set(partition.num_hubs() as i64);
        }
        stats
    }

    /// Old hub ID → new hub ID where that map is monotone: an old hub
    /// that kept its place at the head of the new hub list maps through
    /// `forward`; a hub the batch demoted (even one promoted again,
    /// behind the kept ones) maps to `u32::MAX`.
    fn hub_renumbering(&self, num_hubs: usize, forward: &[u32]) -> Vec<u32> {
        // The hubs the batch kept are the new list's head, in old order.
        let mut kept_hubs = 0u32;
        self.gather_order[..self.num_hubs()]
            .iter()
            .map(|&h| {
                if forward[h as usize] == kept_hubs && (kept_hubs as usize) < num_hubs {
                    kept_hubs += 1;
                    kept_hubs - 1
                } else {
                    u32::MAX
                }
            })
            .collect()
    }

    /// New hub ID → the old hub ID whose hub–hub pairs it carries over,
    /// or `u32::MAX`. A hub carries when it kept its place (`remap` maps
    /// it) and is not `touched`: no edge at it changed.
    fn carried_hubs(
        &self,
        remap: &[u32],
        touched: &[u32],
        forward: &[u32],
        num_hubs: usize,
    ) -> Vec<u32> {
        let mut old_hub = vec![u32::MAX; num_hubs];
        for (old, &new) in (0u32..).zip(remap) {
            if new != u32::MAX {
                old_hub[new as usize] = old;
            }
        }
        for &v in touched {
            if let Some(old) = old_hub.get_mut(forward[v as usize] as usize) {
                *old = u32::MAX;
            }
        }
        old_hub
    }

    /// The inter-hub edges and PUSH tasks of the updated `partition`, as
    /// [`Numbering::of`] derives them, patched from this layout's. A
    /// pair of two hubs `old_hub` carries is one the batch left alone:
    /// no edge at either changed, and the locator only records pairs at
    /// the hubs it promotes. The renumbering is monotone on those hubs,
    /// so such a pair keeps its sorted place and each destination its
    /// place in its task. Only the pairs at the other hubs — new, or
    /// touched — are taken from `partition`'s list, sorted and merged
    /// in: into the sorted pairs by layout ID, into the tasks (sources
    /// and each one's destinations) by original ID. Nothing walks all
    /// `n` nodes (the marks are one bit per node) and no sort is over the
    /// whole list, but a re-derived pair costs ten to twenty times what
    /// a pair of the from-scratch lists ([`inter_hub_lists`]) does, so
    /// [`recompose`](Self::recompose) patches only while few hubs are
    /// fresh.
    fn patched_inter_hub(
        &self,
        remap: &[u32],
        old_hub: &[u32],
        partition: &IslandPartition,
        forward: &[u32],
        gather_order: &[u32],
    ) -> (Vec<(u32, u32)>, InterHubTasks) {
        // Old hub ID → new hub ID, for a hub that carries.
        let carry: Vec<u32> = (0u32..)
            .zip(remap)
            .map(|(old, &new)| if old_hub.get(new as usize) == Some(&old) { new } else { u32::MAX })
            .collect();

        // The pairs at a hub that does not carry, found by original ID
        // in the partition's list, renamed and sorted.
        let mut patched: Vec<(u32, u32)> = Vec::new();
        if old_hub.contains(&u32::MAX) {
            let mut fresh = vec![0u64; partition.num_nodes().div_ceil(64)];
            for (&h, &old) in partition.hubs().iter().zip(old_hub) {
                if old == u32::MAX {
                    fresh[h as usize / 64] |= 1 << (h % 64);
                }
            }
            let is_fresh = |v: u32| fresh[v as usize / 64] >> (v % 64) & 1 != 0;
            patched.extend(
                partition
                    .inter_hub_edges()
                    .iter()
                    .filter(|&&(a, b)| is_fresh(a) || is_fresh(b))
                    .map(|&(a, b)| {
                        let (x, y) = (forward[a as usize], forward[b as usize]);
                        (x.min(y), x.max(y))
                    }),
            );
            patched.sort_unstable();
        }

        // Each old pair is written renamed and kept only if both its
        // ends carry: branch-free.
        let old_pairs = &self.inter_hub_edges;
        let mut edges = vec![(0, 0); old_pairs.len() + patched.len()];
        let mut len = 0;
        for &(a, b) in old_pairs {
            let (x, y) = (carry[a as usize], carry[b as usize]);
            edges[len] = (x, y);
            len += usize::from(x != u32::MAX && y != u32::MAX);
        }
        edges.truncate(len);
        edges.extend_from_slice(&patched);
        merge_few_into(&mut edges, &patched, |pair| pair);

        // The patched pairs both ways, grouped by source in original-ID
        // order, each source's destinations ascending in it too.
        let original = |v: u32| gather_order[v as usize];
        let mut entries: Vec<(u32, u32)> = patched
            .iter()
            .flat_map(|&(x, y)| [(original(x), original(y)), (original(y), original(x))])
            .collect();
        entries.sort_unstable();
        let tasks = self.patched_tasks(&carry, &entries, gather_order, forward);
        (edges, tasks)
    }

    /// This layout's PUSH tasks, patched: the tasks of hubs that carry,
    /// renamed through `carry` (old hub ID → new hub ID, or `u32::MAX`)
    /// with the destinations that do not carry dropped, and `entries` —
    /// the patched pairs both ways as `(source, destination)` original
    /// IDs, ascending — merged in by original ID, sources and
    /// destinations alike. A task left empty is dropped.
    fn patched_tasks(
        &self,
        carry: &[u32],
        mut entries: &[(u32, u32)],
        gather_order: &[u32],
        forward: &[u32],
    ) -> InterHubTasks {
        let old = &self.inter_hub_tasks;
        let mut tasks = InterHubTasks {
            sources: Vec::with_capacity(old.len() + entries.len()),
            offsets: Vec::with_capacity(old.len() + entries.len() + 1),
            dests: vec![0; old.dests.len() + entries.len()],
        };
        tasks.offsets.push(0);
        let mut len = 0;
        let mut extra: Vec<u32> = Vec::new();
        // A hub that carries keeps its original ID: the old gather order
        // reads it.
        let mut carried = old
            .iter()
            .filter(|&(src, _)| carry[src as usize] != u32::MAX)
            .map(|(src, dests)| (self.gather_order[src as usize], dests))
            .peekable();
        loop {
            let src = match (carried.peek(), entries.first()) {
                (None, None) => break,
                (Some(&(a, _)), Some(&(b, _))) => a.min(b),
                (Some(&(a, _)), None) => a,
                (None, Some(&(b, _))) => b,
            };
            let start = len;
            if let Some((_, dests)) = carried.next_if(|&(a, _)| a == src) {
                for &d in dests {
                    let new = carry[d as usize];
                    tasks.dests[len] = new;
                    len += usize::from(new != u32::MAX);
                }
            }
            let own = entries.partition_point(|&(a, _)| a == src);
            if own > 0 {
                extra.clear();
                extra.extend(entries[..own].iter().map(|&(_, b)| forward[b as usize]));
                merge_few_into(&mut tasks.dests[start..len + own], &extra, |v| {
                    gather_order[v as usize]
                });
                len += own;
                entries = &entries[own..];
            }
            if len > start {
                tasks.sources.push(forward[src as usize]);
                tasks.offsets.push(len);
            }
        }
        tasks.dests.truncate(len);
        tasks
    }

    /// The single composer: everything but the numbering, which the
    /// callers build first, and the islands, which `carried` holds
    /// composed in the new layout's IDs.
    fn compose(num_pes: usize, c_max: usize, numbering: Numbering, carried: Carried) -> Self {
        let Numbering { perm, gather_order, inter_hub_edges, inter_hub_tasks } = numbering;
        let Carried { islands, work, bitmaps } = carried;
        debug_assert_eq!(islands.num_nodes(), perm.len(), "the islands tile the layout");
        let schedule =
            IslandSchedule::from_raw_parts(num_pes, work).expect("wave width must be positive");
        IslandLayout {
            perm,
            gather_order,
            islands,
            inter_hub_edges,
            c_max,
            schedule,
            bitmaps,
            inter_hub_tasks,
            source: None,
            view: OnceLock::new(),
        }
    }

    /// The partition this layout was composed from, in original node
    /// IDs: composition keeps the islands, their order and the hub
    /// order, and the inter-hub list is sorted `(min, max)` pairs on
    /// both sides, so reading the ranges through the gather order gives
    /// the composer's input back — what lets an engine move its
    /// partition into an update and still leave itself whole when the
    /// update fails.
    pub fn original_partition(&self) -> IslandPartition {
        let back = |v: u32| self.gather_order[v as usize];
        let n = self.num_nodes();
        let mut node_class = vec![NodeClass::Hub; n];
        let islands = (0..self.islands.len())
            .map(|i| {
                let nodes: Vec<u32> = self.islands.nodes(i).map(back).collect();
                for &v in &nodes {
                    node_class[v as usize] = NodeClass::Island(i as u32);
                }
                let ((round, engine), hubs) = (self.islands.origin(i), self.islands.hubs(i));
                Island { nodes, hubs: hubs.iter().map(|&h| back(h)).collect(), round, engine }
            })
            .collect();
        let original: Vec<(u32, u32)> =
            self.inter_hub_edges.iter().map(|&(a, b)| (back(a), back(b))).collect();
        let (ptr, rows) = symmetric_rows(&original, n);
        IslandPartition::from_parts(
            n,
            islands,
            self.gather_order[..self.num_hubs()].to_vec(),
            sorted_pairs(&ptr, &rows),
            node_class,
            self.c_max,
        )
    }

    /// Reassembles the layout of `partition` over `graph`, the shared
    /// graph in original IDs it was composed over, from the parts a
    /// snapshot stores — the schedule and the bitmaps — which is what
    /// lets a warm-started engine skip both the locator pass *and* the
    /// bitmaps' composition. The rest is `partition`'s schedule order,
    /// derived in `O(n + Σ island hubs + inter-hub edges)`: the
    /// permutation, the island ranges and hub lists, and the inter-hub
    /// pairs and tasks.
    ///
    /// `partition` must have passed [`IslandPartition::from_raw_parts`]
    /// (it covers every node once). What is checked here is that the
    /// parts fit it: the node counts agree, an island contacts only hubs,
    /// and the schedule and the bitmaps have one entry per island, each
    /// bitmap of its island's dimension with its hubs as the leading
    /// rows.
    ///
    /// # Errors
    ///
    /// [`CoreError::ShapeMismatch`] or
    /// [`CoreError::ClassificationViolation`] naming the first violated
    /// structural invariant.
    pub fn from_raw_parts(
        graph: Arc<CsrGraph>,
        partition: &IslandPartition,
        schedule: IslandSchedule,
        bitmaps: Vec<IslandBitmap>,
    ) -> Result<Self, CoreError> {
        let n = graph.num_nodes();
        let mismatch = |what: &str, expected: usize, got: usize| CoreError::ShapeMismatch {
            what: format!("layout {what}"),
            expected,
            got,
        };
        if partition.num_nodes() != n {
            return Err(mismatch("partition vs graph nodes", n, partition.num_nodes()));
        }
        let num_islands = partition.num_islands();
        if schedule.num_islands() != num_islands {
            return Err(mismatch(
                "schedule islands vs partition",
                num_islands,
                schedule.num_islands(),
            ));
        }
        if bitmaps.len() != num_islands {
            return Err(mismatch("bitmap count vs islands", num_islands, bitmaps.len()));
        }
        let (perm, gather_order) = schedule_order(partition);
        let forward = perm.as_forward();
        let num_hubs = partition.num_hubs();
        let mut islands = LaidIslands::with_capacity(num_hubs, num_islands);
        for (idx, (isl, bm)) in partition.islands().iter().zip(&bitmaps).enumerate() {
            let not_hub =
                |&&h: &&u32| forward.get(h as usize).is_none_or(|&h| h as usize >= num_hubs);
            if let Some(&h) = isl.hubs.iter().find(not_hub) {
                return Err(CoreError::ClassificationViolation {
                    node: h,
                    detail: format!("layout island {idx} contacts non-hub {h}"),
                });
            }
            let dim = isl.hubs.len() + isl.nodes.len();
            if bm.dim() != dim || bm.num_hubs() != isl.hubs.len() {
                return Err(mismatch(&format!("bitmap {idx} dimension"), dim, bm.dim()));
            }
            let hubs = isl.hubs.iter().map(|&h| forward[h as usize]);
            islands.push(isl.len(), hubs, (isl.round, isl.engine));
        }
        let (inter_hub_edges, inter_hub_tasks) = inter_hub_lists(partition, forward);
        Ok(IslandLayout {
            perm,
            gather_order,
            islands,
            inter_hub_edges,
            c_max: partition.c_max(),
            schedule,
            bitmaps,
            inter_hub_tasks,
            source: Some(graph),
            view: OnceLock::new(),
        })
    }

    /// The schedule-order permutation (`forward[old] = new`).
    pub fn permutation(&self) -> &Permutation {
        &self.perm
    }

    /// `forward[old] = new` as a slice — the scatter map for outputs
    /// (`output.row(old) = permuted.row(forward[old])`).
    pub fn forward(&self) -> &[u32] {
        self.perm.as_forward()
    }

    /// `gather_order[new] = old` — the row-gather map for request
    /// features (`SparseFeatures::gather_rows_into`).
    pub fn gather_order(&self) -> &[u32] {
        &self.gather_order
    }

    /// Number of nodes the layout orders.
    pub fn num_nodes(&self) -> usize {
        self.perm.len()
    }

    /// The schedule-ordered graph, for tests and audits: nothing that
    /// serves, plans, updates, shards or stores a layout calls it. It is
    /// built on the first call and kept from then on — an engine's shared
    /// graph permuted, or, for a layout without one
    /// ([`with_islands`](Self::with_islands)), the graph its islands
    /// spell out. [`IslandLayout::new`] keeps the view it composed over.
    pub fn graph(&self) -> &CsrGraph {
        self.view.get_or_init(|| match &self.source {
            Some(graph) => graph.permute(&self.perm).expect("the permutation covers the graph"),
            None => self.spelled_graph(),
        })
    }

    /// Whether [`IslandLayout::graph`] has built its view. Serving an
    /// engine or a fleet never does.
    pub fn graph_is_materialised(&self) -> bool {
        self.view.get().is_some()
    }

    /// The shared graph, in original IDs, the layout was composed over,
    /// if it keeps one.
    pub(crate) fn source(&self) -> Option<&Arc<CsrGraph>> {
        self.source.as_ref()
    }

    /// The graph the islands spell out: an island node's row is its
    /// bitmap row off the diagonal, mirrored at hubs, plus both
    /// directions of every inter-hub pair.
    fn spelled_graph(&self) -> CsrGraph {
        let mut edges: Vec<(u32, u32)> = Vec::new();
        for ((nodes, hubs), bm) in self.islands.iter().zip(&self.bitmaps) {
            let h = hubs.len();
            let id = |i: usize| if i < h { hubs[i] } else { nodes.start + (i - h) as u32 };
            for row in h..bm.dim() {
                for col in bm.row_cols(row).filter(|&col| col != row) {
                    edges.push((id(row), id(col)));
                    if col < h {
                        edges.push((id(col), id(row)));
                    }
                }
            }
        }
        for &(a, b) in &self.inter_hub_edges {
            edges.extend([(a, b), (b, a)]);
        }
        CsrGraph::from_directed_edges(self.num_nodes(), &edges)
            .expect("a layout's islands name its own nodes")
    }

    /// The islands, as ranges of layout IDs with their hubs.
    pub fn islands(&self) -> &LaidIslands {
        &self.islands
    }

    /// Number of islands.
    pub fn num_islands(&self) -> usize {
        self.islands.len()
    }

    /// The island size bound of the partition the layout was composed
    /// from.
    pub fn c_max(&self) -> usize {
        self.c_max
    }

    /// The sorted `(min, max)` hub–hub pairs, in layout IDs.
    pub fn inter_hub_edges(&self) -> &[(u32, u32)] {
        &self.inter_hub_edges
    }

    /// The island issue schedule.
    pub fn schedule(&self) -> &IslandSchedule {
        &self.schedule
    }

    /// Number of hubs; hub IDs are exactly `0..num_hubs()` in the
    /// layout's ID space.
    pub fn num_hubs(&self) -> usize {
        self.islands.num_hubs()
    }

    /// The prebuilt `Ã = A + I` adjacency bitmap of island `idx`: its
    /// rows are the island's hubs, then its nodes.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn bitmap(&self, idx: usize) -> &IslandBitmap {
        &self.bitmaps[idx]
    }

    /// Inter-hub tasks by ascending original source-hub ID, with layout
    /// IDs.
    pub fn inter_hub_tasks(&self) -> &InterHubTasks {
        &self.inter_hub_tasks
    }
}

/// Both directions of every pair, as CSR rows `(ptr, rows)` over the
/// IDs below `bound`, each row ascending: the pairs are bucketed by
/// either end, then the buckets are read back in ID order into the
/// other end's row, which therefore fills in ascending order. Counting
/// passes only, no comparison sort.
fn symmetric_rows(pairs: &[(u32, u32)], bound: usize) -> (Vec<usize>, Vec<u32>) {
    let mut ptr = vec![0usize; bound + 1];
    for &(a, b) in pairs {
        ptr[a as usize + 1] += 1;
        ptr[b as usize + 1] += 1;
    }
    for v in 1..=bound {
        ptr[v] += ptr[v - 1];
    }
    let mut next = ptr.clone();
    let mut buckets = vec![0u32; ptr[bound]];
    for &(a, b) in pairs {
        buckets[next[a as usize]] = b;
        next[a as usize] += 1;
        buckets[next[b as usize]] = a;
        next[b as usize] += 1;
    }
    next.copy_from_slice(&ptr);
    let mut rows = vec![0u32; ptr[bound]];
    for (x, w) in (0u32..).zip(ptr.windows(2)) {
        for &y in &buckets[w[0]..w[1]] {
            rows[next[y as usize]] = x;
            next[y as usize] += 1;
        }
    }
    (ptr, rows)
}

/// The sorted `(min, max)` pairs of [`symmetric_rows`]: each row's
/// entries above its own ID.
fn sorted_pairs(ptr: &[usize], rows: &[u32]) -> Vec<(u32, u32)> {
    let mut pairs = Vec::with_capacity(rows.len() / 2);
    for (x, w) in (0u32..).zip(ptr.windows(2)) {
        pairs.extend(rows[w[0]..w[1]].iter().filter(|&&y| y > x).map(|&y| (x, y)));
    }
    pairs
}

/// Groups the inter-hub edges into PUSH tasks in the order the
/// inter-hub phase runs them: ascending *original* source-hub ID, each
/// source's destinations in the partition's (sorted) edge-list order,
/// which is ascending original ID too. Both come from one walk of the
/// original IDs (`forward`) and the hub rows (layout IDs,
/// [`symmetric_rows`]): a source pushes itself onto each of its
/// neighbours' runs of the one destination array, whose offsets are the
/// fan-outs' running sums.
fn group_inter_hub_tasks(forward: &[u32], hub_ptr: &[usize], hub_rows: &[u32]) -> InterHubTasks {
    let num_hubs = hub_ptr.len() - 1;
    let fanout = |h: u32| hub_ptr[h as usize + 1] - hub_ptr[h as usize];
    let sources: Vec<u32> = forward
        .iter()
        .copied()
        .filter(|&new| (new as usize) < num_hubs && fanout(new) > 0)
        .collect();
    // Layout hub ID → where its task's next destination goes.
    let mut next = vec![0usize; num_hubs];
    let mut offsets = Vec::with_capacity(sources.len() + 1);
    offsets.push(0);
    for &src in &sources {
        next[src as usize] = offsets[offsets.len() - 1];
        offsets.push(offsets[offsets.len() - 1] + fanout(src));
    }
    let mut dests = vec![0u32; hub_rows.len()];
    for &src in &sources {
        for &y in &hub_rows[hub_ptr[src as usize]..hub_ptr[src as usize + 1]] {
            dests[next[y as usize]] = src;
            next[y as usize] += 1;
        }
    }
    InterHubTasks { sources, offsets, dests }
}

/// Merges the few `extra` into `run`, whose head is ascending in `key`
/// and whose last `extra.len()` slots are free: from the back, each
/// entry of `extra` (ascending too) lands where a binary search puts it
/// and the run behind it moves up in one block, so `run` ends up
/// ascending and holds both. For the inter-hub patch, whose extras are
/// few against a long run.
fn merge_few_into<T: Copy, K: Ord>(run: &mut [T], extra: &[T], key: impl Fn(T) -> K) {
    let mut end = run.len() - extra.len();
    let mut to = run.len();
    for &e in extra.iter().rev() {
        let at = run[..end].partition_point(|&x| key(x) < key(e));
        run.copy_within(at..end, to - (end - at));
        to -= end - at + 1;
        run[to] = e;
        end = at;
    }
}

/// Keeps the entries of `items` whose index is listed in the ascending
/// `survivors`, in place: nothing ahead of the first entry dropped
/// moves, and each survivor behind it is swapped down once.
fn keep_survivors<T>(mut items: Vec<T>, survivors: &[u32]) -> Vec<T> {
    for (kept, &s) in survivors.iter().enumerate() {
        if kept != s as usize {
            items.swap(kept, s as usize);
        }
    }
    items.truncate(survivors.len());
    items
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IslandizationConfig;
    use crate::locator::islandize;
    use igcn_graph::generate::HubIslandConfig;
    use igcn_graph::NodeId;

    fn setup() -> (CsrGraph, IslandPartition) {
        let g = HubIslandConfig::new(300, 12).noise_fraction(0.05).generate(9);
        let p = islandize(&g.graph, &IslandizationConfig::default());
        (g.graph, p)
    }

    #[test]
    fn layout_partition_is_valid_and_hub_compact() {
        let (g, p) = setup();
        let layout = IslandLayout::new(&g, &p, 8);
        let original = layout.original_partition();
        original.check_invariants(&g).unwrap();
        assert_eq!(original, p);
        for (i, &h) in p.hubs().iter().enumerate() {
            assert_eq!(
                layout.forward()[h as usize] as usize,
                i,
                "hub IDs must be the compact prefix"
            );
        }
        assert_eq!(layout.num_hubs(), p.num_hubs());
        assert_eq!(layout.num_islands(), p.num_islands());
    }

    #[test]
    fn island_nodes_are_contiguous_ranges() {
        let (g, p) = setup();
        let layout = IslandLayout::new(&g, &p, 8);
        let (forward, islands) = (layout.forward(), layout.islands());
        let mut next = layout.num_hubs() as u32;
        for (i, isl) in p.islands().iter().enumerate() {
            let range = islands.nodes(i);
            assert_eq!(range.start, next, "island nodes must be contiguous in layout order");
            let laid: Vec<u32> = isl.nodes.iter().map(|&v| forward[v as usize]).collect();
            assert_eq!(laid, range.clone().collect::<Vec<_>>(), "island {i}'s members");
            let hubs: Vec<u32> = isl.hubs.iter().map(|&h| forward[h as usize]).collect();
            assert_eq!(islands.hubs(i), hubs, "island {i}'s hubs, in its own order");
            assert_eq!(islands.origin(i), (isl.round, isl.engine));
            next = range.end;
        }
        assert_eq!(next as usize, g.num_nodes());
    }

    #[test]
    fn permuted_graph_preserves_degrees_and_edges() {
        let (g, p) = setup();
        let layout = IslandLayout::new(&g, &p, 8);
        let forward = layout.forward();
        for v in g.iter_nodes() {
            let new = NodeId::new(forward[v.index()]);
            assert_eq!(g.degree(v), layout.graph().degree(new));
        }
        for (u, v) in g.iter_edges() {
            assert!(layout
                .graph()
                .has_edge(NodeId::new(forward[u.index()]), NodeId::new(forward[v.index()])));
        }
    }

    #[test]
    fn schedule_work_matches_unpermuted_schedule() {
        let (g, p) = setup();
        let layout = IslandLayout::new(&g, &p, 8);
        let original = IslandSchedule::new(&g, &p, 8);
        assert_eq!(layout.schedule().work(), original.work());
        assert_eq!(layout.schedule().num_waves(), original.num_waves());
        assert_eq!(
            layout.schedule().occupancy(4).worker_busy_cycles,
            original.occupancy(4).worker_busy_cycles
        );
    }

    #[test]
    fn bitmaps_match_on_demand_construction() {
        let (g, p) = setup();
        let layout = IslandLayout::new(&g, &p, 8);
        for (idx, (nodes, hubs)) in layout.islands().iter().enumerate() {
            let nodes: Vec<u32> = nodes.collect();
            let with_self = IslandBitmap::build(layout.graph(), hubs, &nodes, true);
            assert_eq!(layout.bitmap(idx), &with_self);
        }
    }

    #[test]
    fn inter_hub_tasks_cover_both_directions_in_original_order() {
        let (g, p) = setup();
        let layout = IslandLayout::new(&g, &p, 8);
        let directed: usize = layout.inter_hub_tasks().iter().map(|(_, d)| d.len()).sum();
        assert_eq!(directed, 2 * p.inter_hub_edges().len());
        // Replay order: ascending original source-hub ID. Mapping the
        // layout sources back through the gather order must be sorted.
        let originals: Vec<u32> = layout
            .inter_hub_tasks()
            .iter()
            .map(|(s, _)| layout.gather_order()[s as usize])
            .collect();
        assert!(originals.windows(2).all(|w| w[0] < w[1]));
    }

    /// An update batch staged over `(graph, partition)` as an engine
    /// stages one: a dissolved island stays an empty slot until
    /// [`Batch::end`] compacts the islands and reads the survivors off
    /// them, and every endpoint of a changed edge and every new node is
    /// touched.
    struct Batch {
        graph: CsrGraph,
        partition: IslandPartition,
        leading: usize,
        live: usize,
        touched: Vec<u32>,
    }

    impl Batch {
        fn new(graph: &CsrGraph, partition: &IslandPartition) -> Self {
            let leading = partition.num_islands();
            let (graph, partition) = (graph.clone(), partition.clone());
            Batch { graph, partition, leading, live: leading, touched: vec![] }
        }

        fn apply(&mut self, update: &crate::accel::GraphUpdate) {
            let cfg = IslandizationConfig::default();
            let partition = std::mem::take(&mut self.partition);
            let (graph, result) = crate::incremental::apply_update_structural(
                &self.graph,
                partition,
                self.live,
                &cfg,
                update,
                None,
            )
            .unwrap();
            self.live = result.stats.islands_found as usize;
            self.touched.extend(update.touched_nodes(self.graph.num_nodes()));
            (self.graph, self.partition) = (graph, result.partition);
        }

        /// The updated graph and partition, the survivors and the
        /// touched nodes.
        fn end(mut self) -> (CsrGraph, IslandPartition, Vec<u32>, Vec<u32>) {
            let survivors = self.partition.compact_islands(self.leading);
            (self.graph, self.partition, survivors, self.touched)
        }
    }

    /// Recomposes `before` for the end of `batch` twice — a uniquely
    /// held donor (its parts moved) and a shared one (copied, the sharer
    /// left whole): both are the from-scratch composition, un-permute to
    /// the partition they were given and report the same work.
    fn assert_recompose_matches(
        before: &IslandLayout,
        batch: Batch,
        what: &str,
    ) -> (IslandLayout, IslandPartition, RecomposeStats) {
        let (graph, partition, survivors, touched) = batch.end();
        let graph = Arc::new(graph);
        let expected = IslandLayout::new(&graph, &partition, 8);
        let mut unique = Arc::new(before.clone());
        let stats =
            IslandLayout::recompose(&mut unique, &survivors, &touched, &graph, &partition, 8);
        assert!(!unique.graph_is_materialised(), "{what}: a recompose builds no graph");
        // The parts a patch builds without sorting, first, for a
        // readable failure.
        let hub_lists =
            |l: &IslandLayout| (l.inter_hub_edges().to_vec(), l.inter_hub_tasks().clone());
        assert_eq!(hub_lists(&unique), hub_lists(&expected), "{what}: inter-hub lists");
        let sources = unique.inter_hub_tasks().iter();
        let originals: Vec<u32> = sources.map(|(s, _)| unique.gather_order()[s as usize]).collect();
        assert!(originals.windows(2).all(|w| w[0] < w[1]), "{what}: task sources by original ID");
        assert_eq!(*unique, expected, "{what}: unique donor");
        assert_eq!(unique.original_partition(), partition, "{what}: un-permuted partition");
        assert_eq!(unique.graph(), expected.graph(), "{what}: the graph view");

        let sharer = Arc::new(before.clone());
        let mut shared = Arc::clone(&sharer);
        let shared_stats =
            IslandLayout::recompose(&mut shared, &survivors, &touched, &graph, &partition, 8);
        assert_eq!(*shared, expected, "{what}: shared donor");
        assert_eq!(*sharer, *before, "{what}: a shared donor must be left whole");
        assert_eq!(stats, shared_stats, "{what}");

        let reformed = &partition.islands()[survivors.len()..];
        let reformed_nodes: usize = reformed.iter().map(Island::len).sum();
        assert_eq!(
            (stats.islands_carried, stats.islands_rebuilt),
            (survivors.len(), reformed.len())
        );
        assert_eq!(stats.rows_rebuilt, partition.num_hubs() + reformed_nodes, "{what}");
        assert_eq!(stats.rows_carried + stats.rows_rebuilt, graph.num_nodes(), "{what}");
        (expected, partition, stats)
    }

    #[test]
    fn recomposed_layout_equals_from_scratch_composition() {
        use crate::accel::GraphUpdate;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(5);
        let (base_graph, base_partition) = setup();
        let base_layout = IslandLayout::new(&base_graph, &base_partition, 8);
        let (mut graph, mut partition) = (base_graph.clone(), base_partition.clone());
        let mut layout = base_layout.clone();
        for batch_idx in 0..12 {
            // A batch of one to three updates, each adding and removing
            // a few random edges, under one recomposition.
            let mut batch = Batch::new(&graph, &partition);
            for _ in 0..rng.gen_range(1..4usize) {
                let n = batch.graph.num_nodes() as u32;
                let added: Vec<(u32, u32)> = (0..4)
                    .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
                    .filter(|&(a, b)| a != b)
                    .collect();
                let existing: Vec<(u32, u32)> =
                    batch.graph.iter_edges().map(|(u, v)| (u.value(), v.value())).collect();
                let removed = vec![existing[rng.gen_range(0..existing.len())]];
                batch.apply(&GraphUpdate::add_edges(added).and_remove_edges(removed));
            }
            graph = batch.graph.clone();
            let what = format!("batch {batch_idx}");
            let stats;
            (layout, partition, stats) = assert_recompose_matches(&layout, batch, &what);
            assert!(stats.islands_carried > 0, "small batches leave most islands alone");
        }

        // The patch cases random batches reach only by luck, each from
        // the base layout.
        let hubs = base_partition.hubs();
        let patch_case = |updates: &[GraphUpdate], what: &str| {
            let mut batch = Batch::new(&base_graph, &base_partition);
            for update in updates {
                batch.apply(update);
            }
            let (_, partition, stats) = assert_recompose_matches(&base_layout, batch, what);
            (partition, stats)
        };

        // A hub–hub edge: every island survives, two hub rows differ.
        let mut pairs = hubs.iter().flat_map(|&a| hubs.iter().map(move |&b| (a, b)));
        let (a, b) = pairs
            .find(|&(a, b)| a < b && !base_graph.has_edge(NodeId::new(a), NodeId::new(b)))
            .expect("two hubs without an edge between them");
        let (after, stats) = patch_case(&[GraphUpdate::add_edges(vec![(a, b)])], "hub-hub edge");
        assert_eq!(stats.islands_rebuilt, 0);
        assert_eq!(stats.rows_rebuilt, hubs.len());
        assert_eq!(after.inter_hub_edges().len(), base_partition.inter_hub_edges().len() + 1);

        // A demotion: the first hub in hub order is stripped to one
        // edge, below the hub floor, so every old hub ID shifts down.
        let first = hubs[0];
        let stripped = base_graph.neighbors(NodeId::new(first))[1..].iter().map(|&nb| (first, nb));
        let (after, stats) =
            patch_case(&[GraphUpdate::remove_edges(stripped.collect())], "hub demotion");
        assert_ne!(after.hubs()[0], first, "the stripped hub must leave the head of the hub list");
        assert_eq!(after.hubs()[0], hubs[1], "the hubs behind it move up");
        assert!(stats.islands_carried > 0 && stats.islands_rebuilt > 0);

        // Node growth: one new node wired to a hub, one isolated.
        let n = base_graph.num_nodes();
        let growth = GraphUpdate::add_edges(vec![(n as u32, hubs[0])]).with_num_nodes(n + 2);
        let (after, stats) = patch_case(&[growth], "node growth");
        assert_eq!(after.num_nodes(), n + 2);
        assert_eq!(stats.islands_carried, base_partition.num_islands());

        // A demotion mid-list: a gap in the middle of the old hub IDs,
        // so carried hub entries go through the renumbering table.
        let mid = hubs.len() / 2;
        let stripped = base_graph.neighbors(NodeId::new(hubs[mid]))[1..].to_vec();
        let stripped = stripped.into_iter().map(|nb| (hubs[mid], nb)).collect();
        let (after, stats) =
            patch_case(&[GraphUpdate::remove_edges(stripped)], "mid-list demotion");
        assert_eq!(after.hubs()[..mid], hubs[..mid], "the hubs ahead of the gap stay");
        assert_eq!(after.hubs()[mid], hubs[mid + 1], "the hubs behind it move up");
        assert!(stats.islands_carried > 0 && stats.islands_rebuilt > 0);

        // A removed hub–hub edge: every island survives, the inter-hub
        // list loses one pair and two hub rows one entry each.
        let &(a, b) = base_partition
            .inter_hub_edges()
            .iter()
            .find(|&&(a, b)| {
                base_graph.degree(NodeId::new(a)).min(base_graph.degree(NodeId::new(b))) > 2
            })
            .expect("an inter-hub edge between two well-connected hubs");
        let (after, stats) =
            patch_case(&[GraphUpdate::remove_edges(vec![(b, a)])], "hub-hub removal");
        assert_eq!((stats.islands_rebuilt, after.hubs()), (0, hubs));
        assert_eq!(after.inter_hub_edges().len(), base_partition.inter_hub_edges().len() - 1);

        // One edge added and one removed at the best-connected hub, in
        // one update and in two updates of a batch: its degree is what
        // it was, its row is not.
        let hub = *hubs.iter().max_by_key(|&&h| base_graph.degree(NodeId::new(h))).unwrap();
        let row = base_graph.neighbors(NodeId::new(hub));
        let &gone = row
            .iter()
            .find(|&&nb| base_partition.class_of(NodeId::new(nb)) != NodeClass::Hub)
            .expect("an island member next to the hub");
        let new = (0..n as u32)
            .find(|&v| {
                v != hub
                    && !row.contains(&v)
                    && base_partition.class_of(NodeId::new(v)) != NodeClass::Hub
            })
            .expect("an island member away from the hub");
        let (add, remove) = (
            GraphUpdate::add_edges(vec![(hub, new)]),
            GraphUpdate::remove_edges(vec![(hub, gone)]),
        );
        let together = GraphUpdate::add_edges(vec![(hub, new)]).and_remove_edges(vec![(hub, gone)]);
        for (updates, what) in
            [(vec![together], "swap in one update"), (vec![add, remove], "swap in two updates")]
        {
            let (after, stats) = patch_case(&updates, what);
            assert_eq!(after.class_of(NodeId::new(hub)), NodeClass::Hub, "{what}");
            assert!(stats.islands_carried > 0 && stats.islands_rebuilt > 0, "{what}");
        }

        // A new hub wired to every kept hub: one member of each of many
        // islands joins it, the region outgrows `c_max` and the member
        // with the most edges is promoted, with hub–hub edges to the
        // hubs that were there.
        let v = base_partition.islands()[0].nodes[0];
        let mut wires: Vec<(u32, u32)> = hubs.iter().map(|&h| (v, h)).collect();
        wires.extend(base_partition.islands()[1..].iter().take(12).map(|isl| (v, isl.nodes[0])));
        wires.retain(|&(a, b)| !base_graph.has_edge(NodeId::new(a), NodeId::new(b)));
        let (after, stats) = patch_case(&[GraphUpdate::add_edges(wires)], "new hub");
        assert_eq!(after.class_of(NodeId::new(v)), NodeClass::Hub, "the wired member is a hub");
        assert_eq!(after.hubs()[..hubs.len()], *hubs, "old hubs keep their IDs");
        assert!(hubs.iter().all(|&h| after.inter_hub_edges().contains(&(h.min(v), h.max(v)))));
        assert!(stats.islands_carried > 0 && stats.islands_rebuilt > 0);

        // Only the hub count changes for the old layout: a star of new
        // nodes, too big for one island, promotes its centre and every
        // old island is carried one row further on.
        let star: Vec<(u32, u32)> = (1..=24).map(|leaf| (n as u32, (n + leaf) as u32)).collect();
        let (after, stats) =
            patch_case(&[GraphUpdate::add_edges(star).with_num_nodes(n + 25)], "hub count only");
        assert_eq!(after.num_hubs(), hubs.len() + 1);
        assert_eq!(after.hubs()[hubs.len()], n as u32, "the star's centre is the new hub");
        assert_eq!(stats.islands_carried, base_partition.num_islands());

        // Every island dissolved: one added edge per pair of islands.
        let firsts: Vec<u32> = base_partition.islands().iter().map(|isl| isl.nodes[0]).collect();
        let joins: Vec<(u32, u32)> = firsts.chunks(2).map(|p| (p[0], p[p.len() - 1])).collect();
        let joins = joins
            .into_iter()
            .filter(|&(a, b)| a != b)
            .chain([(firsts[0], firsts[firsts.len() - 1])]);
        let (_, stats) =
            patch_case(&[GraphUpdate::add_edges(joins.collect())], "every island dissolved");
        assert_eq!((stats.islands_carried, stats.rows_carried), (0, 0));

        // No survivors: everything is rebuilt, from any donor once every
        // row counts as touched.
        let mut from_scratch = Batch::new(&base_graph, &base_partition);
        from_scratch.leading = 0;
        from_scratch.touched = (0..n as u32).collect();
        let (after, _, stats) = assert_recompose_matches(&layout, from_scratch, "no survivors");
        assert_eq!(after, base_layout);
        assert_eq!((stats.islands_carried, stats.rows_carried), (0, 0));
    }

    /// One batch that changes the inter-hub lists in every way a patch
    /// must follow: a pair between two kept hubs removed and another
    /// added, a hub with hub–hub pairs demoted, and a new hub promoted
    /// whose original ID sorts between kept hubs, with pairs to kept
    /// hubs. Then a pair added and removed again in one batch: the lists
    /// are what they were, though both hubs are touched.
    #[test]
    fn recompose_patches_the_inter_hub_lists_where_hubs_change() {
        use crate::accel::GraphUpdate;
        let (g, p) = setup();
        let hubs = p.hubs();
        let degree = |v: u32| g.degree(NodeId::new(v));
        let pair = |a: u32, b: u32| (a.min(b), a.max(b));
        let at = |h: u32| p.inter_hub_edges().iter().filter(move |&&(a, b)| a == h || b == h);
        let demoted =
            *hubs.iter().filter(|&&h| at(h).count() > 0).min_by_key(|&&h| degree(h)).unwrap();
        let &(ra, rb) = p
            .inter_hub_edges()
            .iter()
            .find(|&&(a, b)| a != demoted && b != demoted && degree(a).min(degree(b)) > 2)
            .expect("a pair between two well-connected hubs");
        let (aa, ab) = hubs
            .iter()
            .flat_map(|&a| hubs.iter().map(move |&b| (a, b)))
            .find(|&(a, b)| {
                a < b && ![a, b].contains(&demoted) && !g.has_edge(NodeId::new(a), NodeId::new(b))
            })
            .expect("two hubs without an edge between them");
        let (lo, hi) = (*hubs.iter().min().unwrap(), *hubs.iter().max().unwrap());
        let v = p
            .islands()
            .iter()
            .flat_map(|isl| isl.nodes.iter().copied())
            .find(|&v| lo < v && v < hi && !g.has_edge(NodeId::new(v), NodeId::new(demoted)))
            .expect("an island member whose ID sorts between hubs");
        // `v` wired to every hub that stays and to members of twelve
        // other islands: its region outgrows `c_max`, and `v`, with the
        // most edges, is promoted.
        let mut wires: Vec<(u32, u32)> =
            hubs.iter().filter(|&&h| h != demoted).map(|&h| (v, h)).collect();
        let home = p.island_of(NodeId::new(v)).unwrap();
        let others = p.islands().iter().enumerate().filter(|&(i, _)| i != home);
        wires.extend(others.take(12).map(|(_, isl)| (v, isl.nodes[0])));
        wires.retain(|&(a, b)| !g.has_edge(NodeId::new(a), NodeId::new(b)));
        let stripped: Vec<(u32, u32)> =
            g.neighbors(NodeId::new(demoted))[1..].iter().map(|&nb| (demoted, nb)).collect();

        let before = IslandLayout::new(&g, &p, 8);
        let mut batch = Batch::new(&g, &p);
        batch.apply(&GraphUpdate::add_edges(vec![(aa, ab)]).and_remove_edges(vec![(rb, ra)]));
        batch.apply(&GraphUpdate::remove_edges(stripped));
        batch.apply(&GraphUpdate::add_edges(wires));
        let (after, partition, stats) = assert_recompose_matches(&before, batch, "every change");
        let pairs = partition.inter_hub_edges();
        assert!(!pairs.contains(&(ra, rb)) && pairs.contains(&(aa, ab)));
        let kept = hubs.len() - 1;
        assert_eq!(
            partition.hubs()[..kept],
            *hubs.iter().filter(|&&h| h != demoted).copied().collect::<Vec<_>>(),
            "the kept hubs lead, in order"
        );
        assert!(partition.hubs()[kept..].contains(&v), "v is a new hub");
        assert!(hubs.iter().filter(|&&h| h != demoted).all(|&h| pairs.contains(&pair(h, v))));
        assert!(stats.islands_carried > 0 && stats.islands_rebuilt > 0);
        assert_ne!(after.inter_hub_tasks(), before.inter_hub_tasks());

        let mut batch = Batch::new(&g, &p);
        batch.apply(&GraphUpdate::add_edges(vec![(aa, ab)]));
        batch.apply(&GraphUpdate::remove_edges(vec![(ab, aa)]));
        let (after, partition, stats) = assert_recompose_matches(&before, batch, "added, removed");
        assert_eq!((partition.inter_hub_edges(), stats.islands_rebuilt), (p.inter_hub_edges(), 0));
        assert_eq!(after.inter_hub_tasks(), before.inter_hub_tasks());
    }

    /// `graph` with the directed entries `add` put in and `drop` taken
    /// out of their rows (a self-loop, a one-way entry:
    /// `IGcnEngine::build` accepts asymmetric graphs, so a layout must
    /// carry them).
    fn with_entries(graph: &CsrGraph, add: &[(u32, u32)], drop: &[(u32, u32)]) -> CsrGraph {
        let mut rows: Vec<Vec<u32>> =
            graph.iter_nodes().map(|v| graph.neighbors(v).to_vec()).collect();
        for &(a, b) in drop {
            rows[a as usize].retain(|&c| c != b);
        }
        for &(a, b) in add {
            rows[a as usize].push(b);
        }
        let mut row_ptr = vec![0];
        let mut col_idx = Vec::new();
        for row in &mut rows {
            row.sort_unstable();
            col_idx.extend_from_slice(row);
            row_ptr.push(col_idx.len());
        }
        let graph = CsrGraph::from_raw_parts(graph.num_nodes(), row_ptr, col_idx).unwrap();
        assert!(!graph.is_symmetric());
        graph
    }

    /// Hub rows the inter-hub list does not spell out: a hub's
    /// self-loop, and a one-way hub–hub entry. An update far from both
    /// leaves them untouched, and they are carried as they were.
    #[test]
    fn recompose_matches_where_the_inter_hub_list_is_not_the_hub_row() {
        use crate::accel::GraphUpdate;
        let (g, p) = setup();
        // The best-connected hubs, which stay hubs whatever one entry
        // more or less does to the locator's run.
        let mut by_degree = p.hubs().to_vec();
        by_degree.sort_by_key(|&h| std::cmp::Reverse(g.degree(NodeId::new(h))));
        let (a, hub) = (by_degree[0], by_degree[1]);
        let &b = g
            .neighbors(NodeId::new(a))
            .iter()
            .find(|&&nb| nb != hub && p.class_of(NodeId::new(nb)) == NodeClass::Hub)
            .expect("a hub next to the best-connected hub");
        // Row `a` loses `b` (one way only); `hub` gains a self-loop.
        let graph = with_entries(&g, &[(hub, hub)], &[(a, b)]);
        let partition = islandize(&graph, &IslandizationConfig::default());
        let before = IslandLayout::new(&graph, &partition, 8);
        // An update far from both rows: two island members joined.
        let (x, y) = (partition.islands()[0].nodes[0], partition.islands()[1].nodes[0]);
        let mut batch = Batch::new(&graph, &partition);
        batch.apply(&GraphUpdate::add_edges(vec![(x, y)]));
        for h in [a, b, hub] {
            assert_eq!(batch.partition.class_of(NodeId::new(h)), NodeClass::Hub, "{h}");
            assert!(!batch.touched.contains(&h));
        }
        assert_recompose_matches(&before, batch, "one-way and self-loop");
    }

    /// An untouched hub whose row holds a self-loop and a one-way entry
    /// into an island the update dissolves: the row is its old one, the
    /// one-way entry looked up through the new permutation.
    #[test]
    fn recompose_carries_an_untouched_hub_row_with_a_one_way_entry_into_a_dissolved_island() {
        use crate::accel::GraphUpdate;
        let (g, p) = setup();
        let hub = *p.hubs().iter().max_by_key(|&&h| g.degree(NodeId::new(h))).unwrap();
        let island = p.islands().iter().position(|isl| {
            isl.nodes.iter().all(|&v| !g.has_edge(NodeId::new(hub), NodeId::new(v)))
        });
        let m = p.islands()[island.expect("an island away from the hub")].nodes[0];
        // `hub → m` one way, and `hub → hub`.
        let graph = with_entries(&g, &[(hub, m), (hub, hub)], &[]);
        let partition = islandize(&graph, &IslandizationConfig::default());
        assert_eq!(partition.class_of(NodeId::new(hub)), NodeClass::Hub);
        let NodeClass::Island(home) = partition.class_of(NodeId::new(m)) else {
            panic!("the one-way entry's target must be an island member");
        };
        let before = IslandLayout::new(&graph, &partition, 8);
        // Join `m` to a member of another island: its island dissolves.
        let other = partition
            .islands()
            .iter()
            .enumerate()
            .find(|&(i, isl)| i != home as usize && isl.nodes.iter().all(|&v| v != hub))
            .map(|(_, isl)| isl.nodes[0])
            .unwrap();
        let mut batch = Batch::new(&graph, &partition);
        batch.apply(&GraphUpdate::add_edges(vec![(m, other)]));
        assert!(batch.partition.islands()[home as usize].is_empty(), "m's island dissolved");
        assert_eq!(batch.partition.class_of(NodeId::new(hub)), NodeClass::Hub);
        assert!(!batch.touched.contains(&hub));
        let (after, _, _) = assert_recompose_matches(&before, batch, "one-way into dissolved");
        let row = after.graph().neighbors(NodeId::new(after.forward()[hub as usize]));
        assert!(row.contains(&after.forward()[m as usize]), "the one-way entry is carried");
    }

    #[test]
    fn recompose_without_survivors_is_a_fresh_composition() {
        let (g, p) = setup();
        let mut layout = Arc::new(IslandLayout::new(&g, &p, 8));
        IslandLayout::recompose(&mut layout, &[], &[], &Arc::new(g.clone()), &p, 8);
        assert_eq!(*layout, IslandLayout::new(&g, &p, 8));
    }

    #[test]
    fn small_update_rebuilds_only_hub_rows_and_reformed_islands() {
        use crate::accel::GraphUpdate;
        let g = HubIslandConfig::new(2_000, 80).noise_fraction(0.0).generate(4).graph;
        let p = islandize(&g, &IslandizationConfig::default());
        let before = IslandLayout::new(&g, &p, 8);
        let n = g.num_nodes() as u32;
        let edges: Vec<(u32, u32)> = (0..8u32)
            .map(|i| (i * 211 % n, (i * 467 + 1_003) % n))
            .filter(|&(a, b)| a != b && !g.has_edge(NodeId::new(a), NodeId::new(b)))
            .collect();
        assert_eq!(edges.len(), 8);
        let mut batch = Batch::new(&g, &p);
        batch.apply(&GraphUpdate::add_edges(edges));
        let (_, partition, stats) = assert_recompose_matches(&before, batch, "8 edges");
        // `assert_recompose_matches` pins `rows_rebuilt` to hubs plus
        // re-formed members and the two counts to `n`; what is left is
        // that an 8-edge batch carries nearly everything (here all but
        // 87 hub rows and the ~200 members of the islands its sixteen
        // endpoints touch).
        assert!(stats.islands_rebuilt > 0, "the batch must dissolve something");
        assert!(
            stats.rows_carried * 10 >= partition.num_nodes() * 8,
            "only {} of {} rows carried",
            stats.rows_carried,
            partition.num_nodes()
        );
    }

    #[test]
    fn gather_and_forward_are_inverse() {
        let (g, p) = setup();
        let layout = IslandLayout::new(&g, &p, 8);
        for old in 0..g.num_nodes() {
            let new = layout.forward()[old] as usize;
            assert_eq!(layout.gather_order()[new] as usize, old);
        }
    }
}
