//! The islandized *physical* data layout.
//!
//! Islandization discovers which nodes are touched together; this module
//! makes that locality **physical**. [`IslandLayout`] composes the
//! partition's slot order into a [`Permutation`] (hubs first, then
//! islands back to back — exactly [`IslandPartition::ordering`]). In
//! those IDs the hubs are the compact range `0..H`, which lets the
//! execution core index dense flat slabs by hub ID, and every island is
//! one range. Slots outlive updates ([`crate::incremental`]), so a
//! recompose copies each unchanged slot as a block. The layout keeps:
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
//! * the sorted inter-hub pairs, which a recompose patches at the hubs
//!   that changed and the sharder reads, and the inter-hub tasks
//!   ([`InterHubTasks`]), one PUSH task per source hub in ascending
//!   *original* source-hub ID, so the order hub partial rows accumulate
//!   in is a rule of the partition and not of the layout's numbering.
//!   The snapshot stores neither: like the ranges, a boot derives them.
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
use crate::incremental::IncrementalResult;
use crate::island::{Island, IslandBitmap};
use crate::partition::{IslandPartition, NodeClass};
use crate::schedule::IslandSchedule;

/// Schedule-ordered physical layout of one islandized graph.
///
/// Composed at engine construction ([`IslandLayout::new`]), patched to
/// the new (graph, partition) after every `apply_update` restructuring
/// (`IslandLayout::recompose`), and shared read-only by every request.
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

    /// The IDs of the members of islands `islands`, one range.
    fn span(&self, islands: Range<usize>) -> Range<usize> {
        self.starts[islands.start] as usize..self.starts[islands.end] as usize
    }

    /// Appends the islands `from` of `other` behind the last island, as
    /// one block: their starts and hub offsets shifted, their hubs
    /// copied (through `rename`, old hub ID → new, if there is one),
    /// their origins copied.
    fn extend_from(&mut self, other: &LaidIslands, from: Range<usize>, rename: Option<&[u32]>) {
        let (a, b) = (from.start, from.end);
        let (start, hub_start) = (self.num_nodes() as u32, self.hubs.len());
        self.starts.extend(other.starts[a + 1..=b].iter().map(|&s| s - other.starts[a] + start));
        let hubs = &other.hubs[other.hub_offsets[a]..other.hub_offsets[b]];
        match rename {
            Some(rename) => self.hubs.extend(hubs.iter().map(|&h| rename[h as usize])),
            None => self.hubs.extend_from_slice(hubs),
        }
        let offsets = &other.hub_offsets[a + 1..=b];
        self.hub_offsets.extend(offsets.iter().map(|&o| o - other.hub_offsets[a] + hub_start));
        self.origins.extend_from_slice(&other.origins[a..b]);
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
/// it replaced and what it built anew, in islands and layout rows
/// (nodes), with the batch's slot moves and the inter-hub pairs it
/// re-derived.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct RecomposeStats {
    /// Islands carried, in their slot or moved from the tail into a
    /// hole: member run, hub run, work, origin and bitmap kept.
    pub islands_carried: usize,
    /// Islands the batch formed, composed from adjacency.
    pub islands_rebuilt: usize,
    /// Members of carried islands.
    pub rows_carried: usize,
    /// Every hub and every formed island's member.
    pub rows_rebuilt: usize,
    /// Emptied island and hub slots a formed island or a promoted hub
    /// took.
    pub slots_refilled: usize,
    /// Emptied island slots that took the last island.
    pub islands_moved: usize,
    /// Emptied hub slots that took the last hub.
    pub hubs_moved: usize,
    /// Inter-hub pairs re-derived: those at changed hubs, or every pair
    /// when the lists are derived from scratch.
    pub inter_hub_pairs_patched: usize,
}

/// A slot that holds nothing of the old layout: an island the batch
/// formed, or a hub it promoted.
const FRESH: u32 = u32::MAX;

/// What each slot of an update batch's partition holds of the layout
/// the batch started from, followed update by update: the old index of
/// the island or the old ID of the hub, or none for one the batch
/// formed or promoted. What [`IslandLayout::recompose`] carries.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct SlotSources {
    islands: Vec<u32>,
    hubs: Vec<u32>,
    /// The slot moves so far.
    moves: RecomposeStats,
}

impl SlotSources {
    /// A batch over `layout` before its first update.
    pub(crate) fn of(layout: &IslandLayout) -> Self {
        let (islands, hubs) = (layout.num_islands() as u32, layout.num_hubs() as u32);
        SlotSources {
            islands: (0..islands).collect(),
            hubs: (0..hubs).collect(),
            ..Self::default()
        }
    }

    /// Follows the next update of the batch.
    pub(crate) fn record(&mut self, update: &IncrementalResult) {
        let (refilled, moved) = update.island_slots.mirror(&mut self.islands, FRESH);
        self.moves.islands_moved += moved;
        let (hubs_refilled, moved) = update.hub_slots.mirror(&mut self.hubs, FRESH);
        self.moves.hubs_moved += moved;
        self.moves.slots_refilled += refilled + hubs_refilled;
    }

    /// `layout`'s bitmaps in slot order (a slot the batch formed an
    /// island in holds any bitmap), moved out of a uniquely held `layout`
    /// or cloned from a shared one. A carried island only ever moves down
    /// (a hole takes the last island), so ascending swaps place them all.
    fn bitmaps(&self, layout: &mut Arc<IslandLayout>) -> Vec<IslandBitmap> {
        let mut bitmaps = match Arc::get_mut(layout) {
            Some(owned) => std::mem::take(&mut owned.bitmaps),
            None => layout.bitmaps.clone(),
        };
        for (slot, &from) in self.islands.iter().enumerate() {
            if from != FRESH && from as usize != slot {
                debug_assert!(from as usize > slot, "a carried island moved up");
                bitmaps.swap(slot, from as usize);
            }
        }
        bitmaps.resize_with(self.islands.len(), IslandBitmap::default);
        bitmaps
    }

    /// Old hub ID → new, if a hub the batch kept moved.
    fn hub_renaming(&self, old_hubs: usize) -> Option<Vec<u32>> {
        let kept = (0u32..).zip(&self.hubs).filter(|&(_, &old)| old != FRESH);
        kept.clone().any(|(new, &old)| old != new).then(|| {
            let mut rename = vec![FRESH; old_hubs];
            kept.for_each(|(new, &old)| rename[old as usize] = new);
            rename
        })
    }

    /// The hubs whose inter-hub pairs change, ascending, among the
    /// `old_hubs` hubs of the old layout and in the new IDs `forward`
    /// gives: a hub not in the same slot on both sides, and a hub the
    /// batch `touched` (which, if it kept its slot, has one ID). Every
    /// other hub keeps its ID, and every pair between two such.
    fn changed_hubs(&self, touched: &[u32], old_hubs: usize, forward: &[u32]) -> [Vec<u32>; 2] {
        let mut changed: Vec<bool> = (0u32..).zip(&self.hubs).map(|(h, &old)| old != h).collect();
        for &v in touched {
            if let Some(mark) = forward.get(v as usize).and_then(|&id| changed.get_mut(id as usize))
            {
                *mark = true;
            }
        }
        // An old hub past the new list's end lost its slot.
        let stays = |h: u32| changed.get(h as usize) == Some(&false);
        [old_hubs, self.hubs.len()].map(|hubs| (0..hubs as u32).filter(|&h| !stays(h)).collect())
    }
}

/// A composition's islands in the new layout's IDs, one entry per
/// island in each list, in slot order.
struct Carried {
    islands: LaidIslands,
    work: Vec<u64>,
    bitmaps: Vec<IslandBitmap>,
}

impl Carried {
    /// No island yet, behind `num_hubs` hubs; room for `islands`.
    /// `bitmaps` holds the carried islands' in slot order (a slot
    /// composed anew is overwritten), or is empty.
    fn new(num_hubs: usize, islands: usize, bitmaps: Vec<IslandBitmap>) -> Self {
        Carried {
            islands: LaidIslands::with_capacity(num_hubs, islands),
            work: Vec::with_capacity(islands),
            bitmaps,
        }
    }

    /// Composes `isl` behind the islands already there from `graph`,
    /// its graph in its own IDs, renumbered through `forward` — or its
    /// bitmap from `laid_out`, that graph in the layout's IDs, if there
    /// is one (a bitmap names no node, so it is the same from both).
    fn compose(
        &mut self,
        isl: &Island,
        forward: &[u32],
        graph: &CsrGraph,
        laid_out: Option<&CsrGraph>,
    ) {
        let start = self.islands.num_nodes() as u32;
        let renamed = isl.hubs.iter().map(|&h| forward[h as usize]);
        self.islands.push(isl.len(), renamed, (isl.round, isl.engine));
        let hubs = self.islands.hubs(self.islands.len() - 1);
        self.work.push(IslandSchedule::island_work(graph, isl));
        let bitmap = match laid_out {
            Some(laid_out) => {
                let nodes: Vec<u32> = (start..start + isl.len() as u32).collect();
                IslandBitmap::build(laid_out, hubs, &nodes, true)
            }
            None => IslandBitmap::build_renumbered(graph, forward, hubs, &isl.nodes, start, true),
        };
        match self.bitmaps.get_mut(self.islands.len() - 1) {
            Some(slot) => *slot = bitmap,
            None => self.bitmaps.push(bitmap),
        }
    }

    /// Carries the islands `from` of `old` as one block: ranges, hub
    /// runs (through `rename`, if there is one), origins and work copied
    /// (the bitmaps are in place already).
    fn carry(&mut self, old: &IslandLayout, from: Range<usize>, rename: Option<&[u32]>) {
        self.islands.extend_from(&old.islands, from.clone(), rename);
        self.work.extend_from_slice(&old.schedule.work()[from]);
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
        let islands = partition.num_islands();
        let mut carried = Carried::new(partition.num_hubs(), islands, Vec::with_capacity(islands));
        for isl in partition.islands() {
            carried.compose(isl, numbering.perm.as_forward(), graph, Some(&permuted));
        }
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
    /// `sources` says what each slot of `partition` holds of `this`. A
    /// kept island keeps its hubs, its members and every edge at them
    /// (anything else would have dissolved it), so each run of islands
    /// carried from consecutive slots — in place, or one moved from the
    /// tail into a hole — is one block: its gather-order run, its hub run
    /// (renamed only if a hub moved), its work estimates and origins. Its
    /// bitmaps stay where they are, but for a moved island's, swapped
    /// into its slot. Re-derived are the permutation, at copy speed; the
    /// islands the batch formed, from `graph`'s adjacency in its own
    /// IDs; and the inter-hub pairs and tasks at the hubs that changed —
    /// a hub not in the same slot as before, or `touched` — which are
    /// patched, or derived from scratch past one changed hub in forty
    /// (where that is cheaper; a debug build always patches and checks
    /// the result against the from-scratch numbering). No graph row is
    /// copied; the layout shares `graph`. (Measured split:
    /// [`crate::incremental`].)
    ///
    /// `touched` lists, in `graph`'s IDs and in any order, every node
    /// whose row the batch changed: every endpoint of an added or
    /// removed edge, and every new node (a changed degree is not the
    /// test: a batch that adds one edge at a hub and removes another
    /// keeps its degree). The result equals `IslandLayout::new(graph,
    /// partition, num_pes)`. A uniquely held `this` gives its bitmaps and
    /// unchanged inter-hub lists away; a shared one is left untouched and
    /// they are cloned.
    ///
    /// # Panics
    ///
    /// As [`IslandLayout::new`], or if `sources` do not describe
    /// `partition` (a release build checks the counts and the carried
    /// islands' total length, a debug build each one). After a panic a
    /// uniquely held `this` may have lost its bitmaps and must not be used.
    pub(crate) fn recompose(
        this: &mut Arc<IslandLayout>,
        sources: &SlotSources,
        touched: &[u32],
        graph: &Arc<CsrGraph>,
        partition: &IslandPartition,
        num_pes: usize,
    ) -> RecomposeStats {
        assert_eq!(graph.num_nodes(), partition.num_nodes(), "partition does not match the graph");
        let described = (sources.islands.len(), sources.hubs.len());
        let mismatch = "the slot sources do not describe the partition";
        assert_eq!(described, (partition.num_islands(), partition.num_hubs()), "{mismatch}");
        let mut span = igcn_obs::trace::OpenSpan::child(
            igcn_obs::trace::ambient(),
            igcn_obs::stage::LAYOUT_RECOMPOSE,
        );
        let bitmaps = sources.bitmaps(this);
        let old: &IslandLayout = this;
        // Each formed island alone, and each run of islands carried from
        // consecutive slots of `old` (with that range), by first slot.
        let runs = || {
            let runs = sources.islands.chunk_by(|&a, &b| a != FRESH && b == a + 1);
            runs.scan(0, |slot, run| {
                *slot += run.len();
                let from = (run[0] != FRESH).then(|| run[0] as usize..run[0] as usize + run.len());
                Some((*slot - run.len(), from))
            })
        };

        let mut gather_order: Vec<u32> = Vec::with_capacity(graph.num_nodes());
        gather_order.extend_from_slice(partition.hubs());
        for (slot, from) in runs() {
            gather_order.extend_from_slice(match from {
                None => &partition.islands()[slot].nodes,
                Some(from) => &old.gather_order[old.islands.span(from)],
            });
        }
        assert_eq!(gather_order.len(), graph.num_nodes(), "{mismatch}");
        debug_assert!(gather_order == partition.order(), "{mismatch}");
        let perm = Permutation::from_order(&gather_order).expect("a partition is a permutation");
        let forward = perm.as_forward();

        let num_hubs = partition.num_hubs();
        let rename = sources.hub_renaming(old.num_hubs());
        let mut carried = Carried::new(num_hubs, partition.num_islands(), bitmaps);
        for (slot, from) in runs() {
            match from {
                None => carried.compose(&partition.islands()[slot], forward, graph, None),
                Some(from) => carried.carry(old, from, rename.as_deref()),
            }
        }

        let changed = sources.changed_hubs(touched, old.num_hubs(), forward);
        let (inter_hub_edges, inter_hub_tasks, inter_hub_pairs_patched) =
            match changed[0].len().max(changed[1].len()) {
                0 => match Arc::get_mut(this) {
                    Some(owned) => {
                        let tasks = std::mem::take(&mut owned.inter_hub_tasks);
                        (std::mem::take(&mut owned.inter_hub_edges), tasks, 0)
                    }
                    None => (this.inter_hub_edges.clone(), this.inter_hub_tasks.clone(), 0),
                },
                // Debug builds always patch, so the check below holds the
                // patch to the from-scratch lists in every test.
                n if cfg!(debug_assertions) || 40 * n <= num_hubs => {
                    old.patched_inter_hub(&changed, partition, forward, &gather_order)
                }
                _ => {
                    let (pairs, tasks) = inter_hub_lists(partition, forward);
                    let derived = pairs.len();
                    (pairs, tasks, derived)
                }
            };
        let numbering = Numbering { perm, gather_order, inter_hub_edges, inter_hub_tasks };
        debug_assert!(numbering == Numbering::of(partition), "the patched numbering differs");

        let fresh = (0..).zip(&sources.islands).filter(|&(_, &s)| s == FRESH);
        let (islands_rebuilt, rows_rebuilt) = fresh
            .fold((0, num_hubs), |(i, r), (slot, _)| (i + 1, r + partition.islands()[slot].len()));
        let stats = RecomposeStats {
            islands_carried: partition.num_islands() - islands_rebuilt,
            islands_rebuilt,
            rows_carried: graph.num_nodes() - rows_rebuilt,
            rows_rebuilt,
            inter_hub_pairs_patched,
            ..sources.moves
        };
        let composed = Self::compose(num_pes, partition.c_max(), numbering, carried);
        *this = Arc::new(composed.sharing(graph));
        let counts = [
            ("islands_carried", stats.islands_carried),
            ("islands_rebuilt", stats.islands_rebuilt),
            ("rows_carried", stats.rows_carried),
            ("rows_rebuilt", stats.rows_rebuilt),
            ("slots_refilled", stats.slots_refilled),
            ("islands_moved", stats.islands_moved),
            ("hubs_moved", stats.hubs_moved),
            ("inter_hub_pairs_patched", stats.inter_hub_pairs_patched),
        ];
        for (name, count) in counts {
            span.tag(name, count);
        }
        if igcn_obs::enabled() {
            for (name, count) in counts.into_iter().filter(|&(name, _)| name != "rows_carried") {
                igcn_obs::counter(&format!("engine_update_{name}")).add(count as u64);
            }
            igcn_obs::gauge("engine_hubs").set(partition.num_hubs() as i64);
        }
        stats
    }

    /// The inter-hub pairs and PUSH tasks of `partition` in the layout
    /// IDs `forward` gives (`gather_order` its inverse), as
    /// [`Numbering::of`] derives them, patched from this layout's at the
    /// `changed` hubs (in its IDs, then in the new ones), and the count of
    /// pairs merged in. A pair between two hubs that did not change is
    /// one the batch left alone (an edge added or removed touches both
    /// ends, and the locator records pairs only at the hubs it promotes),
    /// so it keeps its sorted place and its place in its tasks. A changed
    /// hub's old pairs are found through its own task and taken out; the
    /// pairs at changed hubs are taken from `partition`'s list, renamed,
    /// sorted and merged in: into the pairs by layout ID, into the tasks
    /// (sources and each one's destinations) by original ID. The runs
    /// between are block copies, but a re-derived pair costs ten to
    /// twenty times a pair of the from-scratch lists ([`inter_hub_lists`]).
    fn patched_inter_hub(
        &self,
        [changed_old, changed_new]: &[Vec<u32>; 2],
        partition: &IslandPartition,
        forward: &[u32],
        gather_order: &[u32],
    ) -> (Vec<(u32, u32)>, InterHubTasks, usize) {
        // A changed hub's task goes, each pair it lists goes, and each
        // task it is a destination of is filtered.
        let (mut dropped, mut filtered) =
            (vec![false; self.num_hubs()], vec![false; self.num_hubs()]);
        let mut gone: Vec<usize> = Vec::new();
        for &x in changed_old {
            dropped[x as usize] = true;
            for &y in self.task_of(x) {
                filtered[y as usize] = true;
                let at = self.inter_hub_edges.binary_search(&(x.min(y), x.max(y)));
                gone.push(at.expect("a task's destinations are its source's pairs"));
            }
        }
        gone.sort_unstable();
        gone.dedup();

        // The pairs at a changed hub, by original ID in the partition's
        // list, renamed and sorted.
        let mut marked = vec![0u64; partition.num_nodes().div_ceil(64)];
        for &h in changed_new {
            let v = gather_order[h as usize];
            marked[v as usize / 64] |= 1 << (v % 64);
        }
        let is_marked = |v: u32| marked[v as usize / 64] >> (v % 64) & 1 != 0;
        let at_changed =
            partition.inter_hub_edges().iter().filter(|&&(a, b)| is_marked(a) || is_marked(b));
        let mut patched: Vec<(u32, u32)> = at_changed
            .map(|&(a, b)| {
                let (x, y) = (forward[a as usize], forward[b as usize]);
                (x.min(y), x.max(y))
            })
            .collect();
        patched.sort_unstable();

        let old_pairs = &self.inter_hub_edges;
        let mut edges = Vec::with_capacity(old_pairs.len() - gone.len() + patched.len());
        let mut from = 0;
        for &at in &gone {
            edges.extend_from_slice(&old_pairs[from..at]);
            from = at + 1;
        }
        edges.extend_from_slice(&old_pairs[from..]);
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
        let tasks = self.patched_tasks(&dropped, &filtered, &entries, gather_order, forward);
        (edges, tasks, patched.len())
    }

    /// The destinations of hub `hub`'s PUSH task (none if it has none):
    /// the tasks run in ascending original source ID.
    fn task_of(&self, hub: u32) -> &[u32] {
        let (tasks, original) = (&self.inter_hub_tasks, |v: u32| self.gather_order[v as usize]);
        let at = tasks.sources.partition_point(|&s| original(s) < original(hub));
        match tasks.sources.get(at) {
            Some(&s) if s == hub => &tasks.dests[tasks.offsets[at]..tasks.offsets[at + 1]],
            _ => &[],
        }
    }

    /// This layout's PUSH tasks, patched: a `dropped` source's task left
    /// out, a `filtered` source's `dropped` destinations left out, every
    /// other task copied as it is, and `entries` — the patched pairs both
    /// ways as `(source, destination)` original IDs, ascending — merged
    /// in by original ID, sources and destinations alike. A task left
    /// empty is dropped.
    fn patched_tasks(
        &self,
        dropped: &[bool],
        filtered: &[bool],
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
        // A hub that did not change keeps its ID and its original ID.
        let mut kept = old
            .iter()
            .filter(|&(src, _)| !dropped[src as usize])
            .map(|(src, dests)| (self.gather_order[src as usize], src, dests))
            .peekable();
        loop {
            let src = match (kept.peek(), entries.first()) {
                (None, None) => break,
                (Some(&(a, ..)), Some(&(b, _))) => a.min(b),
                (Some(&(a, ..)), None) => a,
                (None, Some(&(b, _))) => b,
            };
            let start = len;
            if let Some((_, hub, dests)) = kept.next_if(|&(a, ..)| a == src) {
                if filtered[hub as usize] {
                    for &d in dests {
                        tasks.dests[len] = d;
                        len += usize::from(!dropped[d as usize]);
                    }
                } else {
                    tasks.dests[len..len + dests.len()].copy_from_slice(dests);
                    len += dests.len();
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
/// ascending and holds both. For the inter-hub lists, whose extras are
/// few against a long run.
pub(crate) fn merge_few_into<T: Copy, K: Ord>(run: &mut [T], extra: &[T], key: impl Fn(T) -> K) {
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

    /// An update batch staged over `(graph, partition)` and its layout
    /// as an engine stages one: each update's slot moves are followed,
    /// and every endpoint of a changed edge and every new node is
    /// touched.
    struct Batch {
        graph: CsrGraph,
        partition: IslandPartition,
        sources: SlotSources,
        touched: Vec<u32>,
    }

    impl Batch {
        fn new(graph: &CsrGraph, partition: &IslandPartition, layout: &IslandLayout) -> Self {
            let (graph, partition) = (graph.clone(), partition.clone());
            Batch { graph, partition, sources: SlotSources::of(layout), touched: vec![] }
        }

        /// Applies `update`, and checks the slot invariants: no island
        /// slot is empty, and an island neither dissolved nor moved
        /// keeps its index.
        fn apply(&mut self, update: &crate::accel::GraphUpdate) {
            let cfg = IslandizationConfig::default();
            let partition = std::mem::take(&mut self.partition);
            let before = partition.islands().to_vec();
            let hubs_before = partition.hubs().to_vec();
            let (graph, result) = crate::incremental::apply_update_structural(
                &self.graph,
                partition,
                &cfg,
                update,
                None,
            )
            .unwrap();
            self.sources.record(&result);
            self.touched.extend(update.touched_nodes(self.graph.num_nodes()));
            (self.graph, self.partition) = (graph, result.partition);
            let islands = self.partition.islands();
            assert!(islands.iter().all(|isl| !isl.is_empty()), "an island slot is empty");
            // A hole closed by a move is a hole too, and the island moved
            // came from past the new end.
            let edit = &result.island_slots;
            for (i, isl) in before.iter().enumerate().take(islands.len()) {
                if edit.holes.binary_search(&(i as u32)).is_err() {
                    assert_eq!(&islands[i], isl, "island {i} kept its slot");
                }
            }
            assert_eq!(result.stats.islands_found as usize, islands.len());
            // Hubs the same way: each listed once, as a hub.
            let (hubs, edit) = (self.partition.hubs(), &result.hub_slots);
            let mut distinct = hubs.to_vec();
            distinct.sort_unstable();
            distinct.dedup();
            assert_eq!(distinct.len(), hubs.len(), "a hub is listed twice");
            assert!(hubs
                .iter()
                .all(|&h| self.partition.class_of(NodeId::new(h)) == NodeClass::Hub));
            for (t, &h) in hubs_before.iter().enumerate().take(hubs.len()) {
                if edit.holes.binary_search(&(t as u32)).is_err() {
                    assert_eq!(hubs[t], h, "hub {t} kept its slot");
                }
            }
        }

        /// Every island and hub slot of the partition counted as formed
        /// (whatever layout the batch names).
        fn all_fresh(mut self) -> Self {
            self.sources.islands = vec![FRESH; self.partition.num_islands()];
            self.sources.hubs = vec![FRESH; self.partition.num_hubs()];
            self
        }
    }

    /// Recomposes `before` for the end of `batch` twice — a uniquely
    /// held donor (its parts moved) and a shared one (copied, the sharer
    /// left whole): both are the from-scratch composition, un-permute to
    /// the partition they were given and report the same work. A kept
    /// island neither moved nor dissolved keeps its index and bitmap.
    fn assert_recompose_matches(
        before: &IslandLayout,
        batch: Batch,
        what: &str,
    ) -> (IslandLayout, IslandPartition, RecomposeStats) {
        let Batch { graph, partition, sources, touched } = batch;
        let graph = Arc::new(graph);
        let expected = IslandLayout::new(&graph, &partition, 8);
        let mut unique = Arc::new(before.clone());
        let stats = IslandLayout::recompose(&mut unique, &sources, &touched, &graph, &partition, 8);
        assert!(!unique.graph_is_materialised(), "{what}: a recompose builds no graph");
        // The parts a patch builds without sorting, first, for a
        // readable failure.
        let hub_lists =
            |l: &IslandLayout| (l.inter_hub_edges().to_vec(), l.inter_hub_tasks().clone());
        assert_eq!(hub_lists(&unique), hub_lists(&expected), "{what}: inter-hub lists");
        let sources_ = unique.inter_hub_tasks().iter();
        let originals: Vec<u32> =
            sources_.map(|(s, _)| unique.gather_order()[s as usize]).collect();
        assert!(originals.windows(2).all(|w| w[0] < w[1]), "{what}: task sources by original ID");
        assert_eq!(*unique, expected, "{what}: unique donor");
        assert_eq!(unique.original_partition(), partition, "{what}: un-permuted partition");
        assert_eq!(unique.graph(), expected.graph(), "{what}: the graph view");

        let sharer = Arc::new(before.clone());
        let mut shared = Arc::clone(&sharer);
        let shared_stats =
            IslandLayout::recompose(&mut shared, &sources, &touched, &graph, &partition, 8);
        assert_eq!(*shared, expected, "{what}: shared donor");
        assert_eq!(*sharer, *before, "{what}: a shared donor must be left whole");
        assert_eq!(stats, shared_stats, "{what}");

        // The hubs are `0..H` in slot order; a carried island's bitmap
        // is the one it had.
        let hub_ids: Vec<u32> =
            partition.hubs().iter().map(|&h| unique.forward()[h as usize]).collect();
        assert!(hub_ids.iter().copied().eq(0..partition.num_hubs() as u32), "{what}: hub IDs");
        let carried: Vec<(usize, u32)> =
            (0..).zip(sources.islands.iter().copied()).filter(|&(_, s)| s != FRESH).collect();
        for &(i, s) in &carried {
            assert_eq!(unique.bitmap(i), before.bitmap(s as usize), "{what}: island {i}'s bitmap");
        }
        let reformed_nodes: usize = (0..partition.num_islands())
            .filter(|&i| sources.islands[i] == FRESH)
            .map(|i| partition.islands()[i].len())
            .sum();
        assert_eq!(
            (stats.islands_carried, stats.islands_rebuilt),
            (carried.len(), partition.num_islands() - carried.len())
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
            let mut batch = Batch::new(&graph, &partition, &layout);
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
            let mut batch = Batch::new(&base_graph, &base_partition, &base_layout);
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

        // A demotion that leaves more holes than the update fills: the
        // first hub in slot order is stripped to one edge, below the hub
        // floor, and nothing is promoted, so the last hub takes its slot
        // and every other hub keeps its ID.
        let (first, last) = (hubs[0], hubs[hubs.len() - 1]);
        let stripped = base_graph.neighbors(NodeId::new(first))[1..].iter().map(|&nb| (first, nb));
        let (after, stats) =
            patch_case(&[GraphUpdate::remove_edges(stripped.collect())], "hub demotion");
        assert_eq!(after.hubs()[0], last, "the last hub takes the hole");
        assert_eq!(after.hubs()[1..], hubs[1..hubs.len() - 1], "the other hubs keep their slots");
        assert_eq!((stats.hubs_moved, stats.slots_refilled > 0), (1, true));
        assert!(stats.islands_carried > 0 && stats.islands_rebuilt > 0);
        assert!(stats.inter_hub_pairs_patched > 0, "the moved hub's pairs are re-derived");

        // Node growth: one new node wired to a hub, one isolated.
        let n = base_graph.num_nodes();
        let growth = GraphUpdate::add_edges(vec![(n as u32, hubs[0])]).with_num_nodes(n + 2);
        let (after, stats) = patch_case(&[growth], "node growth");
        assert_eq!(after.num_nodes(), n + 2);
        assert_eq!(stats.islands_carried, base_partition.num_islands());

        // A demotion mid-list: the last hub takes the hole, so carried
        // islands at it rename their hub entries.
        let mid = hubs.len() / 2;
        let stripped = base_graph.neighbors(NodeId::new(hubs[mid]))[1..].to_vec();
        let stripped = stripped.into_iter().map(|nb| (hubs[mid], nb)).collect();
        let (after, stats) =
            patch_case(&[GraphUpdate::remove_edges(stripped)], "mid-list demotion");
        assert_eq!(after.hubs()[..mid], hubs[..mid], "the hubs ahead of the hole stay");
        assert_eq!(after.hubs()[mid], last, "the last hub takes the hole");
        assert_eq!(after.hubs()[mid + 1..], hubs[mid + 1..hubs.len() - 1], "the rest stay");
        assert!(stats.islands_carried > 0 && stats.islands_rebuilt > 0);

        // Two islands joined into one: two holes, one refilled, and the
        // last island takes the other.
        let c_max = base_partition.c_max();
        let islands = base_partition.islands();
        let (i, j) = (0..islands.len())
            .flat_map(|i| (i + 1..islands.len() - 1).map(move |j| (i, j)))
            .find(|&(i, j)| islands[i].len() + islands[j].len() <= c_max)
            .expect("two islands that fit one");
        let join = GraphUpdate::add_edges(vec![(islands[i].nodes[0], islands[j].nodes[0])]);
        let (after, stats) = patch_case(&[join], "two islands joined");
        assert_eq!(after.num_islands(), islands.len() - 1);
        assert_eq!((stats.slots_refilled, stats.islands_moved), (1, 1));
        assert_eq!(
            after.islands()[j],
            islands[islands.len() - 1],
            "the last island takes the hole"
        );

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

        // Nothing carried: everything is rebuilt, from any donor once
        // every row counts as touched.
        let mut from_scratch = Batch::new(&base_graph, &base_partition, &layout).all_fresh();
        from_scratch.touched = (0..n as u32).collect();
        let (after, _, stats) = assert_recompose_matches(&layout, from_scratch, "nothing carried");
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
        let mut batch = Batch::new(&g, &p, &before);
        batch.apply(&GraphUpdate::add_edges(vec![(aa, ab)]).and_remove_edges(vec![(rb, ra)]));
        batch.apply(&GraphUpdate::remove_edges(stripped));
        batch.apply(&GraphUpdate::add_edges(wires));
        let (after, partition, stats) = assert_recompose_matches(&before, batch, "every change");
        let pairs = partition.inter_hub_edges();
        assert!(!pairs.contains(&(ra, rb)) && pairs.contains(&(aa, ab)));
        let kept: Vec<u32> = hubs.iter().copied().filter(|&h| h != demoted).collect();
        let slot = |h: u32| partition.hubs().iter().position(|&x| x == h);
        let moved = (0..).zip(hubs).filter(|&(t, &h)| h != demoted && slot(h) != Some(t)).count();
        assert!(
            kept.iter().all(|&h| slot(h).is_some()) && moved <= 1,
            "kept hubs keep their slots"
        );
        assert!(slot(v).is_some(), "v is a new hub");
        assert!(hubs.iter().filter(|&&h| h != demoted).all(|&h| pairs.contains(&pair(h, v))));
        assert!(stats.islands_carried > 0 && stats.islands_rebuilt > 0);
        assert_ne!(after.inter_hub_tasks(), before.inter_hub_tasks());

        let mut batch = Batch::new(&g, &p, &before);
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
        let mut batch = Batch::new(&graph, &partition, &before);
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
        let mut batch = Batch::new(&graph, &partition, &before);
        batch.apply(&GraphUpdate::add_edges(vec![(m, other)]));
        assert_ne!(batch.sources.islands.get(home as usize), Some(&home), "m's island dissolved");
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
        let sources = SlotSources {
            islands: vec![FRESH; p.num_islands()],
            hubs: vec![FRESH; p.num_hubs()],
            ..SlotSources::of(&layout)
        };
        IslandLayout::recompose(&mut layout, &sources, &[], &Arc::new(g.clone()), &p, 8);
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
        let mut batch = Batch::new(&g, &p, &before);
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
