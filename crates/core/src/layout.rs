//! The islandized *physical* data layout.
//!
//! Islandization discovers which nodes are touched together; this module
//! makes that locality **physical**. [`IslandLayout`] composes the
//! island schedule into a [`Permutation`] (hubs first in detection
//! order, then islands back to back in schedule order — exactly
//! [`IslandPartition::ordering`]) and materialises:
//!
//! * a schedule-ordered [`CsrGraph`], so each island's nodes and their
//!   intra-island neighbors are contiguous in memory;
//! * the permuted [`IslandPartition`] over the new IDs — island-node IDs
//!   form contiguous ranges and hub IDs are the compact range `0..H`,
//!   which is what lets the execution core replace `HashMap<u32, …>` hub
//!   tables with dense flat slabs indexed by hub ID;
//! * the per-island adjacency bitmaps (both the `Ã = A + I` variant the
//!   GCN/GraphSage window scan walks and the plain variant GIN uses),
//!   built **once** instead of once per island per layer;
//! * the inter-hub task list, one PUSH task per source hub in
//!   ascending *original* source-hub ID, so the order hub partial rows
//!   accumulate in is a rule of the partition and not of the layout's
//!   numbering.
//!
//! Requests and responses keep speaking original node IDs: features are
//! gathered into schedule order on the way in
//! ([`IslandLayout::gather_order`]) and the final layer's rows are
//! scattered back on the way out ([`IslandLayout::forward`]).

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use igcn_graph::{CsrGraph, NodeId, Permutation};

use crate::error::CoreError;
use crate::island::{Island, IslandBitmap};
use crate::partition::{IslandPartition, NodeClass};
use crate::schedule::IslandSchedule;

/// Schedule-ordered physical layout of one islandized graph.
///
/// Composed at engine construction ([`IslandLayout::new`]), patched to
/// the new (graph, partition) after every `apply_update` restructuring
/// ([`IslandLayout::recompose`]), and shared read-only by every request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IslandLayout {
    /// `forward[old] = new`: original ID → schedule-order ID.
    perm: Permutation,
    /// `gather_order[new] = old`: the row-gather map for features.
    gather_order: Vec<u32>,
    /// The schedule-ordered graph.
    graph: CsrGraph,
    /// The partition over schedule-order IDs (hubs are `0..H`; island
    /// member IDs are contiguous per island).
    partition: IslandPartition,
    /// The island issue schedule over the permuted partition (identical
    /// work estimates to the original — degrees are preserved).
    schedule: IslandSchedule,
    /// Per-island adjacency bitmaps with the `Ã = A + I` diagonal on
    /// island-node rows (unit self-weight models).
    bitmaps_self: Vec<IslandBitmap>,
    /// Per-island adjacency bitmaps without the diagonal (GIN).
    bitmaps_plain: Vec<IslandBitmap>,
    /// Inter-hub tasks `(source, destinations)` in ascending *original*
    /// source-hub ID, each source's destinations in edge-list order —
    /// the order of the PUSH-outer-product phase.
    inter_hub_tasks: Vec<(u32, Vec<u32>)>,
}

/// What one [`IslandLayout::recompose`] carried over from the layout
/// it replaced and what it built from the updated graph. Rows are rows
/// of the schedule-ordered graph: hub rows are always rebuilt, island
/// rows are carried or rebuilt with their island.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecomposeStats {
    /// Surviving islands: rows, member range, hub list, work estimate
    /// and bitmaps renamed, nothing re-derived.
    pub islands_carried: usize,
    /// Islands the update formed, composed from adjacency.
    pub islands_rebuilt: usize,
    /// Graph rows copied from the old layout with an ID shift.
    pub rows_carried: usize,
    /// Graph rows mapped from the updated graph: every hub's and every
    /// re-formed island member's.
    pub rows_rebuilt: usize,
}

/// The leading islands of a composition that an earlier layout already
/// holds, renamed to the new layout's IDs: one entry per island in each
/// list.
#[derive(Default)]
struct Carried {
    islands: Vec<Island>,
    work: Vec<u64>,
    bitmaps_self: Vec<IslandBitmap>,
    bitmaps_plain: Vec<IslandBitmap>,
}

impl IslandLayout {
    /// Composes the physical layout for `partition` over `graph`.
    /// `num_pes` is the consumer's PE count (the schedule wave width).
    ///
    /// # Panics
    ///
    /// Panics if `partition` does not belong to `graph` (mismatched node
    /// count or an invalid ordering).
    pub fn new(graph: &CsrGraph, partition: &IslandPartition, num_pes: usize) -> Self {
        assert_eq!(graph.num_nodes(), partition.num_nodes(), "partition does not match the graph");
        let (perm, gather_order) = orders(partition);
        let permuted_graph =
            graph.permute(&perm).expect("a partition ordering is a valid permutation");
        Self::compose(partition, num_pes, perm, gather_order, permuted_graph, Carried::default())
    }

    /// Recomposes `this` in place for the `(graph, partition)` an
    /// update produced, as a patch of the layout it already is. The new
    /// order is `[old hubs minus demoted, new hubs][survivors in old
    /// order][re-formed islands]`, and a surviving island keeps its
    /// hubs, its members and every edge among them (anything else would
    /// have dissolved it), so everything the old layout holds for it is
    /// carried with one ID shift: its rows of the schedule-ordered graph
    /// (entries below the old hub count through a hub table, the rest —
    /// its own members — plus one constant; still sorted), its member
    /// range, its hub list, its work estimate and both bitmaps. Built
    /// from the updated graph are the hub rows, the re-formed islands
    /// and the hub-level lists (inter-hub edges and tasks, node classes,
    /// the permutation) — `O(n + m)` at copy speed, with algorithmic
    /// work only on hub rows and the re-formed region.
    ///
    /// `survivors` lists, in ascending order, the islands of `this`
    /// that survived; they must be `partition`'s leading islands in that
    /// same order (how incremental updates number them — see
    /// [`IncrementalResult::retain_survivors`]). The result equals
    /// `IslandLayout::new(graph, partition, num_pes)`, with no survivors
    /// too.
    ///
    /// A uniquely held `this` gives its islands and bitmaps away (no
    /// copy); a shared one is left untouched and what is carried is
    /// cloned.
    ///
    /// [`IncrementalResult::retain_survivors`]: crate::incremental::IncrementalResult::retain_survivors
    ///
    /// # Panics
    ///
    /// As [`IslandLayout::new`], or if `survivors` are not `partition`'s
    /// leading islands. After a panic a uniquely held `this` has lost
    /// its islands and bitmaps and must not be used.
    pub fn recompose(
        this: &mut Arc<IslandLayout>,
        survivors: &[u32],
        graph: &CsrGraph,
        partition: &IslandPartition,
        num_pes: usize,
    ) -> RecomposeStats {
        assert_eq!(graph.num_nodes(), partition.num_nodes(), "partition does not match the graph");
        assert!(survivors.len() <= partition.num_islands(), "more survivors than islands");
        let (perm, gather_order) = orders(partition);
        let forward = perm.as_forward();
        let old: &IslandLayout = this;
        // Old hub ID → new hub ID. A demoted hub maps out of the hub
        // range; no surviving island holds one.
        let hub_map: Vec<u32> =
            old.gather_order[..old.num_hubs()].iter().map(|&h| forward[h as usize]).collect();
        let permuted_graph = old.patched_graph(survivors, &hub_map, graph, partition, forward);
        let work = survivors.iter().map(|&s| old.schedule.work()[s as usize]).collect();

        let (mut islands, mut bitmaps_self, mut bitmaps_plain) = match Arc::get_mut(this) {
            Some(owned) => (
                keep_survivors(owned.partition.take_islands(), survivors),
                keep_survivors(std::mem::take(&mut owned.bitmaps_self), survivors),
                keep_survivors(std::mem::take(&mut owned.bitmaps_plain), survivors),
            ),
            None => (
                clone_survivors(this.partition.islands(), survivors),
                clone_survivors(&this.bitmaps_self, survivors),
                clone_survivors(&this.bitmaps_plain, survivors),
            ),
        };
        let mut next = partition.num_hubs() as u32;
        for (idx, isl) in islands.iter_mut().enumerate() {
            assert_eq!(
                isl.nodes.len(),
                partition.islands()[idx].nodes.len(),
                "survivor {idx} is not the partition's island {idx}"
            );
            for v in &mut isl.nodes {
                *v = next;
                next += 1;
            }
            for h in &mut isl.hubs {
                *h = hub_map[*h as usize];
            }
            bitmaps_self[idx].relabel(&isl.hubs, &isl.nodes);
            bitmaps_plain[idx].relabel(&isl.hubs, &isl.nodes);
        }

        let rows_carried = next as usize - partition.num_hubs();
        let stats = RecomposeStats {
            islands_carried: islands.len(),
            islands_rebuilt: partition.num_islands() - islands.len(),
            rows_carried,
            rows_rebuilt: graph.num_nodes() - rows_carried,
        };
        let carried = Carried { islands, work, bitmaps_self, bitmaps_plain };
        *this = Arc::new(Self::compose(
            partition,
            num_pes,
            perm,
            gather_order,
            permuted_graph,
            carried,
        ));
        if igcn_obs::enabled() {
            igcn_obs::counter("engine_update_islands_carried").add(stats.islands_carried as u64);
            igcn_obs::counter("engine_update_islands_rebuilt").add(stats.islands_rebuilt as u64);
            igcn_obs::counter("engine_update_rows_rebuilt").add(stats.rows_rebuilt as u64);
            igcn_obs::gauge("engine_hubs").set(partition.num_hubs() as i64);
        }
        stats
    }

    /// The schedule-ordered graph of an updated `(graph, partition)`,
    /// given this layout of what they were before: hub rows and the
    /// rows of re-formed islands are `graph`'s, renamed through
    /// `forward`; the rows of `survivors` are this layout's own, block
    /// by block. Old-layout IDs map monotonically on old hubs and
    /// surviving nodes, so a carried row arrives sorted.
    fn patched_graph(
        &self,
        survivors: &[u32],
        hub_map: &[u32],
        graph: &CsrGraph,
        partition: &IslandPartition,
        forward: &[u32],
    ) -> CsrGraph {
        let n = graph.num_nodes();
        let mut row_ptr: Vec<usize> = Vec::with_capacity(n + 1);
        let mut col_idx: Vec<u32> = Vec::with_capacity(graph.num_directed_edges());
        let rebuild_rows = |nodes: &[u32], row_ptr: &mut Vec<usize>, col_idx: &mut Vec<u32>| {
            for &v in nodes {
                row_ptr.push(col_idx.len());
                let neighbors = graph.neighbors(NodeId::new(v));
                col_idx.extend(neighbors.iter().map(|&nb| forward[nb as usize]));
            }
        };
        rebuild_rows(partition.hubs(), &mut row_ptr, &mut col_idx);

        // First row of each old island (they tile `H_old..n_old`).
        let h_old = self.num_hubs() as u32;
        let mut starts: Vec<u32> = Vec::with_capacity(self.partition.num_islands() + 1);
        starts.push(h_old);
        for isl in self.partition.islands() {
            starts.push(starts[starts.len() - 1] + isl.nodes.len() as u32);
        }
        let (old_ptr, old_col) = (self.graph.row_ptr(), self.graph.col_idx());
        // Survivors that were neighbours in the old order stay
        // neighbours: one run of rows, one shift.
        for run in survivors.chunk_by(|a, b| a + 1 == *b) {
            let lo = starts[run[0] as usize] as usize;
            let hi = starts[run[run.len() - 1] as usize + 1] as usize;
            let shift = (row_ptr.len() as u32).wrapping_sub(lo as u32);
            let (src, dst) = (old_ptr[lo], col_idx.len());
            row_ptr.extend(old_ptr[lo..hi].iter().map(|&p| p - src + dst));
            col_idx.extend(old_col[src..old_ptr[hi]].iter().map(|&c| {
                if c >= h_old {
                    c.wrapping_add(shift)
                } else {
                    hub_map[c as usize]
                }
            }));
        }
        for isl in &partition.islands()[survivors.len()..] {
            rebuild_rows(&isl.nodes, &mut row_ptr, &mut col_idx);
        }
        row_ptr.push(col_idx.len());
        CsrGraph::from_raw_parts(n, row_ptr, col_idx)
            .expect("carried and renamed rows form a valid graph")
    }

    /// The single composer: everything but the order and the graph,
    /// which the two callers obtain differently. `carried` holds
    /// `partition`'s leading islands as an earlier layout had them
    /// (none for a from-scratch composition); the rest are composed
    /// from adjacency.
    fn compose(
        partition: &IslandPartition,
        num_pes: usize,
        perm: Permutation,
        gather_order: Vec<u32>,
        permuted_graph: CsrGraph,
        carried: Carried,
    ) -> Self {
        let forward = perm.as_forward();
        let map = |v: u32| forward[v as usize];
        let Carried { mut islands, mut work, mut bitmaps_self, mut bitmaps_plain } = carried;

        // The bitmaps are layer-independent: build them once here
        // instead of once per island per layer in the hot loop. A fresh
        // island walks its adjacency once, for the plain bitmap, and the
        // `Ã = A + I` variant is that plus the diagonal.
        let fresh = partition.num_islands() - islands.len();
        islands.reserve_exact(fresh);
        work.reserve_exact(fresh);
        bitmaps_self.reserve_exact(fresh);
        bitmaps_plain.reserve_exact(fresh);
        for isl in &partition.islands()[islands.len()..] {
            let fresh = isl.renamed(map);
            work.push(IslandSchedule::island_work(&permuted_graph, &fresh));
            let plain = IslandBitmap::build(&permuted_graph, &fresh.hubs, &fresh.nodes, false);
            bitmaps_self.push(plain.with_diagonal());
            bitmaps_plain.push(plain);
            islands.push(fresh);
        }

        // `ordering()` lists hubs first in detection order, so the
        // permuted hub set is the compact prefix 0..H, and each island
        // is the run of IDs behind the one before it.
        let num_hubs = partition.num_hubs();
        debug_assert!(partition.hubs().iter().enumerate().all(|(i, &h)| map(h) == i as u32));
        let mut node_class = vec![NodeClass::Hub; partition.num_nodes()];
        let mut next = num_hubs;
        for (idx, isl) in islands.iter().enumerate() {
            node_class[next..next + isl.nodes.len()].fill(NodeClass::Island(idx as u32));
            next += isl.nodes.len();
        }

        let inter_hub_edges = renamed_inter_hub_edges(partition, map);
        let inter_hub_tasks = group_inter_hub_tasks(partition, forward);

        let permuted_partition = IslandPartition::from_parts(
            partition.num_nodes(),
            islands,
            (0..num_hubs as u32).collect(),
            inter_hub_edges,
            node_class,
            partition.c_max(),
        );
        let schedule =
            IslandSchedule::from_raw_parts(num_pes, work).expect("wave width must be positive");
        IslandLayout {
            perm,
            gather_order,
            graph: permuted_graph,
            partition: permuted_partition,
            schedule,
            bitmaps_self,
            bitmaps_plain,
            inter_hub_tasks,
        }
    }

    /// The partition this layout was composed from, in original node
    /// IDs: composition keeps the islands, their order and the hub
    /// order, and the inter-hub list is sorted `(min, max)` pairs on
    /// both sides, so un-permuting through the gather order gives the
    /// composer's input back — what lets an engine move its partition
    /// into an update and still leave itself whole when the update
    /// fails.
    pub fn original_partition(&self) -> IslandPartition {
        let back = |v: u32| self.gather_order[v as usize];
        let permuted = &self.partition;
        let islands = permuted.islands().iter().map(|isl| isl.renamed(back)).collect();
        let inter_hub_edges = renamed_inter_hub_edges(permuted, back);
        let classes = permuted.node_classes();
        IslandPartition::from_parts(
            permuted.num_nodes(),
            islands,
            self.gather_order[..self.num_hubs()].to_vec(),
            inter_hub_edges,
            self.forward().iter().map(|&new| classes[new as usize]).collect(),
            permuted.c_max(),
        )
    }

    /// Reassembles a layout from externally stored parts — the
    /// deserialisation path of the snapshot store, which is what lets a
    /// warm-started engine skip both the locator pass *and* this
    /// module's composition work.
    ///
    /// Runs the cheap structural invariant check (O(nodes + islands),
    /// no edge walks): the permutation, graph and partition must agree
    /// on the node count, hub IDs must be the compact prefix `0..H`,
    /// island member IDs must tile `H..n` contiguously in island order,
    /// an island may only contact hubs, the schedule and both bitmap
    /// sets must have one entry per island with matching dimensions and
    /// members (the island's hubs, then its nodes), and inter-hub tasks
    /// may only reference hubs. The cost is O(n + Σ island hubs).
    ///
    /// # Errors
    ///
    /// [`CoreError::ShapeMismatch`] or
    /// [`CoreError::ClassificationViolation`] naming the first violated
    /// structural invariant.
    pub fn from_raw_parts(
        perm: Permutation,
        graph: CsrGraph,
        partition: IslandPartition,
        schedule: IslandSchedule,
        bitmaps_self: Vec<IslandBitmap>,
        bitmaps_plain: Vec<IslandBitmap>,
        inter_hub_tasks: Vec<(u32, Vec<u32>)>,
    ) -> Result<Self, CoreError> {
        let n = graph.num_nodes();
        let mismatch = |what: &str, expected: usize, got: usize| CoreError::ShapeMismatch {
            what: format!("layout {what}"),
            expected,
            got,
        };
        if perm.len() != n {
            return Err(mismatch("permutation vs graph nodes", n, perm.len()));
        }
        if partition.num_nodes() != n {
            return Err(mismatch("partition vs graph nodes", n, partition.num_nodes()));
        }
        let num_hubs = partition.num_hubs();
        for (i, &h) in partition.hubs().iter().enumerate() {
            if h as usize != i {
                return Err(CoreError::ClassificationViolation {
                    node: h,
                    detail: format!("layout hub #{i} is {h}, not the compact prefix ID {i}"),
                });
            }
        }
        let mut next = num_hubs as u32;
        for isl in partition.islands() {
            for &v in &isl.nodes {
                if v != next {
                    return Err(CoreError::ClassificationViolation {
                        node: v,
                        detail: format!(
                            "layout island node {v} breaks the contiguous range at {next}"
                        ),
                    });
                }
                next += 1;
            }
        }
        if next as usize != n {
            return Err(mismatch("island ranges vs graph nodes", n, next as usize));
        }
        let num_islands = partition.num_islands();
        if schedule.num_islands() != num_islands {
            return Err(mismatch(
                "schedule islands vs partition",
                num_islands,
                schedule.num_islands(),
            ));
        }
        if bitmaps_self.len() != num_islands {
            return Err(mismatch("self-bitmap count vs islands", num_islands, bitmaps_self.len()));
        }
        if bitmaps_plain.len() != num_islands {
            return Err(mismatch(
                "plain-bitmap count vs islands",
                num_islands,
                bitmaps_plain.len(),
            ));
        }
        for (idx, isl) in partition.islands().iter().enumerate() {
            if let Some(&h) = isl.hubs.iter().find(|&&h| h as usize >= num_hubs) {
                return Err(CoreError::ClassificationViolation {
                    node: h,
                    detail: format!("layout island {idx} contacts non-hub ID {h} (H = {num_hubs})"),
                });
            }
            let dim = isl.hubs.len() + isl.nodes.len();
            for bm in [&bitmaps_self[idx], &bitmaps_plain[idx]] {
                if bm.dim() != dim || bm.num_hubs() != isl.hubs.len() {
                    return Err(mismatch(&format!("bitmap {idx} dimension"), dim, bm.dim()));
                }
                let island_members = isl.hubs.iter().chain(&isl.nodes);
                if let Some((&v, _)) = bm.members().iter().zip(island_members).find(|(a, b)| a != b)
                {
                    return Err(CoreError::ClassificationViolation {
                        node: v,
                        detail: format!(
                            "bitmap {idx} member {v} is not its island's hubs then nodes"
                        ),
                    });
                }
            }
        }
        for &(src, ref dests) in &inter_hub_tasks {
            for &h in std::iter::once(&src).chain(dests) {
                if h as usize >= num_hubs {
                    return Err(CoreError::ClassificationViolation {
                        node: h,
                        detail: format!(
                            "inter-hub task references non-hub ID {h} (H = {num_hubs})"
                        ),
                    });
                }
            }
        }
        let gather_order = perm.inverse().as_forward().to_vec();
        Ok(IslandLayout {
            perm,
            gather_order,
            graph,
            partition,
            schedule,
            bitmaps_self,
            bitmaps_plain,
            inter_hub_tasks,
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

    /// The schedule-ordered graph.
    pub fn graph(&self) -> &CsrGraph {
        &self.graph
    }

    /// The partition over schedule-order IDs.
    pub fn partition(&self) -> &IslandPartition {
        &self.partition
    }

    /// The island issue schedule.
    pub fn schedule(&self) -> &IslandSchedule {
        &self.schedule
    }

    /// Number of hubs; hub IDs are exactly `0..num_hubs()` in the
    /// layout's ID space.
    pub fn num_hubs(&self) -> usize {
        self.partition.num_hubs()
    }

    /// The prebuilt adjacency bitmap of island `idx`; `with_self` picks
    /// the `Ã = A + I` variant (unit self-weight models).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn bitmap(&self, idx: usize, with_self: bool) -> &IslandBitmap {
        if with_self {
            &self.bitmaps_self[idx]
        } else {
            &self.bitmaps_plain[idx]
        }
    }

    /// Inter-hub tasks by ascending original source-hub ID, with layout
    /// IDs.
    pub fn inter_hub_tasks(&self) -> &[(u32, Vec<u32>)] {
        &self.inter_hub_tasks
    }
}

/// The schedule order of `partition` both ways: the permutation
/// (`forward[old] = new`) and the gather map (`order[new] = old`).
fn orders(partition: &IslandPartition) -> (Permutation, Vec<u32>) {
    let order = partition.order();
    let perm = Permutation::from_order(&order).expect("a partition covers every node exactly once");
    (perm, order)
}

/// `partition`'s inter-hub edges under another node numbering, in the
/// canonical form: `(min, max)` pairs, sorted.
fn renamed_inter_hub_edges(
    partition: &IslandPartition,
    rename: impl Fn(u32) -> u32,
) -> Vec<(u32, u32)> {
    let renamed = partition.inter_hub_edges().iter().map(|&(a, b)| {
        let (x, y) = (rename(a), rename(b));
        (x.min(y), x.max(y))
    });
    let mut edges: Vec<(u32, u32)> = renamed.collect();
    edges.sort_unstable();
    edges
}

/// Groups `partition`'s inter-hub edges into PUSH tasks `(source,
/// destinations)` in layout IDs, in the order the inter-hub phase runs
/// them: ascending *original* source-hub ID, each source's destinations
/// in edge-list order. Two counting passes over the edge list; every
/// destination list is allocated at its final size.
fn group_inter_hub_tasks(partition: &IslandPartition, forward: &[u32]) -> Vec<(u32, Vec<u32>)> {
    let map = |v: u32| forward[v as usize];
    let edges = partition.inter_hub_edges();
    let mut fanout = vec![0usize; partition.num_hubs()];
    for &(a, b) in edges {
        fanout[map(a) as usize] += 1;
        fanout[map(b) as usize] += 1;
    }
    let mut sources: Vec<u32> =
        partition.hubs().iter().copied().filter(|&h| fanout[map(h) as usize] > 0).collect();
    sources.sort_unstable();
    // Layout hub ID → position of its task.
    let mut task_of = vec![0usize; partition.num_hubs()];
    let mut tasks: Vec<(u32, Vec<u32>)> = Vec::with_capacity(sources.len());
    for (i, &src) in sources.iter().enumerate() {
        task_of[map(src) as usize] = i;
        tasks.push((map(src), Vec::with_capacity(fanout[map(src) as usize])));
    }
    for &(a, b) in edges {
        let (x, y) = (map(a), map(b));
        tasks[task_of[x as usize]].1.push(y);
        tasks[task_of[y as usize]].1.push(x);
    }
    tasks
}

/// Keeps the entries of `items` whose index is listed in the ascending
/// `survivors`, in place. Survivor `i` sits at or behind position `i`,
/// so swapping it forward only ever displaces an entry that is not
/// kept.
fn keep_survivors<T>(mut items: Vec<T>, survivors: &[u32]) -> Vec<T> {
    for (i, &s) in survivors.iter().enumerate() {
        items.swap(i, s as usize);
    }
    items.truncate(survivors.len());
    items
}

/// [`keep_survivors`] for a donor that stays whole.
fn clone_survivors<T: Clone>(items: &[T], survivors: &[u32]) -> Vec<T> {
    survivors.iter().map(|&s| items[s as usize].clone()).collect()
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
        layout.partition().check_invariants(layout.graph()).unwrap();
        for (i, &h) in layout.partition().hubs().iter().enumerate() {
            assert_eq!(h as usize, i, "hub IDs must be the compact prefix");
        }
        assert_eq!(layout.num_hubs(), p.num_hubs());
        assert_eq!(layout.partition().num_islands(), p.num_islands());
    }

    #[test]
    fn island_nodes_are_contiguous_ranges() {
        let (g, p) = setup();
        let layout = IslandLayout::new(&g, &p, 8);
        let mut next = layout.num_hubs() as u32;
        for isl in layout.partition().islands() {
            for &v in &isl.nodes {
                assert_eq!(v, next, "island nodes must be contiguous in layout order");
                next += 1;
            }
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
        for (idx, isl) in layout.partition().islands().iter().enumerate() {
            assert_eq!(layout.bitmap(idx, true), &isl.bitmap_with_self(layout.graph()));
            assert_eq!(layout.bitmap(idx, false), &isl.bitmap(layout.graph()));
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
            .map(|&(s, _)| layout.gather_order()[s as usize])
            .collect();
        assert!(originals.windows(2).all(|w| w[0] < w[1]));
    }

    /// One update applied to `(graph, partition)`; `survivors` follows
    /// the islands of the layout the caller will recompose.
    fn updated(
        graph: &CsrGraph,
        partition: IslandPartition,
        update: &crate::accel::GraphUpdate,
        survivors: &mut Vec<u32>,
    ) -> (CsrGraph, IslandPartition) {
        let cfg = IslandizationConfig::default();
        let (graph, result) =
            crate::incremental::apply_update_structural(graph, partition, &cfg, update).unwrap();
        result.retain_survivors(survivors);
        (graph, result.partition)
    }

    /// Recomposes `before` for `(graph, partition)` twice — a uniquely
    /// held donor (its parts moved) and a shared one (copied, the sharer
    /// left whole): both are the from-scratch composition, un-permute to
    /// the partition they were given and report the same work.
    fn assert_recompose_matches(
        before: &IslandLayout,
        survivors: &[u32],
        graph: &CsrGraph,
        partition: &IslandPartition,
        what: &str,
    ) -> (IslandLayout, RecomposeStats) {
        let expected = IslandLayout::new(graph, partition, 8);
        let mut unique = Arc::new(before.clone());
        let stats = IslandLayout::recompose(&mut unique, survivors, graph, partition, 8);
        assert_eq!(*unique, expected, "{what}: unique donor");
        assert_eq!(&unique.original_partition(), partition, "{what}: un-permuted partition");

        let sharer = Arc::new(before.clone());
        let mut shared = Arc::clone(&sharer);
        let shared_stats = IslandLayout::recompose(&mut shared, survivors, graph, partition, 8);
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
        (expected, stats)
    }

    fn all_islands(partition: &IslandPartition) -> Vec<u32> {
        (0..partition.num_islands() as u32).collect()
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
        for batch in 0..12 {
            // A batch of one to three updates, each adding and removing
            // a few random edges, under one recomposition.
            let mut survivors = all_islands(&partition);
            for _ in 0..rng.gen_range(1..4usize) {
                let n = graph.num_nodes() as u32;
                let added: Vec<(u32, u32)> = (0..4)
                    .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
                    .filter(|&(a, b)| a != b)
                    .collect();
                let existing: Vec<(u32, u32)> =
                    graph.iter_edges().map(|(u, v)| (u.value(), v.value())).collect();
                let removed = vec![existing[rng.gen_range(0..existing.len())]];
                let update = GraphUpdate::add_edges(added).and_remove_edges(removed);
                (graph, partition) = updated(&graph, partition, &update, &mut survivors);
            }
            assert!(!survivors.is_empty(), "small batches leave most islands alone");
            let what = format!("batch {batch}");
            (layout, _) = assert_recompose_matches(&layout, &survivors, &graph, &partition, &what);
        }

        // The patch cases random batches reach only by luck, each from
        // the base layout.
        let hubs = base_partition.hubs();
        let patch_case = |update: GraphUpdate, what: &str| {
            let mut survivors = all_islands(&base_partition);
            let (graph, partition) =
                updated(&base_graph, base_partition.clone(), &update, &mut survivors);
            let (_, stats) =
                assert_recompose_matches(&base_layout, &survivors, &graph, &partition, what);
            (partition, stats)
        };

        // A hub–hub edge: every island survives, two hub rows differ.
        let mut pairs = hubs.iter().flat_map(|&a| hubs.iter().map(move |&b| (a, b)));
        let (a, b) = pairs
            .find(|&(a, b)| a < b && !base_graph.has_edge(NodeId::new(a), NodeId::new(b)))
            .expect("two hubs without an edge between them");
        let (after, stats) = patch_case(GraphUpdate::add_edges(vec![(a, b)]), "hub-hub edge");
        assert_eq!(stats.islands_rebuilt, 0);
        assert_eq!(stats.rows_rebuilt, hubs.len());
        assert_eq!(after.inter_hub_edges().len(), base_partition.inter_hub_edges().len() + 1);

        // A demotion: the first hub in hub order is stripped to one
        // edge, below the hub floor, so every old hub ID shifts down.
        let first = hubs[0];
        let stripped = base_graph.neighbors(NodeId::new(first))[1..].iter().map(|&nb| (first, nb));
        let (after, stats) =
            patch_case(GraphUpdate::remove_edges(stripped.collect()), "hub demotion");
        assert_ne!(after.hubs()[0], first, "the stripped hub must leave the head of the hub list");
        assert_eq!(after.hubs()[0], hubs[1], "the hubs behind it move up");
        assert!(stats.islands_carried > 0 && stats.islands_rebuilt > 0);

        // Node growth: one new node wired to a hub, one isolated.
        let n = base_graph.num_nodes();
        let growth = GraphUpdate::add_edges(vec![(n as u32, hubs[0])]).with_num_nodes(n + 2);
        let (after, stats) = patch_case(growth, "node growth");
        assert_eq!(after.num_nodes(), n + 2);
        assert_eq!(stats.islands_carried, base_partition.num_islands());

        // No survivors: everything is rebuilt, from any donor.
        let (after, stats) =
            assert_recompose_matches(&layout, &[], &base_graph, &base_partition, "no survivors");
        assert_eq!(after, base_layout);
        assert_eq!((stats.islands_carried, stats.rows_carried), (0, 0));
    }

    #[test]
    fn recompose_without_survivors_is_a_fresh_composition() {
        let (g, p) = setup();
        let mut layout = Arc::new(IslandLayout::new(&g, &p, 8));
        IslandLayout::recompose(&mut layout, &[], &g, &p, 8);
        assert_eq!(*layout, IslandLayout::new(&g, &p, 8));
    }

    #[test]
    fn small_update_rebuilds_only_hub_rows_and_reformed_islands() {
        use crate::accel::GraphUpdate;
        let g = HubIslandConfig::new(2_000, 80).noise_fraction(0.0).generate(4).graph;
        let p = islandize(&g, &IslandizationConfig::default());
        let before = IslandLayout::new(&g, &p, 8);
        let n = g.num_nodes() as u32;
        let batch: Vec<(u32, u32)> = (0..8u32)
            .map(|i| (i * 211 % n, (i * 467 + 1_003) % n))
            .filter(|&(a, b)| a != b && !g.has_edge(NodeId::new(a), NodeId::new(b)))
            .collect();
        assert_eq!(batch.len(), 8);
        let mut survivors = all_islands(&p);
        let (graph, partition) = updated(&g, p, &GraphUpdate::add_edges(batch), &mut survivors);
        let (_, stats) =
            assert_recompose_matches(&before, &survivors, &graph, &partition, "8 edges");
        // `assert_recompose_matches` pins `rows_rebuilt` to hubs plus
        // re-formed members and the two counts to `n`; what is left is
        // that an 8-edge batch carries nearly everything (here all but
        // 87 hub rows and the ~200 members of the islands its sixteen
        // endpoints touch).
        assert!(stats.islands_rebuilt > 0, "the batch must dissolve something");
        assert!(
            stats.rows_carried * 10 >= graph.num_nodes() * 8,
            "only {} of {} rows carried",
            stats.rows_carried,
            graph.num_nodes()
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
