//! The result of islandization and its invariants.

use serde::{Deserialize, Serialize};

use igcn_graph::{CsrGraph, NodeId, Permutation};

use crate::error::CoreError;
use crate::island::Island;

/// Classification of one node after islandization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodeClass {
    /// Not yet classified (only observable mid-run).
    Unclassified,
    /// A hub: degree reached the threshold in some round.
    Hub,
    /// A member of the island with the given index.
    Island(u32),
}

/// The complete output of the Island Locator — the paper's abstract
/// `l_islands` container: islands (member nodes + contact hubs), the hub
/// set, and the inter-hub edge map.
///
/// # Example
///
/// ```
/// use igcn_core::{islandize, IslandizationConfig};
/// use igcn_graph::generate::HubIslandConfig;
///
/// let g = HubIslandConfig::new(300, 12).noise_fraction(0.0).generate(5);
/// let p = islandize(&g.graph, &IslandizationConfig::default());
/// assert_eq!(p.num_hubs() + p.num_island_nodes(), 300);
/// assert!(p.check_invariants(&g.graph).is_ok());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IslandPartition {
    num_nodes: usize,
    islands: Vec<Island>,
    hubs: Vec<u32>,
    inter_hub_edges: Vec<(u32, u32)>,
    node_class: Vec<NodeClass>,
    c_max: usize,
}

impl IslandPartition {
    /// Assembles a partition from locator output (crate-internal).
    pub(crate) fn from_parts(
        num_nodes: usize,
        islands: Vec<Island>,
        hubs: Vec<u32>,
        inter_hub_edges: Vec<(u32, u32)>,
        node_class: Vec<NodeClass>,
        c_max: usize,
    ) -> Self {
        IslandPartition { num_nodes, islands, hubs, inter_hub_edges, node_class, c_max }
    }

    /// Takes the partition apart again, in [`IslandPartition::from_parts`]
    /// order minus the node count and `c_max` (crate-internal: the
    /// incremental update moves kept islands instead of cloning).
    #[allow(clippy::type_complexity)]
    pub(crate) fn into_parts(self) -> (Vec<Island>, Vec<u32>, Vec<(u32, u32)>, Vec<NodeClass>) {
        (self.islands, self.hubs, self.inter_hub_edges, self.node_class)
    }

    /// Reassembles a partition from externally stored parts (the
    /// deserialisation path of the snapshot store), validating the
    /// graph-independent invariants: the class table covers every node
    /// exactly once and agrees with the hub/island member lists, and no
    /// island is empty (an update refills or closes every slot it
    /// empties).
    ///
    /// Graph-dependent invariants (closure, exact edge coverage) are
    /// *not* checked here — run [`IslandPartition::check_invariants`]
    /// for the full audit.
    ///
    /// # Errors
    ///
    /// [`CoreError::ShapeMismatch`] if the class table length is wrong
    /// or an island is empty,
    /// [`CoreError::ClassificationViolation`] if a node is missing,
    /// duplicated, out of range, or disagrees with its class entry.
    pub fn from_raw_parts(
        num_nodes: usize,
        islands: Vec<Island>,
        hubs: Vec<u32>,
        inter_hub_edges: Vec<(u32, u32)>,
        node_class: Vec<NodeClass>,
        c_max: usize,
    ) -> Result<Self, CoreError> {
        if node_class.len() != num_nodes {
            return Err(CoreError::ShapeMismatch {
                what: "node class table vs node count".to_string(),
                expected: num_nodes,
                got: node_class.len(),
            });
        }
        let partition =
            IslandPartition { num_nodes, islands, hubs, inter_hub_edges, node_class, c_max };
        partition.check_classes()?;
        Ok(partition)
    }

    /// The graph-independent invariants: the class table covers every
    /// node exactly once and agrees with the hub and island member lists,
    /// no island is empty or over `c_max`, and the inter-hub edges are
    /// `(min, max)` hub pairs.
    fn check_classes(&self) -> Result<(), CoreError> {
        let (num_nodes, node_class) = (self.num_nodes, &self.node_class);
        let mut seen = vec![false; num_nodes];
        let mut classify = |v: u32, expected: NodeClass| -> Result<(), CoreError> {
            let i = v as usize;
            if i >= num_nodes {
                return Err(CoreError::ClassificationViolation {
                    node: v,
                    detail: format!("node out of range for {num_nodes} nodes"),
                });
            }
            if seen[i] {
                return Err(CoreError::ClassificationViolation {
                    node: v,
                    detail: "node classified more than once".to_string(),
                });
            }
            seen[i] = true;
            if node_class[i] != expected {
                return Err(CoreError::ClassificationViolation {
                    node: v,
                    detail: "member list and node class disagree".to_string(),
                });
            }
            Ok(())
        };
        for &h in &self.hubs {
            classify(h, NodeClass::Hub)?;
        }
        for (idx, isl) in self.islands.iter().enumerate() {
            if isl.is_empty() {
                return Err(CoreError::ShapeMismatch {
                    what: format!("island {idx} members"),
                    expected: 1,
                    got: 0,
                });
            }
            for &v in &isl.nodes {
                classify(v, NodeClass::Island(idx as u32))?;
            }
            if isl.len() > self.c_max {
                let (size, c_max) = (isl.len(), self.c_max);
                return Err(CoreError::IslandTooLarge { island: idx, size, c_max });
            }
        }
        if let Some(v) = seen.iter().position(|&s| !s) {
            return Err(CoreError::ClassificationViolation {
                node: v as u32,
                detail: "node is neither hub nor island member".to_string(),
            });
        }
        for &(a, b) in &self.inter_hub_edges {
            let hubby =
                |v: u32| (v as usize) < num_nodes && node_class[v as usize] == NodeClass::Hub;
            if a >= b || !hubby(a) || !hubby(b) {
                return Err(CoreError::ClassificationViolation {
                    node: a,
                    detail: format!("inter-hub edge ({a}, {b}) is not a (min, max) hub pair"),
                });
            }
        }
        Ok(())
    }

    /// The per-node classification table, indexable by node ID (the raw
    /// twin of [`IslandPartition::class_of`], for serialisation).
    pub fn node_classes(&self) -> &[NodeClass] {
        &self.node_class
    }

    /// Number of nodes in the underlying graph.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// The islands, in slot order: a cold build's discovery order, which
    /// an update keeps (see [`crate::incremental`]).
    pub fn islands(&self) -> &[Island] {
        &self.islands
    }

    /// Number of islands.
    pub fn num_islands(&self) -> usize {
        self.islands.len()
    }

    /// Hub node IDs in slot order: a cold build's detection order (round
    /// by round, ascending within a round), which an update keeps (see
    /// [`crate::incremental`]).
    pub fn hubs(&self) -> &[u32] {
        &self.hubs
    }

    /// Number of hubs.
    pub fn num_hubs(&self) -> usize {
        self.hubs.len()
    }

    /// Total island-node count.
    pub fn num_island_nodes(&self) -> usize {
        self.islands.iter().map(|i| i.len()).sum()
    }

    /// Deduplicated undirected hub–hub edges (stored as `(min, max)`
    /// pairs) — the Island Collector's inter-hub edge map.
    pub fn inter_hub_edges(&self) -> &[(u32, u32)] {
        &self.inter_hub_edges
    }

    /// Classification of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn class_of(&self, node: NodeId) -> NodeClass {
        self.node_class[node.index()]
    }

    /// Index of the island containing `node`, if it is an island node.
    pub fn island_of(&self, node: NodeId) -> Option<usize> {
        match self.node_class[node.index()] {
            NodeClass::Island(i) => Some(i as usize),
            _ => None,
        }
    }

    /// Fraction of nodes classified as hubs — the paper expects this to be
    /// "a small fraction of the entire graph" for real-world inputs.
    pub fn hub_fraction(&self) -> f64 {
        if self.num_nodes == 0 {
            0.0
        } else {
            self.hubs.len() as f64 / self.num_nodes as f64
        }
    }

    /// The configured `c_max` the partition was produced under.
    pub fn c_max(&self) -> usize {
        self.c_max
    }

    /// Histogram of island sizes in power-of-two buckets.
    pub fn island_size_histogram(&self) -> Vec<usize> {
        let mut hist = vec![0usize; 1];
        for isl in &self.islands {
            let s = isl.len();
            let bucket = if s == 0 { 0 } else { (usize::BITS - 1 - s.leading_zeros()) as usize };
            if bucket >= hist.len() {
                hist.resize(bucket + 1, 0);
            }
            hist[bucket] += 1;
        }
        hist
    }

    /// Verifies all structural invariants against the source graph
    /// (self-loops in `graph` are ignored, as the locator ignores them):
    ///
    /// 1. every node is exactly one of hub / island node;
    /// 2. every island has at most `c_max` nodes;
    /// 3. island closure: island nodes' neighbors are in-island or hubs;
    /// 4. exact edge coverage: island bitmaps + inter-hub tasks cover every
    ///    directed loop-free edge exactly once.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant as a [`CoreError`].
    pub fn check_invariants(&self, graph: &CsrGraph) -> Result<(), CoreError> {
        // (1) Totality and uniqueness, (2) the size bound.
        self.check_classes()?;

        // (3) Closure: the space between L-shapes is blank.
        for (idx, isl) in self.islands.iter().enumerate() {
            for &v in &isl.nodes {
                for &nb in graph.neighbors(NodeId::new(v)) {
                    if nb == v {
                        continue;
                    }
                    let ok = match self.node_class[nb as usize] {
                        NodeClass::Hub => true,
                        NodeClass::Island(j) => j as usize == idx,
                        NodeClass::Unclassified => false,
                    };
                    if !ok {
                        return Err(CoreError::ClosureViolation { node: v, neighbor: nb });
                    }
                }
            }
        }

        // (4) Exact coverage: directed loop-free edges = island bitmap
        // entries + 2 × inter-hub edges.
        let loop_free_directed = graph.iter_edges().filter(|(u, v)| u != v).count() as u64;
        let island_entries: u64 = self.islands.iter().map(|isl| isl.bitmap(graph).nnz()).sum();
        let covered = island_entries + 2 * self.inter_hub_edges.len() as u64;
        if covered != loop_free_directed {
            // Identify one offending edge for the error message.
            for (u, v) in graph.iter_edges() {
                if u == v {
                    continue;
                }
                let times = self.edge_cover_count(u.value(), v.value());
                if times != 1 {
                    return Err(CoreError::CoverageViolation {
                        from: u.value(),
                        to: v.value(),
                        times,
                    });
                }
            }
            // Totals disagree but every edge looks covered once: double
            // counting inside one bitmap (should be impossible).
            return Err(CoreError::CoverageViolation { from: 0, to: 0, times: 0 });
        }
        Ok(())
    }

    /// How many tasks cover the directed edge `(u, v)`: 1 is correct.
    fn edge_cover_count(&self, u: u32, v: u32) -> usize {
        let mut times = 0;
        match (self.node_class[u as usize], self.node_class[v as usize]) {
            (NodeClass::Island(i), NodeClass::Island(j)) if i == j => {
                times += 1;
            }
            (NodeClass::Island(_), NodeClass::Hub) | (NodeClass::Hub, NodeClass::Island(_)) => {
                times += 1;
            }
            (NodeClass::Hub, NodeClass::Hub) => {
                let key = (u.min(v), u.max(v));
                if self.inter_hub_edges.binary_search(&key).is_ok()
                    || self.inter_hub_edges.contains(&key)
                {
                    times += 1;
                }
            }
            _ => {}
        }
        times
    }

    /// Node ordering induced by islandization for spy plots (Figure 9 /
    /// Figure 13): hubs first in detection order, then islands
    /// back-to-back in discovery order. Hub rows/columns form the
    /// L-shapes; islands form dense diagonal blocks; everything else is
    /// blank.
    pub fn ordering(&self) -> Permutation {
        Permutation::from_order(&self.order()).expect("partition covers every node exactly once")
    }

    /// The node sequence [`IslandPartition::ordering`] relabels as
    /// `0..n`: `order()[new] = old`.
    pub fn order(&self) -> Vec<u32> {
        let mut order: Vec<u32> = Vec::with_capacity(self.num_nodes);
        order.extend_from_slice(&self.hubs);
        for isl in &self.islands {
            order.extend_from_slice(&isl.nodes);
        }
        order
    }

    /// Like [`IslandPartition::ordering`], but islands are laid along the
    /// anti-diagonal (reverse island order) to visually match the paper's
    /// Figure 9 rendering.
    pub fn ordering_antidiagonal(&self) -> Permutation {
        let mut order: Vec<u32> = Vec::with_capacity(self.num_nodes);
        order.extend_from_slice(&self.hubs);
        for isl in self.islands.iter().rev() {
            order.extend_from_slice(&isl.nodes);
        }
        Permutation::from_order(&order).expect("partition covers every node exactly once")
    }

    /// Fraction of directed edges that fall *outside* the islandized
    /// structure (0 for a valid partition — the "totally blank" claim of
    /// Figure 9; >0 for orderings produced by the baseline reordering
    /// algorithms, measured by `igcn-reorder`).
    pub fn outlier_fraction(&self, graph: &CsrGraph) -> f64 {
        let mut outliers = 0u64;
        let mut total = 0u64;
        for (u, v) in graph.iter_edges() {
            if u == v {
                continue;
            }
            total += 1;
            if self.edge_cover_count(u.value(), v.value()) != 1 {
                outliers += 1;
            }
        }
        if total == 0 {
            0.0
        } else {
            outliers as f64 / total as f64
        }
    }
}

/// A list whose entries keep their index from one update to the next
/// (a partition's islands, or its hubs): an update takes entries out,
/// leaving holes, [`place`](Slots::place)s what it forms in order into
/// the lowest hole left and then behind the last entry, and
/// [`close`](Slots::close)s each hole still open with the last entry.
#[derive(Debug)]
pub(crate) struct Slots<T> {
    items: Vec<T>,
    edit: SlotEdit,
}

impl<T> Slots<T> {
    /// `items` with the ascending `holes` taken out (placeholders until
    /// refilled or closed).
    pub(crate) fn new(items: Vec<T>, holes: Vec<u32>) -> Self {
        Slots { items, edit: SlotEdit { holes, ..SlotEdit::default() } }
    }

    /// The slot the `k`-th entry placed from now on takes.
    pub(crate) fn slot_of_next(&self, k: usize) -> u32 {
        let (holes, placed) = (self.edit.holes.len(), self.edit.placed.len() + k);
        match self.edit.holes.get(placed) {
            Some(&hole) => hole,
            None => (self.items.len() + placed - holes.max(self.edit.placed.len())) as u32,
        }
    }

    /// Puts `item` into its slot ([`slot_of_next`](Slots::slot_of_next))
    /// and returns the slot.
    pub(crate) fn place(&mut self, item: T) -> u32 {
        let slot = self.slot_of_next(0);
        match self.items.get_mut(slot as usize) {
            Some(hole) => *hole = item,
            None => self.items.push(item),
        }
        self.edit.placed.push(slot);
        slot
    }

    /// [`place`](Slots::place)s `items` in order, making room at once
    /// for those that go behind the last entry (as `Vec::extend` does).
    pub(crate) fn place_all(&mut self, items: impl ExactSizeIterator<Item = T>) {
        let open = self.edit.holes.len().saturating_sub(self.edit.placed.len());
        self.items.reserve(items.len().saturating_sub(open));
        items.for_each(|item| {
            self.place(item);
        });
    }

    /// Closes the holes nothing refilled, the highest first: each takes
    /// the last entry (shown to `moved` in its new slot) or, being the
    /// last, goes. A placed entry never moves: it sits below every hole
    /// left open.
    pub(crate) fn close(mut self, mut moved: impl FnMut(&T, u32)) -> (Vec<T>, SlotEdit) {
        for &hole in self.edit.holes.iter().skip(self.edit.placed.len()).rev() {
            self.items.swap_remove(hole as usize);
            if let Some(item) = self.items.get(hole as usize) {
                moved(item, hole);
            }
        }
        (self.items, self.edit)
    }
}

/// How one update reshaped a slotted list ([`Slots`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct SlotEdit {
    /// The slots taken out, ascending.
    pub holes: Vec<u32>,
    /// The slot of each entry placed, in placement order.
    pub placed: Vec<u32>,
}

impl SlotEdit {
    /// Applies the edit to `list`, one entry per slot, where an entry
    /// placed is `fresh`. Returns how many holes were refilled and how
    /// many took the last entry.
    pub(crate) fn mirror(&self, list: &mut Vec<u32>, fresh: u32) -> (usize, usize) {
        let mut slots = Slots::new(std::mem::take(list), self.holes.clone());
        slots.place_all(self.placed.iter().map(|_| fresh));
        let mut moved = 0;
        (*list, _) = slots.close(|_, _| moved += 1);
        (self.placed.len().min(self.holes.len()), moved)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IslandizationConfig;
    use crate::locator::islandize;
    use igcn_graph::generate::HubIslandConfig;

    fn partition() -> (CsrGraph, IslandPartition) {
        let g = HubIslandConfig::new(300, 12).noise_fraction(0.0).generate(9);
        let p = islandize(&g.graph, &IslandizationConfig::default());
        (g.graph, p)
    }

    #[test]
    fn invariants_hold() {
        let (g, p) = partition();
        p.check_invariants(&g).unwrap();
        assert_eq!(p.outlier_fraction(&g), 0.0);
    }

    #[test]
    fn ordering_is_valid_permutation() {
        let (g, p) = partition();
        let o = p.ordering();
        assert_eq!(o.len(), g.num_nodes());
        let o2 = p.ordering_antidiagonal();
        assert_eq!(o2.len(), g.num_nodes());
        assert_ne!(o, o2);
    }

    #[test]
    fn class_lookup_consistent() {
        let (_, p) = partition();
        for &h in p.hubs() {
            assert_eq!(p.class_of(NodeId::new(h)), NodeClass::Hub);
            assert_eq!(p.island_of(NodeId::new(h)), None);
        }
        for (idx, isl) in p.islands().iter().enumerate() {
            for &v in &isl.nodes {
                assert_eq!(p.island_of(NodeId::new(v)), Some(idx));
            }
        }
    }

    #[test]
    fn hub_fraction_is_small_for_structured_graphs() {
        let (_, p) = partition();
        assert!(p.hub_fraction() < 0.35, "hub fraction {}", p.hub_fraction());
    }

    #[test]
    fn size_histogram_counts_islands() {
        let (_, p) = partition();
        let hist = p.island_size_histogram();
        let total: usize = hist.iter().sum();
        assert_eq!(total, p.num_islands());
    }

    #[test]
    fn from_raw_parts_rejects_an_empty_island() {
        let (_, p) = partition();
        let parts = |islands: Vec<Island>| {
            IslandPartition::from_raw_parts(
                p.num_nodes(),
                islands,
                p.hubs().to_vec(),
                p.inter_hub_edges().to_vec(),
                p.node_classes().to_vec(),
                p.c_max(),
            )
        };
        assert_eq!(parts(p.islands().to_vec()).unwrap(), p);
        let mut islands = p.islands().to_vec();
        islands.push(Island { nodes: vec![], hubs: vec![], round: 0, engine: 0 });
        assert!(matches!(parts(islands), Err(CoreError::ShapeMismatch { .. })));
    }

    #[test]
    fn detects_tampered_partition() {
        let (g, p) = partition();
        // Remove an island's node from the class table → totality breaks.
        let mut bad = p.clone();
        let victim = bad.islands[0].nodes[0];
        bad.node_class[victim as usize] = NodeClass::Unclassified;
        assert!(bad.check_invariants(&g).is_err());
    }
}
