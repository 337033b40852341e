//! Island types: member lists and the local adjacency bitmap.

use serde::{Deserialize, Serialize};

use igcn_graph::{CsrGraph, NodeId};

/// One discovered island: a group of nodes with strong internal
/// connections whose only external connections are to hubs.
///
/// Members are stored in BFS discovery order (the order `v_local` filled
/// up in Algorithm 4); connected hubs in first-contact order. The
/// [`IslandBitmap`] orders columns hubs-first, exactly like the Figure 7
/// walk-through.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Island {
    /// Island member node IDs (BFS order).
    pub nodes: Vec<u32>,
    /// Hubs this island connects to (first-contact order, deduplicated).
    pub hubs: Vec<u32>,
    /// The locator round (0-based) in which the island was found.
    pub round: u32,
    /// The TP-BFS engine that found it (for utilization accounting).
    pub engine: u32,
}

impl Island {
    /// Number of member nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the island has no members (never produced by the locator;
    /// exists for container-convention completeness).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Builds the island-local adjacency bitmap from the graph, without
    /// diagonal entries.
    ///
    /// Rows and columns are ordered `[hubs..., nodes...]`. The bitmap holds
    /// island↔island and island↔hub adjacency in both orientations but
    /// *no* hub↔hub entries (those are covered by inter-hub tasks).
    pub fn bitmap(&self, graph: &CsrGraph) -> IslandBitmap {
        IslandBitmap::build(graph, &self.hubs, &self.nodes, false)
    }
}

/// The dense local adjacency of one island task — the structure the
/// Island Consumer's `1×k` scan window walks (Figure 7). It holds its
/// dimensions and bits only: local index `i` is the island's `i`-th hub,
/// then its nodes, in the [`Island`]'s own order.
///
/// # Example
///
/// ```
/// use igcn_core::IslandBitmap;
/// use igcn_graph::CsrGraph;
///
/// // Hub 0 connected to island {1, 2}; 1-2 connected internally.
/// let g = CsrGraph::from_undirected_edges(3, &[(0, 1), (0, 2), (1, 2)]).unwrap();
/// let bm = IslandBitmap::build(&g, &[0], &[1, 2], false);
/// assert_eq!(bm.dim(), 3);
/// assert!(bm.get(0, 1)); // hub row ↔ island col
/// assert!(!bm.get(0, 0)); // no diagonal
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IslandBitmap {
    dim: usize,
    num_hubs: usize,
    words_per_row: usize,
    bits: Vec<u64>,
}

impl IslandBitmap {
    /// Builds the bitmap for `hubs` + `nodes` from graph adjacency;
    /// `include_diagonal` sets the `Ã = A + I` self bits on island-node
    /// rows, so self-contributions ride the same pre-aggregated windows
    /// as neighbour contributions. Hub rows never carry a diagonal: a
    /// hub appears in many islands, and its self-contribution is added
    /// once, when its partial-result row is initialised.
    ///
    /// # Panics
    ///
    /// Panics if a member ID is out of range for the graph.
    pub fn build(graph: &CsrGraph, hubs: &[u32], nodes: &[u32], include_diagonal: bool) -> Self {
        // Local index lookup. Islands are small (≤ c_max + a few hubs), so
        // a sorted probe vector beats a HashMap here. In a layout's ID
        // space an island's nodes are one ascending run of IDs, found by
        // offset, and only the hubs (the leading members) need the probe.
        let ascending = nodes.windows(2).all(|w| w[0].checked_add(1) == Some(w[1]));
        let run = nodes.first().zip(nodes.last()).filter(|_| ascending).map(|(&a, &b)| a..=b);
        let probed = if run.is_some() { &[][..] } else { nodes };
        let index = probe_index(hubs.iter().chain(probed));
        let num_hubs = hubs.len();
        Self::fill(graph, num_hubs, nodes, include_diagonal, |v| match &run {
            Some(run) if run.contains(&v) => Some(num_hubs + (v - run.start()) as usize),
            _ => probe(&index, v),
        })
    }

    /// [`IslandBitmap::build`] for an island of `graph` that a layout
    /// renumbers through `forward` (graph ID → layout ID): `nodes` in
    /// `graph`'s IDs, which the layout numbers `start..` in order, and
    /// `hubs` in layout IDs. A neighbour is looked up by its layout ID —
    /// a member by its offset, a hub among the island's few — so the
    /// members need no sorted index wherever they lie in `graph`. The
    /// bits are those `build` reads from the renumbered graph.
    ///
    /// # Panics
    ///
    /// Panics if a member or a neighbour is out of range for `forward`.
    pub fn build_renumbered(
        graph: &CsrGraph,
        forward: &[u32],
        hubs: &[u32],
        nodes: &[u32],
        start: u32,
        include_diagonal: bool,
    ) -> Self {
        let index = probe_index(hubs.iter());
        let (num_hubs, len) = (hubs.len(), nodes.len() as u32);
        Self::fill(graph, num_hubs, nodes, include_diagonal, |v| {
            let id = forward[v as usize];
            match id.wrapping_sub(start) {
                at if at < len => Some(num_hubs + at as usize),
                _ => probe(&index, id),
            }
        })
    }

    /// The bitmap of `num_hubs` hubs and the island-node rows `nodes`
    /// (`graph` IDs), each neighbour placed by `local_of`.
    fn fill(
        graph: &CsrGraph,
        num_hubs: usize,
        nodes: &[u32],
        include_diagonal: bool,
        local_of: impl Fn(u32) -> Option<usize>,
    ) -> Self {
        let dim = num_hubs + nodes.len();
        let words_per_row = dim.div_ceil(64);
        let mut bits = vec![0u64; dim * words_per_row];
        // Walk island-node adjacency only: island↔island entries are seen
        // from both endpoints; island↔hub entries are mirrored manually.
        // This mirrors the hardware, which fills the bitmap from the
        // adjacency lists streamed during TP-BFS (island rows only).
        for (local_row, &v) in nodes.iter().enumerate() {
            let row = num_hubs + local_row;
            if include_diagonal {
                set_bit(&mut bits, words_per_row, row, row);
            }
            for &nb in graph.neighbors(NodeId::new(v)) {
                if nb == v {
                    continue; // defensive: self-loops are excluded
                }
                if let Some(col) = local_of(nb) {
                    set_bit(&mut bits, words_per_row, row, col);
                    if col < num_hubs {
                        // Mirror the hub row (hub adjacency is never read).
                        set_bit(&mut bits, words_per_row, col, row);
                    }
                }
            }
        }
        IslandBitmap { dim, num_hubs, words_per_row, bits }
    }

    /// Reassembles a `dim × dim` bitmap whose first `num_hubs` rows are
    /// hubs from its packed rows (the deserialisation path of the
    /// snapshot store).
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency (hub count vs
    /// dimension, bit-array length vs the row stride, a bit set past the
    /// last column).
    pub fn from_raw_parts(num_hubs: usize, dim: usize, bits: Vec<u64>) -> Result<Self, String> {
        if num_hubs > dim {
            return Err(format!("bitmap claims {num_hubs} hubs but only {dim} rows"));
        }
        let words_per_row = dim.div_ceil(64);
        if dim.checked_mul(words_per_row) != Some(bits.len()) {
            return Err(format!(
                "bitmap bit array has {} words, not {dim} rows × {words_per_row}",
                bits.len()
            ));
        }
        // A row's last word holds `dim % 64` columns (all 64 when 0).
        let past = if dim.is_multiple_of(64) { 0 } else { u64::MAX << (dim % 64) };
        if let Some(row) = (0..dim).find(|&r| bits[(r + 1) * words_per_row - 1] & past != 0) {
            return Err(format!("bitmap row {row} sets a bit past its {dim} columns"));
        }
        Ok(IslandBitmap { dim, num_hubs, words_per_row, bits })
    }

    /// Side length of the (square) bitmap: hubs + island nodes.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// `u64` words per bitmap row (`ceil(dim / 64)`).
    pub fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    /// The raw packed bit rows (`dim × words_per_row` words, row-major)
    /// — the serialisation twin of [`IslandBitmap::from_raw_parts`].
    pub fn bits(&self) -> &[u64] {
        &self.bits
    }

    /// Number of leading rows/columns that are hubs.
    pub fn num_hubs(&self) -> usize {
        self.num_hubs
    }

    /// Number of island-node rows/columns.
    pub fn num_nodes(&self) -> usize {
        self.dim - self.num_hubs
    }

    /// Whether local `(row, col)` is connected.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> bool {
        assert!(row < self.dim && col < self.dim, "bitmap index out of range");
        let w = self.bits[row * self.words_per_row + col / 64];
        (w >> (col % 64)) & 1 == 1
    }

    /// Total set bits (directed adjacency entries covered by this task).
    pub fn nnz(&self) -> u64 {
        self.bits.iter().map(|w| w.count_ones() as u64).sum()
    }

    /// Set bits in row `row` within the half-open column window
    /// `[start, start + width)`, returned as a packed little-endian mask
    /// (bit `b` is column `start + b`) — exactly what the `1×k` scan
    /// window sees. O(1): one shift across the one or two words of the
    /// row the window covers. Columns at or past `dim` read as zero, so a
    /// window that runs past the edge is clamped and one that starts
    /// there is empty.
    ///
    /// # Panics
    ///
    /// Panics if `row >= dim()` or `width > 64`.
    #[inline]
    pub fn window(&self, row: usize, start: usize, width: usize) -> u64 {
        assert!(row < self.dim, "row out of range");
        assert!(width <= 64, "window wider than 64 is not supported");
        let end = (start + width).min(self.dim);
        if start >= end {
            return 0;
        }
        let len = end - start;
        let words = &self.bits[row * self.words_per_row..][..self.words_per_row];
        let (word, shift) = (start / 64, start % 64);
        let mut mask = words[word] >> shift;
        if shift + len > 64 {
            // The window straddles a word boundary (`shift > 0` here).
            mask |= words[word + 1] << (64 - shift);
        }
        mask & (u64::MAX >> (64 - len))
    }

    /// Iterates over the set columns of one row.
    ///
    /// # Panics
    ///
    /// Panics if `row >= dim()`.
    pub fn row_cols(&self, row: usize) -> impl Iterator<Item = usize> + '_ {
        assert!(row < self.dim, "row out of range");
        (0..self.dim).filter(move |&c| self.get(row, c))
    }
}

/// `(ID, local index)` of each of `ids` in turn, sorted by ID: the
/// probe of [`probe`].
fn probe_index<'a>(ids: impl Iterator<Item = &'a u32>) -> Vec<(u32, usize)> {
    let mut index: Vec<(u32, usize)> = ids.enumerate().map(|(i, &v)| (v, i)).collect();
    index.sort_unstable_by_key(|&(v, _)| v);
    index
}

/// The local index `index` ([`probe_index`]) holds for `v`.
fn probe(index: &[(u32, usize)], v: u32) -> Option<usize> {
    index.binary_search_by_key(&v, |&(x, _)| x).ok().map(|pos| index[pos].1)
}

fn set_bit(bits: &mut [u64], words_per_row: usize, row: usize, col: usize) {
    bits[row * words_per_row + col / 64] |= 1 << (col % 64);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hub 0; island {1,2,3} as a triangle, all touching the hub.
    fn example() -> (CsrGraph, IslandBitmap) {
        let g =
            CsrGraph::from_undirected_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (1, 3)])
                .unwrap();
        let bm = IslandBitmap::build(&g, &[0], &[1, 2, 3], false);
        (g, bm)
    }

    #[test]
    fn dims_and_membership() {
        let (_, bm) = example();
        assert_eq!(bm.dim(), 4);
        assert_eq!(bm.num_hubs(), 1);
        assert_eq!(bm.num_nodes(), 3);
        assert_eq!(bm.words_per_row(), 1);
        assert_eq!(bm.bits().len(), 4);
    }

    #[test]
    fn symmetry_and_no_diagonal() {
        let (_, bm) = example();
        for r in 0..4 {
            assert!(!bm.get(r, r), "diagonal must be empty");
            for c in 0..4 {
                assert_eq!(bm.get(r, c), bm.get(c, r), "bitmap must be symmetric");
            }
        }
    }

    #[test]
    fn nnz_counts_directed_entries() {
        let (_, bm) = example();
        // 6 undirected edges → 12 directed, all inside the task.
        assert_eq!(bm.nnz(), 12);
    }

    #[test]
    fn no_hub_hub_entries() {
        // Hubs 0, 1 connected to each other and both to island {2, 3}.
        let g = CsrGraph::from_undirected_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        let bm = IslandBitmap::build(&g, &[0, 1], &[2, 3], false);
        assert!(!bm.get(0, 1), "hub-hub edge must not be in the island task");
        assert!(bm.get(0, 2)); // hub0 - node2
        assert!(bm.get(3, 1)); // node3 - hub1
    }

    #[test]
    fn any_member_order_gives_the_same_adjacency() {
        // Nodes as one ascending run (found by offset) and in BFS order
        // (found through the sorted probe) describe the same island.
        let (g, run) = example();
        let hub_last =
            CsrGraph::from_undirected_edges(4, &[(3, 1), (3, 2), (3, 0), (1, 2), (2, 0), (1, 0)])
                .unwrap();
        for (graph, hubs, nodes) in [(&g, [0], [3, 1, 2]), (&hub_last, [3], [0, 1, 2])] {
            let bm = IslandBitmap::build(graph, &hubs, &nodes, false);
            assert_eq!(bm.nnz(), run.nnz());
            let members: Vec<u32> = hubs.iter().chain(&nodes).copied().collect();
            for r in 0..4 {
                for c in 0..4 {
                    let connected = graph.has_edge(members[r].into(), members[c].into());
                    assert_eq!(bm.get(r, c), connected, "{nodes:?}: ({r}, {c})");
                }
            }
        }
    }

    #[test]
    fn window_masks() {
        let (_, bm) = example();
        // Row 1 (island node 1): connected to hub 0 (col 0), nodes 2,3 (cols 2,3).
        assert_eq!(bm.window(1, 0, 2), 0b01);
        assert_eq!(bm.window(1, 2, 2), 0b11);
        // Clamped window at the edge.
        assert_eq!(bm.window(1, 3, 2), 0b1);
        // Empty window beyond the edge.
        assert_eq!(bm.window(1, 4, 2), 0);
    }

    #[test]
    fn window_equals_its_per_bit_definition() {
        use rand::rngs::StdRng;
        use rand::{RngCore, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x1517);
        for dim in [1usize, 63, 64, 65, 127, 128, 129] {
            // Random bits, the unused tail of each row's last word
            // included (which `from_raw_parts` refuses): a window must
            // not see past `dim`.
            let words_per_row = dim.div_ceil(64);
            let bits = (0..dim * words_per_row).map(|_| rng.next_u64()).collect();
            let bm = IslandBitmap { dim, num_hubs: 0, words_per_row, bits };
            for row in 0..dim {
                // Every start up to and past the edge.
                for start in 0..dim + 2 {
                    for width in [1usize, 2, 4, 63, 64] {
                        let per_bit = (0..width)
                            .filter(|&b| start + b < dim && bm.get(row, start + b))
                            .fold(0u64, |m, b| m | 1 << b);
                        assert_eq!(
                            bm.window(row, start, width),
                            per_bit,
                            "dim={dim} row={row} start={start} width={width}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn from_raw_parts_refuses_a_bit_past_the_last_column() {
        let (_, bm) = example();
        assert_eq!(IslandBitmap::from_raw_parts(1, 4, bm.bits().to_vec()), Ok(bm.clone()));
        let mut bits = bm.bits().to_vec();
        bits[2] |= 1 << 4;
        let err = IslandBitmap::from_raw_parts(1, 4, bits).unwrap_err();
        assert_eq!(err, "bitmap row 2 sets a bit past its 4 columns");
        let full = IslandBitmap::from_raw_parts(0, 64, vec![u64::MAX; 64]);
        assert!(full.is_ok(), "a 64-wide row has no column past its last");
    }

    #[test]
    #[should_panic(expected = "wider than 64")]
    fn window_wider_than_a_word_panics() {
        example().1.window(0, 0, 65);
    }

    #[test]
    #[should_panic(expected = "row out of range")]
    fn window_row_out_of_range_panics() {
        example().1.window(4, 0, 2);
    }

    #[test]
    fn row_cols_iterates_set_columns() {
        let (_, bm) = example();
        let cols: Vec<usize> = bm.row_cols(0).collect();
        assert_eq!(cols, vec![1, 2, 3]);
    }

    #[test]
    fn wide_islands_use_multiple_words() {
        // A star with 70 leaves forced into one bitmap exercises >1 word/row.
        let edges: Vec<(u32, u32)> = (1..=70).map(|v| (0u32, v)).collect();
        let g = CsrGraph::from_undirected_edges(71, &edges).unwrap();
        let nodes: Vec<u32> = (1..=70).collect();
        let bm = IslandBitmap::build(&g, &[0], &nodes, false);
        assert_eq!(bm.dim(), 71);
        assert_eq!(bm.nnz(), 140);
        assert!(bm.get(0, 70));
        assert!(bm.get(70, 0));
    }

    #[test]
    fn island_struct_helpers() {
        let (g, _) = example();
        let isl = Island { nodes: vec![1, 2, 3], hubs: vec![0], round: 0, engine: 0 };
        assert_eq!(isl.len(), 3);
        assert!(!isl.is_empty());
        let bm = isl.bitmap(&g);
        assert_eq!(bm.dim(), 4);
    }
}
