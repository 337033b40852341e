//! Compressed-sparse-row adjacency.

use serde::{Deserialize, Serialize};

use crate::error::GraphError;
use crate::node::NodeId;
use crate::permutation::Permutation;

/// An unweighted graph stored in compressed-sparse-row (CSR) form.
///
/// This mirrors the adjacency-list layout the I-GCN hardware streams from
/// global memory: one contiguous neighbor array (`col_idx`) indexed by a
/// per-node offset array (`row_ptr`). Neighbor lists are kept sorted, which
/// makes [`CsrGraph::has_edge`] a binary search and gives deterministic
/// iteration order to the islandization algorithm.
///
/// For GCN processing the adjacency is *symmetric* (undirected graph); all
/// dataset generators in this crate produce symmetric graphs and
/// [`CsrGraph::is_symmetric`] verifies the property.
///
/// # Example
///
/// ```
/// use igcn_graph::{CsrGraph, NodeId};
///
/// let g = CsrGraph::from_undirected_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
/// assert_eq!(g.degree(NodeId::new(1)), 2);
/// assert!(g.has_edge(NodeId::new(2), NodeId::new(1)));
/// assert_eq!(g.num_directed_edges(), 6);
/// ```
#[derive(Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CsrGraph {
    num_nodes: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
}

/// Whether every row of a well-formed `(row_ptr, col_idx)` is strictly
/// ascending with its entries below `num_nodes`. Adjacent entries that
/// descend (or repeat) are counted over the whole of `col_idx` in a loop
/// the compiler vectorises; those that straddle the start of a non-empty
/// row are then taken off, and what is left descends inside a row. An
/// ascending row is in range when its last entry is.
fn rows_ascending_in_range(num_nodes: usize, row_ptr: &[usize], col_idx: &[u32]) -> bool {
    if col_idx.len() > u32::MAX as usize {
        return false;
    }
    let next = col_idx.get(1..).unwrap_or_default();
    let descents: u32 = col_idx.iter().zip(next).map(|(a, b)| u32::from(a >= b)).sum();
    let mut straddling = 0u32;
    let mut in_range = true;
    for w in row_ptr.windows(2) {
        if w[0] < w[1] {
            in_range &= (col_idx[w[1] - 1] as usize) < num_nodes;
            if w[0] > 0 {
                straddling += u32::from(col_idx[w[0] - 1] >= col_idx[w[0]]);
            }
        }
    }
    in_range && descents == straddling
}

/// The rules of [`CsrGraph::from_raw_parts`] on `row_ptr`: `num_nodes +
/// 1` entries, starting at 0, never decreasing, ending at `num_cols`.
fn check_row_ptr(num_nodes: usize, row_ptr: &[usize], num_cols: usize) -> Result<(), GraphError> {
    if row_ptr.len() != num_nodes + 1 {
        return Err(GraphError::MalformedRowPtr {
            detail: format!("expected {} entries, got {}", num_nodes + 1, row_ptr.len()),
        });
    }
    if row_ptr.first() != Some(&0) || *row_ptr.last().unwrap() != num_cols {
        return Err(GraphError::MalformedRowPtr {
            detail: "row_ptr must start at 0 and end at col_idx.len()".to_string(),
        });
    }
    if row_ptr.windows(2).any(|w| w[1] < w[0]) {
        return Err(GraphError::MalformedRowPtr {
            detail: "row_ptr must be non-decreasing".to_string(),
        });
    }
    Ok(())
}

/// The directed entries one [`CsrGraph::patch_edges`] took out and put
/// in, each list ascending, and the node count before it: what
/// [`CsrGraph::undo_patch`] needs to restore the graph exactly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EdgePatch {
    num_nodes: usize,
    removed: Vec<(u32, u32)>,
    added: Vec<(u32, u32)>,
}

/// Makes room in `items` for `extra` more: if it has less spare room,
/// it grows by them plus 1/64 of what it holds, so a buffer that grows
/// a little at a time reallocates rarely and keeps a bounded slack.
fn reserve_room<T>(items: &mut Vec<T>, extra: usize) {
    if items.capacity() - items.len() < extra {
        items.reserve_exact(extra + items.len() / 64);
    }
}

/// A copy of `items` with the room [`reserve_room`] would make for
/// `extra` more.
fn with_room<T: Copy>(items: &[T], extra: usize) -> Vec<T> {
    let mut copy = Vec::with_capacity(items.len() + extra + items.len() / 64);
    copy.extend_from_slice(items);
    copy
}

/// Moves the row offsets behind each row of the ascending `entries` by
/// the number of entries in the rows in front of them (`shift(offset,
/// count)`), starting at the first such row.
fn shift_rows(row_ptr: &mut [usize], entries: &[(u32, u32)], shift: impl Fn(&mut usize, usize)) {
    let mut rows = entries.chunk_by(|a, b| a.0 == b.0).peekable();
    let mut count = 0;
    while let Some(run) = rows.next() {
        count += run.len();
        let end = rows.peek().map_or(row_ptr.len() - 1, |next| next[0].0 as usize);
        for p in &mut row_ptr[run[0].0 as usize + 1..=end] {
            shift(p, count);
        }
    }
}

impl CsrGraph {
    /// Builds a graph from *directed* edge pairs.
    ///
    /// Duplicate edges are collapsed; neighbor lists are sorted. Self-loops
    /// are kept (GCN's `A + I` handling strips/reinstates them explicitly at
    /// a higher layer).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfBounds`] if an endpoint is `>= num_nodes`.
    pub fn from_directed_edges(num_nodes: usize, edges: &[(u32, u32)]) -> Result<Self, GraphError> {
        for &(u, v) in edges {
            if u as usize >= num_nodes {
                return Err(GraphError::NodeOutOfBounds { node: u, num_nodes });
            }
            if v as usize >= num_nodes {
                return Err(GraphError::NodeOutOfBounds { node: v, num_nodes });
            }
        }
        // Counting sort by source, then per-row sort + dedup.
        let mut counts = vec![0usize; num_nodes + 1];
        for &(u, _) in edges {
            counts[u as usize + 1] += 1;
        }
        for i in 0..num_nodes {
            counts[i + 1] += counts[i];
        }
        let mut col_idx = vec![0u32; edges.len()];
        let mut cursor = counts.clone();
        for &(u, v) in edges {
            col_idx[cursor[u as usize]] = v;
            cursor[u as usize] += 1;
        }
        let mut row_ptr = Vec::with_capacity(num_nodes + 1);
        row_ptr.push(0);
        let mut dedup = Vec::with_capacity(col_idx.len());
        for u in 0..num_nodes {
            let row = &mut col_idx[counts[u]..counts[u + 1]];
            row.sort_unstable();
            let mut prev: Option<u32> = None;
            for &v in row.iter() {
                if prev != Some(v) {
                    dedup.push(v);
                    prev = Some(v);
                }
            }
            row_ptr.push(dedup.len());
        }
        Ok(CsrGraph { num_nodes, row_ptr, col_idx: dedup })
    }

    /// Builds a symmetric graph from *undirected* edge pairs: each pair
    /// `(u, v)` with `u != v` inserts both `(u, v)` and `(v, u)`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfBounds`] if an endpoint is `>= num_nodes`.
    pub fn from_undirected_edges(
        num_nodes: usize,
        edges: &[(u32, u32)],
    ) -> Result<Self, GraphError> {
        let mut directed = Vec::with_capacity(edges.len() * 2);
        for &(u, v) in edges {
            directed.push((u, v));
            if u != v {
                directed.push((v, u));
            }
        }
        Self::from_directed_edges(num_nodes, &directed)
    }

    /// Builds a graph directly from raw CSR arrays. When every row is
    /// already strictly ascending and in range — every row of a CSR this
    /// crate produced — that is checked in one pass over each array;
    /// otherwise the rows are walked one by one, and a row that is not
    /// ascending is sorted first.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::MalformedRowPtr`] if `row_ptr` has the wrong
    /// length, is non-monotone, or does not end at `col_idx.len()`;
    /// [`GraphError::NodeOutOfBounds`] if a column index is out of range;
    /// [`GraphError::DuplicateEdge`] if a row names a neighbor twice.
    pub fn from_raw_parts(
        num_nodes: usize,
        row_ptr: Vec<usize>,
        mut col_idx: Vec<u32>,
    ) -> Result<Self, GraphError> {
        check_row_ptr(num_nodes, &row_ptr, col_idx.len())?;
        if rows_ascending_in_range(num_nodes, &row_ptr, &col_idx) {
            return Ok(CsrGraph { num_nodes, row_ptr, col_idx });
        }
        for (u, w) in row_ptr.windows(2).enumerate() {
            let row = &mut col_idx[w[0]..w[1]];
            if !row.windows(2).all(|c| c[0] < c[1]) {
                row.sort_unstable();
                if let Some(c) = row.windows(2).find(|c| c[0] == c[1]) {
                    return Err(GraphError::DuplicateEdge { from: u as u32, to: c[0] });
                }
            }
            // Ascending: the last entry is the row's largest.
            if let Some(&node) = row.last().filter(|&&v| v as usize >= num_nodes) {
                return Err(GraphError::NodeOutOfBounds { node, num_nodes });
            }
        }
        Ok(CsrGraph { num_nodes, row_ptr, col_idx })
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of stored (directed) adjacency entries. For a symmetric graph
    /// this is twice the number of undirected edges plus the number of
    /// self-loops.
    pub fn num_directed_edges(&self) -> usize {
        self.col_idx.len()
    }

    /// Number of undirected edges, assuming a symmetric adjacency.
    /// Self-loops count once.
    pub fn num_undirected_edges(&self) -> usize {
        let self_loops = self.count_self_loops();
        (self.col_idx.len() - self_loops) / 2 + self_loops
    }

    /// Number of self-loop entries `(v, v)`.
    pub fn count_self_loops(&self) -> usize {
        (0..self.num_nodes)
            .filter(|&u| self.neighbors_raw(u).binary_search(&(u as u32)).is_ok())
            .count()
    }

    /// The sorted neighbor list of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of bounds.
    pub fn neighbors(&self, node: NodeId) -> &[u32] {
        self.neighbors_raw(node.index())
    }

    fn neighbors_raw(&self, u: usize) -> &[u32] {
        &self.col_idx[self.row_ptr[u]..self.row_ptr[u + 1]]
    }

    /// Degree (number of stored adjacency entries) of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of bounds.
    pub fn degree(&self, node: NodeId) -> usize {
        let u = node.index();
        self.row_ptr[u + 1] - self.row_ptr[u]
    }

    /// Degrees of all nodes, indexable by [`NodeId::index`].
    pub fn degrees(&self) -> Vec<u32> {
        (0..self.num_nodes).map(|u| (self.row_ptr[u + 1] - self.row_ptr[u]) as u32).collect()
    }

    /// Maximum degree over all nodes (0 for an empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.num_nodes).map(|u| self.row_ptr[u + 1] - self.row_ptr[u]).max().unwrap_or(0)
    }

    /// Mean degree over all nodes (0 for an empty graph).
    pub fn avg_degree(&self) -> f64 {
        if self.num_nodes == 0 {
            0.0
        } else {
            self.col_idx.len() as f64 / self.num_nodes as f64
        }
    }

    /// Density of the adjacency matrix: stored entries over `n^2`.
    pub fn density(&self) -> f64 {
        if self.num_nodes == 0 {
            0.0
        } else {
            self.col_idx.len() as f64 / (self.num_nodes as f64 * self.num_nodes as f64)
        }
    }

    /// Whether the directed edge `(from, to)` is present.
    ///
    /// # Panics
    ///
    /// Panics if `from` is out of bounds.
    pub fn has_edge(&self, from: NodeId, to: NodeId) -> bool {
        self.neighbors(from).binary_search(&to.value()).is_ok()
    }

    /// Iterates over all stored directed edges in row-major order.
    pub fn iter_edges(&self) -> EdgeIter<'_> {
        EdgeIter { graph: self, row: 0, pos: 0 }
    }

    /// Iterates over all node identifiers `0..num_nodes`.
    pub fn iter_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.num_nodes as u32).map(NodeId::new)
    }

    /// Whether every edge `(u, v)` has its reverse `(v, u)`.
    pub fn is_symmetric(&self) -> bool {
        self.check_symmetric().is_ok()
    }

    /// Verifies symmetry, reporting the first unpaired edge.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NotSymmetric`] with the first unpaired edge.
    pub fn check_symmetric(&self) -> Result<(), GraphError> {
        for (u, v) in self.iter_edges() {
            if !self.has_edge(v, u) {
                return Err(GraphError::NotSymmetric { from: u.value(), to: v.value() });
            }
        }
        Ok(())
    }

    /// Returns the transpose (reverse of every edge). For symmetric graphs
    /// this is equal to the input.
    pub fn transpose(&self) -> CsrGraph {
        let edges: Vec<(u32, u32)> =
            self.iter_edges().map(|(u, v)| (v.value(), u.value())).collect();
        CsrGraph::from_directed_edges(self.num_nodes, &edges)
            .expect("transpose of a valid graph is valid")
    }

    /// Returns the symmetric closure: every edge plus its reverse.
    pub fn symmetrize(&self) -> CsrGraph {
        let mut edges: Vec<(u32, u32)> = Vec::with_capacity(self.col_idx.len() * 2);
        for (u, v) in self.iter_edges() {
            edges.push((u.value(), v.value()));
            edges.push((v.value(), u.value()));
        }
        CsrGraph::from_directed_edges(self.num_nodes, &edges)
            .expect("symmetrization of a valid graph is valid")
    }

    /// Relabels nodes: node `v` becomes `perm.map(v)`.
    ///
    /// Row `new` of the result is old row `perm⁻¹(new)` with its
    /// neighbours renamed, so the cost is O(n + m) plus a sort of each
    /// row the renaming left out of ascending order — no global edge
    /// list, no counting sort, no dedup pass.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidPermutation`] if `perm` is not over
    /// exactly `num_nodes` elements.
    pub fn permute(&self, perm: &Permutation) -> Result<CsrGraph, GraphError> {
        if perm.len() != self.num_nodes {
            return Err(GraphError::InvalidPermutation {
                detail: format!(
                    "permutation over {} elements applied to graph with {} nodes",
                    perm.len(),
                    self.num_nodes
                ),
            });
        }
        let forward = perm.as_forward();
        let mut row_ptr = Vec::with_capacity(self.num_nodes + 1);
        row_ptr.push(0);
        let mut col_idx = Vec::with_capacity(self.col_idx.len());
        // Each row is sorted as it is built, so the check below is the
        // whole-array one.
        for &old in perm.inverse().as_forward() {
            let start = col_idx.len();
            col_idx.extend(self.neighbors_raw(old as usize).iter().map(|&v| forward[v as usize]));
            col_idx[start..].sort_unstable();
            row_ptr.push(col_idx.len());
        }
        CsrGraph::from_raw_parts(self.num_nodes, row_ptr, col_idx)
    }

    /// Returns the graph with `removed` undirected edges taken out and
    /// `added` ones put in, grown to `num_nodes` nodes: a copy with room
    /// for the additions, patched in place ([`CsrGraph::patch_edges`],
    /// which gives the rules and the errors).
    ///
    /// # Errors
    ///
    /// As [`CsrGraph::patch_edges`].
    pub fn with_edge_changes(
        &self,
        num_nodes: usize,
        added: &[(u32, u32)],
        removed: &[(u32, u32)],
    ) -> Result<CsrGraph, GraphError> {
        let mut copy = self.copy_with_room(num_nodes, 2 * added.len());
        copy.patch_edges(num_nodes, added, removed)?;
        Ok(copy)
    }

    /// A copy of the graph with room to grow to `num_nodes` nodes and
    /// `entries` more directed entries, plus the 1/64 slack
    /// [`CsrGraph::patch_edges`] keeps, so that patching the copy does
    /// not reallocate it.
    pub fn copy_with_room(&self, num_nodes: usize, entries: usize) -> CsrGraph {
        CsrGraph {
            num_nodes: self.num_nodes,
            row_ptr: with_room(&self.row_ptr, num_nodes.saturating_sub(self.num_nodes)),
            col_idx: with_room(&self.col_idx, entries),
        }
    }

    /// Takes `removed` undirected edges out of the graph and puts `added`
    /// ones in, in place, growing it to `num_nodes` nodes if that exceeds
    /// the current count (new nodes are appended, isolated unless an
    /// added edge names them). Removals apply first, so an edge in both
    /// batches ends up present; duplicates in either batch and additions
    /// of an edge already present are harmless.
    ///
    /// Everything is validated before anything changes. Then one forward
    /// pass from the first row that loses an entry moves the entries
    /// behind it down over the removed ones, and one backward pass from
    /// the last row that gains an entry moves them up to open the added
    /// ones' places: rows in front of the first touched row are not
    /// moved, and only the `2·(added + removed)` directed deltas are
    /// sorted. When the entries outgrow the buffer, it grows by the
    /// additions plus 1/64 of what it then holds (never by doubling), so
    /// a graph patched record after record keeps at most that much spare
    /// room. The returned [`EdgePatch`] lists the directed entries the
    /// patch actually changed; [`CsrGraph::undo_patch`] restores the
    /// graph from it.
    ///
    /// # Errors
    ///
    /// [`GraphError::MissingEdge`] for the first removed pair `(a, b)`
    /// whose directed edge `a → b` is absent;
    /// [`GraphError::NodeOutOfBounds`] for the first added pair with an
    /// endpoint at or beyond the (grown) node count. The graph is then
    /// unchanged.
    pub fn patch_edges(
        &mut self,
        num_nodes: usize,
        added: &[(u32, u32)],
        removed: &[(u32, u32)],
    ) -> Result<EdgePatch, GraphError> {
        let n_old = self.num_nodes;
        let n = num_nodes.max(n_old);
        let present = |a: u32, b: u32| {
            (a as usize) < n_old && self.neighbors_raw(a as usize).binary_search(&b).is_ok()
        };
        // Directed deltas `(row, col, is_add)`. `false < true`, so once
        // sorted the last delta of a `(row, col)` group is an addition
        // whenever the group holds one: additions win over removals.
        let mut deltas: Vec<(u32, u32, bool)> =
            Vec::with_capacity(2 * (added.len() + removed.len()));
        for &(a, b) in removed {
            if !((b as usize) < n_old && present(a, b)) {
                return Err(GraphError::MissingEdge { from: a, to: b });
            }
            deltas.push((a, b, false));
            deltas.push((b, a, false));
        }
        for &(a, b) in added {
            if a as usize >= n || b as usize >= n {
                return Err(GraphError::NodeOutOfBounds { node: a.max(b), num_nodes: n });
            }
            deltas.push((a, b, true));
            if a != b {
                deltas.push((b, a, true));
            }
        }
        deltas.sort_unstable();
        // What the batch changes: an entry it takes out or puts in.
        let mut patch = EdgePatch { num_nodes: n_old, removed: Vec::new(), added: Vec::new() };
        for group in deltas.chunk_by(|x, y| (x.0, x.1) == (y.0, y.1)) {
            let (row, col, add) = group[group.len() - 1];
            match (present(row, col), add) {
                (true, false) => patch.removed.push((row, col)),
                (false, true) => patch.added.push((row, col)),
                _ => {}
            }
        }
        if n > n_old {
            reserve_room(&mut self.row_ptr, n - n_old);
            self.row_ptr.resize(n + 1, self.col_idx.len());
            self.num_nodes = n;
        }
        self.splice(&patch.removed, &patch.added);
        Ok(patch)
    }

    /// Undoes `patch`, the last [`CsrGraph::patch_edges`] still applied
    /// to this graph: its entries and row offsets are again what they
    /// were before it (its spare room may have grown).
    pub fn undo_patch(&mut self, patch: &EdgePatch) {
        self.splice(&patch.added, &patch.removed);
        // The rows the patch appended hold nothing now.
        self.row_ptr.truncate(patch.num_nodes + 1);
        self.num_nodes = patch.num_nodes;
    }

    /// Takes the directed entries `remove` out and puts `add` in, each
    /// list ascending: every entry of `remove` is present, and every
    /// entry of `add` is absent once `remove` is out.
    fn splice(&mut self, remove: &[(u32, u32)], add: &[(u32, u32)]) {
        let Self { row_ptr, col_idx, .. } = self;
        if let Some(&(first, _)) = remove.first() {
            // Forward: each block between two removed entries moves down
            // by the number taken out in front of it.
            let (mut read, mut write) = (row_ptr[first as usize], row_ptr[first as usize]);
            for &(row, col) in remove {
                let end = row_ptr[row as usize + 1];
                let from = read.max(row_ptr[row as usize]);
                let at = from + col_idx[from..end].partition_point(|&c| c < col);
                debug_assert_eq!(col_idx[at], col, "a removed entry is present");
                col_idx.copy_within(read..at, write);
                write += at - read;
                read = at + 1;
            }
            let len = col_idx.len();
            col_idx.copy_within(read..len, write);
            col_idx.truncate(write + len - read);
            shift_rows(row_ptr, remove, |p, by| *p -= by);
        }
        if !add.is_empty() {
            // Backward: each block between two added entries moves up by
            // the number still to be put in front of it.
            reserve_room(col_idx, add.len());
            let mut end = col_idx.len();
            col_idx.resize(end + add.len(), 0);
            for (left, &(row, col)) in (1..=add.len()).rev().zip(add.iter().rev()) {
                let start = row_ptr[row as usize];
                let stop = row_ptr[row as usize + 1].min(end);
                let at = start + col_idx[start..stop].partition_point(|&c| c < col);
                debug_assert!(col_idx[at..stop].first() != Some(&col), "an added entry is absent");
                col_idx.copy_within(at..end, at + left);
                col_idx[at + left - 1] = col;
                end = at;
            }
            shift_rows(row_ptr, add, |p, by| *p += by);
        }
        debug_assert!(check_row_ptr(self.num_nodes, &self.row_ptr, self.col_idx.len()).is_ok());
        debug_assert!(rows_ascending_in_range(self.num_nodes, &self.row_ptr, &self.col_idx));
    }

    /// Raw CSR row-pointer array (length `num_nodes + 1`).
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Raw CSR column-index array.
    pub fn col_idx(&self) -> &[u32] {
        &self.col_idx
    }
}

impl std::fmt::Debug for CsrGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CsrGraph")
            .field("num_nodes", &self.num_nodes)
            .field("num_directed_edges", &self.col_idx.len())
            .finish()
    }
}

/// Iterator over the directed edges of a [`CsrGraph`], produced by
/// [`CsrGraph::iter_edges`].
#[derive(Debug, Clone)]
pub struct EdgeIter<'a> {
    graph: &'a CsrGraph,
    row: usize,
    pos: usize,
}

impl Iterator for EdgeIter<'_> {
    type Item = (NodeId, NodeId);

    fn next(&mut self) -> Option<Self::Item> {
        while self.row < self.graph.num_nodes {
            if self.pos < self.graph.row_ptr[self.row + 1] {
                let v = self.graph.col_idx[self.pos];
                let u = self.row as u32;
                self.pos += 1;
                return Some((NodeId::new(u), NodeId::new(v)));
            }
            self.row += 1;
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.graph.col_idx.len() - self.pos;
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for EdgeIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn path4() -> CsrGraph {
        CsrGraph::from_undirected_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap()
    }

    #[test]
    fn from_undirected_builds_symmetric() {
        let g = path4();
        assert!(g.is_symmetric());
        assert_eq!(g.num_directed_edges(), 6);
        assert_eq!(g.num_undirected_edges(), 3);
    }

    #[test]
    fn neighbors_are_sorted_and_deduped() {
        let g = CsrGraph::from_directed_edges(3, &[(0, 2), (0, 1), (0, 2), (0, 1)]).unwrap();
        assert_eq!(g.neighbors(NodeId::new(0)), &[1, 2]);
        assert_eq!(g.degree(NodeId::new(0)), 2);
    }

    #[test]
    fn out_of_bounds_edge_rejected() {
        let err = CsrGraph::from_directed_edges(2, &[(0, 5)]).unwrap_err();
        assert_eq!(err, GraphError::NodeOutOfBounds { node: 5, num_nodes: 2 });
    }

    #[test]
    fn has_edge_binary_search() {
        let g = path4();
        assert!(g.has_edge(NodeId::new(0), NodeId::new(1)));
        assert!(!g.has_edge(NodeId::new(0), NodeId::new(3)));
    }

    #[test]
    fn self_loops_counted_once() {
        let g = CsrGraph::from_undirected_edges(3, &[(0, 0), (0, 1)]).unwrap();
        assert_eq!(g.count_self_loops(), 1);
        assert_eq!(g.num_undirected_edges(), 2);
        assert_eq!(g.num_directed_edges(), 3);
    }

    #[test]
    fn transpose_of_asymmetric() {
        let g = CsrGraph::from_directed_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let t = g.transpose();
        assert!(t.has_edge(NodeId::new(1), NodeId::new(0)));
        assert!(t.has_edge(NodeId::new(2), NodeId::new(1)));
        assert!(!t.has_edge(NodeId::new(0), NodeId::new(1)));
    }

    #[test]
    fn symmetrize_adds_reverses() {
        let g = CsrGraph::from_directed_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let s = g.symmetrize();
        assert!(s.is_symmetric());
        assert_eq!(s.num_directed_edges(), 4);
    }

    #[test]
    fn permute_relabels_consistently() {
        let g = path4();
        // Reverse order: 0<->3, 1<->2.
        let p = Permutation::from_forward(vec![3, 2, 1, 0]).unwrap();
        let h = g.permute(&p).unwrap();
        assert!(h.has_edge(NodeId::new(3), NodeId::new(2)));
        assert!(h.has_edge(NodeId::new(1), NodeId::new(0)));
        assert_eq!(h.num_directed_edges(), g.num_directed_edges());
    }

    #[test]
    fn permute_equals_the_edge_list_construction() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // What `permute` replaced, kept as its reference: rename every
        // edge, rebuild from the global list.
        let by_edge_list = |g: &CsrGraph, p: &Permutation| {
            let edges: Vec<(u32, u32)> =
                g.iter_edges().map(|(u, v)| (p.map(u).value(), p.map(v).value())).collect();
            CsrGraph::from_directed_edges(g.num_nodes(), &edges).unwrap()
        };
        let mut rng = StdRng::seed_from_u64(0x9e37);
        for n in [1usize, 2, 7, 40, 150] {
            // Directed, self-loops allowed, and the last fifth of the
            // nodes isolated (neither source nor target).
            let live = (n * 4 / 5).max(1) as u32;
            let edges: Vec<(u32, u32)> =
                (0..3 * n).map(|_| (rng.gen_range(0..live), rng.gen_range(0..live))).collect();
            let g = CsrGraph::from_directed_edges(n, &edges).unwrap();
            let mut perms = vec![
                Permutation::identity(n),
                Permutation::from_forward((0..n as u32).rev().collect()).unwrap(),
            ];
            for _ in 0..4 {
                let mut forward: Vec<u32> = (0..n as u32).collect();
                for i in (1..n).rev() {
                    forward.swap(i, rng.gen_range(0..=i));
                }
                perms.push(Permutation::from_forward(forward).unwrap());
            }
            for p in &perms {
                let h = g.permute(p).unwrap();
                assert_eq!(h, by_edge_list(&g, p), "n={n} {p:?}");
                assert_eq!(h.permute(&p.inverse()).unwrap(), g, "n={n} {p:?}: round trip");
            }
        }
        let empty = CsrGraph::from_directed_edges(0, &[]).unwrap();
        assert_eq!(empty.permute(&Permutation::identity(0)).unwrap(), empty);
    }

    #[test]
    fn permute_wrong_size_rejected() {
        let g = path4();
        for len in [0, 3, 5] {
            let p = Permutation::identity(len);
            assert!(matches!(g.permute(&p), Err(GraphError::InvalidPermutation { .. })), "{len}");
        }
    }

    #[test]
    fn edge_iter_covers_all_entries() {
        let g = path4();
        let edges: Vec<_> = g.iter_edges().collect();
        assert_eq!(edges.len(), g.num_directed_edges());
        assert_eq!(edges[0], (NodeId::new(0), NodeId::new(1)));
        let iter = g.iter_edges();
        assert_eq!(iter.len(), 6);
    }

    #[test]
    fn from_raw_parts_validates() {
        assert!(CsrGraph::from_raw_parts(2, vec![0, 1, 2], vec![1, 0]).is_ok());
        assert!(CsrGraph::from_raw_parts(2, vec![0, 2], vec![1, 0]).is_err());
        assert!(CsrGraph::from_raw_parts(2, vec![0, 1, 1], vec![1, 0]).is_err());
        assert!(CsrGraph::from_raw_parts(2, vec![0, 2, 1], vec![1, 0]).is_err());
        assert!(CsrGraph::from_raw_parts(2, vec![0, 1, 2], vec![1, 9]).is_err());
    }

    #[test]
    fn from_raw_parts_sorts_unsorted_rows_and_rejects_repeats() {
        let g = CsrGraph::from_raw_parts(3, vec![0, 3, 4, 5], vec![2, 0, 1, 0, 0]).unwrap();
        assert_eq!(g.neighbors(NodeId::new(0)), &[0, 1, 2]);
        // A repeated neighbor is an error whether or not the row is sorted.
        for cols in [vec![1, 1, 2, 0, 0], vec![1, 2, 1, 0, 0]] {
            let err = CsrGraph::from_raw_parts(3, vec![0, 3, 4, 5], cols).unwrap_err();
            assert_eq!(err, GraphError::DuplicateEdge { from: 0, to: 1 });
        }
        // The out-of-range entry need not be the row's last as given.
        let err = CsrGraph::from_raw_parts(3, vec![0, 2, 2, 2], vec![7, 1]).unwrap_err();
        assert_eq!(err, GraphError::NodeOutOfBounds { node: 7, num_nodes: 3 });
    }

    #[test]
    fn the_whole_array_check_agrees_with_the_row_walk() {
        // Descents across a row start (also behind empty rows) are not
        // descents inside a row; one inside a row, a repeat, or an entry
        // out of range is, and each sends the graph to the row walk.
        let fast = |n, ptr: &[usize], cols: &[u32]| rows_ascending_in_range(n, ptr, cols);
        assert!(fast(3, &[0, 1, 1, 3], &[2, 0, 1]));
        assert!(fast(3, &[0, 2, 2, 2], &[1, 2]));
        assert!(fast(1, &[0, 0], &[]));
        assert!(!fast(3, &[0, 3, 3, 3], &[2, 0, 1]), "descent inside a row");
        assert!(!fast(3, &[0, 2, 2, 3], &[1, 1, 0]), "repeat inside a row");
        assert!(!fast(3, &[0, 1, 1, 3], &[2, 0, 3]), "out of range");
        assert!(!fast(3, &[0, 2, 3, 3], &[0, 3, 1]), "out of range mid-array");
        // Every graph this crate builds passes, and reads back the same.
        let g =
            CsrGraph::from_undirected_edges(6, &[(0, 3), (1, 2), (2, 5), (3, 4), (0, 5)]).unwrap();
        assert!(fast(g.num_nodes(), g.row_ptr(), g.col_idx()));
        let again = CsrGraph::from_raw_parts(6, g.row_ptr().to_vec(), g.col_idx().to_vec());
        assert_eq!(again.unwrap(), g);
    }

    #[test]
    fn empty_graph_degenerate_stats() {
        let g = CsrGraph::from_directed_edges(0, &[]).unwrap();
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.avg_degree(), 0.0);
        assert_eq!(g.density(), 0.0);
        assert!(g.is_symmetric());
    }

    /// The patch's specification: rebuild from the explicit edge list
    /// (old edges minus removals, plus additions), validations first.
    fn rebuilt(
        g: &CsrGraph,
        num_nodes: usize,
        added: &[(u32, u32)],
        removed: &[(u32, u32)],
    ) -> Result<CsrGraph, GraphError> {
        let n = num_nodes.max(g.num_nodes());
        for &(a, b) in removed {
            let present = (a as usize) < g.num_nodes()
                && (b as usize) < g.num_nodes()
                && g.has_edge(NodeId::new(a), NodeId::new(b));
            if !present {
                return Err(GraphError::MissingEdge { from: a, to: b });
            }
        }
        let dropped = |u: u32, v: u32| removed.contains(&(u, v)) || removed.contains(&(v, u));
        let mut edges: Vec<(u32, u32)> = g
            .iter_edges()
            .map(|(u, v)| (u.value(), v.value()))
            .filter(|&(u, v)| !dropped(u, v))
            .collect();
        for &(a, b) in added {
            if a as usize >= n || b as usize >= n {
                return Err(GraphError::NodeOutOfBounds { node: a.max(b), num_nodes: n });
            }
            edges.extend([(a, b), (b, a)]);
        }
        CsrGraph::from_directed_edges(n, &edges)
    }

    /// Patches `g` in place, checks the result against the rebuild from
    /// the edge set and against [`CsrGraph::with_edge_changes`], then
    /// undoes the patch and checks the bytes are `g`'s again. Returns
    /// the patched graph (`g` if the patch is refused).
    fn assert_patch_matches_rebuild(
        g: &CsrGraph,
        num_nodes: usize,
        added: &[(u32, u32)],
        removed: &[(u32, u32)],
    ) -> CsrGraph {
        // An exact-capacity input: the first addition must make room.
        let mut patched =
            CsrGraph::from_raw_parts(g.num_nodes(), g.row_ptr().to_vec(), g.col_idx().to_vec())
                .unwrap();
        let expected = rebuilt(g, num_nodes, added, removed);
        let patch = match patched.patch_edges(num_nodes, added, removed) {
            Ok(patch) => patch,
            Err(e) => {
                assert_eq!(Err(e), expected, "+{added:?} -{removed:?}");
                assert_eq!(&patched, g, "a refused patch changes nothing");
                return patched;
            }
        };
        assert_eq!(Ok(&patched), expected.as_ref(), "+{added:?} -{removed:?}");
        assert_eq!(g.with_edge_changes(num_nodes, added, removed).as_ref(), Ok(&patched));
        // The room a patch leaves: what removals freed, plus at most the
        // additions and 1/64 of the entries.
        let slack = patched.col_idx.capacity() - patched.col_idx.len();
        let deltas = 2 * (added.len() + removed.len());
        assert!(slack <= deltas + (g.col_idx.len() + deltas) / 64, "bounded room");
        let mut undone = patched.clone();
        undone.undo_patch(&patch);
        let bytes = |g: &CsrGraph| (g.num_nodes, g.row_ptr.clone(), g.col_idx.clone());
        assert_eq!(bytes(&undone), bytes(g), "the undo restores the bytes");
        patched
    }

    /// 0–1–2–3 path plus the chord 0–2 and an isolated node 4.
    fn patch_base() -> CsrGraph {
        CsrGraph::from_undirected_edges(5, &[(0, 1), (1, 2), (2, 3), (0, 2)]).unwrap()
    }

    #[test]
    fn patch_with_empty_batch_is_identity() {
        let g = patch_base();
        assert_eq!(g.with_edge_changes(g.num_nodes(), &[], &[]).unwrap(), g);
        // A node count below the current one never shrinks the graph.
        assert_eq!(g.with_edge_changes(0, &[], &[]).unwrap(), g);
    }

    #[test]
    fn patch_edge_in_both_batches_ends_up_present() {
        let g = patch_base();
        let out = assert_patch_matches_rebuild(&g, 5, &[(1, 0)], &[(0, 1)]);
        assert_eq!(out, g);
        // Also for an edge that was absent only from the added side's view.
        let out = assert_patch_matches_rebuild(&g, 5, &[(3, 4), (0, 1)], &[(1, 0), (2, 3)]);
        assert!(out.has_edge(NodeId::new(0), NodeId::new(1)));
        assert!(!out.has_edge(NodeId::new(2), NodeId::new(3)));
    }

    #[test]
    fn patch_tolerates_duplicates_and_existing_edges() {
        let g = patch_base();
        // Duplicate adds (both orientations), an add that already exists,
        // and the same edge removed twice.
        let out = assert_patch_matches_rebuild(
            &g,
            5,
            &[(3, 4), (4, 3), (3, 4), (0, 1), (1, 3)],
            &[(0, 2), (2, 0), (0, 2)],
        );
        assert_eq!(out.neighbors(NodeId::new(3)), &[1, 2, 4]);
        assert_eq!(out.neighbors(NodeId::new(0)), &[1]);
        assert!(out.is_symmetric());
    }

    #[test]
    fn patch_appends_isolated_and_wired_nodes() {
        let g = patch_base();
        let out = assert_patch_matches_rebuild(&g, 9, &[(6, 0), (6, 8), (5, 5)], &[]);
        assert_eq!(out.num_nodes(), 9);
        assert_eq!(out.degree(NodeId::new(7)), 0, "node 7 arrives isolated");
        assert_eq!(out.neighbors(NodeId::new(6)), &[0, 8]);
        assert_eq!(out.neighbors(NodeId::new(5)), &[5], "a self-loop is stored once");
        // Growth alone: every new row is empty.
        let grown = assert_patch_matches_rebuild(&g, 7, &[], &[]);
        assert_eq!(grown.num_directed_edges(), g.num_directed_edges());
    }

    #[test]
    fn patch_rejects_missing_and_out_of_range_edges() {
        let g = patch_base();
        for removed in [[(0u32, 3u32)], [(0, 4)], [(0, 5)], [(7, 0)]] {
            // Ids at or beyond the old node count are missing edges even
            // when the same call grows the graph past them.
            let err = g.with_edge_changes(9, &[(5, 6)], &removed).unwrap_err();
            assert_eq!(err, GraphError::MissingEdge { from: removed[0].0, to: removed[0].1 });
            assert_eq!(rebuilt(&g, 9, &[(5, 6)], &removed), Err(err));
        }
        let err = g.with_edge_changes(6, &[(0, 3), (2, 6)], &[]).unwrap_err();
        assert_eq!(err, GraphError::NodeOutOfBounds { node: 6, num_nodes: 6 });
        // Removals are validated before additions.
        let err = g.with_edge_changes(5, &[(0, 99)], &[(3, 4)]).unwrap_err();
        assert_eq!(err, GraphError::MissingEdge { from: 3, to: 4 });
    }

    #[test]
    fn patch_matches_rebuild_on_random_batches() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(17);
        let mut g = crate::generate::erdos_renyi(60, 150, 3);
        for step in 0..200 {
            let n = g.num_nodes() as u32;
            let grow = if step % 7 == 0 { rng.gen_range(0..3u32) } else { 0 };
            let n_new = n + grow;
            let pair = |rng: &mut StdRng, n: u32| (rng.gen_range(0..n), rng.gen_range(0..n));
            let added: Vec<(u32, u32)> =
                (0..rng.gen_range(0..6usize)).map(|_| pair(&mut rng, n_new)).collect();
            let existing: Vec<(u32, u32)> =
                g.iter_edges().map(|(u, v)| (u.value(), v.value())).collect();
            let removed: Vec<(u32, u32)> = (0..rng.gen_range(0..4usize))
                .map(|_| existing[rng.gen_range(0..existing.len())])
                .collect();
            g = assert_patch_matches_rebuild(&g, n_new as usize, &added, &removed);
            assert!(g.is_symmetric());
        }
    }

    #[test]
    fn in_place_patch_equals_rebuild_and_undoes_exactly() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // Every patch test goes through the same check (the named cases
        // — duplicates, a present edge added, a pair removed and added,
        // growth — are the tests above); this one patches exact-capacity
        // graphs of every size record after record, with refusals.
        let mut rng = StdRng::seed_from_u64(0x5eed);
        for trial in 0..300 {
            let n = rng.gen_range(1..40u32);
            let m = rng.gen_range(0..(n as usize * 3));
            let mut g = crate::generate::erdos_renyi(n as usize, m, trial);
            // Patch the same graph a few records in a row, as a batch does.
            for _ in 0..3 {
                let n = g.num_nodes() as u32;
                let n_new = n + if rng.gen_bool(0.2) { rng.gen_range(0..3u32) } else { 0 };
                let pair = |rng: &mut StdRng, n: u32| (rng.gen_range(0..n), rng.gen_range(0..n));
                let existing: Vec<(u32, u32)> =
                    g.iter_edges().map(|(u, v)| (u.value(), v.value())).collect();
                let mut removed: Vec<(u32, u32)> = Vec::new();
                if !existing.is_empty() {
                    for _ in 0..rng.gen_range(0..5usize) {
                        removed.push(existing[rng.gen_range(0..existing.len())]);
                    }
                }
                let mut added: Vec<(u32, u32)> =
                    (0..rng.gen_range(0..6usize)).map(|_| pair(&mut rng, n_new)).collect();
                // Re-add a removed pair or a present edge now and then.
                if let (Some(&e), true) = (removed.first(), rng.gen_bool(0.3)) {
                    added.push(e);
                }
                if let (false, true) = (existing.is_empty(), rng.gen_bool(0.3)) {
                    added.push(existing[rng.gen_range(0..existing.len())]);
                }
                if rng.gen_bool(0.05) {
                    removed.push(pair(&mut rng, n_new)); // usually missing
                }
                g = assert_patch_matches_rebuild(&g, n_new as usize, &added, &removed);
            }
        }
    }

    #[test]
    fn debug_is_nonempty() {
        let s = format!("{:?}", path4());
        assert!(s.contains("CsrGraph"));
        assert!(s.contains("num_nodes"));
    }
}
