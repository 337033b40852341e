//! Graph statistics and density ("spy plot") grids.

use serde::{Deserialize, Serialize};

use crate::csr::CsrGraph;
use crate::node::NodeId;
use crate::permutation::Permutation;

/// A coarse `grid x grid` non-zero density map of the adjacency matrix
/// under an optional node ordering — the data behind the paper's Figure 9
/// and Figure 13 spy plots.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DensityGrid {
    grid: usize,
    counts: Vec<u64>,
    num_nodes: usize,
    total_nnz: u64,
}

impl DensityGrid {
    /// Computes the density grid of `graph` with node `ordering` applied
    /// (`None` = natural order).
    ///
    /// # Panics
    ///
    /// Panics if `grid == 0` or the ordering length mismatches.
    pub fn compute(graph: &CsrGraph, ordering: Option<&Permutation>, grid: usize) -> Self {
        assert!(grid > 0, "grid must be positive");
        if let Some(p) = ordering {
            assert_eq!(p.len(), graph.num_nodes(), "ordering length mismatch");
        }
        let n = graph.num_nodes().max(1);
        let mut counts = vec![0u64; grid * grid];
        let map = |v: NodeId| -> usize {
            let idx = match ordering {
                Some(p) => p.map(v).index(),
                None => v.index(),
            };
            (idx * grid) / n
        };
        let mut total = 0u64;
        for (u, v) in graph.iter_edges() {
            let r = map(u).min(grid - 1);
            let c = map(v).min(grid - 1);
            counts[r * grid + c] += 1;
            total += 1;
        }
        DensityGrid { grid, counts, num_nodes: graph.num_nodes(), total_nnz: total }
    }

    /// Grid dimension.
    pub fn grid(&self) -> usize {
        self.grid
    }

    /// Non-zero count in cell `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn cell(&self, row: usize, col: usize) -> u64 {
        assert!(row < self.grid && col < self.grid, "cell out of range");
        self.counts[row * self.grid + col]
    }

    /// Total non-zeros.
    pub fn total_nnz(&self) -> u64 {
        self.total_nnz
    }

    /// Fraction of non-zeros that lie within `band` cells of the diagonal.
    pub fn diagonal_band_fraction(&self, band: usize) -> f64 {
        if self.total_nnz == 0 {
            return 1.0;
        }
        let mut in_band = 0u64;
        for r in 0..self.grid {
            for c in 0..self.grid {
                if r.abs_diff(c) <= band {
                    in_band += self.counts[r * self.grid + c];
                }
            }
        }
        in_band as f64 / self.total_nnz as f64
    }

    /// Renders the grid as ASCII art (denser cells → darker glyphs), for
    /// terminal spy plots.
    pub fn to_ascii(&self) -> String {
        const SHADES: &[u8] = b" .:-=+*#%@";
        let max = self.counts.iter().copied().max().unwrap_or(0).max(1) as f64;
        let mut out = String::with_capacity(self.grid * (self.grid + 1));
        for r in 0..self.grid {
            for c in 0..self.grid {
                let v = self.counts[r * self.grid + c] as f64;
                let shade = if v == 0.0 {
                    0
                } else {
                    // Log scale keeps sparse cells visible.
                    let t = (1.0 + v).ln() / (1.0 + max).ln();
                    ((t * (SHADES.len() - 1) as f64).ceil() as usize).min(SHADES.len() - 1)
                };
                out.push(SHADES[shade] as char);
            }
            out.push('\n');
        }
        out
    }

    /// Renders the grid as a binary PPM (P6) grayscale image for external
    /// viewing; cell intensity is log-scaled density.
    pub fn to_ppm(&self) -> Vec<u8> {
        let max = self.counts.iter().copied().max().unwrap_or(0).max(1) as f64;
        let mut out = format!("P6\n{} {}\n255\n", self.grid, self.grid).into_bytes();
        for &c in &self.counts {
            let v = c as f64;
            let t = if v == 0.0 { 0.0 } else { (1.0 + v).ln() / (1.0 + max).ln() };
            let px = 255 - (t * 255.0) as u8;
            out.extend_from_slice(&[px, px, px]);
        }
        out
    }
}

/// Average graph distance of each edge under an ordering:
/// `mean(|pos(u) - pos(v)|)` over all edges. Reordering algorithms aim to
/// minimise it; it is the scalar behind Figure 13's qualitative comparison.
pub fn mean_edge_span(graph: &CsrGraph, ordering: Option<&Permutation>) -> f64 {
    let mut total = 0u64;
    let mut count = 0u64;
    for (u, v) in graph.iter_edges() {
        let (pu, pv) = match ordering {
            Some(p) => (p.map(u).index(), p.map(v).index()),
            None => (u.index(), v.index()),
        };
        total += pu.abs_diff(pv) as u64;
        count += 1;
    }
    if count == 0 {
        0.0
    } else {
        total as f64 / count as f64
    }
}

/// Newman modularity of a labelled partition of the nodes (labels need not
/// be contiguous; `u32::MAX` is treated as its own label per node —
/// convenient for hub ground truth).
pub fn modularity(graph: &CsrGraph, labels: &[u32]) -> f64 {
    assert_eq!(labels.len(), graph.num_nodes(), "label length mismatch");
    let m2 = graph.num_directed_edges() as f64; // = 2m for symmetric graphs
    if m2 == 0.0 {
        return 0.0;
    }
    use std::collections::HashMap;
    let mut internal: HashMap<u64, f64> = HashMap::new();
    let mut degree_sum: HashMap<u64, f64> = HashMap::new();
    let label_of = |v: NodeId| -> u64 {
        let l = labels[v.index()];
        if l == u32::MAX {
            // Unique label per unlabeled node.
            (1u64 << 32) | v.index() as u64
        } else {
            l as u64
        }
    };
    for (u, v) in graph.iter_edges() {
        let lu = label_of(u);
        if lu == label_of(v) {
            *internal.entry(lu).or_default() += 1.0;
        }
    }
    for v in graph.iter_nodes() {
        *degree_sum.entry(label_of(v)).or_default() += graph.degree(v) as f64;
    }
    let mut q = 0.0;
    for (label, din) in &internal {
        let d = degree_sum.get(label).copied().unwrap_or(0.0);
        q += din / m2 - (d / m2) * (d / m2);
    }
    // Communities with no internal edges still contribute their -(d/2m)^2.
    for (label, d) in &degree_sum {
        if !internal.contains_key(label) {
            q -= (d / m2) * (d / m2);
        }
    }
    q
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{erdos_renyi, HubIslandConfig};

    fn star(n: usize) -> CsrGraph {
        let edges: Vec<(u32, u32)> = (1..n as u32).map(|v| (0, v)).collect();
        CsrGraph::from_undirected_edges(n, &edges).unwrap()
    }

    #[test]
    fn density_grid_totals_match() {
        let g = erdos_renyi(100, 250, 3);
        let grid = DensityGrid::compute(&g, None, 16);
        assert_eq!(grid.total_nnz() as usize, g.num_directed_edges());
        let sum: u64 =
            (0..16).flat_map(|r| (0..16).map(move |c| (r, c))).map(|(r, c)| grid.cell(r, c)).sum();
        assert_eq!(sum, grid.total_nnz());
    }

    #[test]
    fn density_grid_band_fraction_bounds() {
        let g = erdos_renyi(100, 250, 3);
        let grid = DensityGrid::compute(&g, None, 16);
        let f0 = grid.diagonal_band_fraction(0);
        let fall = grid.diagonal_band_fraction(16);
        assert!(f0 <= fall);
        assert!((fall - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ascii_render_dimensions() {
        let g = star(20);
        let grid = DensityGrid::compute(&g, None, 8);
        let art = grid.to_ascii();
        assert_eq!(art.lines().count(), 8);
        assert!(art.lines().all(|l| l.chars().count() == 8));
    }

    #[test]
    fn ppm_header_and_size() {
        let g = star(20);
        let grid = DensityGrid::compute(&g, None, 4);
        let ppm = grid.to_ppm();
        assert!(ppm.starts_with(b"P6\n4 4\n255\n"));
        assert_eq!(ppm.len(), b"P6\n4 4\n255\n".len() + 4 * 4 * 3);
    }

    #[test]
    fn mean_edge_span_identity_vs_reorder() {
        // Path graph in natural order has span 1.
        let g =
            CsrGraph::from_undirected_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]).unwrap();
        assert!((mean_edge_span(&g, None) - 1.0).abs() < 1e-12);
        // Scrambling increases it.
        let p = Permutation::from_forward(vec![0, 5, 1, 4, 2, 3]).unwrap();
        assert!(mean_edge_span(&g, Some(&p)) > 1.0);
    }

    #[test]
    fn modularity_of_planted_structure_is_positive() {
        let g = HubIslandConfig::new(400, 12).noise_fraction(0.0).generate(8);
        let q = modularity(&g.graph, &g.membership);
        assert!(q > 0.2, "planted structure should have high modularity, got {q}");
    }

    #[test]
    fn modularity_of_single_community_is_zero() {
        let g = erdos_renyi(50, 100, 1);
        let labels = vec![0u32; 50];
        let q = modularity(&g, &labels);
        assert!(q.abs() < 1e-9, "single community modularity should be 0, got {q}");
    }
}
