//! Named stand-ins for the five evaluation datasets.
//!
//! The paper evaluates on Cora, Citeseer, Pubmed, NELL and Reddit. The raw
//! datasets are not redistributable here, so each dataset is represented by
//! a [`DatasetSpec`] carrying the published statistics and a deterministic
//! synthetic generator ([`Dataset::generate`]) that matches them:
//!
//! | dataset  | nodes   | undirected edges | features | classes | community strength |
//! |----------|---------|------------------|----------|---------|--------------------|
//! | Cora     | 2 708   | 5 429            | 1 433    | 7       | strong             |
//! | Citeseer | 3 327   | 4 732            | 3 703    | 6       | strong             |
//! | Pubmed   | 19 717  | 44 338           | 500      | 3       | strong             |
//! | NELL     | 65 755  | 266 144          | 61 278   | 186     | very strong        |
//! | Reddit   | 232 965 | ~57 M            | 602      | 41      | weak               |
//!
//! "Community strength" is expressed through the noise fraction of the
//! hub-and-island generator: NELL has the most significant component
//! structure (per §4.2 of the paper), Reddit the least (per §4.6, which is
//! why I-GCN's speedup over AWB-GCN is smallest there).

use serde::{Deserialize, Serialize};

use crate::csr::CsrGraph;
use crate::features::SparseFeatures;
use crate::generate::HubIslandConfig;

/// The five evaluation datasets of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Dataset {
    /// Cora citation network (2,708 papers).
    Cora,
    /// Citeseer citation network (3,327 papers).
    Citeseer,
    /// Pubmed citation network (19,717 papers).
    Pubmed,
    /// NELL knowledge graph (65,755 entities), extremely sparse.
    Nell,
    /// Reddit post-to-post graph (232,965 posts), dense and weakly
    /// clustered.
    Reddit,
}

impl Dataset {
    /// All five datasets in the order the paper reports them.
    pub const ALL: [Dataset; 5] =
        [Dataset::Cora, Dataset::Citeseer, Dataset::Pubmed, Dataset::Nell, Dataset::Reddit];

    /// The published statistics and generator parameters for this dataset.
    pub fn spec(self) -> DatasetSpec {
        match self {
            Dataset::Cora => DatasetSpec {
                name: "Cora",
                num_nodes: 2_708,
                num_undirected_edges: 5_429,
                feature_dim: 1_433,
                feature_density: 0.0127,
                num_classes: 7,
                hidden_algo: 16,
                noise_fraction: 0.02,
                island_size_range: (4, 7),
                island_density: 0.95,
                hub_fraction: 0.02,
            },
            Dataset::Citeseer => DatasetSpec {
                name: "Citeseer",
                num_nodes: 3_327,
                num_undirected_edges: 4_732,
                feature_dim: 3_703,
                feature_density: 0.0085,
                num_classes: 6,
                hidden_algo: 16,
                noise_fraction: 0.02,
                island_size_range: (3, 5),
                island_density: 0.95,
                hub_fraction: 0.015,
            },
            Dataset::Pubmed => DatasetSpec {
                name: "Pubmed",
                num_nodes: 19_717,
                num_undirected_edges: 44_338,
                feature_dim: 500,
                feature_density: 0.10,
                num_classes: 3,
                hidden_algo: 16,
                noise_fraction: 0.015,
                island_size_range: (4, 8),
                island_density: 0.9,
                hub_fraction: 0.02,
            },
            Dataset::Nell => DatasetSpec {
                name: "NELL",
                num_nodes: 65_755,
                num_undirected_edges: 266_144,
                feature_dim: 61_278,
                feature_density: 0.0001,
                num_classes: 186,
                hidden_algo: 64,
                noise_fraction: 0.005,
                island_size_range: (4, 10),
                island_density: 0.95,
                hub_fraction: 0.02,
            },
            Dataset::Reddit => DatasetSpec {
                name: "Reddit",
                num_nodes: 232_965,
                num_undirected_edges: 57_307_946,
                feature_dim: 602,
                feature_density: 1.0,
                num_classes: 41,
                hidden_algo: 128,
                noise_fraction: 0.0002,
                island_size_range: (6, 12),
                island_density: 0.85,
                hub_fraction: 0.05,
            },
        }
    }

    /// Short lowercase identifier (e.g. `"cora"`).
    pub fn id(self) -> &'static str {
        match self {
            Dataset::Cora => "cora",
            Dataset::Citeseer => "citeseer",
            Dataset::Pubmed => "pubmed",
            Dataset::Nell => "nell",
            Dataset::Reddit => "reddit",
        }
    }

    /// Generates the full-scale synthetic stand-in (deterministic per
    /// `seed`). Prefer [`Dataset::generate_scaled`] for Reddit in tests and
    /// CI — the full Reddit stand-in has ~57 M edges.
    pub fn generate(self, seed: u64) -> GraphData {
        self.generate_scaled(1.0, seed)
    }

    /// Generates the stand-in at `scale` (0 < scale ≤ 1) of the published
    /// node count, preserving average degree, feature width/sparsity and
    /// community strength.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not in `(0, 1]`.
    pub fn generate_scaled(self, scale: f64, seed: u64) -> GraphData {
        assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1], got {scale}");
        let spec = self.spec();
        let num_nodes = ((spec.num_nodes as f64 * scale).round() as usize).max(16);
        let avg_degree = 2.0 * spec.num_undirected_edges as f64 / spec.num_nodes as f64;
        let num_hubs = ((num_nodes as f64 * spec.hub_fraction).round() as usize).max(2);
        let (lo, hi) = spec.island_size_range;
        // Island interiors are small and dense (the shared-neighbor
        // structure redundancy removal feeds on); the hub attachment
        // budget absorbs the remaining degree toward the published
        // average.
        let generated = HubIslandConfig::new(num_nodes, num_hubs)
            .island_size_range(lo, hi)
            .island_density(spec.island_density)
            .noise_fraction(spec.noise_fraction)
            .target_avg_degree(avg_degree)
            .generate(seed ^ hash_name(spec.name));
        let features = SparseFeatures::random(
            num_nodes,
            spec.feature_dim,
            spec.feature_density,
            seed.wrapping_add(0x5EED) ^ hash_name(spec.name),
        );
        GraphData { dataset: self, scale, graph: generated.graph, features, spec }
    }
}

impl std::fmt::Display for Dataset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.spec().name)
    }
}

fn hash_name(name: &str) -> u64 {
    // FNV-1a, so each dataset draws from an independent stream.
    let mut h: u64 = 0xcbf29ce484222325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Published statistics and generator parameters of a dataset.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct DatasetSpec {
    /// Human-readable name.
    pub name: &'static str,
    /// Published node count.
    pub num_nodes: usize,
    /// Published undirected edge count.
    pub num_undirected_edges: usize,
    /// Input feature width.
    pub feature_dim: usize,
    /// Fraction of non-zero feature entries.
    pub feature_density: f64,
    /// Number of output classes.
    pub num_classes: usize,
    /// Hidden width used by the "algo" model configurations.
    pub hidden_algo: usize,
    /// Fraction of structure-violating edges in the stand-in (community
    /// weakness).
    pub noise_fraction: f64,
    /// Planted island size range.
    pub island_size_range: (usize, usize),
    /// Probability of each intra-island node pair being connected (with
    /// the size range, what sets the measured pruning rate; the Fig 10
    /// cells of `igcn_bench::paper` record where the stand-ins land).
    pub island_density: f64,
    /// Fraction of nodes planted as hubs.
    pub hub_fraction: f64,
}

/// A generated dataset: graph plus node features.
#[derive(Debug, Clone, Serialize)]
pub struct GraphData {
    /// Which dataset this stands in for.
    pub dataset: Dataset,
    /// Node-count scale relative to the published size.
    pub scale: f64,
    /// The symmetric adjacency.
    pub graph: CsrGraph,
    /// Sparse input features.
    pub features: SparseFeatures,
    /// The published statistics this stand-in was generated from.
    pub spec: DatasetSpec,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cora_standinn_matches_published_scale() {
        let d = Dataset::Cora.generate(1);
        assert_eq!(d.graph.num_nodes(), 2_708);
        let avg = d.graph.avg_degree();
        let published_avg = 2.0 * 5_429.0 / 2_708.0;
        assert!(
            (avg - published_avg).abs() / published_avg < 0.5,
            "avg degree {avg} too far from published {published_avg}"
        );
        assert_eq!(d.features.num_cols(), 1_433);
    }

    #[test]
    fn scaled_generation_shrinks_nodes_keeps_degree() {
        let full_avg = 2.0 * 44_338.0 / 19_717.0;
        let d = Dataset::Pubmed.generate_scaled(0.1, 2);
        assert!((d.graph.num_nodes() as f64 - 1_972.0).abs() < 2.0);
        assert!((d.graph.avg_degree() - full_avg).abs() / full_avg < 0.6);
    }

    #[test]
    fn all_small_datasets_generate_symmetric() {
        for ds in [Dataset::Cora, Dataset::Citeseer] {
            let d = ds.generate(3);
            assert!(d.graph.is_symmetric(), "{ds} stand-in asymmetric");
        }
    }

    #[test]
    fn deterministic_per_seed_and_distinct_per_dataset() {
        let a = Dataset::Cora.generate_scaled(0.2, 7);
        let b = Dataset::Cora.generate_scaled(0.2, 7);
        assert_eq!(a.graph, b.graph);
        let c = Dataset::Citeseer.generate_scaled(0.2, 7);
        assert_ne!(a.graph.num_nodes(), c.graph.num_nodes());
    }

    #[test]
    fn display_and_id() {
        assert_eq!(Dataset::Nell.to_string(), "NELL");
        assert_eq!(Dataset::Nell.id(), "nell");
    }

    #[test]
    #[should_panic(expected = "scale must be in (0, 1]")]
    fn zero_scale_panics() {
        let _ = Dataset::Cora.generate_scaled(0.0, 1);
    }

    #[test]
    fn reddit_spec_is_weakly_clustered() {
        // Reddit's weak community structure is expressed through hub
        // domination: the largest hub fraction of the suite, so most
        // edges route hub-member or hub-hub rather than island-internal.
        let reddit = Dataset::Reddit.spec();
        for other in [Dataset::Cora, Dataset::Citeseer, Dataset::Pubmed, Dataset::Nell] {
            assert!(
                reddit.hub_fraction > other.spec().hub_fraction,
                "Reddit must be the most hub-dominated stand-in"
            );
        }
    }
}
