//! Graph substrate for the I-GCN reproduction.
//!
//! This crate provides the graph data structures and synthetic workloads on
//! which the islandization algorithm of
//! *I-GCN: A Graph Convolutional Network Accelerator with Runtime Locality
//! Enhancement through Islandization* (MICRO 2021) operates:
//!
//! * [`CsrGraph`] — compressed-sparse-row adjacency, the format streamed by
//!   the accelerator's Task Generator and TP-BFS engines.
//! * [`generate`] — synthetic graph generators, including the
//!   hub-and-island planted-structure model used as a stand-in for the
//!   paper's real-world datasets.
//! * [`datasets`] — named stand-ins for Cora, Citeseer, Pubmed, NELL and
//!   Reddit, matched to the published statistics (node/edge counts, feature
//!   width and sparsity, community strength).
//! * [`features`] — sparse node-feature matrices.
//! * [`permutation`] — node relabellings used by the reordering baselines.
//! * [`stats`] — degree/community/locality statistics and density grids
//!   ("spy plots") used by the Figure 9/13 harnesses.
//!
//! # Example
//!
//! ```
//! use igcn_graph::datasets::Dataset;
//!
//! let data = Dataset::Cora.generate_scaled(0.25, 7);
//! assert!(data.graph.num_nodes() > 0);
//! assert!(data.graph.is_symmetric());
//! ```

pub mod builder;
pub mod coo;
pub mod csr;
pub mod datasets;
pub mod error;
pub mod features;
pub mod generate;
pub mod io;
pub mod node;
pub mod permutation;
pub mod stats;

pub use builder::GraphBuilder;
pub use coo::CooGraph;
pub use csr::CsrGraph;
pub use error::GraphError;
pub use features::SparseFeatures;
pub use node::NodeId;
pub use permutation::Permutation;
