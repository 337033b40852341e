//! Graph reordering baselines for the Figure 12/13 comparisons.
//!
//! §4.5 of the paper compares I-GCN's online islandization against six
//! traditional *lightweight* reordering algorithms run offline on a
//! 64-thread Xeon: Rabbit, DBG, HubSort, HubCluster, DBG-HubSort and
//! DBG-HubCluster (taxonomy of Faldu et al., IISWC'19; Rabbit from Arai
//! et al., IPDPS'16). This crate reimplements all six in Rust, plus
//! SlashBurn (Lim et al.) and Reverse Cuthill-McKee as supplementary
//! baselines, with:
//!
//! * a common [`Reorderer`] trait producing [`Permutation`]s;
//! * wall-clock timing ([`timing`]) for the Figure 12 latency bars;
//! * locality-quality metrics ([`quality`]) for the Figure 13 clustering
//!   comparison.
//!
//! All reorderings are *valid permutations* and leave GCN inference
//! results invariant up to row relabelling — property-tested in the
//! workspace integration suite.
//!
//! [`Permutation`]: igcn_graph::Permutation

pub mod combined;
pub mod dbg;
pub mod hubcluster;
pub mod hubsort;
pub mod quality;
pub mod rabbit;
pub mod rcm;
pub mod simple;
pub mod slashburn;
pub mod timing;
pub mod traits;

pub use combined::{DbgHubCluster, DbgHubSort};
pub use dbg::Dbg;
pub use hubcluster::HubCluster;
pub use hubsort::HubSort;
pub use rabbit::Rabbit;
pub use rcm::Rcm;
pub use simple::{Identity, RandomOrder};
pub use slashburn::SlashBurn;
pub use traits::Reorderer;

/// The six lightweight baselines of Figure 12, in the paper's order.
pub fn figure12_baselines() -> Vec<Box<dyn Reorderer>> {
    vec![
        Box::new(Rabbit::default()),
        Box::new(Dbg),
        Box::new(HubSort),
        Box::new(HubCluster),
        Box::new(DbgHubSort),
        Box::new(DbgHubCluster),
    ]
}
