//! Seeded edge batches for the update phases. Every batch is added and
//! then removed again, so the graph is back in its base state after
//! each pair and the run is steady however long it lasts.

use igcn::graph::{CsrGraph, NodeId};

/// Edges per update batch.
pub const BATCH_EDGES: usize = 8;

/// SplitMix64: the benchmark's own generator, so its inputs depend on
/// nothing but `--seed`.
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Generates batches of undirected edges that are absent from `base`,
/// loop-free and distinct within the batch (in either orientation).
pub struct BatchGen {
    rng: SplitMix64,
}

impl BatchGen {
    pub fn new(seed: u64) -> Self {
        BatchGen { rng: SplitMix64(seed ^ 0x5EED_BA7C) }
    }

    pub fn next_batch(&mut self, base: &CsrGraph) -> Vec<(u32, u32)> {
        let n = base.num_nodes() as u64;
        let mut batch: Vec<(u32, u32)> = Vec::with_capacity(BATCH_EDGES);
        while batch.len() < BATCH_EDGES {
            let a = (self.rng.next() % n) as u32;
            let b = (self.rng.next() % n) as u32;
            let edge = (a.min(b), a.max(b));
            if a != b && !base.has_edge(NodeId::from(a), NodeId::from(b)) && !batch.contains(&edge)
            {
                batch.push(edge);
            }
        }
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use igcn::core::{GraphUpdate, IGcnEngine};
    use igcn::graph::generate::HubIslandConfig;

    #[test]
    fn batches_are_new_distinct_edges_and_repeat_per_seed() {
        let g = HubIslandConfig::new(300, 12).noise_fraction(0.02).generate(5).graph;
        let mut gen = BatchGen::new(9);
        let mut again = BatchGen::new(9);
        for _ in 0..50 {
            let batch = gen.next_batch(&g);
            assert_eq!(batch, again.next_batch(&g));
            assert_eq!(batch.len(), BATCH_EDGES);
            for (i, &(a, b)) in batch.iter().enumerate() {
                assert!(a < b, "loop-free and canonical");
                assert!(!g.has_edge(a.into(), b.into()) && !g.has_edge(b.into(), a.into()));
                assert!(!batch[..i].contains(&(a, b)), "duplicate edge in batch");
            }
        }
        assert_ne!(BatchGen::new(10).next_batch(&g), BatchGen::new(9).next_batch(&g));
    }

    #[test]
    fn add_then_remove_returns_the_graph_to_base() {
        let g = HubIslandConfig::new(300, 12).noise_fraction(0.02).generate(6).graph;
        let mut engine = IGcnEngine::builder(g.clone()).build().unwrap();
        let mut gen = BatchGen::new(3);
        for _ in 0..6 {
            let batch = gen.next_batch(&g);
            engine.apply_update(GraphUpdate::add_edges(batch.clone())).unwrap();
            assert_ne!(*engine.graph_arc(), g);
            engine.apply_update(GraphUpdate::remove_edges(batch)).unwrap();
            assert_eq!(*engine.graph_arc(), g);
        }
    }
}
