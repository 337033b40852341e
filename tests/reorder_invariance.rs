//! Deterministic sweep tests of the reordering baselines: every
//! algorithm produces a valid permutation, and GCN inference commutes
//! with node relabelling (reordering changes layout, never results).

use igcn::gnn::{reference_forward, GnnModel, ModelWeights};
use igcn::graph::generate::{barabasi_albert, HubIslandConfig};
use igcn::graph::{CsrGraph, NodeId, SparseFeatures};
use igcn::reorder::{figure12_baselines, Identity, RandomOrder, Reorderer};

fn all_reorderers() -> Vec<Box<dyn Reorderer>> {
    let mut v = figure12_baselines();
    v.push(Box::new(Identity));
    v.push(Box::new(RandomOrder::default()));
    v
}

fn graph_zoo() -> Vec<CsrGraph> {
    let mut graphs = Vec::new();
    for seed in [3u64, 88, 412] {
        graphs.push(barabasi_albert(70, 2, seed));
        graphs.push(barabasi_albert(130, 3, seed + 1));
        graphs.push(HubIslandConfig::new(110, 6).generate(seed + 2).graph);
        graphs.push(HubIslandConfig::new(180, 9).generate(seed + 3).graph);
    }
    graphs
}

#[test]
fn every_reorderer_emits_a_valid_permutation() {
    for graph in graph_zoo() {
        for r in all_reorderers() {
            let p = r.reorder(&graph);
            assert_eq!(p.len(), graph.num_nodes(), "{} wrong length", r.name());
            // Permutation validity is enforced by construction; composing
            // with the inverse must give the identity.
            assert!(p.then(&p.inverse()).is_identity(), "{} not bijective", r.name());
        }
    }
}

#[test]
fn reordering_preserves_graph_shape() {
    for graph in graph_zoo() {
        for r in all_reorderers() {
            let p = r.reorder(&graph);
            let permuted = graph.permute(&p).expect("valid permutation");
            assert_eq!(permuted.num_nodes(), graph.num_nodes());
            assert_eq!(permuted.num_directed_edges(), graph.num_directed_edges());
            assert!(permuted.is_symmetric());
        }
    }
}

#[test]
fn inference_commutes_with_relabelling() {
    // Permute graph + features, run the reference, un-permute: must equal
    // the reference on the original layout.
    let g = HubIslandConfig::new(120, 6).generate(9).graph;
    let x = SparseFeatures::random(120, 8, 0.4, 2);
    let model = GnnModel::gcn(8, 5, 3);
    let w = ModelWeights::glorot(&model, 4);
    let base = reference_forward(&g, &x, &model, &w);

    for r in all_reorderers() {
        let p = r.reorder(&g);
        let pg = g.permute(&p).unwrap();
        let rows: Vec<Vec<(u32, f32)>> = {
            let inv = p.inverse();
            (0..120u32)
                .map(|new| {
                    let old = inv.map(NodeId::new(new));
                    let (cols, vals) = x.row(old);
                    cols.iter().zip(vals).map(|(&c, &v)| (c, v)).collect()
                })
                .collect()
        };
        let px = SparseFeatures::from_rows(120, 8, rows);
        let out = reference_forward(&pg, &px, &model, &w);
        for old in 0..120usize {
            let new = p.map(NodeId::new(old as u32)).index();
            for c in 0..3 {
                let a = base.get(old, c);
                let b = out.get(new, c);
                assert!((a - b).abs() < 1e-4, "{}: node {old} col {c}: {a} vs {b}", r.name());
            }
        }
    }
}
