//! The standard five-dataset evaluation suite.

use igcn_core::IGcnEngine;
use igcn_graph::datasets::{Dataset, GraphData};

use crate::args::HarnessArgs;

/// One dataset instance of the evaluation suite.
#[derive(Debug, Clone)]
pub struct DatasetRun {
    /// Which dataset.
    pub dataset: Dataset,
    /// Generated graph + features.
    pub data: GraphData,
    /// The engine over `data.graph`, islandized once with the default
    /// configuration — the one `IGcnAccelerator::new(HardwareConfig::
    /// paper_default())` models, so its `account` statistics price the
    /// accelerator without a second islandization.
    pub engine: IGcnEngine,
}

/// Per-dataset default scales: citation graphs and NELL run full size;
/// the Reddit stand-in defaults to 4% of its 233 K nodes (≈ 9 K nodes at
/// the published average degree) to keep harness runtime sane. Override
/// with `--scale`.
pub fn default_scale(dataset: Dataset, args: &HarnessArgs) -> f64 {
    let base = match dataset {
        Dataset::Reddit => args.reddit_scale,
        _ => 1.0,
    };
    if args.quick {
        (base * 0.25).clamp(0.001, 1.0)
    } else {
        base
    }
}

/// Generates and islandizes the selected datasets of the standard suite.
pub fn standard_suite(args: &HarnessArgs) -> Vec<DatasetRun> {
    Dataset::ALL
        .iter()
        .filter(|d| args.wants(d.id()))
        .map(|&dataset| {
            let scale = default_scale(dataset, args);
            igcn_log::info!("suite", "generating {dataset} at scale {scale}", seed = args.seed,);
            let data = dataset.generate_scaled(scale, args.seed);
            igcn_log::info!(
                "suite",
                "dataset ready",
                nodes = data.graph.num_nodes(),
                edges = data.graph.num_undirected_edges(),
                feature_dims = data.features.num_cols(),
                nnz = data.features.nnz(),
            );
            let engine = IGcnEngine::builder(data.graph.clone())
                .build()
                .expect("loop-free dataset stand-ins");
            DatasetRun { dataset, data, engine }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_mode_shrinks() {
        let normal = HarnessArgs::default();
        let quick = HarnessArgs { quick: true, ..HarnessArgs::default() };
        assert!(default_scale(Dataset::Cora, &quick) < default_scale(Dataset::Cora, &normal));
    }

    #[test]
    fn filter_respected() {
        let args = HarnessArgs {
            datasets: vec!["cora".to_string()],
            quick: true,
            ..HarnessArgs::default()
        };
        let suite = standard_suite(&args);
        assert_eq!(suite.len(), 1);
        assert_eq!(suite[0].dataset, Dataset::Cora);
    }
}
