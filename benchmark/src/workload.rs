//! The four workloads. Each is a full-scale graph, a request and the
//! two-layer GCN served on it; everything is generated from `--seed`,
//! and the program under test only ever sees the generated inputs.
//! Why each exists is recorded in the README; `BENCHMARK.json` lists the
//! two the driver has the time to run steadily, the other two run by hand.

use std::sync::Arc;

use igcn::gnn::{GnnKind, GnnModel, ModelConfig, ModelWeights};
use igcn::graph::datasets::Dataset;
use igcn::graph::generate::barabasi_albert;
use igcn::graph::{CsrGraph, SparseFeatures};

pub const NAMES: [&str; 4] = ["cora_edge", "pubmed_islands", "powerlaw_hubs", "nell_churn"];

/// Generated inputs of one workload.
pub struct Inputs {
    pub graph: Arc<CsrGraph>,
    pub features: SparseFeatures,
    /// The model the engine, the fleet and the gateway serve.
    pub model: GnnModel,
    pub weights: ModelWeights,
    /// The model the paper columns are computed with: the paper's own
    /// (Table 2 / Fig 10 configuration) on the dataset workloads, the
    /// served model where the paper has no counterpart.
    pub paper_model: GnnModel,
    /// I-GCN latency from the paper's Table 2 in microseconds, where the
    /// paper reports this dataset; `None` means the simulated latency
    /// is unvalidated on this workload.
    pub table2_latency_us: Option<f64>,
}

fn dataset(ds: Dataset, seed: u64, model: GnnModel, table2_latency_us: f64) -> Inputs {
    let data = ds.generate(seed);
    let weights = ModelWeights::glorot(&model, seed);
    Inputs {
        graph: Arc::new(data.graph),
        features: data.features,
        weights,
        model,
        paper_model: GnnModel::for_dataset(ds, GnnKind::Gcn, ModelConfig::Algo),
        table2_latency_us: Some(table2_latency_us),
    }
}

/// Generates the inputs of workload `name` from `seed`; `None` for an
/// unknown name.
pub fn generate(name: &str, seed: u64) -> Option<Inputs> {
    Some(match name {
        "cora_edge" => dataset(Dataset::Cora, seed, GnnModel::gcn(1433, 16, 7), 1.3),
        "pubmed_islands" => dataset(Dataset::Pubmed, seed, GnnModel::gcn(500, 16, 3), 15.1),
        // The served head is 16 wide, not the paper's 186: a 186-wide
        // reply is 49 MB (150 MB as JSON), which measures memcpy and not
        // this system. The paper columns still use the 186-wide model.
        "nell_churn" => dataset(Dataset::Nell, seed, GnnModel::gcn(61278, 64, 16), 590.0),
        "powerlaw_hubs" => {
            let model = GnnModel::gcn(32, 16, 8);
            Inputs {
                graph: Arc::new(barabasi_albert(50_000, 8, seed)),
                features: SparseFeatures::random(50_000, 32, 0.05, seed.wrapping_add(1)),
                weights: ModelWeights::glorot(&model, seed),
                paper_model: model.clone(),
                model,
                table2_latency_us: None,
            }
        }
        _ => return None,
    })
}
