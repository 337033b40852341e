//! Integration: islandized inference equals the software reference on
//! every dataset stand-in and every model family, through both the
//! direct engine API and the unified Accelerator serving trait.

use igcn::core::accel::{Accelerator, InferenceRequest};
use igcn::core::IGcnEngine;
use igcn::gnn::{GnnKind, GnnModel, ModelConfig, ModelWeights};
use igcn::graph::datasets::Dataset;

fn scale_for(dataset: Dataset) -> f64 {
    match dataset {
        Dataset::Cora | Dataset::Citeseer => 0.15,
        Dataset::Pubmed => 0.03,
        Dataset::Nell => 0.01,
        Dataset::Reddit => 0.002,
    }
}

#[test]
fn all_datasets_all_models_match_reference() {
    for dataset in Dataset::ALL {
        let data = dataset.generate_scaled(scale_for(dataset), 42);
        let engine = IGcnEngine::builder(data.graph.clone())
            .build()
            .expect("dataset stand-ins are loop-free");
        engine.partition().check_invariants(&data.graph).expect("partition invariants");
        for kind in [GnnKind::Gcn, GnnKind::GraphSage, GnnKind::Gin] {
            // Tiny hidden widths keep the reference pass affordable
            // (feature widths are the published ones, up to 61k for NELL).
            let spec = data.spec;
            let model = match kind {
                GnnKind::Gcn => GnnModel::gcn(spec.feature_dim, 8, spec.num_classes.min(8)),
                GnnKind::GraphSage => {
                    GnnModel::graphsage(spec.feature_dim, 8, spec.num_classes.min(8))
                }
                GnnKind::Gin => GnnModel::gin(spec.feature_dim, 8, spec.num_classes.min(8), 0.1),
            };
            let weights = ModelWeights::glorot(&model, 7);
            let diff = engine.verify(&data.features, &model, &weights).unwrap();
            // Compare relative to the output magnitude: GIN's unnormalised
            // sum aggregation over hundreds of neighbors (dense Reddit
            // stand-in) produces large values whose FP reassociation noise
            // is large in absolute terms but tiny relatively.
            let reference =
                igcn::gnn::reference_forward(&data.graph, &data.features, &model, &weights);
            let scale = reference.as_slice().iter().fold(0.0f32, |m, v| m.max(v.abs())).max(1.0);
            assert!(
                diff / scale < 1e-4,
                "{dataset}/{kind}: islandized output diverges by {diff} (relative {})",
                diff / scale
            );
        }
    }
}

#[test]
fn serving_trait_matches_direct_engine_on_datasets() {
    for dataset in [Dataset::Cora, Dataset::Citeseer] {
        let data = dataset.generate_scaled(scale_for(dataset), 11);
        let spec = data.spec;
        let model = GnnModel::gcn(spec.feature_dim, 8, spec.num_classes.min(8));
        let weights = ModelWeights::glorot(&model, 3);
        let mut engine = IGcnEngine::builder(data.graph.clone()).build().unwrap();
        engine.prepare(&model, &weights).unwrap();

        let response =
            engine.infer(&InferenceRequest::new(data.features.clone()).with_id(1)).unwrap();
        let (direct, _) = engine.run(&data.features, &model, &weights).unwrap();
        assert_eq!(response.output, direct, "{dataset}: trait path diverged");
        assert!(response.report.aggregation_pruning_rate > 0.0);

        let report = engine.report(&InferenceRequest::new(data.features.clone())).unwrap();
        assert_eq!(report.total_ops, response.report.total_ops);
        assert_eq!(report.offchip_bytes, response.report.offchip_bytes);
    }
}

#[test]
fn pruning_rates_in_paper_band_on_all_datasets() {
    // Figure 10 reports substantial aggregation pruning on every dataset
    // (the published rates are the Fig 10 cells of `igcn_bench::paper`);
    // the stand-ins must land in a generous band, and overall pruning
    // must be positive but bounded by the aggregation share.
    for dataset in Dataset::ALL {
        let data = dataset.generate_scaled(scale_for(dataset) * 2.0, 11);
        let engine = IGcnEngine::builder(data.graph.clone()).build().unwrap();
        let model = GnnModel::for_dataset(dataset, GnnKind::Gcn, ModelConfig::Algo);
        let stats = engine.account(&data.features, &model).unwrap();
        let agg = stats.aggregation_pruning_rate();
        assert!(
            (0.05..0.7).contains(&agg),
            "{dataset}: aggregation pruning {agg} outside plausible band"
        );
        let overall = stats.overall_pruning_rate();
        assert!(overall > 0.0 && overall < agg, "{dataset}: overall {overall} vs agg {agg}");
    }
}

#[test]
fn hub_fraction_small_on_structured_graphs() {
    // "hubs are normally a small fraction of the entire graph" (§3.1.1).
    for dataset in [Dataset::Cora, Dataset::Citeseer, Dataset::Pubmed] {
        let data = dataset.generate_scaled(0.1, 5);
        let engine = IGcnEngine::builder(data.graph).build().unwrap();
        let frac = engine.partition().hub_fraction();
        assert!(frac < 0.4, "{dataset}: hub fraction {frac} too large");
    }
}

#[test]
fn multi_layer_configs_run_hy_width() {
    let data = Dataset::Cora.generate_scaled(0.1, 3);
    let engine = IGcnEngine::builder(data.graph).build().unwrap();
    let model = GnnModel::gcn(data.spec.feature_dim, 128, data.spec.num_classes);
    let weights = ModelWeights::glorot(&model, 9);
    let (out, stats) = engine.run(&data.features, &model, &weights).unwrap();
    assert_eq!(out.cols(), data.spec.num_classes);
    assert_eq!(stats.layers.len(), 2);
    assert_eq!(stats.layers[0].feature_width, 128);
}
