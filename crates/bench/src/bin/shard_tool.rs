//! Shard tooling: partition a graph into a snapshot fleet, and inspect
//! and verify its manifest.
//!
//! ```text
//! shard_tool partition --out-dir <dir> --name <name> --shards K (--bin <name> | --edge-list <file>) [--seed N] [--quick]
//! shard_tool inspect   --manifest <path>
//! shard_tool verify    --manifest <path> [--deep]
//! ```
//!
//! * **partition** — islandizes a dataset bin (or a real edge-list
//!   dump), assigns whole islands to `K` shards (hubs replicated as the
//!   halo), and writes per-shard snapshots + the coordinator image +
//!   the checksummed manifest under `--out-dir`.
//! * **inspect** — prints the manifest header and per-shard routing
//!   metadata without opening the snapshots.
//! * **verify** — fleet cold-start from the manifest, then asserts the
//!   fleet's inference is **bit-identical** to a single engine booted
//!   from the coordinator snapshot. `--deep` also audits every shard
//!   partition's structural invariants.
//!
//! Sharded execution is timed by the repository benchmark
//! (`shard_vs_infer`, `shard.*`), not here.

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

use igcn_core::{Accelerator, ExecConfig, IGcnEngine, InferenceRequest};
use igcn_gnn::{GnnModel, ModelWeights};
use igcn_graph::datasets::Dataset;
use igcn_graph::generate::barabasi_albert;
use igcn_graph::io::{read_edge_list_flexible, EdgeListOptions};
use igcn_graph::{CsrGraph, SparseFeatures};
use igcn_shard::ShardedEngine;
use igcn_store::{ShardManifest, Snapshot};

/// The dataset bins `partition --bin` accepts.
const BINS: [&str; 5] = ["cora", "citeseer", "pubmed", "powerlaw50k", "nell"];

struct BinData {
    graph: Arc<CsrGraph>,
    feature_dim: usize,
}

fn generate_bin(name: &str, seed: u64, quick: bool) -> BinData {
    let dataset_bin = |d: Dataset, scale: f64| {
        let data = d.generate_scaled(scale, seed);
        let feature_dim = data.features.num_cols();
        BinData { graph: Arc::new(data.graph), feature_dim }
    };
    match name {
        "cora" => dataset_bin(Dataset::Cora, if quick { 0.25 } else { 1.0 }),
        "citeseer" => dataset_bin(Dataset::Citeseer, if quick { 0.25 } else { 1.0 }),
        "pubmed" => dataset_bin(Dataset::Pubmed, if quick { 0.1 } else { 1.0 }),
        "nell" => dataset_bin(Dataset::Nell, if quick { 0.05 } else { 1.0 }),
        "powerlaw50k" => {
            let n = if quick { 4_000 } else { 50_000 };
            BinData { graph: Arc::new(barabasi_albert(n, 8, seed)), feature_dim: 32 }
        }
        other => {
            eprintln!("unknown bin {other:?}; supported: {BINS:?}");
            std::process::exit(2);
        }
    }
}

fn model_for(bin: &BinData, seed: u64) -> (GnnModel, ModelWeights) {
    let model = GnnModel::gcn(bin.feature_dim, 16, 8);
    let weights = ModelWeights::glorot(&model, seed);
    (model, weights)
}

fn die(e: impl std::fmt::Display) -> ExitCode {
    eprintln!("error: {e}");
    ExitCode::from(2)
}

struct Flags {
    out_dir: Option<PathBuf>,
    name: String,
    manifest: Option<PathBuf>,
    bin: Option<String>,
    edge_list: Option<PathBuf>,
    shards: usize,
    seed: u64,
    quick: bool,
    deep: bool,
}

impl Flags {
    fn parse(args: &[String]) -> Flags {
        let mut flags = Flags {
            out_dir: None,
            name: "fleet".to_string(),
            manifest: None,
            bin: None,
            edge_list: None,
            shards: 2,
            seed: 42,
            quick: false,
            deep: false,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = |name: &str| {
                it.next().unwrap_or_else(|| {
                    eprintln!("{name} requires a value");
                    std::process::exit(2);
                })
            };
            match flag.as_str() {
                "--out-dir" => flags.out_dir = Some(PathBuf::from(value("--out-dir"))),
                "--name" => flags.name = value("--name").clone(),
                "--manifest" => flags.manifest = Some(PathBuf::from(value("--manifest"))),
                "--bin" => flags.bin = Some(value("--bin").clone()),
                "--edge-list" => flags.edge_list = Some(PathBuf::from(value("--edge-list"))),
                "--shards" => {
                    flags.shards = value("--shards").parse().unwrap_or_else(|_| {
                        eprintln!("--shards value must be a positive integer");
                        std::process::exit(2);
                    })
                }
                "--seed" => {
                    flags.seed = value("--seed").parse().unwrap_or_else(|_| {
                        eprintln!("--seed value must be an integer");
                        std::process::exit(2);
                    })
                }
                "--quick" => flags.quick = true,
                "--deep" => flags.deep = true,
                other => {
                    eprintln!(
                        "unknown flag {other}; supported: --out-dir --name --manifest --bin \
                         --edge-list --shards --seed --quick --deep"
                    );
                    std::process::exit(2);
                }
            }
        }
        flags
    }

    fn manifest_path(&self) -> &PathBuf {
        self.manifest.as_ref().unwrap_or_else(|| {
            eprintln!("--manifest <path> is required");
            std::process::exit(2);
        })
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!(
            "usage: shard_tool <partition|inspect|verify> [flags]\n\
             see the module docs for per-command flags"
        );
        return ExitCode::from(2);
    };
    let flags = Flags::parse(&args[1..]);
    match command.as_str() {
        "partition" => partition(&flags),
        "inspect" => inspect(&flags),
        "verify" => verify(&flags),
        other => {
            eprintln!("unknown command {other:?}; supported: partition, inspect, verify");
            ExitCode::from(2)
        }
    }
}

fn load_bin(flags: &Flags) -> Result<BinData, ExitCode> {
    match (&flags.edge_list, &flags.bin) {
        (Some(path), _) => {
            eprintln!("[partition] streaming edge list {}...", path.display());
            let file = std::fs::File::open(path).map_err(|e| {
                eprintln!("error: cannot open {}: {e}", path.display());
                ExitCode::from(2)
            })?;
            let graph =
                read_edge_list_flexible(std::io::BufReader::new(file), EdgeListOptions::default())
                    .map_err(die)?;
            Ok(BinData { graph: Arc::new(graph), feature_dim: 32 })
        }
        (None, Some(name)) => Ok(generate_bin(name, flags.seed, flags.quick)),
        (None, None) => {
            eprintln!("partition requires --bin <name> or --edge-list <file>");
            Err(ExitCode::from(2))
        }
    }
}

fn partition(flags: &Flags) -> ExitCode {
    let Some(out_dir) = &flags.out_dir else {
        eprintln!("partition requires --out-dir <dir>");
        return ExitCode::from(2);
    };
    let bin = match load_bin(flags) {
        Ok(b) => b,
        Err(code) => return code,
    };
    eprintln!(
        "[partition] islandizing {} nodes / {} undirected edges...",
        bin.graph.num_nodes(),
        bin.graph.num_undirected_edges()
    );
    let (model, weights) = model_for(&bin, flags.seed);
    let mut engine =
        IGcnEngine::builder(Arc::clone(&bin.graph)).build().expect("bin graphs are loop-free");
    engine.prepare(&model, &weights).expect("weights match the model");
    let sharded = match ShardedEngine::from_engine(&engine, flags.shards) {
        Ok(s) => s,
        Err(e) => return die(e),
    };
    let manifest_path = match sharded.save_manifest(out_dir, &flags.name) {
        Ok(p) => p,
        Err(e) => return die(e),
    };
    let report = sharded.sharding_report();
    println!(
        "wrote {} ({} shards, {} islands, {} hubs)",
        manifest_path.display(),
        sharded.num_shards(),
        sharded.partition().num_islands(),
        sharded.partition().num_hubs()
    );
    for (s, summary) in report.per_shard.iter().enumerate() {
        println!(
            "  shard {s}: {} islands, {} nodes, {} halo hubs, work {}",
            summary.islands, summary.nodes, summary.replicated_hubs, summary.work
        );
    }
    println!(
        "  cut: {}/{} undirected edges ({:.2}%), hub replication ×{:.2}",
        report.cut_edges,
        report.total_undirected_edges,
        report.cut_fraction * 100.0,
        report.replication_factor
    );
    ExitCode::SUCCESS
}

fn inspect(flags: &Flags) -> ExitCode {
    let path = flags.manifest_path();
    let info = match ShardManifest::inspect(path) {
        Ok(i) => i,
        Err(e) => return die(e),
    };
    println!("manifest {}", path.display());
    println!("  format version : {}", info.version);
    println!("  payload bytes  : {}", info.payload_bytes);
    println!("  checksum       : {:#018x}", info.checksum);
    println!("  checksum ok    : {}", info.checksum_ok);
    if !info.checksum_ok {
        eprintln!("error: payload bytes do not match the recorded checksum");
        return ExitCode::from(1);
    }
    let manifest = match ShardManifest::read(path) {
        Ok(m) => m,
        Err(e) => return die(e),
    };
    println!(
        "  coordinator    : {} (checksum {:#018x})",
        manifest.coordinator.file, manifest.coordinator.checksum
    );
    for (s, shard) in manifest.shards.iter().enumerate() {
        println!(
            "  shard {s} : {} — {} islands, {} halo hubs, {} nodes",
            shard.snapshot.file,
            shard.islands.len(),
            shard.hub_global.len(),
            shard.gather_original.len()
        );
    }
    ExitCode::SUCCESS
}

fn verify(flags: &Flags) -> ExitCode {
    let path = flags.manifest_path();
    let manifest = match ShardManifest::read(path) {
        Ok(m) => m,
        Err(e) => return die(e),
    };
    if let Err(e) = manifest.verify_files(path) {
        return die(e);
    }
    eprintln!("[verify] checksum pairing ok; cold-starting the fleet...");
    let fleet = match ShardedEngine::from_manifest(path, ExecConfig::default()) {
        Ok(f) => f,
        Err(e) => return die(e),
    };
    // The reference: a single engine warm-booted from the coordinator
    // image — the fleet must serve bit-identically to it.
    let coordinator_path = ShardManifest::resolve(path, &manifest.coordinator);
    let snapshot = match Snapshot::read(&coordinator_path) {
        Ok(s) => s,
        Err(e) => return die(e),
    };
    let single = match snapshot.warm_engine(ExecConfig::default()) {
        Ok(e) => e,
        Err(e) => return die(e),
    };
    let n = single.graph().num_nodes();
    let in_dim = snapshot
        .model
        .as_ref()
        .map(|(m, _)| m.layers().first().map(|l| l.in_dim).unwrap_or(0))
        .unwrap_or(0);
    if in_dim == 0 {
        eprintln!("[verify] no model stored; structural checks only");
    } else {
        let probe = InferenceRequest::new(SparseFeatures::random(n, in_dim, 0.05, 7));
        let a = match single.infer(&probe) {
            Ok(r) => r,
            Err(e) => return die(e),
        };
        let b = match fleet.infer(&probe) {
            Ok(r) => r,
            Err(e) => return die(e),
        };
        if a.output != b.output {
            eprintln!("error: fleet output differs from the single-engine reference");
            return ExitCode::from(1);
        }
        println!("ok: fleet inference is bit-identical to the coordinator engine");
    }
    if flags.deep {
        for (s, shard) in fleet.shards().iter().enumerate() {
            if let Err(e) = shard.engine().partition().check_invariants(shard.engine().graph()) {
                eprintln!("error: shard {s} failed its structural audit: {e}");
                return ExitCode::from(1);
            }
        }
        println!("deep ok: every shard partition satisfies the islandization invariants");
    }
    println!(
        "ok: {} shards over {} nodes ({} islands, {} hubs)",
        fleet.num_shards(),
        fleet.graph().num_nodes(),
        fleet.partition().num_islands(),
        fleet.partition().num_hubs()
    );
    ExitCode::SUCCESS
}
