//! Snapshot tooling: build / inspect / verify engine snapshots.
//!
//! ```text
//! snapshot_tool build   --out <path> (--bin <name> | --edge-list <file> [--features-csv <file>]) [--seed N] [--quick] [--no-model]
//! snapshot_tool inspect --snapshot <path>
//! snapshot_tool verify  --snapshot <path> [--deep] [--shards K]
//! ```
//!
//! * **build** — islandizes a dataset bin (`cora`, `citeseer`,
//!   `pubmed`, `powerlaw50k`, `nell`) or a real-world edge-list dump
//!   (streamed through `igcn_graph::io::read_edge_list_flexible`) and
//!   writes the complete engine image. With `--features-csv <file>` the
//!   dump's real feature matrix (CSV, one row per node) is ingested
//!   instead of synthesising one; a row count that disagrees with the
//!   graph is a typed `DimensionMismatch` error.
//! * **inspect** — prints the header (version, payload size, checksum)
//!   and, when the payload decodes, the bytes each of its sections
//!   takes (the layout's part by part).
//! * **verify** — full read: checksum, payload decode, structural
//!   validation, warm engine construction. `--deep` additionally
//!   re-runs islandization cold and asserts the stored partition
//!   matches bit for bit. `--shards K` re-shards the booted engine into
//!   a `K`-shard fleet — how a fleet boots, since it persists as this
//!   one snapshot — and asserts the fleet's inference is bit-identical
//!   to the single engine, outputs and `ExecStats`; with `--deep` it
//!   also audits every shard layout's partition invariants.
//!
//! Warm boot against cold build is timed by the repository benchmark
//! (`warm_vs_cold_boot`, `store.*`), not here.

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

use igcn_core::{Accelerator, IGcnEngine};
use igcn_gnn::{GnnModel, ModelWeights};
use igcn_graph::datasets::Dataset;
use igcn_graph::generate::barabasi_albert;
use igcn_graph::io::{read_edge_list_flexible, read_features_csv, EdgeListOptions};
use igcn_graph::{CsrGraph, SparseFeatures};
use igcn_shard::ShardedEngine;
use igcn_store::Snapshot;

/// The dataset bins `build --bin` accepts: the three citation
/// stand-ins, the 50k-node power-law serving bin, and the NELL-sized
/// stand-in.
const BINS: [&str; 5] = ["cora", "citeseer", "pubmed", "powerlaw50k", "nell"];

struct BinData {
    graph: Arc<CsrGraph>,
    features: SparseFeatures,
    feature_dim: usize,
}

/// Generates one bin, scaled down under `--quick`.
fn generate_bin(name: &str, seed: u64, quick: bool) -> BinData {
    let dataset_bin = |d: Dataset, scale: f64| {
        let data = d.generate_scaled(scale, seed);
        let feature_dim = data.features.num_cols();
        BinData { graph: Arc::new(data.graph), features: data.features, feature_dim }
    };
    match name {
        "cora" => dataset_bin(Dataset::Cora, if quick { 0.25 } else { 1.0 }),
        "citeseer" => dataset_bin(Dataset::Citeseer, if quick { 0.25 } else { 1.0 }),
        "pubmed" => dataset_bin(Dataset::Pubmed, if quick { 0.1 } else { 1.0 }),
        "nell" => dataset_bin(Dataset::Nell, if quick { 0.05 } else { 1.0 }),
        "powerlaw50k" => {
            let n = if quick { 4_000 } else { 50_000 };
            let feature_dim = 32;
            BinData {
                graph: Arc::new(barabasi_albert(n, 8, seed)),
                features: SparseFeatures::random(n, feature_dim, 0.05, seed + 1),
                feature_dim,
            }
        }
        other => {
            eprintln!("unknown bin {other:?}; supported: {BINS:?}");
            std::process::exit(2);
        }
    }
}

/// Cold path: islandize + compose the layout + prepare the model.
fn cold_build(bin: &BinData, model: &GnnModel, weights: &ModelWeights) -> IGcnEngine {
    let mut engine =
        IGcnEngine::builder(Arc::clone(&bin.graph)).build().expect("bin graphs are loop-free");
    engine.prepare(model, weights).expect("weights match the model");
    engine
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

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!(
            "usage: snapshot_tool <build|inspect|verify> [flags]\n\
             see the module docs for per-command flags"
        );
        return ExitCode::from(2);
    };
    let flags = Flags::parse(&args[1..]);
    match command.as_str() {
        "build" => build(&flags),
        "inspect" => inspect(&flags),
        "verify" => verify(&flags),
        other => {
            eprintln!("unknown command {other:?}; supported: build, inspect, verify");
            ExitCode::from(2)
        }
    }
}

/// Minimal flag parsing shared by the subcommands.
struct Flags {
    out: Option<PathBuf>,
    snapshot: Option<PathBuf>,
    bin: Option<String>,
    edge_list: Option<PathBuf>,
    features_csv: Option<PathBuf>,
    seed: u64,
    quick: bool,
    no_model: bool,
    deep: bool,
    shards: Option<usize>,
}

impl Flags {
    fn parse(args: &[String]) -> Flags {
        let mut flags = Flags {
            out: None,
            snapshot: None,
            bin: None,
            edge_list: None,
            features_csv: None,
            seed: 42,
            quick: false,
            no_model: false,
            deep: false,
            shards: None,
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
                "--out" => flags.out = Some(PathBuf::from(value("--out"))),
                "--snapshot" => flags.snapshot = Some(PathBuf::from(value("--snapshot"))),
                "--bin" => flags.bin = Some(value("--bin").clone()),
                "--edge-list" => flags.edge_list = Some(PathBuf::from(value("--edge-list"))),
                "--features-csv" => {
                    flags.features_csv = Some(PathBuf::from(value("--features-csv")))
                }
                "--seed" => {
                    flags.seed = value("--seed").parse().unwrap_or_else(|_| {
                        eprintln!("--seed value must be an integer");
                        std::process::exit(2);
                    })
                }
                "--quick" => flags.quick = true,
                "--no-model" => flags.no_model = true,
                "--deep" => flags.deep = true,
                "--shards" => {
                    flags.shards = Some(value("--shards").parse().unwrap_or_else(|_| {
                        eprintln!("--shards value must be a positive integer");
                        std::process::exit(2);
                    }))
                }
                other => {
                    eprintln!(
                        "unknown flag {other}; supported: --out --snapshot --bin --edge-list \
                         --features-csv --seed --quick --no-model --deep --shards"
                    );
                    std::process::exit(2);
                }
            }
        }
        flags
    }

    fn snapshot_path(&self) -> &PathBuf {
        self.snapshot.as_ref().unwrap_or_else(|| {
            eprintln!("--snapshot <path> is required");
            std::process::exit(2);
        })
    }
}

fn build(flags: &Flags) -> ExitCode {
    let Some(out) = &flags.out else {
        eprintln!("build requires --out <path>");
        return ExitCode::from(2);
    };
    if flags.features_csv.is_some() && flags.edge_list.is_none() {
        eprintln!("--features-csv accompanies --edge-list (dataset bins synthesise features)");
        return ExitCode::from(2);
    }
    let bin = match (&flags.edge_list, &flags.bin) {
        (Some(path), _) => {
            eprintln!("[build] streaming edge list {}...", path.display());
            let file = match std::fs::File::open(path) {
                Ok(f) => f,
                Err(e) => {
                    eprintln!("error: cannot open {}: {e}", path.display());
                    return ExitCode::from(2);
                }
            };
            let graph = match read_edge_list_flexible(
                std::io::BufReader::new(file),
                EdgeListOptions::default(),
            ) {
                Ok(g) => g,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::from(2);
                }
            };
            // Real feature matrix when the dump ships one; otherwise
            // synthesise a bag-of-words-like matrix so the snapshot is
            // immediately servable.
            let features = match &flags.features_csv {
                Some(csv_path) => {
                    eprintln!("[build] reading features {}...", csv_path.display());
                    let file = match std::fs::File::open(csv_path) {
                        Ok(f) => f,
                        Err(e) => {
                            eprintln!("error: cannot open {}: {e}", csv_path.display());
                            return ExitCode::from(2);
                        }
                    };
                    match read_features_csv(std::io::BufReader::new(file), Some(graph.num_nodes()))
                    {
                        Ok(x) => x,
                        Err(e) => {
                            // Dimension mismatches surface typed, not as
                            // a downstream shape panic.
                            eprintln!("error: {e}");
                            return ExitCode::from(2);
                        }
                    }
                }
                None => SparseFeatures::random(graph.num_nodes(), 32, 0.05, flags.seed + 1),
            };
            let feature_dim = features.num_cols();
            BinData { graph: Arc::new(graph), features, feature_dim }
        }
        (None, Some(name)) => generate_bin(name, flags.seed, flags.quick),
        (None, None) => {
            eprintln!("build requires --bin <name> or --edge-list <file>");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "[build] islandizing {} nodes / {} undirected edges...",
        bin.graph.num_nodes(),
        bin.graph.num_undirected_edges()
    );
    let (model, weights) = model_for(&bin, flags.seed);
    let engine = if flags.no_model {
        IGcnEngine::builder(Arc::clone(&bin.graph)).build().expect("bin graphs are loop-free")
    } else {
        cold_build(&bin, &model, &weights)
    };
    let snapshot = Snapshot::capture(&engine).with_features(bin.features.clone());
    let bytes = match snapshot.write(out) {
        Ok(b) => b,
        Err(e) => return die(e),
    };
    let info = match Snapshot::inspect(out) {
        Ok(i) => i,
        Err(e) => return die(e),
    };
    println!(
        "wrote {} ({} bytes, version {}, checksum {:#018x})",
        out.display(),
        bytes,
        info.version,
        info.checksum
    );
    println!(
        "  {} nodes, {} undirected edges, {} hubs, {} islands, model: {}",
        engine.graph().num_nodes(),
        engine.graph().num_undirected_edges(),
        engine.partition().num_hubs(),
        engine.partition().num_islands(),
        if flags.no_model { "none" } else { "gcn" }
    );
    ExitCode::SUCCESS
}

fn inspect(flags: &Flags) -> ExitCode {
    let path = flags.snapshot_path();
    let info = match Snapshot::inspect(path) {
        Ok(i) => i,
        Err(e) => return die(e),
    };
    println!("snapshot {}", path.display());
    println!("  format version : {}", info.version);
    println!("  payload bytes  : {}", info.payload_bytes);
    println!("  checksum       : {:#018x}", info.checksum);
    println!("  checksum ok    : {}", info.checksum_ok);
    if !info.checksum_ok {
        eprintln!("error: payload bytes do not match the recorded checksum");
        return ExitCode::from(1);
    }
    match Snapshot::read(path) {
        Ok(snapshot) => {
            println!("  section bytes  :");
            for (section, bytes) in snapshot.section_bytes() {
                let share = 100.0 * bytes as f64 / info.payload_bytes.max(1) as f64;
                println!("    {section:<24} {bytes:>12} {share:>6.2} %");
            }
        }
        Err(e) => println!("  section bytes  : payload not decodable ({e})"),
    }
    ExitCode::SUCCESS
}

fn verify(flags: &Flags) -> ExitCode {
    let path = flags.snapshot_path();
    // Header + checksum first (cheap), then the full decode +
    // structural validation + warm engine construction.
    match Snapshot::inspect(path) {
        Ok(info) if !info.checksum_ok => {
            eprintln!("error: payload bytes do not match the recorded checksum");
            return ExitCode::from(1);
        }
        Ok(_) => {}
        Err(e) => return die(e),
    }
    let snapshot = match Snapshot::read(path) {
        Ok(s) => s,
        Err(e) => return die(e),
    };
    let engine = match snapshot.warm_engine(Default::default()) {
        Ok(e) => e,
        Err(e) => return die(e),
    };
    println!(
        "ok: {} nodes, {} islands, {} hubs, model {}",
        engine.graph().num_nodes(),
        engine.partition().num_islands(),
        engine.partition().num_hubs(),
        if snapshot.model.is_some() { "present" } else { "absent" }
    );
    if flags.deep {
        eprintln!("[verify] deep: re-running islandization cold...");
        let cold = IGcnEngine::builder(Arc::clone(&snapshot.graph))
            .island_config(snapshot.island_cfg)
            .consumer_config(snapshot.consumer_cfg)
            .build()
            .expect("snapshot graph is loop-free");
        if cold.partition() != engine.partition() {
            eprintln!("error: stored partition differs from a cold islandization run");
            return ExitCode::from(1);
        }
        if cold.layout() != engine.layout() {
            eprintln!("error: stored layout differs from a cold composition");
            return ExitCode::from(1);
        }
        println!("deep ok: stored partition and layout match a cold rebuild bit for bit");
    }
    match flags.shards {
        Some(k) => verify_fleet(&snapshot, &engine, k, flags.deep),
        None => ExitCode::SUCCESS,
    }
}

/// Re-shards the warm-booted `engine` into a `k`-shard fleet and
/// asserts it serves bit-identically to the engine (outputs and
/// `ExecStats`); `deep` also audits every shard layout's partition.
fn verify_fleet(snapshot: &Snapshot, engine: &IGcnEngine, k: usize, deep: bool) -> ExitCode {
    let fleet = match ShardedEngine::from_engine(engine, k) {
        Ok(f) => f,
        Err(e) => return die(e),
    };
    match &snapshot.model {
        None => eprintln!("[verify] no model stored; structural fleet checks only"),
        Some((model, weights)) => {
            let in_dim = model.layers().first().map_or(0, |l| l.in_dim);
            let probe = SparseFeatures::random(engine.graph().num_nodes(), in_dim, 0.05, 7);
            match (engine.run(&probe, model, weights), fleet.run(&probe, model, weights)) {
                (Ok(a), Ok(b)) if a == b => {}
                (Ok(_), Ok(_)) => {
                    eprintln!("error: fleet output or ExecStats differ from the single engine");
                    return ExitCode::from(1);
                }
                (Err(e), _) | (_, Err(e)) => return die(e),
            }
            println!(
                "ok: {}-shard fleet is bit-identical to the single engine",
                fleet.num_shards()
            );
        }
    }
    if deep {
        for (s, shard) in fleet.shards().iter().enumerate() {
            let layout = shard.layout();
            // A shard's permutation is the identity: the partition it
            // gives back is in the IDs of the graph its islands spell out.
            if let Err(e) = layout.original_partition().check_invariants(layout.graph()) {
                eprintln!("error: shard {s} failed its structural audit: {e}");
                return ExitCode::from(1);
            }
        }
        println!("deep ok: every shard layout satisfies the islandization invariants");
    }
    ExitCode::SUCCESS
}
