//! Gateway tooling: serve a snapshot — as one engine or re-sharded into
//! a fleet — over TCP, and drive the built-in open-loop load generator
//! against a self-hosted gateway.
//!
//! ```text
//! gateway_tool serve --snapshot <path> [--shards K] [--addr host:port]
//! gateway_tool load  [--quick] [--seed N] [--duration-s S] [--rate RPS] [--clients N]
//! ```
//!
//! * **serve** — boots an engine from a standard snapshot (with
//!   `--shards K`, re-shards it into a `K`-shard fleet: a fleet
//!   persists as its coordinator's snapshot) and serves it on `--addr`
//!   until killed. IO/worker threads come from
//!   `IGCN_IO_THREADS` / `IGCN_WORKER_THREADS`.
//! * **load** — generates the Cora bin, snapshots it, boots a gateway
//!   from that snapshot on an ephemeral port (exercising the same boot
//!   path `serve` uses), then drives open-loop client threads over
//!   **both** wire protocols: each client sends on a fixed schedule
//!   derived from `--rate`, regardless of completions. The run prints
//!   per-protocol completion counts and latencies, and exits non-zero
//!   if nothing completed or any protocol or client error was counted —
//!   the CI smoke contract. The printed RPS/latency are a smoke reading,
//!   not a measurement: gateway round trips are timed by the repository
//!   benchmark (`gateway_*`), and nothing is written.

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use igcn_bench::table::fmt_sig;
use igcn_bench::Table;
use igcn_core::{Accelerator, ExecConfig};
use igcn_gateway::{BinaryClient, Gateway, GatewayConfig, HttpClient, InferReply};
use igcn_gnn::{GnnModel, ModelWeights};
use igcn_graph::datasets::Dataset;
use igcn_graph::SparseFeatures;
use igcn_shard::ShardedEngine;
use igcn_store::Snapshot;

fn die(e: impl std::fmt::Display) -> ExitCode {
    eprintln!("error: {e}");
    ExitCode::from(2)
}

struct Flags {
    snapshot: Option<PathBuf>,
    shards: Option<usize>,
    addr: String,
    seed: u64,
    quick: bool,
    duration_s: Option<f64>,
    rate: Option<f64>,
    clients: Option<usize>,
}

impl Flags {
    fn parse(args: &[String]) -> Flags {
        let mut flags = Flags {
            snapshot: None,
            shards: None,
            addr: "127.0.0.1:7171".to_string(),
            seed: 42,
            quick: false,
            duration_s: None,
            rate: None,
            clients: None,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = |name: &str| {
                it.next().unwrap_or_else(|| {
                    eprintln!("{name} requires a value");
                    std::process::exit(2);
                })
            };
            let parse = |name: &str, v: &str| -> f64 {
                v.parse().unwrap_or_else(|_| {
                    eprintln!("{name} value must be a number");
                    std::process::exit(2);
                })
            };
            match flag.as_str() {
                "--snapshot" => flags.snapshot = Some(PathBuf::from(value("--snapshot"))),
                "--shards" => flags.shards = Some(parse("--shards", value("--shards")) as usize),
                "--addr" => flags.addr = value("--addr").clone(),
                "--seed" => flags.seed = parse("--seed", value("--seed")) as u64,
                "--quick" => flags.quick = true,
                "--duration-s" => {
                    flags.duration_s = Some(parse("--duration-s", value("--duration-s")))
                }
                "--rate" => flags.rate = Some(parse("--rate", value("--rate"))),
                "--clients" => {
                    flags.clients = Some(parse("--clients", value("--clients")) as usize)
                }
                other => {
                    eprintln!(
                        "unknown flag {other}; supported: --snapshot --shards --addr --seed \
                         --quick --duration-s --rate --clients"
                    );
                    std::process::exit(2);
                }
            }
        }
        flags
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!(
            "usage: gateway_tool <serve|load> [flags]\nsee the module docs for per-command flags"
        );
        return ExitCode::from(2);
    };
    let flags = Flags::parse(&args[1..]);
    match command.as_str() {
        "serve" => serve(&flags),
        "load" => load(&flags),
        other => {
            eprintln!("unknown command {other:?}; supported: serve, load");
            ExitCode::from(2)
        }
    }
}

fn serve(flags: &Flags) -> ExitCode {
    let Some(path) = &flags.snapshot else {
        eprintln!("serve requires --snapshot <path>");
        return ExitCode::from(2);
    };
    let snapshot = match Snapshot::read(path) {
        Ok(s) => s,
        Err(e) => return die(e),
    };
    if snapshot.model.is_none() {
        eprintln!("error: snapshot stores no model; nothing to serve");
        return ExitCode::from(2);
    }
    let engine = match snapshot.warm_engine(ExecConfig::default()) {
        Ok(engine) => engine,
        Err(e) => return die(e),
    };
    let backend: Arc<dyn Accelerator> = match flags.shards {
        None => Arc::new(engine),
        Some(k) => match ShardedEngine::from_engine(&engine, k) {
            Ok(fleet) => Arc::new(fleet),
            Err(e) => return die(e),
        },
    };
    let name = backend.name();
    let gateway = match Gateway::serve(backend, flags.addr.as_str(), GatewayConfig::from_env()) {
        Ok(g) => g,
        Err(e) => return die(e),
    };
    println!("serving {name} on {} (both protocols; kill to stop)", gateway.local_addr());
    loop {
        std::thread::sleep(Duration::from_secs(60));
        let stats = gateway.stats();
        eprintln!(
            "[stats] admitted={} completed={} shed={} deadline_expired={} protocol_errors={}",
            stats.admitted,
            stats.completed,
            stats.shed,
            stats.deadline_expired,
            stats.protocol_errors
        );
    }
}

/// One load client's tally.
#[derive(Default)]
struct Tally {
    sent: u64,
    completed: u64,
    shed: u64,
    deadline: u64,
    errors: u64,
    /// Completed-request latencies in seconds.
    latencies: Vec<f64>,
}

impl Tally {
    fn merge(&mut self, other: Tally) {
        self.sent += other.sent;
        self.completed += other.completed;
        self.shed += other.shed;
        self.deadline += other.deadline;
        self.errors += other.errors;
        self.latencies.extend(other.latencies);
    }
}

enum LoadClient {
    Http(HttpClient),
    Binary(BinaryClient),
}

impl LoadClient {
    fn infer(
        &mut self,
        id: u64,
        deadline_ms: Option<u64>,
        features: &SparseFeatures,
    ) -> std::io::Result<InferReply> {
        match self {
            LoadClient::Http(c) => c.infer(id, deadline_ms, features),
            LoadClient::Binary(c) => c.infer(id, deadline_ms, features),
        }
    }
}

/// Open loop: send at `interval` ticks from `start` until `until`,
/// regardless of how long replies take (a late reply just delays the
/// next send past its slot — the schedule does not stretch).
fn drive(mut client: LoadClient, idx: u64, interval: Duration, until: Instant, x: &SparseFeatures) {
    let start = Instant::now();
    let mut tally = Tally::default();
    let mut k: u32 = 0;
    while Instant::now() < until {
        let slot = start + interval.mul_f64(f64::from(k));
        if let Some(wait) = slot.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        k += 1;
        let sent_at = Instant::now();
        tally.sent += 1;
        match client.infer((idx << 32) | u64::from(k), Some(10_000), x) {
            Ok(InferReply::Output { .. }) => {
                tally.completed += 1;
                tally.latencies.push(sent_at.elapsed().as_secs_f64());
            }
            Ok(InferReply::Shed) => tally.shed += 1,
            Ok(InferReply::DeadlineExceeded) => tally.deadline += 1,
            Ok(InferReply::Error(e)) => {
                igcn_log::warn!("gateway_tool", "server error: {e}", client = idx);
                tally.errors += 1;
            }
            Err(e) => {
                igcn_log::warn!("gateway_tool", "transport error: {e}", client = idx);
                tally.errors += 1;
                break;
            }
        }
    }
    TALLIES.lock().expect("tally lock").push((idx, tally));
}

static TALLIES: std::sync::Mutex<Vec<(u64, Tally)>> = std::sync::Mutex::new(Vec::new());

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[allow(clippy::too_many_lines)]
fn load(flags: &Flags) -> ExitCode {
    let duration =
        Duration::from_secs_f64(flags.duration_s.unwrap_or(if flags.quick { 2.0 } else { 10.0 }));
    let rate = flags.rate.unwrap_or(if flags.quick { 40.0 } else { 120.0 });
    let clients = flags.clients.unwrap_or(if flags.quick { 2 } else { 4 }).max(2);

    // The served bin: Cora, snapshotted and booted back — the same
    // path `gateway_tool serve --snapshot` takes.
    let scale = if flags.quick { 0.25 } else { 1.0 };
    let data = Dataset::Cora.generate_scaled(scale, flags.seed);
    let feature_dim = data.features.num_cols();
    let model = GnnModel::gcn(feature_dim, 16, 8);
    let weights = ModelWeights::glorot(&model, flags.seed);
    let graph = Arc::new(data.graph);
    let n = graph.num_nodes();
    eprintln!("[load] islandizing cora x{scale} ({n} nodes)...");
    let mut engine =
        igcn_core::IGcnEngine::builder(Arc::clone(&graph)).build().expect("cora bin is loop-free");
    engine.prepare(&model, &weights).expect("weights match the model");

    let dir = std::env::temp_dir().join(format!("igcn-gateway-load-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        return die(e);
    }
    let snap_path = dir.join("cora.snap");
    if let Err(e) = Snapshot::capture(&engine).write_with_checksum(&snap_path) {
        return die(e);
    }
    let snapshot = match Snapshot::read(&snap_path) {
        Ok(s) => s,
        Err(e) => return die(e),
    };
    let backend: Arc<dyn Accelerator> = match snapshot.warm_engine(ExecConfig::default()) {
        Ok(e) => Arc::new(e),
        Err(e) => return die(e),
    };

    let gateway = match Gateway::serve(backend, ("127.0.0.1", 0), GatewayConfig::from_env()) {
        Ok(g) => g,
        Err(e) => return die(e),
    };
    let addr = gateway.local_addr();
    eprintln!(
        "[load] gateway on {addr}; {clients} clients, open loop at {rate} rps for {:.1}s...",
        duration.as_secs_f64()
    );

    let interval = Duration::from_secs_f64(f64::from(clients as u32) / rate);
    let until = Instant::now() + duration;
    let started = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|i| {
            let x = data.features.clone();
            std::thread::spawn(move || {
                // Even client indices speak HTTP, odd ones binary.
                let client = if i % 2 == 0 {
                    LoadClient::Http(HttpClient::connect(addr).expect("gateway accepts"))
                } else {
                    LoadClient::Binary(BinaryClient::connect(addr).expect("gateway accepts"))
                };
                drive(client, i as u64, interval, until, &x);
            })
        })
        .collect();
    for h in handles {
        h.join().expect("load client panicked");
    }
    let elapsed = started.elapsed().as_secs_f64();
    let stats = gateway.stats();
    gateway.shutdown();
    std::fs::remove_dir_all(&dir).ok();

    // Merge per-protocol tallies (even client index = HTTP).
    let mut http = Tally::default();
    let mut binary = Tally::default();
    for (idx, tally) in TALLIES.lock().expect("tally lock").drain(..) {
        if idx % 2 == 0 {
            http.merge(tally);
        } else {
            binary.merge(tally);
        }
    }
    let completed = http.completed + binary.completed;
    let sustained_rps = completed as f64 / elapsed.max(1e-9);

    let mut table = Table::new(vec![
        "protocol",
        "sent",
        "completed",
        "shed",
        "deadline",
        "errors",
        "p50 (ms)",
        "p99 (ms)",
    ]);
    for (name, tally) in [("http", &mut http), ("binary", &mut binary)] {
        tally.latencies.sort_by(f64::total_cmp);
        let p50 = percentile(&tally.latencies, 0.50);
        let p99 = percentile(&tally.latencies, 0.99);
        table.row(vec![
            name.to_string(),
            tally.sent.to_string(),
            tally.completed.to_string(),
            tally.shed.to_string(),
            tally.deadline.to_string(),
            tally.errors.to_string(),
            fmt_sig(p50 * 1e3),
            fmt_sig(p99 * 1e3),
        ]);
    }
    println!("\n# Gateway open-loop load (cora x{scale}, both protocols, one listener)\n");
    println!("{}", table.to_markdown());
    println!(
        "sustained {sustained_rps:.1} rps over {elapsed:.1}s; gateway counters: admitted={} \
         completed={} shed={} deadline_expired={} protocol_errors={}",
        stats.admitted, stats.completed, stats.shed, stats.deadline_expired, stats.protocol_errors
    );

    // The CI smoke contract: real completions, zero protocol errors.
    let client_errors = http.errors + binary.errors;
    if completed == 0 || stats.protocol_errors > 0 || client_errors > 0 {
        eprintln!(
            "error: smoke contract failed (completed={completed}, protocol_errors={}, \
             client_errors={client_errors})",
            stats.protocol_errors
        );
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}
