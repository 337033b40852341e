//! The traced pass: the per-layer metrics. Every public call into a
//! layer is wrapped in a span the benchmark records itself, one request
//! is replayed stage by stage, and each parent's self time is what the
//! replay could not attribute.

use std::collections::BTreeMap;
use std::sync::Arc;

use igcn::core::accel::{Accelerator, InferenceRequest};
use igcn::core::consumer::hotpath::execute_layer;
use igcn::core::consumer::LayerInput;
use igcn::core::stats::LayerExecStats;
use igcn::core::{
    islandize, CpuReference, ExecConfig, GraphUpdate, IGcnEngine, IslandLayout, LayerScratch,
};
use igcn::gateway::wire::{self, Decoded, Frame};
use igcn::graph::SparseFeatures;
use igcn::linalg::kernels::{axpy_f32, gemm_blocked_into};
use igcn::linalg::spmm::sparse_dense;
use igcn::linalg::{CsrMatrix, DenseMatrix};
use igcn::serve::{ServingConfig, ServingEngine};
use igcn::shard::ShardedEngine;
use igcn::sim::{HardwareConfig, IGcnAccelerator, SimBackend};
use igcn::store::{from_snapshot, Snapshot};
use serde::json::JsonValue;

use crate::bench::{bit_identical, ms, timed, Bench};
use crate::fixture::SHARDS;
use crate::report::Metric;
use crate::sched::{run_block, Phase};
use crate::span::Tracer;
use crate::stats::Samples;
use crate::{err, Res};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Layer {
    Replay,
    ColdBuild,
    Infer,
    InferUntraced,
    InferParallel,
    Reference,
    Combination,
    Account,
    Incremental,
    StoreUpdate,
    SnapshotWrite,
    WarmBoot,
    WalBoot,
    WalAppend,
    ShardBuild,
    ShardInfer,
    GatewayBinary,
    GatewayBinaryTelemetryOff,
    GatewayHttp,
    GatewayRps,
    SimReport,
    HostKernels,
}

impl Layer {
    /// Gateway phases run with telemetry as `Gateway::serve` leaves it
    /// (on); everything in-process runs with it off.
    fn telemetry_on(self) -> bool {
        matches!(
            self,
            Layer::Replay | Layer::GatewayBinary | Layer::GatewayHttp | Layer::GatewayRps
        )
    }
}

/// Below the untraced pass's floor: per-layer metrics carry no bound,
/// and the traced pass has more than twice the phases.
const MIN_SAMPLES: usize = 2;

const fn phase(id: Layer, share: f64) -> Phase<Layer> {
    Phase { id, share, min_samples: MIN_SAMPLES }
}

/// The dearest calls on the large workloads (seconds each), whose cost
/// is a property of the input rather than of the moment: one reading is
/// taken even when the share does not cover it.
const fn once(id: Layer, share: f64) -> Phase<Layer> {
    Phase { id, share, min_samples: 1 }
}

const PHASES: [Phase<Layer>; 22] = [
    phase(Layer::Replay, 5.0),
    phase(Layer::ColdBuild, 3.0),
    phase(Layer::Infer, 2.0),
    phase(Layer::InferUntraced, 2.0),
    phase(Layer::InferParallel, 1.0),
    phase(Layer::Reference, 1.0),
    phase(Layer::Combination, 1.0),
    once(Layer::Account, 1.0),
    phase(Layer::Incremental, 2.0),
    phase(Layer::StoreUpdate, 1.0),
    once(Layer::SnapshotWrite, 1.0),
    phase(Layer::WarmBoot, 1.0),
    phase(Layer::WalBoot, 2.0),
    phase(Layer::WalAppend, 0.5),
    phase(Layer::ShardBuild, 0.5),
    phase(Layer::ShardInfer, 2.0),
    phase(Layer::GatewayBinary, 2.0),
    phase(Layer::GatewayBinaryTelemetryOff, 2.0),
    phase(Layer::GatewayHttp, 2.0),
    phase(Layer::GatewayRps, 1.5),
    once(Layer::SimReport, 0.5),
    phase(Layer::HostKernels, 1.0),
];

/// Fixed shapes of the host-ceiling kernels.
const MEMCPY_BYTES: usize = 32 << 20;
const AXPY_LEN: usize = 4 << 20;
const GEMM_SHAPE: (usize, usize, usize) = (512, 256, 64);

const LAYER_SPANS: [&str; 2] = ["consumer.layer0", "consumer.layer1"];

/// State of the traced pass.
struct Pass<'a> {
    bench: &'a mut Bench,
    tracer: Tracer,
    /// Samples by span or metric name, in that metric's unit.
    samples: BTreeMap<&'static str, Samples>,
    layer_stats: Vec<LayerExecStats>,
    serving: ServingEngine,
    parallel: IGcnEngine,
    reference: CpuReference,
    sim: SimBackend<IGcnAccelerator>,
    // Replay scratch, kept warm like the engine's own pooled scratch.
    gathered: SparseFeatures,
    ping: DenseMatrix,
    pong: DenseMatrix,
    scratch: LayerScratch,
    // Operands of the combination products at the workload's shapes.
    x_csr: CsrMatrix,
    hidden: DenseMatrix,
    product: DenseMatrix,
    // Operands of the host-ceiling kernels.
    bytes: (Vec<u8>, Vec<u8>),
    floats: (Vec<f32>, Vec<f32>, Vec<f32>),
    req_bytes: usize,
    resp_bytes: usize,
}

impl Pass<'_> {
    fn record(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    /// Records a root span (a real call) and its sample.
    fn root(&mut self, name: &'static str, ns: u64) -> usize {
        self.record(name, ms(ns));
        self.tracer.root(name, ns)
    }

    /// Records a replayed child span and its sample.
    fn child(&mut self, parent: usize, name: &'static str, ns: u64) -> usize {
        self.record(name, ms(ns));
        self.tracer.child(parent, name, ns)
    }

    fn self_time(&mut self, span: usize, name: &'static str) {
        let ns = self.tracer.self_time_ns(span);
        self.record(name, ms(ns));
    }

    fn sample(&mut self, layer: Layer) -> Option<f64> {
        igcn::obs::set_enabled(layer.telemetry_on());
        // The sample's own value is its wall time; the readings that
        // become metrics are recorded by name as it goes.
        let (done, ns) = timed(|| match layer {
            Layer::Replay => self.replay(),
            Layer::ColdBuild => self.cold_build(),
            Layer::Infer => {
                let (result, ns) = timed(|| self.bench.fx.engine.infer(&self.bench.fx.request));
                self.bench.ops.op("infer (traced)", result).map(|_| {
                    self.root("exec.infer", ns);
                })
            }
            Layer::InferUntraced => {
                let (result, ns) = timed(|| self.bench.fx.engine.infer(&self.bench.fx.request));
                self.bench.ops.op("infer", result).map(|_| self.record("infer_untraced", ms(ns)))
            }
            Layer::InferParallel => {
                let (result, ns) = timed(|| self.parallel.infer(&self.bench.fx.request));
                let out = self.bench.ops.op("infer (parallel)", result)?;
                self.bench.ops.check(
                    "parallel infer == infer",
                    bit_identical(&out.output, &self.bench.expected),
                );
                self.record("exec.infer_par", ms(ns));
                Some(())
            }
            Layer::Reference => {
                let (result, ns) = timed(|| self.reference.infer(&self.bench.fx.request));
                self.bench.ops.op("CpuReference.infer", result).map(|_| {
                    self.root("gnn.reference_infer", ns);
                })
            }
            Layer::Combination => {
                let inputs = &self.bench.fx.inputs;
                let (xw0, ns0) = timed(|| sparse_dense(&self.x_csr, inputs.weights.layer(0)));
                let w1 = inputs.weights.layer(1);
                let (_, ns1) = timed(|| self.hidden.matmul_into(w1, &mut self.product));
                drop(xw0);
                self.bench.ops.attempted += 2;
                self.root("linalg.xw0", ns0);
                self.root("linalg.xw1", ns1);
                Some(())
            }
            Layer::Account => {
                let fx = &self.bench.fx;
                let (result, ns) =
                    timed(|| fx.engine.account(&fx.request.features, &fx.inputs.model));
                self.bench.ops.op("engine.account", result).map(|_| {
                    self.root("consumer.account", ns);
                })
            }
            Layer::Incremental => self.incremental(),
            Layer::StoreUpdate => {
                // An add batch, then its removal, through the store's log.
                for _ in 0..2 {
                    let ms = self.bench.update_sample(true)?;
                    self.record("store.update", ms);
                }
                Some(())
            }
            Layer::SnapshotWrite => {
                let path = self.bench.fx.dir().join("written.snap");
                let engine = &self.bench.fx.engine;
                let (result, ns) = timed(|| Snapshot::capture(engine).write(&path));
                self.bench.ops.op("Snapshot.write", result).map(|_| {
                    self.root("store.snapshot_write", ns);
                })
            }
            Layer::WarmBoot => self.warm_boot(),
            Layer::WalBoot => {
                let (result, ns) =
                    timed(|| self.bench.fx.wal_store.boot(ExecConfig::default()).map(drop));
                self.bench.ops.op("WAL boot", result).map(|_| {
                    self.root("store.wal_boot", ns);
                })
            }
            Layer::WalAppend => {
                let update = GraphUpdate::add_edges(
                    self.bench.fx.batches.next_batch(&self.bench.fx.inputs.graph),
                );
                let wal = self.bench.ops.op("store.wal", self.bench.fx.store.wal())?;
                let (result, ns) = timed(|| wal.append(&update));
                let offset = self.bench.ops.op("Wal.append", result)?;
                // The record was never applied: take it back out.
                self.bench.ops.op("Wal.rollback_to", wal.rollback_to(offset))?;
                self.root("store.wal_append", ns);
                Some(())
            }
            Layer::ShardBuild => {
                let (result, ns) =
                    timed(|| ShardedEngine::from_engine(&self.bench.fx.engine, SHARDS).map(drop));
                self.bench.ops.op("ShardedEngine.from_engine", result).map(|_| {
                    self.root("shard.build", ns);
                })
            }
            Layer::ShardInfer => {
                let (result, ns) = timed(|| self.bench.fx.fleet.infer(&self.bench.fx.request));
                self.bench.ops.op("shard infer", result).map(|_| {
                    self.root("shard.infer", ns);
                })
            }
            Layer::GatewayBinary | Layer::GatewayBinaryTelemetryOff => {
                let id = self.bench.next_id();
                let fx = &mut self.bench.fx;
                let (reply, ns) = timed(|| fx.binary[0].infer(id, None, &fx.request.features));
                self.bench.reply_ok("gateway binary", reply).then(|| {
                    if layer == Layer::GatewayBinary {
                        self.root("gateway.binary", ns);
                    } else {
                        self.record("gateway.binary_telemetry_off", ms(ns));
                    }
                })
            }
            Layer::GatewayHttp => {
                let id = self.bench.next_id();
                let fx = &mut self.bench.fx;
                let (reply, ns) = timed(|| fx.http.infer(id, None, &fx.request.features));
                self.bench.reply_ok("gateway HTTP", reply).then(|| {
                    self.root("gateway.http", ns);
                })
            }
            Layer::GatewayRps => {
                let rps = self.bench.rps_window()?;
                self.record("gateway.rps_2clients", rps);
                Some(())
            }
            Layer::SimReport => {
                let (result, ns) = timed(|| self.sim.report(&self.bench.fx.request));
                self.bench.ops.op("SimBackend.report", result).map(|_| {
                    self.root("sim.report", ns);
                })
            }
            Layer::HostKernels => {
                let (_, ns) = timed(|| self.bytes.1.copy_from_slice(&self.bytes.0));
                self.record("host.memcpy_gbps", MEMCPY_BYTES as f64 / ns as f64);
                // axpy reads two streams and writes one.
                let (_, ns) = timed(|| axpy_f32(&mut self.floats.0, &self.floats.1, 0.5));
                self.record("linalg.axpy_gbps", (3 * 4 * AXPY_LEN) as f64 / ns as f64);
                let (m, k, n) = GEMM_SHAPE;
                let (a, b, out) = (&self.floats.1, &self.floats.2, &mut self.floats.0);
                let (_, ns) = timed(|| {
                    gemm_blocked_into(&a[..m * k], m, k, &b[..k * n], n, &mut out[..m * n])
                });
                self.record("linalg.gemm_gflops", (2 * m * k * n) as f64 / ns as f64);
                Some(())
            }
        });
        done.map(|()| ms(ns))
    }

    /// One request, stage by stage: the real binary round trip, then the
    /// calls it makes inside itself, made again from here and laid under
    /// it — codec, serving tier, `infer`, and `infer`'s own stages.
    fn replay(&mut self) -> Option<()> {
        let id = self.bench.next_id();
        let fx = &mut self.bench.fx;
        let (reply, ns) = timed(|| fx.binary[0].infer(id, None, &fx.request.features));
        if !self.bench.reply_ok("gateway binary (replayed)", reply) {
            return None;
        }
        let gateway = self.root("gateway.binary", ns);

        let request_frame =
            Frame::Infer { id, deadline_ms: 0, features: self.bench.fx.request.features.clone() };
        let (request_bytes, ns) = timed(|| wire::encode(&request_frame));
        self.child(gateway, "gateway.wire_encode_req", ns);
        self.req_bytes = request_bytes.len();
        let (decoded, ns) = timed(|| wire::decode(&request_bytes));
        self.child(gateway, "gateway.wire_decode_req", ns);
        let features = match decoded {
            Decoded::Frame(Frame::Infer { features, .. }, _, _) => Ok(features),
            other => Err(format!("request frame decoded as {other:?}")),
        };
        let features = self.bench.ops.op("wire request round trip", features)?;

        let request = InferenceRequest::new(features).with_id(id);
        let (served, ns) =
            timed(|| self.serving.submit(request.clone()).and_then(|ticket| ticket.wait()));
        let served = self.bench.ops.op("ServingEngine submit + wait", served)?;
        let serve = self.child(gateway, "serve.submit_wait", ns);

        let (inferred, ns) = timed(|| self.bench.fx.engine.infer(&request));
        self.bench.ops.op("infer (replayed)", inferred)?;
        let infer = self.child(serve, "exec.infer", ns);
        let output = self.replay_infer(infer, &request.features);
        self.bench.ops.check(
            "replayed stages == infer == ServingEngine reply",
            bit_identical(&output, &self.bench.expected)
                && bit_identical(&served.output, &self.bench.expected),
        );

        let response_frame = Frame::Ok { id, output };
        let (response_bytes, ns) = timed(|| wire::encode(&response_frame));
        self.child(gateway, "gateway.wire_encode_resp", ns);
        self.resp_bytes = response_bytes.len();
        let (decoded, ns) = timed(|| wire::decode(&response_bytes));
        self.child(gateway, "gateway.wire_decode_resp", ns);
        self.bench.ops.check(
            "wire response round trip",
            matches!(decoded, Decoded::Frame(Frame::Ok { output, .. }, _, _)
                if bit_identical(&output, &self.bench.expected)),
        );

        self.self_time(gateway, "gateway.binary_unattributed");
        self.self_time(serve, "serve.overhead");
        self.self_time(infer, "exec.infer_unattributed");
        Some(())
    }

    /// `infer`'s stages through the layers' public functions, under
    /// span `parent`; returns the output in original node order.
    fn replay_infer(&mut self, parent: usize, features: &SparseFeatures) -> DenseMatrix {
        let engine = &self.bench.fx.engine;
        let inputs = &self.bench.fx.inputs;
        let layout = engine.layout();
        let n = layout.graph().num_nodes();

        let (norm, ns) = timed(|| inputs.model.normalization(layout.graph()));
        let mut spans = vec![("gnn.normalization", ns)];
        let (_, ns) =
            timed(|| features.gather_rows_into(layout.gather_order(), &mut self.gathered));
        spans.push(("graph.gather_rows", ns));

        self.layer_stats.clear();
        let (mut src, mut dst) = (&mut self.ping, &mut self.pong);
        for (i, layer) in inputs.model.layers().iter().enumerate() {
            let w = inputs.weights.layer(i);
            dst.resize_in_place(n, w.cols());
            let input =
                if i == 0 { LayerInput::Sparse(&self.gathered) } else { LayerInput::Dense(&*src) };
            let (stats, ns) = timed(|| {
                execute_layer(
                    layout,
                    engine.consumer_config(),
                    input,
                    w,
                    &norm,
                    layer.activation,
                    &mut self.scratch,
                    dst.as_mut_slice(),
                )
            });
            self.layer_stats.push(stats);
            spans.push((LAYER_SPANS[i.min(LAYER_SPANS.len() - 1)], ns));
            std::mem::swap(&mut src, &mut dst);
        }

        let (out, ns) = timed(|| {
            let mut out = DenseMatrix::zeros(n, src.cols());
            for (old, &new) in layout.forward().iter().enumerate() {
                out.row_mut(old).copy_from_slice(src.row(new as usize));
            }
            out
        });
        spans.push(("consumer.scatter", ns));
        for (name, ns) in spans {
            self.child(parent, name, ns);
        }
        out
    }

    /// A cold build, then its two stages through their own functions.
    fn cold_build(&mut self) -> Option<()> {
        let engine = &self.bench.fx.engine;
        let graph = Arc::clone(&self.bench.fx.inputs.graph);
        let (built, ns) = timed(|| IGcnEngine::builder(Arc::clone(&graph)).build().map(drop));
        let (partition, islandize_ns) = timed(|| islandize(&graph, &engine.island_config()));
        let pes = engine.consumer_config().num_pes;
        let (_, compose_ns) = timed(|| IslandLayout::new(&graph, &partition, pes));
        self.bench.ops.op("cold build (traced)", built)?;
        let build = self.root("exec.cold_build", ns);
        self.child(build, "locator.islandize", islandize_ns);
        self.child(build, "layout.compose", compose_ns);
        self.self_time(build, "exec.build_unattributed");
        Some(())
    }

    /// A warm boot, then its two stages: file read + validate, assemble.
    fn warm_boot(&mut self) -> Option<()> {
        let path = self.bench.fx.store.snapshot_path().to_path_buf();
        let (booted, ns) = timed(|| from_snapshot(&path).build().map(drop));
        self.bench.ops.op("warm boot (traced)", booted)?;
        let boot = self.root("store.warm_boot", ns);
        let (snapshot, ns) = timed(|| Snapshot::read(&path));
        let snapshot = self.bench.ops.op("Snapshot.read", snapshot)?;
        self.child(boot, "store.snapshot_read", ns);
        let (engine, ns) = timed(|| snapshot.warm_engine(ExecConfig::default()).map(drop));
        self.bench.ops.op("Snapshot.warm_engine", engine)?;
        self.child(boot, "store.warm_engine", ns);
        Some(())
    }

    /// `IGcnEngine::apply_update` directly (no store, no log): an add
    /// batch, then the removal of the same batch.
    fn incremental(&mut self) -> Option<()> {
        let batch = self.bench.fx.batches.next_batch(&self.bench.fx.inputs.graph);
        let live = &mut self.bench.fx.live;
        let (added, add_ns) = timed(|| live.apply_update(GraphUpdate::add_edges(batch.clone())));
        let added = self.bench.ops.op("apply_update (add)", added)?;
        let live = &mut self.bench.fx.live;
        let (removed, remove_ns) = timed(|| live.apply_update(GraphUpdate::remove_edges(batch)));
        let removed = self.bench.ops.op("apply_update (remove)", removed)?;
        self.root("incremental.add", add_ns);
        self.root("incremental.remove", remove_ns);
        self.record("incremental.dissolved_islands", added.dissolved_islands as f64);
        self.record("incremental.dissolved_islands", removed.dissolved_islands as f64);
        Some(())
    }
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok());
    kb.map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Median of stage `stage` in the gateway's own `GET /stats`, in ms.
fn stats_stage_p50_ms(stats: &JsonValue, stage: &str) -> f64 {
    let p50 = stats.get("stages").and_then(|s| s.get(stage)).and_then(|s| s.get("p50_ns"));
    p50.and_then(JsonValue::as_f64).map_or(f64::NAN, |ns| ns / 1e6)
}

impl Bench {
    /// The traced pass. Returns the per-layer metrics `BENCHMARK.json`
    /// names, the readings only some workloads have, and the spans.
    pub fn per_layer(&mut self, seconds: f64) -> Res<(Vec<Metric>, Vec<Metric>, Tracer)> {
        let fx = &self.fx;
        let inputs = &fx.inputs;
        let n = inputs.graph.num_nodes();

        let mut parallel = fx.engine.clone();
        parallel.set_exec_config(ExecConfig::default().with_threads(crate::nproc()));
        let mut reference = CpuReference::new(Arc::clone(&inputs.graph));
        reference.prepare(&inputs.model, &inputs.weights).map_err(err)?;
        let mut sim = SimBackend::new(
            IGcnAccelerator::new(HardwareConfig::paper_default()),
            Arc::clone(&inputs.graph),
        );
        sim.prepare(&inputs.model, &inputs.weights).map_err(err)?;

        let x = &inputs.features;
        let triplets: Vec<(u32, u32, f32)> = (0..n)
            .flat_map(|r| {
                let (cols, vals) = x.row((r as u32).into());
                cols.iter().zip(vals).map(move |(&c, &v)| (r as u32, c, v))
            })
            .collect();
        let x_csr = CsrMatrix::from_triplets(n, x.num_cols(), &triplets);
        let hidden = sparse_dense(&x_csr, inputs.weights.layer(0));
        let product = DenseMatrix::zeros(n, inputs.weights.layer(1).cols());

        let serving = ServingEngine::start(Arc::new(fx.engine.clone()), ServingConfig::default());
        let gathered = x.gather_rows(fx.engine.layout().gather_order());
        let mut pass = Pass {
            tracer: Tracer::default(),
            samples: BTreeMap::new(),
            layer_stats: Vec::new(),
            serving,
            parallel,
            reference,
            sim,
            gathered,
            ping: DenseMatrix::zeros(0, 0),
            pong: DenseMatrix::zeros(0, 0),
            scratch: LayerScratch::new(),
            x_csr,
            hidden,
            product,
            bytes: (vec![1u8; MEMCPY_BYTES], vec![0u8; MEMCPY_BYTES]),
            floats: (vec![0.0; AXPY_LEN], vec![1.0; AXPY_LEN], vec![0.5; AXPY_LEN]),
            req_bytes: 0,
            resp_bytes: 0,
            bench: self,
        };
        let sim_report_ms = pass.bench.paper.sim_report_ms;
        pass.record("sim.report", sim_report_ms);
        run_block(seconds, &PHASES, |layer| pass.sample(layer));
        igcn::obs::set_enabled(false);

        let Pass { tracer, samples, layer_stats, serving, req_bytes, resp_bytes, bench, .. } = pass;
        serving.shutdown();
        let fx = &mut bench.fx;
        let (status, body) = fx.http.get("/stats").map_err(err)?;
        let stats = JsonValue::parse(&body).map_err(err)?;
        bench.ops.check("GET /stats answers 200", status == 200);
        let gateway = fx.gateway.stats();

        let get = |name: &str| samples.get(name).cloned().unwrap_or_default();
        let p50 = |name: &str| get(name).median();
        let stat = |f: fn(&LayerExecStats) -> u64| layer_stats.iter().map(f).sum::<u64>() as f64;
        let windows = stat(|l| {
            l.aggregation.windows_reused
                + l.aggregation.windows_direct
                + l.aggregation.windows_skipped
        });
        let engine = &fx.engine;
        let locator = engine.locator_stats();
        let sharding = fx.fleet.sharding_report();
        let work: Vec<f64> = sharding.per_shard.iter().map(|s| s.work as f64).collect();
        let mean_work = work.iter().sum::<f64>() / work.len() as f64;
        let infer = p50("exec.infer");
        let cold = p50("exec.cold_build");
        let binary = p50("gateway.binary");
        let update = (p50("incremental.add") + p50("incremental.remove")) / 2.0;
        let layers_ms = p50("consumer.layer0") + p50("consumer.layer1");

        let m = Metric::new;
        let t = |name, samples: &str| Metric::timing(name, "ms", &get(samples));
        let metrics = vec![
            Metric::timing("host.memcpy_gbps", "GB/s", &get("host.memcpy_gbps")),
            m("host.peak_rss_mb", peak_rss_mb(), "MB"),
            m("graph.generate_ms", fx.generate_ms, "ms"),
            t("graph.gather_rows_ms", "graph.gather_rows"),
            t("linalg.xw0_ms", "linalg.xw0"),
            t("linalg.xw1_ms", "linalg.xw1"),
            Metric::timing("linalg.gemm_gflops", "GFLOP/s", &get("linalg.gemm_gflops")),
            Metric::timing("linalg.axpy_gbps", "GB/s", &get("linalg.axpy_gbps")),
            t("locator.islandize_ms", "locator.islandize"),
            m("locator.rounds", locator.num_rounds() as f64, "count"),
            m("locator.islands", engine.partition().num_islands() as f64, "count"),
            m("locator.hub_frac", engine.partition().hub_fraction(), "fraction"),
            m("locator.task_drop_frac", locator.drop_fraction(), "fraction"),
            m("locator.adjacency_mb_read", locator.adjacency_words_read as f64 * 4.0 / 1e6, "MB"),
            t("layout.compose_ms", "layout.compose"),
            t("consumer.layer0_ms", "consumer.layer0"),
            t("consumer.layer1_ms", "consumer.layer1"),
            m("consumer.agg_proxy_ms", layers_ms - p50("linalg.xw0") - p50("linalg.xw1"), "ms"),
            t("consumer.scatter_ms", "consumer.scatter"),
            t("consumer.account_ms", "consumer.account"),
            m("consumer.island_tasks", stat(|l| l.island_tasks), "count"),
            m("consumer.inter_hub_tasks", stat(|l| l.inter_hub_tasks), "count"),
            m(
                "consumer.windows_reused_frac",
                if windows > 0.0 { stat(|l| l.aggregation.windows_reused) / windows } else { 0.0 },
                "fraction",
            ),
            m("consumer.xw_cache_hits", stat(|l| l.hub_path.xw_cache_hits), "count"),
            t("exec.infer_ms_p50", "exec.infer"),
            t("exec.cold_build_ms_p50", "exec.cold_build"),
            t("exec.infer_unattributed_ms", "exec.infer_unattributed"),
            t("exec.build_unattributed_ms", "exec.build_unattributed"),
            t("exec.infer_par_ms_p50", "exec.infer_par"),
            Metric::tail("exec.infer_ms_tail", "ms", &get("exec.infer")),
            m("exec.vs_reference_ratio", infer / p50("gnn.reference_infer"), "ratio"),
            m("exec.output_max_abs_err", bench.reference_error as f64, "abs"),
            t("incremental.add_ms_p50", "incremental.add"),
            t("incremental.remove_ms_p50", "incremental.remove"),
            m(
                "incremental.dissolved_islands_mean",
                get("incremental.dissolved_islands").mean(),
                "count",
            ),
            m("incremental.vs_cold_ratio", update / cold, "ratio"),
            t("store.update_ms_p50", "store.update"),
            t("store.warm_boot_ms_p50", "store.warm_boot"),
            t("store.wal_boot_ms_p50", "store.wal_boot"),
            m("store.snapshot_mb", fx.snapshot_bytes as f64 / 1e6, "MB"),
            t("store.snapshot_write_ms", "store.snapshot_write"),
            t("store.snapshot_read_ms", "store.snapshot_read"),
            t("store.warm_engine_ms", "store.warm_engine"),
            t("store.wal_append_ms_p50", "store.wal_append"),
            m("store.wal_replay_ms", p50("store.wal_boot") - p50("store.warm_boot"), "ms"),
            m("store.warm_vs_cold_ratio", p50("store.warm_boot") / cold, "ratio"),
            t("shard.infer_ms_p50", "shard.infer"),
            t("shard.build_ms", "shard.build"),
            m("shard.overhead_ratio", p50("shard.infer") / infer, "ratio"),
            m(
                "shard.halo_kb_per_infer",
                fx.fleet.halo_bytes_per_inference(&fx.inputs.model) as f64 / 1024.0,
                "KB",
            ),
            m("shard.work_balance", work.iter().cloned().fold(0.0, f64::max) / mean_work, "ratio"),
            m("shard.cut_frac", sharding.cut_fraction, "fraction"),
            m("shard.hub_replication", sharding.replication_factor, "ratio"),
            t("serve.submit_wait_ms_p50", "serve.submit_wait"),
            t("serve.overhead_ms", "serve.overhead"),
            t("gateway.binary_ms_p50", "gateway.binary"),
            t("gateway.http_ms_p50", "gateway.http"),
            Metric::timing("gateway.rps_2clients", "req/s", &get("gateway.rps_2clients")),
            m("gateway.req_bytes", req_bytes as f64, "bytes"),
            m("gateway.resp_bytes", resp_bytes as f64, "bytes"),
            t("gateway.wire_encode_req_ms", "gateway.wire_encode_req"),
            t("gateway.wire_decode_req_ms", "gateway.wire_decode_req"),
            t("gateway.wire_encode_resp_ms", "gateway.wire_encode_resp"),
            t("gateway.wire_decode_resp_ms", "gateway.wire_decode_resp"),
            t("gateway.binary_unattributed_ms", "gateway.binary_unattributed"),
            m("gateway.binary_overhead_ratio", binary / infer, "ratio"),
            m("gateway.http_over_binary_ratio", p50("gateway.http") / binary, "ratio"),
            Metric::tail("gateway.binary_ms_tail", "ms", &get("gateway.binary")),
            Metric::tail("gateway.http_ms_tail", "ms", &get("gateway.http")),
            m(
                "gateway.stage_queue_wait_ms_p50",
                stats_stage_p50_ms(&stats, igcn::obs::stage::QUEUE_WAIT),
                "ms",
            ),
            m(
                "gateway.stage_dispatch_ms_p50",
                stats_stage_p50_ms(&stats, igcn::obs::stage::DISPATCH),
                "ms",
            ),
            m("gateway.shed", gateway.shed as f64, "count"),
            m("gateway.failed", gateway.failed as f64, "count"),
            t("sim.report_ms", "sim.report"),
            m("sim.cycles", bench.paper.sim.cycles as f64, "count"),
            m("sim.energy_uj", bench.paper.sim.energy_j * 1e6, "uJ"),
            m("obs.telemetry_on_ratio", binary / p50("gateway.binary_telemetry_off"), "ratio"),
            m("obs.trace_overhead_ratio", infer / p50("infer_untraced"), "ratio"),
        ];
        // The simulator's error is stated only where the paper gives a
        // value to hold it against; elsewhere the model is unvalidated.
        let extras = fx
            .inputs
            .table2_latency_us
            .map(|paper_us| {
                let error = (bench.paper.sim.latency_us() - paper_us).abs() / paper_us;
                vec![m("sim.latency_err_frac", error, "fraction")]
            })
            .unwrap_or_default();
        Ok((metrics, extras, tracer))
    }
}
