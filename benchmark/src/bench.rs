//! One run: set-up, the checks, then either the untraced pass (the
//! end-to-end metrics) or the traced pass (the per-layer metrics, in
//! `layers.rs`).

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use igcn::core::accel::{Accelerator, ExecReport};
use igcn::core::{CpuReference, ExecConfig, GraphUpdate, IGcnEngine};
use igcn::gateway::{GatewayConfig, InferReply};
use igcn::gnn::ModelWeights;
use igcn::linalg::DenseMatrix;
use igcn::serve::{ServingConfig, ServingEngine};
use igcn::sim::{HardwareConfig, IGcnAccelerator, SimBackend};
use igcn::store::from_snapshot;

use crate::fixture::{Fixture, Wrap};
use crate::report::{Metric, Outcome};
use crate::sched::{run_block, Phase};
use crate::stats::Samples;
use crate::{err, Res};

/// The workload is set up at least this many times before the block
/// (the last fixture is kept), and on while set-up is cheap: until the
/// samples have taken `SETUP_FILL_S` seconds or there are `MAX_SETUPS`
/// of them. The block then goes on sampling it like every other call.
pub const MIN_SETUPS: usize = 3;
pub const MAX_SETUPS: usize = 15;
const SETUP_FILL_S: f64 = 1.5;
/// `setup_s` is this quantile of the run's set-ups: a set-up lasts too
/// long to dodge one of the box's slow spells, so the reading is taken
/// from the part of the run the box left alone (see the README).
const SETUP_QUANTILE: f64 = 0.10;
/// Outputs are compared with the plain software reference to this.
pub const TOLERANCE: f32 = 1e-4;

/// Operations attempted and failed. A reply other than `Output`, a
/// typed error from any layer and a failed check are failed operations.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the report.
    pub failures: Vec<String>,
}

impl Ops {
    pub fn check(&mut self, what: &str, ok: bool) -> bool {
        self.attempted += 1;
        if !ok {
            self.fail(what.to_string());
        }
        ok
    }

    /// Counts one operation; a failure is recorded and becomes `None`.
    pub fn op<T, E: std::fmt::Display>(&mut self, what: &str, result: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(format!("{what}: {e}"));
                None
            }
        }
    }

    /// Counts `attempted` operations of which `failed` failed.
    pub fn count(&mut self, what: &str, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            self.note(format!("{what} ({failed} times)"));
        }
    }

    fn fail(&mut self, message: String) {
        self.failed += 1;
        self.note(message);
    }

    fn note(&mut self, message: String) {
        if self.failures.len() < 20 {
            self.failures.push(message);
        }
    }
}

pub fn bit_identical(a: &DenseMatrix, b: &DenseMatrix) -> bool {
    a.rows() == b.rows()
        && a.cols() == b.cols()
        && a.as_slice().iter().zip(b.as_slice()).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Times `f`, returning its result and the elapsed nanoseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let start = Instant::now();
    let value = std::hint::black_box(f());
    (value, start.elapsed().as_nanos() as u64)
}

pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// The three paper columns plus what the simulator reported with them.
pub struct PaperColumns {
    pub agg_ops_executed_frac: f64,
    pub offchip_mb_per_infer: f64,
    pub sim: ExecReport,
    /// Host time of the simulator's `report` call.
    pub sim_report_ms: f64,
}

/// The public calls the untraced pass times. One sample is one call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `Fixture::set_up`: the whole set-up, once more.
    SetUp,
    /// `CpuReference::infer`, the plain software implementation.
    Reference,
    Infer,
    ColdBuild,
    WarmBoot,
    WalBoot,
    Update,
    ShardInfer,
    /// `ServingEngine::submit` + `Ticket::wait`, in process.
    Serve,
    GatewayBinary,
    GatewayHttp,
}

impl Op {
    pub const ALL: [Op; 11] = [
        Op::SetUp,
        Op::Reference,
        Op::Infer,
        Op::ColdBuild,
        Op::WarmBoot,
        Op::WalBoot,
        Op::Update,
        Op::ShardInfer,
        Op::Serve,
        Op::GatewayBinary,
        Op::GatewayHttp,
    ];

    /// Name of the call's own reading: the median of its samples, in
    /// milliseconds. Printed and written with every run, but not bounded
    /// (see the README: a wall-clock time cannot be held on this box).
    pub fn reading(self) -> &'static str {
        match self {
            Op::SetUp => "setup_ms_p50",
            Op::Reference => "reference_infer_ms_p50",
            Op::Infer => "infer_ms_p50",
            Op::ColdBuild => "cold_build_ms_p50",
            Op::WarmBoot => "warm_boot_ms_p50",
            Op::WalBoot => "wal_boot_ms_p50",
            Op::Update => "update_ms_p50",
            Op::ShardInfer => "shard_infer_ms_p50",
            Op::Serve => "serve_ms_p50",
            Op::GatewayBinary => "gateway_binary_ms_p50",
            Op::GatewayHttp => "gateway_http_ms_p50",
        }
    }

    /// The gateway calls run with telemetry as `Gateway::serve` leaves
    /// it — on, what an operator gets (a set-up calls `Gateway::serve`);
    /// the in-process calls with it off, which is how a bare engine runs.
    fn telemetry_on(self) -> bool {
        matches!(self, Op::SetUp | Op::GatewayBinary | Op::GatewayHttp)
    }
}

/// One bounded end-to-end metric: what `num` costs in units of `den`.
/// A sample is the two calls timed back to back, so whatever the box is
/// doing to this process in that moment falls on both and cancels.
/// Without a `den` it is `num`'s own time (`setup_s`, which the contract
/// wants in seconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pair {
    pub name: &'static str,
    pub num: Op,
    pub den: Option<Op>,
}

/// One `gateway.rps_2clients` window lasts this long, and until every
/// client has this many replies.
const RPS_WINDOW_S: f64 = 0.25;
const RPS_WINDOW_REPLIES: u64 = 4;

/// Samples of every phase are at least this many.
const MIN_SAMPLES: usize = 5;

const fn phase(name: &'static str, num: Op, den: Op, share: f64) -> Phase<Pair> {
    Phase { id: Pair { name, num, den: Some(den) }, share, min_samples: MIN_SAMPLES }
}

/// One block over the whole run, so that every metric samples the whole
/// of it. Shares follow what a pair costs on the dearest workload, so
/// that it still reaches `MIN_SAMPLES` of everything inside the run's
/// seconds.
pub const PHASES: [Phase<Pair>; 10] = [
    // The set-ups before the block count too: no floor of its own.
    Phase { id: Pair { name: "setup_s", num: Op::SetUp, den: None }, share: 1.5, min_samples: 0 },
    phase("infer_vs_reference", Op::Infer, Op::Reference, 1.5),
    phase("cold_build_vs_infer", Op::ColdBuild, Op::Infer, 2.5),
    phase("warm_vs_cold_boot", Op::WarmBoot, Op::ColdBuild, 2.0),
    phase("wal_vs_warm_boot", Op::WalBoot, Op::WarmBoot, 2.0),
    phase("update_vs_cold_build", Op::Update, Op::ColdBuild, 2.0),
    phase("shard_vs_infer", Op::ShardInfer, Op::Infer, 3.0),
    phase("serve_vs_infer", Op::Serve, Op::Infer, 2.0),
    phase("gateway_binary_vs_serve", Op::GatewayBinary, Op::Serve, 2.0),
    phase("gateway_http_vs_binary", Op::GatewayHttp, Op::GatewayBinary, 3.0),
];

pub struct Bench {
    // What `Fixture::set_up` was called with, to call it again.
    workload: String,
    seed: u64,
    out_dir: PathBuf,
    wrap: Wrap,
    pub fx: Fixture,
    pub ops: Ops,
    /// What in-process `infer` answers: every other path must match it
    /// bit for bit.
    pub expected: DenseMatrix,
    /// The serving tier over the served backend, as the gateway runs its own.
    serving: ServingEngine,
    /// The plain software reference, prepared on the base graph, and
    /// what it answers.
    cpu: CpuReference,
    reference: DenseMatrix,
    /// Largest absolute difference between the two.
    pub reference_error: f32,
    /// The run's set-ups, in seconds.
    setups: Samples,
    pub paper: PaperColumns,
    /// An add batch `Op::Update` has applied and not yet removed.
    pending_removal: Option<Vec<(u32, u32)>>,
    next_id: u64,
    /// Every call's own samples in milliseconds, by `Op as usize`.
    raw: [Samples; Op::ALL.len()],
}

impl Bench {
    /// Sets the workload up (several times: `setup_s` is the median),
    /// runs the checks and computes the paper columns.
    pub fn set_up(workload: &str, seed: u64, out_dir: &Path, wrap: Wrap) -> Res<Bench> {
        std::fs::create_dir_all(out_dir).map_err(err)?;
        let begun = Instant::now();
        let mut setups = Samples::default();
        let mut fixture = None;
        while setups.len() < MIN_SETUPS
            || (setups.len() < MAX_SETUPS && begun.elapsed().as_secs_f64() < SETUP_FILL_S)
        {
            drop(fixture.take());
            let start = Instant::now();
            fixture = Some(Fixture::set_up(workload, seed, out_dir, wrap)?);
            setups.push(start.elapsed().as_secs_f64());
        }
        let fx = fixture.expect("MIN_SETUPS > 0");

        let expected = fx.engine.infer(&fx.request).map_err(err)?.output;
        let mut cpu = CpuReference::new(Arc::clone(&fx.inputs.graph));
        cpu.prepare(&fx.inputs.model, &fx.inputs.weights).map_err(err)?;
        let reference = cpu.infer(&fx.request).map_err(err)?.output;
        let reference_error = expected.max_abs_diff(&reference);
        let mut ops = Ops::default();
        ops.attempted += setups.len() as u64;
        let paper = paper_columns(&fx, &mut ops)?;
        let serving =
            ServingEngine::start(Arc::clone(&fx.served), GatewayConfig::default().serving);
        let mut raw: [Samples; Op::ALL.len()] = Default::default();
        raw[Op::SetUp as usize] = Samples(setups.0.iter().map(|s| s * 1e3).collect());
        let mut bench = Bench {
            workload: workload.to_string(),
            seed,
            out_dir: out_dir.to_path_buf(),
            wrap,
            fx,
            ops,
            expected,
            serving,
            cpu,
            reference,
            reference_error,
            setups,
            paper,
            pending_removal: None,
            next_id: 0,
            raw,
        };
        bench.verify();
        Ok(bench)
    }

    pub fn next_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    /// Counts a gateway reply as one operation; it succeeds only as an
    /// `Output` bit-identical to in-process `infer`.
    pub fn reply_ok(&mut self, what: &str, reply: std::io::Result<InferReply>) -> bool {
        let verdict = match reply {
            Ok(InferReply::Output { output, .. }) if bit_identical(&output, &self.expected) => {
                Ok(())
            }
            Ok(InferReply::Output { .. }) => {
                Err("output differs from in-process infer".to_string())
            }
            Ok(other) => Err(format!("reply was {other:?}")),
            Err(e) => Err(e.to_string()),
        };
        self.ops.op(what, verdict).is_some()
    }

    /// The checks of the issue, each one attempted operation.
    fn verify(&mut self) {
        let Bench { fx, ops, expected, .. } = self;
        let request = &fx.request;
        let same = |output: &DenseMatrix| bit_identical(output, expected);

        ops.check(
            &format!("infer within {TOLERANCE} of CpuReference (got {})", self.reference_error),
            self.reference_error <= TOLERANCE,
        );
        let response = fx.engine.infer(request);
        let report = fx.engine.report(request);
        ops.check(
            "report() == infer().report",
            matches!((&response, &report), (Ok(response), Ok(report)) if response.report == *report),
        );
        let served = fx.served.infer(request);
        ops.check("served backend == infer", served.is_ok_and(|r| same(&r.output)));

        let warm = from_snapshot(fx.store.snapshot_path()).build().map_err(err);
        let warm = warm.and_then(|engine| engine.infer(request).map_err(err));
        ops.check("warm-booted engine == infer", warm.is_ok_and(|r| same(&r.output)));
        let fleet = fx.fleet.infer(request);
        ops.check("2-shard fleet == infer", fleet.is_ok_and(|r| same(&r.output)));

        let serving = ServingEngine::start(Arc::new(fx.engine.clone()), ServingConfig::default());
        let reply = serving.submit(request.clone()).and_then(|ticket| ticket.wait());
        serving.shutdown();
        ops.check("ServingEngine reply == infer", reply.is_ok_and(|r| same(&r.output)));

        let booted = fx.wal_store.boot(ExecConfig::default());
        let replayed = booted.as_ref().map_or(0, |b| b.replayed_updates);
        let booted = booted.map_err(err).and_then(|b| b.engine.infer(request).map_err(err));
        let live = fx.wal_live.infer(request);
        ops.check(
            "WAL-booted engine == the live engine that applied the same updates",
            replayed == crate::fixture::WAL_RECORDS
                && matches!((&booted, &live), (Ok(a), Ok(b)) if bit_identical(&a.output, &b.output)),
        );

        let id = self.next_id();
        let reply = self.fx.binary[0].infer(id, None, &self.fx.request.features);
        self.reply_ok("gateway binary reply == infer", reply);
        let id = self.next_id();
        let reply = self.fx.http.infer(id, None, &self.fx.request.features);
        self.reply_ok("gateway HTTP reply == infer", reply);
    }

    /// After the add/remove pairs the updated engine must still answer
    /// like the base graph's reference.
    fn verify_after_updates(&mut self) {
        let live = &self.fx.live;
        let same_graph = *live.graph_arc() == *self.fx.inputs.graph;
        let error = live.infer(&self.fx.request).map(|r| r.output.max_abs_diff(&self.reference));
        self.ops.check(
            "after the add/remove pairs: graph back to base, output within tolerance",
            same_graph && error.is_ok_and(|e| e <= TOLERANCE),
        );
    }

    /// One sample of a bounded metric: the pair's two calls back to
    /// back, and how many of the second the first costs.
    pub fn sample(&mut self, pair: Pair) -> Option<f64> {
        let num = self.time(pair.num)?;
        let Some(den) = pair.den else { return Some(num) };
        Some(num / self.time(den)?)
    }

    /// One timed call, in milliseconds; also kept as the call's own sample.
    pub fn time(&mut self, op: Op) -> Option<f64> {
        igcn::obs::set_enabled(op.telemetry_on());
        let value = self.time_inner(op);
        // Nothing an in-process call makes may switch telemetry on.
        self.ops.check("telemetry is as the call set it", {
            igcn::obs::enabled() == op.telemetry_on()
        });
        if let Some(ms) = value {
            self.raw[op as usize].push(ms);
        }
        value
    }

    fn time_inner(&mut self, op: Op) -> Option<f64> {
        let fx = &mut self.fx;
        match op {
            Op::SetUp => {
                let (fixture, ns) =
                    timed(|| Fixture::set_up(&self.workload, self.seed, &self.out_dir, self.wrap));
                // Dropped here: its gateway shuts down, its files go.
                self.ops.op("set-up", fixture)?;
                self.setups.push(ns as f64 / 1e9);
                Some(ms(ns))
            }
            Op::Reference => {
                let (result, ns) = timed(|| self.cpu.infer(&fx.request));
                self.ops.op("CpuReference.infer", result).map(|_| ms(ns))
            }
            Op::Infer => {
                let (result, ns) = timed(|| fx.served.infer(&fx.request));
                let out = self.ops.op("infer", result)?;
                self.ops.check("infer repeats", bit_identical(&out.output, &self.expected));
                Some(ms(ns))
            }
            Op::ColdBuild => {
                let (result, ns) =
                    timed(|| IGcnEngine::builder(Arc::clone(&fx.inputs.graph)).build());
                self.ops.op("cold build", result).map(|_| ms(ns))
            }
            Op::WarmBoot => {
                let (result, ns) = timed(|| from_snapshot(fx.store.snapshot_path()).build());
                self.ops.op("warm boot", result).map(|_| ms(ns))
            }
            Op::WalBoot => {
                let (result, ns) = timed(|| fx.wal_store.boot(ExecConfig::default()));
                self.ops.op("WAL boot", result).map(|_| ms(ns))
            }
            Op::Update => self.update_sample(false),
            Op::ShardInfer => {
                let (result, ns) = timed(|| fx.fleet.infer(&fx.request));
                let out = self.ops.op("shard infer", result)?;
                self.ops.check("shard infer == infer", bit_identical(&out.output, &self.expected));
                Some(ms(ns))
            }
            Op::Serve => {
                // A caller owns its request: the copy is not part of the call.
                let request = fx.request.clone();
                let (reply, ns) =
                    timed(|| self.serving.submit(request).and_then(|ticket| ticket.wait()));
                let out = self.ops.op("ServingEngine submit + wait", reply)?;
                self.ops.check("served reply == infer", bit_identical(&out.output, &self.expected));
                Some(ms(ns))
            }
            Op::GatewayBinary => {
                self.next_id += 1;
                let id = self.next_id;
                let (reply, ns) = timed(|| fx.binary[0].infer(id, None, &fx.request.features));
                self.reply_ok("gateway binary", reply).then_some(ms(ns))
            }
            Op::GatewayHttp => {
                self.next_id += 1;
                let id = self.next_id;
                let (reply, ns) = timed(|| fx.http.infer(id, None, &fx.request.features));
                self.reply_ok("gateway HTTP", reply).then_some(ms(ns))
            }
        }
    }

    /// One update of the live engine: a fresh add batch, or the removal
    /// of the batch the previous sample added. `durable` sends it
    /// through `EngineStore::apply_update` (WAL append and `fsync`
    /// first); otherwise it is `IGcnEngine::apply_update` alone.
    pub fn update_sample(&mut self, durable: bool) -> Option<f64> {
        let (update, added) = match self.pending_removal.take() {
            Some(batch) => (GraphUpdate::remove_edges(batch), None),
            None => {
                let batch = self.fx.batches.next_batch(&self.fx.inputs.graph);
                (GraphUpdate::add_edges(batch.clone()), Some(batch))
            }
        };
        let fx = &mut self.fx;
        let ns = if durable {
            let (result, ns) = timed(|| fx.store.apply_update(&mut fx.live, update));
            self.ops.op("store.apply_update", result)?;
            ns
        } else {
            let (result, ns) = timed(|| fx.live.apply_update(update));
            self.ops.op("engine.apply_update", result)?;
            ns
        };
        self.pending_removal = added;
        Some(ms(ns))
    }

    /// Replies with `Output` per second from the closed-loop binary
    /// clients over one window: each client sends until the window
    /// closes and it has `RPS_WINDOW_REPLIES`, and finishes the request
    /// it has in flight; its rate is its replies over its own elapsed
    /// time, and the rates add up.
    pub fn rps_window(&mut self) -> Option<f64> {
        let features = &self.fx.request.features;
        let expected = &self.expected;
        let start = Instant::now();
        let results: Vec<(u64, u64, f64)> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .fx
                .binary
                .iter_mut()
                .enumerate()
                .map(|(c, client)| {
                    scope.spawn(move || {
                        let (mut good, mut bad) = (0u64, 0u64);
                        while good + bad < RPS_WINDOW_REPLIES
                            || start.elapsed().as_secs_f64() < RPS_WINDOW_S
                        {
                            let id = (c as u64) << 32 | (good + bad);
                            match client.infer(id, None, features) {
                                Ok(InferReply::Output { output, .. })
                                    if bit_identical(&output, expected) =>
                                {
                                    good += 1
                                }
                                _ => bad += 1,
                            }
                        }
                        (good, bad, start.elapsed().as_secs_f64())
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
        });
        let mut rps = 0.0;
        for (good, bad, elapsed_s) in results {
            self.ops.count("rps window: reply is not an Output == infer", good + bad, bad);
            rps += good as f64 / elapsed_s;
        }
        (rps > 0.0).then_some(rps)
    }

    /// The untraced pass: the end-to-end metrics and the calls' own readings.
    fn end_to_end(&mut self, seconds: f64) -> (Vec<Metric>, Vec<Metric>) {
        let samples = run_block(seconds, &PHASES, |pair| self.sample(pair));
        self.finish(&samples)
    }

    /// Ends the untraced pass — the last update pair, the check that the
    /// graph is back in its base state — and turns the samples of
    /// [`PHASES`] into the end-to-end metrics. Second: every call's own
    /// median in milliseconds, reported but not bounded.
    pub fn finish(&mut self, samples: &[Samples]) -> (Vec<Metric>, Vec<Metric>) {
        if self.pending_removal.is_some() {
            // Finish the pair so the graph is back in its base state.
            self.time(Op::Update);
        }
        igcn::obs::set_enabled(false);
        self.verify_after_updates();

        let mut metrics = vec![Metric::quantile("setup_s", "s", &self.setups, SETUP_QUANTILE)];
        for (phase, samples) in PHASES.iter().zip(samples) {
            if phase.id.den.is_some() {
                metrics.push(Metric::timing(phase.id.name, "ratio", samples));
            }
        }
        metrics.extend([
            Metric::new("engine_heap_mb", self.fx.engine_heap_bytes as f64 / 1e6, "MB"),
            Metric::new("agg_ops_executed_frac", self.paper.agg_ops_executed_frac, "fraction"),
            Metric::new("offchip_mb_per_infer", self.paper.offchip_mb_per_infer, "MB"),
            Metric::new("sim_latency_us", self.paper.sim.latency_us(), "us"),
        ]);
        let readings = Op::ALL
            .iter()
            .map(|&op| Metric::timing(op.reading(), "ms", &self.raw[op as usize]))
            .collect();
        (metrics, readings)
    }
}

/// `agg_ops_executed_frac`, `offchip_mb_per_infer`, `sim_latency_us`:
/// modelled quantities that repeat exactly for a seed.
fn paper_columns(fx: &Fixture, ops: &mut Ops) -> Res<PaperColumns> {
    let model = &fx.inputs.paper_model;
    let weights = ModelWeights::glorot(model, 0);
    let mut engine = fx.engine.clone();
    engine.prepare(model, &weights).map_err(err)?;
    let report = ops.op("engine.report (paper model)", engine.report(&fx.request));
    let report = report.ok_or("engine.report failed")?;

    let mut sim = SimBackend::new(
        IGcnAccelerator::new(HardwareConfig::paper_default()),
        Arc::clone(&fx.inputs.graph),
    );
    sim.prepare(model, &weights).map_err(err)?;
    let (sim_report, ns) = timed(|| sim.report(&fx.request));
    let sim = ops.op("SimBackend.report", sim_report).ok_or("SimBackend.report failed")?;
    Ok(PaperColumns {
        agg_ops_executed_frac: 1.0 - report.aggregation_pruning_rate,
        offchip_mb_per_infer: report.offchip_bytes as f64 / 1e6,
        sim,
        sim_report_ms: ms(ns),
    })
}

/// Runs one workload once and returns everything the report needs.
pub fn run(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: &Path,
    wrap: Wrap,
) -> Res<Outcome> {
    let wall = Instant::now();
    let mut bench = Bench::set_up(workload, seed, out_dir, wrap)?;
    let (metrics, extras, spans) = if trace {
        let (metrics, extras, tracer) = bench.per_layer(seconds)?;
        (metrics, extras, Some(tracer))
    } else {
        let (metrics, readings) = bench.end_to_end(seconds);
        (metrics, readings, None)
    };

    let config = crate::report::config_json(&bench.fx, seed, seconds);
    let Ops { attempted, failed, failures } = std::mem::take(&mut bench.ops);
    drop(bench);
    Ok(Outcome {
        workload: workload.to_string(),
        seed,
        trace,
        metrics,
        extras,
        attempted,
        failed,
        failures,
        config,
        spans,
        wall_s: wall.elapsed().as_secs_f64(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::json::JsonValue;

    fn names(spec: &JsonValue, list: &str) -> Vec<(String, String)> {
        let entries = spec.get(list).and_then(JsonValue::as_array).expect(list);
        let text =
            |e: &JsonValue, key: &str| e.get(key).and_then(JsonValue::as_str).unwrap().to_string();
        entries.iter().map(|e| (text(e, "name"), text(e, "unit"))).collect()
    }

    /// A second seed runs clean in both passes, and each pass reports
    /// exactly the metrics `BENCHMARK.json` names for it, units included.
    #[test]
    fn seed_7_runs_clean_and_reports_what_benchmark_json_names() {
        let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
        let spec = std::fs::read_to_string(manifest.join("../BENCHMARK.json")).unwrap();
        let spec = JsonValue::parse(&spec).unwrap();
        let out = crate::default_out_dir().join("test-smoke");
        for (trace, list) in [(false, "end_to_end"), (true, "per_layer")] {
            let outcome = run("cora_edge", 7, 2.0, trace, &out, |engine| Arc::new(engine)).unwrap();
            assert_eq!(outcome.failed, 0, "{:?}", outcome.failures);
            assert!(outcome.attempted > 50);
            let reported: Vec<(String, String)> =
                outcome.metrics.iter().map(|m| (m.name.to_string(), m.unit.to_string())).collect();
            assert_eq!(reported, names(&spec, list));
            for m in &outcome.metrics {
                assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
            }
            assert_eq!(outcome.spans.is_some(), trace);
        }
        std::fs::remove_dir_all(&out).unwrap();
    }
}
