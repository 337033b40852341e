//! Sensitivity self-test: does the benchmark see a change it should see,
//! and only where it should? `cora_edge` is set up twice, once as it is
//! and once served through [`Delayed`], which spends a known time in
//! every `infer`. The metrics that cross `infer` must rise by that time;
//! the ones that do not must stay put. The two are sampled in the same
//! block, phase beside phase, so the box's noise falls on both alike.

use std::sync::Arc;
use std::time::{Duration, Instant};

use igcn::core::accel::{
    Accelerator, BackendHealth, ExecReport, InferenceRequest, InferenceResponse,
};
use igcn::core::CoreError;
use igcn::gnn::{GnnModel, ModelWeights};
use igcn::graph::CsrGraph;

use crate::bench::{Bench, PHASES};
use crate::report::Metric;
use crate::sched::{run_block, Phase};
use crate::stats::Samples;
use crate::Res;

const DELAY_MS: f64 = 5.0;
/// The injected delay must show in `infer` to within this share of itself.
const DELAY_TOLERANCE: f64 = 0.20;
/// The gateway's IO loop finds completed requests on a 2 ms tick, so a
/// round trip moves in steps of up to that: there the delay must show
/// to within one tick.
const GATEWAY_TICK_MS: f64 = 2.0;
/// Wall-clock metrics that do not cross `infer` may drift this much
/// between two runs on a shared box; the injected 5 ms would be a
/// several-fold change on either of them.
const UNMOVED_TOLERANCE: f64 = 0.25;
/// Seconds each of the two gets.
const SECONDS: f64 = 10.0;
/// Throughput windows each of the two gets.
const RPS_WINDOWS: usize = 8;

/// Busy-waits `delay` in front of every `infer` of `inner`.
struct Delayed<A> {
    inner: A,
    delay: Duration,
}

impl<A: Accelerator> Accelerator for Delayed<A> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn graph(&self) -> &CsrGraph {
        self.inner.graph()
    }

    fn prepare(&mut self, model: &GnnModel, weights: &ModelWeights) -> Result<(), CoreError> {
        self.inner.prepare(model, weights)
    }

    fn infer(&self, request: &InferenceRequest) -> Result<InferenceResponse, CoreError> {
        let until = Instant::now() + self.delay;
        while Instant::now() < until {
            std::hint::spin_loop();
        }
        self.inner.infer(request)
    }

    fn report(&self, request: &InferenceRequest) -> Result<ExecReport, CoreError> {
        self.inner.report(request)
    }

    fn health(&self) -> BackendHealth {
        self.inner.health()
    }
}

fn value(metrics: &[Metric], name: &str) -> Res<f64> {
    let metric = metrics.iter().find(|m| m.name == name);
    metric.map(|m| m.value).ok_or_else(|| format!("metric {name} missing"))
}

pub fn run() -> Res<bool> {
    let out = crate::default_out_dir().join("selftest");
    let seed = crate::DEFAULT_SEED;
    let mut plain = Bench::set_up("cora_edge", seed, &out, |e| Arc::new(e))?;
    let mut slow = Bench::set_up("cora_edge", seed, &out, |e| {
        Arc::new(Delayed { inner: e, delay: Duration::from_secs_f64(DELAY_MS / 1e3) })
    })?;

    // Every phase twice, the plain one and the delayed one side by side.
    let phases: Vec<Phase<(bool, _)>> = PHASES
        .iter()
        .flat_map(|p| {
            [false, true].map(|delayed| Phase {
                id: (delayed, p.id),
                share: p.share,
                min_samples: p.min_samples,
            })
        })
        .collect();
    let mut samples = run_block(2.0 * SECONDS, &phases, |(delayed, phase)| {
        if delayed { &mut slow } else { &mut plain }.sample(phase)
    })
    .into_iter();
    let (mut of_plain, mut of_slow) = (Vec::new(), Vec::new());
    while let (Some(a), Some(b)) = (samples.next(), samples.next()) {
        of_plain.push(a);
        of_slow.push(b);
    }
    // Throughput is a traced-pass reading; here a few windows of each, side by side.
    let (mut rps_plain, mut rps_slow) = (Samples::default(), Samples::default());
    igcn::obs::set_enabled(true);
    for _ in 0..RPS_WINDOWS {
        rps_plain.0.extend(plain.rps_window());
        rps_slow.0.extend(slow.rps_window());
    }
    let (mut plain_metrics, plain_readings) = plain.finish(&of_plain);
    let (mut slow_metrics, slow_readings) = slow.finish(&of_slow);
    plain_metrics.extend(plain_readings);
    slow_metrics.extend(slow_readings);
    plain_metrics.push(Metric::timing("gateway.rps_2clients", "req/s", &rps_plain));
    slow_metrics.push(Metric::timing("gateway.rps_2clients", "req/s", &rps_slow));

    let mut ok = plain.ops.failed == 0 && slow.ops.failed == 0;
    for failure in plain.ops.failures.iter().chain(&slow.ops.failures) {
        println!("  FAILED: {failure}");
    }
    let mut verdict = |name: &str, what: &str, pass: fn(f64, f64) -> bool| -> Res<()> {
        let (a, b) = (value(&plain_metrics, name)?, value(&slow_metrics, name)?);
        let result = if pass(a, b) { "ok" } else { "FAILED" };
        println!("  {name:<26} {a:>12.4} -> {b:>12.4}  {what}: {result}");
        ok &= pass(a, b);
        Ok(())
    };
    println!("selftest: cora_edge served as is, then with {DELAY_MS} ms busy-waited in infer");
    verdict("infer_ms_p50", "rises by the delay", |a, b| {
        ((b - a) - DELAY_MS).abs() <= DELAY_TOLERANCE * DELAY_MS
    })?;
    for name in ["serve_ms_p50", "gateway_binary_ms_p50", "gateway_http_ms_p50"] {
        verdict(name, "rises by the delay, to a tick", |a, b| {
            ((b - a) - DELAY_MS).abs() <= GATEWAY_TICK_MS
        })?;
    }
    verdict("gateway.rps_2clients", "falls", |a, b| b < a)?;
    // The bounded metrics over `infer` rise, the ones under it fall.
    verdict("infer_vs_reference", "rises", |a, b| b > 1.5 * a)?;
    let under_infer = [
        "cold_build_vs_infer",
        "shard_vs_infer",
        "serve_vs_infer",
        "gateway_binary_vs_serve",
        "gateway_http_vs_binary",
    ];
    for name in under_infer {
        verdict(name, "falls", |a, b| b < a)?;
    }
    let unmoved = [
        "cold_build_ms_p50",
        "warm_boot_ms_p50",
        "warm_vs_cold_boot",
        "wal_vs_warm_boot",
        "update_vs_cold_build",
    ];
    for name in unmoved {
        verdict(name, "does not move", |a, b| ((b - a) / a).abs() <= UNMOVED_TOLERANCE)?;
    }
    for name in ["agg_ops_executed_frac", "offchip_mb_per_infer", "sim_latency_us"] {
        verdict(name, "is exactly equal", |a, b| a == b)?;
    }
    println!("selftest {}", if ok { "passed" } else { "FAILED" });
    Ok(ok)
}
