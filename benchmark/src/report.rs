//! What a run reports: every metric by name with its unit on standard
//! output, one result file, and — last line of standard output — the
//! one-line JSON object the driver reads.

use std::path::Path;

use igcn::core::ExecConfig;
use igcn::gateway::GatewayConfig;
use serde::json::{obj, JsonValue};

use crate::fixture::{Fixture, RPS_CLIENTS, SHARDS, WAL_RECORDS};
use crate::span::Tracer;
use crate::stats::Samples;
use crate::updates::BATCH_EDGES;
use crate::{err, Res};

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count of a timing metric.
    pub n: Option<usize>,
    /// Which percentile a `*_tail` metric is.
    pub percentile: Option<f64>,
    /// Minimum, p10, quartiles, p90 and maximum of a timing metric's samples.
    pub spread: Option<[f64; 7]>,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit, n: None, percentile: None, spread: None }
    }

    /// The median of `samples`.
    pub fn timing(name: &'static str, unit: &'static str, samples: &Samples) -> Metric {
        Metric::of_samples(name, unit, samples, samples.median())
    }

    /// The `q`-quantile of `samples`.
    pub fn quantile(name: &'static str, unit: &'static str, samples: &Samples, q: f64) -> Metric {
        Metric::of_samples(name, unit, samples, samples.quantile(q))
    }

    fn of_samples(name: &'static str, unit: &'static str, samples: &Samples, value: f64) -> Metric {
        Metric {
            n: Some(samples.len()),
            spread: Some(samples.seven_numbers()),
            ..Metric::new(name, value, unit)
        }
    }

    /// The highest percentile of `samples` with ten samples beyond it.
    pub fn tail(name: &'static str, unit: &'static str, samples: &Samples) -> Metric {
        let tail = samples.tail();
        Metric {
            n: Some(tail.n),
            percentile: Some(tail.percentile),
            ..Metric::new(name, tail.value, unit)
        }
    }

    fn to_json(&self) -> JsonValue {
        let mut fields = vec![
            ("value", JsonValue::Float(self.value)),
            ("unit", JsonValue::Str(self.unit.into())),
        ];
        if let Some(n) = self.n {
            fields.push(("n", JsonValue::Uint(n as u64)));
        }
        if let Some(p) = self.percentile {
            fields.push(("percentile", JsonValue::Float(p)));
        }
        if let Some(spread) = self.spread {
            for (key, v) in
                ["min", "p10", "p25", "p50", "p75", "p90", "max"].into_iter().zip(spread)
            {
                fields.push((key, JsonValue::Float(v)));
            }
        }
        JsonValue::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }
}

pub struct Outcome {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    /// The metrics `BENCHMARK.json` names for this pass, in its order.
    pub metrics: Vec<Metric>,
    /// Readings that exist on some workloads only (so the driver's fixed
    /// list cannot hold them); printed and written, not in the last line.
    pub extras: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub config: JsonValue,
    pub spans: Option<Tracer>,
    pub wall_s: f64,
}

/// The run configuration every result records.
pub fn config_json(fx: &Fixture, seed: u64, seconds: f64) -> JsonValue {
    let gw = GatewayConfig::default();
    let exec = ExecConfig::default();
    let graph = &fx.inputs.graph;
    obj([
        ("seed", JsonValue::Uint(seed)),
        ("seconds", JsonValue::Float(seconds)),
        ("nproc", JsonValue::Uint(crate::nproc() as u64)),
        ("nodes", JsonValue::Uint(graph.num_nodes() as u64)),
        ("undirected_edges", JsonValue::Uint(graph.num_undirected_edges() as u64)),
        ("feature_cols", JsonValue::Uint(fx.inputs.features.num_cols() as u64)),
        ("feature_nnz", JsonValue::Uint(fx.inputs.features.nnz() as u64)),
        ("served_model", JsonValue::Str(format!("{:?}", fx.inputs.model.layers()))),
        ("paper_model", JsonValue::Str(format!("{:?}", fx.inputs.paper_model.layers()))),
        ("exec_config", JsonValue::Str(format!("{exec:?}"))),
        ("gateway_config", JsonValue::Str(format!("{gw:?}"))),
        ("serving_config", JsonValue::Str(format!("{:?}", gw.serving))),
        ("shards", JsonValue::Uint(SHARDS as u64)),
        ("wal_records", JsonValue::Uint(WAL_RECORDS as u64)),
        ("update_batch_edges", JsonValue::Uint(BATCH_EDGES as u64)),
        ("rps_clients", JsonValue::Uint(RPS_CLIENTS.min(crate::nproc()) as u64)),
        ("min_setups", JsonValue::Uint(crate::bench::MIN_SETUPS as u64)),
        ("rounds", JsonValue::Uint(crate::sched::ROUNDS as u64)),
    ])
}

fn metrics_json(metrics: &[Metric]) -> JsonValue {
    JsonValue::Object(metrics.iter().map(|m| (m.name.to_string(), m.to_json())).collect())
}

/// Prints the metrics, writes `<out>/<workload>.json` (untraced pass) or
/// `<out>/<workload>.layers.json` and `<out>/<workload>.trace.json`
/// (traced pass), and prints the driver's line last.
pub fn print_and_write(outcome: &Outcome, out_dir: &Path) -> Res<()> {
    if let Some(bad) = outcome.metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!(
            "metric {} has no value ({} failed operations: {:?})",
            bad.name, outcome.failed, outcome.failures
        ));
    }
    let pass = if outcome.trace { "traced pass, per-layer" } else { "untraced pass, end-to-end" };
    println!(
        "workload {} seed {} ({pass}; {:.1} s wall)",
        outcome.workload, outcome.seed, outcome.wall_s
    );
    for m in outcome.metrics.iter().chain(&outcome.extras) {
        // Six decimals, or an exponent where they would all be zeros.
        let value = if m.value == 0.0 || m.value.abs() >= 1e-3 {
            format!("{:.6}", m.value)
        } else {
            format!("{:.6e}", m.value)
        };
        let mut line = format!("  {:<34} {value:>16} {}", m.name, m.unit);
        if let Some(p) = m.percentile {
            line.push_str(&format!("  p{p:.1}"));
        }
        if let Some(n) = m.n {
            line.push_str(&format!("  n={n}"));
        }
        println!("{line}");
    }
    println!("  operations attempted {} failed {}", outcome.attempted, outcome.failed);
    for failure in &outcome.failures {
        println!("  FAILED: {failure}");
    }

    let correct = outcome.failed == 0;
    let result = obj([
        ("workload", JsonValue::Str(outcome.workload.clone())),
        ("trace", JsonValue::Bool(outcome.trace)),
        ("correct", JsonValue::Bool(correct)),
        ("attempted", JsonValue::Uint(outcome.attempted)),
        ("failed", JsonValue::Uint(outcome.failed)),
        (
            "failures",
            JsonValue::Array(outcome.failures.iter().cloned().map(JsonValue::Str).collect()),
        ),
        ("wall_s", JsonValue::Float(outcome.wall_s)),
        ("config", outcome.config.clone()),
        ("metrics", metrics_json(&outcome.metrics)),
        ("extras", metrics_json(&outcome.extras)),
    ]);
    let stem = if outcome.trace { "layers.json" } else { "json" };
    let path = out_dir.join(format!("{}.{stem}", outcome.workload));
    std::fs::write(&path, result.encode_pretty()).map_err(err)?;
    if let Some(spans) = &outcome.spans {
        let path = out_dir.join(format!("{}.trace.json", outcome.workload));
        std::fs::write(&path, spans.to_json().encode()).map_err(err)?;
    }

    let line = obj([
        ("correct", JsonValue::Bool(correct)),
        ("attempted", JsonValue::Uint(outcome.attempted)),
        ("failed", JsonValue::Uint(outcome.failed)),
        (
            "metrics",
            JsonValue::Object(
                outcome
                    .metrics
                    .iter()
                    .map(|m| {
                        let value = obj([
                            ("value", JsonValue::Float(m.value)),
                            ("unit", JsonValue::Str(m.unit.to_string())),
                        ]);
                        (m.name.to_string(), value)
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", line.encode());
    Ok(())
}
