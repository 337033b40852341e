//! Repeatability tool: two results (files, or directories holding one
//! result file per workload) side by side, against the bounds of
//! `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use serde::json::JsonValue;

use crate::{err, Res};

/// Modelled or counted quantities: for one seed they repeat exactly, so
/// between two results of the same seed any difference is a breach.
const EXACT: [&str; 4] =
    ["engine_heap_mb", "agg_ops_executed_frac", "offchip_mb_per_infer", "sim_latency_us"];

struct RunResult {
    seed: u64,
    metrics: BTreeMap<String, f64>,
}

fn read_json(path: &Path) -> Res<JsonValue> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    JsonValue::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Loads the untraced results under `path`, by workload name.
fn load(path: &Path) -> Res<BTreeMap<String, RunResult>> {
    let files: Vec<PathBuf> = if path.is_dir() {
        let mut files = Vec::new();
        for entry in std::fs::read_dir(path).map_err(err)? {
            let file = entry.map_err(err)?.path();
            let name = file.file_name().and_then(|n| n.to_str()).unwrap_or_default();
            // `<workload>.json` only: not the traced pass's files.
            if name.ends_with(".json") && name.matches('.').count() == 1 {
                files.push(file);
            }
        }
        files
    } else {
        vec![path.to_path_buf()]
    };
    let mut results = BTreeMap::new();
    for file in files {
        let doc = read_json(&file)?;
        let field = |key: &str| doc.get(key).ok_or(format!("{}: no {key:?}", file.display()));
        let workload = field("workload")?.as_str().unwrap_or_default().to_string();
        let seed = field("config")?.get("seed").and_then(JsonValue::as_u64).unwrap_or(0);
        let JsonValue::Object(entries) = field("metrics")? else {
            return Err(format!("{}: metrics is not an object", file.display()));
        };
        let metrics = entries
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect();
        results.insert(workload, RunResult { seed, metrics });
    }
    if results.is_empty() {
        return Err(format!("{}: no result files", path.display()));
    }
    Ok(results)
}

pub fn run(a: &str, b: &str) -> Res<bool> {
    let spec = read_json(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))?;
    let end_to_end =
        spec.get("end_to_end").and_then(JsonValue::as_array).ok_or("no end_to_end list")?;
    let (a, b) = (load(Path::new(a))?, load(Path::new(b))?);

    let mut breaches = 0;
    println!(
        "{:<16} {:<24} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "a", "b", "worse by", "bound"
    );
    for (workload, ra) in &a {
        let Some(rb) = b.get(workload) else { continue };
        for metric in end_to_end {
            let text = |key: &str| metric.get(key).and_then(JsonValue::as_str).unwrap_or_default();
            let name = text("name");
            let bound = metric.get("bound").and_then(JsonValue::as_f64).unwrap_or(0.0);
            let (Some(&va), Some(&vb)) = (ra.metrics.get(name), rb.metrics.get(name)) else {
                return Err(format!("{workload}: metric {name} missing from a result"));
            };
            // Positive = `b` is worse than `a`, as a share of `a`.
            let sign = if text("better") == "higher" { -1.0 } else { 1.0 };
            let worse = sign * (vb - va) / va;
            let inexact = EXACT.contains(&name) && ra.seed == rb.seed && va != vb;
            let breach = worse > bound || inexact;
            breaches += breach as u32;
            println!(
                "{workload:<16} {name:<24} {va:>14.5} {vb:>14.5} {:>8.2}% {:>6.1}%{}",
                worse * 100.0,
                bound * 100.0,
                match (breach, inexact) {
                    (_, true) => "  BREACH (must repeat exactly)",
                    (true, _) => "  BREACH",
                    _ => "",
                }
            );
        }
    }
    println!("{breaches} breach(es)");
    Ok(breaches == 0)
}
