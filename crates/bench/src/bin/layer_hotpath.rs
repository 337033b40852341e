//! Single-thread layer-throughput pin of the physical-layout hot path.
//!
//! PR 3 made the schedule-ordered physical layout the only execution
//! path and PR 6 deleted the legacy index-indirect code it had beaten.
//! A live A/B is therefore no longer possible; instead this harness
//! times the hot path and reports it against the **stored** legacy
//! baseline in `results/locality_baseline.json`, captured at commit
//! `eedd04e` immediately before the legacy path was removed (same
//! graph generator, model, seed and iteration counts).
//!
//! Wall-clock numbers do not transfer between machines, so the stored
//! comparison is reported, not asserted; the baseline file is
//! git-ignored, so on a clean clone there is none and the comparison is
//! skipped (its result fields are written as `null`). What *is*
//! asserted — the CI smoke contract — is what holds everywhere:
//!
//! * the timed inference produces **bit-identical** outputs and
//!   `ExecStats` across repeated runs (the hot path is deterministic);
//! * forcing the scalar kernel fallback (`igcn_simd::force_scalar`)
//!   reproduces the SIMD run **bit for bit** — the end-to-end form of
//!   the per-kernel identity contract;
//! * the measured median is finite and non-zero (the harness really
//!   timed work).
//!
//! The SIMD-vs-scalar wall-clock ratio is reported alongside the
//! stored-legacy comparison (informational on a 1-CPU container, where
//! the scalar loops auto-vectorize).
//!
//! Run: `cargo run --release -p igcn-bench --bin layer_hotpath -- --quick`

use igcn_bench::table::fmt_sig;
use igcn_bench::{results_dir, write_result, BenchHarness, HarnessArgs, Table};
use igcn_core::IGcnEngine;
use igcn_gnn::{GnnModel, ModelWeights};
use igcn_graph::generate::barabasi_albert;
use igcn_graph::SparseFeatures;
use serde::json::{obj, JsonValue};

/// The stored legacy measurement matching this run's `--quick` flag.
struct Baseline {
    nodes: u64,
    legacy_median_s: f64,
    legacy_p95_s: f64,
}

/// `None` when the (git-ignored) baseline file does not exist.
fn load_baseline(quick: bool) -> Option<Baseline> {
    let path = results_dir().join("locality_baseline.json");
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return None,
        Err(e) => panic!("cannot read {}: {e}", path.display()),
    };
    let doc =
        JsonValue::parse(&text).unwrap_or_else(|e| panic!("cannot parse {}: {e}", path.display()));
    let rows = doc.get("rows").and_then(|r| r.as_array()).expect("baseline has rows");
    let row = rows
        .iter()
        .find(|r| r.get("quick").and_then(JsonValue::as_bool) == Some(quick))
        .unwrap_or_else(|| panic!("no baseline row with quick={quick}"));
    let f = |key: &str| {
        row.get(key)
            .and_then(JsonValue::as_f64)
            .unwrap_or_else(|| panic!("baseline row lacks {key}"))
    };
    Some(Baseline {
        nodes: row.get("nodes").and_then(JsonValue::as_u64).expect("baseline row lacks nodes"),
        legacy_median_s: f("legacy_median_s"),
        legacy_p95_s: f("legacy_p95_s"),
    })
}

fn main() {
    let args = HarnessArgs::parse();
    // The 50k-node power-law bin of the serving scaling sweep — the
    // same shape the stored legacy baseline was captured on.
    let n = if args.quick { 4_000 } else { 50_000 };
    let edges_per_node = 8;
    let feature_dim = 32;
    let density = 0.05;
    let graph = barabasi_albert(n, edges_per_node, args.seed);
    let model = GnnModel::gcn(feature_dim, 16, 8);
    let num_layers = model.num_layers();
    let weights = ModelWeights::glorot(&model, args.seed);
    let x = SparseFeatures::random(n, feature_dim, density, args.seed + 1);

    let baseline = load_baseline(args.quick);
    match &baseline {
        Some(baseline) => assert_eq!(
            baseline.nodes, n as u64,
            "stored baseline row was captured on a different graph size"
        ),
        None => eprintln!(
            "[hotpath] no results/locality_baseline.json (it is git-ignored): \
             skipping the stored-legacy comparison"
        ),
    }

    eprintln!("[hotpath] islandizing {n} nodes...");
    let engine = IGcnEngine::builder(graph).build().expect("BA graphs are loop-free");

    // The CI smoke contract, part 1: repeated runs of the hot path are
    // bit-identical in both outputs and the complete ExecStats.
    eprintln!("[hotpath] checking run-to-run bit-identity...");
    let (out_a, stats_a) = engine.run(&x, &model, &weights).expect("hot path runs");
    let (out_b, stats_b) = engine.run(&x, &model, &weights).expect("hot path runs");
    assert_eq!(out_a, out_b, "hot-path outputs must be bit-identical across runs");
    assert_eq!(stats_a, stats_b, "hot-path ExecStats must be bit-identical across runs");

    // Part 1b: the scalar-fallback kernels are the *same function* in
    // different clothes — forcing them must not move a single bit of
    // either the outputs or the statistics (the SIMD bit-identity
    // contract, end to end rather than per kernel).
    eprintln!("[hotpath] checking SIMD-vs-scalar bit-identity...");
    igcn_simd::force_scalar(true);
    let (out_s, stats_s) = engine.run(&x, &model, &weights).expect("scalar fallback runs");
    igcn_simd::force_scalar(false);
    assert_eq!(out_a, out_s, "scalar-fallback outputs must match the SIMD path bit for bit");
    assert_eq!(stats_a, stats_s, "scalar-fallback ExecStats must match the SIMD path");

    let harness = if args.quick { BenchHarness::quick() } else { BenchHarness::new(1, 5) };
    eprintln!("[hotpath] timing hot path ({} warmup + {} iters)...", harness.warmup, harness.iters);
    let timed = harness.run(|| engine.run(&x, &model, &weights).expect("engine runs"));
    let median_s = timed.median_s();
    let p95_s = timed.p95_s();
    let layers_per_s = num_layers as f64 / median_s.max(1e-12);
    let vs_stored_legacy = baseline.as_ref().map(|b| b.legacy_median_s / median_s.max(1e-12));

    // End-to-end A/B against the forced-scalar fallback. Reported, not
    // asserted: on the 1-CPU container the scalar loops auto-vectorize,
    // so this ratio hovers near 1x by construction (kernel_bench owns
    // the per-kernel non-regression assert).
    eprintln!("[hotpath] timing scalar fallback for the end-to-end A/B...");
    igcn_simd::force_scalar(true);
    let timed_scalar = harness.run(|| engine.run(&x, &model, &weights).expect("engine runs"));
    igcn_simd::force_scalar(false);
    let scalar_median_s = timed_scalar.median_s();
    let simd_vs_scalar = scalar_median_s / median_s.max(1e-12);

    let mut table = Table::new(vec!["path", "median (ms)", "p95 (ms)", "layers/s"]);
    table.row(vec![
        "hot path (live)".to_string(),
        fmt_sig(median_s * 1e3),
        fmt_sig(p95_s * 1e3),
        fmt_sig(layers_per_s),
    ]);
    table.row(vec![
        "scalar fallback (live)".to_string(),
        fmt_sig(scalar_median_s * 1e3),
        fmt_sig(timed_scalar.p95_s() * 1e3),
        fmt_sig(num_layers as f64 / scalar_median_s.max(1e-12)),
    ]);
    if let Some(baseline) = &baseline {
        table.row(vec![
            "legacy (stored)".to_string(),
            fmt_sig(baseline.legacy_median_s * 1e3),
            fmt_sig(baseline.legacy_p95_s * 1e3),
            fmt_sig(num_layers as f64 / baseline.legacy_median_s.max(1e-12)),
        ]);
    }
    println!("\n# Single-thread layer hot path vs stored legacy baseline (power-law, {n} nodes)\n");
    println!("{}", table.to_markdown());
    match vs_stored_legacy {
        Some(ratio) => println!(
            "live median vs stored legacy median: {ratio:.3}x \
             (informational — baseline captured on a different run of this container class)"
        ),
        None => println!("live median vs stored legacy median: skipped (no stored baseline)"),
    }
    println!(
        "SIMD vs forced-scalar end to end: {simd_vs_scalar:.3}x \
         (informational — scalar loops auto-vectorize on this container)"
    );

    let result = obj([
        (
            "note",
            JsonValue::Str(
                "live hot-path timing against the stored legacy baseline in \
                 locality_baseline.json; recorded on a 1-CPU container, and the baseline was \
                 captured in a separate run, so the ratio is informational, not asserted"
                    .to_string(),
            ),
        ),
        (
            "graph",
            obj([
                ("kind", JsonValue::Str("barabasi_albert".to_string())),
                ("nodes", JsonValue::Uint(n as u64)),
                ("edges_per_node", JsonValue::Uint(edges_per_node as u64)),
                ("seed", JsonValue::Uint(args.seed)),
            ]),
        ),
        (
            "model",
            obj([
                ("kind", JsonValue::Str("gcn".to_string())),
                ("in_dim", JsonValue::Uint(feature_dim as u64)),
                ("hidden", JsonValue::Uint(16)),
                ("classes", JsonValue::Uint(8)),
                ("layers", JsonValue::Uint(num_layers as u64)),
            ]),
        ),
        (
            "harness",
            obj([
                ("warmup", JsonValue::Uint(harness.warmup as u64)),
                ("iters", JsonValue::Uint(harness.iters as u64)),
                ("threads", JsonValue::Uint(1)),
            ]),
        ),
        ("bit_identical_across_runs", JsonValue::Bool(true)),
        ("bit_identical_simd_vs_scalar", JsonValue::Bool(true)),
        ("median_s", JsonValue::from_f64_rounded(median_s)),
        ("p95_s", JsonValue::from_f64_rounded(p95_s)),
        ("layers_per_s", JsonValue::from_f64_rounded(layers_per_s)),
        ("scalar_median_s", JsonValue::from_f64_rounded(scalar_median_s)),
        ("simd_vs_scalar", JsonValue::from_f64_rounded(simd_vs_scalar)),
        (
            "stored_legacy_median_s",
            baseline.map_or(JsonValue::Null, |b| JsonValue::from_f64_rounded(b.legacy_median_s)),
        ),
        ("vs_stored_legacy", vs_stored_legacy.map_or(JsonValue::Null, JsonValue::from_f64_rounded)),
    ]);
    let path = write_result("locality_speedup.json", result.encode_pretty().as_bytes());
    eprintln!("wrote {}", path.display());

    // The CI smoke contract, part 2: the harness measured real work.
    assert!(
        median_s.is_finite() && median_s > 0.0,
        "hot-path median must be a positive finite time, got {median_s}"
    );
}
