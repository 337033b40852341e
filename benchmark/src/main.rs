//! The repository's benchmark. See `README.md` beside `Cargo.toml`.
//!
//! ```text
//! igcn-benchmark run --workload <name> [--seed N] [--seconds S] [--trace [0|1]] [--out DIR]
//! igcn-benchmark selftest
//! igcn-benchmark compare <a> <b>
//! ```

mod alloc;
mod bench;
mod compare;
mod fixture;
mod layers;
mod report;
mod sched;
mod selftest;
mod span;
mod stats;
mod updates;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Errors are reported, never matched on: a message is enough.
pub type Res<T> = Result<T, String>;

pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Where result files, span files and the stores' scratch files go
/// unless `--out` says otherwise: `out/` beside this package's manifest.
pub fn default_out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

pub const DEFAULT_SEED: u64 = 42;
/// `run_seconds` of `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 45.0;

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_run(args: &[String]) -> Res<RunArgs> {
    let mut run = RunArgs {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: default_out_dir(),
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => run.workload = value("a name")?,
            "--seed" => run.seed = value("a number")?.parse().map_err(err)?,
            "--seconds" => run.seconds = value("a number")?.parse().map_err(err)?,
            "--out" => run.out = PathBuf::from(value("a directory")?),
            // `--trace` alone switches tracing on; `--trace 0|1` sets it.
            "--trace" => {
                run.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") | Some("1") => it.next().is_some_and(|s| s == "1"),
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !workload::NAMES.contains(&run.workload.as_str()) {
        return Err(format!("--workload must be one of {:?}", workload::NAMES));
    }
    if !(run.seconds > 0.0 && run.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    Ok(run)
}

fn run(args: &[String]) -> Res<bool> {
    let a = parse_run(args)?;
    let outcome =
        bench::run(&a.workload, a.seed, a.seconds, a.trace, &a.out, |e| std::sync::Arc::new(e))?;
    report::print_and_write(&outcome, &a.out)?;
    Ok(outcome.failed == 0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("selftest") => selftest::run(),
        Some("compare") if args.len() == 3 => compare::run(&args[1], &args[2]),
        _ => Err("usage: igcn-benchmark run --workload <name> [--seed N] [--seconds S] \
                  [--trace [0|1]] [--out DIR] | selftest | compare <a> <b>"
            .to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("igcn-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
