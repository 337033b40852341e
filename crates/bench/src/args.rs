//! Minimal flag parsing for the `paper` bin.

use igcn_graph::datasets::Dataset;

use crate::paper::PARTS;

/// Parsed common flags of a harness binary.
///
/// Recognised flags:
///
/// * `--scale <f>` — override the Reddit stand-in scale (default 0.04);
/// * `--seed <n>` — generator seed (default 42);
/// * `--quick` — halve every dataset's scale for smoke runs;
/// * `--part <name>` — one figure or table, by its [`PARTS`] id;
/// * `--datasets a,b,c` — restrict to a subset by id
///   (`cora,citeseer,pubmed,nell,reddit`).
///
/// An unknown flag, part or dataset id panics with a usage message that
/// names the valid values.
#[derive(Debug, Clone)]
pub struct HarnessArgs {
    /// Reddit scale override.
    pub reddit_scale: f64,
    /// Generator seed.
    pub seed: u64,
    /// Smoke-run mode.
    pub quick: bool,
    /// Figure or table selector (`None` = all).
    pub part: Option<String>,
    /// Dataset id filter (empty = all).
    pub datasets: Vec<String>,
}

impl Default for HarnessArgs {
    fn default() -> Self {
        HarnessArgs { reddit_scale: 0.04, seed: 42, quick: false, part: None, datasets: Vec::new() }
    }
}

impl HarnessArgs {
    /// Parses `std::env::args()`.
    ///
    /// # Panics
    ///
    /// Panics with a usage message on malformed flags.
    pub fn parse() -> Self {
        Self::parse_from(std::env::args().skip(1))
    }

    /// Parses an explicit iterator of arguments (testable).
    ///
    /// # Panics
    ///
    /// Panics with a usage message on malformed flags.
    pub fn parse_from<I: IntoIterator<Item = String>>(args: I) -> Self {
        let mut out = HarnessArgs::default();
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--scale" => {
                    let v = it.next().expect("--scale requires a value");
                    out.reddit_scale = v.parse().expect("--scale value must be a float");
                }
                "--seed" => {
                    let v = it.next().expect("--seed requires a value");
                    out.seed = v.parse().expect("--seed value must be an integer");
                }
                "--quick" => out.quick = true,
                "--part" => {
                    let part = it.next().expect("--part requires a value");
                    if !PARTS.iter().any(|p| p.0 == part) {
                        usage(&format!("unknown part {part}"));
                    }
                    out.part = Some(part);
                }
                "--datasets" => {
                    let v = it.next().expect("--datasets requires a value");
                    out.datasets = v.split(',').map(|s| s.trim().to_string()).collect();
                    let known = |d: &&String| Dataset::ALL.iter().any(|x| x.id() == *d);
                    if let Some(d) = out.datasets.iter().find(|d| !known(d)) {
                        usage(&format!("unknown dataset {d}"));
                    }
                }
                other => usage(&format!("unknown flag {other}")),
            }
        }
        out
    }

    /// Whether dataset `id` is selected.
    pub fn wants(&self, id: &str) -> bool {
        self.datasets.is_empty() || self.datasets.iter().any(|d| d == id)
    }
}

fn usage(problem: &str) -> ! {
    let (parts, datasets) = (PARTS.map(|p| p.0).join("|"), Dataset::ALL.map(Dataset::id).join(","));
    panic!("{problem}; supported: --scale <f> --seed <n> --quick --part <{parts}> --datasets <{datasets}>")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> HarnessArgs {
        HarnessArgs::parse_from(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let a = parse(&[]);
        assert_eq!(a.seed, 42);
        assert!(!a.quick);
        assert!(a.wants("cora"));
    }

    #[test]
    fn flags_parse() {
        let a = parse(&["--scale", "0.1", "--seed", "7", "--quick", "--part", "fig14b"]);
        assert!((a.reddit_scale - 0.1).abs() < 1e-12);
        assert_eq!(a.seed, 7);
        assert!(a.quick);
        assert_eq!(a.part.as_deref(), Some("fig14b"));
    }

    #[test]
    fn dataset_filter() {
        let a = parse(&["--datasets", "cora,nell"]);
        assert!(a.wants("cora"));
        assert!(a.wants("nell"));
        assert!(!a.wants("reddit"));
    }

    #[test]
    #[should_panic(expected = "unknown flag")]
    fn unknown_flag_panics() {
        let _ = parse(&["--bogus"]);
    }

    #[test]
    #[should_panic(expected = "unknown dataset nosuch; supported: ")]
    fn unknown_dataset_panics() {
        let _ = parse(&["--datasets", "cora,nosuch"]);
    }

    #[test]
    #[should_panic(expected = "unknown part fig15; supported: ")]
    fn unknown_part_panics() {
        let _ = parse(&["--part", "fig15"]);
    }
}
