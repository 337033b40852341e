//! The paper's evaluation: Figs 9–14 and Tables 1–2 from the models and
//! simulators. Each figure prints the model's tables and its published
//! cells beside the model's values; one fidelity table over every cell
//! reached (`ok`, `gap` with its reason, or `FAIL`) closes the run. Tables
//! go to `results/<part>_<n>.csv`, spy plots to `results/*.ppm`.
//!
//! Run: `cargo run --release -p igcn-bench --bin paper -- [--part fig10]
//! [--quick] [--datasets cora,pubmed] [--seed 42] [--scale 0.04]`

use igcn_bench::paper::{Check, PARTS};
use igcn_bench::table::fmt_sig;
use igcn_bench::{standard_suite, write_result, HarnessArgs, Table};

fn main() {
    let args = HarnessArgs::parse();
    // Fig 11 is the area model alone; it needs no datasets.
    let suite =
        if args.part.as_deref() == Some("fig11") { Vec::new() } else { standard_suite(&args) };
    let mut fidelity = Table::new(vec!["cell", "published", "model", "check"]);
    let mut reasons: Vec<&str> = Vec::new();
    for (part, cites, reproduce) in PARTS {
        if args.part.as_deref().is_some_and(|p| p != part) {
            continue;
        }
        let mut figure = reproduce(&suite);
        let mut cells = Table::new(vec!["dataset", "quantity", "model", "published"]);
        for &(cell, model) in &figure.readings {
            let [model_s, published] = [model, cell.published].map(fmt_sig);
            cells.row(vec![
                cell.dataset.into(),
                cell.quantity.into(),
                model_s.clone(),
                published.clone(),
            ]);
            let verdict = match cell.check {
                Check::Gap(reason) => {
                    let at = reasons.iter().position(|r| *r == reason).unwrap_or_else(|| {
                        reasons.push(reason);
                        reasons.len() - 1
                    });
                    format!("gap [{}]", at + 1)
                }
                _ if cell.holds(model) => "ok".into(),
                _ => "FAIL".into(),
            };
            fidelity.row(vec![cell.id(), published, model_s, verdict]);
        }
        figure.tables.push(("published cells".into(), cells));
        for (i, (title, table)) in figure.tables.iter().enumerate() {
            println!("\n# {cites}: {title}\n\n{}", table.to_markdown());
            write_result(&format!("{part}_{i}.csv"), table.to_csv().as_bytes());
        }
        for (name, bytes) in &figure.files {
            write_result(name, bytes);
        }
    }
    println!("\n# Fidelity (a claim reads 1 when it holds)\n\n{}", fidelity.to_markdown());
    for (i, reason) in reasons.iter().enumerate() {
        println!("[{}] {reason}\n", i + 1);
    }
    write_result("paper_fidelity.csv", fidelity.to_csv().as_bytes());
}
