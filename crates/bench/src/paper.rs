//! The paper's evaluation in one place: every published value the
//! repository compares against, and one reproduction function per figure.
//!
//! [`CELLS`] is the published table. A cell is one (figure or table,
//! dataset, quantity): the published value, the model's value recorded at
//! seed 42 on the full-scale suite (Reddit at its default 4 %), and a
//! [`Check`]: a stated tolerance, or the measured reason for the gap. A
//! qualitative claim ("I-GCN moves the least data") has published value 1,
//! and the model reads 1 when it holds, 0 when it does not.
//!
//! Each [`PARTS`] entry names the function that reproduces its figure.
//! The `paper` bin prints through them and `tests/paper_fidelity.rs`
//! checks through them.

use std::collections::BTreeMap;

use igcn_baselines::methods::profile_methods;
use igcn_baselines::{AwbGcn, HyGcn, Platform, PlatformKind, Sigma};
use igcn_gnn::{GnnKind, GnnModel, ModelConfig, ModelWorkload};
use igcn_graph::datasets::Dataset;
use igcn_graph::stats::DensityGrid;
use igcn_reorder::quality::ordering_quality;
use igcn_reorder::timing::time_reorder;
use igcn_reorder::{figure12_baselines, Identity, RandomOrder, Reorderer};
use igcn_sim::{AreaModel, GcnAccelerator, HardwareConfig, IGcnAccelerator, SimReport};

use crate::table::{fmt_sig, Table};
use crate::DatasetRun;

/// Reproduces one figure or table over a suite.
pub type Reproduce = fn(&[DatasetRun]) -> Figure;

/// The figures and tables in the paper's order: id, what it cites, and
/// the function that reproduces it.
pub const PARTS: [(&str, &str, Reproduce); 9] = [
    ("fig09", "Fig 9", fig09),
    ("fig10", "Fig 10, §4.3", fig10),
    ("fig11", "Fig 11", fig11),
    ("fig12", "Fig 12, §4.5", fig12),
    ("fig13", "Fig 13, §4.5", fig13),
    ("fig14a", "Fig 14(A), §4.6.1", fig14a),
    ("fig14b", "Fig 14(B), §4.6.2", fig14b),
    ("table1", "Table 1", table1),
    ("table2", "Table 2, §4.6", table2),
];

/// How a cell's model value is judged against its published value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Check {
    /// Holds when `|model − published| ≤ tolerance · |published|`.
    Within(f64),
    /// Holds when `model ≥ factor · published`: a claimed ratio over host
    /// wall-clock time, `factor` being the allowance for the host.
    AtLeast(f64),
    /// The model misses the published value, for this measured reason.
    Gap(&'static str),
}

/// One published value of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    /// The [`PARTS`] id.
    pub part: &'static str,
    /// A dataset id, `"all"` for an aggregate over all five, or `"-"`.
    pub dataset: &'static str,
    /// What is compared, with its unit or model configuration.
    pub quantity: &'static str,
    /// The paper's value.
    pub published: f64,
    /// The model's value at seed 42; `None` for a ratio over host
    /// wall-clock time, which is never pinned.
    pub recorded: Option<f64>,
    /// How the model value is judged.
    pub check: Check,
}

impl Cell {
    /// `part dataset quantity`: the cell's name in tables and messages.
    pub fn id(&self) -> String {
        format!("{} {} {}", self.part, self.dataset, self.quantity)
    }

    /// Whether `model` meets the check (a gap with a reason always does).
    pub fn holds(&self, model: f64) -> bool {
        match self.check {
            Check::Within(tol) => (model - self.published).abs() <= tol * self.published.abs(),
            Check::AtLeast(factor) => model >= factor * self.published,
            Check::Gap(reason) => !reason.is_empty(),
        }
    }
}

type S = &'static str;

const fn c(part: S, dataset: S, quantity: S, published: f64, recorded: f64, check: Check) -> Cell {
    Cell { part, dataset, quantity, published, recorded: Some(recorded), check }
}

const fn host(part: S, dataset: S, quantity: S, published: f64, check: Check) -> Cell {
    Cell { part, dataset, quantity, published, recorded: None, check }
}

const EXACT: Check = Check::Within(0.0);
const W10: Check = Check::Within(0.10);
const W15: Check = Check::Within(0.15);
const HOST: Check = Check::AtLeast(0.1);

const FIG10: Check = Check::Gap(
    "No window or generator setting reaches the published rates. Cora prunes 24.1 / 25.8 / \
     22.9 / 13.6 % at k = 2 / 4 / 8 / 16, 0 without redundancy removal. On a Cora-shaped graph \
     island density 0.5 -> 1.0 moves it 9.6 -> 28.6 %, island sizes 3-5 ... 16-32 peak at \
     29.6 % (6-10); the stand-ins plant density 0.85-0.95.",
);
const FIG10_ALL: Check = Check::Gap(
    "All-ops pruning is aggregation pruning times aggregation's share of the ops, so it \
     inherits the aggregation gap: the model's shares (14-26 %) match or exceed those the \
     published pairs imply (11-23 %), except Reddit's (22 vs 59 %).",
);
const FIG12: Check = Check::Gap(
    "Host wall-clock, never pinned. On a 2-vCPU x86-64 VM (release build) the five \
     linear-time reorderers take 7-33x I-GCN's modelled latency and Rabbit 780-1 110x; the \
     paper timed a 64-thread Xeon.",
);
const FIG13: Check = Check::Gap(
    "Every window miss of the I-GCN order is a hub-incident edge, i.e. an L-shape (25.9 / \
     24.8 % of Cora's / Citeseer's edges); Rabbit keeps more of them near the diagonal: \
     82.9 / 79.5 % window hits vs 78.0 / 76.8 %.",
);
const SOFTWARE: Check = Check::Gap(
    "The platform constants were not fitted to these. The platforms sit at their per-layer \
     overhead on citation graphs (PyG-CPU 10.1 ms, 8 501x on Cora GCN-algo), while I-GCN's \
     modelled latency grows faster with the graph: PyG-CPU leads by 19x on NELL and 84x on \
     Reddit @4 %, and the GPU models beat I-GCN on NELL.",
);
const SIGMA: Check =
    Check::Gap("The SIGMA model trails I-GCN by 1.2-18x over the 20 (model, dataset) pairs.");
const BUFFER: Check = Check::Gap(
    "The model keeps every hub's XW and partial rows on chip, 2 x hubs x width x 4 B (72 % of \
     Cora's 28 800 B, 95 % of NELL's 719 360 B), which outgrows PUSH's n x 4 B column on \
     every dataset but Pubmed.",
);
const AWB: Check = Check::Gap(
    "The AWB-GCN model is not fitted to Table 2: -34 % (Pubmed) to +68 % (Cora) on the \
     citation rows, 2.7-3.3x on NELL.",
);
const EE: Check = Check::Gap(
    "Table 2's latency and graphs/kJ pairs imply 108-152 W per inference; the energy model \
     draws 73-95 W for I-GCN on the citation rows (where latency is within 12 %, so graphs/kJ \
     reads 26-51 % high) and 37-70 W for AWB-GCN.",
);
const NELL: Check = Check::Gap(
    "DRAM is 1 084 739 of NELL's 1 091 585 modelled GCN-algo cycles (5.6x Table 2; 3.7x in \
     GCN-Hy). Layer 0's traffic.adjacency_bytes is 147.5 of its 248.9 MB: exactly the \
     locator's 36 863 819 adjacency words, 50x the 2.9 MB CSR, because the stand-in's maximum \
     degree of 23 454 starts the halving hub threshold at 11 727 and the locator runs 11 \
     rounds. The 186-wide head's output adds 48.9 MB, so I-GCN moves more than HyGCN (148 MB) \
     and AWB-GCN (225 MB). The stand-in has 37 % more edges than published (365 022).",
);
const REDDIT: Check = Check::Gap(
    "The Reddit stand-in runs at 4 % of the published node count (the suite default), so \
     absolute latency and energy do not compare.",
);

/// The published table. Each value comes from the figure or table its
/// cell names.
#[rustfmt::skip]
pub const CELLS: &[Cell] = &[
    c("fig09", "cora", "outlier nnz %", 0.0, 0.0, EXACT),
    c("fig09", "citeseer", "outlier nnz %", 0.0, 0.0, EXACT),
    c("fig09", "pubmed", "outlier nnz %", 0.0, 0.0, EXACT),
    c("fig09", "nell", "outlier nnz %", 0.0, 0.0, EXACT),
    c("fig10", "cora", "aggregation ops pruned %", 39.0, 25.82335, FIG10),
    c("fig10", "citeseer", "aggregation ops pruned %", 40.0, 18.02065, FIG10),
    c("fig10", "pubmed", "aggregation ops pruned %", 35.0, 25.32197, FIG10),
    c("fig10", "nell", "aggregation ops pruned %", 46.0, 29.86973, FIG10),
    c("fig10", "reddit", "aggregation ops pruned %", 29.0, 23.48537, FIG10),
    c("fig10", "all", "aggregation ops pruned %", 38.0, 24.50421, FIG10),
    c("fig10", "cora", "all ops pruned %", 9.0, 6.733428, FIG10_ALL),
    c("fig10", "citeseer", "all ops pruned %", 5.0, 2.72661, FIG10_ALL),
    c("fig10", "pubmed", "all ops pruned %", 4.0, 3.632263, FIG10_ALL),
    c("fig10", "nell", "all ops pruned %", 5.0, 5.714978, FIG10_ALL),
    c("fig10", "reddit", "all ops pruned %", 17.0, 5.130257, FIG10_ALL),
    c("fig10", "all", "aggregation share of ops % (§4.3)", 23.0, 20.17301, W15),
    c("fig11", "-", "Island Locator share of ALMs %", 34.0, 35.60804, W10),
    c("fig11", "-", "Island Consumer share of ALMs %", 66.0, 64.39196, W10),
    host("fig12", "cora", "Rabbit reorder ÷ I-GCN inference", 100.0, HOST),
    host("fig12", "citeseer", "Rabbit reorder ÷ I-GCN inference", 100.0, HOST),
    host("fig12", "pubmed", "Rabbit reorder ÷ I-GCN inference", 100.0, HOST),
    host("fig12", "cora", "fastest reorder ÷ I-GCN inference", 100.0, FIG12),
    host("fig12", "citeseer", "fastest reorder ÷ I-GCN inference", 100.0, FIG12),
    host("fig12", "pubmed", "fastest reorder ÷ I-GCN inference", 100.0, FIG12),
    c("fig13", "cora", "I-GCN has the highest window hit rate", 1.0, 0.0, FIG13),
    c("fig13", "citeseer", "I-GCN has the highest window hit rate", 1.0, 0.0, FIG13),
    c("fig13", "pubmed", "I-GCN has the highest window hit rate", 1.0, 1.0, EXACT),
    c("fig13", "nell", "I-GCN has the highest window hit rate", 1.0, 1.0, EXACT),
    c("fig13", "reddit", "I-GCN has the highest window hit rate", 1.0, 1.0, EXACT),
    c("fig14a", "cora", "I-GCN moves the least off-chip data (algo)", 1.0, 1.0, EXACT),
    c("fig14a", "citeseer", "I-GCN moves the least off-chip data (algo)", 1.0, 1.0, EXACT),
    c("fig14a", "pubmed", "I-GCN moves the least off-chip data (algo)", 1.0, 1.0, EXACT),
    c("fig14a", "nell", "I-GCN moves the least off-chip data (algo)", 1.0, 0.0, NELL),
    c("fig14a", "reddit", "I-GCN moves the least off-chip data (algo)", 1.0, 1.0, EXACT),
    c("fig14a", "cora", "I-GCN moves the least off-chip data (Hy)", 1.0, 1.0, EXACT),
    c("fig14a", "citeseer", "I-GCN moves the least off-chip data (Hy)", 1.0, 1.0, EXACT),
    c("fig14a", "pubmed", "I-GCN moves the least off-chip data (Hy)", 1.0, 1.0, EXACT),
    c("fig14a", "nell", "I-GCN moves the least off-chip data (Hy)", 1.0, 0.0, NELL),
    c("fig14a", "reddit", "I-GCN moves the least off-chip data (Hy)", 1.0, 1.0, EXACT),
    c("fig14b", "cora", "latency I-GCN < AWB-GCN < PyG-GPU < PyG-CPU (GCN-algo)", 1.0, 1.0, EXACT),
    c("fig14b", "cora", "SIGMA slower than I-GCN (GCN-algo)", 1.0, 1.0, EXACT),
    c("fig14b", "all", "geomean speedup over PyG-CPU", 9568.0, 301.9292, SOFTWARE),
    c("fig14b", "all", "geomean speedup over DGL-CPU", 1243.0, 85.47899, SOFTWARE),
    c("fig14b", "all", "geomean speedup over PyG-GPU", 368.0, 9.30186, SOFTWARE),
    c("fig14b", "all", "geomean speedup over DGL-GPU", 453.0, 10.63222, SOFTWARE),
    c("fig14b", "all", "geomean speedup over SIGMA", 16.0, 4.708259, SIGMA),
    c("fig14b", "all", "geomean speedup over HyGCN and AWB-GCN", 5.7, 5.906205, W10),
    c("table1", "cora", "Islandization moves the least off-chip data", 1.0, 1.0, EXACT),
    c("table1", "citeseer", "Islandization moves the least off-chip data", 1.0, 1.0, EXACT),
    c("table1", "pubmed", "Islandization moves the least off-chip data", 1.0, 1.0, EXACT),
    c("table1", "nell", "Islandization moves the least off-chip data", 1.0, 1.0, EXACT),
    c("table1", "reddit", "Islandization moves the least off-chip data", 1.0, 1.0, EXACT),
    c("table1", "cora", "Islandization buffers less on chip than PUSH", 1.0, 0.0, BUFFER),
    c("table1", "citeseer", "Islandization buffers less on chip than PUSH", 1.0, 0.0, BUFFER),
    c("table1", "pubmed", "Islandization buffers less on chip than PUSH", 1.0, 1.0, EXACT),
    c("table1", "nell", "Islandization buffers less on chip than PUSH", 1.0, 0.0, BUFFER),
    c("table1", "reddit", "Islandization buffers less on chip than PUSH", 1.0, 0.0, BUFFER),
    c("table2", "cora", "I-GCN µs (algo)", 1.3, 1.190909, W15),
    c("table2", "citeseer", "I-GCN µs (algo)", 1.9, 1.893939, W15),
    c("table2", "pubmed", "I-GCN µs (algo)", 15.1, 15.30909, W15),
    c("table2", "nell", "I-GCN µs (algo)", 5.9e2, 3307.833, NELL),
    c("table2", "reddit", "I-GCN µs (algo)", 3.0e4, 728.0182, REDDIT),
    c("table2", "cora", "I-GCN µs (Hy)", 8.2, 8.766667, W15),
    c("table2", "citeseer", "I-GCN µs (Hy)", 12.9, 14.43333, W15),
    c("table2", "pubmed", "I-GCN µs (Hy)", 1.1e2, 119.9212, W15),
    c("table2", "nell", "I-GCN µs (Hy)", 1.2e3, 4446.709, NELL),
    c("table2", "reddit", "I-GCN µs (Hy)", 4.6e4, 728.0182, REDDIT),
    c("table2", "cora", "I-GCN graphs/kJ (algo)", 7.1e6, 8973232.0, EE),
    c("table2", "citeseer", "I-GCN graphs/kJ (algo)", 3.7e6, 5586821.0, EE),
    c("table2", "pubmed", "I-GCN graphs/kJ (algo)", 5.3e5, 721666.0, EE),
    c("table2", "nell", "I-GCN graphs/kJ (algo)", 1.3e4, 7444.883, NELL),
    c("table2", "reddit", "I-GCN graphs/kJ (algo)", 3.5e2, 20251.85, REDDIT),
    c("table2", "cora", "I-GCN graphs/kJ (Hy)", 9.6e5, 1412641.0, EE),
    c("table2", "citeseer", "I-GCN graphs/kJ (Hy)", 6.0e5, 868857.2, EE),
    c("table2", "pubmed", "I-GCN graphs/kJ (Hy)", 8.1e4, 114104.9, EE),
    c("table2", "nell", "I-GCN graphs/kJ (Hy)", 7.5e3, 5177.642, NELL),
    c("table2", "reddit", "I-GCN graphs/kJ (Hy)", 2.2e2, 20251.85, REDDIT),
    c("table2", "cora", "AWB-GCN µs (algo)", 2.3, 3.869697, AWB),
    c("table2", "citeseer", "AWB-GCN µs (algo)", 4.0, 5.084848, AWB),
    c("table2", "pubmed", "AWB-GCN µs (algo)", 30.0, 24.8303, AWB),
    c("table2", "nell", "AWB-GCN µs (algo)", 1.6e3, 5284.352, AWB),
    c("table2", "reddit", "AWB-GCN µs (algo)", 3.2e4, 917.8758, REDDIT),
    c("table2", "cora", "AWB-GCN µs (Hy)", 17.0, 15.87576, AWB),
    c("table2", "citeseer", "AWB-GCN µs (Hy)", 29.0, 23.2, AWB),
    c("table2", "pubmed", "AWB-GCN µs (Hy)", 2.3e2, 151.4091, AWB),
    c("table2", "nell", "AWB-GCN µs (Hy)", 3.3e3, 8931.821, AWB),
    c("table2", "reddit", "AWB-GCN µs (Hy)", 5.0e4, 917.8758, REDDIT),
    c("table2", "cora", "AWB-GCN graphs/kJ (algo)", 3.1e6, 5032194.0, EE),
    c("table2", "citeseer", "AWB-GCN graphs/kJ (algo)", 1.9e6, 3569346.0, EE),
    c("table2", "pubmed", "AWB-GCN graphs/kJ (algo)", 2.5e5, 576908.9, EE),
    c("table2", "nell", "AWB-GCN graphs/kJ (algo)", 4.1e3, 5168.359, EE),
    c("table2", "reddit", "AWB-GCN graphs/kJ (algo)", 2.1e2, 17654.82, REDDIT),
    c("table2", "cora", "AWB-GCN graphs/kJ (Hy)", 4.4e5, 1079711.0, EE),
    c("table2", "citeseer", "AWB-GCN graphs/kJ (Hy)", 2.7e5, 709903.1, EE),
    c("table2", "pubmed", "AWB-GCN graphs/kJ (Hy)", 3.2e4, 102362.3, EE),
    c("table2", "nell", "AWB-GCN graphs/kJ (Hy)", 2.3e3, 3027.342, EE),
    c("table2", "reddit", "AWB-GCN graphs/kJ (Hy)", 1.5e2, 17654.82, REDDIT),
    c("table2", "reddit", "smallest I-GCN ÷ AWB-GCN speedup in GCN-algo (§4.6.2)", 1.0, 1.0, EXACT),
];

/// One reproduced figure or table.
#[derive(Debug, Clone)]
pub struct Figure {
    part: &'static str,
    /// The model's numbers behind the cells, as titled tables.
    pub tables: Vec<(String, Table)>,
    /// Spy plots: `results/` file names and PPM bytes.
    pub files: Vec<(String, Vec<u8>)>,
    /// Every cell this run reached, with its model value.
    pub readings: Vec<(&'static Cell, f64)>,
    /// Whether the suite holds all five datasets, so aggregates are read.
    complete: bool,
}

impl Figure {
    fn new(part: &'static str, suite: &[DatasetRun]) -> Self {
        let complete = suite.len() == Dataset::ALL.len();
        Figure { part, tables: Vec::new(), files: Vec::new(), readings: Vec::new(), complete }
    }

    /// Records a cell's model value; drops an aggregate over an incomplete suite.
    fn read(&mut self, dataset: &str, quantity: &str, value: f64) {
        let cell = CELLS
            .iter()
            .find(|c| (c.part, c.dataset, c.quantity) == (self.part, dataset, quantity));
        match cell {
            Some(cell) if dataset != "all" || self.complete => self.readings.push((cell, value)),
            _ => {}
        }
    }

    fn claim(&mut self, dataset: &str, quantity: &str, holds: bool) {
        self.read(dataset, quantity, f64::from(u8::from(holds)));
    }

    fn table(mut self, title: &str, table: Table) -> Self {
        self.tables.push((title.to_string(), table));
        self
    }
}

const SHAPES: &str = "suite features match the suite graph";

fn row(cells: &[&dyn std::fmt::Display]) -> Vec<String> {
    cells.iter().map(|c| c.to_string()).collect()
}

fn gcn(run: &DatasetRun, config: ModelConfig) -> GnnModel {
    GnnModel::for_dataset(run.dataset, GnnKind::Gcn, config)
}

/// I-GCN's modelled report, priced from the suite engine's statistics.
fn igcn(run: &DatasetRun, model: &GnnModel) -> SimReport {
    let stats = run.engine.account(&run.data.features, model).expect(SHAPES);
    IGcnAccelerator::new(HardwareConfig::paper_default()).report_from_stats(&stats)
}

fn simulate(platform: &dyn GcnAccelerator, run: &DatasetRun, model: &GnnModel) -> SimReport {
    platform.simulate(&run.data.graph, &run.data.features, model)
}

fn awb() -> AwbGcn {
    AwbGcn::new(HardwareConfig::paper_default())
}

fn fig09(suite: &[DatasetRun]) -> Figure {
    let mut f = Figure::new("fig09", suite);
    let mut t = Table::new(vec!["dataset", "locator rounds", "islands", "hubs", "outlier nnz %"]);
    for run in suite.iter().filter(|r| r.dataset != Dataset::Reddit) {
        let (id, g, p) = (run.dataset.id(), &run.data.graph, run.engine.partition());
        let (rounds, outliers) = (run.engine.locator_stats().num_rounds(), p.outlier_fraction(g));
        t.row(row(&[&id, &rounds, &p.num_islands(), &p.num_hubs(), &fmt_sig(outliers * 100.0)]));
        f.read(id, "outlier nnz %", outliers * 100.0);
        for (when, ordering) in [("before", None), ("after", Some(p.ordering_antidiagonal()))] {
            let grid = DensityGrid::compute(g, ordering.as_ref(), 48);
            f.files.push((format!("fig09_{id}_{when}.ppm"), grid.to_ppm()));
        }
    }
    f.table("islandization", t)
}

fn fig10(suite: &[DatasetRun]) -> Figure {
    let mut f = Figure::new("fig10", suite);
    let (mut agg, mut share, n) = (0.0, 0.0, suite.len() as f64);
    for run in suite {
        let (id, m) = (run.dataset.id(), gcn(run, ModelConfig::Algo));
        let stats = run.engine.account(&run.data.features, &m).expect(SHAPES);
        f.read(id, "aggregation ops pruned %", stats.aggregation_pruning_rate() * 100.0);
        f.read(id, "all ops pruned %", stats.overall_pruning_rate() * 100.0);
        agg += stats.aggregation_pruning_rate() * 100.0 / n;
        let workload = ModelWorkload::compute(&run.data.graph, &run.data.features, &m);
        share += workload.aggregation_fraction() * 100.0 / n;
    }
    f.read("all", "aggregation ops pruned %", agg);
    f.read("all", "aggregation share of ops % (§4.3)", share);
    f
}

fn fig11(_: &[DatasetRun]) -> Figure {
    let mut f = Figure::new("fig11", &[]);
    let b = AreaModel::fpga_default().breakdown(&HardwareConfig::paper_default());
    let mut t = Table::new(vec!["component (4K MACs, 64 TP-BFS engines)", "ALMs (k)", "%"]);
    for (name, alms) in b.rows() {
        t.row(vec![name.into(), fmt_sig(alms / 1e3), fmt_sig(alms / b.total_alms() * 100.0)]);
    }
    f.read("-", "Island Locator share of ALMs %", b.locator_fraction() * 100.0);
    f.read("-", "Island Consumer share of ALMs %", (1.0 - b.locator_fraction()) * 100.0);
    f.table("hardware consumption", t)
}

fn fig12(suite: &[DatasetRun]) -> Figure {
    let mut f = Figure::new("fig12", suite);
    let mut t = Table::new(vec!["dataset", "reorderer", "reorder µs", "+ AWB-GCN µs", "÷ I-GCN"]);
    for run in suite {
        let m = gcn(run, ModelConfig::Algo);
        let (ours, theirs) = (igcn(run, &m).latency_us(), simulate(&awb(), run, &m).latency_us());
        t.row(row(&[&run.dataset, &"none: I-GCN online", &0, &fmt_sig(ours), &1]));
        let mut ratios = Vec::new();
        for r in figure12_baselines() {
            let us = time_reorder(r.as_ref(), &run.data.graph, 3).micros();
            ratios.push(us / ours);
            let [reorder, total, ratio] = [us, us + theirs, us / ours].map(fmt_sig);
            t.row(row(&[&run.dataset, &r.name(), &reorder, &total, &ratio]));
        }
        f.read(run.dataset.id(), "Rabbit reorder ÷ I-GCN inference", ratios[0]);
        let fastest = ratios.iter().copied().fold(f64::MAX, f64::min);
        f.read(run.dataset.id(), "fastest reorder ÷ I-GCN inference", fastest);
    }
    f.table("host-timed reordering, then AWB-GCN, vs I-GCN (GCN-algo)", t)
}

fn fig13(suite: &[DatasetRun]) -> Figure {
    let mut f = Figure::new("fig13", suite);
    let mut t = Table::new(vec!["dataset", "ordering", "band frac", "norm. span", "window hit %"]);
    for run in suite {
        let g = &run.data.graph;
        let mut reorderers: Vec<Box<dyn Reorderer>> = figure12_baselines();
        reorderers.push(Box::new(Identity));
        reorderers.push(Box::new(RandomOrder::default()));
        let mut orderings = vec![("I-GCN".to_string(), run.engine.partition().ordering())];
        orderings.extend(reorderers.iter().map(|r| (r.name(), r.reorder(g))));
        let mut hits = Vec::new();
        for (name, ordering) in &orderings {
            let q = ordering_quality(g, Some(ordering), (g.num_nodes() / 64).max(32));
            let quality = [q.band_fraction, q.normalized_span, q.window_hit_rate * 100.0];
            let [band, span, hit] = quality.map(fmt_sig);
            t.row(row(&[&run.dataset, name, &band, &span, &hit]));
            hits.push(q.window_hit_rate);
        }
        let best = hits[1..].iter().all(|&h| h < hits[0]);
        f.claim(run.dataset.id(), "I-GCN has the highest window hit rate", best);
    }
    f.table("non-zero clustering by ordering", t)
}

fn fig14a(suite: &[DatasetRun]) -> Figure {
    let mut f = Figure::new("fig14a", suite);
    let mut t = Table::new(vec!["model", "dataset", "platform", "off-chip MB", "÷ I-GCN"]);
    let others: [Box<dyn GcnAccelerator>; 3] = [
        Box::new(awb()),
        Box::new(HyGcn::paper_config()),
        Box::new(Platform::new(PlatformKind::PygCpuE5_2680)),
    ];
    for config in [ModelConfig::Algo, ModelConfig::Hy] {
        for run in suite {
            let (m, mut least) = (gcn(run, config), true);
            let ours = igcn(run, &m);
            let theirs = others.iter().map(|p| simulate(p.as_ref(), run, &m));
            for r in std::iter::once(ours.clone()).chain(theirs) {
                least &= r.name == ours.name || r.offchip_bytes > ours.offchip_bytes;
                let [mb, ratio] =
                    [1e6, ours.offchip_bytes as f64].map(|d| fmt_sig(r.offchip_bytes as f64 / d));
                t.row(row(&[&m.label(config), &run.dataset, &r.name, &mb, &ratio]));
            }
            let quantity = format!("I-GCN moves the least off-chip data ({})", config.id());
            f.claim(run.dataset.id(), &quantity, least);
        }
    }
    f.table("off-chip data access", t)
}

fn fig14b(suite: &[DatasetRun]) -> Figure {
    let mut f = Figure::new("fig14b", suite);
    let platform = |kind| Box::new(Platform::new(kind)) as Box<dyn GcnAccelerator>;
    // Grouped as the paper averages them: PyG over both GPUs, and the GCN
    // accelerators together.
    let baselines: [(&str, Box<dyn GcnAccelerator>); 8] = [
        ("PyG-CPU", platform(PlatformKind::PygCpuE5_2680)),
        ("DGL-CPU", platform(PlatformKind::DglCpuE5_2683)),
        ("PyG-GPU", platform(PlatformKind::PygGpuV100)),
        ("PyG-GPU", platform(PlatformKind::PygGpuRtx8000)),
        ("DGL-GPU", platform(PlatformKind::DglGpuV100)),
        ("SIGMA", Box::new(Sigma::paper_config())),
        ("HyGCN and AWB-GCN", Box::new(HyGcn::paper_config())),
        ("HyGCN and AWB-GCN", Box::new(awb())),
    ];
    let (algo, hy) = (ModelConfig::Algo, ModelConfig::Hy);
    let models =
        [(GnnKind::Gcn, algo), (GnnKind::Gcn, hy), (GnnKind::GraphSage, algo), (GnnKind::Gin, hy)];
    let mut ln_speedups: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (kind, config) in models {
        for run in suite {
            let m = GnnModel::for_dataset(run.dataset, kind, config);
            let ours = igcn(run, &m).latency_s;
            let r = baselines.each_ref().map(|(_, b)| simulate(b.as_ref(), run, &m).latency_s);
            for ((group, _), latency) in baselines.iter().zip(r) {
                ln_speedups.entry(group).or_default().push((latency / ours).ln());
            }
            if (run.dataset, kind, config) == (Dataset::Cora, GnnKind::Gcn, algo) {
                let order = ours < r[7] && r[7] < r[2] && r[2] < r[0];
                f.claim("cora", "latency I-GCN < AWB-GCN < PyG-GPU < PyG-CPU (GCN-algo)", order);
                f.claim("cora", "SIGMA slower than I-GCN (GCN-algo)", r[5] > ours);
            }
        }
    }
    for (group, ln) in ln_speedups {
        let geomean = (ln.iter().sum::<f64>() / ln.len() as f64).exp();
        f.read("all", &format!("geomean speedup over {group}"), geomean);
    }
    f
}

fn table1(suite: &[DatasetRun]) -> Figure {
    let mut f = Figure::new("table1", suite);
    let columns =
        "dataset,method,on-chip B,off-chip B,XW fetches/row,A passes,imbalance,prunable %";
    let mut t = Table::new(columns.split(',').collect());
    for run in suite {
        let profiles = profile_methods(&run.data.graph, run.data.spec.hidden_algo);
        for p in &profiles {
            let mut cells =
                row(&[&run.dataset, &p.method, &p.onchip_buffer_bytes, &p.offchip_bytes]);
            let prunable = p.prunable_fraction * 100.0;
            cells.extend(
                [p.xw_fetches_per_row, p.a_passes, p.load_imbalance_gini, prunable].map(fmt_sig),
            );
            t.row(cells);
        }
        let [pull, push, island] = &profiles[..] else { unreachable!("PULL, PUSH, Islandization") };
        let (id, least) = (run.dataset.id(), pull.offchip_bytes.min(push.offchip_bytes));
        f.claim(id, "Islandization moves the least off-chip data", island.offchip_bytes < least);
        let below = island.onchip_buffer_bytes < push.onchip_buffer_bytes;
        f.claim(id, "Islandization buffers less on chip than PUSH", below);
    }
    f.table("PULL vs PUSH vs Islandization, measured", t)
}

fn table2(suite: &[DatasetRun]) -> Figure {
    let mut f = Figure::new("table2", suite);
    let mut speedups = Vec::new();
    for config in [ModelConfig::Algo, ModelConfig::Hy] {
        for run in suite {
            let (id, m) = (run.dataset.id(), gcn(run, config));
            let (ours, theirs) = (igcn(run, &m), simulate(&awb(), run, &m));
            for (platform, r) in [("I-GCN", &ours), ("AWB-GCN", &theirs)] {
                let cfg = config.id();
                f.read(id, &format!("{platform} µs ({cfg})"), r.latency_us());
                f.read(id, &format!("{platform} graphs/kJ ({cfg})"), r.graphs_per_kilojoule);
            }
            if config == ModelConfig::Algo {
                speedups.push((run.dataset, ours.speedup_over(&theirs)));
            }
        }
    }
    let least = speedups.iter().min_by(|a, b| a.1.total_cmp(&b.1)).map(|s| s.0);
    let quantity = "smallest I-GCN ÷ AWB-GCN speedup in GCN-algo (§4.6.2)";
    if f.complete {
        f.claim("reddit", quantity, least == Some(Dataset::Reddit));
    }
    f
}
