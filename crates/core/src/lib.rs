//! The I-GCN contribution: runtime graph islandization and island-granular
//! GCN execution.
//!
//! This crate implements the two hardware modules of
//! *I-GCN: A Graph Convolutional Network Accelerator with Runtime Locality
//! Enhancement through Islandization* (MICRO 2021):
//!
//! * the **Island Locator** ([`locator`]) — Algorithms 1–4 of the paper:
//!   round-based hub detection with a decaying degree threshold,
//!   `(hub, neighbor)` BFS task generation, and P2 parallel
//!   threshold-based BFS (TP-BFS) engines that grow islands to closure,
//!   with the three task-break conditions (island found, `c_max` overflow,
//!   global-visited conflict) simulated in deterministic lock-step;
//! * the **Island Consumer** ([`consumer`]) — per-island PULL-based
//!   combination, pre-aggregation of every `k` consecutive members,
//!   `1×k` window-scan aggregation with shared-neighbor redundancy
//!   removal, the multi-banked hub partial-result cache (DHUB-PRC) updated
//!   over a ring network with in-network reduction, and PUSH-outer-product
//!   inter-hub tasks.
//!
//! [`exec::IGcnEngine`] ties the two together into end-to-end GCN /
//! GraphSage / GIN inference whose outputs are verified against the plain
//! software reference, and [`accel::Accelerator`] is the unified
//! serving trait (`prepare`/`infer`/`report`) the engine, the CPU
//! reference and every simulated baseline implement.
//!
//! # Quick start
//!
//! ```
//! use igcn_core::{islandize, IslandizationConfig};
//! use igcn_graph::generate::HubIslandConfig;
//!
//! let g = HubIslandConfig::new(300, 12).noise_fraction(0.0).generate(1);
//! let partition = islandize(&g.graph, &IslandizationConfig::default());
//! partition.check_invariants(&g.graph).unwrap();
//! assert!(partition.num_islands() > 0);
//! ```

pub mod accel;
pub mod config;
pub mod consumer;
pub mod error;
pub mod exec;
pub mod incremental;
pub mod island;
pub mod layout;
pub mod locator;
pub mod partition;
pub mod schedule;
pub mod stats;

pub use accel::{
    Accelerator, BackendHealth, CpuReference, ExecReport, GraphUpdate, InferenceRequest,
    InferenceResponse, UpdateReport,
};
pub use config::{ConsumerConfig, ExecConfig, IslandizationConfig, ThresholdInit};
pub use consumer::hotpath::LayerScratch;
pub use error::CoreError;
pub use exec::{EngineParts, IGcnEngine, IGcnEngineBuilder};
pub use incremental::{
    incremental_islandize, incremental_update, IncrementalResult, LocatorRounds,
};
pub use island::{Island, IslandBitmap};
pub use layout::{InterHubTasks, IslandLayout, LaidIslands};
pub use locator::{islandize, IslandLocator};
pub use partition::IslandPartition;
pub use schedule::IslandSchedule;
pub use stats::{AggregationStats, ExecStats, LocatorStats, OccupancyStats, TrafficStats};
