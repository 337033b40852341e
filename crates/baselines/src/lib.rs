//! Behavioural simulators of the comparison platforms.
//!
//! The paper's cross-platform evaluation (§4.6, Figure 14, Table 2) pits
//! I-GCN against prior GCN accelerators, an SpMM accelerator, and
//! PyG/DGL software stacks on server CPUs and GPUs. This crate models
//! each of them at the dataflow level, sharing the
//! [`igcn_sim::GcnAccelerator`] trait so the Figure 14 harness iterates
//! one list:
//!
//! * [`awbgcn::AwbGcn`] — PUSH-column-wise with runtime workload
//!   autotuning (MICRO'20): sparsity-aware compute, result-matrix
//!   spill passes over the adjacency when `n × h` exceeds on-chip SRAM;
//! * [`hygcn::HyGcn`] — hybrid PULL architecture with window-based
//!   sparsity elimination (HPCA'20): aggregation-first over raw features,
//!   dense systolic combination;
//! * [`sigma::Sigma`] — flexible-interconnect sparse GEMM engine
//!   (HPCA'20): high MAC utilization but no graph-aware locality;
//! * [`platform`] — roofline + framework-overhead models of
//!   the PyG/DGL CPU and GPU baselines;
//! * [`methods`] — the measured PULL/PUSH/islandization comparison behind
//!   Table 1.
//!
//! Every model here also serves through the unified
//! [`igcn_core::accel::Accelerator`] trait via `igcn_sim::SimBackend`
//! (see the `*Backend` aliases), so serving harnesses and the backend
//! conformance suite treat them exactly like the real engine.
//!
//! Model constants follow each platform's published configuration; the
//! reproduction target is the *shape* of Figure 14 and Table 2, not
//! absolute numbers. How far each model lands from the paper's published
//! results is recorded, cell by cell, in `igcn_bench::paper`.

pub mod awbgcn;
pub mod hygcn;
pub mod methods;
pub mod platform;
pub mod sigma;

pub use awbgcn::AwbGcn;
pub use hygcn::HyGcn;
pub use platform::{Platform, PlatformKind};
pub use sigma::Sigma;

/// AWB-GCN behind the unified [`igcn_core::accel::Accelerator`] trait.
pub type AwbGcnBackend = igcn_sim::SimBackend<AwbGcn>;
/// HyGCN behind the unified [`igcn_core::accel::Accelerator`] trait.
pub type HyGcnBackend = igcn_sim::SimBackend<HyGcn>;
/// SIGMA behind the unified [`igcn_core::accel::Accelerator`] trait.
pub type SigmaBackend = igcn_sim::SimBackend<Sigma>;
/// A CPU/GPU software platform behind the unified
/// [`igcn_core::accel::Accelerator`] trait.
pub type PlatformBackend = igcn_sim::SimBackend<Platform>;
