//! Cycle-approximate hardware model of the I-GCN accelerator.
//!
//! The paper evaluates I-GCN on a Stratix 10 SX FPGA with 4096 fp32 MAC
//! units at 330 MHz and 64 TP-BFS engines. This crate converts the exact
//! operation/traffic statistics produced by `igcn-core` into time, energy
//! and area under that hardware model:
//!
//! * [`hw::HardwareConfig`] — MACs, frequency, DRAM bandwidth, SRAM
//!   capacity (defaults match §4.6's "fairness of evaluation" setup);
//! * [`compute::MacArray`] / [`memory::DramModel`] — the two roofline
//!   resources; phase latency is `max(compute, memory)` with the Island
//!   Locator overlapped against the first layer (§3.1.1);
//! * [`energy::EnergyModel`] — per-op/per-byte/static energy constants
//!   behind Table 2's energy-efficiency column;
//! * [`area::AreaModel`] — per-component ALM costs behind the Figure 11
//!   Locator/Consumer split;
//! * [`accelerator::IGcnAccelerator`] — ties everything together and
//!   implements the [`report::GcnAccelerator`] trait shared with the
//!   baseline simulators in `igcn-baselines`;
//! * [`backend::SimBackend`] — binds any [`report::GcnAccelerator`] to a
//!   graph and serves it through the unified
//!   [`igcn_core::accel::Accelerator`] trait.
//!
//! Absolute numbers are model outputs, not testbed measurements; the
//! reproduction targets are the *shapes* (who wins, by what factor, where
//! crossovers fall). The published values and how far the model lands
//! from each are the cells of `igcn_bench::paper` (the `paper` bin).

pub mod accelerator;
pub mod area;
pub mod backend;
pub mod compute;
pub mod energy;
pub mod hw;
pub mod memory;
pub mod report;

pub use accelerator::IGcnAccelerator;
pub use area::{AreaBreakdown, AreaModel};
pub use backend::SimBackend;
pub use compute::MacArray;
pub use energy::EnergyModel;
pub use hw::HardwareConfig;
pub use memory::DramModel;
pub use report::{GcnAccelerator, SimReport};
