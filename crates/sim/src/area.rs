//! The ALM area model behind Figure 11.
//!
//! The paper normalises LUT/FF/DSP usage to Adaptive Logic Modules (ALMs)
//! and reports the Island Locator / Island Consumer split of an I-GCN
//! with 4K MACs and 64 TP-BFS engines. The per-component constants below
//! are calibrated so the default configuration lands on that split (the
//! Fig 11 cells of `igcn_bench::paper` check it) while remaining
//! parametric in P1/P2/#MACs/#PEs for ablations.

use serde::{Deserialize, Serialize};

use crate::hw::HardwareConfig;

/// Per-component ALM cost constants.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AreaModel {
    /// ALMs per fp32 MAC (DSP slices normalised to ALMs).
    pub alms_per_mac: f64,
    /// ALMs per TP-BFS engine (FSM + Local Visited Table + island bitmap
    /// buffer + query logic).
    pub alms_per_tpbfs_engine: f64,
    /// ALMs per hub-detection lane (loop-back FIFO + island filter +
    /// comparator).
    pub alms_per_hub_lane: f64,
    /// ALMs per TP-BFS task queue (one per engine).
    pub alms_per_task_queue: f64,
    /// Fixed ALMs of the island-node tables (PR-INT/CR-INT).
    pub island_table_alms: f64,
    /// ALMs per PE for the island collector, scheduler and CASE FSMs.
    pub alms_per_pe_control: f64,
    /// ALMs per PE for its DHUB-PRC bank and XW-cache port logic.
    pub alms_per_pe_cache: f64,
    /// ALMs per ring-network switch (one per PE).
    pub alms_per_ring_switch: f64,
}

impl AreaModel {
    /// The calibrated Stratix-10 model.
    pub fn fpga_default() -> Self {
        AreaModel {
            alms_per_mac: 118.0,
            alms_per_tpbfs_engine: 4200.0,
            alms_per_hub_lane: 2100.0,
            alms_per_task_queue: 950.0,
            island_table_alms: 16_000.0,
            alms_per_pe_control: 5200.0,
            alms_per_pe_cache: 17_500.0,
            alms_per_ring_switch: 2600.0,
        }
    }

    /// Computes the breakdown for a hardware configuration.
    pub fn breakdown(&self, hw: &HardwareConfig) -> AreaBreakdown {
        let hub_detector = self.alms_per_hub_lane * hw.hub_lanes as f64;
        let tpbfs = self.alms_per_tpbfs_engine * hw.tpbfs_engines as f64;
        let task_queues = self.alms_per_task_queue * hw.tpbfs_engines as f64;
        let tables = self.island_table_alms;
        let macs = self.alms_per_mac * hw.num_macs as f64;
        let pe_control = self.alms_per_pe_control * hw.num_pes as f64;
        let pe_caches = self.alms_per_pe_cache * hw.num_pes as f64;
        let ring = self.alms_per_ring_switch * hw.num_pes as f64;
        AreaBreakdown {
            hub_detector_alms: hub_detector,
            tpbfs_engine_alms: tpbfs,
            task_queue_alms: task_queues,
            island_table_alms: tables,
            mac_array_alms: macs,
            pe_control_alms: pe_control,
            pe_cache_alms: pe_caches,
            ring_network_alms: ring,
        }
    }
}

impl Default for AreaModel {
    fn default() -> Self {
        Self::fpga_default()
    }
}

/// ALM usage per architectural component.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AreaBreakdown {
    /// Hub Detector: degree FIFOs, island filters, comparators.
    pub hub_detector_alms: f64,
    /// TP-BFS engines.
    pub tpbfs_engine_alms: f64,
    /// TP-BFS task queues.
    pub task_queue_alms: f64,
    /// PR-INT / CR-INT island-node tables.
    pub island_table_alms: f64,
    /// The MAC array (DSPs normalised to ALMs).
    pub mac_array_alms: f64,
    /// Island Collector, scheduler and CASE FSMs.
    pub pe_control_alms: f64,
    /// DHUB-PRC banks and HUB XW cache port logic.
    pub pe_cache_alms: f64,
    /// Ring-network switches with in-network reduction.
    pub ring_network_alms: f64,
}

impl AreaBreakdown {
    /// ALMs of the Island Locator (hub detector + TP-BFS + queues +
    /// tables).
    pub fn locator_alms(&self) -> f64 {
        self.hub_detector_alms
            + self.tpbfs_engine_alms
            + self.task_queue_alms
            + self.island_table_alms
    }

    /// ALMs of the Island Consumer (MACs + PE control + caches + ring).
    pub fn consumer_alms(&self) -> f64 {
        self.mac_array_alms + self.pe_control_alms + self.pe_cache_alms + self.ring_network_alms
    }

    /// Total accelerator ALMs.
    pub fn total_alms(&self) -> f64 {
        self.locator_alms() + self.consumer_alms()
    }

    /// Island Locator share of the accelerator (Figure 11's split).
    pub fn locator_fraction(&self) -> f64 {
        self.locator_alms() / self.total_alms()
    }

    /// `(component name, ALMs)` rows for table rendering.
    pub fn rows(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("Hub Detector (FIFOs + filters)", self.hub_detector_alms),
            ("TP-BFS engines", self.tpbfs_engine_alms),
            ("TP-BFS task queues", self.task_queue_alms),
            ("Island node tables (PR/CR-INT)", self.island_table_alms),
            ("MAC array", self.mac_array_alms),
            ("PE control + scheduler", self.pe_control_alms),
            ("DHUB-PRC + XW caches", self.pe_cache_alms),
            ("Ring network", self.ring_network_alms),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_split_matches_figure_11() {
        // The split the Fig 11 cells of `igcn_bench::paper` check against
        // the published one, pinned so a retuned constant is deliberate.
        let b = AreaModel::fpga_default().breakdown(&HardwareConfig::paper_default());
        let frac = b.locator_fraction();
        assert!((frac - 0.3560804).abs() < 1e-6, "locator fraction {frac} drifted");
    }

    #[test]
    fn components_sum() {
        let b = AreaModel::fpga_default().breakdown(&HardwareConfig::paper_default());
        let sum: f64 = b.rows().iter().map(|(_, a)| a).sum();
        assert!((sum - b.total_alms()).abs() < 1e-6);
    }

    #[test]
    fn more_engines_grow_locator_share() {
        let model = AreaModel::fpga_default();
        let hw = HardwareConfig::paper_default();
        let small = model.breakdown(&HardwareConfig { tpbfs_engines: 16, ..hw });
        let large = model.breakdown(&HardwareConfig { tpbfs_engines: 128, ..hw });
        assert!(large.locator_fraction() > small.locator_fraction());
    }
}
