//! The energy model behind Table 2's energy-efficiency column.

use serde::{Deserialize, Serialize};

/// Energy constants for the FPGA platform.
///
/// fp32 MAC on a 14 nm FPGA ≈ 12.5 pJ, DDR4 access ≈ 35 pJ/byte at the
/// pins plus controller, ~30 W static for the full shell. Table 2's
/// latency and energy-efficiency pairs imply a higher board power than
/// these constants draw; the Table 2 cells of `igcn_bench::paper` record
/// by how much.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyModel {
    /// Energy per scalar MAC/add (joules).
    pub op_energy_j: f64,
    /// Energy per off-chip byte (joules).
    pub dram_energy_j_per_byte: f64,
    /// Energy per on-chip SRAM byte touched (joules).
    pub sram_energy_j_per_byte: f64,
    /// Static (leakage + shell) power in watts.
    pub static_power_w: f64,
}

impl EnergyModel {
    /// The calibrated FPGA model described above.
    pub fn fpga_default() -> Self {
        EnergyModel {
            op_energy_j: 12.5e-12,
            dram_energy_j_per_byte: 35e-12,
            sram_energy_j_per_byte: 1.2e-12,
            static_power_w: 30.0,
        }
    }

    /// Total energy of a run in joules.
    ///
    /// `sram_bytes` may be approximated as a small multiple of the op
    /// count (each op reads two operands and writes one word through
    /// on-chip buffers).
    pub fn energy_joules(&self, ops: u64, dram_bytes: u64, sram_bytes: u64, seconds: f64) -> f64 {
        ops as f64 * self.op_energy_j
            + dram_bytes as f64 * self.dram_energy_j_per_byte
            + sram_bytes as f64 * self.sram_energy_j_per_byte
            + seconds * self.static_power_w
    }

    /// Table 2's energy-efficiency metric: graphs per kilojoule.
    pub fn graphs_per_kilojoule(&self, energy_j: f64) -> f64 {
        if energy_j <= 0.0 {
            0.0
        } else {
            1.0 / (energy_j / 1000.0)
        }
    }

    /// Implied average power of a run (watts).
    pub fn average_power_w(&self, energy_j: f64, seconds: f64) -> f64 {
        if seconds <= 0.0 {
            0.0
        } else {
            energy_j / seconds
        }
    }
}

impl Default for EnergyModel {
    fn default() -> Self {
        Self::fpga_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_components_add() {
        let m = EnergyModel {
            op_energy_j: 1.0,
            dram_energy_j_per_byte: 2.0,
            sram_energy_j_per_byte: 0.5,
            static_power_w: 10.0,
        };
        let e = m.energy_joules(3, 4, 2, 0.5);
        assert!((e - (3.0 + 8.0 + 1.0 + 5.0)).abs() < 1e-12);
    }

    #[test]
    fn graphs_per_kj_inverse() {
        let m = EnergyModel::fpga_default();
        let ee = m.graphs_per_kilojoule(1e-4);
        assert!((ee - 1e7).abs() / 1e7 < 1e-9);
        assert_eq!(m.graphs_per_kilojoule(0.0), 0.0);
    }

    #[test]
    fn default_power_envelope_plausible() {
        // A fully-busy second: 4096 MACs at 330 MHz plus full DDR4 traffic
        // should land in the 40–150 W band the calibration targets.
        let m = EnergyModel::fpga_default();
        let ops = (4096u64) * 330_000_000;
        let bytes = 76_800_000_000u64;
        let sram = ops * 12;
        let e = m.energy_joules(ops, bytes, sram, 1.0);
        let p = m.average_power_w(e, 1.0);
        assert!(p > 40.0 && p < 150.0, "implied power {p} W outside the calibration band");
    }
}
