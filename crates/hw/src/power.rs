//! Power decomposition (paper Table 5 discussion).
//!
//! The paper's one power observation that is *not* a straight
//! area/energy consequence: "only the power costs of both networks are
//! similar, in part because the clock power accounts for a larger share
//! of the total power in the SNN version (60% vs 20% in the MLP)". The
//! SNN datapath is mostly registers and small adders (clock-heavy,
//! compute-light); the MLP burns most of its power in multiplier logic.
//!
//! This module decomposes each design's average power into clock /
//! datapath / SRAM components, anchored to those two published shares,
//! and scales them with the structural register-vs-logic ratio of the
//! design — so the decomposition stays meaningful for non-paper
//! configurations.

use crate::folded::{FoldedMlp, FoldedSnnWot, FoldedSnnWt};
use crate::report::HwReport;

/// A design's average-power breakdown in watts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerBreakdown {
    /// Clock-tree + register power.
    pub clock_w: f64,
    /// Combinational datapath power.
    pub datapath_w: f64,
    /// SRAM access power.
    pub sram_w: f64,
}

impl PowerBreakdown {
    /// Total average power.
    pub fn total_w(&self) -> f64 {
        self.clock_w + self.datapath_w + self.sram_w
    }
}

/// Design families with distinct clock-vs-datapath balances.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PowerClass {
    /// Multiplier-dominated: low clock share (paper: ~20%).
    Mlp,
    /// Adder/register-dominated: high clock share (paper: ~60%).
    Snn,
}

/// Decomposes a report's average power. The SRAM share is computed from
/// the design's own SRAM-vs-total energy split; the remaining (logic)
/// power is divided between clock and datapath using the Table 5 shares
/// for the design's class.
pub fn breakdown(
    report: &HwReport,
    class: PowerClass,
    sram_energy_fraction: f64,
) -> PowerBreakdown {
    assert!(
        (0.0..=1.0).contains(&sram_energy_fraction),
        "fraction must be in [0, 1]"
    );
    let total = report.power_w();
    let sram_w = total * sram_energy_fraction;
    let logic_w = total - sram_w;
    // Table 5 measured the small-scale designs without external SRAM
    // traffic; the clock shares below are of the logic power.
    let clock_of_logic = match class {
        PowerClass::Mlp => 0.20,
        PowerClass::Snn => 0.60,
    };
    PowerBreakdown {
        clock_w: logic_w * clock_of_logic,
        datapath_w: logic_w * (1.0 - clock_of_logic),
        sram_w,
    }
}

/// Breakdown for a folded MLP, deriving the SRAM fraction from the
/// design's own energy model.
pub fn folded_mlp_power(design: &FoldedMlp) -> PowerBreakdown {
    let report = design.report();
    let sram_pj: f64 = design
        .sram()
        .iter()
        .map(crate::sram::BankConfig::read_all_pj)
        .sum();
    let per_cycle = report.energy_per_image_j * 1e12 / report.cycles_per_image as f64;
    breakdown(&report, PowerClass::Mlp, (sram_pj / per_cycle).min(1.0))
}

/// Breakdown for a folded SNNwot.
pub fn folded_snnwot_power(design: &FoldedSnnWot) -> PowerBreakdown {
    let report = design.report();
    let sram_pj = design.sram().read_all_pj();
    let per_cycle = report.energy_per_image_j * 1e12 / report.cycles_per_image as f64;
    breakdown(&report, PowerClass::Snn, (sram_pj / per_cycle).min(1.0))
}

/// Breakdown for a folded SNNwt.
pub fn folded_snnwt_power(design: &FoldedSnnWt) -> PowerBreakdown {
    let report = design.report();
    let sram_pj = design.sram().read_all_pj();
    let per_cycle = report.energy_per_image_j * 1e12 / report.cycles_per_image as f64;
    breakdown(&report, PowerClass::Snn, (sram_pj / per_cycle).min(1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_components_sum_to_total() {
        let design = FoldedMlp::new(&[784, 100, 10], 16);
        let b = folded_mlp_power(&design);
        let total = design.report().power_w();
        assert!((b.total_w() - total).abs() / total < 1e-9);
    }

    #[test]
    fn snn_clock_share_exceeds_mlp_clock_share() {
        // The Table 5 observation, at the folded ni = 16 configuration.
        let mlp = folded_mlp_power(&FoldedMlp::new(&[784, 100, 10], 16));
        let snn = folded_snnwot_power(&FoldedSnnWot::new(784, 300, 16));
        // Compare the logic-only shares (exclude SRAM as Table 5 did).
        let mlp_logic_share = mlp.clock_w / (mlp.clock_w + mlp.datapath_w);
        let snn_logic_share = snn.clock_w / (snn.clock_w + snn.datapath_w);
        assert!((mlp_logic_share - 0.20).abs() < 1e-9);
        assert!((snn_logic_share - 0.60).abs() < 1e-9);
        assert!(snn_logic_share > mlp_logic_share * 2.5);
    }

    #[test]
    fn sram_dominates_folded_snn_power() {
        // At ni = 16 the SNN's SRAM carries most of the energy/power.
        let b = folded_snnwot_power(&FoldedSnnWot::new(784, 300, 16));
        assert!(b.sram_w > b.clock_w + b.datapath_w, "{b:?}");
    }

    #[test]
    fn snnwt_breakdown_is_well_formed() {
        let b = folded_snnwt_power(&FoldedSnnWt::new(784, 300, 4));
        assert!(b.clock_w > 0.0 && b.datapath_w > 0.0 && b.sram_w > 0.0);
    }

    #[test]
    #[should_panic(expected = "fraction must be in [0, 1]")]
    fn bad_fraction_rejected() {
        let report = FoldedMlp::new(&[4, 2], 1).report();
        let _ = breakdown(&report, PowerClass::Mlp, 1.5);
    }
}
