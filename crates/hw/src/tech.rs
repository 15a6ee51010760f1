//! The 65 nm operator library.
//!
//! Every constant below is traceable to a specific number the paper
//! publishes for its TSMC 65 nm GPlus high-VT implementation; quantities
//! the paper does not publish are derived from the published ones by the
//! scaling rules stated next to each item. This file is the calibration
//! boundary of the whole cost model: `expanded`/`folded`/`online` compose
//! these operators structurally and never invent new constants.

/// Area of an 8-bit fixed-point multiplier, µm² (Table 4: "multiplier,
/// 862").
pub const MULT8_AREA: f64 = 862.0;

/// Area of one CLT Gaussian random number generator (four 31-bit LFSRs),
/// µm² (§4.2.2: "a single Gaussian random number generator costs
/// 1,749 µm²").
pub const GAUSSIAN_RNG_AREA: f64 = 1_749.0;

/// Area of one 20-input max unit, µm² (Table 4: "max, 6081"; §4.3.2
/// describes the 15×20-input + 1×15-input two-level tree for 300
/// neurons).
pub const MAX20_AREA: f64 = 6_081.0;

/// Fan-in of one max unit in the readout tree.
pub const MAX_FANIN: usize = 20;

/// Per-adder area of the MLP product-accumulation tree, µm²/adder
/// (Table 4: a 784-input tree costs 45,436 µm² → 45,436/783 ≈ 58.0; the
/// 100-input output tree at 5,657/99 ≈ 57.1 confirms linearity).
pub const MLP_TREE_ADDER_AREA: f64 = 58.0;

/// Per-adder area of the SNNwt 8-bit accumulation tree, µm²/adder
/// (Table 4: 60,820 µm² for 784 inputs → 77.7).
pub const SNNWT_TREE_ADDER_AREA: f64 = 77.7;

/// Per-adder area of the SNNwot 12-bit (8-bit weight × 4-bit count)
/// shifter/adder + Wallace tree datapath, µm²/adder (Table 4:
/// 89,006 µm² for 784 inputs → 113.7).
pub const SNNWOT_TREE_ADDER_AREA: f64 = 113.7;

/// Area of the piecewise-linear sigmoid unit: the 16-entry coefficient
/// table plus a multiplier and an adder (§4.2.1). Derived as multiplier
/// (862) plus adder (~58) plus 16 coefficient-table entries (small SRAM,
/// ~30 µm²/entry); the total is the residual of Table 7's folded-MLP
/// ni = 1 point.
pub const SIGMOID_UNIT_AREA: f64 = 862.0 + 58.0 + 16.0 * 30.0;

/// Area of an 8-bit register, µm². Derived from the residual between the
/// folded-MLP per-neuron area (Table 7) and its multiplier/tree/sigmoid
/// content.
pub const REG8_AREA: f64 = 50.0;

/// Builds a two-level max tree (readout) for `n` inputs and returns
/// `(units, area_um2)` (§4.3.2: 15 + 1 units for 300 neurons).
pub fn max_tree(n: usize) -> (usize, f64) {
    if n <= 1 {
        return (0, 0.0);
    }
    let first = n.div_ceil(MAX_FANIN);
    let units = if first > 1 { first + 1 } else { 1 };
    (units, units as f64 * MAX20_AREA)
}

/// Area of a `k`-input accumulation tree with the given per-adder cost.
pub fn adder_tree_area(inputs: usize, per_adder: f64) -> f64 {
    if inputs <= 1 {
        // A single input still needs the accumulation adder.
        per_adder
    } else {
        (inputs - 1) as f64 * per_adder
    }
}

/// Design families whose clock periods the paper reports (Table 7 plus
/// Table 9 for the online-learning core).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DesignKind {
    /// Spatially folded / expanded MLP.
    Mlp,
    /// SNN without timing information.
    SnnWot,
    /// SNN with timing information.
    SnnWt,
    /// SNNwt + online STDP (Table 9).
    SnnOnline,
}

/// Clock-period anchors in ns at `ni ∈ {1, 4, 8, 16}` (Table 7 "Delay"
/// column; Table 9 for [`DesignKind::SnnOnline`]), and the expanded-design
/// period.
///
/// The paper reports layout-extracted critical paths; intermediate `ni`
/// are log-linearly interpolated, `ni > 16` is extrapolated toward the
/// expanded-design value at `ni = inputs`.
pub fn clock_period_ns(kind: DesignKind, ni: usize) -> f64 {
    let anchors: [(f64, f64); 4] = match kind {
        DesignKind::Mlp => [(1.0, 2.24), (4.0, 2.24), (8.0, 2.25), (16.0, 2.25)],
        DesignKind::SnnWot => [(1.0, 1.24), (4.0, 1.48), (8.0, 1.76), (16.0, 1.84)],
        DesignKind::SnnWt => [(1.0, 1.15), (4.0, 1.11), (8.0, 1.18), (16.0, 1.84)],
        DesignKind::SnnOnline => [(1.0, 1.23), (4.0, 1.48), (8.0, 1.81), (16.0, 1.88)],
    };
    interp_log(&anchors, ni as f64)
}

/// Expanded-design clock periods in ns (Table 7 "expanded" rows).
pub fn expanded_clock_period_ns(kind: DesignKind) -> f64 {
    match kind {
        DesignKind::Mlp => 3.79,
        DesignKind::SnnWot => 3.17,
        DesignKind::SnnWt | DesignKind::SnnOnline => 2.61,
    }
}

/// Per-cycle *datapath* energy (excluding SRAM reads, which
/// [`crate::sram`] accounts separately) in pJ, as a linear function of
/// `ni` per hardware neuron.
///
/// Calibrated from Table 7 by subtracting the Table 6 SRAM energy from
/// the per-image energy and dividing by the cycle count, then regressing
/// on `ni` (see `EXPERIMENTS.md` for the residuals):
///
/// * MLP (110 neurons): `datapath/cycle ≈ 28 pJ + 0.84 pJ × ni × neurons`
/// * SNNwot (300 neurons): `≈ 150 pJ + 0.55 pJ × ni × neurons`
/// * SNNwt (300 neurons): `≈ 120 pJ + 0.45 pJ × ni × neurons`
pub fn datapath_energy_per_cycle_pj(kind: DesignKind, ni: usize, neurons: usize) -> f64 {
    let (fixed, per_lane) = match kind {
        DesignKind::Mlp => (28.0, 0.84),
        DesignKind::SnnWot => (150.0, 0.55),
        DesignKind::SnnWt => (120.0, 0.45),
        // Online learning adds the STDP/homeostasis machinery (weight
        // write-back dominates): Table 9 shows ×1.02 (ni=16) to ×1.50
        // (ni=1) total energy over SNNwt, i.e. ≈ +600 pJ/cycle flat.
        DesignKind::SnnOnline => (120.0 + 600.0, 0.45),
    };
    fixed + per_lane * ni as f64 * neurons as f64
}

/// Log-linear interpolation over `(x, y)` anchors sorted by `x`,
/// clamping outside the anchor range to the boundary slope.
pub fn interp_log(anchors: &[(f64, f64)], x: f64) -> f64 {
    assert!(anchors.len() >= 2, "need at least two anchors");
    let lx = x.max(1e-9).ln();
    // Find the bracketing segment (clamp to the first/last segment).
    let mut i = 0;
    while i + 2 < anchors.len() && anchors[i + 1].0.ln() < lx {
        i += 1;
    }
    let (x0, y0) = anchors[i];
    let (x1, y1) = anchors[i + 1];
    let t = (lx - x0.ln()) / (x1.ln() - x0.ln());
    y0 + (y1 - y0) * t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mlp_tree_anchors_reproduce_table_4() {
        // 784-input hidden tree: 45,436 µm².
        let a = adder_tree_area(784, MLP_TREE_ADDER_AREA);
        assert!((a - 45_436.0).abs() / 45_436.0 < 0.01, "{a}");
        // 100-input output tree: 5,657 µm².
        let b = adder_tree_area(100, MLP_TREE_ADDER_AREA);
        assert!((b - 5_657.0).abs() / 5_657.0 < 0.02, "{b}");
    }

    #[test]
    fn snn_tree_anchors_reproduce_table_4() {
        let wot = adder_tree_area(784, SNNWOT_TREE_ADDER_AREA);
        assert!((wot - 89_006.0).abs() / 89_006.0 < 0.01, "{wot}");
        let wt = adder_tree_area(784, SNNWT_TREE_ADDER_AREA);
        assert!((wt - 60_820.0).abs() / 60_820.0 < 0.01, "{wt}");
    }

    #[test]
    fn max_tree_matches_section_4_3_2() {
        // 300 neurons → 15 first-level + 1 second-level units.
        let (units, area) = max_tree(300);
        assert_eq!(units, 16);
        assert!((area - 16.0 * MAX20_AREA).abs() < 1e-9);
        // Table 4 rounds this to 0.10 mm².
        assert!((area / 1e6 - 0.10).abs() < 0.005);
    }

    #[test]
    fn max_tree_degenerate_cases() {
        assert_eq!(max_tree(1), (0, 0.0));
        assert_eq!(max_tree(20).0, 1);
        assert_eq!(max_tree(21).0, 3); // 2 first-level + 1 second-level
    }

    #[test]
    fn clock_periods_hit_the_anchors() {
        assert_eq!(clock_period_ns(DesignKind::Mlp, 1), 2.24);
        assert_eq!(clock_period_ns(DesignKind::Mlp, 16), 2.25);
        assert_eq!(clock_period_ns(DesignKind::SnnWot, 4), 1.48);
        assert_eq!(clock_period_ns(DesignKind::SnnOnline, 8), 1.81);
    }

    #[test]
    fn clock_period_interpolates_between_anchors() {
        let p = clock_period_ns(DesignKind::SnnWot, 6);
        assert!(p > 1.48 && p < 1.76, "{p}");
    }

    #[test]
    fn interp_log_is_exact_at_anchor_points() {
        let anchors = [(1.0, 10.0), (4.0, 20.0), (16.0, 40.0)];
        assert!((interp_log(&anchors, 4.0) - 20.0).abs() < 1e-9);
        assert!((interp_log(&anchors, 1.0) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn datapath_energy_grows_with_lanes() {
        let lo = datapath_energy_per_cycle_pj(DesignKind::Mlp, 1, 110);
        let hi = datapath_energy_per_cycle_pj(DesignKind::Mlp, 16, 110);
        assert!(hi > lo * 5.0);
    }
}
