//! Randomized invariant tests for the hardware cost model and datapath
//! simulators: structural invariants that must hold for *any* network
//! geometry, not just the paper's.
//!
//! Formerly proptest-based; converted to a deterministic std-only harness
//! (seeded [`SplitMix64`] case generation) so the workspace builds and
//! tests fully offline.

use nc_hw::expanded::{ExpandedMlp, ExpandedSnn, SnnVariant};
use nc_hw::folded::{FoldedMlp, FoldedSnnWot, FoldedSnnWt};
use nc_hw::sim::{FoldedMlpSim, WotDatapathSim};
use nc_hw::sram::BankConfig;
use nc_mlp::{Activation, Mlp, QuantizedMlp};
use nc_snn::{SnnParams, WotSnn};
use nc_substrate::rng::SplitMix64;

const CASES: u64 = 48;

fn random_bytes(rng: &mut SplitMix64, n: usize) -> Vec<u8> {
    (0..n).map(|_| rng.next_u64() as u8).collect()
}

#[test]
fn reports_are_internally_consistent() {
    let mut rng = SplitMix64::new(0x4101);
    for case in 0..CASES {
        let inputs = 1 + rng.next_below(999) as usize;
        let neurons = 1 + rng.next_below(399) as usize;
        let ni = 1 + rng.next_below(31) as usize;
        for report in [
            FoldedSnnWot::new(inputs, neurons, ni).report(),
            FoldedSnnWt::new(inputs, neurons, ni).report(),
            FoldedMlp::new(&[inputs, neurons, 10], ni).report(),
        ] {
            let ctx = format!("case {case}: inputs {inputs} neurons {neurons} ni {ni}");
            assert!(report.total_area_mm2 > 0.0, "{ctx}");
            assert!(
                (report.total_area_mm2 - (report.logic_area_mm2 + report.sram_area_mm2)).abs()
                    < 1e-9,
                "{ctx}"
            );
            assert!(report.clock_ns > 0.0, "{ctx}");
            assert!(report.cycles_per_image > 0, "{ctx}");
            assert!(report.energy_per_image_j > 0.0, "{ctx}");
            assert!(report.power_w() > 0.0, "{ctx}");
        }
    }
}

#[test]
fn more_lanes_is_bigger_but_faster() {
    let mut rng = SplitMix64::new(0x4102);
    for case in 0..CASES {
        let inputs = 32 + rng.next_below(968) as usize;
        let neurons = 10 + rng.next_below(290) as usize;
        let ni = 1 + rng.next_below(7) as usize;
        let small = FoldedSnnWot::new(inputs, neurons, ni).report();
        let big = FoldedSnnWot::new(inputs, neurons, ni * 2).report();
        assert!(big.logic_area_mm2 > small.logic_area_mm2, "case {case}");
        assert!(
            big.cycles_per_image <= small.cycles_per_image,
            "case {case}"
        );
    }
}

#[test]
fn bank_capacity_covers_all_weights() {
    let mut rng = SplitMix64::new(0x4103);
    for case in 0..CASES {
        let neurons = 1 + rng.next_below(499) as usize;
        let inputs = 1 + rng.next_below(1999) as usize;
        let ni = 1 + rng.next_below(63) as usize;
        let cfg = BankConfig::for_layer(neurons, inputs, ni);
        let capacity_bits = cfg.banks as u64 * cfg.depth as u64 * 128;
        let needed_bits = neurons as u64 * inputs as u64 * 8;
        assert!(
            capacity_bits >= needed_bits,
            "case {case}: banks {} x depth {} cannot hold {} weights",
            cfg.banks,
            cfg.depth,
            neurons * inputs
        );
    }
}

#[test]
fn folded_cycles_match_the_closed_forms() {
    let mut rng = SplitMix64::new(0x4104);
    for case in 0..CASES {
        let inputs = 1 + rng.next_below(1999) as usize;
        let neurons = 1 + rng.next_below(99) as usize;
        let ni = 1 + rng.next_below(63) as usize;
        let wot = FoldedSnnWot::new(inputs, neurons, ni);
        assert_eq!(
            wot.cycles_per_image(),
            inputs.div_ceil(ni) as u64 + 7,
            "case {case}"
        );
        let wt = FoldedSnnWt::new(inputs, neurons, ni);
        assert_eq!(
            wt.cycles_per_image(),
            (inputs.div_ceil(ni) as u64 + 7) * 500,
            "case {case}"
        );
        let mlp = FoldedMlp::new(&[inputs, neurons, 10], ni);
        assert_eq!(
            mlp.cycles_per_image(),
            inputs.div_ceil(ni) as u64 + 1 + neurons.div_ceil(ni) as u64 + 1,
            "case {case}"
        );
    }
}

#[test]
fn expanded_inventory_counts_scale_with_topology() {
    let mut rng = SplitMix64::new(0x4105);
    for case in 0..CASES {
        let inputs = 2 + rng.next_below(498) as usize;
        let hidden = 1 + rng.next_below(199) as usize;
        let outputs = 1 + rng.next_below(19) as usize;
        let mlp = ExpandedMlp::new(&[inputs, hidden, outputs]);
        let inv = mlp.inventory();
        assert_eq!(inv[0].count, hidden, "case {case}");
        assert_eq!(inv[1].count, outputs, "case {case}");
        assert_eq!(
            inv[2].count,
            inputs * hidden + hidden * outputs + hidden + outputs,
            "case {case}"
        );
    }
}

#[test]
fn expanded_snn_area_grows_monotonically() {
    let mut rng = SplitMix64::new(0x4106);
    for case in 0..CASES {
        let inputs = 2 + rng.next_below(498) as usize;
        let neurons = 1 + rng.next_below(199) as usize;
        let base = ExpandedSnn::new(SnnVariant::Wot, inputs, neurons).report();
        let wider = ExpandedSnn::new(SnnVariant::Wot, inputs + 1, neurons).report();
        let taller = ExpandedSnn::new(SnnVariant::Wot, inputs, neurons + 1).report();
        assert!(wider.total_area_mm2 >= base.total_area_mm2, "case {case}");
        assert!(taller.total_area_mm2 >= base.total_area_mm2, "case {case}");
    }
}

#[test]
fn folded_mlp_sim_is_ni_invariant() {
    // The chunking factor is a scheduling choice; it must never change
    // the functional result.
    let mut rng = SplitMix64::new(0x4107);
    for case in 0..CASES {
        let seed = rng.next_u64();
        let pixels = random_bytes(&mut rng, 20);
        let ni_a = 1 + rng.next_below(19) as usize;
        let ni_b = 1 + rng.next_below(19) as usize;
        let mlp = Mlp::new(&[20, 7, 4], Activation::sigmoid(), seed).unwrap();
        let q = QuantizedMlp::from_mlp(&mlp);
        let a = FoldedMlpSim::new(&q, ni_a).run(&pixels);
        let b = FoldedMlpSim::new(&q, ni_b).run(&pixels);
        assert_eq!(a.winner, b.winner, "case {case}: ni {ni_a} vs {ni_b}");
    }
}

#[test]
fn wot_sim_is_ni_invariant() {
    let mut rng = SplitMix64::new(0x4108);
    for case in 0..CASES {
        let wot = WotSnn::untrained(10, 2, SnnParams::for_neurons(3), rng.next_u64());
        let pixels = random_bytes(&mut rng, 10);
        let ni_a = 1 + rng.next_below(11) as usize;
        let ni_b = 1 + rng.next_below(11) as usize;
        let a = WotDatapathSim::new(&wot, ni_a).run(&pixels);
        let b = WotDatapathSim::new(&wot, ni_b).run(&pixels);
        assert_eq!(a.winner, b.winner, "case {case}: ni {ni_a} vs {ni_b}");
    }
}
