//! Micro-benchmarks for the hardware layer: cost-model report generation
//! (one bench per paper table family) and the cycle-level datapath
//! simulators, including the ablation the paper's design rests on —
//! SNNwot's timing-free datapath vs SNNwt's timed emulation.
//!
//! Run with: `cargo bench -p nc-bench --features bench-harness`

use nc_bench::microbench::Group;
use nc_dataset::{digits::DigitsSpec, Difficulty};
use nc_hw::expanded::{ExpandedMlp, ExpandedSnn, SnnVariant};
use nc_hw::folded::{FoldedMlp, FoldedSnnWot, FoldedSnnWt};
use nc_hw::online::OnlineSnn;
use nc_hw::sim::{FoldedMlpSim, SnnWtSim, WotDatapathSim};
use nc_mlp::{Activation, Mlp, QuantizedMlp};
use nc_snn::{SnnNetwork, SnnParams, WotSnn};
use std::hint::black_box;

fn bench_cost_model() {
    let mut group = Group::new("cost_model");
    group.bench("table4_expanded_reports", || {
        black_box(ExpandedSnn::new(SnnVariant::Wot, 784, 300).report());
        black_box(ExpandedSnn::new(SnnVariant::Wt, 784, 300).report());
        black_box(ExpandedMlp::new(&[784, 100, 10]).report());
        black_box(ExpandedMlp::new(&[784, 15, 10]).report());
    });
    group.bench("table7_folded_reports", || {
        for ni in [1usize, 4, 8, 16] {
            black_box(FoldedMlp::new(&[784, 100, 10], ni).report());
            black_box(FoldedSnnWot::new(784, 300, ni).report());
            black_box(FoldedSnnWt::new(784, 300, ni).report());
        }
    });
    group.bench("table9_online_reports", || {
        for ni in [1usize, 4, 8, 16] {
            black_box(OnlineSnn::new(784, 300, ni).report());
        }
    });
}

fn bench_datapaths() {
    let (_, test) = DigitsSpec {
        train: 0,
        test: 10,
        seed: 3,
        difficulty: Difficulty::default(),
    }
    .generate();
    let pixels = &test.samples()[0].pixels;

    let mlp = Mlp::new(&[784, 100, 10], Activation::sigmoid(), 1).unwrap();
    let q = QuantizedMlp::from_mlp(&mlp);
    let wot = WotSnn::untrained(784, 10, SnnParams::tuned(300), 1);

    let mut group = Group::new("datapath_sim");
    for ni in [1usize, 16] {
        let mut sim = FoldedMlpSim::new(&q, ni);
        group.bench(&format!("folded_mlp_ni{ni}"), || sim.run(pixels));
        let sim = WotDatapathSim::new(&wot, ni);
        group.bench(&format!("snnwot_ni{ni}"), || sim.run(pixels));
    }
    // The ablation: SNNwt's timed emulation vs SNNwot above.
    let net = SnnNetwork::new(784, 10, SnnParams::tuned(300), 1);
    let mut sim = SnnWtSim::new(&net, 16);
    let mut seed = 0u64;
    group.bench("snnwt_ni16", || {
        seed += 1;
        sim.run(pixels, seed)
    });
}

fn main() {
    bench_cost_model();
    bench_datapaths();
}
