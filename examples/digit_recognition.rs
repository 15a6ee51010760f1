//! Digit recognition, end to end: the full §3 + §4.2 pipeline on one
//! workload — train every model variant through the unified `Model`
//! interface, inspect what the SNN learned, quantize the MLP onto the
//! 8-bit hardware path, and verify the cycle-level datapath simulators
//! agree with the models.
//!
//! Run with: `cargo run --release --example digit_recognition`

use neurocmp::core::FitBudget;
use neurocmp::dataset::{digits::DigitsSpec, Difficulty, GreyImage, Model};
use neurocmp::hw::sim::{FoldedMlpSim, SnnWtSim, WotDatapathSim};
use neurocmp::mlp::{Activation, Mlp, QuantizedMlp};
use neurocmp::snn::bp_hybrid::BpSnn;
use neurocmp::snn::{SnnNetwork, SnnParams, WotSnn};

fn main() {
    let (train, test) = DigitsSpec {
        train: 2_000,
        test: 500,
        seed: 11,
        difficulty: Difficulty::default(),
    }
    .generate();

    // Show what the task looks like.
    let sample = &test.samples()[3];
    let mut img = GreyImage::new(28, 28);
    for y in 0..28 {
        for x in 0..28 {
            img.set(x, y, sample.pixels[y * 28 + x]);
        }
    }
    println!("a test image (label {}):\n{}", sample.label, img.to_ascii());

    // --- MLP+BP, float and 8-bit quantized (paper §4.2.1) ---
    let mut mlp = Mlp::new(&[784, 64, 10], Activation::sigmoid(), 5).expect("valid topology");
    let budget = FitBudget {
        epochs: 20,
        ..FitBudget::default()
    };
    Model::fit(&mut mlp, &train, &budget).expect("geometry matches");
    let float_acc = Model::evaluate(&mut mlp, &test).accuracy();
    let mut quant = QuantizedMlp::from_mlp(&mlp);
    let quant_acc = Model::evaluate(&mut quant, &test).accuracy();
    println!("MLP+BP float:        {:.2}%", float_acc * 100.0);
    println!(
        "MLP+BP 8-bit fixed:  {:.2}%  (paper: 96.65% vs 97.65% — 'on par')",
        quant_acc * 100.0
    );

    // --- SNN+STDP (paper §2.2) ---
    let mut snn = SnnNetwork::new(784, 10, SnnParams::tuned(100), 5);
    let stdp_budget = FitBudget {
        stdp_epochs: 8,
        stdp_delta: 3,
        ..FitBudget::default()
    };
    Model::fit(&mut snn, &train, &stdp_budget).expect("geometry matches");
    let snn_acc = Model::evaluate(&mut snn, &test).accuracy();
    let mut wot = WotSnn::from_network(&snn);
    let wot_acc = Model::evaluate(&mut wot, &test).accuracy();
    println!("SNN+STDP (LIF):      {:.2}%", snn_acc * 100.0);
    println!("SNN+STDP (SNNwot):   {:.2}%", wot_acc * 100.0);

    // --- SNN+BP: the learning-rule diagnostic (paper §3.2) ---
    let mut bp_snn = BpSnn::new(784, 10, SnnParams::tuned(100), 5);
    let bp_budget = FitBudget {
        epochs: 15,
        ..FitBudget::default()
    };
    Model::fit(&mut bp_snn, &train, &bp_budget).expect("geometry matches");
    let bp_acc = Model::evaluate(&mut bp_snn, &test).accuracy();
    println!(
        "SNN+BP:              {:.2}%  (between STDP and MLP — the gap is the learning rule)",
        bp_acc * 100.0
    );

    // Peek at a learned STDP prototype: the receptive field of the first
    // labeled neuron, rendered as ASCII.
    if let Some(j) = (0..100).find(|&j| snn.labels()[j].is_some()) {
        let mut proto = GreyImage::new(28, 28);
        for y in 0..28 {
            for x in 0..28 {
                proto.set(x, y, snn.weight(j, y * 28 + x));
            }
        }
        println!(
            "STDP prototype learned by neuron {j} (labeled {:?}):\n{}",
            snn.labels()[j].expect("checked above"),
            proto.to_ascii()
        );
    }

    // --- Datapath validation (the paper's RTL-vs-simulator check) ---
    let mut mlp_winners = Vec::new();
    {
        let mut mlp_sim = FoldedMlpSim::new(&quant, 16);
        for s in test.iter() {
            mlp_winners.push(mlp_sim.run(&s.pixels).winner);
        }
    }
    let wot_sim = WotDatapathSim::new(&wot, 16);
    let mut snnwt_winners = Vec::new();
    {
        let mut snnwt_sim = SnnWtSim::new(&snn, 16);
        for (i, s) in test.iter().enumerate() {
            snnwt_winners.push(snnwt_sim.run(&s.pixels, i as u64).winner);
        }
    }
    let mut mlp_agree = 0;
    let mut wot_agree = 0;
    let mut snnwt_agree = 0;
    for (i, (s, (mlp_winner, snnwt_winner))) in test
        .iter()
        .zip(mlp_winners.into_iter().zip(snnwt_winners))
        .enumerate()
    {
        if mlp_winner == quant.predict_u8(&s.pixels) {
            mlp_agree += 1;
        }
        if wot_sim.run(&s.pixels).winner == wot.winner(&s.pixels) {
            wot_agree += 1;
        }
        if snnwt_winner == snn.present(&s.pixels, i as u64).readout() {
            snnwt_agree += 1;
        }
    }
    let n = test.len();
    println!(
        "datapath simulators vs models: MLP {mlp_agree}/{n} identical, \
         SNNwot {wot_agree}/{n} identical, SNNwt {snnwt_agree}/{n} identical"
    );
    assert_eq!(mlp_agree, test.len(), "folded MLP datapath must match");
    assert_eq!(wot_agree, test.len(), "SNNwot datapath must match");
    assert_eq!(snnwt_agree, test.len(), "SNNwt datapath must match");
}
