//! Model-vs-datapath consistency: the paper validated its C++ simulators
//! against RTL (§4.1); we validate the model-level implementations
//! against the cycle-level datapath simulators across folding factors.
//! Predictions must be bit-identical for all three designs: MLP, SNNwot,
//! and SNNwt, whose datapath leaks through the network's own decay table
//! and must read out exactly what the event-driven model does.

use neurocmp::dataset::{digits::DigitsSpec, Difficulty};
use neurocmp::hw::sim::{FoldedMlpSim, SnnWtSim, WotDatapathSim};
use neurocmp::mlp::{Activation, Mlp, QuantizedMlp, TrainConfig, Trainer};
use neurocmp::snn::{CodingScheme, SnnNetwork, SnnParams, WotSnn};
use neurocmp::substrate::check::check_cases;
use neurocmp::substrate::rng::SplitMix64;

fn task() -> (neurocmp::dataset::Dataset, neurocmp::dataset::Dataset) {
    DigitsSpec {
        train: 200,
        test: 50,
        seed: 17,
        difficulty: Difficulty::default(),
    }
    .generate()
}

/// Random images of `width` pixels: an all-dark and an all-255 image
/// first, then six of random density.
fn random_images(width: usize, rng: &mut SplitMix64) -> Vec<Vec<u8>> {
    let mut images = vec![vec![0; width], vec![255; width]];
    for _ in 0..6 {
        let density = 1 + rng.next_index(256);
        images.push(
            (0..width)
                .map(|_| {
                    if rng.next_index(256) < density {
                        rng.next_index(256) as u8
                    } else {
                        0
                    }
                })
                .collect(),
        );
    }
    images
}

/// The folded MLP datapath at `ni` must read out `predict_u8` on every
/// image, in one chunk cycle per `ni` inputs plus one activation cycle
/// per layer.
fn check_folded_mlp(q: &mut QuantizedMlp, images: &[Vec<u8>], ni: usize, context: &str) {
    let cycles: u64 = q
        .sizes()
        .windows(2)
        .map(|w| w[0].div_ceil(ni) as u64 + 1)
        .sum();
    let runs: Vec<(usize, u64)> = {
        let mut sim = FoldedMlpSim::new(q, ni);
        images
            .iter()
            .map(|pixels| {
                let outcome = sim.run(pixels);
                (outcome.winner, outcome.cycles)
            })
            .collect()
    };
    for (k, (pixels, (winner, spent))) in images.iter().zip(runs).enumerate() {
        assert_eq!(
            winner,
            q.predict_u8(pixels),
            "{context}: chunked accumulation must not change the result (ni={ni}, image {k})"
        );
        assert_eq!(spent, cycles, "{context}: cycle count (ni={ni})");
    }
}

/// The SNNwot datapath at `ni` must read out the model's winner on
/// every image.
fn check_wot(wot: &WotSnn, images: &[Vec<u8>], ni: usize, context: &str) {
    let sim = WotDatapathSim::new(wot, ni);
    for (k, pixels) in images.iter().enumerate() {
        assert_eq!(
            sim.run(pixels).winner,
            wot.winner(pixels),
            "{context}: ni={ni} image {k}"
        );
    }
}

#[test]
fn quantized_mlp_and_folded_datapath_are_bit_identical() {
    // The trained digit network...
    let (train, test) = task();
    let mut mlp = Mlp::new(&[784, 20, 10], Activation::sigmoid(), 2).unwrap();
    Trainer::new(TrainConfig {
        epochs: 5,
        ..TrainConfig::default()
    })
    .fit(&mut mlp, &train);
    let mut q = QuantizedMlp::from_mlp(&mlp);
    let images: Vec<Vec<u8>> = test.iter().map(|s| s.pixels.clone()).collect();
    for ni in [1usize, 3, 7, 16, 100] {
        check_folded_mlp(&mut q, &images, ni, "trained 784-20-10");
    }
    // ...and random untrained topologies of 1-3 weight layers.
    check_cases(0xF01D_3A7A, 128, |case, rng| {
        let layers = 1 + rng.next_index(3);
        let sizes: Vec<usize> = (0..=layers).map(|_| 1 + rng.next_index(64)).collect();
        let activation = if rng.next_index(4) == 0 {
            Activation::Step
        } else {
            Activation::sigmoid_slope(rng.next_range(0.25, 16.0))
        };
        let mut q = QuantizedMlp::untrained(&sizes, activation, rng.next_u64()).unwrap();
        let images = random_images(sizes[0], rng);
        let width = sizes[..layers].iter().copied().max().unwrap();
        for _ in 0..3 {
            let ni = 1 + rng.next_index(width + 3);
            check_folded_mlp(
                &mut q,
                &images,
                ni,
                &format!("case {case}: {sizes:?} {activation:?}"),
            );
        }
    });
}

#[test]
fn wot_model_and_datapath_are_bit_identical() {
    // The trained digit network...
    let (train, test) = task();
    let mut snn = SnnNetwork::new(784, 10, SnnParams::tuned(20), 2);
    snn.set_stdp_delta(6);
    snn.train_stdp(&train, 2);
    snn.self_label(&train);
    let wot = WotSnn::from_network(&snn);
    let images: Vec<Vec<u8>> = test.iter().map(|s| s.pixels.clone()).collect();
    for ni in [1usize, 5, 16] {
        check_wot(&wot, &images, ni, "trained 784x20");
    }
    // ...and random untrained networks, whose weights span 100..=200.
    check_cases(0x0707_DA7A, 128, |case, rng| {
        let inputs = 1 + rng.next_index(64);
        let neurons = 1 + rng.next_index(64);
        let snn = SnnNetwork::new(inputs, 10, SnnParams::for_neurons(neurons), rng.next_u64());
        let wot = WotSnn::from_network(&snn);
        let images = random_images(inputs, rng);
        for _ in 0..3 {
            let ni = 1 + rng.next_index(inputs + 3);
            check_wot(
                &wot,
                &images,
                ni,
                &format!("case {case}: {inputs}x{neurons}"),
            );
        }
    });
}

/// The presentation seeds of one image: the SNNwt datapath must draw the
/// model's spike train and tie-break from the same stream.
const SNNWT_SEED_BASE: u64 = 0xAB00;

#[test]
fn snnwt_datapath_is_bit_identical_on_random_configurations() {
    const CODES: [CodingScheme; 4] = [
        CodingScheme::PoissonRate,
        CodingScheme::GaussianRate,
        CodingScheme::RankOrder,
        CodingScheme::TimeToFirstSpike,
    ];
    check_cases(0x5A77_D47A, 96, |case, rng| {
        let coding = CODES[rng.next_index(CODES.len())];
        let inputs = 1 + rng.next_index(48);
        let mut params = SnnParams::for_neurons(1 + rng.next_index(64));
        params.t_period = 20 + rng.next_below_u32(580);
        params.t_leak = rng.next_range(1.0, 2000.0);
        // Thresholds on a weight's own value (weights are drawn in
        // 100..=200, so the first event from rest can land exactly on
        // one), in reach of a few events (integer sums of weights can
        // land on it too), or out of reach (the readout is the argmax).
        let threshold = match rng.next_index(3) {
            0 => 100 + rng.next_below(101),
            1 => 200 + rng.next_below(2000),
            _ => 1 << 40,
        };
        // Temporal codes divide the initial threshold by the spike
        // budget; scale it up so the threshold in use stays an integer.
        let scale = if coding.is_rate_code() {
            1
        } else {
            params.max_spikes_per_pixel().max(1)
        };
        params.initial_threshold = (threshold * u64::from(scale)) as f64;
        let mut net = SnnNetwork::with_coding(inputs, 3, params, coding, rng.next_u64());
        // A dark image first: no input spikes, every potential ties at 0.
        let images: Vec<Vec<u8>> = (0..8)
            .map(|k| {
                let density = if k == 0 { 0 } else { 1 + rng.next_index(256) };
                (0..inputs)
                    .map(|_| {
                        if rng.next_index(256) < density {
                            rng.next_index(256) as u8
                        } else {
                            0
                        }
                    })
                    .collect()
            })
            .collect();
        let seeds: Vec<u64> = (0..images.len() as u64)
            .map(|k| SNNWT_SEED_BASE + k)
            .collect();
        let readouts: Vec<usize> = images
            .iter()
            .zip(&seeds)
            .map(|(pixels, &seed)| net.present(pixels, seed).readout())
            .collect();
        for ni in [1, 3, 16, inputs] {
            let mut sim = SnnWtSim::new(&net, ni);
            for (k, (pixels, &seed)) in images.iter().zip(&seeds).enumerate() {
                let outcome = sim.run(pixels, seed);
                assert_eq!(
                    outcome.winner, readouts[k],
                    "case {case}: {coding:?} ni={ni} image {k}"
                );
                assert_eq!(
                    outcome.cycles,
                    (inputs.div_ceil(ni) as u64 + 7) * u64::from(params.t_period),
                    "case {case}: Table 7 cycle count"
                );
            }
        }
    });
}

#[test]
fn snnwt_datapath_is_bit_identical_on_the_trained_digit_network() {
    let (train, test) = task();
    for coding in [CodingScheme::PoissonRate, CodingScheme::GaussianRate] {
        let mut snn = SnnNetwork::with_coding(784, 10, SnnParams::tuned(20), coding, 2);
        snn.set_stdp_delta(6);
        snn.train_stdp(&train, 2);
        snn.self_label(&train);
        for ni in [1usize, 3, 16, 784] {
            let winners: Vec<usize> = {
                let mut sim = SnnWtSim::new(&snn, ni);
                test.iter()
                    .enumerate()
                    .map(|(i, s)| sim.run(&s.pixels, SNNWT_SEED_BASE + i as u64).winner)
                    .collect()
            };
            for (i, (s, winner)) in test.iter().zip(winners).enumerate() {
                let seed = SNNWT_SEED_BASE + i as u64;
                let readout = snn.present(&s.pixels, seed).readout();
                assert_eq!(winner, readout, "{coding:?} ni={ni} image {i}");
                assert_eq!(
                    snn.labels()[winner].unwrap_or(0),
                    snn.predict(&s.pixels, seed),
                    "{coding:?} ni={ni} image {i}"
                );
            }
        }
    }
}
