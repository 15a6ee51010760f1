//! The SNN+BP hybrid against the row-major dense loops it was first
//! written with.
//!
//! [`RowMajor`] keeps the weights as `[neuron][input + 1]` (threshold
//! bias last), sums every drive with an iterator `.sum()` over every
//! input, zero or not, and moves every weight of a neuron whose gradient
//! is non-zero as `w -= (η·g)·x`. Its weights are drawn from the same
//! [`SplitMix64`] stream, neuron by neuron, as [`BpSnn::new`] draws
//! them. After every public `step` both must give the same bits for
//! every class score on a set of probe images, and the same `predict`.

use nc_dataset::model::Model;
use nc_dataset::{digits::DigitsSpec, Difficulty};
use nc_snn::bp_hybrid::{BpSnn, BpSnnConfig};
use nc_snn::coding::wot_spike_count;
use nc_snn::params::SnnParams;
use nc_substrate::check::check_cases;
use nc_substrate::rng::SplitMix64;

/// The hybrid in the row-major layout, run by the serial loops.
struct RowMajor {
    inputs: usize,
    classes: usize,
    neurons: usize,
    /// `weights[j * (inputs + 1) + i]`, the bias at `i = inputs`.
    weights: Vec<f64>,
    n_max: f64,
}

impl RowMajor {
    fn new(inputs: usize, classes: usize, params: SnnParams, seed: u64) -> RowMajor {
        let mut rng = SplitMix64::new(seed);
        let bound = 1.0 / (inputs as f64).sqrt();
        let weights = (0..params.neurons * (inputs + 1))
            .map(|_| rng.next_range(-bound, bound))
            .collect();
        RowMajor {
            inputs,
            classes,
            neurons: params.neurons,
            weights,
            n_max: f64::from(params.max_spikes_per_pixel().max(1)),
        }
    }

    /// `x_i = N_i / N_max`, with the bias input 1 last.
    fn rate_inputs(&self, pixels: &[u8]) -> Vec<f64> {
        let mut x: Vec<f64> = pixels
            .iter()
            .map(|&p| f64::from(wot_spike_count(p)) / self.n_max)
            .collect();
        x.push(1.0);
        x
    }

    fn row(&self, j: usize) -> &[f64] {
        &self.weights[j * (self.inputs + 1)..(j + 1) * (self.inputs + 1)]
    }

    fn class_scores(&self, pixels: &[u8]) -> Vec<f64> {
        let x = self.rate_inputs(pixels);
        let drives: Vec<f64> = (0..self.neurons)
            .map(|j| self.row(j).iter().zip(&x).map(|(w, v)| w * v).sum())
            .collect();
        let mut sums = vec![0.0; self.classes];
        let mut counts = vec![0usize; self.classes];
        for (j, &v) in drives.iter().enumerate() {
            sums[j % self.classes] += v;
            counts[j % self.classes] += 1;
        }
        let pooled: Vec<f64> = sums
            .iter()
            .zip(&counts)
            .map(|(&v, &c)| if c == 0 { 0.0 } else { v / c as f64 })
            .collect();
        let m = pooled.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let exps: Vec<f64> = pooled.iter().map(|&v| (v - m).exp()).collect();
        let sum: f64 = exps.iter().sum();
        exps.iter().map(|&e| e / sum).collect()
    }

    fn predict(&self, pixels: &[u8]) -> usize {
        let scores = self.class_scores(pixels);
        let mut best = 0;
        for (c, &v) in scores.iter().enumerate().skip(1) {
            if v > scores[best] {
                best = c;
            }
        }
        best
    }

    fn step(&mut self, pixels: &[u8], label: usize, eta: f64) {
        let x = self.rate_inputs(pixels);
        let p = self.class_scores(pixels);
        let mut pool_sizes = vec![0usize; self.classes];
        for j in 0..self.neurons {
            pool_sizes[j % self.classes] += 1;
        }
        for j in 0..self.neurons {
            let c = j % self.classes;
            let g = (p[c] - if c == label { 1.0 } else { 0.0 }) / pool_sizes[c] as f64;
            if g == 0.0 {
                continue;
            }
            let scale = eta * g;
            let row = &mut self.weights[j * (self.inputs + 1)..(j + 1) * (self.inputs + 1)];
            for (w, v) in row.iter_mut().zip(&x) {
                *w -= scale * v;
            }
        }
    }
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// An image whose pixels each carry no spike with probability `zeros`:
/// pixels 0–12 round to a zero spike count, 13–255 to at least one.
fn image(rng: &mut SplitMix64, width: usize, zeros: f64) -> Vec<u8> {
    (0..width)
        .map(|_| {
            let p = if rng.next_unit() < zeros {
                rng.next_below(13)
            } else {
                13 + rng.next_below(243)
            };
            u8::try_from(p).expect("pixel below 256")
        })
        .collect()
}

fn assert_same_scores(net: &BpSnn, reference: &RowMajor, probes: &[Vec<u8>], ctx: &str) {
    for (n, pixels) in probes.iter().enumerate() {
        assert_eq!(
            bits(&net.class_scores(pixels)),
            bits(&reference.class_scores(pixels)),
            "{ctx}: probe {n} scores"
        );
        assert_eq!(
            net.predict(pixels),
            reference.predict(pixels),
            "{ctx}: probe {n} predict"
        );
    }
}

#[test]
fn hybrid_scores_and_steps_match_the_row_major_serial_loops() {
    check_cases(0xB5_0031, 64, |case, rng| {
        let inputs = 1 + rng.next_index(120);
        let neurons = 1 + rng.next_index(64);
        // Up to 12 classes, so some cases have more classes than
        // neurons and some pools are empty.
        let classes = 1 + rng.next_index(12);
        let zeros = rng.next_range(0.0, 0.9);
        let eta = rng.next_range(0.01, 2.0);
        let seed = rng.next_u64();
        let params = SnnParams::for_neurons(neurons);
        let ctx = format!(
            "case {case}: {inputs} inputs, {neurons} neurons, {classes} classes, \
             {zeros:.2} zeros, eta {eta:.3}"
        );

        let mut net = BpSnn::new(inputs, classes, params, seed);
        let mut reference = RowMajor::new(inputs, classes, params, seed);
        let probes: Vec<Vec<u8>> = (0..3).map(|_| image(rng, inputs, zeros)).collect();
        assert_same_scores(&net, &reference, &probes, &ctx);
        for n in 0..1 + rng.next_index(6) {
            let pixels = image(rng, inputs, zeros);
            let label = rng.next_index(classes);
            net.step(&pixels, label, eta);
            reference.step(&pixels, label, eta);
            assert_same_scores(&net, &reference, &probes, &format!("{ctx}, step {n}"));
        }
    });
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

#[test]
fn table3_tiny_training_keeps_its_scores() {
    // Table 3's SNN+BP job at tiny scale: the hard digits, 784 inputs,
    // 300 neurons, 10 classes, seed 0xC0FFEE, 8 epochs at the default
    // learning rate.
    let (train, test) = DigitsSpec {
        train: 300,
        test: 100,
        seed: 0xD161,
        difficulty: Difficulty::hard(),
    }
    .generate();
    let mut net = BpSnn::new(784, 10, SnnParams::tuned(300), 0xC0FFEE);
    net.fit(
        &train,
        &BpSnnConfig {
            epochs: 8,
            ..BpSnnConfig::default()
        },
    );
    let hash = test.samples().iter().fold(FNV_OFFSET, |h, s| {
        net.class_scores(&s.pixels)
            .iter()
            .flat_map(|v| v.to_bits().to_le_bytes())
            .fold(h, |h, b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
    });
    let accuracy = net.evaluate(&test).accuracy();
    assert_eq!(hash, 0x2375_8DAA_A879_B1C6, "class scores after training");
    assert_eq!(accuracy, 0.8);
}
