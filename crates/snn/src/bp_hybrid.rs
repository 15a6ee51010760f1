//! SNN+BP — the diagnostic hybrid of §3.2.
//!
//! "In the feed-forward mode, we use the SNN exactly as before (spikes,
//! leakage, threshold for firing, etc), but after each image
//! presentation, we compute the output error, and propagate it to the
//! synaptic weights using the Back-Propagation algorithm." The hybrid
//! lifted the paper's MNIST accuracy from 91.82% (STDP) to 95.40%,
//! isolating the *learning rule* — not spike coding — as the main source
//! of the SNN's accuracy gap.
//!
//! Implementation notes: back-propagating through discrete spike times
//! requires a differentiable surrogate. We use the standard rate
//! approximation: the input to neuron `j` is the normalized spike count
//! `x_i = N_i / N_max` of each input line — `N_i` being the identical
//! 4-bit count the SNNwot forward path consumes — so the only
//! spike-related information loss (count quantization, no timing) is
//! still present. Neurons are statically pooled into classes round-robin
//! (the supervised replacement for self-labeling, preserving the
//! N-neuron single-layer topology), pooled scores go through a softmax,
//! and training is gradient descent on the cross-entropy — i.e. the BP
//! update rule `w ← w + η·δ·x` of §2.1 applied to the spiking layer.
//! Shadow weights are real-valued during training (BP is an offline
//! algorithm; the paper trains in C++ and deploys only the feed-forward
//! path in hardware).

use crate::coding::wot_spike_count;
use crate::params::SnnParams;
use nc_dataset::Dataset;
use nc_obs::{EpochMetrics, Recorder};
use nc_substrate::rng::SplitMix64;

/// Training configuration for the SNN+BP hybrid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BpSnnConfig {
    /// Learning rate.
    pub learning_rate: f64,
    /// Training epochs.
    pub epochs: usize,
    /// Shuffle seed.
    pub seed: u64,
}

impl Default for BpSnnConfig {
    fn default() -> Self {
        BpSnnConfig {
            learning_rate: 0.5,
            epochs: 20,
            seed: 0x5BB1,
        }
    }
}

/// The SNN topology trained with back-propagation.
///
/// # Examples
///
/// ```
/// use nc_dataset::model::Model;
/// use nc_dataset::{digits::DigitsSpec, Difficulty};
/// use nc_snn::bp_hybrid::{BpSnn, BpSnnConfig};
/// use nc_snn::params::SnnParams;
///
/// let (train, test) = DigitsSpec {
///     train: 100, test: 20, seed: 4, difficulty: Difficulty::default(),
/// }.generate();
/// let mut net = BpSnn::new(784, 10, SnnParams::for_neurons(20), 1);
/// net.fit(&train, &BpSnnConfig { epochs: 3, ..Default::default() });
/// let acc = net.evaluate(&test).accuracy();
/// assert!(acc > 0.1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BpSnn {
    inputs: usize,
    classes: usize,
    neurons: usize,
    /// Real-valued shadow weights, `[neuron][input + 1]`; the trailing
    /// entry is the neuron's (negated, learnable) firing-threshold bias.
    weights: Vec<f64>,
    /// Normalization constant `N_max` for spike counts.
    n_max: f64,
}

impl BpSnn {
    /// Creates the hybrid with the same topology as the unsupervised SNN.
    /// Neuron `j` is assigned to class `j % classes`.
    ///
    /// # Panics
    ///
    /// Panics if `inputs == 0` or `classes == 0`.
    pub fn new(inputs: usize, classes: usize, params: SnnParams, seed: u64) -> Self {
        assert!(inputs > 0 && classes > 0, "empty geometry");
        params.validate();
        let mut rng = SplitMix64::new(seed);
        let bound = 1.0 / (inputs as f64).sqrt();
        let weights = (0..params.neurons * (inputs + 1))
            .map(|_| rng.next_range(-bound, bound))
            .collect();
        BpSnn {
            inputs,
            classes,
            neurons: params.neurons,
            weights,
            n_max: f64::from(params.max_spikes_per_pixel().max(1)),
        }
    }

    /// Number of neurons.
    pub fn neurons(&self) -> usize {
        self.neurons
    }

    /// Number of inputs.
    pub fn inputs(&self) -> usize {
        self.inputs
    }

    /// The class statically assigned to a neuron.
    pub fn class_of(&self, neuron: usize) -> usize {
        neuron % self.classes
    }

    /// Normalized spike-count inputs `x_i = N_i / N_max` (bias slot last).
    fn rate_inputs(&self, pixels: &[u8]) -> Vec<f64> {
        let mut x: Vec<f64> = pixels
            .iter()
            .map(|&p| f64::from(wot_spike_count(p)) / self.n_max)
            .collect();
        x.push(1.0); // bias input
        x
    }

    /// Per-neuron drives `Σ_i x_i·w_ji` (including the threshold bias).
    fn drives(&self, x: &[f64]) -> Vec<f64> {
        (0..self.neurons)
            .map(|j| {
                let row = &self.weights[j * (self.inputs + 1)..(j + 1) * (self.inputs + 1)];
                row.iter().zip(x).map(|(w, v)| w * v).sum()
            })
            .collect()
    }

    /// Per-class softmax probabilities over the mean-pooled class drives.
    ///
    /// # Panics
    ///
    /// Panics if `pixels.len()` does not match the input count.
    pub fn class_scores(&self, pixels: &[u8]) -> Vec<f64> {
        assert_eq!(pixels.len(), self.inputs, "pixel count mismatch");
        let x = self.rate_inputs(pixels);
        softmax(&self.pool(&self.drives(&x)))
    }

    /// Mean drive per class pool.
    fn pool(&self, s: &[f64]) -> Vec<f64> {
        let mut sums = vec![0.0; self.classes];
        let mut counts = vec![0usize; self.classes];
        for (j, &v) in s.iter().enumerate() {
            sums[self.class_of(j)] += v;
            counts[self.class_of(j)] += 1;
        }
        sums.iter()
            .zip(&counts)
            .map(|(&v, &c)| if c == 0 { 0.0 } else { v / c as f64 })
            .collect()
    }

    /// Predicted class: argmax of the class scores.
    ///
    /// # Panics
    ///
    /// Panics if `pixels.len()` does not match the input count.
    pub fn predict(&self, pixels: &[u8]) -> usize {
        let scores = self.class_scores(pixels);
        let mut best = 0;
        for (c, &v) in scores.iter().enumerate().skip(1) {
            if v > scores[best] {
                best = c;
            }
        }
        best
    }

    /// Trains with softmax cross-entropy over the class pools.
    ///
    /// # Panics
    ///
    /// Panics if the dataset geometry does not match.
    pub fn fit(&mut self, data: &Dataset, config: &BpSnnConfig) {
        self.fit_observed(data, config, nc_obs::null());
    }

    /// Like [`BpSnn::fit`], reporting each epoch's weight-update count
    /// to `recorder` under the `"snn.bp"` context. With a disabled
    /// recorder this is exactly `fit`.
    ///
    /// # Panics
    ///
    /// Panics if the dataset geometry does not match the network.
    pub fn fit_observed(&mut self, data: &Dataset, config: &BpSnnConfig, recorder: &dyn Recorder) {
        assert_eq!(data.input_dim(), self.inputs, "geometry mismatch");
        assert_eq!(data.num_classes(), self.classes, "class count mismatch");
        let mut order: Vec<usize> = (0..data.len()).collect();
        let mut rng = SplitMix64::new(config.seed);
        for epoch in 0..config.epochs {
            for i in (1..order.len()).rev() {
                let j = rng.next_index(i + 1);
                order.swap(i, j);
            }
            for &idx in &order {
                let s = &data.samples()[idx];
                self.step(&s.pixels, s.label, config.learning_rate);
            }
            if recorder.enabled() {
                // Each BP step updates every shadow weight once.
                recorder.record_epoch(
                    "snn.bp",
                    &EpochMetrics {
                        epoch,
                        samples: data.len() as u64,
                        loss: None,
                        train_accuracy: None,
                        weight_updates: (self.weights.len() * data.len()) as u64,
                        spikes: 0,
                    },
                );
            }
        }
    }

    /// One gradient step on a single sample (exposed for streaming
    /// experiments).
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not match.
    pub fn step(&mut self, pixels: &[u8], label: usize, eta: f64) {
        assert_eq!(pixels.len(), self.inputs, "pixel count mismatch");
        assert!(label < self.classes, "label out of range");
        let x = self.rate_inputs(pixels);
        let p = softmax(&self.pool(&self.drives(&x)));
        let mut pool_sizes = vec![0usize; self.classes];
        for j in 0..self.neurons {
            pool_sizes[self.class_of(j)] += 1;
        }
        // dL/dz_c = p_c − 1{c = label}; dz_c/ds_j = 1/|pool_c| for j ∈ c.
        for j in 0..self.neurons {
            let c = self.class_of(j);
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

fn softmax(z: &[f64]) -> Vec<f64> {
    let m = z.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let exps: Vec<f64> = z.iter().map(|&v| (v - m).exp()).collect();
    let sum: f64 = exps.iter().sum();
    exps.iter().map(|&e| e / sum).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nc_dataset::model::Model;
    use nc_dataset::{digits::DigitsSpec, Difficulty};

    #[test]
    fn class_assignment_is_round_robin() {
        let net = BpSnn::new(4, 3, SnnParams::for_neurons(7), 0);
        assert_eq!(net.class_of(0), 0);
        assert_eq!(net.class_of(4), 1);
        assert_eq!(net.class_of(5), 2);
    }

    #[test]
    fn class_scores_are_a_distribution() {
        let net = BpSnn::new(8, 4, SnnParams::for_neurons(8), 1);
        let p = net.class_scores(&[200u8; 8]);
        assert_eq!(p.len(), 4);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(p.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn supervised_training_beats_chance_quickly() {
        let (train, test) = DigitsSpec {
            train: 200,
            test: 60,
            seed: 21,
            difficulty: Difficulty::default(),
        }
        .generate();
        let mut net = BpSnn::new(784, 10, SnnParams::for_neurons(30), 2);
        net.fit(
            &train,
            &BpSnnConfig {
                epochs: 10,
                learning_rate: 0.5,
                seed: 1,
            },
        );
        let acc = net.evaluate(&test).accuracy();
        assert!(acc > 0.5, "accuracy {acc}");
    }

    #[test]
    fn training_is_deterministic() {
        let (train, _) = DigitsSpec {
            train: 30,
            test: 0,
            seed: 21,
            difficulty: Difficulty::default(),
        }
        .generate();
        let run = || {
            let mut net = BpSnn::new(784, 10, SnnParams::for_neurons(10), 2);
            net.fit(&train, &BpSnnConfig::default());
            net
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn gradients_are_finite_on_flat_images() {
        let mut net = BpSnn::new(16, 2, SnnParams::for_neurons(4), 5);
        net.step(&[128u8; 16], 0, 0.5);
        assert!(net.weights.iter().all(|w| w.is_finite()));
    }

    #[test]
    #[should_panic(expected = "geometry mismatch")]
    fn rejects_mismatched_dataset() {
        let (train, _) = DigitsSpec {
            train: 5,
            test: 0,
            seed: 3,
            difficulty: Difficulty::default(),
        }
        .generate();
        let mut net = BpSnn::new(100, 10, SnnParams::for_neurons(4), 2);
        net.fit(&train, &BpSnnConfig::default());
    }
}
