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
//! path in hardware). They are stored input-major and trained on the
//! float MLP's zero-skipping kernel in [`nc_substrate::kernel`].

use crate::coding::wot_spike_count;
use crate::params::SnnParams;
use nc_dataset::Dataset;
use nc_obs::{EpochMetrics, Recorder};
use nc_substrate::kernel::{active_row_sums, add_to_rows, list_active};
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
    /// Real-valued shadow weights, input-major `[input + 1][neuron]`;
    /// the last row holds each neuron's (negated, learnable)
    /// firing-threshold bias.
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
        // Drawn neuron by neuron, bias last, so a seed gives the values
        // it gave the row-major layout.
        let mut weights = vec![0.0; (inputs + 1) * params.neurons];
        for j in 0..params.neurons {
            for i in 0..=inputs {
                weights[i * params.neurons + j] = rng.next_range(-bound, bound);
            }
        }
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

    /// Per-class softmax probabilities over the mean-pooled class drives.
    ///
    /// # Panics
    ///
    /// Panics if `pixels.len()` does not match the input count.
    pub fn class_scores(&self, pixels: &[u8]) -> Vec<f64> {
        let mut scratch = Scratch::default();
        self.forward(pixels, &mut scratch);
        scratch.scores
    }

    /// The size of class `c`'s pool: `neurons / classes`, plus one for
    /// each of the first `neurons % classes` classes.
    fn pool_size(&self, c: usize) -> usize {
        self.neurons / self.classes + usize::from(c < self.neurons % self.classes)
    }

    /// Fills `s`: the non-zero `x_i = N_i / N_max` listed, bias last,
    /// each drive summed over them from `0.0` (a dense `.sum()` from
    /// `-0.0` differs only in the sign of a zero drive, which pooling
    /// reads as `0.0`), and the softmax of the mean drive per pool.
    fn forward(&self, pixels: &[u8], s: &mut Scratch) {
        assert_eq!(pixels.len(), self.inputs, "pixel count mismatch");
        let rate = |&p: &u8| f64::from(wot_spike_count(p)) / self.n_max;
        s.active.resize(self.inputs + 1, (0, 0.0));
        let n = list_active(pixels.iter().map(rate), self.neurons, &mut s.active);
        s.active.truncate(n + 1);
        s.drives.clear();
        s.drives.resize(self.neurons, 0.0);
        active_row_sums(&self.weights, &s.active, &mut s.drives);
        s.scores.clear();
        s.scores.resize(self.classes, 0.0);
        for (j, &d) in s.drives.iter().enumerate() {
            s.scores[self.class_of(j)] += d;
        }
        for (c, z) in s.scores.iter_mut().enumerate() {
            *z /= self.pool_size(c).max(1) as f64;
        }
        let m = s.scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        s.scores.iter_mut().for_each(|z| *z = (*z - m).exp());
        let sum: f64 = s.scores.iter().sum();
        s.scores.iter_mut().for_each(|z| *z /= sum);
    }

    /// Predicted class: argmax of the class scores.
    ///
    /// # Panics
    ///
    /// Panics if `pixels.len()` does not match the input count.
    pub fn predict(&self, pixels: &[u8]) -> usize {
        first_max(&self.class_scores(pixels))
    }

    /// [`BpSnn::predict`] through the caller's reused buffers.
    pub(crate) fn predict_with(&self, pixels: &[u8], s: &mut Scratch) -> usize {
        self.forward(pixels, s);
        first_max(&s.scores)
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
        let mut scratch = Scratch::default();
        for epoch in 0..config.epochs {
            for i in (1..order.len()).rev() {
                let j = rng.next_index(i + 1);
                order.swap(i, j);
            }
            for &idx in &order {
                let s = &data.samples()[idx];
                self.step_with(&s.pixels, s.label, config.learning_rate, &mut scratch);
            }
            if recorder.enabled() {
                // Nominally every shadow weight per step; zero inputs' rows are skipped.
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
        self.step_with(pixels, label, eta, &mut Scratch::default());
    }

    /// [`BpSnn::step`] through the caller's reused buffers.
    fn step_with(&mut self, pixels: &[u8], label: usize, eta: f64, s: &mut Scratch) {
        self.forward(pixels, s);
        assert!(label < self.classes, "label out of range");
        // dL/dz_c = p_c − 1{c = label}; dz_c/ds_j = 1/|pool_c| for j ∈ c.
        // Each listed row moves by −η·g_j·x_i, which rounds as w −= η·g_j·x_i.
        for (j, step) in s.drives.iter_mut().enumerate() {
            let c = self.class_of(j);
            let g = (s.scores[c] - if c == label { 1.0 } else { 0.0 }) / self.pool_size(c) as f64;
            *step = -(eta * g);
        }
        add_to_rows(&mut self.weights, &s.active, &s.drives);
    }
}

/// The index of the first maximal score (0 for an empty slice).
fn first_max(scores: &[f64]) -> usize {
    let mut best = 0;
    for (c, &v) in scores.iter().enumerate().skip(1) {
        if v > scores[best] {
            best = c;
        }
    }
    best
}

/// The buffers of one forward pass and BP step, reused across samples.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    /// The non-zero inputs `x_i`, then the bias, as [`list_active`]
    /// lists them.
    active: Vec<(usize, f64)>,
    /// Per-neuron drives; the BP step overwrites them with the steps.
    drives: Vec<f64>,
    /// The class scores.
    scores: Vec<f64>,
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
