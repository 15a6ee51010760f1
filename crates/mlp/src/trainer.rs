//! Back-Propagation training (paper §2.1).
//!
//! "The weights are updated as follows: `w_ji(t+1) = w_ji(t) +
//! η·δ_j(t)·y_i(t)` … At the output layer `δ_j = f'(s_j)·e_j` …, in the
//! hidden layer `δ_j = f'(s_j)·Σ_k δ_k·w_kj`."
//!
//! Training is plain per-sample stochastic gradient descent with an
//! epoch-wise Fisher–Yates shuffle, matching the paper's iterative
//! protocol ("this process is repeated multiple times until the target
//! error is achieved or the allocated learning time has elapsed").

use crate::network::{ForwardScratch, Mlp};
use nc_dataset::Dataset;
use nc_obs::{EpochMetrics, Recorder};
use nc_substrate::rng::SplitMix64;

/// Back-propagation hyper-parameters (paper Table 1: η = 0.3, 50 epochs
/// for the MNIST MLP).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Learning rate η.
    pub learning_rate: f64,
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Shuffle seed (sample order is the only stochastic element).
    pub seed: u64,
    /// Target values for the one-hot encoding: `(off, on)`. The classic
    /// `(0.1, 0.9)` keeps sigmoid gradients alive; `(0.0, 1.0)` matches
    /// the raw step targets.
    pub targets: (f64, f64),
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            learning_rate: 0.3,
            epochs: 50,
            seed: 0xBEEF,
            targets: (0.1, 0.9),
        }
    }
}

/// Per-epoch training telemetry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochStats {
    /// Epoch index, from 0.
    pub epoch: usize,
    /// Mean squared error over the epoch.
    pub mse: f64,
    /// Training-set accuracy measured during the epoch (on-line, i.e.
    /// before each sample's update).
    pub train_accuracy: f64,
}

/// A back-propagation trainer.
///
/// # Examples
///
/// ```
/// use nc_dataset::{digits::DigitsSpec, Difficulty};
/// use nc_mlp::{Activation, Mlp, TrainConfig, Trainer};
///
/// let (train, _) = DigitsSpec {
///     train: 100, test: 0, seed: 3, difficulty: Difficulty::default(),
/// }.generate();
/// let mut mlp = Mlp::new(&[784, 10, 10], Activation::sigmoid(), 1).unwrap();
/// let stats = Trainer::new(TrainConfig { epochs: 2, ..Default::default() })
///     .fit(&mut mlp, &train);
/// assert_eq!(stats.len(), 2);
/// assert!(stats[1].mse <= stats[0].mse * 1.5); // error roughly decreasing
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Trainer {
    config: TrainConfig,
}

impl Trainer {
    /// Creates a trainer with the given configuration.
    pub fn new(config: TrainConfig) -> Self {
        Trainer { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// Trains `mlp` in place on `data`, returning per-epoch statistics.
    ///
    /// # Panics
    ///
    /// Panics if the dataset geometry does not match the network (input
    /// width or class count).
    pub fn fit(&self, mlp: &mut Mlp, data: &Dataset) -> Vec<EpochStats> {
        self.fit_observed(mlp, data, nc_obs::null())
    }

    /// Like [`Trainer::fit`], reporting each epoch's loss, on-line
    /// accuracy and weight-update count to `recorder` under the `"mlp"`
    /// context. With a disabled recorder this is exactly `fit`.
    ///
    /// # Panics
    ///
    /// Panics if the dataset geometry does not match the network (input
    /// width or class count).
    pub fn fit_observed(
        &self,
        mlp: &mut Mlp,
        data: &Dataset,
        recorder: &dyn Recorder,
    ) -> Vec<EpochStats> {
        let sizes = mlp.sizes().to_vec();
        assert_eq!(
            data.input_dim(),
            sizes[0],
            "dataset input dim does not match network"
        );
        assert_eq!(
            data.num_classes(),
            // nc-lint: allow(R5, reason = "Mlp::new rejects empty topologies")
            *sizes.last().expect("nonempty topology"),
            "dataset classes do not match output layer"
        );
        let mut order: Vec<usize> = (0..data.len()).collect();
        let mut rng = SplitMix64::new(self.config.seed);
        let mut stats = Vec::with_capacity(self.config.epochs);
        let mut forward = ForwardScratch::default();
        let mut deltas = Vec::new();
        for epoch in 0..self.config.epochs {
            shuffle(&mut order, &mut rng);
            let mut sq_err = 0.0;
            let mut correct = 0usize;
            for &idx in &order {
                let sample = &data.samples()[idx];
                forward.load_pixels(&sample.pixels);
                let (err, hit) = self.step_with(
                    mlp,
                    &forward.input,
                    sample.label,
                    &mut forward.trace,
                    &mut deltas,
                );
                sq_err += err;
                correct += usize::from(hit);
            }
            let n = data.len().max(1) as f64;
            let epoch_stats = EpochStats {
                epoch,
                mse: sq_err / n,
                train_accuracy: correct as f64 / n,
            };
            if recorder.enabled() {
                // Per-sample SGD touches every weight once per sample.
                let updates = (mlp.num_weights() * data.len()) as u64;
                recorder.record_epoch(
                    "mlp",
                    &EpochMetrics {
                        epoch,
                        samples: data.len() as u64,
                        loss: Some(epoch_stats.mse),
                        train_accuracy: Some(epoch_stats.train_accuracy),
                        weight_updates: updates,
                        spikes: 0,
                    },
                );
            }
            stats.push(epoch_stats);
        }
        stats
    }

    /// One BP step on a single sample; returns `(squared error, correct)`.
    /// Exposed so the SNN+BP hybrid can reuse the identical update rule.
    pub fn step(&self, mlp: &mut Mlp, input: &[f64], label: usize) -> (f64, bool) {
        self.step_with(mlp, input, label, &mut Vec::new(), &mut Vec::new())
    }

    /// [`Trainer::step`] with the caller's activation and gradient
    /// buffers, reused across samples.
    fn step_with(
        &self,
        mlp: &mut Mlp,
        input: &[f64],
        label: usize,
        trace: &mut Vec<Vec<f64>>,
        deltas: &mut Vec<Vec<f64>>,
    ) -> (f64, bool) {
        let activation = mlp.activation();
        mlp.forward_into(input, trace, true);
        let last = trace.len() - 1;
        let output = &trace[last];
        let (off, on) = self.config.targets;
        deltas.resize_with(trace.len(), Vec::new);

        // Output error e_j and squared-error telemetry.
        let mut sq_err = 0.0;
        let correct_label = crate::network::argmax(output) == label;
        let d = &mut deltas[last];
        d.clear();
        for (j, &y) in output.iter().enumerate() {
            let target = if j == label { on } else { off };
            let e = target - y;
            sq_err += e * e;
            d.push(activation.derivative_from_output(y) * e);
        }

        // Hidden-layer gradients, back to front:
        // δ_j = f'(s_j) · Σ_k δ_k · w_kj, each sum accumulated k
        // ascending, one weight row at a time.
        for l in (0..last).rev() {
            let (head, tail) = deltas.split_at_mut(l + 1);
            let (d, next_deltas) = (&mut head[l], &tail[0]);
            let y = &trace[l];
            d.clear();
            d.resize(y.len(), 0.0);
            let next_rows = mlp.layer_weights(l + 1).chunks_exact(y.len() + 1);
            for (&dk, row) in next_deltas.iter().zip(next_rows) {
                for (sum, &w) in d.iter_mut().zip(row) {
                    *sum += dk * w;
                }
            }
            for (sum, &yj) in d.iter_mut().zip(y) {
                *sum *= activation.derivative_from_output(yj);
            }
        }

        // Weight updates: w += η · δ_j · y_i (bias input is 1).
        let eta = self.config.learning_rate;
        for (l, layer_deltas) in deltas.iter().enumerate() {
            let prev: &[f64] = if l == 0 { input } else { &trace[l - 1] };
            let fan_in = prev.len();
            let weights = mlp.layer_weights_mut(l);
            for (row, &dj) in weights.chunks_exact_mut(fan_in + 1).zip(layer_deltas) {
                let step = eta * dj;
                for (w, &y) in row.iter_mut().zip(prev) {
                    *w += step * y;
                }
                row[fan_in] += step; // bias
            }
        }
        (sq_err, correct_label)
    }
}

fn shuffle(order: &mut [usize], rng: &mut SplitMix64) {
    for i in (1..order.len()).rev() {
        let j = rng.next_index(i + 1);
        order.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use nc_dataset::{Dataset, Sample};

    /// A two-class toy problem: bright-left vs bright-right 2x1 images.
    fn toy() -> Dataset {
        let mut samples = Vec::new();
        for i in 0..40 {
            let bright = 200 + (i % 40) as u8;
            if i % 2 == 0 {
                samples.push(Sample {
                    pixels: vec![bright, 10],
                    label: 0,
                });
            } else {
                samples.push(Sample {
                    pixels: vec![10, bright],
                    label: 1,
                });
            }
        }
        Dataset::from_samples(2, 1, 2, samples).unwrap()
    }

    #[test]
    fn learns_a_separable_toy_problem() {
        let data = toy();
        let mut mlp = Mlp::new(&[2, 4, 2], Activation::sigmoid(), 3).unwrap();
        let cfg = TrainConfig {
            epochs: 60,
            learning_rate: 0.5,
            ..TrainConfig::default()
        };
        let stats = Trainer::new(cfg).fit(&mut mlp, &data);
        assert!(stats.last().unwrap().train_accuracy > 0.95);
        assert!(mlp.predict(&[0.9, 0.0]) == 0);
        assert!(mlp.predict(&[0.0, 0.9]) == 1);
    }

    #[test]
    fn error_decreases_over_training() {
        let data = toy();
        let mut mlp = Mlp::new(&[2, 4, 2], Activation::sigmoid(), 5).unwrap();
        let stats = Trainer::new(TrainConfig {
            epochs: 30,
            ..TrainConfig::default()
        })
        .fit(&mut mlp, &data);
        assert!(stats.last().unwrap().mse < stats[0].mse);
    }

    #[test]
    fn training_is_deterministic() {
        let data = toy();
        let run = || {
            let mut mlp = Mlp::new(&[2, 3, 2], Activation::sigmoid(), 1).unwrap();
            Trainer::new(TrainConfig::default()).fit(&mut mlp, &data);
            mlp
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn step_activation_trains_with_surrogate() {
        let data = toy();
        let mut mlp = Mlp::new(&[2, 6, 2], Activation::Step, 8).unwrap();
        let stats = Trainer::new(TrainConfig {
            epochs: 80,
            learning_rate: 0.1,
            targets: (0.0, 1.0),
            ..TrainConfig::default()
        })
        .fit(&mut mlp, &data);
        assert!(
            stats.last().unwrap().train_accuracy > 0.9,
            "step-MLP accuracy {}",
            stats.last().unwrap().train_accuracy
        );
    }

    #[test]
    #[should_panic(expected = "does not match network")]
    fn rejects_mismatched_dataset() {
        let data = toy();
        let mut mlp = Mlp::new(&[3, 2, 2], Activation::sigmoid(), 0).unwrap();
        Trainer::new(TrainConfig::default()).fit(&mut mlp, &data);
    }
}
