//! The input-major float MLP against the row-major dense loops it
//! replaced.
//!
//! [`RowMajor`] keeps each layer as `[out][in + 1]` (bias last) and runs
//! the plain serial forward pass and BP step over every input, zero or
//! not. The network under test stores `[in + 1][out]` and skips the rows
//! of zero inputs, in its forward pass and in its weight update. Both
//! must agree to the bit: every activation, every weight after every
//! step, and the classes `predict`, `Model::predict` and `predict_batch`
//! return.

use nc_dataset::model::EVAL_PRESENTATION_SEED_BASE;
use nc_dataset::{Model, RequestSlab};
use nc_mlp::network::argmax;
use nc_mlp::{Activation, Mlp, TrainConfig, Trainer};
use nc_substrate::check::check_cases;
use nc_substrate::rng::SplitMix64;

/// A float MLP in the row-major layout, trained by the serial loops.
struct RowMajor {
    sizes: Vec<usize>,
    activation: Activation,
    /// `layers[l][j * (sizes[l] + 1) + i]`, bias at `i = sizes[l]`.
    layers: Vec<Vec<f64>>,
}

impl RowMajor {
    fn of(mlp: &Mlp) -> RowMajor {
        let sizes = mlp.sizes().to_vec();
        let layers = (0..sizes.len() - 1)
            .map(|l| {
                let (fan_in, fan_out) = (sizes[l], sizes[l + 1]);
                let w = mlp.layer_weights(l);
                (0..fan_out)
                    .flat_map(|j| (0..=fan_in).map(move |i| w[i * fan_out + j]))
                    .collect()
            })
            .collect();
        RowMajor {
            sizes,
            activation: mlp.activation(),
            layers,
        }
    }

    /// Layer `l` transposed to the input-major layout [`Mlp`] stores.
    fn input_major(&self, l: usize) -> Vec<f64> {
        let (fan_in, fan_out) = (self.sizes[l], self.sizes[l + 1]);
        (0..=fan_in)
            .flat_map(|i| (0..fan_out).map(move |j| (i, j)))
            .map(|(i, j)| self.layers[l][j * (fan_in + 1) + i])
            .collect()
    }

    /// Every layer's activations, and the output layer's sums: each sum
    /// starts at the bias and adds `w·x` for every input, `i` ascending.
    fn forward(&self, input: &[f64]) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut trace: Vec<Vec<f64>> = Vec::new();
        let mut potentials = Vec::new();
        for (l, weights) in self.layers.iter().enumerate() {
            let current = trace.last().map_or(input, Vec::as_slice);
            let fan_in = self.sizes[l];
            potentials = weights
                .chunks_exact(fan_in + 1)
                .map(|row| {
                    let mut s = row[fan_in];
                    for i in 0..fan_in {
                        s += row[i] * current[i];
                    }
                    s
                })
                .collect();
            trace.push(
                potentials
                    .iter()
                    .map(|&s| self.activation.eval(s))
                    .collect(),
            );
        }
        (trace, potentials)
    }

    /// The class `Mlp::predict` reads out: the maximum activation, or
    /// the maximum output sum under the step function.
    fn predict(&self, input: &[f64]) -> usize {
        let (trace, potentials) = self.forward(input);
        match self.activation {
            Activation::Step => argmax(&potentials),
            Activation::Sigmoid { .. } => argmax(&trace[trace.len() - 1]),
        }
    }

    /// One BP step, every weight updated as `w += (η·δ_j)·y_i`; returns
    /// `(squared error, correct)` as [`Trainer::step`] does.
    fn step(&mut self, input: &[f64], label: usize, config: &TrainConfig) -> (f64, bool) {
        let f = self.activation;
        let (trace, _) = self.forward(input);
        let last = trace.len() - 1;
        let (off, on) = config.targets;
        let mut sq_err = 0.0;
        let mut deltas = vec![Vec::new(); trace.len()];
        for (j, &y) in trace[last].iter().enumerate() {
            let e = if j == label { on } else { off } - y;
            sq_err += e * e;
            deltas[last].push(f.derivative_from_output(y) * e);
        }
        for l in (0..last).rev() {
            let (width, next) = (self.sizes[l + 1], &self.layers[l + 1]);
            deltas[l] = (0..width)
                .map(|j| {
                    let mut sum = 0.0;
                    for (k, &dk) in deltas[l + 1].iter().enumerate() {
                        sum += dk * next[k * (width + 1) + j];
                    }
                    f.derivative_from_output(trace[l][j]) * sum
                })
                .collect();
        }
        for l in 0..=last {
            let fan_in = self.sizes[l];
            let prev = if l == 0 { input } else { &trace[l - 1][..] };
            for (row, &dj) in self.layers[l].chunks_exact_mut(fan_in + 1).zip(&deltas[l]) {
                let step = config.learning_rate * dj;
                for i in 0..fan_in {
                    row[i] += step * prev[i];
                }
                row[fan_in] += step;
            }
        }
        (sq_err, argmax(&trace[last]) == label)
    }
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Compares every activation and every readout of `mlp` on `images`
/// with the reference's, through each of the network's entry points.
fn assert_same_inference(mlp: &mut Mlp, reference: &RowMajor, images: &[Vec<u8>], ctx: &str) {
    let sizes = mlp.sizes().to_vec();
    let mut slab = RequestSlab::new(sizes[0], sizes[sizes.len() - 1]);
    let mut want = Vec::new();
    for (n, pixels) in images.iter().enumerate() {
        let input = unit(pixels);
        let (trace, _) = reference.forward(&input);
        let got = mlp.forward_trace(&input);
        assert_eq!(got.len(), trace.len(), "{ctx}: image {n}");
        for (l, (g, w)) in got.iter().zip(&trace).enumerate() {
            assert_eq!(bits(g), bits(w), "{ctx}: image {n} layer {l}");
        }
        assert_eq!(
            bits(&mlp.forward(&input)),
            bits(&trace[trace.len() - 1]),
            "{ctx}: image {n} output"
        );
        let class = reference.predict(&input);
        assert_eq!(Mlp::predict(mlp, &input), class, "{ctx}: image {n} predict");
        assert_eq!(
            Model::predict(mlp, pixels, 0),
            class,
            "{ctx}: image {n} Model::predict"
        );
        slab.push(pixels, EVAL_PRESENTATION_SEED_BASE | n as u64, 0)
            .unwrap();
        want.push(class);
    }
    let mut got = Vec::new();
    mlp.predict_batch(&slab.batch(), &mut got);
    assert_eq!(got, want, "{ctx}: predict_batch");
}

/// Pixels as the `[0, 1]` luminances the network reads.
fn unit(pixels: &[u8]) -> Vec<f64> {
    pixels.iter().map(|&p| f64::from(p) / 255.0).collect()
}

/// An image whose pixels are each zero with probability `zeros`.
fn image(rng: &mut SplitMix64, width: usize, zeros: f64) -> Vec<u8> {
    (0..width)
        .map(|_| {
            if rng.next_unit() < zeros {
                0
            } else {
                1 + rng.next_below(255) as u8
            }
        })
        .collect()
}

#[test]
fn input_major_forward_and_bp_match_the_row_major_serial_loops() {
    check_cases(0x29B0, 64, |case, rng| {
        // 2–4 layers of width 1–120.
        let sizes: Vec<usize> = (0..2 + rng.next_below(3))
            .map(|_| 1 + rng.next_below(120) as usize)
            .collect();
        // Step's 0/1 outputs make hidden inputs zero, so the skip runs
        // past layer 0 too.
        let step = rng.next_below(3) == 0;
        let activation = if step {
            Activation::Step
        } else {
            Activation::sigmoid_slope(rng.next_range(0.25, 16.0))
        };
        let mut config = TrainConfig::default();
        if rng.next_below(2) == 0 {
            config.learning_rate = rng.next_range(0.01, 1.5);
        }
        if step {
            config.targets = (0.0, 1.0);
        }
        let zeros = rng.next_range(0.0, 0.9);
        let images: Vec<Vec<u8>> = (0..1 + rng.next_below(4))
            .map(|_| image(rng, sizes[0], zeros))
            .collect();
        let classes = sizes[sizes.len() - 1] as u64;
        let ctx = format!("case {case}: {sizes:?} {activation:?} {zeros:.2} zeros");

        let mut mlp = Mlp::new(&sizes, activation, rng.next_u64()).unwrap();
        let mut reference = RowMajor::of(&mlp);
        assert_same_inference(&mut mlp, &reference, &images, &ctx);

        let trainer = Trainer::new(config);
        for (n, pixels) in images.iter().enumerate() {
            let input = unit(pixels);
            let label = rng.next_below(classes) as usize;
            let want = reference.step(&input, label, &config);
            let (err, hit) = trainer.step(&mut mlp, &input, label);
            assert_eq!(
                (err.to_bits(), hit),
                (want.0.to_bits(), want.1),
                "{ctx}: step {n}"
            );
            for l in 0..sizes.len() - 1 {
                assert_eq!(
                    bits(mlp.layer_weights(l)),
                    bits(&reference.input_major(l)),
                    "{ctx}: layer {l} after step {n}"
                );
            }
        }
        assert_same_inference(&mut mlp, &reference, &images, &ctx);
    });
}
