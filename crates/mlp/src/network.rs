//! The Multi-Layer Perceptron (paper §2.1).
//!
//! "MLPs contain input layer, one or multiple hidden layers, and an
//! output layer; the input layer does not contain neurons … A neuron j in
//! layer l performs `y_j = f(s_j)` where `s_j = Σ_i w_ji · y_i`."
//!
//! Weights are stored per layer in row-major `[output][input + 1]` form;
//! the trailing column is the bias (driven by a constant 1 input).

use crate::activation::Activation;
use nc_substrate::rng::SplitMix64;

/// Errors constructing an [`Mlp`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MlpError {
    /// Fewer than two layer sizes were given (need at least input+output).
    TooFewLayers,
    /// A layer size was zero.
    ZeroWidthLayer {
        /// Index of the zero-width layer in the topology slice.
        index: usize,
    },
}

impl std::fmt::Display for MlpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MlpError::TooFewLayers => {
                write!(f, "topology needs at least an input and an output layer")
            }
            MlpError::ZeroWidthLayer { index } => {
                write!(f, "layer {index} has zero width")
            }
        }
    }
}

impl std::error::Error for MlpError {}

/// A dense feed-forward network with one activation function shared by
/// every neuron (as in the paper's designs).
///
/// # Examples
///
/// ```
/// use nc_mlp::{Activation, Mlp};
///
/// // The paper's MNIST network: 28x28 inputs, 100 hidden, 10 outputs.
/// let mlp = Mlp::new(&[784, 100, 10], Activation::sigmoid(), 7).unwrap();
/// assert_eq!(mlp.num_weights(), 784 * 100 + 100 * 10); // paper: 79,400
/// let out = mlp.forward(&vec![0.0; 784]);
/// assert_eq!(out.len(), 10);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Mlp {
    sizes: Vec<usize>,
    activation: Activation,
    /// `layers[l][j * (sizes[l] + 1) + i]`: weight from input `i` of layer
    /// `l` to its neuron `j`; index `sizes[l]` is the bias.
    layers: Vec<Vec<f64>>,
}

impl Mlp {
    /// Creates a network with uniformly random weights in
    /// `[-1/(a·√fan_in), 1/(a·√fan_in)]`, the standard fan-in scaling
    /// divided by the activation slope `a` so that steep sigmoids (and
    /// the step function's surrogate) start in their active region
    /// rather than saturated — without this, the Figure 6 bridging
    /// experiment cannot train at `a ≥ 4`.
    ///
    /// # Errors
    ///
    /// Returns [`MlpError`] if fewer than two sizes are given or any size
    /// is zero.
    pub fn new(sizes: &[usize], activation: Activation, seed: u64) -> Result<Self, MlpError> {
        if sizes.len() < 2 {
            return Err(MlpError::TooFewLayers);
        }
        if let Some(index) = sizes.iter().position(|&s| s == 0) {
            return Err(MlpError::ZeroWidthLayer { index });
        }
        let slope = activation.slope().unwrap_or(16.0).max(1.0);
        let mut rng = SplitMix64::new(seed);
        let mut layers = Vec::with_capacity(sizes.len() - 1);
        for w in sizes.windows(2) {
            let (fan_in, fan_out) = (w[0], w[1]);
            let bound = 1.0 / (slope * (fan_in as f64).sqrt());
            let weights = (0..fan_out * (fan_in + 1))
                .map(|_| rng.next_range(-bound, bound))
                .collect();
            layers.push(weights);
        }
        Ok(Mlp {
            sizes: sizes.to_vec(),
            activation,
            layers,
        })
    }

    /// Layer widths, input first.
    pub fn sizes(&self) -> &[usize] {
        &self.sizes
    }

    /// The shared activation function.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Replaces the activation function (used by the sigmoid→step
    /// bridging experiment to evaluate a trained network under a steeper
    /// profile).
    pub fn set_activation(&mut self, activation: Activation) {
        self.activation = activation;
    }

    /// Total number of synaptic weights, excluding biases — the quantity
    /// the paper's synaptic-SRAM sizing uses (79,400 for 28x28-100-10).
    pub fn num_weights(&self) -> usize {
        self.sizes.windows(2).map(|w| w[0] * w[1]).sum()
    }

    /// Number of neurons (hidden + output; the input layer "does not
    /// contain neurons").
    pub fn num_neurons(&self) -> usize {
        self.sizes[1..].iter().sum()
    }

    /// Immutable access to a layer's weight matrix
    /// (row-major `[out][in + 1]`, bias last).
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of range.
    pub fn layer_weights(&self, layer: usize) -> &[f64] {
        &self.layers[layer]
    }

    /// Mutable access to a layer's weight matrix (used by the trainer and
    /// by quantization round-trips).
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of range.
    pub fn layer_weights_mut(&mut self, layer: usize) -> &mut [f64] {
        &mut self.layers[layer]
    }

    /// Runs the feed-forward path, returning the output-layer activations.
    ///
    /// # Panics
    ///
    /// Panics if `input.len()` does not match the input layer width.
    pub fn forward(&self, input: &[f64]) -> Vec<f64> {
        // nc-lint: allow(R5, reason = "Mlp::new rejects empty topologies, so the trace is nonempty")
        self.forward_trace(input).pop().expect("at least one layer")
    }

    /// Runs the feed-forward path and returns every layer's activations
    /// (hidden layers first, output last) — the intermediate values BP
    /// needs (C-INTERMEDIATE).
    ///
    /// # Panics
    ///
    /// Panics if `input.len()` does not match the input layer width.
    pub fn forward_trace(&self, input: &[f64]) -> Vec<Vec<f64>> {
        let mut trace = Vec::new();
        self.forward_into(input, &mut trace, true);
        trace
    }

    /// Predicted class: index of the maximum output activation. For the
    /// binary [`Activation::Step`] the activations carry no ranking
    /// (several outputs can be exactly 1), so the readout falls back to
    /// the maximum output *potential* — the same max-potential readout
    /// the paper's SNNwot hardware uses (§4.2.2).
    ///
    /// # Panics
    ///
    /// Panics if `input.len()` does not match the input layer width.
    pub fn predict(&self, input: &[f64]) -> usize {
        self.predict_into(input, &mut Vec::new())
    }

    /// [`Mlp::predict`] on 8-bit pixels, through `scratch`'s reusable
    /// buffers.
    pub(crate) fn predict_pixels(&self, pixels: &[u8], scratch: &mut ForwardScratch) -> usize {
        scratch.load_pixels(pixels);
        self.predict_into(&scratch.input, &mut scratch.trace)
    }

    fn predict_into(&self, input: &[f64], trace: &mut Vec<Vec<f64>>) -> usize {
        let potentials = self.activation == Activation::Step;
        self.forward_into(input, trace, !potentials);
        // nc-lint: allow(R5, reason = "Mlp::new rejects empty topologies, so the trace is nonempty")
        argmax(trace.last().expect("at least one layer"))
    }

    /// The one float forward pass: fills `trace` with every layer's
    /// activations, reusing its buffers. With `activate_output` false
    /// the output layer keeps its pre-activation sums.
    ///
    /// # Panics
    ///
    /// Panics if `input.len()` does not match the input layer width.
    pub(crate) fn forward_into(
        &self,
        input: &[f64],
        trace: &mut Vec<Vec<f64>>,
        activate_output: bool,
    ) {
        assert_eq!(
            input.len(),
            self.sizes[0],
            "input width {} does not match topology input {}",
            input.len(),
            self.sizes[0]
        );
        let last = self.layers.len() - 1;
        trace.resize_with(self.layers.len(), Vec::new);
        for (l, weights) in self.layers.iter().enumerate() {
            let (done, rest) = trace.split_at_mut(l);
            let current = done.last().map_or(input, Vec::as_slice);
            let out = &mut rest[0];
            out.resize(self.sizes[l + 1], 0.0);
            layer_sums(weights, current, out);
            if l < last || activate_output {
                for s in out.iter_mut() {
                    *s = self.activation.eval(*s);
                }
            }
        }
    }
}

/// Output rows [`layer_sums`] accumulates side by side: enough
/// independent add chains to cover the latency of a float add.
const ROW_BLOCK: usize = 8;

/// Inputs [`row_tile`] takes per step: each row's weights for this many
/// consecutive inputs load as one contiguous run.
const COL_STEP: usize = 4;

/// One layer's pre-activation sums, `out[j] = w[j][n] + Σ_i w[j][i]·input[i]`
/// over a row-major bias-last weight matrix (`n = input.len()`).
///
/// Each sum starts from the bias and adds the products `w·x` in `i`
/// ascending order, one rounded multiply and one rounded add per term,
/// so every output is bit-identical to the plain serial loop. Speed
/// comes from running [`ROW_BLOCK`] rows at once (then 4, then 1 for
/// the rows left over): their chains are independent, so the adds
/// overlap instead of waiting on each other.
fn layer_sums(weights: &[f64], input: &[f64], out: &mut [f64]) {
    let row_w = input.len() + 1;
    let mut blocks = weights.chunks_exact(ROW_BLOCK * row_w);
    let mut outs = out.chunks_exact_mut(ROW_BLOCK);
    for (block, sums) in (&mut blocks).zip(&mut outs) {
        row_tile::<ROW_BLOCK>(block, input, sums);
    }
    let mut quads = blocks.remainder().chunks_exact(4 * row_w);
    let mut outs = outs.into_remainder().chunks_exact_mut(4);
    for (block, sums) in (&mut quads).zip(&mut outs) {
        row_tile::<4>(block, input, sums);
    }
    let rows = quads.remainder().chunks_exact(row_w);
    for (row, sum) in rows.zip(outs.into_remainder().chunks_exact_mut(1)) {
        row_tile::<1>(row, input, sum);
    }
}

/// The sums of `R` consecutive rows of [`layer_sums`]' matrix. The
/// input advances [`COL_STEP`] at a time, and each row's weights for
/// that step load as one contiguous run. The compiler can then
/// transpose the `R × COL_STEP` tile in registers into one vector of
/// `R` weights per input. Walking the rows one input at a time instead
/// leaves it a strided gather per input, which it assembles
/// element by element. The adds keep each row's order: bias first,
/// then `i` ascending.
fn row_tile<const R: usize>(block: &[f64], input: &[f64], sums: &mut [f64]) {
    let n = input.len();
    let row_w = n + 1;
    let rows: [&[f64]; R] = std::array::from_fn(|k| &block[k * row_w..][..n]);
    let mut acc: [f64; R] = std::array::from_fn(|k| block[k * row_w + n]);
    let mut steps = input.chunks_exact(COL_STEP);
    let mut i = 0;
    for xs in &mut steps {
        let tile: [[f64; COL_STEP]; R] = std::array::from_fn(|k| {
            let w = &rows[k][i..i + COL_STEP];
            std::array::from_fn(|t| w[t])
        });
        for (t, &x) in xs.iter().enumerate() {
            for (a, w) in acc.iter_mut().zip(&tile) {
                *a += w[t] * x;
            }
        }
        i += COL_STEP;
    }
    for (&x, i) in steps.remainder().iter().zip(i..) {
        for (a, row) in acc.iter_mut().zip(&rows) {
            *a += row[i] * x;
        }
    }
    sums.copy_from_slice(&acc);
}

/// Reusable buffers for the float forward pass: the input rescaled to
/// `[0, 1]` and one activation vector per layer. Grown on first use, so
/// a caller that keeps one across presentations allocates nothing in
/// the steady state (the float counterpart of
/// `nc_substrate::kernel::Scratch`).
#[derive(Debug, Default)]
pub(crate) struct ForwardScratch {
    /// The current presentation, as `[0, 1]` luminances.
    pub(crate) input: Vec<f64>,
    /// Every layer's outputs, as [`Mlp::forward_trace`] returns them.
    pub(crate) trace: Vec<Vec<f64>>,
}

impl ForwardScratch {
    /// Loads 8-bit pixels as the `[0, 1]` luminances
    /// `Sample::pixels_unit` gives.
    pub(crate) fn load_pixels(&mut self, pixels: &[u8]) {
        self.input.clear();
        self.input
            .extend(pixels.iter().map(|&p| f64::from(p) / 255.0));
    }
}

/// Index of the maximum element (first maximum on ties).
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn argmax(values: &[f64]) -> usize {
    assert!(!values.is_empty(), "argmax of empty slice");
    let mut best = 0;
    for (i, &v) in values.iter().enumerate().skip(1) {
        if v > values[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_degenerate_topologies() {
        assert_eq!(
            Mlp::new(&[4], Activation::sigmoid(), 0).unwrap_err(),
            MlpError::TooFewLayers
        );
        assert_eq!(
            Mlp::new(&[4, 0, 2], Activation::sigmoid(), 0).unwrap_err(),
            MlpError::ZeroWidthLayer { index: 1 }
        );
    }

    #[test]
    fn weight_count_matches_paper() {
        // §4.3.3: "784×100 + 100×10 = 79,400 weights for the MLP".
        let mlp = Mlp::new(&[784, 100, 10], Activation::sigmoid(), 1).unwrap();
        assert_eq!(mlp.num_weights(), 79_400);
        assert_eq!(mlp.num_neurons(), 110);
    }

    #[test]
    fn forward_output_is_in_sigmoid_range() {
        let mlp = Mlp::new(&[5, 4, 3], Activation::sigmoid(), 2).unwrap();
        let out = mlp.forward(&[0.1, 0.9, 0.5, 0.0, 1.0]);
        assert_eq!(out.len(), 3);
        assert!(out.iter().all(|&y| (0.0..=1.0).contains(&y)));
    }

    #[test]
    fn forward_trace_exposes_hidden_layers() {
        let mlp = Mlp::new(&[3, 7, 2], Activation::sigmoid(), 3).unwrap();
        let trace = mlp.forward_trace(&[0.2, 0.4, 0.6]);
        assert_eq!(trace.len(), 2);
        assert_eq!(trace[0].len(), 7);
        assert_eq!(trace[1].len(), 2);
    }

    #[test]
    #[should_panic(expected = "does not match topology input")]
    fn forward_rejects_wrong_input_width() {
        let mlp = Mlp::new(&[3, 2], Activation::sigmoid(), 0).unwrap();
        let _ = mlp.forward(&[0.0; 4]);
    }

    #[test]
    fn deterministic_initialization() {
        let a = Mlp::new(&[4, 3, 2], Activation::sigmoid(), 9).unwrap();
        let b = Mlp::new(&[4, 3, 2], Activation::sigmoid(), 9).unwrap();
        assert_eq!(a, b);
        let c = Mlp::new(&[4, 3, 2], Activation::sigmoid(), 10).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn argmax_takes_first_maximum() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0, 2.0]), 1);
        assert_eq!(argmax(&[-5.0]), 0);
    }

    #[test]
    fn zero_weight_network_is_constant() {
        let mut mlp = Mlp::new(&[2, 2, 2], Activation::sigmoid(), 0).unwrap();
        for l in 0..2 {
            for w in mlp.layer_weights_mut(l) {
                *w = 0.0;
            }
        }
        let a = mlp.forward(&[0.0, 0.0]);
        let b = mlp.forward(&[1.0, 1.0]);
        assert_eq!(a, b);
        assert!((a[0] - 0.5).abs() < 1e-12);
    }
}
