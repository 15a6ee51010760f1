//! The Multi-Layer Perceptron (paper §2.1).
//!
//! "MLPs contain input layer, one or multiple hidden layers, and an
//! output layer; the input layer does not contain neurons … A neuron j in
//! layer l performs `y_j = f(s_j)` where `s_j = Σ_i w_ji · y_i`."
//!
//! Weights are stored per layer input-major, `[input + 1][output]`: row
//! `i` holds input `i`'s weight to every neuron of the layer, and the
//! last row is the bias (driven by a constant 1 input). A forward pass
//! then adds one contiguous row per non-zero input, and a BP step
//! updates only those rows, both through the float kernel in
//! [`nc_substrate::kernel`] that the SNN+BP hybrid shares.

use crate::activation::Activation;
use nc_substrate::kernel::{active_row_sums, list_active};
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
    /// `layers[l][i * sizes[l + 1] + j]`: weight from input `i` of layer
    /// `l` to its neuron `j`; row `i = sizes[l]` is the bias.
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
            // Drawn neuron by neuron, bias last, so a seed gives the same
            // values it gave the row-major layout.
            let mut weights = vec![0.0; (fan_in + 1) * fan_out];
            for j in 0..fan_out {
                for i in 0..=fan_in {
                    weights[i * fan_out + j] = rng.next_range(-bound, bound);
                }
            }
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

    /// Immutable access to a layer's weight matrix (input-major
    /// `[in + 1][out]`: `w[i * fan_out + j]`, bias row last).
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
        let mut trace = Trace::default();
        self.forward_into(input, &mut trace, true);
        trace.layers
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
        self.predict_into(input, &mut Trace::default())
    }

    /// [`Mlp::predict`] on 8-bit pixels, through `scratch`'s reusable
    /// buffers.
    pub(crate) fn predict_pixels(&self, pixels: &[u8], scratch: &mut ForwardScratch) -> usize {
        scratch.load_pixels(pixels);
        self.predict_into(&scratch.input, &mut scratch.trace)
    }

    fn predict_into(&self, input: &[f64], trace: &mut Trace) -> usize {
        let potentials = self.activation == Activation::Step;
        self.forward_into(input, trace, !potentials);
        // nc-lint: allow(R5, reason = "Mlp::new rejects empty topologies, so the trace is nonempty")
        argmax(trace.layers.last().expect("at least one layer"))
    }

    /// The one float forward pass, serving training and inference:
    /// fills `trace` with every layer's activations, reusing its
    /// buffers. With `activate_output` false the output layer keeps its
    /// pre-activation sums.
    ///
    /// # Panics
    ///
    /// Panics if `input.len()` does not match the input layer width.
    pub(crate) fn forward_into(&self, input: &[f64], trace: &mut Trace, activate_output: bool) {
        assert_eq!(
            input.len(),
            self.sizes[0],
            "input width {} does not match topology input {}",
            input.len(),
            self.sizes[0]
        );
        let last = self.layers.len() - 1;
        let Trace { layers, active } = trace;
        layers.resize_with(self.layers.len(), Vec::new);
        active.resize_with(self.layers.len(), Vec::new);
        for (l, weights) in self.layers.iter().enumerate() {
            let (done, rest) = layers.split_at_mut(l);
            let current = done.last().map_or(input, Vec::as_slice);
            let bias_row = current.len() * self.sizes[l + 1];
            let out = &mut rest[0];
            out.clear();
            out.extend_from_slice(&weights[bias_row..]);
            active[l].resize(current.len() + 1, (0, 0.0));
            let n = list_active(current.iter().copied(), out.len(), &mut active[l]);
            active[l].truncate(n + 1);
            active_row_sums(weights, &active[l][..n], out);
            if l < last || activate_output {
                for s in out.iter_mut() {
                    *s = self.activation.eval(*s);
                }
            }
        }
    }
}

/// The buffers of one float forward pass: every layer's activations,
/// as [`Mlp::forward_trace`] returns them, and every layer's non-zero
/// inputs, which the BP step reuses to update only their rows.
#[derive(Debug, Default)]
pub(crate) struct Trace {
    /// Every layer's outputs, hidden layers first.
    pub(crate) layers: Vec<Vec<f64>>,
    /// Per layer, its non-zero inputs as [`list_active`] lists them,
    /// then the bias row's entry `(fan_in · fan_out, 1.0)`.
    pub(crate) active: Vec<Vec<(usize, f64)>>,
}

/// Reusable buffers for the float forward pass: the input rescaled to
/// `[0, 1]` and the [`Trace`]. Grown on first use, so a caller that
/// keeps one across presentations allocates nothing in the steady state
/// (the float counterpart of `nc_substrate::kernel::Scratch`).
#[derive(Debug, Default)]
pub(crate) struct ForwardScratch {
    /// The current presentation, as `[0, 1]` luminances.
    pub(crate) input: Vec<f64>,
    /// The forward pass's outputs and working list.
    pub(crate) trace: Trace,
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
