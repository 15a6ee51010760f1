//! 8-bit fixed-point inference: the hardware MLP datapath.
//!
//! The paper found that "the results achieved with 8-bit fixed-point
//! operators (multipliers, adders, SRAM width) were on par with the ones
//! obtained with floating-point operators: respectively 96.65% vs.
//! 97.65%" (§4.2.1). This module quantizes a trained [`Mlp`] onto that
//! datapath: 8-bit weights, 8-bit activations, integer multiply-
//! accumulate into a wide adder-tree register, and the 16-point
//! piecewise-linear sigmoid.
//!
//! The quantized network is the *functional reference* for the `nc-hw`
//! datapath simulator: both must produce identical predictions.

use crate::activation::Activation;
use crate::network::{Mlp, MlpError};
use nc_dataset::ModelError;
use nc_faults::{dead_unit_mask, stuck_bits_i8, FaultModel, FaultPlan, TransientReads};
use nc_substrate::fixed::{sat_i32_trunc, sat_i8_round};
use nc_substrate::interp::PiecewiseLinear;
use nc_substrate::kernel::{gemm_i8xu8, FixedActLut, Scratch};

/// Bit width of weights and activations in the hardware datapath.
pub const DATA_BITS: u32 = 8;

/// An [`Mlp`] lowered to the 8-bit hardware datapath.
///
/// Weights are stored as `i8` with a per-layer power-of-two scale
/// (hardware reinterprets the same integers; only the implicit binary
/// point differs). Activations are `u8` in `[0, 255]`, matching the input
/// pixel format, so hidden-layer outputs can feed the next layer with no
/// conversion — exactly what the folded design's neuron-output registers
/// do (§4.3.1).
///
/// # Examples
///
/// ```
/// use nc_mlp::{Activation, Mlp, QuantizedMlp};
///
/// let mlp = Mlp::new(&[16, 8, 4], Activation::sigmoid(), 1).unwrap();
/// let mut q = QuantizedMlp::from_mlp(&mlp);
/// let out = q.forward_u8(&[128; 16]);
/// assert_eq!(out.len(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct QuantizedMlp {
    sizes: Vec<usize>,
    /// Per layer: quantized weights, row-major `[out][in + 1]`, bias last.
    layers: Vec<Vec<i8>>,
    /// Per layer: the power-of-two exponent `e` such that
    /// `w_float ≈ w_int · 2^-e`.
    scales: Vec<i32>,
    table: PiecewiseLinear,
    /// Per layer: `table` lowered to fixed-point coefficients for that
    /// layer's scale exponent, so inference never leaves the integer
    /// domain (rebuilt alongside `scales`; derived state, not compared).
    act_luts: Vec<FixedActLut>,
    activation: Activation,
    /// Seed for re-initializing the float master when this network is
    /// trained through the unified `Model` interface; `None` for
    /// deployment artifacts built with [`QuantizedMlp::from_mlp`].
    master_seed: Option<u64>,
    /// Transient-read fault port over the weight SRAM; disabled unless a
    /// `TransientRead` plan was injected.
    faults: TransientReads,
    /// Reusable layer buffers (DESIGN.md "Hot paths"): after the first
    /// presentation, [`QuantizedMlp::forward_u8`] allocates nothing.
    scratch: Scratch,
}

/// Equality ignores the scratch buffers and the derived activation LUTs:
/// two networks are the same deployment artifact iff their stored state
/// (topology, weights, scales, table, seed, fault port) matches.
impl PartialEq for QuantizedMlp {
    fn eq(&self, other: &Self) -> bool {
        self.sizes == other.sizes
            && self.layers == other.layers
            && self.scales == other.scales
            && self.table == other.table
            && self.activation == other.activation
            && self.master_seed == other.master_seed
            && self.faults == other.faults
    }
}

impl QuantizedMlp {
    /// Quantizes a trained floating-point network.
    ///
    /// Each layer's scale is the largest power of two that keeps the
    /// biggest |weight| inside the `i8` range (symmetric per-tensor
    /// quantization — the scheme an 8-bit SRAM weight store implies).
    pub fn from_mlp(mlp: &Mlp) -> Self {
        Self::from_mlp_with_bits(mlp, DATA_BITS)
    }

    /// Quantizes with an explicit weight bit width — the precision
    /// exploration of §4.2.3 ("we also explored the neurons and synapses
    /// bit width, with the goal of finding the most compact size which is
    /// within 1% of the best accuracy").
    ///
    /// # Panics
    ///
    /// Panics if `bits` is not in `2..=8`.
    pub fn from_mlp_with_bits(mlp: &Mlp, bits: u32) -> Self {
        assert!((2..=8).contains(&bits), "weight bits must be in 2..=8");
        let max_raw = f64::from((1u32 << (bits - 1)) - 1); // e.g. 127 at 8 bits
        let sizes = mlp.sizes().to_vec();
        let mut layers = Vec::new();
        let mut scales = Vec::new();
        for l in 0..sizes.len() - 1 {
            let w = mlp.layer_weights(l);
            let max_abs = w.iter().fold(0.0f64, |m, &x| m.max(x.abs())).max(1e-12);
            // Choose e with max_raw · 2^-e >= max_abs, i.e. the finest
            // grid that still represents the largest weight.
            let e = sat_i32_trunc((max_raw / max_abs).log2().floor());
            let scale = 2f64.powi(e);
            // The float master is input-major; the datapath reads each
            // neuron's row `[in + 1]`, so transpose while quantizing.
            let (fan_in, fan_out) = (sizes[l], sizes[l + 1]);
            layers.push(
                (0..fan_out)
                    .flat_map(|j| (0..=fan_in).map(move |i| w[i * fan_out + j]))
                    .map(|x| sat_i8_round((x * scale).clamp(-max_raw, max_raw)))
                    .collect(),
            );
            scales.push(e);
        }
        let table = mlp.activation().hardware_table();
        let act_luts = scales
            .iter()
            .map(|&e| FixedActLut::new(&table, e))
            .collect();
        QuantizedMlp {
            sizes,
            layers,
            scales,
            table,
            act_luts,
            activation: mlp.activation(),
            master_seed: None,
            faults: TransientReads::disabled(),
            scratch: Scratch::default(),
        }
    }

    /// Builds an *untrained* quantized network that can later be trained
    /// through the unified `Model` interface: `fit` initializes a float
    /// master `Mlp` from `(sizes, activation, seed)`, trains it with
    /// back-propagation, and re-quantizes — the same train-then-quantize
    /// pipeline the paper uses (§4.2.1), packaged so experiment drivers
    /// can schedule this variant as an independent job.
    ///
    /// # Errors
    ///
    /// Returns [`MlpError`] if the topology is invalid.
    pub fn untrained(sizes: &[usize], activation: Activation, seed: u64) -> Result<Self, MlpError> {
        let master = Mlp::new(sizes, activation, seed)?;
        let mut q = Self::from_mlp(&master);
        q.master_seed = Some(seed);
        Ok(q)
    }

    /// The master-initialization seed, if this network was built with
    /// [`QuantizedMlp::untrained`].
    pub fn master_seed(&self) -> Option<u64> {
        self.master_seed
    }

    /// Replaces this network's weights by re-quantizing a newly trained
    /// float master, preserving the stored master seed.
    pub fn requantize_from(&mut self, master: &Mlp) {
        let seed = self.master_seed;
        *self = QuantizedMlp::from_mlp(master);
        self.master_seed = seed;
    }

    /// Layer widths, input first.
    pub fn sizes(&self) -> &[usize] {
        &self.sizes
    }

    /// The quantized weights of a layer (row-major, bias last).
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of range.
    pub fn layer_weights(&self, layer: usize) -> &[i8] {
        &self.layers[layer]
    }

    /// Runs 8-bit inference on raw pixel luminances, returning the
    /// output-layer activations as `u8` (the neuron-output register
    /// contents). The returned slice borrows the network's scratch
    /// buffers and is valid until the next presentation.
    ///
    /// The whole pass is integer: blocked i8×u8 MACs into the i64
    /// adder tree, then the activation evaluated in fixed point straight
    /// off the accumulator ([`FixedActLut`]). Without faults this is the
    /// one-image batch ([`QuantizedMlp::forward_batch_u8`]). After the
    /// first call, no heap allocation occurs (scratch reuse).
    ///
    /// # Panics
    ///
    /// Panics if `input.len()` does not match the input layer width.
    pub fn forward_u8(&mut self, input: &[u8]) -> &[u8] {
        if !self.faults.is_active() {
            return self.forward_batch_u8(input, 1);
        }
        assert_eq!(
            input.len(),
            self.sizes[0],
            "input width does not match topology"
        );
        let max_width = self.sizes.iter().copied().max().unwrap_or(0);
        self.scratch.ensure(max_width);
        self.scratch.front[..input.len()].copy_from_slice(input);
        for l in 0..self.layers.len() {
            let fan_in = self.sizes[l];
            let fan_out = self.sizes[l + 1];
            let weights = &self.layers[l][..fan_out * (fan_in + 1)];
            let lut = &self.act_luts[l];
            let scratch = &mut self.scratch;
            // Every weight word passes through the faulty SRAM read port,
            // bias included — the per-read RNG stream makes the read
            // order part of the semantics, so this path keeps the
            // bias-first row order of the fault-free GEMM.
            for (j, acc) in scratch.acc[..fan_out].iter_mut().enumerate() {
                let row = &weights[j * (fan_in + 1)..(j + 1) * (fan_in + 1)];
                let mut a = i64::from(self.faults.read_i8(row[fan_in])) * 255;
                for (&w, &x) in row[..fan_in].iter().zip(&scratch.front[..fan_in]) {
                    a += i64::from(self.faults.read_i8(w)) * i64::from(x);
                }
                *acc = a;
            }
            for (out, &acc) in scratch.back[..fan_out].iter_mut().zip(&scratch.acc) {
                *out = lut.eval(acc);
            }
            std::mem::swap(&mut scratch.front, &mut scratch.back);
        }
        &self.scratch.front[..self.sizes[self.sizes.len() - 1]]
    }

    /// Predicted class from raw pixels: argmax over output registers
    /// (first maximum wins, matching [`crate::network::argmax`]).
    ///
    /// # Panics
    ///
    /// Panics if `input.len()` does not match the input layer width.
    pub fn predict_u8(&mut self, input: &[u8]) -> usize {
        let out = self.forward_u8(input);
        argmax_u8(out)
    }

    /// Runs 8-bit inference over a contiguous batch of `cols` images
    /// laid out back to back in `inputs`, returning the output
    /// activations image-major (`cols · output_width` bytes, image `c`'s
    /// registers contiguous). Each layer is one [`gemm_i8xu8`] pass over
    /// the whole slab, so the weight matrix streams through cache once
    /// per tile instead of once per image; the per-image results are
    /// bit-identical to calling [`QuantizedMlp::forward_u8`] image by
    /// image (integer accumulation is exact, so the GEMM's cells do not
    /// depend on the batch, and the activation LUT is elementwise).
    ///
    /// This path bypasses the transient-read fault port — callers with
    /// an armed fault stream must keep the serial path, whose read
    /// order is part of the fault semantics.
    ///
    /// # Panics
    ///
    /// Panics if `cols == 0` or `inputs.len() != cols ·` input width.
    pub fn forward_batch_u8(&mut self, inputs: &[u8], cols: usize) -> &[u8] {
        assert!(cols > 0, "batch must hold at least one image");
        assert_eq!(
            inputs.len(),
            cols * self.sizes[0],
            "input slab does not match topology × batch size"
        );
        let max_width = self.sizes.iter().copied().max().unwrap_or(0);
        self.scratch.ensure(max_width * cols);
        self.scratch.front[..inputs.len()].copy_from_slice(inputs);
        for l in 0..self.layers.len() {
            let fan_in = self.sizes[l];
            let fan_out = self.sizes[l + 1];
            let weights = &self.layers[l][..fan_out * (fan_in + 1)];
            let lut = &self.act_luts[l];
            let scratch = &mut self.scratch;
            // Column-major GEMM output: image c's accumulators occupy
            // the contiguous stripe [c·fan_out, (c+1)·fan_out), which is
            // exactly the image-major layout the next layer's slab needs.
            gemm_i8xu8(
                weights,
                fan_out,
                &scratch.front[..fan_in * cols],
                cols,
                &mut scratch.acc[..fan_out * cols],
            );
            for (out, &acc) in scratch.back[..fan_out * cols].iter_mut().zip(&scratch.acc) {
                *out = lut.eval(acc);
            }
            std::mem::swap(&mut scratch.front, &mut scratch.back);
        }
        &self.scratch.front[..self.sizes[self.sizes.len() - 1] * cols]
    }

    /// Predicted classes for a contiguous batch of `cols` images,
    /// appended to `out` in batch order (first maximum wins per image,
    /// as in [`QuantizedMlp::predict_u8`]).
    ///
    /// # Panics
    ///
    /// Panics if `cols == 0` or `inputs.len() != cols ·` input width.
    pub fn predict_batch_u8(&mut self, inputs: &[u8], cols: usize, out: &mut Vec<usize>) {
        let width = self.sizes[self.sizes.len() - 1];
        let registers = self.forward_batch_u8(inputs, cols);
        out.extend(registers.chunks(width.max(1)).map(argmax_u8));
    }

    /// Whether a transient-read fault stream is armed on the weight
    /// SRAM port (in which case batch evaluation must stay serial: the
    /// per-read RNG makes read order part of the semantics).
    pub fn has_transient_faults(&self) -> bool {
        self.faults.is_active()
    }

    /// The fixed-point activation table of a layer (shared with the
    /// `nc-hw` cycle simulator so both datapaths stay bit-identical).
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of range.
    pub fn act_lut(&self, layer: usize) -> &FixedActLut {
        &self.act_luts[layer]
    }

    /// The shared activation this datapath approximates.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Injects a hardware fault into the deployed 8-bit state (the
    /// [`nc_dataset::Model::inject`] substrate for this family):
    ///
    /// * stuck-at bits corrupt the weight SRAM words layer by layer;
    /// * dead neurons zero a hidden unit's *outgoing* weight column, so
    ///   its contribution reads as a stuck-at-reset output register;
    /// * transient reads arm the SRAM read-port fault stream used by
    ///   [`QuantizedMlp::forward_u8`];
    /// * stuck LFSR taps are rejected — this datapath has no spike
    ///   generators.
    ///
    /// # Errors
    ///
    /// [`ModelError::InvalidFaultPlan`] for rates outside `[0, 1]`,
    /// [`ModelError::FaultUnsupported`] for `StuckLfsrTap`.
    pub fn apply_fault(&mut self, plan: &FaultPlan) -> Result<(), ModelError> {
        plan.validate()?;
        match plan.model {
            FaultModel::StuckAt0 | FaultModel::StuckAt1 => {
                for (salt, layer) in (0u64..).zip(self.layers.iter_mut()) {
                    stuck_bits_i8(layer, &plan.for_site(salt));
                }
                Ok(())
            }
            FaultModel::DeadNeuron => {
                // Hidden layers only: killing output units would change
                // the readout's class set rather than model a defect the
                // readout must survive.
                for l in 1..self.sizes.len() - 1 {
                    let salt = u64::try_from(l).unwrap_or(u64::MAX);
                    let dead = dead_unit_mask(self.sizes[l], &plan.for_site(salt));
                    let fan_in = self.sizes[l];
                    let next = &mut self.layers[l];
                    let fan_out = self.sizes[l + 1];
                    for (unit, &is_dead) in dead.iter().enumerate() {
                        if is_dead {
                            for j in 0..fan_out {
                                next[j * (fan_in + 1) + unit] = 0;
                            }
                        }
                    }
                }
                Ok(())
            }
            FaultModel::TransientRead => {
                self.faults = TransientReads::from_plan(plan);
                Ok(())
            }
            FaultModel::StuckLfsrTap => Err(ModelError::FaultUnsupported {
                model: "MLP+BP (8-bit fixed point)",
                fault: plan.model.name(),
            }),
            // Routing-fabric faults live in the mesh substrate (nc-hw);
            // a single-core datapath has no links or routers to break.
            FaultModel::DeadLink | FaultModel::DeadRouter => Ok(()),
        }
    }
}

/// First-maximum-wins argmax over u8 registers (matches
/// [`crate::network::argmax`] on the quantized grid).
fn argmax_u8(out: &[u8]) -> usize {
    let mut best = 0;
    for (i, &v) in out.iter().enumerate().skip(1) {
        if v > out[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::{TrainConfig, Trainer};
    use nc_dataset::{digits::DigitsSpec, Difficulty};

    #[test]
    fn batched_forward_is_bit_identical_to_serial() {
        let (_, test) = DigitsSpec {
            train: 1,
            test: 23, // not a multiple of the GEMM column tile
            seed: 77,
            difficulty: Difficulty::default(),
        }
        .generate();
        let mlp = Mlp::new(&[784, 31, 10], Activation::sigmoid(), 5).unwrap();
        let mut serial = QuantizedMlp::from_mlp(&mlp);
        let mut batched = QuantizedMlp::from_mlp(&mlp);
        let slab: Vec<u8> = test.iter().flat_map(|s| s.pixels.iter().copied()).collect();
        let batch_out = batched.forward_batch_u8(&slab, test.len()).to_vec();
        for (c, s) in test.iter().enumerate() {
            assert_eq!(
                &batch_out[c * 10..(c + 1) * 10],
                serial.forward_u8(&s.pixels),
                "image {c}"
            );
        }
        let mut preds = Vec::new();
        batched.predict_batch_u8(&slab, test.len(), &mut preds);
        let serial_preds: Vec<usize> = test.iter().map(|s| serial.predict_u8(&s.pixels)).collect();
        assert_eq!(preds, serial_preds);
    }

    #[test]
    fn quantized_weights_round_trip_within_half_step() {
        let mut rng = nc_substrate::rng::SplitMix64::new(0x3105);
        for case in 0..48 {
            let sizes: Vec<usize> = (0..2 + rng.next_below(3))
                .map(|_| 1 + rng.next_below(19) as usize)
                .collect();
            let mlp = Mlp::new(&sizes, Activation::sigmoid(), rng.next_u64()).unwrap();
            let q = QuantizedMlp::from_mlp(&mlp);
            for l in 0..sizes.len() - 1 {
                let scale = 2f64.powi(q.scales[l]);
                let (fan_in, fan_out) = (sizes[l], sizes[l + 1]);
                for (k, qw) in q.layer_weights(l).iter().enumerate() {
                    let (j, i) = (k / (fan_in + 1), k % (fan_in + 1));
                    let fw = mlp.layer_weights(l)[i * fan_out + j];
                    let back = f64::from(*qw) / scale;
                    assert!(
                        (back - fw).abs() <= 0.5 / scale + 1e-12,
                        "case {case}: layer {l}: w={fw} back={back}"
                    );
                }
            }
        }
    }

    #[test]
    fn quantized_outputs_track_float_outputs() {
        let mlp = Mlp::new(&[8, 5, 3], Activation::sigmoid(), 6).unwrap();
        let mut q = QuantizedMlp::from_mlp(&mlp);
        let pixels: Vec<u8> = (0..8).map(|i| (i * 30) as u8).collect();
        let fin: Vec<f64> = pixels.iter().map(|&p| f64::from(p) / 255.0).collect();
        let f_out = mlp.forward(&fin);
        let q_out = q.forward_u8(&pixels);
        for (f, qv) in f_out.iter().zip(q_out) {
            assert!(
                (f - f64::from(*qv) / 255.0).abs() < 0.06,
                "float {f} vs quant {qv}"
            );
        }
    }

    #[test]
    fn quantized_accuracy_is_on_par_with_float() {
        // The §4.2.1 claim at small scale: quantization costs only a
        // little accuracy.
        let (train, test) = DigitsSpec {
            train: 300,
            test: 100,
            seed: 10,
            difficulty: Difficulty::default(),
        }
        .generate();
        let mut mlp = Mlp::new(&[784, 16, 10], Activation::sigmoid(), 2).unwrap();
        Trainer::new(TrainConfig {
            epochs: 10,
            ..TrainConfig::default()
        })
        .fit(&mut mlp, &train);
        let mut q = QuantizedMlp::from_mlp(&mlp);
        let mut float_ok = 0;
        let mut quant_ok = 0;
        for s in test.iter() {
            if mlp.predict(&s.pixels_unit()) == s.label {
                float_ok += 1;
            }
            if q.predict_u8(&s.pixels) == s.label {
                quant_ok += 1;
            }
        }
        let f_acc = f64::from(float_ok) / test.len() as f64;
        let q_acc = f64::from(quant_ok) / test.len() as f64;
        assert!(q_acc >= f_acc - 0.08, "quantized {q_acc} vs float {f_acc}");
    }

    #[test]
    fn all_zero_input_is_handled() {
        let mlp = Mlp::new(&[4, 3, 2], Activation::sigmoid(), 0).unwrap();
        let mut q = QuantizedMlp::from_mlp(&mlp);
        let out = q.forward_u8(&[0; 4]);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn forward_reuses_scratch_without_reallocating() {
        // The documented zero-allocation contract: after warm-up the
        // output slice lives in the same scratch allocation on every
        // presentation (the layer count is even, so the double-buffer
        // swap returns to the same Vec), i.e. the steady state never
        // touches the heap.
        let mlp = Mlp::new(&[32, 16, 8], Activation::sigmoid(), 7).unwrap();
        let mut q = QuantizedMlp::from_mlp(&mlp);
        let warm = q.forward_u8(&[128; 32]).as_ptr();
        for round in 0..16 {
            let out = q.forward_u8(&[round as u8 * 3; 32]);
            assert_eq!(out.as_ptr(), warm, "round {round} moved the buffer");
            assert_eq!(out.len(), 8);
        }
    }

    #[test]
    #[should_panic(expected = "does not match topology")]
    fn rejects_wrong_input_width() {
        let mlp = Mlp::new(&[4, 2], Activation::sigmoid(), 0).unwrap();
        let mut q = QuantizedMlp::from_mlp(&mlp);
        let _ = q.forward_u8(&[0; 3]);
    }

    fn faulty(model: FaultModel, rate: f64) -> FaultPlan {
        FaultPlan::new(model, rate, 42).unwrap()
    }

    #[test]
    fn stuck_bits_corrupt_weights_deterministically() {
        let mlp = Mlp::new(&[10, 6, 3], Activation::sigmoid(), 4).unwrap();
        let mut a = QuantizedMlp::from_mlp(&mlp);
        let mut b = QuantizedMlp::from_mlp(&mlp);
        let plan = faulty(FaultModel::StuckAt1, 0.2);
        a.apply_fault(&plan).unwrap();
        b.apply_fault(&plan).unwrap();
        assert_eq!(a, b);
        assert_ne!(
            a.layer_weights(0),
            QuantizedMlp::from_mlp(&mlp).layer_weights(0)
        );
        // Layers get independent defect patterns: a single-layer slice of
        // the pattern must not repeat across layers of equal length.
        let clean = QuantizedMlp::from_mlp(&mlp);
        let delta0: Vec<u8> = a
            .layer_weights(0)
            .iter()
            .zip(clean.layer_weights(0))
            .map(|(f, c)| (f.to_ne_bytes()[0]) ^ (c.to_ne_bytes()[0]))
            .collect();
        assert!(delta0.iter().any(|&d| d != 0));
    }

    #[test]
    fn full_stuck_at_zero_clears_every_weight() {
        let mlp = Mlp::new(&[6, 4, 2], Activation::sigmoid(), 1).unwrap();
        let mut q = QuantizedMlp::from_mlp(&mlp);
        q.apply_fault(&faulty(FaultModel::StuckAt0, 1.0)).unwrap();
        for l in 0..2 {
            assert!(q.layer_weights(l).iter().all(|&w| w == 0));
        }
    }

    #[test]
    fn dead_neurons_zero_outgoing_columns() {
        let mlp = Mlp::new(&[5, 4, 3], Activation::sigmoid(), 2).unwrap();
        let mut q = QuantizedMlp::from_mlp(&mlp);
        q.apply_fault(&faulty(FaultModel::DeadNeuron, 1.0)).unwrap();
        // Every hidden unit dead => every non-bias weight of layer 1 is 0.
        let fan_in = 4;
        let out = q.layer_weights(1);
        for j in 0..3 {
            for i in 0..fan_in {
                assert_eq!(out[j * (fan_in + 1) + i], 0, "row {j} col {i}");
            }
        }
        // Input-side weights (layer 0) are untouched.
        assert_eq!(
            q.layer_weights(0),
            QuantizedMlp::from_mlp(&mlp).layer_weights(0)
        );
    }

    #[test]
    fn transient_reads_perturb_inference_but_not_storage() {
        let mlp = Mlp::new(&[8, 6, 4], Activation::sigmoid(), 3).unwrap();
        let mut clean = QuantizedMlp::from_mlp(&mlp);
        let mut q = QuantizedMlp::from_mlp(&mlp);
        q.apply_fault(&faulty(FaultModel::TransientRead, 0.5))
            .unwrap();
        for l in 0..2 {
            assert_eq!(q.layer_weights(l), clean.layer_weights(l));
        }
        let input = [200u8; 8];
        let outs: Vec<Vec<u8>> = (0..32).map(|_| q.forward_u8(&input).to_vec()).collect();
        let reference = clean.forward_u8(&input);
        assert!(
            outs.iter().any(|o| o.as_slice() != reference),
            "a 50% read-fault rate must disturb at least one of 32 passes"
        );
    }

    #[test]
    fn zero_rate_faults_are_no_ops() {
        let mlp = Mlp::new(&[6, 5, 3], Activation::sigmoid(), 9).unwrap();
        let mut clean = QuantizedMlp::from_mlp(&mlp);
        for model in [
            FaultModel::StuckAt0,
            FaultModel::StuckAt1,
            FaultModel::DeadNeuron,
            FaultModel::TransientRead,
        ] {
            let mut q = QuantizedMlp::from_mlp(&mlp);
            q.apply_fault(&faulty(model, 0.0)).unwrap();
            let input = [77u8; 6];
            assert_eq!(q.forward_u8(&input), clean.forward_u8(&input), "{model}");
        }
    }

    #[test]
    fn lfsr_faults_are_rejected() {
        let mlp = Mlp::new(&[4, 3, 2], Activation::sigmoid(), 0).unwrap();
        let mut q = QuantizedMlp::from_mlp(&mlp);
        assert!(matches!(
            q.apply_fault(&faulty(FaultModel::StuckLfsrTap, 0.5)),
            Err(ModelError::FaultUnsupported { .. })
        ));
        assert!(matches!(
            q.apply_fault(&FaultPlan {
                model: FaultModel::StuckAt0,
                rate: -1.0,
                seed: 0
            }),
            Err(ModelError::InvalidFaultPlan { .. })
        ));
    }
}
