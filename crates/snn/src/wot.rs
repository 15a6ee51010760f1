//! SNNwot — "SNN without time" (paper §4.2.2).
//!
//! The simplified hardware variant removes all spike-timing information
//! from the feed-forward path: "each pixel is converted into a set of
//! spikes … except only the number of spikes is obtained, not the time
//! between spikes; similarly, the role of the leak is ignored." The
//! potential of neuron `j` is then `Σ_i N_i · w_ji` with `N_i ≤ 10` a
//! 4-bit spike count, and the winner is the neuron with the highest
//! potential ("the neuron potential is highly correlated to the number of
//! output spikes").
//!
//! Weights and labels come from a *temporally trained* [`SnnNetwork`]
//! (training still uses the full STDP dynamics; only inference drops
//! timing), which is how the paper obtains SNNwot's 90.85% vs SNNwt's
//! 91.82% — a ~1% accuracy cost for a large speed/energy win.
//!
//! **Threshold equalization.** The max-potential readout is only
//! equivalent to the spiking WTA when all neurons share one firing
//! threshold; homeostasis deliberately gives each neuron its own. At
//! deployment we therefore fold the per-neuron threshold into the
//! weights — `w'_ji = round(w_ji · θ_min / θ_j)` — so the plain max
//! tree of Figure 7 remains correct with zero extra hardware. (At the
//! paper's 60 000-presentation training volume the homeostatic
//! thresholds converge close together and the correction is small; at
//! our scaled-down volume it matters, see `EXPERIMENTS.md`.)

use crate::network::SnnNetwork;
use crate::params::SnnParams;
use nc_dataset::model::ModelError;
use nc_faults::{dead_unit_mask, stuck_bits_u8, FaultModel, FaultPlan, TransientReads};
use nc_substrate::fixed::sat_u8_round;
use nc_substrate::kernel::swar_spike_counts;

/// Recipe for (re)building and training the temporal master network a
/// [`WotSnn`] is extracted from, stored by [`WotSnn::untrained`] so the
/// unified `Model` interface can drive the train-then-simplify pipeline
/// as one self-contained job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WotMasterSpec {
    /// Input count of the master network.
    pub inputs: usize,
    /// Number of classes.
    pub classes: usize,
    /// LIF/STDP hyper-parameters (including the neuron count).
    pub params: SnnParams,
    /// Master initialization seed.
    pub seed: u64,
}

/// The timing-free SNN inference engine.
///
/// # Examples
///
/// ```
/// use nc_snn::{SnnNetwork, SnnParams, WotSnn};
///
/// let snn = SnnNetwork::new(16, 4, SnnParams::for_neurons(8), 3);
/// let wot = WotSnn::from_network(&snn);
/// let potentials = wot.potentials(&[128u8; 16]);
/// assert_eq!(potentials.len(), 8);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WotSnn {
    inputs: usize,
    neurons: usize,
    classes: usize,
    /// 8-bit weights, row-major `[neuron][input]` (shared with training).
    weights: Vec<u8>,
    /// Labels inherited from the trained network's self-labeling.
    labels: Vec<Option<usize>>,
    /// Master recipe when built with [`WotSnn::untrained`]; `None` for
    /// deployment artifacts extracted with [`WotSnn::from_network`].
    master: Option<WotMasterSpec>,
    /// Transient SRAM read faults on the weight array (disabled unless a
    /// `TransientRead` plan was injected). Stored weights stay pristine.
    faults: TransientReads,
}

impl WotSnn {
    /// Extracts the timing-free inference engine from a trained network:
    /// weights are threshold-equalized (see the module docs), labels are
    /// copied, and the LIF state is discarded.
    pub fn from_network(snn: &SnnNetwork) -> Self {
        let neurons = snn.params().neurons;
        let inputs = snn.inputs();
        let theta_min = snn
            .thresholds()
            .iter()
            .copied()
            // nc-lint: allow(R1, reason = "one-time threshold equalization at extraction time; deployed inference is integer-only")
            .fold(f64::INFINITY, f64::min)
            // nc-lint: allow(R1, reason = "one-time threshold equalization at extraction time; deployed inference is integer-only")
            .max(1.0);
        let mut weights = Vec::with_capacity(neurons * inputs);
        for j in 0..neurons {
            // nc-lint: allow(R1, reason = "one-time threshold equalization at extraction time; deployed inference is integer-only")
            let ratio = theta_min / snn.thresholds()[j].max(1.0);
            for i in 0..inputs {
                // nc-lint: allow(R1, reason = "one-time threshold equalization at extraction time; deployed inference is integer-only")
                let w = f64::from(snn.weight(j, i)) * ratio;
                weights.push(sat_u8_round(w));
            }
        }
        WotSnn {
            inputs,
            neurons,
            classes: snn
                .labels()
                .iter()
                .flatten()
                .copied()
                .max()
                .map_or(1, |m| m + 1)
                .max(1),
            weights,
            labels: snn.labels().to_vec(),
            master: None,
            faults: TransientReads::disabled(),
        }
    }

    /// Applies a hardware fault plan to the deployed weight SRAM (see
    /// DESIGN.md "Fault model"). Stuck-at faults corrupt the stored
    /// 8-bit words once; dead neurons zero whole rows (a dead unit can
    /// never win the max tree); transient reads perturb every weight
    /// fetch inside [`WotSnn::potentials`]. The timing-free path has no
    /// spike-interval generators, so `StuckLfsrTap` is rejected.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidFaultPlan`] for an out-of-range rate
    /// and [`ModelError::FaultUnsupported`] for `StuckLfsrTap`.
    pub fn apply_fault(&mut self, plan: &FaultPlan) -> Result<(), ModelError> {
        plan.validate()?;
        match plan.model {
            FaultModel::StuckAt0 | FaultModel::StuckAt1 => {
                stuck_bits_u8(&mut self.weights, plan);
                Ok(())
            }
            FaultModel::DeadNeuron => {
                let dead = dead_unit_mask(self.neurons, plan);
                for (j, &is_dead) in dead.iter().enumerate() {
                    if is_dead {
                        for w in &mut self.weights[j * self.inputs..(j + 1) * self.inputs] {
                            *w = 0;
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
                model: "SNN+STDP - Simplified (SNNwot)",
                fault: plan.model.name(),
            }),
            // Routing-fabric faults live in the mesh substrate (nc-hw);
            // a single-core engine has no links or routers to break.
            FaultModel::DeadLink | FaultModel::DeadRouter => Ok(()),
        }
    }

    /// Builds an *untrained* SNNwot that can later be trained through
    /// the unified `Model` interface: `fit` initializes a temporal
    /// master [`SnnNetwork`] from the spec, trains it with STDP, and
    /// extracts the timing-free engine — the same train-then-simplify
    /// pipeline the paper uses (§4.2.2), packaged so experiment drivers
    /// can schedule this variant as an independent job.
    pub fn untrained(inputs: usize, classes: usize, params: SnnParams, seed: u64) -> Self {
        let master = SnnNetwork::new(inputs, classes, params, seed);
        let mut wot = Self::from_network(&master);
        wot.master = Some(WotMasterSpec {
            inputs,
            classes,
            params,
            seed,
        });
        wot
    }

    /// The master recipe, if this engine was built with
    /// [`WotSnn::untrained`].
    pub fn master_spec(&self) -> Option<WotMasterSpec> {
        self.master
    }

    /// Replaces this engine by re-extracting from a newly trained
    /// master, preserving the stored master spec.
    pub fn redeploy_from(&mut self, master: &SnnNetwork) {
        let spec = self.master;
        *self = WotSnn::from_network(master);
        self.master = spec;
    }

    /// The deployed (threshold-equalized) 8-bit weights, row-major
    /// `[neuron][input]` — what the accelerator's SRAM actually holds.
    pub fn weights(&self) -> &[u8] {
        &self.weights
    }

    /// Number of inputs.
    pub fn inputs(&self) -> usize {
        self.inputs
    }

    /// Number of neurons.
    pub fn neurons(&self) -> usize {
        self.neurons
    }

    /// The 12-bit potentials `Σ N_i·w_ji` (max `784·10·255` fits in the
    /// wide accumulator; per-product terms fit 12 bits as the paper
    /// states: "SNNwot uses 12-bit weights (8-bit weights × number of
    /// spikes)").
    ///
    /// # Panics
    ///
    /// Panics if `pixels.len()` does not match the input count.
    pub fn potentials(&self, pixels: &[u8]) -> Vec<u64> {
        assert_eq!(pixels.len(), self.inputs, "pixel count mismatch");
        // The comparator ladder runs through the SWAR kernel — eight
        // pixels per word step, exactly the [`wot_spike_count`]
        // staircase (its ceiling of 10 is well inside the kernel's
        // exactness bound of 16 spikes per pixel).
        let mut counts = vec![0u8; pixels.len()];
        swar_spike_counts(pixels, 10, &mut counts);
        (0..self.neurons)
            .map(|j| {
                let row = &self.weights[j * self.inputs..(j + 1) * self.inputs];
                if self.faults.is_active() {
                    row.iter()
                        .zip(&counts)
                        .map(|(&w, &n)| u64::from(self.faults.read_u8(w)) * u64::from(n))
                        .sum()
                } else {
                    row.iter()
                        .zip(&counts)
                        .map(|(&w, &n)| u64::from(w) * u64::from(n))
                        .sum()
                }
            })
            .collect()
    }

    /// The winning neuron: highest potential (first on ties, like the
    /// hardware max tree which keeps the lowest index).
    ///
    /// # Panics
    ///
    /// Panics if `pixels.len()` does not match the input count.
    pub fn winner(&self, pixels: &[u8]) -> usize {
        let pots = self.potentials(pixels);
        let mut best = 0;
        for (j, &v) in pots.iter().enumerate().skip(1) {
            if v > pots[best] {
                best = j;
            }
        }
        best
    }

    /// Predicted class: the winner's label (class 0 for unlabeled
    /// neurons, counted as an error in evaluation unless the true class
    /// is 0).
    ///
    /// # Panics
    ///
    /// Panics if `pixels.len()` does not match the input count.
    pub fn predict(&self, pixels: &[u8]) -> usize {
        self.labels[self.winner(pixels)].unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coding::wot_spike_count;
    use crate::params::SnnParams;
    use nc_dataset::{digits::DigitsSpec, Difficulty};

    #[test]
    fn potential_is_count_weight_dot_product() {
        let snn = SnnNetwork::new(3, 2, SnnParams::for_neurons(2), 1);
        let wot = WotSnn::from_network(&snn);
        let pixels = [255u8, 128, 0];
        let pots = wot.potentials(&pixels);
        for (j, &pot) in pots.iter().enumerate() {
            let expected: u64 = (0..3)
                .map(|i| u64::from(snn.weight(j, i)) * u64::from(wot_spike_count(pixels[i])))
                .sum();
            assert_eq!(pot, expected);
        }
    }

    #[test]
    fn dark_image_has_zero_potential_everywhere() {
        let snn = SnnNetwork::new(5, 2, SnnParams::for_neurons(3), 1);
        let wot = WotSnn::from_network(&snn);
        assert!(wot.potentials(&[0u8; 5]).iter().all(|&v| v == 0));
    }

    #[test]
    fn winner_takes_first_max_on_ties() {
        let snn = SnnNetwork::new(2, 2, SnnParams::for_neurons(2), 1);
        let mut wot = WotSnn::from_network(&snn);
        // Force identical rows → tie → neuron 0 wins.
        wot.weights = vec![10, 20, 10, 20];
        assert_eq!(wot.winner(&[255, 255]), 0);
    }

    #[test]
    fn wot_agrees_with_temporal_snn_often() {
        // §4.2.2: the accuracy difference between SNNwt and SNNwot is
        // ~1%. At unit-test scale we check the two readouts agree on a
        // majority of inputs after a little training.
        let (train, test) = DigitsSpec {
            train: 60,
            test: 20,
            seed: 12,
            difficulty: Difficulty::default(),
        }
        .generate();
        let mut snn = SnnNetwork::new(784, 10, SnnParams::for_neurons(10), 3);
        snn.set_stdp_delta(8);
        snn.train_stdp(&train, 1);
        snn.self_label(&train);
        let wot = WotSnn::from_network(&snn);
        let mut agree = 0;
        for (i, s) in test.iter().enumerate() {
            let temporal = snn.predict(&s.pixels, 0xA6EE_0000 | i as u64);
            if temporal == wot.predict(&s.pixels) {
                agree += 1;
            }
        }
        assert!(agree * 2 >= test.len(), "agreement {agree}/{}", test.len());
    }

    #[test]
    #[should_panic(expected = "pixel count mismatch")]
    fn rejects_wrong_width() {
        let snn = SnnNetwork::new(4, 2, SnnParams::for_neurons(2), 1);
        let wot = WotSnn::from_network(&snn);
        let _ = wot.potentials(&[0u8; 3]);
    }
}
