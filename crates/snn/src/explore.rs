//! Design-space exploration for the SNN: the paper selected its Table 1
//! configuration "out of 1000 evaluated settings" by a fine-grained
//! exploration of #neurons, presentation duration, leak time constant and
//! the rest (§3.1). This module provides that search as a reusable API,
//! plus the synaptic weight-precision study that the related work debates
//! (§6 cites accuracy drops at 5-bit synapses in [Neftci et al.] and
//! finite-resolution losses in [Arthur et al.]).

use crate::network::SnnNetwork;
use crate::params::SnnParams;
use nc_dataset::model::Model;
use nc_dataset::Dataset;
use nc_substrate::rng::SplitMix64;

/// Bounds for the random search, mirroring the "Range" column of
/// Table 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchSpace {
    /// Neuron-count range (Table 1: 10–800).
    pub neurons: (usize, usize),
    /// Leak time constant range in ms (Table 1: 10–800).
    pub t_leak: (f64, f64),
    /// LTP window range in ms (Table 1: 1–50).
    pub t_ltp: (u32, u32),
    /// Inhibition range in ms (Table 1: 1–20).
    pub t_inhibit: (u32, u32),
    /// Refractory range in ms (Table 1: 5–50).
    pub t_refrac: (u32, u32),
    /// Initial-threshold range as multiples of `w_max = 255`.
    pub threshold_wmax: (f64, f64),
}

impl Default for SearchSpace {
    fn default() -> Self {
        SearchSpace {
            neurons: (10, 300),
            t_leak: (10.0, 800.0),
            t_ltp: (1, 50),
            t_inhibit: (1, 20),
            t_refrac: (5, 50),
            threshold_wmax: (70.0, 800.0),
        }
    }
}

/// One evaluated SNN setting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SnnCandidate {
    /// The sampled parameters.
    pub params: SnnParams,
    /// STDP step used.
    pub stdp_delta: i16,
    /// Test accuracy achieved after training + self-labeling.
    pub accuracy: f64,
}

/// Random search over the SNN hyper-parameters with a training budget per
/// candidate. Returns candidates sorted best-first.
///
/// # Panics
///
/// Panics if `budget == 0`.
pub fn random_search(
    train: &Dataset,
    test: &Dataset,
    space: &SearchSpace,
    budget: usize,
    stdp_epochs: usize,
    stdp_delta: i16,
    seed: u64,
) -> Vec<SnnCandidate> {
    assert!(budget > 0, "need a positive budget");
    assert!(
        space.neurons.0 >= 1
            && space.neurons.0 <= space.neurons.1
            && space.t_leak.0 <= space.t_leak.1
            && space.t_ltp.0 <= space.t_ltp.1
            && space.t_inhibit.0 <= space.t_inhibit.1
            && space.t_refrac.0 <= space.t_refrac.1
            && space.threshold_wmax.0 <= space.threshold_wmax.1,
        "search-space bounds must be ordered (lo <= hi) with neurons >= 1"
    );
    let mut rng = SplitMix64::new(seed);
    let mut out = Vec::with_capacity(budget);
    for _ in 0..budget {
        let neurons = space.neurons.0 + rng.next_index(space.neurons.1 - space.neurons.0 + 1);
        let mut params = SnnParams::for_neurons(neurons);
        params.t_leak = rng.next_range(space.t_leak.0, space.t_leak.1);
        params.t_ltp = space.t_ltp.0 + rng.next_below_u32(space.t_ltp.1 - space.t_ltp.0 + 1);
        params.t_inhibit =
            space.t_inhibit.0 + rng.next_below_u32(space.t_inhibit.1 - space.t_inhibit.0 + 1);
        params.t_refrac =
            space.t_refrac.0 + rng.next_below_u32(space.t_refrac.1 - space.t_refrac.0 + 1);
        params.initial_threshold =
            255.0 * rng.next_range(space.threshold_wmax.0, space.threshold_wmax.1);
        params.homeo_rate = 0.10;
        let mut snn = SnnNetwork::new(
            train.input_dim(),
            train.num_classes(),
            params,
            rng.next_u64(),
        );
        snn.set_stdp_delta(stdp_delta);
        snn.train_stdp(train, stdp_epochs);
        snn.self_label(train);
        out.push(SnnCandidate {
            params,
            stdp_delta,
            accuracy: snn.evaluate(test).accuracy(),
        });
    }
    out.sort_by(|a, b| b.accuracy.total_cmp(&a.accuracy));
    out
}

/// One point of the synaptic-precision sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SnnPrecisionPoint {
    /// Synaptic weight bit width (8 = the paper's baseline).
    pub bits: u32,
    /// Test accuracy with weights truncated to that width.
    pub accuracy: f64,
}

/// Truncates a trained network's weights to `bits` and re-evaluates —
/// the memristive-device-resolution question of the related work. The
/// truncation keeps the top `bits` of each 8-bit weight (the hardware
/// would simply narrow the SRAM word).
///
/// # Panics
///
/// Panics if any width is not in `1..=8`.
pub fn precision_sweep(
    snn: &SnnNetwork,
    train: &Dataset,
    test: &Dataset,
    bit_widths: &[u32],
) -> Vec<SnnPrecisionPoint> {
    bit_widths
        .iter()
        .map(|&bits| {
            assert!((1..=8).contains(&bits), "weight bits must be in 1..=8");
            let mut truncated = snn.clone();
            truncated.quantize_weights(bits);
            truncated.self_label(train);
            SnnPrecisionPoint {
                bits,
                accuracy: truncated.evaluate(test).accuracy(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nc_dataset::{digits::DigitsSpec, Difficulty};

    fn task() -> (Dataset, Dataset) {
        DigitsSpec {
            train: 150,
            test: 60,
            seed: 77,
            difficulty: Difficulty::default(),
        }
        .generate()
    }

    #[test]
    fn search_samples_within_the_space() {
        let (train, test) = task();
        let space = SearchSpace {
            neurons: (5, 15),
            ..SearchSpace::default()
        };
        let results = random_search(&train, &test, &space, 3, 1, 8, 5);
        assert_eq!(results.len(), 3);
        for c in &results {
            assert!((5..=15).contains(&c.params.neurons));
            assert!(c.params.t_leak >= 10.0 && c.params.t_leak <= 800.0);
            assert!(c.params.t_ltp >= 1 && c.params.t_ltp <= 50);
        }
        assert!(results.windows(2).all(|w| w[0].accuracy >= w[1].accuracy));
    }

    #[test]
    fn search_is_deterministic() {
        let (train, test) = task();
        let space = SearchSpace {
            neurons: (5, 10),
            ..SearchSpace::default()
        };
        let a = random_search(&train, &test, &space, 2, 1, 8, 5);
        let b = random_search(&train, &test, &space, 2, 1, 8, 5);
        assert_eq!(a, b);
    }

    #[test]
    fn precision_sweep_is_monotonic_at_the_extremes() {
        let (train, test) = task();
        let mut snn = SnnNetwork::new(784, 10, SnnParams::tuned(15), 3);
        snn.set_stdp_delta(8);
        snn.train_stdp(&train, 2);
        snn.self_label(&train);
        let pts = precision_sweep(&snn, &train, &test, &[1, 4, 8]);
        assert_eq!(pts.len(), 3);
        let acc8 = pts.iter().find(|p| p.bits == 8).unwrap().accuracy;
        let acc1 = pts.iter().find(|p| p.bits == 1).unwrap().accuracy;
        assert!(
            acc8 >= acc1 - 0.05,
            "8-bit ({acc8}) should not lose to 1-bit ({acc1})"
        );
    }

    #[test]
    #[should_panic(expected = "weight bits must be in 1..=8")]
    fn precision_sweep_rejects_bad_width() {
        let (train, test) = task();
        let snn = SnnNetwork::new(784, 10, SnnParams::tuned(5), 3);
        let _ = precision_sweep(&snn, &train, &test, &[0]);
    }
}
