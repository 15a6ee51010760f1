//! Design-space exploration for the MLP: the hyper-parameter and
//! precision searches behind §3.1 ("We selected 100 hidden neurons after
//! exploring the number of hidden neurons from 10 to 1000 (and
//! simultaneously exploring the hyper-parameters, such as the learning
//! rate)") and §4.2.3 (operator/weight bit-width exploration).

use crate::quant::QuantizedMlp;
use crate::trainer::{TrainConfig, Trainer};
use crate::{Activation, Mlp};
use nc_dataset::model::Model;
use nc_dataset::Dataset;
use nc_substrate::rng::SplitMix64;

/// One evaluated hyper-parameter setting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MlpCandidate {
    /// Hidden-layer width.
    pub hidden: usize,
    /// Learning rate η.
    pub learning_rate: f64,
    /// Test accuracy achieved.
    pub accuracy: f64,
}

/// Random search over hidden width × learning rate, the §3.1 protocol.
/// Returns all evaluated candidates sorted best-first.
///
/// # Panics
///
/// Panics if `budget == 0` or the width range is empty/ inverted.
pub fn random_search(
    train: &Dataset,
    test: &Dataset,
    hidden_range: (usize, usize),
    budget: usize,
    epochs: usize,
    seed: u64,
) -> Vec<MlpCandidate> {
    assert!(budget > 0, "need a positive budget");
    assert!(
        hidden_range.0 >= 1 && hidden_range.0 <= hidden_range.1,
        "bad hidden range"
    );
    let mut rng = SplitMix64::new(seed);
    let mut results = Vec::with_capacity(budget);
    for _ in 0..budget {
        let hidden = hidden_range.0 + rng.next_index(hidden_range.1 - hidden_range.0 + 1);
        // Log-uniform learning rate in [0.05, 1.0] (Table 1: 0.1–1).
        let learning_rate = 0.05 * (20.0f64).powf(rng.next_unit());
        let mut mlp = Mlp::new(
            &[train.input_dim(), hidden, train.num_classes()],
            Activation::sigmoid(),
            rng.next_u64(),
        )
        // nc-lint: allow(R5, reason = "topology is sampled from bounded nonzero ranges")
        .expect("valid topology");
        Trainer::new(TrainConfig {
            epochs,
            learning_rate,
            ..TrainConfig::default()
        })
        .fit(&mut mlp, train);
        results.push(MlpCandidate {
            hidden,
            learning_rate,
            accuracy: mlp.evaluate(test).accuracy(),
        });
    }
    results.sort_by(|a, b| b.accuracy.total_cmp(&a.accuracy));
    results
}

/// One point of the weight-precision sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrecisionPoint {
    /// Weight bit width.
    pub bits: u32,
    /// Quantized test accuracy.
    pub accuracy: f64,
}

/// The §4.2.3 precision study: quantize a trained network at each bit
/// width and measure the accuracy. The paper found 8 bits "on par" with
/// floating point; the sweep exposes where the knee actually is.
pub fn precision_sweep(mlp: &Mlp, test: &Dataset, bit_widths: &[u32]) -> Vec<PrecisionPoint> {
    bit_widths
        .iter()
        .map(|&bits| {
            let mut q = QuantizedMlp::from_mlp_with_bits(mlp, bits);
            PrecisionPoint {
                bits,
                accuracy: q.evaluate(test).accuracy(),
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
            train: 250,
            test: 80,
            seed: 31,
            difficulty: Difficulty::default(),
        }
        .generate()
    }

    #[test]
    fn random_search_returns_sorted_candidates() {
        let (train, test) = task();
        let results = random_search(&train, &test, (4, 24), 4, 5, 9);
        assert_eq!(results.len(), 4);
        assert!(results.windows(2).all(|w| w[0].accuracy >= w[1].accuracy));
        assert!(results.iter().all(|c| (4..=24).contains(&c.hidden)));
        assert!(results
            .iter()
            .all(|c| c.learning_rate >= 0.05 && c.learning_rate <= 1.0));
    }

    #[test]
    fn search_is_deterministic() {
        let (train, test) = task();
        let a = random_search(&train, &test, (4, 16), 3, 4, 9);
        let b = random_search(&train, &test, (4, 16), 3, 4, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn precision_sweep_degrades_gracefully() {
        let (train, test) = task();
        let mut mlp = Mlp::new(&[784, 16, 10], Activation::sigmoid(), 4).unwrap();
        Trainer::new(TrainConfig {
            epochs: 10,
            ..TrainConfig::default()
        })
        .fit(&mut mlp, &train);
        let pts = precision_sweep(&mlp, &test, &[2, 4, 6, 8]);
        assert_eq!(pts.len(), 4);
        // 8-bit should be at least as accurate as 2-bit (paper: 8 bits
        // is "on par" with float, very low precision is not).
        let acc8 = pts.iter().find(|p| p.bits == 8).unwrap().accuracy;
        let acc2 = pts.iter().find(|p| p.bits == 2).unwrap().accuracy;
        assert!(acc8 >= acc2, "8-bit {acc8} vs 2-bit {acc2}");
        // And 8-bit must be close to float.
        let float_acc = mlp.evaluate(&test).accuracy();
        assert!(
            acc8 >= float_acc - 0.08,
            "8-bit {acc8} vs float {float_acc}"
        );
    }

    #[test]
    #[should_panic(expected = "positive budget")]
    fn zero_budget_rejected() {
        let (train, test) = task();
        let _ = random_search(&train, &test, (4, 8), 0, 1, 0);
    }
}
