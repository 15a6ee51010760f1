//! Shared evaluation helpers producing confusion matrices, so every model
//! in the comparison is scored identically (paper §3: "the full 10,000
//! testing images").

use crate::network::{ForwardScratch, Mlp};
use crate::quant::QuantizedMlp;
use nc_dataset::Dataset;
use nc_substrate::stats::Confusion;

/// Evaluates a floating-point MLP on a dataset.
///
/// # Panics
///
/// Panics if the dataset geometry does not match the network.
///
/// # Examples
///
/// ```
/// use nc_dataset::{digits::DigitsSpec, Difficulty};
/// use nc_mlp::{Activation, Mlp, metrics};
///
/// let (_, test) = DigitsSpec { train: 0, test: 20, seed: 1,
///     difficulty: Difficulty::default() }.generate();
/// let mlp = Mlp::new(&[784, 8, 10], Activation::sigmoid(), 0).unwrap();
/// let confusion = metrics::evaluate(&mlp, &test);
/// assert_eq!(confusion.total(), 20);
/// ```
pub fn evaluate(mlp: &Mlp, data: &Dataset) -> Confusion {
    assert_eq!(data.input_dim(), mlp.sizes()[0], "geometry mismatch");
    let mut confusion = Confusion::new(data.num_classes());
    let mut scratch = ForwardScratch::default();
    for s in data.iter() {
        confusion.record(s.label, mlp.predict_pixels(&s.pixels, &mut scratch));
    }
    confusion
}

/// Evaluates the quantized (hardware-datapath) MLP on a dataset. The
/// network is `&mut` because inference reuses its scratch buffers (the
/// zero-allocation steady state); stored weights are untouched.
///
/// # Panics
///
/// Panics if the dataset geometry does not match the network.
pub fn evaluate_quantized(q: &mut QuantizedMlp, data: &Dataset) -> Confusion {
    assert_eq!(data.input_dim(), q.sizes()[0], "geometry mismatch");
    let mut confusion = Confusion::new(data.num_classes());
    for s in data.iter() {
        confusion.record(s.label, q.predict_u8(&s.pixels));
    }
    confusion
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use crate::trainer::{TrainConfig, Trainer};
    use nc_dataset::{digits::DigitsSpec, Difficulty};

    #[test]
    fn trained_network_beats_chance_on_digits() {
        let (train, test) = DigitsSpec {
            train: 400,
            test: 100,
            seed: 2,
            difficulty: Difficulty::default(),
        }
        .generate();
        let mut mlp = Mlp::new(&[784, 16, 10], Activation::sigmoid(), 3).unwrap();
        Trainer::new(TrainConfig {
            epochs: 8,
            ..TrainConfig::default()
        })
        .fit(&mut mlp, &train);
        let acc = evaluate(&mlp, &test).accuracy();
        assert!(acc > 0.5, "accuracy {acc}");
    }

    #[test]
    fn quantized_evaluation_counts_everything() {
        let (_, test) = DigitsSpec {
            train: 0,
            test: 30,
            seed: 2,
            difficulty: Difficulty::default(),
        }
        .generate();
        let mlp = Mlp::new(&[784, 8, 10], Activation::sigmoid(), 3).unwrap();
        let mut q = QuantizedMlp::from_mlp(&mlp);
        assert_eq!(evaluate_quantized(&mut q, &test).total(), 30);
    }

    #[test]
    #[should_panic(expected = "geometry mismatch")]
    fn rejects_mismatched_geometry() {
        let (_, test) = DigitsSpec {
            train: 0,
            test: 5,
            seed: 2,
            difficulty: Difficulty::default(),
        }
        .generate();
        let mlp = Mlp::new(&[100, 8, 10], Activation::sigmoid(), 3).unwrap();
        let _ = evaluate(&mlp, &test);
    }
}
