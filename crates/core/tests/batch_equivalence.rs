//! Cross-family regression: for every model the experiment engine
//! schedules, the batched evaluation path (`evaluate_batch` over a
//! contiguous [`RequestSlab`] view, and `evaluate`, which scores through
//! it) must be bit-identical to the serial `predict` loop it replaced —
//! same confusion matrix, same per-image predictions, same seeds. The batched paths are allowed to reorder
//! arithmetic only where the result is provably bit-equal (integer
//! GEMM tiles, the SNN winner path that stops at the first fire), so any drift here is a
//! correctness bug, not a tolerance issue.

use nc_core::StepDeployedMlp;
use nc_dataset::model::{FitBudget, Model, EVAL_PRESENTATION_SEED_BASE};
use nc_dataset::{digits::DigitsSpec, Dataset, Difficulty, RequestSlab};
use nc_mlp::{Activation, Mlp, QuantizedMlp};
use nc_snn::bp_hybrid::BpSnn;
use nc_snn::{SnnNetwork, SnnParams, WotSnn};
use nc_substrate::stats::Confusion;

fn data() -> (Dataset, Dataset) {
    DigitsSpec {
        train: 60,
        test: 35,
        seed: 17,
        difficulty: Difficulty::default(),
    }
    .generate()
}

fn budget() -> FitBudget {
    FitBudget {
        epochs: 2,
        stdp_epochs: 1,
        stdp_delta: 8,
        learning_rate: None,
    }
}

/// All six model families behind the unified trait, freshly fitted.
fn fitted_models(train: &Dataset) -> Vec<Box<dyn Model>> {
    let mut models: Vec<Box<dyn Model>> = vec![
        Box::new(Mlp::new(&[784, 12, 10], Activation::sigmoid(), 3).unwrap()),
        Box::new(QuantizedMlp::untrained(&[784, 12, 10], Activation::sigmoid(), 3).unwrap()),
        Box::new(SnnNetwork::new(784, 10, SnnParams::for_neurons(10), 3)),
        Box::new(WotSnn::untrained(784, 10, SnnParams::for_neurons(10), 3)),
        Box::new(BpSnn::new(784, 10, SnnParams::for_neurons(10), 3)),
        Box::new(StepDeployedMlp::new(&[784, 12, 10], 4.0, 3).unwrap()),
    ];
    for model in &mut models {
        model.fit(train, &budget()).unwrap();
    }
    models
}

#[test]
fn batched_evaluation_matches_the_serial_predict_loop() {
    let (train, test) = data();
    let slab = RequestSlab::from_dataset(&test);
    for model in &mut fitted_models(&train) {
        // The serial reference: exactly the pre-batch evaluate loop.
        let mut serial = Vec::with_capacity(test.len());
        for (i, s) in test.iter().enumerate() {
            serial.push(model.predict(&s.pixels, EVAL_PRESENTATION_SEED_BASE | i as u64));
        }

        let mut batched = Vec::new();
        model.predict_batch(&slab.batch(), &mut batched);
        assert_eq!(batched, serial, "{} predict_batch drifted", model.name());

        let mut expected = Confusion::new(test.num_classes());
        for (s, &p) in test.iter().zip(&serial) {
            expected.record(s.label, p);
        }
        let confusion = model.evaluate_batch(&slab.batch());
        assert_eq!(
            confusion,
            expected,
            "{} evaluate_batch drifted",
            model.name()
        );
        assert_eq!(
            model.evaluate(&test),
            expected,
            "{} evaluate drifted",
            model.name()
        );
    }
}

#[test]
fn tiled_batches_preserve_per_item_seeds() {
    // Splitting the slab into tiles must not change any prediction: the
    // per-item presentation seed rides with the item, not the tile.
    let (train, test) = data();
    let slab = RequestSlab::from_dataset(&test);
    for model in &mut fitted_models(&train) {
        let mut whole = Vec::new();
        model.predict_batch(&slab.batch(), &mut whole);
        let mut tiled = Vec::new();
        for tile in slab.batch().tiles(7) {
            let mut part = Vec::new();
            model.predict_batch(&tile, &mut part);
            tiled.extend(part);
        }
        assert_eq!(tiled, whole, "{} is tile-size sensitive", model.name());
    }
}
