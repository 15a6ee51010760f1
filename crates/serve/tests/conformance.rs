//! Serving conformance: served predictions are **bit-equal** to offline
//! `evaluate_batch` for every model family, regardless of request
//! arrival order, batch-window size, or engine thread count.
//!
//! The offline side is computed independently (spec → build → fit →
//! `predict_batch` over `RequestSlab::from_dataset`), not through the
//! serving stack, so the test proves the serving path reproduces the
//! canonical evaluation — the coalescer may regroup items arbitrarily,
//! but every item keeps its `EVAL_PRESENTATION_SEED_BASE | i` seed.

use nc_core::{Engine, ExperimentScale, FitBudget, ModelSpec};
use nc_dataset::{digits::DigitsSpec, Dataset, Difficulty, RequestSlab};
use nc_mlp::Activation;
use nc_serve::{ModelSnapshot, ResilienceConfig, ServeConfig, Server};
use nc_snn::SnnParams;
use nc_substrate::rng::SplitMix64;
use std::sync::Arc;

fn data() -> (Dataset, Dataset) {
    DigitsSpec {
        train: 60,
        test: 24,
        seed: 42,
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

/// All five families of the paper's comparison, at test-sized
/// topologies.
fn family_specs() -> Vec<(&'static str, ModelSpec)> {
    vec![
        (
            "mlp",
            ModelSpec::Mlp {
                sizes: vec![784, 8, 10],
                activation: Activation::sigmoid(),
                seed: 21,
            },
        ),
        (
            "qmlp",
            ModelSpec::QuantizedMlp {
                sizes: vec![784, 8, 10],
                activation: Activation::sigmoid(),
                seed: 22,
            },
        ),
        (
            "snn",
            ModelSpec::Snn {
                inputs: 784,
                classes: 10,
                params: SnnParams::for_neurons(10),
                seed: 23,
            },
        ),
        (
            "wot",
            ModelSpec::Wot {
                inputs: 784,
                classes: 10,
                params: SnnParams::for_neurons(10),
                seed: 24,
            },
        ),
        (
            "bpsnn",
            ModelSpec::BpSnn {
                inputs: 784,
                classes: 10,
                params: SnnParams::for_neurons(10),
                seed: 25,
            },
        ),
    ]
}

/// The canonical offline predictions: independent build + fit +
/// positional batch, no serving machinery involved.
fn offline_predictions(spec: &ModelSpec, train: &Dataset, test: &Dataset) -> Vec<usize> {
    let mut model = spec.build().unwrap();
    model.fit(train, &budget()).unwrap();
    let slab = RequestSlab::from_dataset(test);
    let mut out = Vec::new();
    model.predict_batch(&slab.batch(), &mut out);
    out
}

#[test]
fn served_predictions_bit_equal_offline_for_all_families() {
    let (train, test) = data();
    let train = Arc::new(train);
    let specs = family_specs();

    let offline: Vec<Vec<usize>> = specs
        .iter()
        .map(|(_, spec)| offline_predictions(spec, &train, &test))
        .collect();

    // Snapshots are shared across every (window, threads, order) combo;
    // replica pools regrow as servers come and go.
    let snapshots: Vec<Arc<ModelSnapshot>> = specs
        .iter()
        .map(|(name, spec)| {
            Arc::new(
                ModelSnapshot::prepare(*name, spec.clone(), budget(), Arc::clone(&train), None)
                    .unwrap(),
            )
        })
        .collect();

    // Every (model, item) pair once — 5 families × 24 items.
    let base_requests: Vec<(usize, usize)> = (0..specs.len())
        .flat_map(|m| (0..test.len()).map(move |i| (m, i)))
        .collect();

    for (combo, &(window, threads)) in [(1usize, 1usize), (3, 4), (8, 1), (8, 4), (24, 4)]
        .iter()
        .enumerate()
    {
        // A fresh seeded shuffle per combo: arrival order must not
        // matter.
        let mut order = base_requests.clone();
        let mut rng = SplitMix64::new(0xC04F + u64::try_from(combo).unwrap());
        for i in (1..order.len()).rev() {
            order.swap(i, rng.next_index(i + 1));
        }

        let engine = Arc::new(
            Engine::builder()
                .threads(threads)
                .scale(ExperimentScale::Tiny)
                .build(),
        );
        // The queue holds exactly one combo's requests, so a full
        // second round is admitted only if every answer released its
        // in-flight slot.
        let config = ServeConfig {
            batch_window: window,
            resilience: ResilienceConfig {
                queue_limit: Some(order.len()),
                ..ResilienceConfig::default()
            },
            ..ServeConfig::default()
        };
        let server = Server::new(engine, config, snapshots.clone()).unwrap();

        let tickets: Vec<_> = order
            .iter()
            .map(|&(m, i)| {
                let ticket = server
                    .submit(
                        specs[m].0,
                        &test.samples()[i].pixels,
                        u64::try_from(i).unwrap(),
                    )
                    .unwrap();
                (ticket, m, i)
            })
            .collect();
        assert_eq!(server.run_until_idle(), tickets.len());

        for (ticket, m, i) in tickets {
            let response = server.take_response(ticket).unwrap();
            assert_eq!(response.item, u64::try_from(i).unwrap());
            assert_eq!(
                response.outcome.clone().unwrap(),
                offline[m][i],
                "family {} item {i} at window {window} threads {threads}",
                specs[m].0,
            );
        }
        for &(m, i) in &order {
            server
                .submit(specs[m].0, &test.samples()[i].pixels, 0)
                .expect("every answered request left the queue");
        }
    }
}

#[test]
fn served_confusion_matches_offline_evaluate_batch() {
    // The aggregate view of the same contract: accuracy computed from
    // served predictions equals offline `evaluate_batch` accuracy.
    let (train, test) = data();
    let train = Arc::new(train);
    let (name, spec) = ("qmlp", family_specs().swap_remove(1).1);

    let mut model = spec.build().unwrap();
    model.fit(&train, &budget()).unwrap();
    let offline_confusion = model.evaluate_batch(&RequestSlab::from_dataset(&test).batch());

    let snapshot =
        Arc::new(ModelSnapshot::prepare(name, spec, budget(), Arc::clone(&train), None).unwrap());
    let engine = Arc::new(
        Engine::builder()
            .threads(2)
            .scale(ExperimentScale::Tiny)
            .build(),
    );
    let server = Server::new(
        engine,
        ServeConfig {
            batch_window: 5,
            ..ServeConfig::default()
        },
        vec![snapshot],
    )
    .unwrap();

    let tickets: Vec<_> = (0..test.len())
        .map(|i| {
            server
                .submit(name, &test.samples()[i].pixels, u64::try_from(i).unwrap())
                .unwrap()
        })
        .collect();
    server.run_until_idle();

    let mut served = nc_substrate::stats::Confusion::new(10);
    for (i, ticket) in tickets.into_iter().enumerate() {
        let prediction = server.take_response(ticket).unwrap().outcome.unwrap();
        served.record(test.samples()[i].label, prediction);
    }
    assert_eq!(served.accuracy(), offline_confusion.accuracy());
    assert_eq!(served.total(), offline_confusion.total());
}
