//! The serving determinism contract, attacked from three sides:
//!
//! 1. **Coalescer purity** (property, `check_cases`): batch composition
//!    and per-item presentation seeds are a pure function of the
//!    admission sequence — replaying a seeded random request stream
//!    reproduces the sealed-batch trace exactly, and the trace is
//!    computable from the stream by a straight-line reference model.
//! 2. **Thread invariance**: the same request stream served at 1 and 4
//!    engine worker threads produces identical responses and identical
//!    load-generator traces.
//! 3. **Panic isolation**: a poisoned request takes down its batch, not
//!    the server — siblings complete, panics/retries land in the engine
//!    counters, and the server keeps serving afterwards.

use nc_core::{Engine, ExperimentScale, FitBudget, MemoryRecorder, ModelSpec, Supervision};
use nc_dataset::model::ModelError;
use nc_dataset::{digits::DigitsSpec, Dataset, Difficulty, Model};
use nc_mlp::Activation;
use nc_serve::{
    presentation_seed, run_load, Coalescer, LoadPlan, ModelSnapshot, ResilienceConfig, ServeConfig,
    ServeError, Server,
};
use nc_substrate::check::check_cases;
use std::sync::Arc;

#[test]
fn coalescer_trace_is_a_pure_function_of_the_stream() {
    check_cases(0x5EA1, 48, |case, rng| {
        let models = 1 + rng.next_index(4);
        let window = 1 + rng.next_index(9);
        let stream: Vec<(usize, u64)> = (0..rng.next_index(120))
            .map(|_| (rng.next_index(models), rng.next_below(1000)))
            .collect();

        // Replay the identical stream through two coalescers. Each item
        // admits its own 3 pixels, so the slab alignment is checkable.
        let pixels = |item: u64| item.to_le_bytes()[..3].to_vec();
        let mut a = Coalescer::new(&vec![(3, 10); models], window);
        let mut b = Coalescer::new(&vec![(3, 10); models], window);
        for &(model, item) in &stream {
            let ta = a.admit(model, item, &pixels(item), None);
            let tb = b.admit(model, item, &pixels(item), None);
            assert_eq!(ta, tb, "case {case}");
        }
        a.flush();
        b.flush();
        let sealed_a = a.take_sealed();
        let sealed_b = b.take_sealed();
        assert_eq!(sealed_a, sealed_b, "case {case}");

        // Straight-line reference: simulate the window rule directly.
        let mut pending: Vec<Vec<(u64, u64)>> = vec![Vec::new(); models];
        let mut expected: Vec<(usize, Vec<(u64, u64)>)> = Vec::new();
        for (ticket, &(model, item)) in stream.iter().enumerate() {
            pending[model].push((u64::try_from(ticket).unwrap(), item));
            if pending[model].len() >= window {
                expected.push((model, std::mem::take(&mut pending[model])));
            }
        }
        for (model, partial) in pending.into_iter().enumerate() {
            if !partial.is_empty() {
                expected.push((model, partial));
            }
        }
        assert_eq!(sealed_a.len(), expected.len(), "case {case}");
        for (seq, (batch, (model, items))) in sealed_a.iter().zip(&expected).enumerate() {
            assert_eq!(batch.seq, u64::try_from(seq).unwrap(), "case {case}");
            assert_eq!(batch.model, *model, "case {case}");
            let got: Vec<(u64, u64)> = batch
                .requests
                .iter()
                .map(|r| (r.ticket.0, r.item))
                .collect();
            assert_eq!(&got, items, "case {case}");
            // Every item's seed follows the offline convention,
            // regardless of batch position, and slab item `k` is
            // request `k`'s pixels and seed.
            let slab = batch.slab.batch();
            assert_eq!(slab.len(), batch.requests.len(), "case {case}");
            for (k, request) in batch.requests.iter().enumerate() {
                assert_eq!(
                    presentation_seed(request.item),
                    nc_dataset::model::EVAL_PRESENTATION_SEED_BASE | request.item,
                    "case {case}"
                );
                assert_eq!(slab.item(k), pixels(request.item), "case {case}");
                assert_eq!(slab.seed(k), presentation_seed(request.item), "case {case}");
            }
        }
    });
}

fn tiny_data() -> (Dataset, Dataset) {
    DigitsSpec {
        train: 40,
        test: 16,
        seed: 9,
        difficulty: Difficulty::default(),
    }
    .generate()
}

fn tiny_budget() -> FitBudget {
    FitBudget {
        epochs: 1,
        stdp_epochs: 1,
        stdp_delta: 8,
        learning_rate: None,
    }
}

fn snapshots(train: &Arc<Dataset>) -> Vec<Arc<ModelSnapshot>> {
    let quant = ModelSpec::QuantizedMlp {
        sizes: vec![784, 8, 10],
        activation: Activation::sigmoid(),
        seed: 31,
    };
    let float = ModelSpec::Mlp {
        sizes: vec![784, 8, 10],
        activation: Activation::sigmoid(),
        seed: 32,
    };
    vec![
        Arc::new(
            ModelSnapshot::prepare("hot", quant, tiny_budget(), Arc::clone(train), None).unwrap(),
        ),
        Arc::new(
            ModelSnapshot::prepare("cold", float, tiny_budget(), Arc::clone(train), None).unwrap(),
        ),
    ]
}

fn serve_at(threads: usize) -> (Vec<Option<usize>>, nc_serve::LoadOutcome) {
    let (train, test) = tiny_data();
    let train = Arc::new(train);
    let snaps = snapshots(&train);
    let engine = Arc::new(
        Engine::builder()
            .threads(threads)
            .scale(ExperimentScale::Tiny)
            .build(),
    );
    let server = Server::new(
        engine,
        ServeConfig {
            batch_window: 3,
            ..ServeConfig::default()
        },
        snaps,
    )
    .unwrap();

    // Direct stream: a fixed interleaving across both models.
    let tickets: Vec<_> = (0..test.len())
        .map(|i| {
            let name = if i % 3 == 0 { "cold" } else { "hot" };
            server
                .submit(name, &test.samples()[i].pixels, u64::try_from(i).unwrap())
                .unwrap()
        })
        .collect();
    server.run_until_idle();
    let direct: Vec<Option<usize>> = tickets
        .into_iter()
        .map(|t| server.take_response(t).unwrap().outcome.ok())
        .collect();

    // Closed-loop stream on the same server.
    let outcome = run_load(
        &server,
        &test,
        &["hot", "cold"],
        &LoadPlan {
            seed: 0xD15E,
            users: 5,
            requests: 64,
            think_max: 2,
        },
    )
    .unwrap();
    (direct, outcome)
}

#[test]
fn serving_is_invariant_across_worker_thread_counts() {
    let (direct_1, load_1) = serve_at(1);
    let (direct_4, load_4) = serve_at(4);
    assert!(direct_1.iter().all(Option::is_some));
    assert_eq!(direct_1, direct_4);
    // The whole load-generator trace — counts, correctness, per-model
    // mix, tick count — is bit-identical.
    assert_eq!(load_1, load_4);
    assert_eq!(load_1.completed, 64);
    assert_eq!(load_1.failed, 0);
}

/// A model that panics when asked about the poison image (all-255
/// pixels) — the serving analogue of a corrupt request hitting a kernel
/// assertion.
struct PoisonSensitive;

impl Model for PoisonSensitive {
    fn name(&self) -> &'static str {
        "poison-sensitive"
    }
    fn fit(&mut self, _: &Dataset, _: &FitBudget) -> Result<(), ModelError> {
        Ok(())
    }
    fn predict(&mut self, pixels: &[u8], _seed: u64) -> usize {
        assert!(
            !pixels.iter().all(|&p| p == 255),
            "poison image reached the kernel"
        );
        usize::from(pixels[0]) % 10
    }
}

#[test]
fn poisoned_batch_fails_alone_and_the_server_survives() {
    let recorder = Arc::new(MemoryRecorder::new());
    let engine = Arc::new(
        Engine::builder()
            .threads(4)
            .scale(ExperimentScale::Tiny)
            .recorder(Arc::clone(&recorder) as Arc<dyn nc_core::Recorder>)
            .build(),
    );
    let snapshot = Arc::new(ModelSnapshot::from_factory("edge", 4, 10, || {
        Box::new(PoisonSensitive)
    }));
    let config = ServeConfig {
        batch_window: 2,
        supervision: Supervision { max_retries: 1 },
        resilience: ResilienceConfig {
            queue_limit: Some(4),
            ..ResilienceConfig::default()
        },
        ..ServeConfig::default()
    };
    let server = Server::new(engine, config, vec![snapshot]).unwrap();

    // Batch 0: two healthy requests. Batch 1: healthy + poison.
    let healthy: Vec<_> = (0..3u8)
        .map(|i| server.submit("edge", &[i; 4], u64::from(i)).unwrap())
        .collect();
    let poison = server.submit("edge", &[255; 4], 3).unwrap();
    assert_eq!(server.run_until_idle(), 4);

    // The healthy batch completed; both requests of the poisoned batch
    // failed with the engine's panic message.
    for (i, ticket) in healthy.iter().take(2).enumerate() {
        assert_eq!(
            server.take_response(*ticket).unwrap().outcome.unwrap(),
            i % 10
        );
    }
    let sibling = server.take_response(healthy[2]).unwrap();
    let poisoned = server.take_response(poison).unwrap();
    assert_eq!(sibling.batch, poisoned.batch);
    for response in [sibling, poisoned] {
        match response.outcome {
            Err(ServeError::BatchFailed { message, .. }) => {
                assert!(message.contains("poison image"), "{message}");
            }
            other => panic!("expected BatchFailed, got {other:?}"),
        }
    }

    // One attempt + one retry, both caught; nothing escaped.
    assert_eq!(recorder.counter("engine.panics"), 2);
    assert_eq!(recorder.counter("engine.retries"), 1);
    assert_eq!(recorder.counter("serve.responses"), 4);

    // The server keeps serving after the failure.
    let again = server.submit("edge", &[7; 4], 9).unwrap();
    server.run_until_idle();
    assert_eq!(server.take_response(again).unwrap().outcome.unwrap(), 7);
    // Failed and retried batches released their in-flight slots: the
    // four-deep queue admits four more.
    for i in 0..4u8 {
        server
            .submit("edge", &[i; 4], u64::from(i))
            .expect("every answered request left the queue");
    }
}
