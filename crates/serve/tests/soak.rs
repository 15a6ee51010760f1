//! Soak-under-faults: the closed-loop load generator drives a server
//! whose hot model carries an injected hardware fault plan. The server
//! must stay up (zero panics escaping `run_jobs_supervised`, zero
//! failed responses), and the faulted model's accuracy may degrade only
//! within a bound of the healthy model's — the paper's robustness
//! claim, observed through the serving stack instead of the offline
//! sweep.
//!
//! Two tiers share one harness: the fast variant runs in tier-1 CI
//! (bounded well under 2 s at tiny scale), the full variant keeps the
//! original ~1k-presentation soak for the nightly workflow
//! (`--ignored`).

use nc_core::{
    Engine, ExperimentScale, FaultModel, FaultPlan, FitBudget, MemoryRecorder, ModelSpec,
    Supervision,
};
use nc_dataset::{digits::DigitsSpec, Difficulty};
use nc_mlp::Activation;
use nc_serve::{run_load, LoadPlan, ModelSnapshot, ServeConfig, Server};
use std::sync::Arc;

/// One soak tier: dataset/budget sizes and the load level.
struct SoakTier {
    train: usize,
    test: usize,
    epochs: usize,
    hidden: usize,
    users: usize,
    requests: u64,
    /// Accuracy floor for the healthy run — tier-dependent because the
    /// fast tier's one-epoch budget trains a much weaker model.
    min_accuracy: f64,
}

const FAST: SoakTier = SoakTier {
    train: 32,
    test: 12,
    epochs: 1,
    hidden: 8,
    users: 8,
    requests: 96,
    min_accuracy: 0.15,
};

const FULL: SoakTier = SoakTier {
    train: 120,
    test: 40,
    epochs: 3,
    hidden: 16,
    users: 16,
    requests: 512,
    min_accuracy: 0.3,
};

fn soak(tier: &SoakTier) {
    let (train, test) = DigitsSpec {
        train: tier.train,
        test: tier.test,
        seed: 77,
        difficulty: Difficulty::default(),
    }
    .generate();
    let train = Arc::new(train);
    let budget = FitBudget {
        epochs: tier.epochs,
        stdp_epochs: 1,
        stdp_delta: 8,
        learning_rate: None,
    };
    let spec = |seed| ModelSpec::QuantizedMlp {
        sizes: vec![784, tier.hidden, 10],
        activation: Activation::sigmoid(),
        seed,
    };
    // Same architecture and training twice: one healthy, one with
    // stuck-at-1 weight SRAM cells — deterministic injection, so the
    // degradation is reproducible.
    let healthy = Arc::new(
        ModelSnapshot::prepare("healthy", spec(51), budget, Arc::clone(&train), None).unwrap(),
    );
    let plan = FaultPlan::new(FaultModel::StuckAt1, 0.01, 0xFA17).unwrap();
    let faulty = Arc::new(
        ModelSnapshot::prepare("faulty", spec(51), budget, Arc::clone(&train), Some(plan)).unwrap(),
    );

    let run = |snapshot: &Arc<ModelSnapshot>, recorder: &Arc<MemoryRecorder>| {
        let engine = Arc::new(
            Engine::builder()
                .threads(4)
                .scale(ExperimentScale::Tiny)
                .recorder(Arc::clone(recorder) as Arc<dyn nc_core::Recorder>)
                .build(),
        );
        let server = Server::new(
            engine,
            ServeConfig {
                batch_window: 8,
                supervision: Supervision { max_retries: 1 },
                ..ServeConfig::default()
            },
            vec![Arc::clone(snapshot)],
        )
        .unwrap();
        run_load(
            &server,
            &test,
            &[snapshot.name()],
            &LoadPlan {
                seed: 0x50AC_0001,
                users: tier.users,
                requests: tier.requests,
                think_max: 1,
            },
        )
        .unwrap()
    };

    let healthy_rec = Arc::new(MemoryRecorder::new());
    let faulty_rec = Arc::new(MemoryRecorder::new());
    let healthy_out = run(&healthy, &healthy_rec);
    let faulty_out = run(&faulty, &faulty_rec);

    // The server never dropped a request and nothing escaped the
    // supervised jobs.
    for (out, rec) in [(&healthy_out, &healthy_rec), (&faulty_out, &faulty_rec)] {
        assert_eq!(out.completed, tier.requests);
        assert_eq!(out.failed, 0);
        assert_eq!(out.shed, 0);
        assert_eq!(out.deadline_missed, 0);
        assert_eq!(rec.counter("engine.panics"), 0);
        assert_eq!(rec.counter("engine.retries"), 0);
        assert_eq!(rec.counter("serve.responses"), tier.requests);
        // Latency histogram observed every request exactly once.
        let hist = rec.histogram("serve.latency_ns").unwrap();
        assert_eq!(hist.count(), tier.requests);
        assert!(hist.p50().unwrap() <= hist.p99().unwrap());
        // No resilience policy, no chaos: the trace stays empty.
        assert!(out.events.is_empty());
    }

    // Bounded degradation: the faulted model loses accuracy, but the
    // 1% stuck-cell rate must not collapse it (both runs draw the same
    // item stream, so the comparison is apples to apples).
    let healthy_acc = healthy_out.accuracy();
    let faulty_acc = faulty_out.accuracy();
    assert!(
        healthy_acc > tier.min_accuracy,
        "healthy accuracy {healthy_acc}"
    );
    assert!(
        faulty_acc >= healthy_acc - 0.35,
        "faulted accuracy {faulty_acc} collapsed vs healthy {healthy_acc}"
    );
}

/// Tier-1 variant: same harness, bounded sizes (runs in well under 2 s).
#[test]
fn soak_under_faults_fast_tier_stays_up() {
    soak(&FAST);
}

#[test]
#[ignore = "full tier: ~1k served presentations through a faulted model"]
fn soak_under_faults_stays_up_with_bounded_degradation() {
    soak(&FULL);
}
