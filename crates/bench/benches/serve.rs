//! Serving throughput and latency benchmark.
//!
//! Drives the `nc-serve` batched inference service with the seeded
//! closed-loop load generator at two batch-window settings and reports
//! completed requests/sec per window plus the integer-nanosecond
//! latency histograms (count, p50/p95/p99) through the `BenchRecord`
//! JSON. The model mix mirrors the paper's comparison: the quantized
//! MLP accelerator as the hot model (Zipf rank 0), the WOT SNN second,
//! the float MLP reference last.
//!
//! Run with: `cargo bench -p nc-bench --features bench-harness --bench serve`
//!
//! * `--json <path>` writes the results as a `BenchRecord`
//!   (`serve/loadgen_w8` / `serve/loadgen_w64` sections, histograms
//!   `serve.latency_ns_w8` / `serve.latency_ns_w64`).
//! * `--baseline <path>` gates `serve/loadgen_w64` throughput against a
//!   previously committed record and exits non-zero on a >20%
//!   regression.
//! * `--check-invariance` replays the window-8 plan at 1 and 4 engine
//!   worker threads and fails unless the load traces are identical
//!   (the serving determinism contract, as a smoke command).
//! * `--check-chaos` replays the same plan under a seeded [`ChaosPlan`]
//!   (replica panics, slow batches, poison, bursts) plus the full
//!   resilience policy, and fails unless the complete `LoadOutcome` —
//!   counters *and* the resilience event trace — is byte-identical at
//!   1 and 4 threads.
//! * `NC_BENCH_SMOKE=1` shrinks the workload for CI smoke runs.

use nc_bench::{
    baseline_from_args, baseline_per_sec, git_short_sha, json_path_from_args, load_baseline,
};
use nc_core::{
    BenchRecord, ChaosPlan, Engine, ExperimentScale, FaultModel, FaultPlan, FitBudget,
    MemoryRecorder, ModelSpec, ObsSnapshot, Recorder, SectionRecord, Supervision,
};
use nc_dataset::{digits::DigitsSpec, Dataset, Difficulty};
use nc_mlp::Activation;
use nc_serve::{
    run_load, LoadOutcome, LoadPlan, ModelSnapshot, ResilienceConfig, ServeConfig, Server,
};
use nc_snn::SnnParams;
use std::sync::Arc;
use std::time::Instant;

/// The batch windows benchmarked; the larger one is the gated section.
const WINDOWS: &[usize] = &[8, 64];

/// The section the `--baseline` regression gate checks.
const GATE: &str = "serve/loadgen_w64";

/// Zipf rank order handed to the load generator (hot model first).
const MODEL_MIX: &[&str] = &["qmlp", "wot", "mlp"];

/// Root seed for the `--check-chaos` schedule (lint rule R11: seeds are
/// named constants, never magic arguments).
const CHAOS_SEED: u64 = 0xC4A0_BEAC;

/// Seed for the chaos burst's transient-fault plan.
const CHAOS_BURST_SEED: u64 = 0xC4A0_B125;

fn smoke() -> bool {
    std::env::var_os("NC_BENCH_SMOKE").is_some()
}

fn data() -> (Dataset, Dataset) {
    DigitsSpec {
        train: 120,
        test: 50,
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

/// Trains the served model mix once; replicas are shared across every
/// measured server (training cost stays outside the timed window).
fn snapshots(train: &Arc<Dataset>) -> Vec<Arc<ModelSnapshot>> {
    let specs = vec![
        (
            "qmlp",
            ModelSpec::QuantizedMlp {
                sizes: vec![784, 100, 10],
                activation: Activation::sigmoid(),
                seed: 61,
            },
        ),
        (
            "wot",
            ModelSpec::Wot {
                inputs: 784,
                classes: 10,
                params: SnnParams::for_neurons(10),
                seed: 62,
            },
        ),
        (
            "mlp",
            ModelSpec::Mlp {
                sizes: vec![784, 100, 10],
                activation: Activation::sigmoid(),
                seed: 63,
            },
        ),
    ];
    specs
        .into_iter()
        .map(|(name, spec)| {
            Arc::new(ModelSnapshot::prepare(name, spec, budget(), Arc::clone(train), None).unwrap())
        })
        .collect()
}

fn plan() -> LoadPlan {
    // Smoke keeps the full concurrency level (throughput per second is
    // the gated quantity, and batch sizes track the user count) but
    // issues far fewer requests.
    if smoke() {
        LoadPlan {
            seed: 0x5E27_0001,
            users: 64,
            requests: 512,
            think_max: 1,
        }
    } else {
        LoadPlan {
            seed: 0x5E27_0001,
            users: 64,
            requests: 2048,
            think_max: 1,
        }
    }
}

/// One measured load run: fresh engine + server at the given window,
/// returning the load trace and the wall-clock of the closed loop.
fn serve_once(
    window: usize,
    threads: usize,
    snaps: &[Arc<ModelSnapshot>],
    test: &Dataset,
    recorder: Option<&Arc<MemoryRecorder>>,
) -> (LoadOutcome, f64) {
    let mut builder = Engine::builder()
        .threads(threads)
        .scale(ExperimentScale::Tiny);
    if let Some(rec) = recorder {
        builder = builder.recorder(Arc::clone(rec) as Arc<dyn Recorder>);
    }
    let engine = Arc::new(builder.build());
    let server = Server::new(
        engine,
        ServeConfig {
            batch_window: window,
            ..ServeConfig::default()
        },
        snaps.to_vec(),
    )
    .unwrap();
    let started = Instant::now();
    let outcome = run_load(&server, test, MODEL_MIX, &plan()).unwrap();
    (outcome, started.elapsed().as_secs_f64())
}

/// One chaos replay at the given engine thread count: the window-8 plan
/// under a seeded chaos schedule and the full resilience policy.
fn chaotic_once(threads: usize, snaps: &[Arc<ModelSnapshot>], test: &Dataset) -> LoadOutcome {
    let chaos = ChaosPlan {
        panic_rate: 0.2,
        panic_attempts: 1,
        delay_rate: 0.4,
        max_delay_ticks: 5,
        poison_rate: 0.1,
        burst_period: 4,
        burst_width: 1,
        burst_faults: Some(FaultPlan::new(FaultModel::StuckAt1, 0.02, CHAOS_BURST_SEED).unwrap()),
        ..ChaosPlan::quiet(CHAOS_SEED)
    };
    let engine = Arc::new(
        Engine::builder()
            .threads(threads)
            .scale(ExperimentScale::Tiny)
            .build(),
    );
    let server = Server::new(
        engine,
        ServeConfig {
            batch_window: 8,
            supervision: Supervision { max_retries: 3 },
            resilience: ResilienceConfig {
                queue_limit: Some(48),
                deadline_ticks: Some(4),
                ..ResilienceConfig::default()
            },
            chaos: Some(chaos),
        },
        snaps.to_vec(),
    )
    .unwrap();
    run_load(&server, test, MODEL_MIX, &plan()).unwrap()
}

fn main() {
    let (train, test) = data();
    let train = Arc::new(train);
    let snaps = snapshots(&train);

    if std::env::args().any(|a| a == "--check-chaos") {
        let at_1 = chaotic_once(1, &snaps, &test);
        let at_4 = chaotic_once(4, &snaps, &test);
        // Compare the Debug renderings so a mismatch prints exactly
        // what diverged; equality here covers every counter and the
        // ordered resilience event trace.
        let (text_1, text_4) = (format!("{at_1:?}"), format!("{at_4:?}"));
        if text_1 == text_4 {
            eprintln!(
                "serve chaos invariance ok: threads 1 == threads 4 over {} requests \
                 ({} shed, {} deadline-missed, {} events)",
                at_1.completed + at_1.failed,
                at_1.shed,
                at_1.deadline_missed,
                at_1.events.len()
            );
            return;
        }
        eprintln!("error: chaos load trace differs across thread counts");
        eprintln!("  threads 1: {text_1}");
        eprintln!("  threads 4: {text_4}");
        std::process::exit(1);
    }

    if std::env::args().any(|a| a == "--check-invariance") {
        let (at_1, _) = serve_once(8, 1, &snaps, &test, None);
        let (at_4, _) = serve_once(8, 4, &snaps, &test, None);
        if at_1 == at_4 {
            eprintln!(
                "serve invariance ok: threads 1 == threads 4 over {} requests",
                at_1.completed
            );
            return;
        }
        eprintln!("error: load trace differs across thread counts");
        eprintln!("  threads 1: {at_1:?}");
        eprintln!("  threads 4: {at_4:?}");
        std::process::exit(1);
    }

    let mut sections = Vec::new();
    let mut snapshot = ObsSnapshot::default();
    for &window in WINDOWS {
        let recorder = Arc::new(MemoryRecorder::new());
        let (outcome, wall_s) = serve_once(window, 4, &snaps, &test, Some(&recorder));
        assert_eq!(outcome.failed, 0, "window {window} failed requests");
        let per_sec = outcome.completed as f64 / wall_s;
        eprintln!(
            "serve/loadgen_w{window}: {} requests in {wall_s:.3}s ({per_sec:.1}/s), accuracy {:.2}",
            outcome.completed,
            outcome.accuracy()
        );
        sections.push(SectionRecord {
            name: format!("serve/loadgen_w{window}"),
            wall_s,
            samples: outcome.completed,
        });
        // Keep both windows' aggregates in one record by suffixing the
        // names (each window ran against its own recorder).
        let per_window = recorder.snapshot();
        for (name, hist) in per_window.histograms {
            snapshot
                .histograms
                .insert(format!("{name}_w{window}"), hist);
        }
        for (name, value) in per_window.counters {
            snapshot.counters.insert(format!("{name}_w{window}"), value);
        }
        for (name, series) in per_window.series {
            snapshot.series.insert(format!("{name}_w{window}"), series);
        }
    }

    let record = BenchRecord {
        git_sha: git_short_sha(),
        bin: "serve".to_string(),
        threads: 4,
        scale: if smoke() { "smoke" } else { "bench" }.to_string(),
        sections,
        snapshot,
    };

    if let Some(path) = json_path_from_args() {
        match std::fs::write(&path, record.to_json()) {
            Ok(()) => eprintln!("[wrote {}]", path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
    }

    if let Some(path) = baseline_from_args() {
        let json = match load_baseline(&path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        };
        let Some(base) = baseline_per_sec(&json, GATE) else {
            eprintln!("error: baseline {} has no section {GATE}", path.display());
            std::process::exit(1);
        };
        let Some(now) = record
            .sections
            .iter()
            .find(|s| s.name == GATE)
            .map(|s| s.samples as f64 / s.wall_s)
        else {
            eprintln!("error: this run produced no section {GATE}");
            std::process::exit(1);
        };
        // Smoke runs are milliseconds long, so scheduler noise swings
        // the rate; gate them loosely and full runs at the usual 20%.
        let floor = if smoke() { 0.5 } else { 0.8 };
        let ratio = now / base;
        eprintln!("{GATE}: {now:.1}/s vs baseline {base:.1}/s ({ratio:.2}x, floor {floor:.2})");
        if ratio < floor {
            eprintln!("error: {GATE} throughput regressed below {floor:.2}x of baseline");
            std::process::exit(1);
        }
    }
}
