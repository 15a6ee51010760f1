//! `serve_zipf`: a closed loop of virtual users against `nc_serve::Server`.
//!
//! 64 users on one thread draw a model from a Zipf mix (qmlp ≻ snnwt ≻
//! wot ≻ mlp) and an item uniformly from the test set, submit, and wait
//! for the answer before thinking for up to one tick. Every tick ends
//! with a drain; a tick that seals nothing flushes the partial windows
//! (the server's deterministic stand-in for a batch timeout). The batch
//! window is sized so the hot model seals full windows and the cold ones
//! mostly leave through those stall flushes.
//!
//! Each round replays the same request stream against a fresh server, so
//! every round does identical work. The engine runs one worker thread:
//! a second one bought little speed for much wider run-to-run spread.

use crate::trace::Tracer;
use crate::{digits, median, nearest_rank, timed_rounds, trimmed_mean, Options, Outcome};
use nc_core::{
    Engine, ExperimentScale, FitBudget, Job, MemoryRecorder, ModelSpec, Recorder, Supervision,
};
use nc_dataset::model::ModelError;
use nc_dataset::{Dataset, EvalBatch, Model, RequestSlab};
use nc_hw::folded::{FoldedMlp, FoldedSnnWot, FoldedSnnWt};
use nc_mlp::Activation;
use nc_serve::{presentation_seed, ModelSnapshot, ServeConfig, Server, Ticket};
use nc_snn::SnnParams;
use nc_substrate::rng::SplitMix64;
use nc_substrate::stats::Confusion;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

/// Served models in Zipf rank order (hot model first).
const MODELS: [&str; 4] = ["qmlp", "snnwt", "wot", "mlp"];

/// Closed-loop concurrency.
const USERS: usize = 64;

/// Requests per round.
const ROUND_REQUESTS: u64 = 32768;

/// Maximum think ticks after a response.
const THINK_MAX: u32 = 1;

/// Requests per model a batch seals at.
const BATCH_WINDOW: usize = 24;

/// Set-ups timed during the window besides the first; `setup_s` is the
/// median of all of them.
const EXTRA_SETUPS: usize = 8;

/// Training / test images generated from the workload seed.
const TRAIN_IMAGES: usize = 300;
const TEST_IMAGES: usize = 4096;

/// Hidden width of both MLPs and neuron count of the SNNwt model.
const MLP_HIDDEN: usize = 100;
const SNN_NEURONS: usize = 50;
const WOT_NEURONS: usize = 10;

/// Input-parallelism of the folded accelerators that price each served
/// image (the paper's folded design point).
const FOLD_NI: usize = 16;

/// Model initialisation seeds (part of the workload definition, not of
/// its inputs).
const QMLP_SEED: u64 = 0x5E27_0061;
const SNNWT_SEED: u64 = 0x5E27_0062;
const WOT_SEED: u64 = 0x5E27_0063;
const MLP_SEED: u64 = 0x5E27_0064;

/// Salt separating the load-plan stream from the dataset stream.
const PLAN_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// No-op jobs per `Engine::run_jobs_supervised` call in the dispatch
/// probe: one per served model, as in a drain that finds every model
/// with a sealed batch.
const DISPATCH_JOBS: usize = 4;

/// Dispatch-probe calls; the reported figure is their median.
const DISPATCH_CALLS: usize = 2000;

fn budget() -> FitBudget {
    FitBudget {
        epochs: 4,
        stdp_epochs: 1,
        stdp_delta: 8,
        learning_rate: None,
    }
}

fn specs() -> [ModelSpec; 4] {
    let mlp = |seed| ModelSpec::Mlp {
        sizes: vec![784, MLP_HIDDEN, 10],
        activation: Activation::sigmoid(),
        seed,
    };
    [
        ModelSpec::QuantizedMlp {
            sizes: vec![784, MLP_HIDDEN, 10],
            activation: Activation::sigmoid(),
            seed: QMLP_SEED,
        },
        ModelSpec::Snn {
            inputs: 784,
            classes: 10,
            params: SnnParams::for_neurons(SNN_NEURONS),
            seed: SNNWT_SEED,
        },
        ModelSpec::Wot {
            inputs: 784,
            classes: 10,
            params: SnnParams::for_neurons(WOT_NEURONS),
            seed: WOT_SEED,
        },
        mlp(MLP_SEED),
    ]
}

/// Energy per image (µJ) of the paper's folded accelerator for each
/// served model, in `MODELS` order. Both MLPs deploy on the folded MLP.
fn energy_per_image_uj() -> [f64; 4] {
    let mlp = FoldedMlp::new(&[784, MLP_HIDDEN, 10], FOLD_NI)
        .report()
        .energy_uj();
    [
        mlp,
        FoldedSnnWt::new(784, SNN_NEURONS, FOLD_NI)
            .report()
            .energy_uj(),
        FoldedSnnWot::new(784, WOT_NEURONS, FOLD_NI)
            .report()
            .energy_uj(),
        mlp,
    ]
}

/// Forwards to a trained model and times each batched prediction — the
/// per-model layer probe of the traced run.
struct Timed {
    inner: Box<dyn Model>,
    span: &'static str,
    tracer: Tracer,
}

impl Model for Timed {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn fit(&mut self, train: &Dataset, budget: &FitBudget) -> Result<(), ModelError> {
        self.inner.fit(train, budget)
    }

    fn evaluate(&mut self, test: &Dataset) -> Confusion {
        self.inner.evaluate(test)
    }

    fn predict(&mut self, pixels: &[u8], presentation_seed: u64) -> usize {
        self.inner.predict(pixels, presentation_seed)
    }

    fn predict_batch(&mut self, batch: &EvalBatch<'_>, out: &mut Vec<usize>) {
        let (inner, tracer) = (&mut self.inner, &self.tracer);
        tracer.span(self.span, || inner.predict_batch(batch, out));
    }
}

/// Per-layer metric names, in `MODELS` order.
const ITEMS_PER_BATCH: [&str; 4] = [
    "serve.items_per_batch.qmlp",
    "serve.items_per_batch.snnwt",
    "serve.items_per_batch.wot",
    "serve.items_per_batch.mlp",
];
const US_PER_ITEM: [&str; 4] = [
    "model.qmlp.us_per_item",
    "model.snnwt.us_per_item",
    "model.wot.us_per_item",
    "model.mlp.us_per_item",
];
const PREPARE_MS: [&str; 4] = [
    "setup.prepare_ms.qmlp",
    "setup.prepare_ms.snnwt",
    "setup.prepare_ms.wot",
    "setup.prepare_ms.mlp",
];

fn model_span(model: usize) -> &'static str {
    ["model.qmlp", "model.snnwt", "model.wot", "model.mlp"][model]
}

fn prepare_span(model: usize) -> &'static str {
    [
        "setup.prepare.qmlp",
        "setup.prepare.snnwt",
        "setup.prepare.wot",
        "setup.prepare.mlp",
    ][model]
}

/// Builds and trains one replica the way `ModelSnapshot::prepare` does.
fn trained(spec: &ModelSpec, train: &Dataset) -> Box<dyn Model> {
    // The specs are constants of this benchmark, so a failure is a bug.
    let mut model = spec.build().expect("benchmark model spec builds");
    model.fit(train, &budget()).expect("benchmark model trains");
    model
}

/// The trained snapshots plus the test images.
struct Setup {
    snapshots: Vec<Arc<ModelSnapshot>>,
    test: Dataset,
}

/// Generates the data and trains every snapshot. Untraced runs use
/// `ModelSnapshot::prepare`; the traced run serves each model through a
/// timing wrapper built by `ModelSnapshot::from_factory`, warming one
/// replica so training stays out of the timed rounds.
fn setup(seed: u64, tracer: &Tracer) -> Result<Setup, String> {
    let (train, test) = tracer.span("setup.dataset", || digits(TRAIN_IMAGES, TEST_IMAGES, seed));
    let train = Arc::new(train);
    let mut snapshots = Vec::new();
    for (index, spec) in specs().into_iter().enumerate() {
        let snapshot = if tracer.enabled() {
            let (train, tracer_for_model) = (Arc::clone(&train), tracer.clone());
            let factory_spec = spec.clone();
            let snapshot = ModelSnapshot::from_factory(
                MODELS[index],
                spec.input_dim(),
                spec.num_classes(),
                move || {
                    Box::new(Timed {
                        inner: trained(&factory_spec, &train),
                        span: model_span(index),
                        tracer: tracer_for_model.clone(),
                    }) as Box<dyn Model>
                },
            );
            tracer.span(prepare_span(index), || -> Result<(), String> {
                let replica = snapshot.replica().map_err(|e| e.to_string())?;
                snapshot.release(replica);
                Ok(())
            })?;
            snapshot
        } else {
            ModelSnapshot::prepare(MODELS[index], spec, budget(), Arc::clone(&train), None)
                .map_err(|e| e.to_string())?
        };
        snapshots.push(Arc::new(snapshot));
    }
    Ok(Setup { snapshots, test })
}

/// One virtual user.
struct User {
    rng: SplitMix64,
    waiting: Option<Pending>,
    think: u32,
}

struct Pending {
    ticket: Ticket,
    model: usize,
    item: usize,
    tick: u64,
    submitted: Instant,
}

/// One answered request: `(model, item, prediction)`; `None` marks a
/// failed request.
type Served = (usize, usize, Option<usize>);

/// Everything one round produced.
#[derive(Default)]
struct Round {
    served: Vec<Served>,
    latencies_ns: Vec<u64>,
    /// Server-side admission→response latencies (traced run only).
    server_latencies_ns: Vec<u64>,
    wait_ticks: Vec<u64>,
    stall_flushes: u64,
    /// `(model, batch seq)` of every answered request.
    batches: Vec<(usize, u64)>,
    attempted: u64,
    failed: u64,
}

fn zipf_cumulative() -> [u64; 4] {
    const SCALE: u64 = 1 << 32;
    let mut total = 0;
    let mut cumulative = [0; 4];
    for (rank, edge) in cumulative.iter_mut().enumerate() {
        total += SCALE / (rank as u64 + 1);
        *edge = total;
    }
    cumulative
}

/// Runs one round of `ROUND_REQUESTS` requests against a fresh
/// one-worker engine and server (reporting to `recorder`, if any).
fn round(
    snapshots: &[Arc<ModelSnapshot>],
    test: &Dataset,
    plan_seed: u64,
    recorder: Option<&Arc<MemoryRecorder>>,
    tracer: &Tracer,
) -> Result<Round, String> {
    let mut engine = Engine::builder().threads(1).scale(ExperimentScale::Tiny);
    if let Some(recorder) = recorder {
        engine = engine.recorder(Arc::clone(recorder) as Arc<dyn Recorder>);
    }
    let server = Server::new(
        Arc::new(engine.build()),
        ServeConfig {
            batch_window: BATCH_WINDOW,
            ..ServeConfig::default()
        },
        snapshots.to_vec(),
    )
    .map_err(|e| e.to_string())?;
    let cumulative = zipf_cumulative();
    let mut master = SplitMix64::new(plan_seed);
    let mut users: Vec<User> = (0..USERS)
        .map(|_| User {
            rng: SplitMix64::new(master.next_u64()),
            waiting: None,
            think: 0,
        })
        .collect();
    let samples = test.samples();
    let mut out = Round {
        served: Vec::with_capacity(ROUND_REQUESTS as usize),
        latencies_ns: Vec::with_capacity(ROUND_REQUESTS as usize),
        ..Round::default()
    };
    let mut answered = 0u64;
    while answered < ROUND_REQUESTS {
        let tick = server.advance_tick();
        // Every tick answers at least the flushed windows, so a healthy
        // server needs far fewer ticks than requests.
        if tick > ROUND_REQUESTS {
            return Err(format!(
                "round stalled: {answered} answers after {tick} ticks"
            ));
        }
        for user in &mut users {
            if user.waiting.is_some() {
                continue;
            }
            if user.think > 0 {
                user.think -= 1;
                continue;
            }
            if out.attempted >= ROUND_REQUESTS {
                continue;
            }
            let draw = user.rng.next_below(cumulative[3]);
            let model = cumulative.iter().position(|&edge| draw < edge).unwrap_or(0);
            let item = user.rng.next_index(samples.len());
            out.attempted += 1;
            let submitted = Instant::now();
            let admitted = tracer.span("serve.submit", || {
                server.submit(MODELS[model], &samples[item].pixels, item as u64)
            });
            match admitted {
                Ok(ticket) => {
                    user.waiting = Some(Pending {
                        ticket,
                        model,
                        item,
                        tick,
                        submitted,
                    })
                }
                Err(_) => {
                    out.failed += 1;
                    answered += 1;
                    out.served.push((model, item, None));
                }
            }
        }
        if tracer.span("serve.drain", || server.drain()) == 0 {
            server.flush();
            out.stall_flushes += 1;
            tracer.span("serve.drain", || server.drain());
        }
        for user in &mut users {
            let Some(pending) = &user.waiting else {
                continue;
            };
            let Some(response) = server.take_response(pending.ticket) else {
                continue;
            };
            let latency = pending.submitted.elapsed();
            out.latencies_ns
                .push(u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX));
            out.server_latencies_ns.extend(response.latency_ns);
            out.wait_ticks.push(tick - pending.tick);
            out.batches.push((response.model, response.batch));
            let prediction = response.outcome.ok();
            if prediction.is_none() {
                out.failed += 1;
            }
            out.served.push((pending.model, pending.item, prediction));
            answered += 1;
            user.waiting = None;
            user.think = user.rng.next_below_u32(THINK_MAX + 1);
        }
    }
    Ok(out)
}

/// Offline predictions of every test item by every snapshot, through
/// `Model::predict_batch` with the serving seed convention.
fn offline_predictions(
    snapshots: &[Arc<ModelSnapshot>],
    test: &Dataset,
) -> Result<Vec<Vec<usize>>, String> {
    snapshots
        .iter()
        .map(|snapshot| {
            let mut slab = RequestSlab::new(snapshot.input_dim(), snapshot.num_classes());
            for (item, sample) in test.samples().iter().enumerate() {
                slab.push(&sample.pixels, presentation_seed(item as u64), sample.label)
                    .map_err(|e| e.to_string())?;
            }
            let mut replica = snapshot.replica().map_err(|e| e.to_string())?;
            let mut predictions = Vec::new();
            replica.predict_batch(&slab.batch(), &mut predictions);
            snapshot.release(replica);
            Ok(predictions)
        })
        .collect()
}

/// Median wall time of one `Engine::run_jobs_supervised` call over
/// `DISPATCH_JOBS` no-op jobs, in µs, on an engine with `threads`
/// workers (1 runs the jobs inline).
pub fn dispatch_us(threads: usize) -> f64 {
    let engine = Engine::builder()
        .threads(threads)
        .scale(ExperimentScale::Tiny)
        .build();
    let mut walls = Vec::with_capacity(DISPATCH_CALLS);
    for _ in 0..DISPATCH_CALLS {
        let jobs: Vec<Job<usize>> = (0..DISPATCH_JOBS).map(|i| Job::new("noop", 1, i)).collect();
        let started = Instant::now();
        let results = engine.run_jobs_supervised(jobs, Supervision::default(), |&i, _| {
            std::hint::black_box(i)
        });
        walls.push(started.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(results);
    }
    median(&walls)
}

/// Runs the workload and reports its metrics.
pub fn run(options: &Options, tracer: &Tracer) -> Result<Outcome, String> {
    let started = Instant::now();
    let Setup { snapshots, test } = setup(options.seed, tracer)?;
    let first_setup = started.elapsed().as_secs_f64();
    let recorder = tracer.enabled().then(|| Arc::new(MemoryRecorder::new()));
    let plan_seed = options.seed ^ PLAN_SALT;

    // Each measured round is checked against the warm-up round and then
    // reduced to its figures, so memory does not grow with the window.
    let mut warmup: Option<Round> = None;
    let mut repeats = true;
    let (mut p50_ms, mut p99_ms, mut answered) = (Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0, 0);
    let mut server_latencies_ns = Vec::new();
    let timings = timed_rounds(
        options.seconds,
        first_setup,
        if tracer.enabled() { 0 } else { EXTRA_SETUPS },
        || setup(options.seed, tracer).map(drop),
        |measured| {
            let mut r = round(&snapshots, &test, plan_seed, recorder.as_ref(), tracer)?;
            server_latencies_ns.append(&mut r.server_latencies_ns);
            let Some(first) = &warmup else {
                warmup = Some(r);
                return Ok(());
            };
            repeats &= r.served == first.served;
            if measured {
                p50_ms.push(percentile_ms(&r.latencies_ns, 0.50));
                p99_ms.push(percentile_ms(&r.latencies_ns, 0.99));
                answered.push((r.attempted - r.failed) as f64);
                attempted += r.attempted;
                failed += r.failed;
            }
            Ok(())
        },
    )?;
    let warmup = warmup.ok_or("warm-up round missing")?;
    // Taken before the checks below, which also call the models.
    let spans = tracer.totals();

    // Checks, outside the timed window: every round answered the same
    // stream identically, and every answer equals the snapshot's own
    // batched prediction under the item's serving seed.
    let offline = offline_predictions(&snapshots, &test)?;
    let mut correct = repeats;
    if !repeats {
        eprintln!("check failed: a round served a different answer stream");
    }
    if let Some((model, item, prediction)) = warmup
        .served
        .iter()
        .find(|(model, item, p)| p.is_some_and(|p| p != offline[*model][*item]))
    {
        eprintln!(
            "check failed: {} item {item} served {prediction:?}, offline {}",
            MODELS[*model], offline[*model][*item]
        );
        correct = false;
    }

    let mut outcome = Outcome {
        correct,
        attempted,
        failed,
        ..Outcome::default()
    };
    let throughputs: Vec<f64> = answered
        .iter()
        .zip(&timings.rounds)
        .map(|(n, wall)| n / wall)
        .collect();
    let m = &mut outcome.metrics;
    if !tracer.enabled() {
        let energy = energy_per_image_uj();
        let served: Vec<(usize, usize)> = warmup
            .served
            .iter()
            .filter_map(|&(model, item, p)| {
                p.map(|p| (model, usize::from(p == test.samples()[item].label)))
            })
            .collect();
        let images = served.len().max(1) as f64;
        let hits: usize = served.iter().map(|&(_, hit)| hit).sum();
        let microjoules: f64 = served.iter().map(|&(model, _)| energy[model]).sum();
        m.insert("throughput_per_s", trimmed_mean(&throughputs));
        m.insert("latency_p50_ms", median(&p50_ms));
        m.insert("latency_p99_ms", median(&p99_ms));
        m.insert("setup_s", median(&timings.setups));
        m.insert("peak_rss_mb", timings.peak_rss_mb);
        m.insert("accuracy", hits as f64 / images);
        m.insert("energy_uj_per_image", microjoules / images);
        return Ok(outcome);
    }

    // Traced run: per-layer figures. Counts come from the warm-up round
    // (every round is identical), times from every round run.
    let rounds_run = timings.rounds.len() + 1;
    let span = |name: &str| spans.get(name).copied().unwrap_or_default();
    m.insert("trace.throughput_per_s", trimmed_mean(&throughputs));
    let drain = span("serve.drain");
    m.insert("serve.submit_us", span("serve.submit").mean_us());
    m.insert("serve.drain_ms", drain.mean_us() / 1e3);
    m.insert(
        "serve.dispatch_self_ms",
        drain.self_ns as f64 / drain.calls.max(1) as f64 / 1e6,
    );
    let mut ticks = warmup.wait_ticks.clone();
    ticks.sort_unstable();
    m.insert("serve.wait_ticks_p50", nearest_rank(&ticks, 0.50) as f64);
    m.insert("serve.wait_ticks_p99", nearest_rank(&ticks, 0.99) as f64);
    m.insert("serve.stall_flushes", warmup.stall_flushes as f64);
    for index in 0..MODELS.len() {
        let seqs: Vec<u64> = warmup
            .batches
            .iter()
            .filter(|(m, _)| *m == index)
            .map(|&(_, seq)| seq)
            .collect();
        let batches: BTreeSet<u64> = seqs.iter().copied().collect();
        m.insert(
            ITEMS_PER_BATCH[index],
            seqs.len() as f64 / batches.len().max(1) as f64,
        );
        let items = (seqs.len() * rounds_run) as f64;
        m.insert(
            US_PER_ITEM[index],
            span(model_span(index)).total_ns as f64 / items.max(1.0) / 1e3,
        );
        m.insert(
            PREPARE_MS[index],
            span(prepare_span(index)).total_ns as f64 / 1e6,
        );
    }
    m.insert(
        "setup.dataset_ms",
        span("setup.dataset").total_ns as f64 / 1e6,
    );
    if let Some(recorder) = &recorder {
        m.insert(
            "engine.jobs",
            (recorder.counter("engine.jobs") / rounds_run as u64) as f64,
        );
        m.insert(
            "obs.hist_gap_pct",
            histogram_gap_pct(recorder, &mut server_latencies_ns),
        );
    }
    Ok(outcome)
}

fn percentile_ms(latencies_ns: &[u64], q: f64) -> f64 {
    let mut sorted = latencies_ns.to_vec();
    sorted.sort_unstable();
    nearest_rank(&sorted, q) as f64 / 1e6
}

/// Largest gap, in percent of the exact value, between the server's
/// `serve.latency_ns` histogram quantiles (p50/p95/p99) and the exact
/// nearest-rank quantiles of the same raw samples (`raw_ns`, every
/// `Response::latency_ns` of the run).
fn histogram_gap_pct(recorder: &MemoryRecorder, raw_ns: &mut [u64]) -> f64 {
    let Some(histogram) = recorder.histogram("serve.latency_ns") else {
        return 0.0;
    };
    raw_ns.sort_unstable();
    let mut gap: f64 = 0.0;
    for (ppm, q) in [(500_000, 0.50), (950_000, 0.95), (990_000, 0.99)] {
        let exact = nearest_rank(raw_ns, q) as f64;
        let binned = histogram.quantile_ppm(ppm).unwrap_or(0) as f64;
        let relative = (binned - exact).abs() / exact.max(1.0) * 100.0;
        eprintln!(
            "serve.latency_ns q{q}: histogram {binned} ns, exact {exact} ns ({relative:.4}% gap, {} samples)",
            raw_ns.len()
        );
        gap = gap.max(relative);
    }
    gap
}
