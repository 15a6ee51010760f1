//! The parallel experiment engine.
//!
//! Every experiment in this repository decomposes into *independent
//! trainings*: the five Table 3 model variants, the per-width points of
//! the Figure 8 sweep, the per-slope points of the Figure 6 bridge, the
//! per-scheme cells of Figure 14. The engine schedules those jobs across
//! a configurable thread pool with a hard determinism contract:
//!
//! 1. **Jobs own their randomness.** A job's payload carries every seed
//!    it needs; no job reads a shared RNG or any other mutable shared
//!    state. Training a model twice from the same payload is
//!    bit-identical.
//! 2. **Results are collected by job index**, not completion order, so
//!    the output `Vec` is the same whatever the interleaving.
//!
//! Together these make `threads = N` reproduce `threads = 1` bit for
//! bit — asserted by the integration tests.
//!
//! The engine also owns a [`DatasetCache`] so each `(workload, scale)`
//! pair is generated once and shared via [`Arc`] between jobs, and it
//! records per-job wall-clock and throughput ([`JobStat`]) for the
//! plain-text [`Engine::summary`].
//!
//! # Examples
//!
//! ```no_run
//! use nc_core::{AccuracyComparison, Engine, ExperimentScale, Workload};
//!
//! let engine = Engine::builder()
//!     .scale(ExperimentScale::Quick)
//!     .threads(4)
//!     .build();
//! let results = engine.run(&AccuracyComparison::on(Workload::Digits)).unwrap();
//! println!("{}", results.to_table());
//! println!("{}", engine.summary());
//! ```

use crate::error::Error;
use crate::experiment::{ExperimentScale, Workload};
use nc_dataset::model::{EvalBatch, FitBudget, Model};
use nc_dataset::Dataset;
use nc_mlp::{Activation, Mlp, MlpError, QuantizedMlp, TrainConfig, Trainer};
use nc_obs::{NullRecorder, Recorder, Span};
use nc_snn::bp_hybrid::BpSnn;
use nc_snn::coding::CodingScheme;
use nc_snn::{SnnNetwork, SnnParams, WotSnn};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
// nc-lint: allow(R3, reason = "per-job wall-clock is reported as observability metadata only; no result depends on it")
use std::time::{Duration, Instant};

/// A unit of schedulable work: a label and throughput hint for
/// observability, plus the payload the worker consumes.
#[derive(Debug)]
pub struct Job<I> {
    /// Display label for the job summary (e.g. `table3/digits/MLP+BP`).
    pub label: String,
    /// Samples the job will process (presentations + evaluations), used
    /// for throughput reporting; 0 = unknown.
    pub samples: u64,
    /// The worker's input. Must carry every seed the job needs — the
    /// determinism contract forbids reading shared mutable state.
    pub payload: I,
}

impl<I> Job<I> {
    /// Creates a job.
    pub fn new(label: impl Into<String>, samples: u64, payload: I) -> Self {
        Job {
            label: label.into(),
            samples,
            payload,
        }
    }
}

/// Wall-clock record of one completed job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobStat {
    /// The job's label.
    pub label: String,
    /// Wall-clock time the job took.
    pub wall: Duration,
    /// Samples processed (0 = unknown).
    pub samples: u64,
}

impl JobStat {
    /// Throughput in samples per second, if the sample count is known
    /// and the job took measurable time.
    pub fn samples_per_sec(&self) -> Option<f64> {
        let secs = self.wall.as_secs_f64();
        if self.samples == 0 || secs <= 0.0 {
            None
        } else {
            Some(self.samples as f64 / secs)
        }
    }
}

/// Acquires a mutex, recovering the inner value if a previous holder
/// panicked. Every critical section in this module is a plain read or
/// write of an `Option`/collection (no multi-step invariants), so a
/// poisoned lock's contents are still consistent and recovery is
/// strictly better than propagating the panic.
fn lock_or_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Renders a panic payload as a message: the common `&str` / `String`
/// payloads verbatim, anything else as a placeholder.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        String::from("<non-string panic payload>")
    }
}

/// Per-job failure policy for [`Engine::run_jobs_supervised`].
///
/// Retries are *deterministic*: a job's attempts are numbered
/// `0..=max_retries` and the worker sees the index, so a retried
/// schedule is reproducible at any thread count and no wall clock is
/// consulted anywhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Supervision {
    /// Extra attempts after the first (0 = fail fast on first panic).
    pub max_retries: u32,
}

/// Caches generated datasets so each `(workload, scale)` pair is
/// produced once per engine and shared between jobs via [`Arc`].
///
/// Generation is deterministic (a pure function of the spec), so a
/// cache hit and a fresh generation are indistinguishable except in
/// time and memory.
#[derive(Debug, Default)]
pub struct DatasetCache {
    map: Mutex<BTreeMap<(Workload, ExperimentScale), SharedData>>,
}

/// A cached `(train, test)` pair, shared between jobs.
pub type SharedData = Arc<(Dataset, Dataset)>;

impl DatasetCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the `(train, test)` pair for the key, generating it on
    /// first use. Repeated calls return the same [`Arc`].
    pub fn get(&self, workload: Workload, scale: ExperimentScale) -> Arc<(Dataset, Dataset)> {
        let key = (workload, scale);
        if let Some(hit) = lock_or_recover(&self.map).get(&key) {
            return Arc::clone(hit);
        }
        // Generate outside the lock so unrelated keys do not serialize;
        // if two threads race on the same key the first insert wins and
        // the duplicate is dropped (generation is deterministic, so the
        // contents are identical either way).
        let fresh = Arc::new(workload.generate(scale));
        Arc::clone(lock_or_recover(&self.map).entry(key).or_insert(fresh))
    }

    /// Number of cached pairs.
    pub fn len(&self) -> usize {
        lock_or_recover(&self.map).len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Configures an [`Engine`].
#[derive(Clone)]
pub struct EngineBuilder {
    threads: Option<usize>,
    scale: ExperimentScale,
    recorder: Option<Arc<dyn Recorder>>,
}

impl std::fmt::Debug for EngineBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineBuilder")
            .field("threads", &self.threads)
            .field("scale", &self.scale)
            .field("recorder", &self.recorder.is_some())
            .finish()
    }
}

impl EngineBuilder {
    /// Worker thread count. Defaults to the host's available
    /// parallelism. A value of 1 runs jobs inline, in order.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// Default experiment scale for experiments that do not pin one.
    pub fn scale(mut self, scale: ExperimentScale) -> Self {
        self.scale = scale;
        self
    }

    /// The observability sink every job and trainer reports to. Defaults
    /// to the disabled [`NullRecorder`], which costs nothing.
    pub fn recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Builds the engine.
    pub fn build(self) -> Engine {
        let threads = self
            .threads
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
        Engine {
            threads,
            scale: self.scale,
            cache: DatasetCache::new(),
            stats: Mutex::new(Vec::new()),
            recorder: self.recorder.unwrap_or_else(|| Arc::new(NullRecorder)),
        }
    }
}

/// The work-scheduling execution engine (see the module docs).
pub struct Engine {
    threads: usize,
    scale: ExperimentScale,
    cache: DatasetCache,
    stats: Mutex<Vec<JobStat>>,
    recorder: Arc<dyn Recorder>,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("threads", &self.threads)
            .field("scale", &self.scale)
            .field("cache", &self.cache)
            .field("recorder_enabled", &self.recorder.enabled())
            .finish_non_exhaustive()
    }
}

impl Engine {
    /// Starts configuring an engine. Defaults: host parallelism,
    /// [`ExperimentScale::Standard`].
    pub fn builder() -> EngineBuilder {
        EngineBuilder {
            threads: None,
            scale: ExperimentScale::Standard,
            recorder: None,
        }
    }

    /// A single-threaded engine at the given scale — the reference
    /// configuration every parallel run must reproduce bit for bit.
    // nc-lint: allow(R12, reason = "driver that several test files run: tests/end_to_end.rs, golden_snapshots.rs and the nc-core unit tests")
    pub fn sequential(scale: ExperimentScale) -> Engine {
        Engine::builder().threads(1).scale(scale).build()
    }

    /// Worker thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The engine's default experiment scale.
    pub fn scale(&self) -> ExperimentScale {
        self.scale
    }

    /// The engine's observability sink ([`NullRecorder`] by default).
    pub fn recorder(&self) -> &dyn Recorder {
        self.recorder.as_ref()
    }

    /// The engine's observability sink as a cloneable handle, for
    /// passing into jobs that outlive a borrow of `self`.
    pub fn recorder_handle(&self) -> Arc<dyn Recorder> {
        Arc::clone(&self.recorder)
    }

    /// The `(train, test)` datasets for a workload at the engine's
    /// scale, generated once and [`Arc`]-shared.
    pub fn dataset(&self, workload: Workload) -> Arc<(Dataset, Dataset)> {
        self.cache.get(workload, self.scale)
    }

    /// Like [`Engine::dataset`] with an explicit scale.
    pub fn dataset_at(
        &self,
        workload: Workload,
        scale: ExperimentScale,
    ) -> Arc<(Dataset, Dataset)> {
        self.cache.get(workload, scale)
    }

    /// Runs an experiment: `engine.run(&e)` ≡ `e.run(&engine)`.
    ///
    /// # Errors
    ///
    /// Propagates the experiment's [`Error`].
    pub fn run<E: Experiment + ?Sized>(&self, experiment: &E) -> Result<E::Output, Error> {
        experiment.run(self)
    }

    /// Executes independent jobs across the thread pool and returns
    /// their results **in job order**, whatever order they completed in.
    ///
    /// Work stealing is a single shared claim queue: each worker
    /// repeatedly claims the next unclaimed job. With `threads = 1` the
    /// jobs run inline in order — the reference schedule that the
    /// determinism contract guarantees every other schedule matches.
    ///
    /// # Panics
    ///
    /// If a job panics the panic is propagated to the caller once all
    /// workers have stopped.
    pub fn run_jobs<I, O>(&self, jobs: Vec<Job<I>>, work: impl Fn(I) -> O + Sync) -> Vec<O>
    where
        I: Send,
        O: Send,
    {
        self.run_pool(jobs, |_, payload| work(payload))
    }

    /// Like [`Engine::run_jobs`], but *supervised*: each job runs under
    /// [`catch_unwind`], panics are contained to the job that raised
    /// them, and the per-job [`Supervision`] policy bounds the
    /// deterministic retries. Returns one `Result` per job, in job
    /// order — sibling jobs always complete even when one fails every
    /// attempt.
    ///
    /// The worker takes the payload by reference (it may be consulted
    /// again on retry) plus the attempt index (0 for the first try).
    /// Panic and retry counts are reported to the recorder as
    /// `engine.panics` / `engine.retries`.
    ///
    /// [`catch_unwind`]: std::panic::catch_unwind
    pub fn run_jobs_supervised<I, O>(
        &self,
        jobs: Vec<Job<I>>,
        supervision: Supervision,
        work: impl Fn(&I, u32) -> O + Sync,
    ) -> Vec<Result<O, Error>>
    where
        I: Send + Sync,
        O: Send,
    {
        self.run_pool(jobs, |label, payload| {
            let mut attempt = 0;
            loop {
                match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    work(&payload, attempt)
                })) {
                    Ok(output) => return Ok(output),
                    Err(panic) => {
                        self.recorder.add("engine.panics", 1);
                        if attempt == supervision.max_retries {
                            return Err(Error::JobPanicked {
                                job: label.to_string(),
                                payload: panic_message(panic.as_ref()),
                            });
                        }
                        attempt += 1;
                        self.recorder.add("engine.retries", 1);
                    }
                }
            }
        })
    }

    /// The scoped pool behind both `run_jobs` variants: calls
    /// `run_one(label, payload)` once per job — inline and in order
    /// when one worker suffices, otherwise on `min(threads, n)` scoped
    /// workers claiming jobs from a shared queue — then records the
    /// batch's [`JobStat`]s and returns the outputs, both in job order.
    /// A panic in `run_one` propagates to the caller once every worker
    /// has stopped.
    fn run_pool<I, O>(&self, jobs: Vec<Job<I>>, run_one: impl Fn(&str, I) -> O + Sync) -> Vec<O>
    where
        I: Send,
        O: Send,
    {
        let n = jobs.len();
        let queue = Mutex::new(jobs.into_iter().enumerate());
        let slots: Vec<Mutex<Option<(O, JobStat)>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let worker = || loop {
            // Claim under the lock, run outside it.
            let claimed = lock_or_recover(&queue).next();
            let Some((
                index,
                Job {
                    label,
                    samples,
                    payload,
                },
            )) = claimed
            else {
                break;
            };
            let (output, wall) = {
                let _span = Span::enter(self.recorder.as_ref(), &label);
                self.recorder.add("engine.jobs", 1);
                // nc-lint: allow(R3, reason = "wall-clock span feeds JobStat reporting only")
                let started = Instant::now();
                let output = run_one(&label, payload);
                (output, started.elapsed())
            };
            let stat = JobStat {
                label,
                wall,
                samples,
            };
            *lock_or_recover(&slots[index]) = Some((output, stat));
        };

        let workers = self.threads.min(n);
        if workers <= 1 {
            worker();
        } else {
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(worker);
                }
            });
        }

        let (outputs, batch): (Vec<O>, Vec<JobStat>) = slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap_or_else(PoisonError::into_inner)
                    // nc-lint: allow(R5, reason = "every claimed job writes its slot before the pool joins, and the queue hands out every index")
                    .expect("job completed")
            })
            .unzip();
        // Record stats as one contiguous batch, in job order.
        lock_or_recover(&self.stats).extend(batch);
        outputs
    }

    /// The standard experiment job: build one model per spec, fit it on
    /// the shared training set within its budget, and score it on the
    /// shared test set. Returns accuracies in job order.
    pub fn train_and_score(
        &self,
        data: &Arc<(Dataset, Dataset)>,
        jobs: Vec<Job<(ModelSpec, FitBudget)>>,
    ) -> Vec<Result<f64, Error>> {
        let data = Arc::clone(data);
        let recorder = Arc::clone(&self.recorder);
        // One contiguous evaluation slab shared by every job: the models
        // score through the batched kernel path, not per-sample dispatch.
        let slab = Arc::new(nc_dataset::RequestSlab::from_dataset(&data.1));
        self.run_jobs(jobs, move |(spec, budget): (ModelSpec, FitBudget)| {
            let mut model = spec.build()?;
            model.fit_observed(&data.0, &budget, recorder.as_ref())?;
            let accuracy = model.evaluate_batch(&slab.batch()).accuracy();
            if recorder.enabled() {
                recorder.observe("engine.accuracy", accuracy);
            }
            Ok(accuracy)
        })
    }

    /// A snapshot of every job stat recorded so far, in completion-batch
    /// order (job order within each batch).
    pub fn stats(&self) -> Vec<JobStat> {
        lock_or_recover(&self.stats).clone()
    }

    /// Renders the per-job wall-clock / throughput summary as a
    /// plain-text table.
    pub fn summary(&self) -> String {
        let stats = self.stats();
        if stats.is_empty() {
            return String::from("engine: no jobs recorded\n");
        }
        let mut table = crate::report::TextTable::new(&["job", "wall", "samples/s"]);
        let mut total = Duration::ZERO;
        for stat in &stats {
            total += stat.wall;
            table.row_owned(vec![
                stat.label.clone(),
                format_duration(stat.wall),
                stat.samples_per_sec()
                    .map_or_else(|| String::from("-"), |r| format!("{r:.0}")),
            ]);
        }
        table.row_owned(vec![
            format!("total ({} jobs, {} threads)", stats.len(), self.threads),
            format_duration(total),
            String::new(),
        ]);
        table.render()
    }
}

fn format_duration(d: Duration) -> String {
    let secs = d.as_secs_f64();
    if secs >= 1.0 {
        format!("{secs:.2}s")
    } else {
        format!("{:.1}ms", secs * 1e3)
    }
}

/// An experiment that runs on an [`Engine`]: the unified entry point
/// for every table and figure reproduction.
pub trait Experiment {
    /// The experiment's result type.
    type Output;

    /// Runs the experiment, scheduling its independent trainings on the
    /// engine.
    ///
    /// # Errors
    ///
    /// Returns [`Error`] on invalid configuration or model failure.
    fn run(&self, engine: &Engine) -> Result<Self::Output, Error>;
}

/// A buildable description of one model variant — the payload format
/// experiment jobs use, so constructing a model happens inside the job
/// on the worker thread.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelSpec {
    /// Floating-point MLP+BP.
    Mlp {
        /// Layer widths, input first.
        sizes: Vec<usize>,
        /// Shared activation.
        activation: Activation,
        /// Initialization seed.
        seed: u64,
    },
    /// 8-bit fixed-point MLP (trains a float master, then quantizes).
    QuantizedMlp {
        /// Layer widths, input first.
        sizes: Vec<usize>,
        /// Shared activation of the float master.
        activation: Activation,
        /// Master initialization seed.
        seed: u64,
    },
    /// SNN+STDP with the full LIF readout (SNNwt).
    Snn {
        /// Input count.
        inputs: usize,
        /// Number of classes.
        classes: usize,
        /// LIF/STDP hyper-parameters (including neuron count).
        params: SnnParams,
        /// Initialization seed.
        seed: u64,
    },
    /// SNN+STDP with an explicit input coding scheme (Figure 14).
    SnnWithCoding {
        /// Input count.
        inputs: usize,
        /// Number of classes.
        classes: usize,
        /// LIF/STDP hyper-parameters (including neuron count).
        params: SnnParams,
        /// The input spike code.
        coding: CodingScheme,
        /// Initialization seed.
        seed: u64,
    },
    /// SNN+STDP deployed through the timing-free SNNwot readout.
    Wot {
        /// Input count.
        inputs: usize,
        /// Number of classes.
        classes: usize,
        /// LIF/STDP hyper-parameters of the temporal master.
        params: SnnParams,
        /// Master initialization seed.
        seed: u64,
    },
    /// The SNN+BP diagnostic hybrid.
    BpSnn {
        /// Input count.
        inputs: usize,
        /// Number of classes.
        classes: usize,
        /// Hyper-parameters (neuron count; spike-count normalization).
        params: SnnParams,
        /// Initialization seed.
        seed: u64,
    },
    /// MLP trained through a steep sigmoid surrogate and deployed with
    /// the true step activation (the Figure 6 step reference).
    StepMlp {
        /// Layer widths, input first.
        sizes: Vec<usize>,
        /// Surrogate sigmoid slope used during training.
        slope: f64,
        /// Initialization seed.
        seed: u64,
    },
}

impl ModelSpec {
    /// The variant's display name (matches [`Model::name`] of the built
    /// model) without constructing it.
    pub fn display_name(&self) -> &'static str {
        match self {
            ModelSpec::Mlp { .. } => "MLP+BP",
            ModelSpec::QuantizedMlp { .. } => "MLP+BP (8-bit fixed point)",
            ModelSpec::Snn { .. } | ModelSpec::SnnWithCoding { .. } => "SNN+STDP - LIF (SNNwt)",
            ModelSpec::Wot { .. } => "SNN+STDP - Simplified (SNNwot)",
            ModelSpec::BpSnn { .. } => "SNN+BP",
            ModelSpec::StepMlp { .. } => "MLP (step-deployed)",
        }
    }

    /// Builds the model behind the unified [`Model`] interface.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Topology`] for invalid MLP topologies.
    pub fn build(&self) -> Result<Box<dyn Model>, Error> {
        Ok(match self {
            ModelSpec::Mlp {
                sizes,
                activation,
                seed,
            } => Box::new(Mlp::new(sizes, *activation, *seed)?),
            ModelSpec::QuantizedMlp {
                sizes,
                activation,
                seed,
            } => Box::new(QuantizedMlp::untrained(sizes, *activation, *seed)?),
            ModelSpec::Snn {
                inputs,
                classes,
                params,
                seed,
            } => Box::new(SnnNetwork::new(*inputs, *classes, *params, *seed)),
            ModelSpec::SnnWithCoding {
                inputs,
                classes,
                params,
                coding,
                seed,
            } => Box::new(SnnNetwork::with_coding(
                *inputs, *classes, *params, *coding, *seed,
            )),
            ModelSpec::Wot {
                inputs,
                classes,
                params,
                seed,
            } => Box::new(WotSnn::untrained(*inputs, *classes, *params, *seed)),
            ModelSpec::BpSnn {
                inputs,
                classes,
                params,
                seed,
            } => Box::new(BpSnn::new(*inputs, *classes, *params, *seed)),
            ModelSpec::StepMlp { sizes, slope, seed } => {
                Box::new(StepDeployedMlp::new(sizes, *slope, *seed)?)
            }
        })
    }

    /// The input dimension the built model expects, without
    /// constructing it — what a serving layer validates request
    /// geometry against. Empty MLP topologies (rejected by
    /// [`ModelSpec::build`]) report 0.
    pub fn input_dim(&self) -> usize {
        match self {
            ModelSpec::Mlp { sizes, .. }
            | ModelSpec::QuantizedMlp { sizes, .. }
            | ModelSpec::StepMlp { sizes, .. } => sizes.first().copied().unwrap_or(0),
            ModelSpec::Snn { inputs, .. }
            | ModelSpec::SnnWithCoding { inputs, .. }
            | ModelSpec::Wot { inputs, .. }
            | ModelSpec::BpSnn { inputs, .. } => *inputs,
        }
    }

    /// The number of label classes the built model scores over, without
    /// constructing it. Empty MLP topologies report 0.
    pub fn num_classes(&self) -> usize {
        match self {
            ModelSpec::Mlp { sizes, .. }
            | ModelSpec::QuantizedMlp { sizes, .. }
            | ModelSpec::StepMlp { sizes, .. } => sizes.last().copied().unwrap_or(0),
            ModelSpec::Snn { classes, .. }
            | ModelSpec::SnnWithCoding { classes, .. }
            | ModelSpec::Wot { classes, .. }
            | ModelSpec::BpSnn { classes, .. } => *classes,
        }
    }

    /// The default training budget for this model family at a scale —
    /// the same epoch counts the sequential pipeline used, so engine
    /// runs are bit-identical to it.
    pub fn budget(&self, scale: ExperimentScale) -> FitBudget {
        let mut budget = FitBudget {
            epochs: scale.mlp_epochs(),
            stdp_epochs: scale.stdp_epochs(),
            stdp_delta: scale.stdp_delta(),
            learning_rate: None,
        };
        if let ModelSpec::BpSnn { .. } = self {
            budget.epochs = scale.bp_snn_epochs();
        }
        budget
    }
}

/// The Figure 6 step reference as a [`Model`]: trains through a steep
/// sigmoid surrogate (forward *and* backward), then swaps in the true
/// `[0/1]` step for deployment — the honest hardware scenario, since
/// the silicon comparator cannot be trained through directly.
#[derive(Debug, Clone, PartialEq)]
pub struct StepDeployedMlp {
    mlp: Mlp,
    slope: f64,
}

impl StepDeployedMlp {
    /// Creates the reference with the surrogate slope used in training.
    ///
    /// # Errors
    ///
    /// Returns [`MlpError`] for an invalid topology.
    pub fn new(sizes: &[usize], slope: f64, seed: u64) -> Result<Self, MlpError> {
        Ok(StepDeployedMlp {
            mlp: Mlp::new(sizes, Activation::sigmoid_slope(slope), seed)?,
            slope,
        })
    }
}

impl Model for StepDeployedMlp {
    fn name(&self) -> &'static str {
        "MLP (step-deployed)"
    }

    fn fit(
        &mut self,
        train: &Dataset,
        budget: &FitBudget,
    ) -> Result<(), nc_dataset::model::ModelError> {
        self.fit_observed(train, budget, nc_obs::null())
    }

    fn fit_observed(
        &mut self,
        train: &Dataset,
        budget: &FitBudget,
        recorder: &dyn Recorder,
    ) -> Result<(), nc_dataset::model::ModelError> {
        nc_dataset::model::check_fit_inputs(train, self.mlp.sizes()[0])?;
        // Keep the effective step size constant across the slope family
        // (the surrogate gradient carries a slope factor, capped).
        let learning_rate = budget
            .learning_rate
            .unwrap_or(0.3 / self.slope.min(Activation::SURROGATE_SLOPE_CAP));
        self.mlp
            .set_activation(Activation::sigmoid_slope(self.slope));
        Trainer::new(TrainConfig {
            epochs: budget.epochs,
            learning_rate,
            ..TrainConfig::default()
        })
        .fit_observed(&mut self.mlp, train, recorder);
        self.mlp.set_activation(Activation::Step);
        Ok(())
    }

    /// The wrapped MLP's readout, whose batch path reuses one scratch.
    fn predict(&mut self, pixels: &[u8], presentation_seed: u64) -> usize {
        Model::predict(&mut self.mlp, pixels, presentation_seed)
    }

    fn predict_batch(&mut self, batch: &EvalBatch<'_>, out: &mut Vec<usize>) {
        self.mlp.predict_batch(batch, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_are_sane() {
        let engine = Engine::builder().build();
        assert!(engine.threads() >= 1);
        assert_eq!(engine.scale(), ExperimentScale::Standard);
        assert_eq!(Engine::sequential(ExperimentScale::Tiny).threads(), 1);
        assert_eq!(Engine::builder().threads(0).build().threads(), 1);
    }

    #[test]
    fn results_come_back_in_job_order() {
        let engine = Engine::builder()
            .threads(4)
            .scale(ExperimentScale::Tiny)
            .build();
        let jobs: Vec<Job<u64>> = (0..64)
            .map(|i| Job::new(format!("square/{i}"), 1, i))
            .collect();
        // Stagger the work so completion order differs from job order.
        let out = engine.run_jobs(jobs, |i| {
            if i % 7 == 0 {
                std::thread::sleep(Duration::from_millis(2));
            }
            i * i
        });
        assert_eq!(out, (0..64).map(|i| i * i).collect::<Vec<_>>());
        assert_eq!(engine.stats().len(), 64);
    }

    #[test]
    fn sequential_and_parallel_schedules_agree() {
        let par = Engine::builder()
            .threads(4)
            .scale(ExperimentScale::Tiny)
            .build();
        let seq = Engine::sequential(ExperimentScale::Tiny);
        let jobs = || {
            (0..16u64)
                .map(|i| Job::new(format!("j{i}"), 0, i))
                .collect()
        };
        let f = |seed: u64| {
            let mut rng = nc_substrate::rng::SplitMix64::new(seed);
            (0..100)
                .map(|_| rng.next_u64())
                .fold(0u64, u64::wrapping_add)
        };
        assert_eq!(par.run_jobs(jobs(), f), seq.run_jobs(jobs(), f));
    }

    #[test]
    fn empty_job_list_is_a_no_op() {
        let engine = Engine::sequential(ExperimentScale::Tiny);
        let out: Vec<u32> = engine.run_jobs(Vec::<Job<u32>>::new(), |_| 0);
        assert!(out.is_empty());
        assert!(engine.summary().contains("no jobs"));
    }

    #[test]
    fn dataset_cache_shares_one_arc_per_key() {
        let engine = Engine::sequential(ExperimentScale::Tiny);
        let a = engine.dataset(Workload::Shapes);
        let b = engine.dataset(Workload::Shapes);
        assert!(Arc::ptr_eq(&a, &b));
        let c = engine.dataset_at(Workload::Shapes, ExperimentScale::Tiny);
        assert!(Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn recorder_sees_spans_counters_and_epochs() {
        let recorder = Arc::new(nc_obs::MemoryRecorder::new());
        let engine = Engine::builder()
            .threads(2)
            .scale(ExperimentScale::Tiny)
            .recorder(recorder.clone())
            .build();
        assert!(engine.recorder().enabled());
        let data = engine.dataset(Workload::Digits);
        let spec = ModelSpec::Mlp {
            sizes: vec![784, 4, 10],
            activation: Activation::sigmoid(),
            seed: 3,
        };
        let budget = spec.budget(ExperimentScale::Tiny);
        let jobs = vec![
            Job::new("obs/a", 0, (spec.clone(), budget)),
            Job::new("obs/b", 0, (spec, budget)),
        ];
        let out = engine.train_and_score(&data, jobs);
        assert!(out.iter().all(Result::is_ok));
        let snap = recorder.snapshot();
        assert_eq!(snap.counters.get("engine.jobs"), Some(&2));
        assert!(snap.spans.contains_key("obs/a") && snap.spans.contains_key("obs/b"));
        assert_eq!(snap.series["engine.accuracy"].count(), 2);
        assert!(!snap.epochs.is_empty(), "trainer should emit epoch records");
    }

    #[test]
    fn null_recorder_is_the_default_and_disabled() {
        let engine = Engine::sequential(ExperimentScale::Tiny);
        assert!(!engine.recorder().enabled());
        let dbg = format!("{engine:?}");
        assert!(dbg.contains("recorder_enabled: false"), "{dbg}");
    }

    #[test]
    fn summary_lists_jobs_and_total() {
        let engine = Engine::sequential(ExperimentScale::Tiny);
        engine.run_jobs(vec![Job::new("alpha", 10, 1u32)], |x| x + 1);
        let s = engine.summary();
        assert!(s.contains("alpha"), "{s}");
        assert!(s.contains("total (1 jobs, 1 threads)"), "{s}");
    }

    #[test]
    fn model_spec_builds_every_variant() {
        let specs = [
            ModelSpec::Mlp {
                sizes: vec![16, 4, 2],
                activation: Activation::sigmoid(),
                seed: 1,
            },
            ModelSpec::QuantizedMlp {
                sizes: vec![16, 4, 2],
                activation: Activation::sigmoid(),
                seed: 1,
            },
            ModelSpec::Snn {
                inputs: 16,
                classes: 2,
                params: SnnParams::for_neurons(4),
                seed: 1,
            },
            ModelSpec::SnnWithCoding {
                inputs: 16,
                classes: 2,
                params: SnnParams::for_neurons(4),
                coding: CodingScheme::RankOrder,
                seed: 1,
            },
            ModelSpec::Wot {
                inputs: 16,
                classes: 2,
                params: SnnParams::for_neurons(4),
                seed: 1,
            },
            ModelSpec::BpSnn {
                inputs: 16,
                classes: 2,
                params: SnnParams::for_neurons(4),
                seed: 1,
            },
            ModelSpec::StepMlp {
                sizes: vec![16, 4, 2],
                slope: 16.0,
                seed: 1,
            },
        ];
        for spec in &specs {
            let model = spec.build().unwrap();
            assert!(!model.name().is_empty());
            let b = spec.budget(ExperimentScale::Tiny);
            assert!(b.epochs > 0 && b.stdp_epochs > 0);
            // Geometry is readable without building.
            assert_eq!(spec.input_dim(), 16, "{}", spec.display_name());
            assert_eq!(spec.num_classes(), 2, "{}", spec.display_name());
        }
        // The hybrid reads its own epoch knob.
        assert_eq!(
            specs[5].budget(ExperimentScale::Standard).epochs,
            ExperimentScale::Standard.bp_snn_epochs()
        );
        assert_eq!(
            specs[0].budget(ExperimentScale::Standard).epochs,
            ExperimentScale::Standard.mlp_epochs()
        );
    }

    #[test]
    fn bad_topology_surfaces_as_typed_error() {
        let spec = ModelSpec::Mlp {
            sizes: vec![16],
            activation: Activation::sigmoid(),
            seed: 1,
        };
        assert!(matches!(spec.build(), Err(Error::Topology(_))));
    }

    #[test]
    fn panicking_job_is_contained_and_siblings_complete() {
        let engine = Engine::builder()
            .threads(4)
            .scale(ExperimentScale::Tiny)
            .build();
        let jobs: Vec<Job<u64>> = (0..16).map(|i| Job::new(format!("s{i}"), 1, i)).collect();
        let out = engine.run_jobs_supervised(jobs, Supervision::default(), |&i, _| {
            assert_ne!(i, 5, "job five exploded");
            i * 2
        });
        assert_eq!(out.len(), 16);
        for (i, r) in out.iter().enumerate() {
            if i == 5 {
                assert!(
                    matches!(
                        r,
                        Err(Error::JobPanicked { job, payload })
                            if job == "s5" && payload.contains("exploded")
                    ),
                    "{r:?}"
                );
            } else {
                assert_eq!(*r.as_ref().unwrap(), i as u64 * 2, "sibling {i}");
            }
        }
        // The engine is still fully usable afterwards: no mutex stayed
        // poisoned, stats were recorded, and new batches run fine.
        assert_eq!(engine.stats().len(), 16);
        let again = engine.run_jobs(vec![Job::new("after", 1, 7u64)], |x| x + 1);
        assert_eq!(again, vec![8]);
    }

    #[test]
    fn run_jobs_reraises_a_job_panic_and_the_engine_recovers() {
        for threads in [1, 4] {
            let engine = Engine::builder()
                .threads(threads)
                .scale(ExperimentScale::Tiny)
                .build();
            let jobs: Vec<Job<u64>> = (0..8).map(|i| Job::new(format!("p{i}"), 1, i)).collect();
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                engine.run_jobs(jobs, |i| {
                    assert_ne!(i, 3, "job three exploded");
                    i
                })
            }));
            assert!(
                caught.is_err(),
                "threads={threads}: the panic must reach the caller"
            );
            // No lock stayed poisoned: a fresh batch runs and records its
            // stats in job order.
            let before = engine.stats().len();
            let again = engine.run_jobs(
                vec![Job::new("after/a", 2, 1u64), Job::new("after/b", 3, 2u64)],
                |x| x * 10,
            );
            assert_eq!(again, vec![10, 20], "threads={threads}");
            let stats = engine.stats();
            assert_eq!(stats.len(), before + 2, "threads={threads}");
            let labels: Vec<&str> = stats[before..].iter().map(|s| s.label.as_str()).collect();
            assert_eq!(labels, ["after/a", "after/b"], "threads={threads}");
            assert_eq!(stats[before + 1].samples, 3);
        }
    }

    #[test]
    fn retries_are_deterministic_and_thread_count_invariant() {
        let supervision = Supervision { max_retries: 3 };
        let run = |threads| {
            let engine = Engine::builder()
                .threads(threads)
                .scale(ExperimentScale::Tiny)
                .build();
            let jobs: Vec<Job<u64>> = (0..8).map(|i| Job::new(format!("r{i}"), 1, i)).collect();
            engine.run_jobs_supervised(jobs, supervision, |_, attempt| {
                assert!(attempt >= 2, "deterministically flaky");
                attempt
            })
        };
        let sequential = run(1);
        let parallel = run(4);
        assert_eq!(sequential, parallel);
        // Each job failed attempts 0 and 1 and succeeded on attempt 2.
        assert!(sequential.iter().all(|r| *r == Ok(2)), "{sequential:?}");
    }

    #[test]
    fn exhausted_retries_surface_the_last_panic_and_are_counted() {
        let recorder = Arc::new(nc_obs::MemoryRecorder::new());
        let engine = Engine::builder()
            .threads(1)
            .scale(ExperimentScale::Tiny)
            .recorder(recorder.clone())
            .build();
        let jobs = vec![Job::new("doomed", 1, ())];
        let out =
            engine.run_jobs_supervised(jobs, Supervision { max_retries: 2 }, |(), _| -> u32 {
                panic!("always fails")
            });
        assert!(matches!(
            &out[0],
            Err(Error::JobPanicked { job, payload }) if job == "doomed" && payload.contains("always fails")
        ));
        let snap = recorder.snapshot();
        assert_eq!(
            snap.counters.get("engine.panics"),
            Some(&3),
            "1 try + 2 retries"
        );
        assert_eq!(snap.counters.get("engine.retries"), Some(&2));
    }

    #[test]
    fn poisoned_mutexes_recover_with_consistent_contents() {
        // Regression: a panic while a guard is held poisons the mutex;
        // every engine critical section is a single read/write, so
        // recovery must observe the pre-panic contents and keep working.
        let mutex = Mutex::new(vec![1, 2, 3]);
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = mutex.lock().unwrap();
            panic!("poison the lock");
        }));
        assert!(mutex.is_poisoned());
        assert_eq!(*lock_or_recover(&mutex), vec![1, 2, 3]);
        lock_or_recover(&mutex).push(4);
        assert_eq!(*lock_or_recover(&mutex), vec![1, 2, 3, 4]);
    }

    #[test]
    fn supervised_empty_job_list_is_a_no_op() {
        let engine = Engine::sequential(ExperimentScale::Tiny);
        let out: Vec<Result<u32, Error>> =
            engine.run_jobs_supervised(Vec::<Job<u32>>::new(), Supervision::default(), |&x, _| x);
        assert!(out.is_empty());
    }
}
