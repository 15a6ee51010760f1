//! # nc-serve
//!
//! In-process batched inference serving for the neurocmp model zoo —
//! ROADMAP item 2, the paper's "millions of users" deployment direction.
//! The paper's throughput-per-area argument assumes presentations are
//! *batched*; this crate is the layer that turns independent recognition
//! requests into the batched kernel work the argument rests on.
//!
//! The stack is std-only (threads + mutexes, no async runtime) and
//! deliberately narrow:
//!
//! * [`ModelSnapshot`] — an immutable, `Arc`-shared description of a
//!   trained model (spec + budget + training set + optional fault plan)
//!   with a replica pool. Replicas are rebuilt deterministically on
//!   demand, so a replica lost to a panic costs a rebuild, never
//!   correctness.
//! * [`Coalescer`] — the admission queue. Requests are ticketed in
//!   arrival order and coalesced per model into [`SealedBatch`]es of at
//!   most [`ServeConfig::batch_window`] items. Admission copies each
//!   request's pixels once, with its presentation seed
//!   (`EVAL_PRESENTATION_SEED_BASE | item`), into its model's pending
//!   [`RequestSlab`](nc_dataset::RequestSlab); the sealed batch carries
//!   that slab. The window is counted in requests, not wall-clock time,
//!   so batch composition is a pure function of the admission sequence
//!   — the serving determinism contract.
//! * [`Server`] — ties the two together: [`Server::submit`] validates
//!   and admits, [`Server::drain`] executes every sealed batch on the
//!   engine's supervised-job machinery ([`Engine::run_jobs_supervised`]
//!   panic isolation + deterministic retries), handing each batch's
//!   slab to `predict_batch` as it is, retries included, so
//!   predictions flow through the same `predict_batch`/GEMM path
//!   offline evaluation uses, with the same per-item presentation
//!   seeds. Served predictions are
//!   therefore *bit-equal* to offline `evaluate_batch` — the conformance
//!   suite in `tests/conformance.rs` holds this across arrival orders,
//!   batch windows, and thread counts.
//! * [`run_load`] — a seeded, closed-loop load generator (SplitMix64
//!   per-user streams, Zipfian model mix) for soak tests and the `serve`
//!   bench bin. No entropy sources anywhere (lint rule R7).
//!
//! Latency is observed through the clock-quarantined
//! [`Stopwatch`](nc_obs::Stopwatch): when the engine's recorder is
//! disabled no request ever reads the clock, and when enabled the
//! admission→response interval lands in the `serve.latency_ns`
//! histogram ([`nc_obs::LatencyHistogram`], exact p50/p95/p99).
//!
//! [`Engine::run_jobs_supervised`]: nc_core::Engine::run_jobs_supervised
//!
//! # Quick start
//!
//! ```
//! use std::sync::Arc;
//! use nc_core::{Engine, ExperimentScale, FitBudget, ModelSpec};
//! use nc_dataset::{digits::DigitsSpec, Difficulty};
//! use nc_serve::{ModelSnapshot, ServeConfig, Server};
//!
//! // Train a snapshot once; the server shares it immutably.
//! let (train, test) = DigitsSpec {
//!     train: 16, test: 4, seed: 1, difficulty: Difficulty::default(),
//! }.generate();
//! let spec = ModelSpec::Wot {
//!     inputs: 784, classes: 10,
//!     params: nc_snn::SnnParams::for_neurons(10), seed: 7,
//! };
//! let budget = FitBudget { epochs: 1, stdp_epochs: 1, stdp_delta: 8, learning_rate: None };
//! let snapshot = ModelSnapshot::prepare("wot", spec, budget, Arc::new(train), None).unwrap();
//!
//! // Serve: submit, flush the partial window, drain, collect.
//! let engine = Arc::new(Engine::builder().threads(2).scale(ExperimentScale::Tiny).build());
//! let server = Server::new(engine, ServeConfig::default(), vec![Arc::new(snapshot)]).unwrap();
//! let ticket = server.submit("wot", &test.samples()[0].pixels, 0).unwrap();
//! server.flush();
//! server.drain();
//! let response = server.take_response(ticket).unwrap();
//! assert!(response.outcome.unwrap() < 10);
//! ```

mod coalescer;
mod loadgen;
mod resilience;
mod server;
mod snapshot;

pub use coalescer::{presentation_seed, CoalescedRequest, Coalescer, SealedBatch, Ticket};
pub use loadgen::{run_load, LoadOutcome, LoadPlan};
pub use resilience::{BreakerConfig, ResilienceConfig, ServeEvent};
pub use server::{Response, ServeConfig, Server};
pub use snapshot::ModelSnapshot;

/// Why a serving call could not be honored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// A server needs at least one model snapshot.
    NoModels,
    /// Two snapshots were registered under the same name.
    DuplicateModel(String),
    /// A request named a model the server does not hold.
    UnknownModel(String),
    /// A request's pixel count does not match the model's input width.
    Geometry {
        /// The model the request addressed.
        model: String,
        /// Input dimension the model expects.
        expected: usize,
        /// Pixels the request carried.
        got: usize,
    },
    /// A snapshot could not build/train/inject a replica.
    Build(String),
    /// A batch failed every supervised attempt (panic isolation caught
    /// it; the server stayed up and siblings completed).
    BatchFailed {
        /// The sealed batch's sequence number.
        batch: u64,
        /// The engine's final error message.
        message: String,
    },
    /// A load-generation plan was inconsistent (no users, empty
    /// dataset, …), or a serve/chaos configuration was invalid.
    Config(String),
    /// The bounded admission queue is full; the request was shed
    /// before consuming any batch slot ([`ResilienceConfig::queue_limit`]).
    Shed {
        /// The model the refused request addressed.
        model: String,
    },
    /// The model's circuit breaker is open and no geometry-compatible
    /// fallback exists; the request was refused at admission.
    BreakerOpen {
        /// The model whose breaker refused the request.
        model: String,
    },
    /// The request's virtual-tick deadline passed before (or while) its
    /// batch ran; the answer, if any, was discarded.
    DeadlineMissed {
        /// Absolute tick the request had to complete by.
        deadline: u64,
        /// Tick it actually would have completed at.
        at: u64,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::NoModels => write!(f, "server needs at least one model snapshot"),
            ServeError::DuplicateModel(name) => {
                write!(f, "duplicate model snapshot name `{name}`")
            }
            ServeError::UnknownModel(name) => write!(f, "no model snapshot named `{name}`"),
            ServeError::Geometry {
                model,
                expected,
                got,
            } => write!(
                f,
                "request for `{model}` carries {got} pixels, model expects {expected}"
            ),
            ServeError::Build(reason) => write!(f, "replica build failed: {reason}"),
            ServeError::BatchFailed { batch, message } => {
                write!(f, "batch {batch} failed every attempt: {message}")
            }
            ServeError::Config(reason) => write!(f, "bad load plan: {reason}"),
            ServeError::Shed { model } => {
                write!(f, "admission queue full, request for `{model}` shed")
            }
            ServeError::BreakerOpen { model } => {
                write!(f, "circuit breaker open for `{model}`, request refused")
            }
            ServeError::DeadlineMissed { deadline, at } => {
                write!(
                    f,
                    "deadline tick {deadline} missed (completed at tick {at})"
                )
            }
        }
    }
}

impl std::error::Error for ServeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_is_nonempty_and_specific() {
        for (err, needle) in [
            (ServeError::NoModels, "at least one"),
            (ServeError::DuplicateModel("m".into()), "duplicate"),
            (ServeError::UnknownModel("m".into()), "no model"),
            (
                ServeError::Geometry {
                    model: "m".into(),
                    expected: 784,
                    got: 3,
                },
                "784",
            ),
            (ServeError::Build("boom".into()), "boom"),
            (
                ServeError::BatchFailed {
                    batch: 7,
                    message: "panic".into(),
                },
                "batch 7",
            ),
            (ServeError::Config("no users".into()), "no users"),
            (ServeError::Shed { model: "m".into() }, "shed"),
            (ServeError::BreakerOpen { model: "m".into() }, "breaker"),
            (
                ServeError::DeadlineMissed { deadline: 4, at: 6 },
                "deadline tick 4",
            ),
        ] {
            assert!(err.to_string().contains(needle), "{err}");
        }
    }
}
