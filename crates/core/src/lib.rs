//! # nc-core
//!
//! The experiment framework reproducing the paper's methodology end to
//! end: it wires the models (`nc-mlp`, `nc-snn`), the synthetic
//! workloads (`nc-dataset`) and the hardware cost model (`nc-hw`) into
//! the concrete experiments behind every table and figure, and formats
//! the results next to the paper's published values.
//!
//! * [`engine`] — the parallel experiment engine: independent trainings
//!   scheduled across a thread pool with deterministic, order-independent
//!   results, a shared dataset cache, and per-job observability.
//! * [`error`] — the typed error surface ([`Error`]).
//! * [`experiment`] — workload selection, experiment scales and the
//!   accuracy-comparison runner (Table 3, §4.5).
//! * [`sweeps`] — the parameter sweeps: accuracy vs #neurons (Figure 8),
//!   the sigmoid→step bridging sweep (Figures 5–6), the coding-scheme
//!   comparison (Figure 14), and the folded-design `ni` sweep (Table 7).
//! * [`reference`] — the paper's published numbers (Tables 2 and 3,
//!   and the headline ratios) used for paper-vs-measured reporting.
//! * [`robustness`] — test-time input-noise robustness sweep (extension).
//! * [`fault_sweep`] — hardware fault injection: accuracy-vs-fault-rate
//!   ladders over the deployed families (extension).
//! * [`report`] — plain-text table and CSV formatting shared by the
//!   `nc-bench` regeneration binaries.
//!
//! # Examples
//!
//! ```no_run
//! use nc_core::{AccuracyComparison, Engine, ExperimentScale, Workload};
//!
//! // Regenerate Table 3 at the quick scale (minutes, not hours), with
//! // the five model trainings fanned out across four threads.
//! let engine = Engine::builder()
//!     .scale(ExperimentScale::Quick)
//!     .threads(4)
//!     .build();
//! let results = engine.run(&AccuracyComparison::on(Workload::Digits)).unwrap();
//! println!("{}", results.to_table());
//! println!("{}", engine.summary());
//! ```

pub mod engine;
pub mod error;
pub mod experiment;
pub mod fault_sweep;
pub mod reference;
pub mod report;
pub mod robustness;
pub mod sweeps;

pub use engine::{
    DatasetCache, Engine, EngineBuilder, Experiment, Job, JobStat, ModelSpec, StepDeployedMlp,
    Supervision,
};
pub use error::Error;
pub use experiment::{AccuracyComparison, AccuracyResults, ExperimentScale, Workload};
pub use fault_sweep::{FaultPoint, FaultSweep};
pub use nc_dataset::{FitBudget, Model, ModelError};
pub use nc_faults::{ChaosPlan, FaultModel, FaultPlan};
pub use nc_obs::{
    BenchRecord, EpochMetrics, MemoryRecorder, NullRecorder, ObsSnapshot, Recorder, SectionRecord,
    Span,
};
pub use robustness::{RobustnessPoint, RobustnessSweep};
pub use sweeps::{
    BridgePoint, CodingPoint, CodingSweep, NeuronSweep, NeuronSweepPoint, NeuronSweepResults,
    SigmoidBridge,
};
