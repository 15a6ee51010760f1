//! # nc-obs
//!
//! Std-only, zero-dependency observability for the experiment stack.
//! Every hot layer (the engine's job scheduler, the MLP trainer, the SNN
//! simulation loop, the hardware datapath simulators) reports through
//! one narrow interface — the [`Recorder`] trait — so instrumentation
//! has a single disabled-by-default cost model:
//!
//! * [`Span`] — RAII wall-clock timing of a named region. When the
//!   recorder is disabled the guard never reads the clock.
//! * counters — monotonically increasing `u64` event counts
//!   ([`Recorder::add`]): presentations, weight updates, spikes,
//!   datapath cycles.
//! * observations — named `f64` series aggregated with the Welford
//!   [`Running`](nc_substrate::stats::Running) accumulator
//!   ([`Recorder::observe`]).
//! * epoch metrics — per-epoch training telemetry ([`EpochMetrics`]:
//!   loss, train accuracy, weight updates, spike counts) reported by
//!   every trainer ([`Recorder::record_epoch`]).
//! * latency histograms — fixed-bucket integer-nanosecond
//!   [`LatencyHistogram`]s with exact rank-based p50/p95/p99
//!   ([`Recorder::record_latency`]); samples come from the
//!   clock-quarantined [`Stopwatch`] so a disabled recorder never causes
//!   a clock read.
//!
//! The default recorder is [`NullRecorder`]: every method is an empty
//! body and [`Recorder::enabled`] is `false`, so instrumented code can
//! skip even the argument computation. [`MemoryRecorder`] aggregates
//! everything in memory behind a mutex and snapshots into
//! [`ObsSnapshot`] for reporting.
//!
//! The [`record`] module turns an engine run into a machine-readable
//! [`BenchRecord`] serialized by the in-repo [`json`] writer — the
//! `BENCH_<git-sha>.json` perf-trajectory artifact (schema documented in
//! `DESIGN.md`).
//!
//! # Examples
//!
//! ```
//! use nc_obs::{MemoryRecorder, Recorder, Span};
//!
//! let rec = MemoryRecorder::new();
//! {
//!     let _span = Span::enter(&rec, "train");
//!     rec.add("weight_updates", 128);
//!     rec.observe("accuracy", 0.94);
//! }
//! let snap = rec.snapshot();
//! assert_eq!(snap.counters["weight_updates"], 128);
//! assert_eq!(snap.spans["train"].count, 1);
//! ```

pub mod json;
pub mod record;

mod hist;
mod memory;
mod recorder;

pub use hist::{LatencyHistogram, Stopwatch};
pub use memory::{EpochRecord, MemoryRecorder, ObsSnapshot, SpanStats};
pub use record::{BenchRecord, SectionRecord, BUILD_ISA};
pub use recorder::{null, EpochMetrics, NullRecorder, Recorder, Span};
