//! # nc-bench
//!
//! The regeneration harness: one binary per table and figure of the
//! paper (`cargo run -p nc-bench --release --bin table7`, etc.), the
//! `all` binary that regenerates everything in order, and the criterion
//! micro-benchmarks (`cargo bench`).
//!
//! Every binary prints a paper-vs-measured view and, where a figure is
//! being regenerated, writes the plotted series as CSV into `results/`.
//!
//! Common conventions:
//! * `--scale tiny|quick|standard|full` (default `standard`) selects
//!   the experiment scale for accuracy experiments (hardware tables are
//!   analytic and scale-free).
//! * `--json <path>` additionally writes a machine-readable
//!   [`BenchRecord`](nc_core::BenchRecord) (per-section wall-clock,
//!   samples/sec, counters, training curves) to `<path>` — the artifact
//!   CI uploads as `BENCH_<git-sha>.json`.
//! * Results land in `results/<name>.csv` relative to the working
//!   directory.

pub mod csv_out;
pub mod gen_extensions;
pub mod gen_models;
pub mod gen_tables;
pub mod microbench;

use nc_core::experiment::ExperimentScale;
use nc_core::{BenchRecord, Engine, MemoryRecorder, Recorder, SectionRecord};
use std::path::PathBuf;
use std::sync::Arc;

/// Parses the common `--scale` flag from `std::env::args`.
///
/// Unknown arguments are ignored so binaries can add their own flags.
pub fn scale_from_args() -> ExperimentScale {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--scale" {
            match args.next().as_deref() {
                Some("tiny") => return ExperimentScale::Tiny,
                Some("quick") => return ExperimentScale::Quick,
                Some("standard") => return ExperimentScale::Standard,
                Some("full") => return ExperimentScale::Full,
                other => {
                    eprintln!("unknown scale {other:?}, using standard");
                    return ExperimentScale::Standard;
                }
            }
        }
    }
    ExperimentScale::Standard
}

/// Parses the common `--threads` flag; `None` means "let the engine
/// pick" (host parallelism).
pub fn threads_from_args() -> Option<usize> {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--threads" {
            match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n > 0 => return Some(n),
                _ => {
                    eprintln!("--threads expects a positive integer, using host parallelism");
                    return None;
                }
            }
        }
    }
    None
}

/// Parses the `--json <path>` flag: where to write the machine-readable
/// bench record, or `None` to skip it (the default).
pub fn json_path_from_args() -> Option<PathBuf> {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--json" {
            match args.next() {
                Some(path) => return Some(PathBuf::from(path)),
                None => {
                    eprintln!("--json expects a path, skipping bench record");
                    return None;
                }
            }
        }
    }
    None
}

/// Parses the `--baseline <path>` flag: a previously committed
/// `BenchRecord` JSON to gate regressions against, or `None` (the
/// default) to skip gating.
pub fn baseline_from_args() -> Option<PathBuf> {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--baseline" {
            return args.next().map(PathBuf::from);
        }
    }
    None
}

/// Extracts `samples_per_sec` for `section` from a `BenchRecord` JSON
/// document by scanning the flat `"name": ... "samples_per_sec":`
/// layout `SectionRecord::to_json` emits (no general JSON parser
/// in-tree).
pub fn baseline_per_sec(json: &str, section: &str) -> Option<f64> {
    let needle = format!("\"name\":\"{section}\"");
    let at = json.find(&needle)?;
    let rest = &json[at..];
    let key = "\"samples_per_sec\":";
    let val = &rest[rest.find(key)? + key.len()..];
    let end = val.find([',', '}']).unwrap_or(val.len());
    val[..end].trim().parse().ok()
}

/// Short git SHA of the working tree, or `"unknown"` when git is
/// unavailable (bench records must never fail on it).
pub fn git_short_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| String::from("unknown"))
}

/// The shared harness state of one bench binary: the engine plus the
/// optional `--json` observability sink.
///
/// When `--json <path>` is given the engine gets a live
/// [`MemoryRecorder`], so trainers emit per-epoch metrics and the
/// simulators count cycles; [`BenchContext::finish`] then serializes
/// everything as a [`BenchRecord`]. Without the flag the engine keeps
/// the free no-op recorder.
#[derive(Debug)]
pub struct BenchContext {
    /// The experiment engine, configured from the command line.
    pub engine: Engine,
    bin: String,
    recorder: Option<Arc<MemoryRecorder>>,
    json_path: Option<PathBuf>,
}

impl BenchContext {
    /// Builds the context for the named binary from `std::env::args`.
    pub fn from_args(bin: &str) -> Self {
        let json_path = json_path_from_args();
        let recorder = json_path.as_ref().map(|_| Arc::new(MemoryRecorder::new()));
        let mut builder = Engine::builder().scale(scale_from_args());
        if let Some(threads) = threads_from_args() {
            builder = builder.threads(threads);
        }
        if let Some(rec) = &recorder {
            builder = builder.recorder(Arc::clone(rec) as Arc<dyn Recorder>);
        }
        BenchContext {
            engine: builder.build(),
            bin: bin.to_string(),
            recorder,
            json_path,
        }
    }

    /// The bench record for everything run so far (sections = the
    /// engine's job stats), regardless of whether `--json` was given.
    pub fn record(&self) -> BenchRecord {
        let sections = self
            .engine
            .stats()
            .iter()
            .map(|stat| SectionRecord {
                name: stat.label.clone(),
                wall_s: stat.wall.as_secs_f64(),
                samples: stat.samples,
            })
            .collect();
        BenchRecord {
            git_sha: git_short_sha(),
            bin: self.bin.clone(),
            threads: self.engine.threads(),
            scale: self.engine.scale().name().to_string(),
            sections,
            snapshot: self
                .recorder
                .as_ref()
                .map(|rec| rec.snapshot())
                .unwrap_or_default(),
        }
    }

    /// Prints the engine summary (if any jobs ran) and writes the JSON
    /// bench record when `--json` was given.
    pub fn finish(self) {
        if !self.engine.stats().is_empty() {
            eprintln!("{}", self.engine.summary());
        }
        let Some(path) = self.json_path.clone() else {
            return;
        };
        let record = self.record();
        match std::fs::write(&path, record.to_json()) {
            Ok(()) => eprintln!("[wrote {}]", path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
    }
}

/// Ensures `results/` exists and returns the path for a named CSV.
pub fn results_path(name: &str) -> PathBuf {
    let dir = PathBuf::from("results");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("warning: could not create results/: {e}");
    }
    dir.join(name)
}

/// Writes a CSV payload, logging rather than failing on IO errors (the
/// printed output is the primary artifact).
pub fn write_results(name: &str, payload: &str) {
    let path = results_path(name);
    match std::fs::write(&path, payload) {
        Ok(()) => println!("[wrote {}]", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

/// Formats a `(measured, paper)` pair for table cells.
pub fn vs(measured: f64, paper: f64) -> String {
    format!("{measured:.2} (paper {paper:.2})")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scale_is_standard() {
        assert_eq!(scale_from_args(), ExperimentScale::Standard);
    }

    #[test]
    fn context_engine_uses_host_defaults() {
        let engine = BenchContext::from_args("selftest").engine;
        assert_eq!(engine.scale(), ExperimentScale::Standard);
        assert!(engine.threads() >= 1);
        assert_eq!(threads_from_args(), None);
    }

    #[test]
    fn vs_formats_both_numbers() {
        assert_eq!(vs(1.234, 5.678), "1.23 (paper 5.68)");
    }

    #[test]
    fn results_path_is_under_results_dir() {
        let p = results_path("x.csv");
        assert!(p.to_string_lossy().contains("results"));
    }

    #[test]
    fn json_flag_defaults_to_off() {
        assert_eq!(json_path_from_args(), None);
    }

    #[test]
    fn baseline_flag_defaults_to_off() {
        assert_eq!(baseline_from_args(), None);
    }

    #[test]
    fn baseline_per_sec_scans_section_records() {
        let json = r#"{"sections":[{"name":"a/x","wall_s":2.0,"samples":10,"samples_per_sec":5},{"name":"a/y","wall_s":1.0,"samples":8,"samples_per_sec":8.25}]}"#;
        assert_eq!(baseline_per_sec(json, "a/x"), Some(5.0));
        assert_eq!(baseline_per_sec(json, "a/y"), Some(8.25));
        assert_eq!(baseline_per_sec(json, "a/z"), None);
    }

    #[test]
    fn git_sha_is_short_hex_or_unknown() {
        let sha = git_short_sha();
        assert!(
            sha == "unknown" || sha.chars().all(|c| c.is_ascii_hexdigit()),
            "{sha}"
        );
        assert!(!sha.is_empty());
    }

    #[test]
    fn context_record_captures_engine_runs() {
        let ctx = BenchContext::from_args("selftest");
        let jobs = vec![nc_core::Job::new("selftest/a", 10, 2u32)];
        let out = ctx.engine.run_jobs(jobs, |x| x * 2);
        assert_eq!(out, vec![4]);
        let record = ctx.record();
        assert_eq!(record.bin, "selftest");
        assert_eq!(record.scale, "standard");
        assert_eq!(record.sections.len(), 1);
        assert_eq!(record.sections[0].name, "selftest/a");
        assert_eq!(record.sections[0].samples, 10);
        let json = record.to_json();
        assert!(json.contains("\"schema_version\":3"), "{json}");
        assert!(json.contains("\"counters\":"), "{json}");
        assert!(json.contains("\"bin\":\"selftest\""), "{json}");
    }
}
