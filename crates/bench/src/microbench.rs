//! A tiny std-only micro-benchmark harness.
//!
//! The sandbox this repository grows in is offline, so the benches cannot
//! pull in criterion; this module provides the minimal subset the bench
//! targets need: warmup, adaptive iteration count, and min/median/max
//! of the measured samples. Timings are wall-clock (`std::time::Instant`) and printed
//! as a plain-text table row per benchmark.

use std::hint::black_box;
use std::time::{Duration, Instant};

use nc_core::{BenchRecord, SectionRecord};

use crate::{git_short_sha, json_path_from_args};

/// Target wall-clock per measured sample.
const SAMPLE_TARGET: Duration = Duration::from_millis(40);
/// Number of measured samples.
const SAMPLES: usize = 9;
/// Smoke-mode sample target (`NC_BENCH_SMOKE=1`). Kept long enough that
/// each sample still amortizes warm-up — short samples read tens of
/// percent slow and would false-trip CI's regression gate — while the
/// reduced sample count keeps the whole run to a few seconds.
const SMOKE_SAMPLE_TARGET: Duration = Duration::from_millis(20);
/// Smoke-mode sample count.
const SMOKE_SAMPLES: usize = 3;

/// Whether smoke mode is requested via the environment. Smoke numbers
/// are gate-quality but below baseline quality; committed baseline
/// records should come from full-mode runs.
fn smoke_mode() -> bool {
    std::env::var_os("NC_BENCH_SMOKE").is_some_and(|v| v != "0" && !v.is_empty())
}

fn sample_target() -> Duration {
    if smoke_mode() {
        SMOKE_SAMPLE_TARGET
    } else {
        SAMPLE_TARGET
    }
}

fn sample_count() -> usize {
    if smoke_mode() {
        SMOKE_SAMPLES
    } else {
        SAMPLES
    }
}

/// One benchmark result.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark name (`group/function`).
    pub name: String,
    /// Median time per iteration.
    pub median: Duration,
    /// Fastest sample's time per iteration.
    pub min: Duration,
    /// Slowest sample's time per iteration.
    pub max: Duration,
    /// Iterations per measured sample.
    pub iters: u64,
    /// Measured samples.
    pub samples: usize,
}

impl BenchResult {
    /// Iterations per second at the median.
    pub fn per_sec(&self) -> f64 {
        if self.median.as_secs_f64() > 0.0 {
            1.0 / self.median.as_secs_f64()
        } else {
            f64::INFINITY
        }
    }
}

/// A named group of benchmarks, printed as it runs.
#[derive(Debug)]
pub struct Group {
    name: String,
    results: Vec<BenchResult>,
}

impl Group {
    /// Starts a group (prints a header).
    pub fn new(name: &str) -> Self {
        println!("== {name} ==");
        Group {
            name: name.to_string(),
            results: Vec::new(),
        }
    }

    /// Times `f`, auto-scaling the iteration count so each sample takes
    /// roughly [`SAMPLE_TARGET`] ([`SMOKE_SAMPLE_TARGET`] under
    /// `NC_BENCH_SMOKE=1`), and prints the median per-iteration time with
    /// the fastest and slowest sample's.
    pub fn bench<T>(&mut self, name: &str, mut f: impl FnMut() -> T) -> &mut Self {
        let target = sample_target();
        // Calibrate: double iters until one sample is long enough.
        let mut iters: u64 = 1;
        loop {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            let elapsed = t.elapsed();
            if elapsed >= target || iters >= 1 << 24 {
                break;
            }
            // Aim directly at the target once we have a usable estimate.
            iters = if elapsed < Duration::from_micros(50) {
                iters * 8
            } else {
                let per_iter = elapsed.as_secs_f64() / iters as f64;
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                let target = (target.as_secs_f64() / per_iter).ceil() as u64;
                target.max(iters + 1)
            };
        }
        let mut samples: Vec<Duration> = (0..sample_count())
            .map(|_| {
                let t = Instant::now();
                for _ in 0..iters {
                    black_box(f());
                }
                t.elapsed() / u32::try_from(iters).unwrap_or(u32::MAX)
            })
            .collect();
        samples.sort();
        let (min, median, max) = (
            samples[0],
            samples[samples.len() / 2],
            samples[samples.len() - 1],
        );
        let full = format!("{}/{}", self.name, name);
        println!(
            "{full:<44} {:>12}  [{} .. {}]  ({iters} iters x {} samples)",
            fmt_duration(median),
            fmt_duration(min),
            fmt_duration(max),
            samples.len()
        );
        self.results.push(BenchResult {
            name: full,
            median,
            min,
            max,
            iters,
            samples: samples.len(),
        });
        self
    }

    /// The collected results.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }
}

/// The results as a `BenchRecord` of bench binary `bin`: one section per
/// benchmark, `samples` = iterations timed and `wall_s` = that many
/// iterations at the median time, so `samples_per_sec` is iterations/sec
/// at the median.
pub fn bench_record(bin: &str, results: &[BenchResult]) -> BenchRecord {
    BenchRecord {
        git_sha: git_short_sha(),
        bin: bin.to_string(),
        threads: 1,
        scale: "bench".to_string(),
        sections: results
            .iter()
            .map(|r| {
                let samples = r.iters * r.samples as u64;
                SectionRecord {
                    name: r.name.clone(),
                    wall_s: r.median.as_secs_f64() * samples as f64,
                    samples,
                }
            })
            .collect(),
        snapshot: nc_core::ObsSnapshot::default(),
    }
}

/// Writes [`bench_record`] to the `--json <path>` argument, if one was
/// given; a failed write warns instead of failing the run.
pub fn write_record_from_args(bin: &str, results: &[BenchResult]) {
    if let Some(path) = json_path_from_args() {
        match std::fs::write(&path, bench_record(bin, results).to_json()) {
            Ok(()) => eprintln!("[wrote {}]", path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
    }
}

/// Formats a duration with an adaptive unit.
pub fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_formatting_picks_units() {
        assert_eq!(fmt_duration(Duration::from_nanos(12)), "12 ns");
        assert_eq!(fmt_duration(Duration::from_micros(12)), "12.00 µs");
        assert_eq!(fmt_duration(Duration::from_millis(12)), "12.00 ms");
        assert_eq!(fmt_duration(Duration::from_secs(2)), "2.00 s");
    }

    #[test]
    fn per_sec_is_inverse_of_median() {
        let r = BenchResult {
            name: "x".into(),
            median: Duration::from_millis(10),
            min: Duration::from_millis(9),
            max: Duration::from_millis(12),
            iters: 1,
            samples: 9,
        };
        assert!((r.per_sec() - 100.0).abs() < 1e-9);
    }
}
